#include "core/registry.h"

#include <algorithm>

namespace mead::core {

void ReplicaRegistry::on_view(const gc::View& view) {
  view_ = view;
  // Drop announcements for members no longer in the view: a relaunched
  // replica re-announces with a fresh endpoint, so stale records must not
  // linger as fail-over targets (the cache scheme's stale-reference problem
  // is exactly what this avoids for the proactive schemes).
  std::erase_if(announced_, [&](const auto& kv) {
    return !view_.contains(kv.first);
  });
}

void ReplicaRegistry::on_announce(const Announce& announce) {
  Record rec;
  rec.member = announce.member;
  rec.endpoint = announce.endpoint;
  rec.ior = announce.ior;
  announced_[announce.member] = std::move(rec);
}

void ReplicaRegistry::on_listing(const Listing& listing) {
  for (const auto& entry : listing.entries) on_announce(entry);
}

std::size_t ReplicaRegistry::known_count() const {
  std::size_t n = 0;
  for (const auto& m : view_.members) {
    if (announced_.contains(m)) ++n;
  }
  return n;
}

bool ReplicaRegistry::is_first(const std::string& member) const {
  // "First" means first *replica* in view order. Non-replica group members
  // (the Recovery Manager subscribes to the same group, §3.3) never
  // announce, so the first announced member is the distinguished one.
  auto f = first();
  return f.has_value() && f->member == member;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::first() const {
  for (const auto& m : view_.members) {
    auto it = announced_.find(m);
    if (it != announced_.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::next_after(
    const std::string& member) const {
  const auto& members = view_.members;
  if (members.empty()) return std::nullopt;
  auto self = std::find(members.begin(), members.end(), member);
  // Walk cyclically from the position after `member`.
  const std::size_t start =
      self == members.end()
          ? 0
          : static_cast<std::size_t>(self - members.begin()) + 1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& candidate = members[(start + i) % members.size()];
    if (candidate == member) continue;
    auto it = announced_.find(candidate);
    if (it != announced_.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::find(
    const std::string& member) const {
  if (!view_.contains(member)) return std::nullopt;
  auto it = announced_.find(member);
  if (it == announced_.end()) return std::nullopt;
  return it->second;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::lookup_by_key_hash(
    std::uint16_t hash, const std::string& member) const {
  auto rec = find(member);
  if (!rec) return std::nullopt;
  if (rec->ior.key.hash16() != hash) return std::nullopt;
  return rec;
}

std::vector<ReplicaRegistry::Record> ReplicaRegistry::listed() const {
  std::vector<Record> out;
  for (const auto& m : view_.members) {
    auto it = announced_.find(m);
    if (it != announced_.end()) out.push_back(it->second);
  }
  return out;
}

void codec_write(giop::CdrWriter& w, const ReplicaRegistry& reg) {
  giop::encode(w, reg.view_);
  w.write_u32(static_cast<std::uint32_t>(reg.announced_.size()));
  for (const auto& [name, rec] : reg.announced_) giop::encode(w, rec);
}

bool codec_read(giop::CdrReader& r, ReplicaRegistry& reg) {
  std::vector<ReplicaRegistry::Record> records;
  if (!giop::decode(r, reg.view_) || !giop::decode(r, records)) return false;
  reg.announced_.clear();
  for (auto& rec : records) {
    std::string key = rec.member;
    reg.announced_[std::move(key)] = std::move(rec);
  }
  return true;
}

std::vector<ReplicaRegistry::Record> ReplicaRegistry::read_set(
    const std::set<std::string>& excluded) const {
  std::vector<Record> out;
  for (const auto& m : view_.members) {
    if (excluded.contains(m)) continue;
    auto it = announced_.find(m);
    if (it != announced_.end()) out.push_back(it->second);
  }
  return out;
}

}  // namespace mead::core
