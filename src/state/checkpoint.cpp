#include "state/checkpoint.h"

namespace mead::state {

namespace {

// A base is indexed by key: entry k must hold key k, for every key.
bool dense_base(const Checkpoint& c, std::uint32_t keys) {
  if (c.entries.size() != keys) return false;
  for (std::uint32_t k = 0; k < keys; ++k) {
    if (c.entries[k].first != k) return false;
  }
  return true;
}

}  // namespace

Checkpoint CheckpointStore::take(AppState& s) {
  Checkpoint c;
  c.epoch = next_epoch_++;
  c.applied = s.applied();
  c.digest = s.digest();
  if (chain_.empty()) {
    c.is_base = true;
    c.base_epoch = c.epoch;
    c.entries.reserve(s.keys());
    for (std::uint32_t k = 0; k < s.keys(); ++k) {
      c.entries.emplace_back(k, s.value(k));
    }
    s.clear_dirty();  // the base subsumes any pending dirty set
    chain_.push_back(c);
    return c;
  }
  c.base_epoch = chain_.front().epoch;
  c.prev_digest = chain_.back().digest;
  for (std::uint32_t k : s.take_dirty()) {
    c.entries.emplace_back(k, s.value(k));
  }
  push_delta(Checkpoint(c));
  return c;
}

CheckpointStore::Apply CheckpointStore::apply(Checkpoint&& c, AppState& s) {
  if (c.epoch <= last_epoch()) return Apply::kStale;
  if (c.is_base) {
    if (!dense_base(c, s.keys())) return Apply::kMalformed;
  } else {
    if (chain_.empty() || chain_.front().epoch != c.base_epoch ||
        chain_.back().epoch + 1 != c.epoch) {
      return Apply::kGap;
    }
    if (chain_.back().digest != c.prev_digest) {
      return Apply::kDigestMismatch;
    }
    for (const auto& entry : c.entries) {
      if (entry.first >= chain_.front().entries.size()) {
        return Apply::kMalformed;
      }
    }
  }
  for (const auto& [key, value] : c.entries) s.install(key, value);
  s.set_progress(c.applied, c.digest);
  next_epoch_ = c.epoch + 1;
  if (c.is_base) {
    chain_.clear();
    chain_.push_back(std::move(c));
  } else {
    push_delta(std::move(c));
  }
  return Apply::kApplied;
}

std::span<const Checkpoint> CheckpointStore::missing_after(
    std::uint64_t have_epoch) const {
  // Chain epochs are contiguous from the base's.
  const std::span<const Checkpoint> all(chain_);
  if (all.empty() || have_epoch < all.front().epoch ||
      have_epoch > all.back().epoch) {
    return all;
  }
  return all.subspan(have_epoch - all.front().epoch + 1);
}

void CheckpointStore::push_delta(Checkpoint&& c) {
  const bool completes_cycle = chain_.size() > rebase_every_;
  chain_.push_back(std::move(c));
  if (!completes_cycle) return;
  // Fold every delta into the base's key-indexed slots (apply checked
  // each key against the base); the base takes the last delta's place.
  Checkpoint& base = chain_.front();
  for (auto it = chain_.begin() + 1; it != chain_.end(); ++it) {
    for (const auto& [key, value] : it->entries) {
      base.entries[key].second = value;
    }
  }
  const Checkpoint& last = chain_.back();
  base.epoch = last.epoch;
  base.base_epoch = last.epoch;
  base.applied = last.applied;
  base.digest = last.digest;
  chain_.erase(chain_.begin() + 1, chain_.end());
}

}  // namespace mead::state
