#include "core/read_set.h"

namespace mead::core {

ReadSetSubscriber::ReadSetSubscriber(net::Process& proc, std::string member,
                                     net::Endpoint daemon, std::string service,
                                     Callback cb)
    : proc_(proc), service_(std::move(service)), cb_(std::move(cb)) {
  gc_ = std::make_unique<gc::GcClient>(proc_, std::move(member),
                                       std::move(daemon));
}

sim::Task<bool> ReadSetSubscriber::start() {
  const bool connected = co_await gc_->connect();
  if (!connected) co_return false;
  (void)co_await gc_->join(read_set_group(service_));
  proc_.sim().spawn(pump());
  co_return true;
}

sim::Task<void> ReadSetSubscriber::pump() {
  for (;;) {
    auto ev = co_await gc_->next_event();
    if (!ev || !ev.value()) co_return;
    gc::Event& event = *ev.value();
    if (event.kind != gc::Event::Kind::kMessage) continue;
    if (event.group != read_set_group(service_)) continue;
    auto ctrl = decode_ctrl(event.payload);
    if (!ctrl) continue;
    if (auto* rs = std::get_if<ReadSet>(&*ctrl)) {
      apply_full(std::move(*rs), {});
    } else if (auto* qs = std::get_if<QuorumSet>(&*ctrl)) {
      // A full set that additionally flags its catching-up members.
      apply_full(std::move(qs->set), std::move(qs->catching_up));
    } else if (const auto* d = std::get_if<ReadSetDelta>(&*ctrl)) {
      if (d->version <= last_version_) continue;  // stale
      if (d->base_version != last_version_) {
        // We missed the base this delta builds on; applying it would
        // corrupt the set. Ask the RM for a full republication instead of
        // waiting for the next membership change — under a healed
        // partition that could be arbitrarily far away. One nack per
        // detected gap: later deltas over the same hole stay quiet.
        ++deltas_gapped_;
        proc_.sim().obs().metrics().counter("readset.gaps").add();
        if (d->version > last_nacked_version_) {
          last_nacked_version_ = d->version;
          proc_.sim().spawn(send_nack());
        }
        continue;
      }
      apply_delta(*d);
    }
  }
}

sim::Task<void> ReadSetSubscriber::send_nack() {
  ++nacks_sent_;
  proc_.sim().obs().metrics().counter("readset.nacks").add();
  (void)co_await gc_->multicast(
      read_set_group(service_),
      encode_ctrl(ReadSetNack{service_, last_version_}));
}

void ReadSetSubscriber::apply_full(ReadSet rs,
                                   std::vector<std::string> catching_up) {
  if (rs.version <= last_version_) return;  // stale
  current_ = std::move(rs);
  catching_up_ = std::move(catching_up);
  last_version_ = current_.version;
  ++applied_;
  if (cb_) cb_(current_, catching_up_);
}

void ReadSetSubscriber::apply_delta(const ReadSetDelta& d) {
  // Removals first, then adds: an entry that changed in place travels as
  // remove(name) + add(entry).
  for (const auto& name : d.removed) {
    std::erase_if(current_.entries,
                  [&](const Announce& e) { return e.member == name; });
  }
  for (const auto& e : d.added) current_.entries.push_back(e);
  current_.primary = d.primary;
  current_.version = d.version;
  last_version_ = d.version;
  ++applied_;
  ++deltas_applied_;
  if (cb_) cb_(current_, catching_up_);
}

}  // namespace mead::core
