// Client-side read-set subscription for kActiveReadFanout and kQuorum
// groups.
//
// The Recovery Manager multicasts kReadSet updates on the group's
// read-set GC group (read_set_group(service)) whenever the serving set
// changes. A ReadSetSubscriber owns its own GcClient (joining the replica
// group itself would inflate the Recovery Manager's live count), joins
// that group, and invokes a callback for every fresh update — typically
// feeding an orb::Router. Versions are monotone per group; stale or
// reordered updates are dropped here so callers never see the set move
// backwards.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/mead_wire.h"
#include "gc/client.h"

namespace mead::core {

class ReadSetSubscriber {
 public:
  /// Receives the current set and the members in it still catching up
  /// (non-empty only under kQuorum).
  using Callback = std::function<void(
      const ReadSet&, const std::vector<std::string>& catching_up)>;

  /// `member` must be unique across the system (convention: the owning
  /// client's member name + "/rs").
  ReadSetSubscriber(net::Process& proc, std::string member,
                    net::Endpoint daemon, std::string service, Callback cb);

  /// Connects to the local daemon, joins the read-set group and spawns the
  /// pump. Returns false if the daemon connection fails.
  [[nodiscard]] sim::Task<bool> start();

  [[nodiscard]] std::uint64_t last_version() const { return last_version_; }
  [[nodiscard]] std::uint64_t updates_applied() const { return applied_; }
  /// Deltas applied (subset of updates_applied) / skipped for a version gap.
  [[nodiscard]] std::uint64_t deltas_applied() const { return deltas_applied_; }
  [[nodiscard]] std::uint64_t deltas_gapped() const { return deltas_gapped_; }
  /// kReadSetNack frames multicast after gap detection (at most one per
  /// gapped version; the RM answers each with a full republication).
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }

 private:
  sim::Task<void> pump();
  sim::Task<void> send_nack();
  /// Adopts a full kReadSet / kQuorumSet unless its version is stale.
  void apply_full(ReadSet rs, std::vector<std::string> catching_up);
  void apply_delta(const ReadSetDelta& d);

  net::Process& proc_;
  std::string service_;
  Callback cb_;
  std::unique_ptr<gc::GcClient> gc_;
  /// The set as of last_version_, kept so deltas can be applied locally.
  ReadSet current_;
  std::vector<std::string> catching_up_;
  std::uint64_t last_version_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t deltas_gapped_ = 0;
  std::uint64_t nacks_sent_ = 0;
  /// Newest delta version already nacked — one nack per detected gap, not
  /// one per frame, so a burst of deltas over the same hole stays quiet.
  std::uint64_t last_nacked_version_ = 0;
};

}  // namespace mead::core
