// Replica registry: the view-ordered table of live replicas with their ORB
// endpoints and IORs, maintained from group-communication events.
//
// This is the state the paper's §4.1 scheme keeps at every server-side
// Fault-Tolerance Manager ("each MEAD Fault-Tolerance Manager hosting a
// server replica is populated with the references of all of the other
// replicas of the server"), and what "next available replica" / "first
// replica listed" queries are answered from.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/mead_wire.h"
#include "gc/view.h"
#include "giop/codec.h"

namespace mead::core {

class ReplicaRegistry {
 public:
  struct Record {
    Record() = default;
    std::string member;
    net::Endpoint endpoint;
    giop::IOR ior;
    static constexpr auto kFields =
        std::tuple{&Record::member, &Record::endpoint, &Record::ior};
  };

  /// Applies a membership view of the replica group. Members without an
  /// announcement yet stay listed but are not eligible targets.
  void on_view(const gc::View& view);
  /// Applies an Announce (IOR broadcast, §4.1) or one Listing entry.
  void on_announce(const Announce& announce);
  void on_listing(const Listing& listing);

  [[nodiscard]] const gc::View& view() const { return view_; }
  [[nodiscard]] std::size_t known_count() const;

  /// True if `member` is listed first in the current view (the primary /
  /// distinguished responder).
  [[nodiscard]] bool is_first(const std::string& member) const;

  /// First view member with a known endpoint.
  [[nodiscard]] std::optional<Record> first() const;

  /// Next view member after `member` (cyclically) with a known endpoint —
  /// "the next non-faulty server replica in the group" (§3.2).
  [[nodiscard]] std::optional<Record> next_after(const std::string& member) const;

  /// Record for a specific member, if announced and in view.
  [[nodiscard]] std::optional<Record> find(const std::string& member) const;

  /// 16-bit object-key hash -> IOR lookup (the §4.1 optimization): returns
  /// the record of `member` only if the hash matches its IOR's key. Used by
  /// the LOCATION_FORWARD interceptor.
  [[nodiscard]] std::optional<Record> lookup_by_key_hash(
      std::uint16_t hash, const std::string& member) const;

  /// All in-view records with endpoints, in view order.
  [[nodiscard]] std::vector<Record> listed() const;

  /// Read-fanout serving set: in-view announced records minus `excluded`
  /// (doomed / recovering members), in view order. A member that left the
  /// view or re-announced under a new incarnation never appears with its
  /// stale endpoint — on_view() already dropped the old record.
  [[nodiscard]] std::vector<Record> read_set(
      const std::set<std::string>& excluded) const;

  /// Codec hooks (giop/codec.h): the view and the announced records, for
  /// the replicated Recovery Manager's re-admission state transfer.
  /// Reading replaces the whole contents; false leaves them unspecified.
  friend void codec_write(giop::CdrWriter& w, const ReplicaRegistry& reg);
  friend bool codec_read(giop::CdrReader& r, ReplicaRegistry& reg);

 private:
  gc::View view_;
  std::map<std::string, Record> announced_;
};

}  // namespace mead::core
