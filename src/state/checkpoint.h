// Incremental checkpointing (ReStore-style, PAPERS.md): periodic
// epoch-versioned checkpoints where only the first carries every key and
// each later one carries only the keys dirtied since its predecessor.
// A mirror (warm-passive backup or a restoring replica) rebuilds the
// state by applying base + delta chain in epoch order; the per-checkpoint
// prev_digest/digest pair lets it detect gaps and divergence without
// shipping the whole store every interval.
//
// Bases stay local: every store, primary and mirror alike, folds its own
// chain into a new base with the delta that follows `rebase_every`
// deltas chained to the current one. The fold reads only the chain, so
// all stores compact at the same epoch to the same base, and a restorer
// can still pull base + deltas from any survivor.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "state/app_state.h"

namespace mead::state {

struct Checkpoint {
  std::uint64_t epoch = 0;       // 1-based, monotone per primary
  std::uint64_t base_epoch = 0;  // the full snapshot this delta chains to
  bool is_base = false;          // full snapshot (all keys) vs dirty delta
  std::uint64_t applied = 0;     // ops folded into state as of this epoch
  std::uint64_t prev_digest = 0; // digest at the previous epoch (0 for base)
  std::uint64_t digest = 0;      // digest as of this epoch
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

class CheckpointStore {
 public:
  /// `rebase_every`: once this many deltas chain to the current base, the
  /// next delta completes a cycle: the store compacts the chain into one
  /// base at that delta's epoch (bounds the chain a restoring replica
  /// must fetch).
  explicit CheckpointStore(std::uint32_t rebase_every = 8)
      : rebase_every_(rebase_every == 0 ? 1 : rebase_every) {}

  enum class Apply {
    kApplied,         // folded into the mirror chain
    kGap,             // chains to an epoch/digest we do not have
    kDigestMismatch,  // chain position matches but digests diverge
    kStale,           // epoch <= what we already hold (duplicate)
    kMalformed,       // a base that is not keys 0..n-1 in order, or a
                      // delta naming a key outside the base
  };

  /// Primary side: snapshot `s` into the next checkpoint — a full base
  /// when the chain is empty, else the dirty-key delta — and retain it
  /// for restore serving. Returns the checkpoint to ship; the retained
  /// chain may already have compacted it into a new base.
  Checkpoint take(AppState& s);

  /// Mirror side: fold a received checkpoint into the local chain and,
  /// on success, into `s` (installing entries + progress watermark). On
  /// kApplied `c` moves into the chain; on any other result it is left
  /// untouched, so a caller may keep it (pull mode buffers gapped epochs).
  Apply apply(Checkpoint&& c, AppState& s);
  /// Copying form, for callers that keep their checkpoint.
  Apply apply(const Checkpoint& c, AppState& s) {
    return apply(Checkpoint(c), s);
  }

  /// The retained chain (base first), for answering kCkptRequest.
  [[nodiscard]] const std::vector<Checkpoint>& chain() const {
    return chain_;
  }
  /// What a peer holding `have_epoch` lacks: the epochs after it when it
  /// lies inside the chain, else the whole chain, base first.
  [[nodiscard]] std::span<const Checkpoint> missing_after(
      std::uint64_t have_epoch) const;
  [[nodiscard]] bool has_base() const { return !chain_.empty(); }
  [[nodiscard]] std::uint64_t last_epoch() const {
    return chain_.empty() ? 0 : chain_.back().epoch;
  }
  [[nodiscard]] std::uint64_t last_digest() const {
    return chain_.empty() ? 0 : chain_.back().digest;
  }
  [[nodiscard]] std::uint64_t applied() const {
    return chain_.empty() ? 0 : chain_.back().applied;
  }

 private:
  /// Appends a delta and compacts once it completes a cycle.
  void push_delta(Checkpoint&& c);

  std::uint32_t rebase_every_;
  std::uint64_t next_epoch_ = 1;
  std::vector<Checkpoint> chain_;  // current base + its deltas
};

}  // namespace mead::state
