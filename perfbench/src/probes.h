// Standalone per-layer probes. Each builds its own inputs and times calls
// into one layer's public API: the simulation kernel, the GIOP codec, a GC
// daemon mesh, and the checkpoint store. Each returns the median over a few
// rounds and records one span per round.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spans.h"

namespace perfbench {

/// Host ns per event of a bare Simulator running timer chains.
double probe_sim_ns_per_event(SpanLog* spans);

/// Host ns per call of encode/decode_request and encode/decode_reply on
/// the TimeOfDay get_time payload.
double probe_giop_ns_per_call(SpanLog* spans);

/// Host µs per ordered multicast delivered to three members, through a
/// standalone mesh of `daemons` GC daemons carrying `groups` groups.
double probe_gc_us_per_msg(std::size_t daemons, std::size_t groups,
                           bool scaled_plane, SpanLog* spans);

struct StateProbe {
  double us_per_base = 0;   // CheckpointStore::take of a full base
  double us_per_delta = 0;  // take of a ten-op delta
  double us_per_apply = 0;  // apply of the base into a fresh mirror
};

/// Checkpoint costs at `keys` keys.
StateProbe probe_state(std::uint32_t keys, SpanLog* spans);

}  // namespace perfbench
