// Runs one experiment through the public app::Experiment API, timing the
// set-up and measurement phases, and extracts everything the benchmark
// reports from the client results, the metrics registry and the event
// trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "spans.h"

namespace perfbench {

struct ExpOutcome {
  bool started = false;
  std::string error;  // start() failure reason
  double setup_s = 0;  // construct + start()
  double run_s = 0;    // launch_client .. collect
  std::uint64_t events_run = 0;  // kernel events in the measurement phase
  mead::app::ExperimentResult result;

  // Invocation accounting, summed over the experiment's clients.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t missing = 0;  // attempted but never completed
  std::uint64_t naming_refreshes = 0;
  /// False when a client's RTT series and completion counter disagree,
  /// i.e. an invocation vanished from the books.
  bool accounting_ok = true;
  bool state_ok = true;
  std::uint64_t servers_failed = 0;

  // Samples, pooled over clients (virtual ms).
  std::vector<double> rtt_ms;  // each client's sample 0 excluded
  std::vector<double> failover_ms;

  // Trace-derived samples (virtual ms); filled only when analysed.
  std::vector<double> restore_ms;  // kRestoreBegin -> kRestoreEnd
  std::vector<double> launch_ms;   // crash / launch request -> launched
  std::vector<double> hole_ms;     // member crash -> next registration
  std::vector<double> bringup_ms;  // replacement launched -> registered

  /// Counter deltas over the measurement window, and final values.
  std::map<std::string, std::uint64_t> delta;
  std::map<std::string, std::uint64_t> total;
  std::uint64_t trace_records = 0;  // records emitted
  /// Records the ring overwrote before the analysed run drained them.
  std::uint64_t trace_dropped = 0;

  /// Host ms per run_for slice (traced runs only).
  std::vector<double> slice_ms;
  /// FNV-1a over the simulated outcomes: identical for identical seeds.
  std::uint64_t digest = 0;
};

/// Runs `spec` to completion. With `spans`, records a span around every
/// call into the experiment (rep/exp label the spans). With `analyse`,
/// also drains the event trace after every slice (untimed work that slows
/// the run) and derives the trace samples from it.
ExpOutcome run_one(const mead::app::ExperimentSpec& spec, SpanLog* spans,
                   std::int64_t rep, std::int64_t exp, bool analyse);

}  // namespace perfbench
