// meadbench: the repository benchmark program.
//
//   meadbench --workload <paper|stateful|scaled> --seed <n> --seconds <s>
//             --trace <0|1> [--out <dir>]
//
// Repeats the workload's experiments (one repetition = every spec once)
// until --seconds of host time are spent, then prints one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// After every experiment it times passes of a fixed reference workload
// (reference.h). --trace 0 reports the end-to-end metrics (host times as
// the median over repetitions, the measurement phase's in units of one
// reference pass; simulated outcomes from the first repetition, which
// every later one must reproduce exactly). --trace 1 alternates untraced and
// traced repetitions, runs the per-layer probes, reports the per-layer
// metrics and writes the spans to <out>/spans_<workload>_seed<n>.jsonl.
// Exit status 0 only when every correctness check passes.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "measure.h"
#include "probes.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

mead::Series series_of(const std::vector<double>& v) {
  mead::Series s;
  s.reserve(v.size());
  for (double x : v) s.add(x);
  return s;
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(const std::vector<double>& v, double p) {
  return series_of(v).percentile(p);
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double mean(const std::vector<double>& v) { return series_of(v).mean(); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Unit of simulated time: deterministic per seed, unlike host time.
constexpr const char* kVirtualMs = "virtual_ms";

void append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One repetition of the workload.
struct Rep {
  bool warmup = false;  // analysed repetition, excluded from host times
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  double ref_s = 0;  // reference passes after its experiments
  std::uint64_t ref_passes = 0;
  std::uint64_t events_run = 0;
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::vector<double> setup_ms;  // per experiment
  std::vector<double> slice_ms;
  std::vector<std::uint64_t> digests;
};

class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  [[nodiscard]] bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// Table 1's shape on the paper workload, on the mean failover (Table 1's
/// statistic) pooled over the seeds: MEAD fails over faster than LF and NA,
/// both of which beat the two reactive schemes, and LF and MEAD raise no
/// client-visible exception. The paper also orders LF < NA; this
/// reproduction does not (EXPERIMENTS.md, deviation 5), so that pair is
/// reported, not gated.
void check_table1(const Workload& w, const std::vector<ExpOutcome>& exps,
                  Gate& gate) {
  using mead::core::RecoveryScheme;
  std::map<RecoveryScheme, std::vector<double>> failover;
  std::map<RecoveryScheme, std::uint64_t> exceptions;
  for (std::size_t i = 0; i < exps.size(); ++i) {
    append(failover[w.specs[i].scheme], exps[i].failover_ms);
    exceptions[w.specs[i].scheme] += exps[i].exceptions;
  }
  std::map<RecoveryScheme, double> avg;
  for (const auto& [scheme, v] : failover) {
    avg[scheme] = mean(v);
    std::fprintf(stderr, "  table1 %-18s failover mean %.3f ms (n=%zu), "
                 "exceptions %llu\n", std::string(to_string(scheme)).c_str(),
                 avg[scheme], v.size(),
                 static_cast<unsigned long long>(exceptions[scheme]));
  }
  const double mead = avg[RecoveryScheme::kMeadMessage];
  const double lf = avg[RecoveryScheme::kLocationForward];
  const double na = avg[RecoveryScheme::kNeedsAddressing];
  const double reactive = std::min(avg[RecoveryScheme::kReactiveNoCache],
                                   avg[RecoveryScheme::kReactiveCache]);
  gate.check(mead > 0 && mead < lf && mead < na && lf < reactive &&
                 na < reactive,
             "Table 1 failover order MEAD < {LF, NA} < reactive");
  gate.check(exceptions[RecoveryScheme::kLocationForward] == 0 &&
                 exceptions[RecoveryScheme::kMeadMessage] == 0,
             "Table 1: client failures under LF and MEAD must be 0");
  if (!(lf < na)) {
    std::fprintf(stderr, "  table1 note: LF failover %.3f ms >= NA %.3f ms "
                 "(the paper has LF < NA)\n", lf, na);
  }
}

/// Runs one repetition; `first` receives the per-experiment outcomes of
/// the analysed repetition.
Rep run_rep(const Workload& w, std::int64_t index, bool traced, bool analyse,
            SpanLog* spans, Gate& gate, std::vector<ExpOutcome>* first) {
  Rep rep;
  rep.traced = traced;
  std::uint64_t faults = 0;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    ExpOutcome o = run_one(w.specs[i], traced ? spans : nullptr, index,
                           static_cast<std::int64_t>(i), analyse);
    const std::string tag = w.name + " experiment " + std::to_string(i);
    gate.check(o.started, tag + ": start() failed: " + o.error);
    if (!o.started) continue;
    gate.check(o.accounting_ok,
               tag + ": invocations missing from the client accounting");
    gate.check(o.state_ok, tag + ": state digest invariant violated");
    gate.check(o.total["state.digest_mismatch"] == 0,
               tag + ": state.digest_mismatch > 0");
    gate.check(o.trace_dropped == 0, tag + ": event trace dropped records");
    faults += o.total["chaos.faults"];
    rep.setup_s += o.setup_s;
    rep.run_s += o.run_s;
    // Reference passes worth about a sixteenth of the experiment's run,
    // so long experiments sample the host's speed for longer.
    double ref_s = 0;
    do {
      ref_s += reference_pass_s();
      ++rep.ref_passes;
    } while (ref_s < o.run_s / 16);
    rep.ref_s += ref_s;
    rep.events_run += o.events_run;
    rep.attempted += o.attempted;
    rep.missing += o.missing;
    rep.setup_ms.push_back(o.setup_s * 1e3);
    append(rep.slice_ms, o.slice_ms);
    rep.digests.push_back(o.digest);
    if (first != nullptr) first->push_back(std::move(o));
  }
  gate.check(faults == w.faults_scheduled,
             w.name + ": injected faults " + std::to_string(faults) +
                 " != scheduled " + std::to_string(w.faults_scheduled));
  return rep;
}

/// Sums over the analysed repetition's experiments.
struct Totals {
  std::uint64_t attempted = 0, completed = 0, exceptions = 0, missing = 0;
  std::uint64_t servers_failed = 0, gc_bytes = 0, naming_refreshes = 0;
  std::uint64_t state_restores = 0, trace_records = 0, trace_dropped = 0;
  std::map<std::string, std::uint64_t> delta, total;
  std::vector<double> rtt, failover, restore, launch, hole, bringup;
};

Totals sum(const std::vector<ExpOutcome>& exps) {
  Totals t;
  for (const ExpOutcome& o : exps) {
    t.attempted += o.attempted;
    t.completed += o.completed;
    t.exceptions += o.exceptions;
    t.missing += o.missing;
    t.servers_failed += o.servers_failed;
    t.gc_bytes += o.result.gc_bytes;
    t.naming_refreshes += o.naming_refreshes;
    t.state_restores += o.result.state_restores;
    t.trace_records += o.trace_records;
    t.trace_dropped += o.trace_dropped;
    for (const auto& [k, v] : o.delta) t.delta[k] += v;
    for (const auto& [k, v] : o.total) t.total[k] += v;
    append(t.rtt, o.rtt_ms);
    append(t.failover, o.failover_ms);
    append(t.restore, o.restore_ms);
    append(t.launch, o.launch_ms);
    append(t.hole, o.hole_ms);
    append(t.bringup, o.bringup_ms);
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, const Totals& t) {
  std::vector<double> run_per_ref, setup_s;
  for (const Rep& r : reps) {
    if (r.warmup) continue;
    run_per_ref.push_back(
        ratio(r.run_s, ratio(r.ref_s, static_cast<double>(r.ref_passes))));
    setup_s.push_back(r.setup_s);
  }
  const auto inv = static_cast<double>(t.completed);
  // Stateless services have nothing to restore: a replacement's restore
  // is then its bring-up, launch to Naming registration.
  const std::vector<double>& restore = t.restore.empty() ? t.bringup : t.restore;
  return {
      {"run_per_ref", median(run_per_ref), "s/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"rtt_p50_ms", percentile(t.rtt, 50), kVirtualMs},
      {"rtt_p99_ms", percentile(t.rtt, 99), kVirtualMs},
      {"rtt_p999_ms", percentile(t.rtt, 99.9), kVirtualMs},
      {"failover_mean_ms", mean(t.failover), kVirtualMs},
      {"failover_p90_ms", percentile(t.failover, 90), kVirtualMs},
      {"client_failure_pct",
       100.0 * ratio(static_cast<double>(t.exceptions),
                     static_cast<double>(t.servers_failed)),
       "%"},
      {"error_rate",
       ratio(static_cast<double>(t.exceptions + t.missing),
             static_cast<double>(t.attempted)),
       "ratio"},
      {"gc_bytes_per_inv", ratio(static_cast<double>(t.gc_bytes), inv), "B"},
      {"restore_p50_ms", percentile(restore, 50), kVirtualMs},
  };
}

struct Probes {
  double sim_ns_per_event = 0;
  double giop_ns_per_call = 0;
  double gc_us_paper = 0;
  double gc_us_scaled = 0;
  StateProbe state;
};

std::vector<Metric> per_layer(const std::vector<Rep>& reps,
                              const Totals& t, const Probes& p) {
  std::vector<double> ns_per_event, setup_ms, slices, run_u, run_t, ref_ms;
  for (const Rep& r : reps) {
    if (r.warmup) continue;
    append(setup_ms, r.setup_ms);
    ref_ms.push_back(
        ratio(r.ref_s * 1e3, static_cast<double>(r.ref_passes)));
    if (r.traced) {
      append(slices, r.slice_ms);
      run_t.push_back(r.run_s);
    } else {
      run_u.push_back(r.run_s);
      ns_per_event.push_back(
          ratio(r.run_s * 1e9, static_cast<double>(r.events_run)));
    }
  }
  const auto inv = static_cast<double>(t.completed);
  const auto failures = static_cast<double>(t.servers_failed);
  auto d = [&t](const char* name) {
    const auto it = t.delta.find(name);
    return it == t.delta.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto total = [&t](const char* name) {
    const auto it = t.total.find(name);
    return it == t.total.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double redirects = d("client.mead_redirects");
  const double masked = d("client.masked_failures");
  const double ckpts = d("state.ckpt.deltas");
  const double launches = d("rm.launches");
  return {
      {"sim.events", static_cast<double>(reps.front().events_run), "count"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"sim.slice_ms_p50", percentile(slices, 50), "ms"},
      {"sim.slice_ms_p99", percentile(slices, 99), "ms"},
      {"sim.probe_ns_per_event", p.sim_ns_per_event, "ns"},
      {"net.bytes_per_inv", ratio(d("net.bytes.total"), inv), "B"},
      {"giop.probe_ns_per_call", p.giop_ns_per_call, "ns"},
      {"orb.forwards_per_failure", ratio(d("orb.forwards_followed"), failures),
       "ratio"},
      {"orb.readdress_retries", d("orb.readdress_retries"), "count"},
      {"naming.refreshes_per_failure",
       ratio(static_cast<double>(t.naming_refreshes), failures), "ratio"},
      {"mead.redirects", redirects, "count"},
      {"mead.masked_failures", masked, "count"},
      {"mead.query_timeouts", d("client.query_timeouts"), "count"},
      {"mead.masked_share", ratio(redirects + masked, failures), "ratio"},
      {"gc.frames_per_inv", ratio(d("gc.frames"), inv), "frames/inv"},
      {"gc.broadcast_bytes_per_inv", ratio(d("gc.broadcast_bytes"), inv), "B"},
      {"gc.batch_coalesce_ratio",
       ratio(d("gc.batch.coalesced"), d("gc.batch.frames")), "ratio"},
      {"gc.rejoins", d("gc.rejoins"), "count"},
      {"gc.probe_us_per_msg_paper", p.gc_us_paper, "us"},
      {"gc.probe_us_per_msg_scaled", p.gc_us_scaled, "us"},
      {"rm.launches", launches, "count"},
      {"rm.proactive_share", ratio(d("rm.proactive_launches"), launches),
       "ratio"},
      {"rm.placement_frames",
       d("rm.placement.frames") + d("rm.restripe.placements"), "count"},
      {"rm.launch_ms_p50", percentile(t.launch, 50), kVirtualMs},
      {"rm.hole_ms_p50", percentile(t.hole, 50), kVirtualMs},
      {"rm.hole_ms_p90", percentile(t.hole, 90), kVirtualMs},
      {"state.ckpts", ckpts, "count"},
      {"state.bytes_per_ckpt", ratio(d("state.ckpt.bytes"), ckpts), "B"},
      {"state.replay_msgs", d("state.replay.msgs"), "count"},
      {"state.restores", static_cast<double>(t.state_restores), "count"},
      {"state.digest_mismatch", total("state.digest_mismatch"), "count"},
      {"state.probe_us_per_base", p.state.us_per_base, "us"},
      {"state.probe_us_per_delta", p.state.us_per_delta, "us"},
      {"state.probe_us_per_apply", p.state.us_per_apply, "us"},
      {"fault.injected", total("chaos.faults"), "count"},
      {"fault.skipped", total("chaos.skipped"), "count"},
      {"obs.trace_records", static_cast<double>(t.trace_records), "count"},
      {"obs.trace_dropped", static_cast<double>(t.trace_dropped), "count"},
      {"app.setup_ms", median(setup_ms), "ms"},
      {"app.run_s", median(run_u), "s"},
      {"app.ref_pass_ms", median(ref_ms), "ms"},
      {"app.trace_overhead_pct",
       100.0 * (ratio(median(run_t), median(run_u)) - 1.0), "%"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto t_begin = Clock::now();
  const auto elapsed = [&t_begin] {
    return std::chrono::duration<double>(Clock::now() - t_begin).count();
  };
  Gate gate;
  SpanLog spans;
  Probes probes;
  if (args.trace) {
    probes.sim_ns_per_event = probe_sim_ns_per_event(&spans);
    probes.giop_ns_per_call = probe_giop_ns_per_call(&spans);
    probes.gc_us_paper = probe_gc_us_per_msg(5, 1, false, &spans);
    probes.gc_us_scaled = probe_gc_us_per_msg(52, 64, true, &spans);
    if (w->state_keys > 0) probes.state = probe_state(w->state_keys, &spans);
    gate.check(probes.gc_us_paper > 0 && probes.gc_us_scaled > 0,
               "GC probe multicasts were not all delivered");
    gate.check(probes.state.us_per_base >= 0,
               "state probe checkpoint round trip failed");
  }

  // Repetition 0 drains and analyses the event trace; that slows it, so it
  // is also the warm-up and its host times are not reported. Then at least
  // three timed repetitions, and more while they fit in --seconds. In the
  // traced run, odd repetitions record spans.
  constexpr std::size_t kMinTimedReps = 3;
  std::vector<ExpOutcome> first;
  std::vector<Rep> reps;
  reps.push_back(run_rep(*w, 0, false, true, &spans, gate, &first));
  reps.front().warmup = true;
  const double loop_start = elapsed();
  while (gate.ok()) {
    const std::size_t timed = reps.size() - 1;
    const double per_rep =
        timed == 0 ? 0 : (elapsed() - loop_start) / static_cast<double>(timed);
    if (timed >= kMinTimedReps && elapsed() + per_rep > args.seconds) break;
    const bool traced = args.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(*w, static_cast<std::int64_t>(reps.size()), traced,
                           false, &spans, gate, nullptr));
    const Rep& r = reps.back();
    std::fprintf(stderr,
                 "  rep %zu%s: setup %.4f s, run %.4f s, %llu reference "
                 "passes %.4f s, %llu events\n",
                 reps.size() - 1, r.traced ? " (traced)" : "", r.setup_s,
                 r.run_s, static_cast<unsigned long long>(r.ref_passes),
                 r.ref_s,
                 static_cast<unsigned long long>(r.events_run));
    gate.check(reps.back().digests == reps.front().digests,
               w->name + ": simulated outcomes differ between repetitions "
                         "of one seed");
  }

  const Totals t = sum(first);
  std::fprintf(stderr,
               "%s seed %llu: %zu repetitions, %zu experiments each, "
               "%zu rtt / %zu failover / %zu restore samples\n",
               w->name.c_str(), static_cast<unsigned long long>(args.seed),
               reps.size(), w->specs.size(), t.rtt.size(), t.failover.size(),
               t.restore.size());
  if (w->table1_shape && first.size() == w->specs.size()) {
    check_table1(*w, first, gate);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.missing;
  }
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const std::string path = args.out + "/spans_" + w->name + "_seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!spans.write_jsonl(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu spans to %s\n", spans.spans().size(),
                 path.c_str());
  }
  const std::vector<Metric> metrics =
      args.trace ? per_layer(reps, t, probes) : end_to_end(reps, t);
  print_result(gate.ok(), std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every experiment builds and frees a whole simulated world. With glibc's
  // default trim and mmap thresholds that memory goes back to the kernel
  // and is faulted in again by the next experiment, and the page-fault
  // cost then dominates the host-time noise (run_s spread 0.19 vs 0.09 over
  // blocks of ten paper repetitions). Keep the arena, as bench_micro does.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: meadbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return perfbench::run(args);
}
