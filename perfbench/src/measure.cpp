#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <set>
#include <string_view>
#include <utility>

#include "app/timeofday.h"

namespace perfbench {

using mead::milliseconds;
using mead::obs::EventKind;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mirrors Experiment::run_to_completion: 100 ms virtual slices until every
/// client is done, bounded at 300 s of virtual time.
constexpr int kMaxSlices = 3000;
constexpr mead::Duration kSlice = milliseconds(100);

/// Registry counters read at the start and end of the measurement window.
const std::vector<std::string>& window_counters() {
  static const std::vector<std::string> names = {
      "net.bytes.total",       "gc.frames",
      "gc.broadcast_bytes",    "gc.batch.frames",
      "gc.batch.coalesced",    "gc.rejoins",
      "rm.launches",           "rm.proactive_launches",
      "rm.placement.frames",   "rm.restripe.placements",
      "orb.forwards_followed", "orb.readdress_retries",
      "client.mead_redirects", "client.masked_failures",
      "client.query_timeouts", "state.ckpt.deltas",
      "state.ckpt.bytes",      "state.replay.msgs",
      "state.digest_mismatch", "chaos.faults",
      "chaos.skipped"};
  return names;
}

/// Counters recorded per run_for slice in the span log.
const std::vector<std::string>& slice_counters() {
  static const std::vector<std::string> names = {
      "net.bytes.total", "gc.frames", "gc.broadcast_bytes", "rm.launches",
      "state.ckpt.bytes"};
  return names;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

/// Service of a replica member or process name ("replica/3",
/// "Svc2/replica/3@node7"); empty for anything that is not a replica.
std::string service_of(std::string_view name) {
  if (const auto at = name.find('@'); at != std::string_view::npos) {
    name = name.substr(0, at);
  }
  const auto pos = name.find("replica/");
  if (pos == std::string_view::npos) return {};
  if (pos == 0) return mead::app::kServiceName;
  return std::string(name.substr(0, pos - 1));
}

std::string member_of(std::string_view name) {
  return std::string(name.substr(0, name.find('@')));
}

std::string replica_member(const std::string& service, int incarnation) {
  mead::app::ServiceGroupSpec group;
  group.service = service;
  return group.member_name(incarnation);
}

/// Trace-derived recovery intervals. A member triggers at most one
/// recovery: its launch request or, failing that, its crash. A crash of a
/// member that had not asked for a replacement opens a replica hole in its
/// group, closed by the group's next registration. A launch is attributed
/// to a group by the placement event the RM emits just before it (with
/// placement off, every launch belongs to `sole_service`).
void analyse_trace(const std::vector<mead::obs::Event>& events,
                   const std::string& sole_service, ExpOutcome& out) {
  std::set<std::string> triggered;                         // members
  std::map<std::string, std::deque<double>> triggers;      // service -> t
  std::map<std::string, std::deque<double>> holes;         // service -> t
  std::map<std::string, double> restoring;                 // member -> t
  std::map<std::string, double> launched;                  // member -> t
  std::string placed_service;
  double placed_incarnation = -1;
  for (const auto& e : events) {
    const double t = e.at.ms();
    switch (e.kind) {
      case EventKind::kLaunchRequested: {
        if (triggered.insert(e.actor).second) {
          triggers[service_of(e.actor)].push_back(t);
        }
        break;
      }
      case EventKind::kCrash: {
        const std::string svc = service_of(e.actor);
        if (svc.empty()) break;
        if (triggered.insert(member_of(e.actor)).second) {
          triggers[svc].push_back(t);
          holes[svc].push_back(t);
        }
        break;
      }
      case EventKind::kRestripe: {
        placed_service = e.detail.substr(0, e.detail.rfind(':'));
        placed_incarnation = e.value;
        break;
      }
      case EventKind::kReplicaLaunched: {
        const std::string svc =
            placed_incarnation == e.value ? placed_service : sole_service;
        placed_incarnation = -1;
        if (svc.empty()) break;
        auto& q = triggers[svc];
        if (q.empty()) break;  // bring-up launch: nothing to recover
        out.launch_ms.push_back(t - q.front());
        q.pop_front();
        launched[replica_member(svc, static_cast<int>(e.value))] = t;
        break;
      }
      case EventKind::kReplicaRegistered: {
        if (auto it = launched.find(e.actor); it != launched.end()) {
          out.bringup_ms.push_back(t - it->second);
          launched.erase(it);
        }
        auto& q = holes[service_of(e.actor)];
        if (!q.empty()) {
          out.hole_ms.push_back(t - q.front());
          q.pop_front();
        }
        break;
      }
      case EventKind::kRestoreBegin:
        restoring[e.actor] = t;
        break;
      case EventKind::kRestoreEnd: {
        if (auto it = restoring.find(e.actor); it != restoring.end()) {
          out.restore_ms.push_back(t - it->second);
          restoring.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
}

/// Copies the records the trace ring gained since the last call, counting
/// any it overwrote before they were read.
struct TraceDrain {
  std::uint64_t seen = 0;
  std::uint64_t lost = 0;
  std::vector<mead::obs::Event> events;

  void drain(const mead::obs::EventTrace& trace) {
    const std::uint64_t fresh = trace.total_emitted() - seen;
    if (fresh == 0) return;
    const std::vector<mead::obs::Event> ring = trace.events();
    const std::uint64_t kept = std::min<std::uint64_t>(fresh, ring.size());
    lost += fresh - kept;
    events.insert(events.end(),
                  ring.end() - static_cast<std::ptrdiff_t>(kept), ring.end());
    seen = trace.total_emitted();
  }
};

}  // namespace

ExpOutcome run_one(const mead::app::ExperimentSpec& spec, SpanLog* spans,
                   std::int64_t rep, std::int64_t exp, bool analyse) {
  ExpOutcome out;
  const auto open = [&](const char* name, std::int64_t parent,
                        std::int64_t virt) -> std::int64_t {
    return spans != nullptr ? spans->begin(name, parent, rep, exp, virt) : -1;
  };
  const auto close = [&](std::int64_t id, std::int64_t virt) {
    if (spans != nullptr) spans->end(id, virt);
  };

  const auto t_setup = Clock::now();
  const std::int64_t root = open("experiment", -1, 0);
  std::int64_t s = open("construct", root, 0);
  mead::app::Experiment x(spec);
  close(s, 0);
  auto& sim = x.sim();
  auto& metrics = x.obs().metrics();
  s = open("start", root, sim.now().ns());
  const auto up = x.start();
  close(s, sim.now().ns());
  out.setup_s = seconds_since(t_setup);
  if (!up) {
    out.error = up.error().reason;
    close(root, sim.now().ns());
    return out;
  }
  out.started = true;
  // The analysed run drains the trace ring after bring-up and after every
  // slice, so a run longer than the ring still yields every record.
  TraceDrain drain;
  const auto& trace = x.obs().trace();
  if (analyse) drain.drain(trace);

  std::map<std::string, std::uint64_t> base;
  for (const auto& name : window_counters()) {
    base[name] = metrics.counter_value(name);
  }
  const std::uint64_t events0 = sim.events_processed();

  const auto t_run = Clock::now();
  s = open("launch_client", root, sim.now().ns());
  x.launch_client();
  close(s, sim.now().ns());
  const auto all_done = [&x] {
    for (const auto& c : x.clients()) {
      if (!c->done()) return false;
    }
    return true;
  };
  std::vector<std::uint64_t> before(slice_counters().size());
  for (int slice = 0; slice < kMaxSlices && !all_done(); ++slice) {
    if (spans == nullptr) {
      sim.run_for(kSlice);
      if (analyse) drain.drain(trace);
      continue;
    }
    for (std::size_t i = 0; i < before.size(); ++i) {
      before[i] = metrics.counter_value(slice_counters()[i]);
    }
    const std::uint64_t ev0 = sim.events_processed();
    s = open("run_for", root, sim.now().ns());
    sim.run_for(kSlice);
    const std::int64_t host_ns = spans->end(s, sim.now().ns());
    out.slice_ms.push_back(static_cast<double>(host_ns) / 1e6);
    Span& span = spans->at(s);
    span.counters.emplace_back("sim.events", sim.events_processed() - ev0);
    for (std::size_t i = 0; i < before.size(); ++i) {
      span.counters.emplace_back(
          slice_counters()[i],
          metrics.counter_value(slice_counters()[i]) - before[i]);
    }
  }
  s = open("collect", root, sim.now().ns());
  out.result = x.collect();
  close(s, sim.now().ns());
  out.run_s = seconds_since(t_run);
  close(root, sim.now().ns());
  out.events_run = sim.events_processed() - events0;

  // Everything below is outside the timed phases.
  for (const auto& name : window_counters()) {
    const std::uint64_t v = metrics.counter_value(name);
    out.total[name] = v;
    out.delta[name] = v - base[name];
  }
  for (const auto& c : x.clients()) {
    const mead::app::ClientResults cr = c->results();
    const auto& rtt = cr.rtt_ms.samples();
    const auto want = static_cast<std::uint64_t>(c->options().invocations);
    out.attempted += want;
    out.completed += cr.invocations_completed;
    out.exceptions += cr.total_exceptions();
    out.naming_refreshes += cr.naming_refreshes;
    // rtt_ms holds the Naming resolve (sample 0) plus one sample per
    // completed invocation; a client whose setup failed holds neither.
    const bool books_balance =
        rtt.size() == cr.invocations_completed + 1 ||
        (rtt.empty() && cr.invocations_completed == 0);
    if (!books_balance || cr.invocations_completed > want) {
      out.accounting_ok = false;
    }
    if (cr.invocations_completed < want) {
      out.missing += want - cr.invocations_completed;
    }
    for (std::size_t i = 1; i < rtt.size(); ++i) out.rtt_ms.push_back(rtt[i]);
    for (double v : cr.failover_ms.samples()) out.failover_ms.push_back(v);
  }
  out.state_ok = out.result.state_ok;
  out.servers_failed = out.result.server_failures;
  out.trace_records = trace.total_emitted();
  if (analyse) {
    drain.drain(trace);
    out.trace_dropped = drain.lost;
    const std::string sole =
        spec.groups.size() > 1
            ? std::string()
            : (spec.groups.empty() ? std::string(mead::app::kServiceName)
                                   : spec.groups.front().service);
    analyse_trace(drain.events, sole, out);
  }

  Fnv fnv;
  for (double v : out.rtt_ms) fnv.add(v);
  for (double v : out.failover_ms) fnv.add(v);
  fnv.add(out.completed);
  fnv.add(out.exceptions);
  fnv.add(static_cast<std::uint64_t>(out.servers_failed));
  fnv.add(out.result.gc_bytes);
  fnv.add(out.events_run);
  fnv.add(out.trace_records);
  for (const auto& [name, v] : out.delta) fnv.add(v);
  out.digest = fnv.h;
  return out;
}

}  // namespace perfbench
