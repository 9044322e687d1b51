#include "workloads.h"

#include <algorithm>
#include <utility>

#include "state/app_state.h"

namespace perfbench {

using mead::milliseconds;
using mead::app::ExperimentSpec;
using mead::core::RecoveryScheme;

namespace {

constexpr RecoveryScheme kAllSchemes[] = {
    RecoveryScheme::kReactiveNoCache, RecoveryScheme::kReactiveCache,
    RecoveryScheme::kNeedsAddressing, RecoveryScheme::kLocationForward,
    RecoveryScheme::kMeadMessage};

constexpr int kSeedsPerScheme = 5;

/// Both reactive baselines and MEAD.
constexpr RecoveryScheme kReactiveAndMead[] = {
    RecoveryScheme::kReactiveNoCache, RecoveryScheme::kReactiveCache,
    RecoveryScheme::kMeadMessage};

// paper: the Table 1 reference configuration (bench_table1's grid), one
// experiment per (scheme, seed) with seeds seed .. seed+4.
Workload paper(std::uint64_t seed) {
  Workload w;
  w.name = "paper";
  w.table1_shape = true;
  for (const RecoveryScheme scheme : kAllSchemes) {
    for (int s = 0; s < kSeedsPerScheme; ++s) {
      ExperimentSpec spec;
      spec.scheme = scheme;
      spec.seed = seed + static_cast<std::uint64_t>(s);
      w.specs.push_back(std::move(spec));
    }
  }
  return w;
}

// stateful: an 8192-key service checkpointing every 10 ms with pull
// restore and leak-driven failures, under both reactive baselines and MEAD.
// Reactive failovers (~10 ms) are then about 0.15 % of all RTT samples, so
// rtt_p999_ms sits inside them; with one reactive scheme they are ~0.1 %
// and the p99.9 rank flips between failover modes from seed to seed.
constexpr std::uint32_t kStateKeys = 8192;
constexpr int kStatefulInvocations = 5000;

Workload stateful(std::uint64_t seed) {
  Workload w;
  w.name = "stateful";
  w.state_keys = kStateKeys;
  for (const RecoveryScheme scheme : kReactiveAndMead) {
    for (int s = 0; s < kSeedsPerScheme; ++s) {
      ExperimentSpec spec;
      spec.scheme = scheme;
      spec.seed = seed + static_cast<std::uint64_t>(s);
      spec.invocations = kStatefulInvocations;
      spec.invoke_timeout = milliseconds(25);
      mead::app::ServiceGroupSpec g;
      g.scheme = scheme;
      g.state.enabled = true;
      g.state.keys = kStateKeys;
      g.state.value_pad = 32;
      g.state.checkpoint_interval = milliseconds(10);
      g.state.log_cap = 256;
      g.state.restore_grace = milliseconds(10);
      g.state.restore_deadline = milliseconds(250);
      g.state.pull_restore = true;
      spec.groups.push_back(std::move(g));
      w.specs.push_back(std::move(spec));
    }
  }
  return w;
}

// scaled: 64 three-replica groups on 50 workers, scaled GC plane,
// algorithmic placement, solo RM, leaks on, and a 4-worker crash burst
// mid-run; the burst's victims are drawn from each experiment's seed.
// Groups cycle through both reactive baselines and MEAD, so most
// client-visible failures come from steady leak-driven crashes rather than
// from the few primaries the burst happens to hit. Four experiments (seeds
// seed .. seed+3) per repetition average the burst out further.
constexpr std::size_t kScaledGroups = 64;
constexpr std::size_t kScaledNodes = 52;  // 50 workers + client + naming
constexpr int kScaledInvocations = 1000;
constexpr int kScaledSeeds = 4;
constexpr int kBurst = 4;

ExperimentSpec scaled_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.seed = seed;
  spec.invocations = kScaledInvocations;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = mead::app::ClusterTopology::uniform(kScaledNodes);
  spec.gc_plane = mead::gc::PlaneOptions::scaled();
  spec.rm.delta_read_sets = true;
  for (std::size_t g = 0; g < kScaledGroups; ++g) {
    mead::app::ServiceGroupSpec s;
    if (g > 0) s.service = "Svc" + std::to_string(g);
    s.scheme = kReactiveAndMead[g % std::size(kReactiveAndMead)];
    s.placement = mead::core::PlacementPolicy::kAlgorithmic;
    spec.groups.push_back(std::move(s));
  }
  std::vector<std::string> workers = spec.topology.worker_nodes;
  std::uint64_t x = seed;
  for (int i = 0; i < kBurst; ++i) {
    x = mead::state::mix64(x);
    const std::size_t pick = static_cast<std::size_t>(x % workers.size());
    spec.chaos.crash_node(milliseconds(500 + 10 * i), workers[pick]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return spec;
}

Workload scaled(std::uint64_t seed) {
  Workload w;
  w.name = "scaled";
  for (int s = 0; s < kScaledSeeds; ++s) {
    w.specs.push_back(scaled_spec(seed + static_cast<std::uint64_t>(s)));
    w.faults_scheduled += kBurst;
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper", "stateful",
                                                 "scaled"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "paper") return paper(seed);
  if (name == "stateful") return stateful(seed);
  if (name == "scaled") return scaled(seed);
  return std::nullopt;
}

}  // namespace perfbench
