// Golden behaviour digests (ctest label: golden). Pins the FNV-64 digest
// of the event-trace JSONL and the metrics CSV of the five paper schemes
// and of canonical non-default specs at seed 2004, so a refactor that claims "no behaviour change" is
// checked across commits, not only between two runs in one process.
//
// A digest may change only together with a CHANGES.md line saying why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../fnv64.h"
#include "app/experiment.h"

namespace mead::app {
namespace {

struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  ExperimentResult result;
  std::uint64_t rm_readmissions = 0;
};

Digests run_digests(const ExperimentSpec& spec, Duration settle) {
  Experiment exp(spec);
  auto up = exp.start();
  EXPECT_TRUE(up.ok()) << (up.ok() ? "" : up.error().reason);
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(settle);
  Digests d;
  d.trace = test_util::fnv64(exp.obs().trace().to_jsonl());
  d.metrics = test_util::fnv64(exp.obs().metrics().to_csv());
  d.result = exp.collect();
  // Read after the digests: counter() registers a missing name.
  d.rm_readmissions = exp.obs().metrics().counter("rm.readmissions").value();
  return d;
}

// Stateful service with pull restore: checkpoint bases well above one
// 64 KB socket read, a primary crash mid-run, and the striped rebuild.
ExperimentSpec stateful_pull_spec() {
  ExperimentSpec spec;
  spec.scheme = core::RecoveryScheme::kMeadMessage;
  spec.seed = 2004;
  spec.invocations = 600;
  spec.invoke_timeout = milliseconds(25);
  ServiceGroupSpec g;
  g.scheme = spec.scheme;
  g.state.enabled = true;
  g.state.keys = 2048;
  g.state.value_pad = 32;
  g.state.checkpoint_interval = milliseconds(10);
  g.state.log_cap = 256;
  g.state.restore_grace = milliseconds(10);
  g.state.restore_deadline = milliseconds(250);
  g.state.pull_restore = true;
  spec.groups.push_back(std::move(g));
  spec.chaos.crash_process(milliseconds(150), kServiceName);
  return spec;
}

// Scaled GC plane: sharded stampers, interest scoping, batching and delta
// read sets over 12 groups on 16 workers, with one worker crashing.
ExperimentSpec scaled_plane_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 300;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = ClusterTopology::uniform(18);
  spec.gc_plane = gc::PlaneOptions::scaled();
  spec.rm.delta_read_sets = true;
  for (std::size_t i = 0; i < 12; ++i) {
    ServiceGroupSpec s;
    if (i > 0) s.service = "Svc" + std::to_string(i);
    s.scheme = i % 2 == 0 ? core::RecoveryScheme::kMeadMessage
                          : core::RecoveryScheme::kReactiveCache;
    s.placement = core::PlacementPolicy::kAlgorithmic;
    spec.groups.push_back(std::move(s));
  }
  spec.chaos.crash_node(milliseconds(150), spec.topology.worker_nodes[3]);
  return spec;
}

// The paper reference configuration: one scheme, every default (five-node
// testbed, three replicas, 32 KB leak, legacy GC plane, kCycle, solo RM).
ExperimentSpec paper_spec(core::RecoveryScheme scheme) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.seed = 2004;
  return spec;
}

// Replicated RM with readmission: a backup RM host is partitioned away
// (it retires) and healed (it pulls a kState snapshot), then a worker and
// the acting RM's host crash (kNodeCrash frames, a backup promotes).
ExperimentSpec replicated_rm_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 5'000;
  spec.inject_leak = false;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = ClusterTopology::uniform(8);  // six workers
  ServiceGroupSpec g;
  g.inject_leak = false;
  g.placement = core::PlacementPolicy::kRestripe;
  spec.groups.push_back(std::move(g));
  const auto& workers = spec.topology.worker_nodes;
  spec.rm.replicas = 3;
  spec.rm.hosts = {workers[3], workers[4], workers[5]};
  spec.rm.launch_delay = milliseconds(20);
  spec.rm.readmit = true;
  spec.chaos.partition(milliseconds(100), workers[4]);
  spec.chaos.heal(milliseconds(2'600), workers[4]);
  spec.chaos.crash_node(milliseconds(4'000), workers[0]);
  spec.chaos.crash_node(milliseconds(4'010), workers[3]);
  return spec;
}

// Prediction-driven migration on a stateful group: kUsageReport samples
// feed the planner, which orders a kHandoff onto a pre-warmed standby.
ExperimentSpec migration_spec() {
  ExperimentSpec spec;
  spec.scheme = core::RecoveryScheme::kReactiveNoCache;
  spec.seed = 2004;
  spec.invocations = 1'000;
  spec.invoke_timeout = milliseconds(25);
  ServiceGroupSpec g;
  g.scheme = spec.scheme;
  g.state.enabled = true;
  g.state.keys = 512;
  g.state.value_pad = 32;
  g.state.checkpoint_interval = milliseconds(20);
  g.state.log_cap = 256;
  g.state.restore_grace = milliseconds(10);
  g.state.restore_deadline = milliseconds(250);
  g.migration.horizon = seconds(2);
  spec.groups.push_back(std::move(g));
  return spec;
}

// Leaderless kQuorum group with a reply-dedup cache: the serving replica
// crashes, its relaunch announces at once and catches up online
// (kQuorumSet flags, kCatchupDone), with kReplyCache riding the
// checkpoints.
ExperimentSpec quorum_dedup_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 1'000;
  spec.invoke_timeout = milliseconds(25);
  spec.routing = orb::RoutingPolicy::kRoundRobin;
  ServiceGroupSpec g;
  g.scheme = core::RecoveryScheme::kLocationForward;
  g.style = core::ReplicationStyle::kQuorum;
  g.inject_leak = false;
  g.state.enabled = true;
  g.state.keys = 64;
  g.state.value_pad = 16;
  g.state.checkpoint_interval = milliseconds(20);
  g.state.log_cap = 64;
  g.state.dedup_cap = 64;
  spec.groups.push_back(std::move(g));
  spec.chaos.crash_process(milliseconds(200), kServiceName);
  return spec;
}

struct SchemeDigest {
  core::RecoveryScheme scheme;
  std::uint64_t trace;
  std::uint64_t metrics;
};

TEST(GoldenDigestTest, PaperSchemesSeed2004) {
  const SchemeDigest expected[] = {
      {core::RecoveryScheme::kReactiveNoCache, 0x2c624488c23fd702ull,
       0x4beb966da676693full},
      {core::RecoveryScheme::kReactiveCache, 0x35728133693c8c66ull,
       0xc92bcce56785ec3bull},
      {core::RecoveryScheme::kNeedsAddressing, 0xcd69f2461437407bull,
       0xf5c8045efd289424ull},
      {core::RecoveryScheme::kLocationForward, 0x0b936a20e62c6560ull,
       0x9fd277b5e08ba555ull},
      {core::RecoveryScheme::kMeadMessage, 0xa13464a7e84ad5f9ull,
       0xa104a8175764f515ull},
  };
  for (const auto& e : expected) {
    const Digests d = run_digests(paper_spec(e.scheme), milliseconds(200));
    EXPECT_EQ(d.result.total_invocations(), 10'000u)
        << core::to_string(e.scheme);
    EXPECT_GE(d.result.server_failures, 1u) << core::to_string(e.scheme);
    EXPECT_EQ(d.trace, e.trace) << core::to_string(e.scheme) << std::hex
                                << " trace 0x" << d.trace;
    EXPECT_EQ(d.metrics, e.metrics) << core::to_string(e.scheme) << std::hex
                                    << " metrics 0x" << d.metrics;
  }
}

TEST(GoldenDigestTest, ReplicatedRmCrashSeed2004) {
  const Digests d = run_digests(replicated_rm_spec(), milliseconds(300));
  EXPECT_GE(d.rm_readmissions, 1u);
  EXPECT_GE(d.result.rm_failovers, 1u);
  EXPECT_EQ(d.trace, 0x98aebea33e42e53full) << std::hex << "trace 0x" << d.trace;
  EXPECT_EQ(d.metrics, 0x025e2567d28f9ef4ull)
      << std::hex << "metrics 0x" << d.metrics;
}

TEST(GoldenDigestTest, MigrationSeed2004) {
  const Digests d = run_digests(migration_spec(), milliseconds(300));
  EXPECT_GE(d.result.rm_migrations, 1u);
  EXPECT_GT(d.result.handoff_ms, 0u);
  EXPECT_EQ(d.trace, 0xe6db9dde9d4ea9b0ull) << std::hex << "trace 0x" << d.trace;
  EXPECT_EQ(d.metrics, 0x560884d261e48daaull)
      << std::hex << "metrics 0x" << d.metrics;
}

TEST(GoldenDigestTest, QuorumDedupSeed2004) {
  const Digests d = run_digests(quorum_dedup_spec(), milliseconds(500));
  EXPECT_GT(d.result.quorum_reads, 0u);
  EXPECT_GE(d.result.state_restores, 1u);
  EXPECT_TRUE(d.result.state_ok);
  EXPECT_EQ(d.trace, 0xccdadf629989a687ull) << std::hex << "trace 0x" << d.trace;
  EXPECT_EQ(d.metrics, 0x1d604a9cbd6ad806ull)
      << std::hex << "metrics 0x" << d.metrics;
}

TEST(GoldenDigestTest, StatefulPullRestoreSeed2004) {
  const Digests d = run_digests(stateful_pull_spec(), milliseconds(500));
  // The spec exercises what it pins: checkpoints shipped, a peer restore.
  EXPECT_GT(d.result.ckpt_deltas, 0u);
  EXPECT_GE(d.result.state_restores, 1u);
  EXPECT_TRUE(d.result.state_ok);
  EXPECT_EQ(d.trace, 0x650dbf9b8efb6b57ull) << std::hex << "trace 0x" << d.trace;
  EXPECT_EQ(d.metrics, 0xee7481be6cda9e45ull)
      << std::hex << "metrics 0x" << d.metrics;
}

TEST(GoldenDigestTest, ScaledPlaneSeed2004) {
  const Digests d = run_digests(scaled_plane_spec(), milliseconds(200));
  ASSERT_EQ(d.result.group_results.size(), 12u);
  EXPECT_GT(d.result.gc_bytes, 0u);
  EXPECT_EQ(d.trace, 0x5d791fec96215d98ull) << std::hex << "trace 0x" << d.trace;
  EXPECT_EQ(d.metrics, 0xd5880946cda25905ull)
      << std::hex << "metrics 0x" << d.metrics;
}

}  // namespace
}  // namespace mead::app
