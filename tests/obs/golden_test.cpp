// Golden behaviour digests (ctest label: golden). Pins the FNV-64 digest
// of the event-trace JSONL and the metrics CSV of canonical non-default
// specs at seed 2004, so a refactor that claims "no behaviour change" is
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
