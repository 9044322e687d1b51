// Stateful-service recovery pipeline (ctest label: state), end to end:
// primaries checkpoint over the ckpt channel, a replacement replica
// restores base + deltas from a live peer and replays the message log
// BEFORE announcing itself, and the default (state-disabled) configuration
// builds none of the machinery at all.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

ExperimentSpec stateful_spec() {
  ExperimentSpec spec;
  spec.scheme = core::RecoveryScheme::kMeadMessage;
  spec.invocations = 400;
  spec.invoke_timeout = milliseconds(25);
  ServiceGroupSpec g;
  g.scheme = spec.scheme;
  g.state.enabled = true;
  g.state.keys = 128;
  g.state.value_pad = 8;
  g.state.checkpoint_interval = milliseconds(10);
  g.state.log_cap = 64;
  spec.groups.push_back(std::move(g));
  return spec;
}

TEST(StateRecoveryTest, PrimaryCheckpointsAndBackupsMirror) {
  ExperimentSpec spec = stateful_spec();
  const ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.group_results.size(), 1u);
  EXPECT_EQ(r.group_results[0].invocations_completed, 400u);
  // The primary checkpointed throughout the run and shipped real bytes.
  EXPECT_GT(r.ckpt_deltas, 0u);
  EXPECT_GT(r.ckpt_bytes, 0u);
  // Every surviving replica's digest matches its own applied-op count.
  EXPECT_TRUE(r.state_ok);
  EXPECT_GT(r.group_results[0].state_applied, 0u);
}

TEST(StateRecoveryTest, CrashedPrimaryReplacementRestoresBeforeAnnouncing) {
  ExperimentSpec spec = stateful_spec();
  spec.chaos.crash_process(milliseconds(150), kServiceName);

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));  // replacement settles
  const ExperimentResult r = exp.collect();

  // The replacement went through a full peer restore (base + deltas +
  // log replay), and nothing was lost or double-applied anywhere.
  EXPECT_GE(r.state_restores, 1u);
  EXPECT_GT(r.state_restore_ms, 0.0);
  EXPECT_TRUE(r.state_ok);
  EXPECT_GE(r.group_results[0].state_restores, 1u);

  // Announce is restore-gated: for every member that both restored and
  // registered, the restore finished first.
  std::map<std::string, std::uint64_t> restore_end;
  std::map<std::string, std::uint64_t> registered;
  std::uint64_t restore_begins = 0;
  for (const auto& ev : exp.obs().trace().events()) {
    if (ev.kind == obs::EventKind::kRestoreEnd) {
      restore_end.emplace(ev.actor, ev.seq);
    } else if (ev.kind == obs::EventKind::kReplicaRegistered) {
      registered.emplace(ev.actor, ev.seq);
    } else if (ev.kind == obs::EventKind::kRestoreBegin) {
      ++restore_begins;
    }
  }
  EXPECT_GE(restore_begins, 1u);
  ASSERT_FALSE(restore_end.empty());
  for (const auto& [member, end_seq] : restore_end) {
    auto reg = registered.find(member);
    if (reg == registered.end()) continue;
    EXPECT_LT(end_seq, reg->second) << member;
  }
}

TEST(StateRecoveryTest, DefaultConfigBuildsNoStateMachinery) {
  ExperimentSpec spec;
  spec.invocations = 100;
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.ckpt_deltas, 0u);
  EXPECT_EQ(r.ckpt_bytes, 0u);
  EXPECT_EQ(r.replayed_msgs, 0u);
  EXPECT_EQ(r.state_restores, 0u);
  EXPECT_TRUE(r.state_ok);  // trivially: no stateful group

  // No state trace events and no store on any replica.
  for (const auto& ev : exp.obs().trace().events()) {
    EXPECT_NE(ev.kind, obs::EventKind::kCkptTaken);
    EXPECT_NE(ev.kind, obs::EventKind::kRestoreBegin);
    EXPECT_NE(ev.kind, obs::EventKind::kRestoreEnd);
  }
  const ServiceGroup* g = exp.testbed().group(kServiceName);
  ASSERT_NE(g, nullptr);
  for (const auto& rep : g->replicas()) {
    EXPECT_EQ(rep->mead().app_state(), nullptr) << rep->member();
  }
}

TEST(StateRecoveryTest, PullRestoreStripesTheChainAcrossSurvivingPeers) {
  // Pull model (StateOptions::pull_restore): the restoring replacement's
  // kCkptRequest is answered by EVERY announced survivor, each sending the
  // stripe of the delta chain its listing rank owns, so the rebuild reads
  // from all peers concurrently instead of serializing on the primary.
  ExperimentSpec spec = stateful_spec();
  spec.groups[0].state.pull_restore = true;
  spec.chaos.crash_process(milliseconds(150), kServiceName);

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_GE(r.state_restores, 1u);
  EXPECT_TRUE(r.state_ok);

  // Both surviving peers answered a stripe of the same pull.
  const ServiceGroup* g = exp.testbed().group(kServiceName);
  ASSERT_NE(g, nullptr);
  std::size_t answerers = 0;
  for (const auto& rep : g->replicas()) {
    if (rep->mead().stats().pull_answers > 0) ++answerers;
  }
  EXPECT_GE(answerers, 2u) << "chain was not striped across survivors";
}

TEST(StateRecoveryTest, GappedLiveMirrorResyncsWithoutABase) {
  // Isolate one mirror's host for a window far shorter than the GC dead
  // interval: no view changes, the deltas ordered meanwhile are simply
  // lost to it. The first delta that reaches the healed mirror chains
  // past the hole; the mirror asks for the epochs after the one it holds
  // and the answer carries deltas only. The run's bases are the primary's
  // first checkpoint and one per restoring replacement, nothing else.
  ExperimentSpec spec = stateful_spec();
  spec.chaos.partition(milliseconds(130), "node3");
  spec.chaos.heal(milliseconds(150), "node3");

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(200));
  const ExperimentResult r = exp.collect();
  EXPECT_TRUE(r.state_ok);
  EXPECT_EQ(r.group_results[0].invocations_completed, 400u);

  const ServiceGroup* g = exp.testbed().group(kServiceName);
  ASSERT_NE(g, nullptr);
  std::uint64_t resyncs = 0;
  std::uint64_t bases = 0;
  for (const auto& rep : g->replicas()) {
    const auto& st = rep->mead().stats();
    resyncs += st.resyncs;
    bases += st.bases_sent;
  }
  EXPECT_GE(resyncs, 1u) << "the isolation cost the mirror no delta";
  EXPECT_EQ(bases, 1 + r.state_restores);
  // Every replica ends on the same chain, compacted in lockstep.
  const state::CheckpointStore* first = nullptr;
  for (const auto& rep : g->replicas()) {
    if (!rep->alive()) continue;
    const state::CheckpointStore* store = rep->mead().ckpt_store();
    ASSERT_NE(store, nullptr);
    if (first == nullptr) first = store;
    EXPECT_EQ(store->chain(), first->chain()) << rep->member();
  }
}

TEST(StateRecoveryTest, LostResyncAnswerIsRequestedAgain) {
  // The gapped mirror of the test above asks for a resync, and the primary
  // that would answer dies while the request is in flight: the survivors
  // order it while the dead primary still heads their registries, so
  // nobody answers. No periodic base brings the mirror back onto the
  // chain: a gap that outlives restore_deadline must ask again, now
  // answered by the promoted primary.
  ExperimentSpec spec = stateful_spec();
  spec.chaos.partition(milliseconds(130), "node3");
  spec.chaos.heal(milliseconds(150), "node3");

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  const ServiceGroup* g = exp.testbed().group(kServiceName);
  ASSERT_NE(g, nullptr);
  TimeOfDayReplica* mirror = nullptr;
  for (int step = 0; step < 20'000 && mirror == nullptr; ++step) {
    exp.sim().run_for(microseconds(10));
    for (const auto& rep : g->replicas()) {
      if (rep->alive() && rep->mead().stats().resyncs > 0) {
        mirror = rep.get();
      }
    }
  }
  ASSERT_NE(mirror, nullptr) << "the isolation cost the mirror no delta";
  // Kill the primary (the oldest live incarnation) before it delivers the
  // request.
  for (const auto& rep : g->replicas()) {
    if (rep->alive()) {
      ASSERT_NE(rep.get(), mirror) << "the gapped mirror is the primary";
      rep->process().kill();
      break;
    }
  }
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();
  EXPECT_TRUE(r.state_ok);
  EXPECT_EQ(r.group_results[0].invocations_completed, 400u);

  EXPECT_TRUE(mirror->alive());
  EXPECT_GE(mirror->mead().stats().resyncs, 2u) << "the answer was not lost";
  const state::CheckpointStore* first = nullptr;
  for (const auto& rep : g->replicas()) {
    if (!rep->alive()) continue;
    const state::CheckpointStore* store = rep->mead().ckpt_store();
    ASSERT_NE(store, nullptr);
    if (first == nullptr) first = store;
    EXPECT_EQ(store->last_epoch(), first->last_epoch()) << rep->member();
    EXPECT_EQ(store->chain(), first->chain()) << rep->member();
  }
}

TEST(StateRecoveryTest, TwoCrashesInOneDeadIntervalRebuildFromOneSurvivor) {
  // Both older replicas die 2 ms apart — before either replacement can
  // announce — leaving a single survivor holding the only copy of the
  // state. Both replacements pull from it concurrently (their directed
  // chains interleave on the ckpt channel) and must both converge.
  ExperimentSpec spec = stateful_spec();
  spec.groups[0].state.pull_restore = true;
  spec.chaos.crash_process(milliseconds(150), kServiceName);
  spec.chaos.crash_process(milliseconds(152), kServiceName);

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(800));  // both replacements settle
  const ExperimentResult r = exp.collect();

  // Two completed peer restores, nothing lost or double-applied.
  EXPECT_GE(r.state_restores, 2u);
  EXPECT_TRUE(r.state_ok);
  EXPECT_EQ(r.group_results[0].invocations_completed, 400u);

  // The group is whole again and the two replacements hold identical
  // state: same applied watermark, same digest.
  const ServiceGroup* g = exp.testbed().group(kServiceName);
  ASSERT_NE(g, nullptr);
  EXPECT_GE(g->live_replica_count(), 3u);
  std::vector<const state::AppState*> rebuilt;
  for (const auto& rep : g->replicas()) {
    if (rep->alive() && !rep->mead().restoring() &&
        rep->mead().stats().restores > 0) {
      rebuilt.push_back(rep->mead().app_state());
    }
  }
  ASSERT_GE(rebuilt.size(), 2u);
  for (const auto* s : rebuilt) {
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->applied(), rebuilt.front()->applied());
    EXPECT_EQ(s->digest(), rebuilt.front()->digest());
  }
}

TEST(StateRecoveryTest, RestoreWorksUnderEverySchemeWithLeakRecovery) {
  // The proactive schemes rejuvenate replicas mid-run (memory-leak
  // thresholds); each rejuvenated incarnation must come back through the
  // restore path with state intact. Reactive schemes crash instead — the
  // replacement restores from the surviving peers.
  const core::RecoveryScheme schemes[] = {
      core::RecoveryScheme::kReactiveNoCache,
      core::RecoveryScheme::kReactiveCache,
      core::RecoveryScheme::kNeedsAddressing,
      core::RecoveryScheme::kLocationForward,
      core::RecoveryScheme::kMeadMessage,
  };
  for (const auto scheme : schemes) {
    SCOPED_TRACE(std::string("scheme ").append(core::to_string(scheme)));
    ExperimentSpec spec = stateful_spec();
    spec.scheme = scheme;
    spec.groups[0].scheme = scheme;
    const ExperimentResult r = run_experiment(spec);
    EXPECT_EQ(r.group_results[0].invocations_completed, 400u);
    EXPECT_TRUE(r.state_ok);
    if (r.server_failures > 0) {
      EXPECT_GE(r.state_restores, 1u);
    }
  }
}

}  // namespace
}  // namespace mead::app
