// Replicated Recovery Manager failover (ctest label: rm): three
// self-supervised RM replicas feed their RmCores the same totally-ordered
// stream; only the first-in-view replica acts. These tests kill the acting
// manager at the nastiest moments — mid launch-delay, and between a
// replica's doom announcement and its death — and assert the failover
// contract: exactly one launch per deficit (never zero, never two),
// monotone incarnation numbers, and a promoted backup whose converged
// state matches the dead leader's.
#include "core/recovery_manager.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rm_core.h"
#include "gc/daemon.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace mead::core {
namespace {

class RmFailoverWorld : public ::testing::Test {
 protected:
  RmFailoverWorld() : net_(sim_) {
    for (int i = 1; i <= 4; ++i) {
      hosts_.push_back("node" + std::to_string(i));
      net_.add_node(hosts_.back());
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      gc::DaemonConfig cfg;
      cfg.daemon_hosts = hosts_;
      cfg.self_index = i;
      auto proc = net_.spawn_process(hosts_[i], "gc-daemon");
      daemons_.push_back(std::make_unique<gc::GcDaemon>(proc, cfg));
      daemons_.back()->start();
    }
    sim_.run_for(milliseconds(10));
  }

  struct FakeReplica {
    net::ProcessPtr proc;
    std::unique_ptr<gc::GcClient> gc;
  };

  FakeReplica spawn_fake_replica(const std::string& service, int incarnation) {
    FakeReplica r;
    const std::string host =
        hosts_[static_cast<std::size_t>(incarnation - 1) % hosts_.size()];
    r.proc = net_.spawn_process(host, "replica");
    r.gc = std::make_unique<gc::GcClient>(
        *r.proc, service + "/replica/" + std::to_string(incarnation),
        net::Endpoint{host, gc::kDefaultDaemonPort});
    auto boot = [](gc::GcClient& c, std::string svc) -> sim::Task<void> {
      const bool ok = co_await c.connect();
      if (ok) (void)co_await c.join(replica_group(svc));
    };
    sim_.spawn(boot(*r.gc, service));
    return r;
  }

  /// Boots `n` self-supervised RM replicas on node1..nodeN, all sharing an
  /// idempotent factory (dedupes by service + incarnation, like the real
  /// ServiceGroup::spawn_replica).
  void make_rms(std::size_t n, Duration launch_delay = milliseconds(2),
                bool readmit = false) {
    for (std::size_t i = 0; i < n; ++i) {
      RecoveryManagerConfig cfg;
      cfg.member = rm_member_name(i);
      cfg.daemon = net::Endpoint{hosts_[i], gc::kDefaultDaemonPort};
      cfg.groups = {GroupTarget{"TimeOfDay", 3}};
      cfg.launch_delay = launch_delay;
      cfg.self_supervise = true;
      cfg.readmit = readmit;
      rm_procs_.push_back(net_.spawn_process(hosts_[i], cfg.member));
      rms_.push_back(std::make_unique<RecoveryManager>(
          rm_procs_.back(), cfg,
          [this](const std::string& service, int inc, const std::string&) {
            if (!spawned_.insert(service + "#" + std::to_string(inc)).second) {
              return true;  // idempotent: this incarnation already exists
            }
            replicas_.push_back(spawn_fake_replica(service, inc));
            return true;
          }));
      auto boot = [](RecoveryManager& m) -> sim::Task<void> {
        (void)co_await m.start();
      };
      sim_.spawn(boot(*rms_.back()));
    }
    sim_.run_for(milliseconds(100));
  }

  [[nodiscard]] RecoveryManager* acting_rm() {
    for (auto& rm : rms_) {
      if (rm->acting()) return rm.get();
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t acting_index() {
    for (std::size_t i = 0; i < rms_.size(); ++i) {
      if (rms_[i]->acting()) return i;
    }
    return rms_.size();
  }

  [[nodiscard]] std::size_t live_fakes() const {
    std::size_t n = 0;
    for (const auto& r : replicas_) {
      if (r.proc->alive()) ++n;
    }
    return n;
  }

  /// Cuts (or restores) every link between hosts_[idx] and the rest of the
  /// cluster, leaving the node's own daemon and processes running.
  void set_host_partitioned(std::size_t idx, bool on) {
    for (std::size_t j = 0; j < hosts_.size(); ++j) {
      if (j != idx) net_.set_link_partitioned(hosts_[idx], hosts_[j], on);
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::string> hosts_;
  std::vector<std::unique_ptr<gc::GcDaemon>> daemons_;
  std::vector<FakeReplica> replicas_;
  std::set<std::string> spawned_;
  std::vector<net::ProcessPtr> rm_procs_;
  std::vector<std::unique_ptr<RecoveryManager>> rms_;
};

TEST_F(RmFailoverWorld, ExactlyOneActingReplicaAndConvergedBackups) {
  make_rms(3);
  ASSERT_EQ(replicas_.size(), 3u);
  std::size_t acting = 0;
  for (const auto& rm : rms_) {
    if (rm->acting()) ++acting;
  }
  EXPECT_EQ(acting, 1u);
  // Backups applied the same ordered stream: every core agrees.
  for (const auto& rm : rms_) {
    const auto v = rm->view("TimeOfDay");
    ASSERT_TRUE(v.has_value()) << rm->member();
    EXPECT_EQ(v->live, 3u) << rm->member();
    EXPECT_EQ(v->pending, 0u) << rm->member();
    EXPECT_EQ(v->next_incarnation, 4) << rm->member();
    EXPECT_EQ(v->stats.launches, 3u) << rm->member();
  }
}

TEST_F(RmFailoverWorld, BackupPromotesWhenActingDies) {
  make_rms(3);
  const std::size_t dead = acting_index();
  ASSERT_LT(dead, rms_.size());
  rm_procs_[dead]->kill();
  sim_.run_for(milliseconds(100));
  const std::size_t promoted = acting_index();
  ASSERT_LT(promoted, rms_.size());
  EXPECT_NE(promoted, dead);
  EXPECT_EQ(rms_[promoted]->failovers(), 1u);
  // Nothing was pending, so promotion must not spawn anything.
  EXPECT_EQ(replicas_.size(), 3u);
  EXPECT_EQ(rms_[promoted]->view("TimeOfDay")->stats.launches, 3u);
}

TEST_F(RmFailoverWorld, ActingCrashDuringLaunchDelayLaunchesExactlyOnce) {
  // Long launch delay so the acting manager reliably dies mid-sleep, with
  // the replacement's launch slot still pending.
  make_rms(3, milliseconds(30));
  ASSERT_EQ(replicas_.size(), 3u);
  const int inc0 = rms_[0]->view("TimeOfDay")->next_incarnation;

  replicas_[1].proc->kill();
  // Wait for the membership change to mint the launch slot, then kill the
  // acting manager while its launch task is still sleeping.
  bool slot_minted = false;
  for (int i = 0; i < 25 && !slot_minted; ++i) {
    sim_.run_for(milliseconds(1));
    RecoveryManager* rm = acting_rm();
    slot_minted = rm != nullptr && rm->view("TimeOfDay")->pending == 1u;
  }
  ASSERT_TRUE(slot_minted);
  const std::size_t dead = acting_index();
  ASSERT_LT(dead, rms_.size());
  rm_procs_[dead]->kill();
  sim_.run_for(milliseconds(300));

  // The new acting manager re-drove the pending slot: exactly one
  // replacement, not zero (lost slot) and not two (double launch).
  ASSERT_NE(acting_rm(), nullptr);
  EXPECT_EQ(replicas_.size(), 4u);
  EXPECT_EQ(live_fakes(), 3u);
  const auto v = acting_rm()->view("TimeOfDay");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->live, 3u);
  EXPECT_EQ(v->pending, 0u);
  EXPECT_EQ(v->stats.launches, 4u);
  EXPECT_GE(v->next_incarnation, inc0);  // monotone across failover
  EXPECT_GE(acting_rm()->failovers(), 1u);
}

TEST_F(RmFailoverWorld, ActingCrashBetweenDoomAndDeathNoDoubleLaunch) {
  make_rms(3, milliseconds(30));
  ASSERT_EQ(replicas_.size(), 3u);

  // replica/1's FT manager announces impending death (T1)...
  auto requester = std::make_unique<gc::GcClient>(
      *replicas_[0].proc, "ft/replica/1",
      net::Endpoint{hosts_[0], gc::kDefaultDaemonPort});
  auto boot = [](gc::GcClient& c) -> sim::Task<void> {
    (void)co_await c.connect();
  };
  auto shout = [](gc::GcClient& c) -> sim::Task<void> {
    (void)co_await c.multicast(
        control_group("TimeOfDay"),
        encode_ctrl(LaunchRequest{"replica/1", 0.82}));
  };
  sim_.spawn(boot(*requester));
  sim_.run_for(milliseconds(10));
  sim_.spawn(shout(*requester));

  // ...the acting manager mints the proactive slot, then dies before the
  // spare is up and before the doomed replica exits.
  bool slot_minted = false;
  for (int i = 0; i < 25 && !slot_minted; ++i) {
    sim_.run_for(milliseconds(1));
    RecoveryManager* rm = acting_rm();
    slot_minted = rm != nullptr && rm->view("TimeOfDay")->pending == 1u;
  }
  ASSERT_TRUE(slot_minted);
  const std::size_t dead = acting_index();
  ASSERT_LT(dead, rms_.size());
  rm_procs_[dead]->kill();

  // The promoted backup re-drives the proactive slot: spare comes up.
  sim_.run_for(milliseconds(300));
  ASSERT_EQ(replicas_.size(), 4u);
  EXPECT_GE(acting_rm()->failovers(), 1u);

  // Now the doomed replica actually dies: the spare already compensates,
  // so the new manager must NOT launch again.
  replicas_[0].proc->kill();
  sim_.run_for(milliseconds(300));
  EXPECT_EQ(replicas_.size(), 4u);
  EXPECT_EQ(live_fakes(), 3u);
  const auto v = acting_rm()->view("TimeOfDay");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->live, 3u);
  EXPECT_EQ(v->pending, 0u);
  EXPECT_EQ(v->stats.launches, 4u);
  EXPECT_EQ(v->stats.proactive_launches, 1u);
}

TEST_F(RmFailoverWorld, CascadedRmCrashesFallThroughToLastReplica) {
  make_rms(3, milliseconds(5));
  ASSERT_EQ(replicas_.size(), 3u);
  // Kill managers one at a time; each survivor keeps the group whole.
  for (int round = 0; round < 2; ++round) {
    const std::size_t dead = acting_index();
    ASSERT_LT(dead, rms_.size());
    rm_procs_[dead]->kill();
    sim_.run_for(milliseconds(100));
    ASSERT_NE(acting_rm(), nullptr) << "round " << round;
    const std::size_t victim =
        static_cast<std::size_t>(round);  // stagger replica kills too
    if (replicas_[victim].proc->alive()) replicas_[victim].proc->kill();
    sim_.run_for(milliseconds(300));
    const auto v = acting_rm()->view("TimeOfDay");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->live, 3u) << "round " << round;
    EXPECT_EQ(v->pending, 0u) << "round " << round;
  }
  EXPECT_EQ(live_fakes(), 3u);
  // Two managers died; every deficit was filled exactly once.
  EXPECT_EQ(replicas_.size(), 5u);
}

TEST_F(RmFailoverWorld, PartitionedRmStaysRetiredByDefault) {
  make_rms(3);
  ASSERT_EQ(replicas_.size(), 3u);
  // Cut rm/1's node off long enough for the majority's daemons to declare
  // it dead (3 missed 500 ms heartbeats), then heal. It rejoins the RM
  // view at the tail, having missed ordered messages: retired for good.
  set_host_partitioned(1, true);
  sim_.run_for(milliseconds(3000));
  set_host_partitioned(1, false);
  sim_.run_for(milliseconds(3000));
  EXPECT_TRUE(rms_[1]->retired());
  EXPECT_FALSE(rms_[1]->acting());
  EXPECT_EQ(rms_[1]->readmissions(), 0u);
  // The majority side kept an acting manager throughout.
  const std::size_t acting = acting_index();
  ASSERT_LT(acting, rms_.size());
  EXPECT_NE(acting, 1u);
}

TEST_F(RmFailoverWorld, RetiredRmReadmitsViaStateTransfer) {
  make_rms(3, milliseconds(2), /*readmit=*/true);
  ASSERT_EQ(replicas_.size(), 3u);
  set_host_partitioned(1, true);
  sim_.run_for(milliseconds(3000));
  set_host_partitioned(1, false);
  sim_.run_for(milliseconds(3000));

  // The rejoined replica opened the state-transfer handshake, installed
  // the acting manager's snapshot at the request's order position, and
  // replayed its buffered suffix: a converged backup again.
  EXPECT_EQ(rms_[1]->readmissions(), 1u);
  EXPECT_FALSE(rms_[1]->retired());

  // Convergence: all three cores now answer identical group views. (The
  // partition split-brained the minority manager, so compare replicas
  // against each other, not against absolute pre-partition counts.)
  const auto ref = rms_[0]->view("TimeOfDay");
  ASSERT_TRUE(ref.has_value());
  for (std::size_t i = 1; i < rms_.size(); ++i) {
    const auto v = rms_[i]->view("TimeOfDay");
    ASSERT_TRUE(v.has_value()) << rms_[i]->member();
    EXPECT_EQ(v->live, ref->live) << rms_[i]->member();
    EXPECT_EQ(v->pending, ref->pending) << rms_[i]->member();
    EXPECT_EQ(v->next_incarnation, ref->next_incarnation)
        << rms_[i]->member();
    EXPECT_EQ(v->stats, ref->stats) << rms_[i]->member();
    ASSERT_NE(v->registry, nullptr);
    EXPECT_EQ(v->registry->view().members, ref->registry->view().members)
        << rms_[i]->member();
  }

  // The readmitted backup is fully trustworthy: kill the other two
  // managers and it takes over...
  rm_procs_[0]->kill();
  rm_procs_[2]->kill();
  sim_.run_for(milliseconds(200));
  ASSERT_TRUE(rms_[1]->acting());

  // ...and still drives recovery. Kill live replicas down below the target
  // degree (the heal may have left extras: the split-brained minority's
  // factory calls landed on majority nodes); the readmitted manager fills
  // every deficit back up.
  const auto before = rms_[1]->view("TimeOfDay");
  ASSERT_TRUE(before.has_value());
  for (auto& r : replicas_) {
    if (live_fakes() <= 2) break;
    if (r.proc->alive()) r.proc->kill();
  }
  ASSERT_EQ(live_fakes(), 2u);
  sim_.run_for(milliseconds(500));
  const auto after = rms_[1]->view("TimeOfDay");
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->stats.launches, before->stats.launches);
  EXPECT_GE(after->live, 3u);
  EXPECT_EQ(after->pending, 0u);
}

}  // namespace
}  // namespace mead::core
