// Recovery Manager behaviour: bootstrap, reactive relaunch, proactive
// launch accounting (no double-launch for an anticipated death).
#include "core/recovery_manager.h"

#include <gtest/gtest.h>

#include "gc/daemon.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace mead::core {
namespace {

class RmWorld : public ::testing::Test {
 protected:
  RmWorld() : net_(sim_) {
    for (int i = 1; i <= 3; ++i) {
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

  /// Minimal "replica": a process that joins the replica group, nothing
  /// else. The factory spawns these.
  struct FakeReplica {
    net::ProcessPtr proc;
    std::unique_ptr<gc::GcClient> gc;
  };

  FakeReplica spawn_fake_replica(const std::string& service, int incarnation,
                                 const std::string& host_hint = {}) {
    FakeReplica r;
    const std::string host =
        host_hint.empty()
            ? hosts_[static_cast<std::size_t>(incarnation - 1) % 3]
            : host_hint;
    // Deliberately the same member name per incarnation number in every
    // group: per-group isolation must come from the group key, not the
    // member string.
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

  std::unique_ptr<RecoveryManager> make_rm(std::size_t target = 3) {
    return make_multi_rm({GroupTarget{"TimeOfDay", target}});
  }

  std::unique_ptr<RecoveryManager> make_multi_rm(std::vector<GroupTarget> targets) {
    RecoveryManagerConfig cfg;
    cfg.daemon = net::Endpoint{hosts_[0], gc::kDefaultDaemonPort};
    cfg.groups = std::move(targets);
    rm_proc_ = net_.spawn_process(hosts_[0], "rm");
    auto rm = std::make_unique<RecoveryManager>(
        rm_proc_, cfg,
        [this](const std::string& service, int inc, const std::string& host) {
          replicas_.push_back(spawn_fake_replica(service, inc, host));
          return true;
        });
    auto boot = [](RecoveryManager& m, bool& ok) -> sim::Task<void> {
      ok = co_await m.start();
    };
    sim_.spawn(boot(*rm, rm_up_));
    return rm;
  }

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::string> hosts_;
  std::vector<std::unique_ptr<gc::GcDaemon>> daemons_;
  std::vector<FakeReplica> replicas_;
  net::ProcessPtr rm_proc_;
  bool rm_up_ = false;
};

TEST_F(RmWorld, BootstrapsTargetDegree) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  EXPECT_TRUE(rm_up_);
  EXPECT_EQ(replicas_.size(), 3u);
  EXPECT_EQ(rm->live_replicas(), 3u);
  EXPECT_EQ(rm->stats().launches, 3u);
}

TEST_F(RmWorld, RelaunchesAfterCrash) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 3u);
  replicas_[1].proc->kill();
  sim_.run_for(milliseconds(100));
  EXPECT_EQ(replicas_.size(), 4u);
  EXPECT_EQ(rm->live_replicas(), 3u);
  EXPECT_EQ(rm->stats().reactive_launches, 4u);
  EXPECT_EQ(rm->stats().proactive_launches, 0u);
}

TEST_F(RmWorld, ProactiveLaunchRequestSpawnsSpare) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 3u);

  // replica/1's FT manager announces impending death.
  auto shout = [](gc::GcClient& c) -> sim::Task<void> {
    (void)co_await c.multicast(control_group("TimeOfDay"),
                               encode_ctrl(LaunchRequest{"replica/1", 0.82}));
  };
  auto requester = std::make_unique<gc::GcClient>(
      *replicas_[0].proc, "ft/replica/1",
      net::Endpoint{hosts_[0], gc::kDefaultDaemonPort});
  auto boot = [](gc::GcClient& c) -> sim::Task<void> { (void)co_await c.connect(); };
  sim_.spawn(boot(*requester));
  sim_.run_for(milliseconds(10));
  sim_.spawn(shout(*requester));
  sim_.run_for(milliseconds(100));

  EXPECT_EQ(replicas_.size(), 4u);  // spare launched
  EXPECT_EQ(rm->stats().proactive_launches, 1u);
}

TEST_F(RmWorld, AnticipatedDeathDoesNotDoubleLaunch) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 3u);

  auto requester = std::make_unique<gc::GcClient>(
      *replicas_[0].proc, "ft/replica/1",
      net::Endpoint{hosts_[0], gc::kDefaultDaemonPort});
  auto boot = [](gc::GcClient& c) -> sim::Task<void> { (void)co_await c.connect(); };
  auto shout = [](gc::GcClient& c) -> sim::Task<void> {
    (void)co_await c.multicast(control_group("TimeOfDay"),
                               encode_ctrl(LaunchRequest{"replica/1", 0.85}));
  };
  sim_.spawn(boot(*requester));
  sim_.run_for(milliseconds(10));
  sim_.spawn(shout(*requester));
  sim_.run_for(milliseconds(50));
  ASSERT_EQ(replicas_.size(), 4u);  // spare is up

  // Now the doomed replica actually dies: the RM must NOT launch again
  // (the spare already compensates).
  replicas_[0].proc->kill();
  sim_.run_for(milliseconds(100));
  EXPECT_EQ(replicas_.size(), 4u);
  EXPECT_EQ(rm->live_replicas(), 3u);
  EXPECT_EQ(rm->stats().launches, 4u);
}

TEST_F(RmWorld, DuplicateLaunchRequestsCoalesce) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  auto requester = std::make_unique<gc::GcClient>(
      *replicas_[0].proc, "ft/replica/1",
      net::Endpoint{hosts_[0], gc::kDefaultDaemonPort});
  auto boot = [](gc::GcClient& c) -> sim::Task<void> { (void)co_await c.connect(); };
  auto shout = [](gc::GcClient& c) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      (void)co_await c.multicast(
          control_group("TimeOfDay"),
          encode_ctrl(LaunchRequest{"replica/1", 0.82}));
    }
  };
  sim_.spawn(boot(*requester));
  sim_.run_for(milliseconds(10));
  sim_.spawn(shout(*requester));
  sim_.run_for(milliseconds(100));
  // Three identical requests about the same doomed member -> one spare.
  EXPECT_EQ(replicas_.size(), 4u);
}

TEST_F(RmWorld, CascadingCrashesAllReplaced) {
  auto rm = make_rm(3);
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 3u);
  replicas_[0].proc->kill();
  sim_.run_for(milliseconds(50));
  replicas_[1].proc->kill();
  sim_.run_for(milliseconds(50));
  replicas_[2].proc->kill();
  sim_.run_for(milliseconds(200));
  EXPECT_EQ(rm->live_replicas(), 3u);
  EXPECT_EQ(rm->stats().launches, 6u);
}

TEST_F(RmWorld, MultiGroupBootstrapsEachTarget) {
  auto rm = make_multi_rm({GroupTarget{"Alpha", 3}, GroupTarget{"Beta", 2}});
  sim_.run_for(milliseconds(100));
  EXPECT_TRUE(rm_up_);
  EXPECT_EQ(replicas_.size(), 5u);
  EXPECT_EQ(rm->live_replicas(), 5u);
  const auto alpha = rm->view("Alpha");
  const auto beta = rm->view("Beta");
  ASSERT_TRUE(alpha.has_value());
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(alpha->live, 3u);
  EXPECT_EQ(beta->live, 2u);
  EXPECT_EQ(alpha->stats.launches, 3u);
  EXPECT_EQ(beta->stats.launches, 2u);
  EXPECT_EQ(rm->stats().launches, 5u);
  EXPECT_FALSE(rm->view("Gamma").has_value());  // unsupervised service
}

TEST_F(RmWorld, CrashInOneGroupDoesNotLaunchInAnother) {
  auto rm = make_multi_rm({GroupTarget{"Alpha", 2}, GroupTarget{"Beta", 2}});
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 4u);
  // Incarnation numbering restarts per group, so both groups own a member
  // whose name ends in "replica/1"; kill Alpha's.
  std::size_t alpha1 = replicas_.size();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].gc->name() == "Alpha/replica/1") alpha1 = i;
  }
  ASSERT_LT(alpha1, replicas_.size());
  replicas_[alpha1].proc->kill();
  sim_.run_for(milliseconds(100));
  EXPECT_EQ(replicas_.size(), 5u);
  EXPECT_EQ(rm->view("Alpha")->live, 2u);
  EXPECT_EQ(rm->view("Beta")->live, 2u);
  EXPECT_EQ(rm->view("Alpha")->stats.reactive_launches, 3u);
  EXPECT_EQ(rm->view("Beta")->stats.reactive_launches, 2u);
  // Beta's incarnation counter never moved.
  EXPECT_EQ(rm->view("Beta")->next_incarnation, 3);
  EXPECT_EQ(rm->view("Alpha")->next_incarnation, 4);
}

TEST_F(RmWorld, LaunchRequestRoutedByControlGroup) {
  // The same doomed member name announced on Beta's control group must
  // spawn a Beta spare, not an Alpha one: routing is by group key alone.
  auto rm = make_multi_rm({GroupTarget{"Alpha", 2}, GroupTarget{"Beta", 2}});
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(replicas_.size(), 4u);

  auto requester = std::make_unique<gc::GcClient>(
      *replicas_[0].proc, "ft/replica/1",
      net::Endpoint{hosts_[0], gc::kDefaultDaemonPort});
  auto boot = [](gc::GcClient& c) -> sim::Task<void> { (void)co_await c.connect(); };
  auto shout = [](gc::GcClient& c) -> sim::Task<void> {
    (void)co_await c.multicast(
        control_group("Beta"),
        encode_ctrl(LaunchRequest{"Beta/replica/1", 0.83}));
  };
  sim_.spawn(boot(*requester));
  sim_.run_for(milliseconds(10));
  sim_.spawn(shout(*requester));
  sim_.run_for(milliseconds(100));

  EXPECT_EQ(replicas_.size(), 5u);
  EXPECT_EQ(rm->view("Beta")->stats.proactive_launches, 1u);
  EXPECT_EQ(rm->view("Alpha")->stats.proactive_launches, 0u);
  EXPECT_EQ(rm->stats().proactive_launches, 1u);
  EXPECT_EQ(rm->view("Beta")->live, 3u);  // spare joined; doom not realized
}

TEST_F(RmWorld, TargetDegreeOneIsMinimal) {
  auto rm = make_rm(1);
  sim_.run_for(milliseconds(100));
  EXPECT_EQ(replicas_.size(), 1u);
  replicas_[0].proc->kill();
  sim_.run_for(milliseconds(100));
  EXPECT_EQ(replicas_.size(), 2u);
  EXPECT_EQ(rm->live_replicas(), 1u);
}

}  // namespace
}  // namespace mead::core
