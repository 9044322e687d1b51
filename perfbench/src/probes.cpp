#include "probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "app/timeofday.h"
#include "common/stats.h"
#include "gc/client.h"
#include "gc/daemon.h"
#include "giop/cdr.h"
#include "giop/messages.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "state/app_state.h"
#include "state/checkpoint.h"

namespace perfbench {

using mead::milliseconds;
using Clock = std::chrono::steady_clock;

namespace {

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

constexpr int kRounds = 5;

volatile std::uint64_t g_giop_sink = 0;

// ---- sim ----

/// One timer chain: each event schedules the chain's next one.
struct Tick {
  mead::sim::Simulator* sim;
  std::uint64_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    sim->schedule(mead::microseconds(1 + static_cast<std::int64_t>(*left % 7)),
                  Tick{sim, left});
  }
};

// ---- gc ----

mead::sim::Task<void> member_loop(mead::gc::GcClient& gc, std::string group,
                                  std::uint64_t& delivered) {
  if (!co_await gc.connect()) co_return;
  (void)co_await gc.join(group);
  for (;;) {
    auto ev = co_await gc.next_event(milliseconds(1000));
    if (!ev) co_return;
    if (ev.value() && ev.value()->kind == mead::gc::Event::Kind::kMessage) {
      ++delivered;
    }
  }
}

mead::sim::Task<void> sender_setup(mead::gc::GcClient& gc, std::string group,
                                   std::uint8_t& ready) {
  if (!co_await gc.connect()) co_return;
  const bool joined = co_await gc.join(group);
  ready = joined ? 1 : 0;
}

mead::sim::Task<void> send_burst(mead::gc::GcClient& gc, std::string group,
                                 int messages) {
  for (int i = 0; i < messages; ++i) {
    const std::string body = "probe#" + std::to_string(i);
    (void)co_await gc.multicast(group, mead::Bytes(body.begin(), body.end()));
  }
}

/// A standalone GC world: daemons on every node, three reading members
/// and one sender per group. Destruction order matters: clients, then
/// daemons, then the network, then the simulator.
struct GcWorld {
  static constexpr int kMembers = 3;

  GcWorld(std::size_t n_daemons, std::size_t n_groups, bool scaled_plane)
      : sim(11), net(sim) {
    for (std::size_t i = 0; i < n_daemons; ++i) {
      hosts.push_back("node" + std::to_string(i + 1));
      net.add_node(hosts.back());
    }
    for (std::size_t i = 0; i < n_daemons; ++i) {
      mead::gc::DaemonConfig cfg;
      cfg.daemon_hosts = hosts;
      cfg.self_index = i;
      if (scaled_plane) cfg.plane = mead::gc::PlaneOptions::scaled();
      daemons.push_back(std::make_unique<mead::gc::GcDaemon>(
          net.spawn_process(hosts[i], "gc-daemon"), cfg));
      daemons.back()->start();
    }
    sim.run_for(milliseconds(50));
    ready.assign(n_groups, 0);
    for (std::size_t g = 0; g < n_groups; ++g) {
      groups.push_back("probe-g" + std::to_string(g));
      for (int k = 0; k <= kMembers; ++k) {
        const std::string& host =
            hosts[(g * (kMembers + 1) + static_cast<std::size_t>(k)) %
                  n_daemons];
        const std::string name =
            "probe/" + std::to_string(g) + "/" + std::to_string(k);
        procs.push_back(net.spawn_process(host, name));
        clients.push_back(std::make_unique<mead::gc::GcClient>(
            *procs.back(), name,
            mead::net::Endpoint{host, mead::gc::kDefaultDaemonPort}));
        if (k < kMembers) {
          sim.spawn(member_loop(*clients.back(), groups.back(), delivered));
        } else {
          senders.push_back(clients.back().get());
        }
      }
      // The sender joins only after its readers are in the group.
      sim.run_for(milliseconds(5));
      sim.spawn(sender_setup(*senders.back(), groups.back(), ready[g]));
    }
    sim.run_for(milliseconds(200));
  }

  [[nodiscard]] bool all_ready() const {
    return std::all_of(ready.begin(), ready.end(),
                       [](std::uint8_t r) { return r != 0; });
  }

  /// Host ns to deliver `per_group` multicasts in every group to every
  /// reader; negative if delivery did not finish.
  double burst(int per_group) {
    const std::uint64_t want =
        delivered + static_cast<std::uint64_t>(per_group) * kMembers *
                        groups.size();
    const auto t0 = Clock::now();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      sim.spawn(send_burst(*senders[g], groups[g], per_group));
    }
    for (int i = 0; i < 10'000 && delivered < want; ++i) {
      sim.run_for(milliseconds(1));
    }
    const double ns = ns_since(t0);
    return delivered == want ? ns : -1;
  }

  mead::sim::Simulator sim;
  mead::net::Network net;
  std::vector<std::string> hosts;
  std::vector<std::unique_ptr<mead::gc::GcDaemon>> daemons;
  std::vector<mead::net::ProcessPtr> procs;
  std::vector<std::unique_ptr<mead::gc::GcClient>> clients;
  std::vector<mead::gc::GcClient*> senders;
  std::vector<std::string> groups;
  std::vector<std::uint8_t> ready;  // per group: sender joined
  std::uint64_t delivered = 0;
};

}  // namespace

double probe_sim_ns_per_event(SpanLog* spans) {
  constexpr int kChains = 64;
  constexpr std::uint64_t kPerChain = 4000;
  mead::Series rounds;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t span =
        spans != nullptr ? spans->begin("probe.sim", -1, r, -1) : -1;
    mead::sim::Simulator sim(static_cast<std::uint64_t>(r) + 1);
    std::vector<std::uint64_t> left(kChains, kPerChain);
    for (auto& l : left) sim.schedule(mead::Duration{0}, Tick{&sim, &l});
    const auto t0 = Clock::now();
    sim.run();
    const double ns = ns_since(t0);
    if (spans != nullptr) spans->end(span, sim.now().ns());
    rounds.add(ns / static_cast<double>(sim.events_processed()));
  }
  return rounds.percentile(50);
}

double probe_giop_ns_per_call(SpanLog* spans) {
  constexpr int kIters = 20'000;
  const auto key =
      mead::giop::ObjectKey::make_persistent(mead::app::kObjectPath);
  mead::giop::CdrWriter body;
  body.write_i64(123'456'789);
  body.write_u64(42);
  const mead::Bytes reply_body = body.take();
  mead::Series rounds;
  std::uint64_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t span =
        spans != nullptr ? spans->begin("probe.giop", -1, r, -1) : -1;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      const mead::Bytes req = mead::giop::encode_request(
          mead::giop::RequestMessage(id, true, key, "get_time", {}));
      const auto dreq = mead::giop::decode_request(req);
      const mead::Bytes rep = mead::giop::encode_reply(mead::giop::ReplyMessage(
          id, mead::giop::ReplyStatus::kNoException, reply_body));
      const auto drep = mead::giop::decode_reply(rep);
      sink += (dreq ? dreq->request_id : 0) + (drep ? drep->body.size() : 0);
    }
    const double ns = ns_since(t0);
    if (spans != nullptr) spans->end(span);
    rounds.add(ns / (4.0 * kIters));
  }
  // Publish the decoded fields so the loop cannot be optimised away.
  g_giop_sink = sink;
  return rounds.percentile(50);
}

double probe_gc_us_per_msg(std::size_t daemons, std::size_t groups,
                           bool scaled_plane, SpanLog* spans) {
  const int per_group = std::max(4, static_cast<int>(256 / groups));
  GcWorld world(daemons, groups, scaled_plane);
  if (!world.all_ready()) return -1;
  mead::Series rounds;
  const std::string name = "probe.gc." + std::to_string(daemons) + "x" +
                           std::to_string(groups);
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t span =
        spans != nullptr
            ? spans->begin(name, -1, r, -1, world.sim.now().ns())
            : -1;
    const double ns = world.burst(per_group);
    if (spans != nullptr) spans->end(span, world.sim.now().ns());
    if (ns < 0) return -1;
    rounds.add(ns / 1e3 /
                     static_cast<double>(per_group * static_cast<int>(groups)));
  }
  return rounds.percentile(50);
}

StateProbe probe_state(std::uint32_t keys, SpanLog* spans) {
  constexpr int kDeltaOps = 10;
  mead::Series base_us, delta_us, apply_us;
  for (int r = 0; r < kRounds * 4; ++r) {
    const std::int64_t span =
        spans != nullptr ? spans->begin("probe.state", -1, r, -1) : -1;
    mead::state::AppState primary(keys);
    for (std::uint64_t i = 0; i < 2ULL * keys; ++i) primary.apply_next();
    mead::state::CheckpointStore store;
    auto t0 = Clock::now();
    const mead::state::Checkpoint& base = store.take(primary);
    base_us.add(ns_since(t0) / 1e3);

    mead::state::AppState mirror(keys);
    mead::state::CheckpointStore mirror_store;
    t0 = Clock::now();
    const auto applied = mirror_store.apply(base, mirror);
    apply_us.add(ns_since(t0) / 1e3);

    for (int i = 0; i < kDeltaOps; ++i) primary.apply_next();
    t0 = Clock::now();
    const mead::state::Checkpoint& delta = store.take(primary);
    delta_us.add(ns_since(t0) / 1e3);
    if (spans != nullptr) spans->end(span);
    if (applied != mead::state::CheckpointStore::Apply::kApplied ||
        delta.is_base || mirror.digest() != base.digest) {
      return StateProbe{-1, -1, -1};
    }
  }
  return StateProbe{base_us.percentile(50), delta_us.percentile(50),
                    apply_us.percentile(50)};
}

}  // namespace perfbench
