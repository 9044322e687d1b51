// GcClient API surface: pump() after select() readiness (the paper's §3.1
// integration pattern), buffered events, reply-group addressing, error
// surfacing on daemon loss.
#include <gtest/gtest.h>

#include "gc_fixture.h"

namespace mead::gc {
namespace {

class GcClientTest : public GcWorld {};

TEST_F(GcClientTest, SelectPlusPumpDrainsEventsWithoutBlocking) {
  // The §3.1 pattern: the interceptor adds the GC socket to select() and
  // drains it with a non-blocking pump when readable.
  auto a = make_client("node1", "selector");
  auto b = make_client("node2", "talker");
  std::vector<std::string> seen;

  auto selector = [](net::Process& p, GcClient& gc,
                     std::vector<std::string>& out) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    for (int rounds = 0; rounds < 50; ++rounds) {
      std::vector<int> watched{gc.fd()};
      auto ready = co_await p.api().select(watched, milliseconds(10));
      if (!ready) co_return;
      if (ready->empty()) continue;  // timeout tick
      auto pumped = co_await gc.pump();
      if (!pumped) co_return;
      while (auto ev = gc.pop_buffered()) {
        if (ev->kind == Event::Kind::kMessage) {
          out.emplace_back(ev->payload.begin(), ev->payload.end());
        }
      }
      if (!out.empty()) co_return;
    }
  };
  auto talker = [](net::Process& p, GcClient& gc) -> sim::Task<void> {
    const bool alive = co_await p.sleep(milliseconds(15));
    if (!alive) co_return;
    Bytes msg{'v', 'i', 'a', '-', 's', 'e', 'l', 'e', 'c', 't'};
    (void)co_await gc.multicast("grp", std::move(msg));
  };
  sim_.spawn(selector(*a.proc, *a.gc, seen));
  sim_.spawn(talker(*b.proc, *b.gc));
  sim_.run_for(milliseconds(500));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "via-select");
}

TEST_F(GcClientTest, PumpWithNothingPendingReturnsZero) {
  auto a = make_client("node1", "idle");
  std::size_t pumped = 1;
  auto run = [](GcClient& gc, std::size_t& out) -> sim::Task<void> {
    // Drain whatever arrived during connect (reply-group view), then pump
    // an idle socket.
    for (;;) {
      auto n = co_await gc.pump();
      if (!n) co_return;
      while (gc.pop_buffered()) {
      }
      if (n.value() == 0) break;
    }
    auto n = co_await gc.pump();
    if (n) out = n.value();
  };
  sim_.spawn(run(*a.gc, pumped));
  sim_.run_for(milliseconds(50));
  EXPECT_EQ(pumped, 0u);
}

TEST_F(GcClientTest, NextEventSurfacesErrorWhenDaemonDies) {
  auto a = make_client("node1", "orphan");
  bool error_seen = false;
  auto run = [](GcClient& gc, bool& out) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(200));
      if (!ev) {
        out = true;  // daemon connection lost
        co_return;
      }
      if (!ev.value()) co_return;  // timeout (should not happen first)
    }
  };
  sim_.spawn(run(*a.gc, error_seen));
  sim_.schedule(milliseconds(20), [&] { daemon_procs_[0]->kill(); });
  sim_.run_for(milliseconds(300));
  EXPECT_TRUE(error_seen);
}

TEST_F(GcClientTest, SendToUnknownMemberIsSilentlyDropped) {
  auto a = make_client("node1", "sender");
  bool sent = false;
  auto run = [](GcClient& gc, bool& out) -> sim::Task<void> {
    Bytes msg{'?'};
    out = co_await gc.send_to("nobody-home", std::move(msg));
  };
  sim_.spawn(run(*a.gc, sent));
  sim_.run_for(milliseconds(50));
  EXPECT_TRUE(sent);  // fire-and-forget succeeds; nobody receives it
}

TEST_F(GcClientTest, WaitForViewSetsAsideOtherEvents) {
  auto a = make_client("node1", "m1");
  auto b = make_client("node2", "m2");
  std::optional<View> view;
  std::vector<std::string> messages_after;

  auto run = [](GcClient& gc, std::optional<View>& v,
                std::vector<std::string>& msgs) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    // m2's message may arrive before grp's view: wait_for_view must stash
    // it, not lose it.
    v = co_await gc.wait_for_view("grp", milliseconds(200));
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(100));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) {
        msgs.emplace_back(ev.value()->payload.begin(), ev.value()->payload.end());
      }
    }
  };
  auto chat = [](GcClient& gc) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    Bytes msg{'h', 'i'};
    (void)co_await gc.multicast("grp", std::move(msg));
  };
  sim_.spawn(run(*a.gc, view, messages_after));
  sim_.spawn(chat(*b.gc));
  sim_.run_for(milliseconds(500));
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->contains("m1"));
  ASSERT_EQ(messages_after.size(), 1u);
  EXPECT_EQ(messages_after[0], "hi");
}

TEST_F(GcClientTest, EventPayloadsOutliveTheirClient) {
  // Three deliveries taken in one read share that read's buffer. Their
  // payloads stay valid after the client, and with it the framer, is gone
  // (ASan would flag a window left pointing into freed framer memory).
  auto a = make_client("node1", "keeper");
  auto b = make_client("node2", "sender");
  std::vector<Event> kept;
  std::size_t pumped = 0;

  auto keep = [](net::Process& p, GcClient& gc, std::vector<Event>& out,
                 std::size_t& n) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    // Let every delivery land in the inbox, then take them in one read.
    if (!co_await p.sleep(milliseconds(100))) co_return;
    auto got = co_await gc.pump();
    if (!got) co_return;
    n = got.value();
    while (auto ev = gc.pop_buffered()) {
      if (ev->kind == Event::Kind::kMessage) out.push_back(std::move(*ev));
    }
  };
  auto send = [](net::Process& p, GcClient& gc) -> sim::Task<void> {
    if (!co_await p.sleep(milliseconds(20))) co_return;
    for (std::uint8_t i = 1; i <= 3; ++i) {
      (void)co_await gc.multicast("grp", Bytes(100u * i, i));
    }
  };
  sim_.spawn(keep(*a.proc, *a.gc, kept, pumped));
  sim_.spawn(send(*b.proc, *b.gc));
  sim_.run_for(milliseconds(300));
  a.gc.reset();
  EXPECT_GE(pumped, 3u);
  ASSERT_EQ(kept.size(), 3u);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(kept[i - 1].payload, Bytes(100u * i, i));
    EXPECT_EQ(kept[i - 1].sender, "sender");
  }
}

}  // namespace
}  // namespace mead::gc
