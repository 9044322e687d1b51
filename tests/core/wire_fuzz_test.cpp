// Deterministic wire fuzzing (ctest label: fuzz). For every MEAD control
// kind and every GC opcode, starting from a sample message: it round-trips,
// every truncation is rejected, and a fixed-seed stream of random byte
// mutations either decodes or is rejected — never an exception, a crash or
// (under ASan/UBSan) a sanitizer report. No libFuzzer needed: the codec is
// generic, so one harness covers every message type.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/mead_wire.h"
#include "gc/wire.h"

namespace mead {
namespace {

constexpr int kMutationsPerKind = 2'000;

giop::IOR sample_ior(const std::string& host) {
  return giop::IOR{"IDL:mead/TimeOfDay:1.0", net::Endpoint{host, 20001},
                   giop::ObjectKey::make_persistent("POA/obj")};
}

/// Applies 1-4 random byte edits at positions >= `from`: a random byte, or
/// (one time in four) a 0xFFFFFFFF run, the shape of a corrupt count.
Bytes mutate(Bytes wire, std::size_t from, std::mt19937_64& rng) {
  const std::size_t edits = 1 + rng() % 4;
  for (std::size_t e = 0; e < edits && wire.size() > from; ++e) {
    const std::size_t at = from + rng() % (wire.size() - from);
    if (rng() % 4 == 0) {
      for (std::size_t i = at; i < std::min(wire.size(), at + 4); ++i) {
        wire[i] = 0xFF;
      }
    } else {
      wire[at] = static_cast<std::uint8_t>(rng());
    }
  }
  return wire;
}

// ---- MEAD control payloads ----

std::vector<core::CtrlMsg> ctrl_samples() {
  using namespace core;
  const Announce a1{"replica/1", net::Endpoint{"node1", 20001},
                    sample_ior("node1")};
  const Announce a2{"replica/2", net::Endpoint{"node2", 20002},
                    sample_ior("node2")};
  ReadSet rs;
  rs.version = 5;
  rs.primary = "replica/1";
  rs.entries = {a1, a2};
  ReadSetDelta d;
  d.base_version = 4;
  d.version = 5;
  d.primary = "replica/1";
  d.removed = {"replica/3"};
  d.added = {a2};
  Listing listing;
  listing.entries = {a1, a2};
  CkptDelta ckpt;
  ckpt.member = "replica/2";
  ckpt.nonce = 9;
  ckpt.value_pad = 5;
  ckpt.checkpoint.epoch = 3;
  ckpt.checkpoint.base_epoch = 1;
  ckpt.checkpoint.applied = 77;
  ckpt.checkpoint.prev_digest = 0xABull;
  ckpt.checkpoint.digest = 0xCDull;
  ckpt.checkpoint.entries = {{1, 10}, {4, 40}, {9, 90}};
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 9;
  lr.applied = 80;
  lr.digest = 0xEFull;
  lr.entries = {78, 79, 80};
  AliveEpoch ae;
  ae.epoch = 2;
  ae.alive = {"node1", "node2"};
  ReplyCache rc;
  rc.member = "replica/1";
  rc.nonce = 3;
  rc.entries = {{0xAAull, 1}, {0xBBull, 2}};
  return {
      a1,
      listing,
      LaunchRequest{"replica/1", 0.8125},
      PrimaryQuery{"reply/client/1", 7},
      PrimaryAnswer{"replica/2", net::Endpoint{"node2", 20002}, 7},
      StateTransfer{"replica/1", 3, Bytes{1, 2, 3, 4, 5}},
      rs,
      NodeCrash{"node7"},
      LaunchFailed{"SvcB", 4},
      d,
      ckpt,
      CkptRequest{"replica/4", 0xFACEull, 6},
      lr,
      ReadSetNack{"SvcB", 17},
      ae,
      NodeJoin{"node51"},
      Retire{"SvcB", "replica/9"},
      UsageReport{"replica/1", 0.625, 1234},
      Handoff{"SvcB", "replica/1", "replica/4"},
      QuorumSet{rs, {"replica/2"}},
      CatchupDone{"SvcB", "replica/4"},
      rc,
  };
}

Bytes encode_any(const core::CtrlMsg& m) {
  return std::visit([](const auto& msg) { return core::encode_ctrl(msg); }, m);
}

TEST(WireFuzzTest, CoversEveryCtrlKind) {
  std::set<std::size_t> kinds;
  for (const auto& m : ctrl_samples()) kinds.insert(m.index());
  EXPECT_EQ(kinds.size(), std::variant_size_v<core::CtrlMsg>);
}

TEST(WireFuzzTest, CtrlRoundTrips) {
  for (const auto& m : ctrl_samples()) {
    const Bytes wire = encode_any(m);
    EXPECT_EQ(core::peek_ctrl_kind(wire), core::kind_of(m));
    const auto back = core::decode_ctrl(wire);
    ASSERT_TRUE(back.has_value()) << "kind " << m.index() + 1;
    EXPECT_TRUE(*back == m) << "kind " << m.index() + 1;
  }
}

TEST(WireFuzzTest, CtrlRejectsEveryTruncation) {
  for (const auto& m : ctrl_samples()) {
    const Bytes wire = encode_any(m);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const Bytes cut(wire.begin(),
                      wire.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(core::decode_ctrl(cut).has_value())
          << "kind " << m.index() + 1 << " len " << len;
    }
  }
}

TEST(WireFuzzTest, CtrlSurvivesRandomMutations) {
  std::mt19937_64 rng(2004);
  for (const auto& m : ctrl_samples()) {
    const Bytes wire = encode_any(m);
    int decoded = 0;
    try {
      for (int i = 0; i < kMutationsPerKind; ++i) {
        if (core::decode_ctrl(mutate(wire, 0, rng))) ++decoded;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "kind " << m.index() + 1 << " threw " << e.what();
    }
    // Some mutations only touch values (a digest, a character), so each
    // kind must also have survived intact at least once.
    EXPECT_GT(decoded, 0) << "kind " << m.index() + 1;
  }
}

// ---- GC frames ----

struct GcSample {
  gc::Op op;
  Bytes wire;
  /// Decodes the frame and re-encodes the result; nullopt if rejected.
  std::function<std::optional<Bytes>(const gc::Frame&)> reencode;
};

template <typename T>
GcSample gc_sample(const T& m, gc::Op op) {
  return {op, gc::encode(m, op),
          [op](const gc::Frame& f) -> std::optional<Bytes> {
            auto d = gc::decode<T>(f);
            if (!d) return std::nullopt;
            return gc::encode(d.value(), op);
          }};
}

template <typename T>
GcSample gc_sample(const T& m) {
  return gc_sample(m, T::kOp);
}

/// Rebuilds a batch from its decoded sub-frames (header + body each).
std::optional<Bytes> reencode_batch(const gc::Frame& f) {
  auto frames = gc::decode_frame_batch(f);
  if (!frames) return std::nullopt;
  Bytes payload;
  for (const gc::Frame& sub : frames.value()) {
    const auto len = static_cast<std::uint32_t>(sub.body().size() + 1);
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    payload.push_back(static_cast<std::uint8_t>(sub.op()));
    payload.insert(payload.end(), sub.body().begin(), sub.body().end());
  }
  return gc::wrap_frame_batch(payload);
}

std::vector<GcSample> gc_samples() {
  using namespace gc;
  OrderedMsg o;
  o.seq = 12;
  o.origin = 2;
  o.msg_id = 40;
  o.kind = PayloadKind::kJoin;
  o.group = "mead/TimeOfDay/replicas";
  o.member = "replica/node2/1";
  o.payload = Bytes{9, 8, 7};
  StateSyncMsg sync;
  sync.next_seq = 4096;
  GroupSnapshot snap;
  snap.group = "grp";
  snap.view_id = 9;
  snap.members = {"a", "bb"};
  snap.homes = {0, 2};
  sync.groups = {snap};
  sync.alive = {0, 1, 2};
  return {
      gc_sample(HelloMsg{"replica/node1/1"}),
      gc_sample(GroupMsg{"TimeOfDay"}, Op::kJoin),
      gc_sample(GroupMsg{"TimeOfDay"}, Op::kLeave),
      gc_sample(McastMsg{"grp", Bytes{1, 2, 3}}),
      gc_sample(DeliverMsg{"grp", "sender-1", 42, Bytes{4, 5}}),
      gc_sample(ViewMsg{"grp", 7, {"a", "bb", "ccc"}}),
      gc_sample(PeerHelloMsg{3}),
      gc_sample(o, Op::kSubmit),
      gc_sample(o, Op::kOrdered),
      gc_sample(HeartbeatMsg{4}),
      gc_sample(RejoinMsg{1, 2, 3, 4}),
      gc_sample(sync),
      gc_sample(BridgeMsg{5, true}),
      gc_sample(AliveSetMsg{{0, 2, 5}}),
      GcSample{Op::kFrameBatch,
               encode_frame_batch({encode(SeqWatermarkMsg{1, 77})}),
               reencode_batch},
      gc_sample(SeqWatermarkMsg{3, 12345}),
  };
}

TEST(WireFuzzTest, CoversEveryGcOp) {
  std::set<gc::Op> ops;
  for (const auto& s : gc_samples()) ops.insert(s.op);
  EXPECT_EQ(ops.size(), 16u);
}

TEST(WireFuzzTest, GcRoundTrips) {
  for (const auto& s : gc_samples()) {
    const gc::Frame frame(s.wire);
    EXPECT_EQ(frame.op(), s.op);
    EXPECT_EQ(s.reencode(frame), s.wire) << "op " << int(s.op);
  }
}

TEST(WireFuzzTest, GcRejectsEveryTruncation) {
  for (const auto& s : gc_samples()) {
    for (std::size_t len = gc::Frame::kHeaderSize; len < s.wire.size();
         ++len) {
      const gc::Frame cut(Bytes(
          s.wire.begin(), s.wire.begin() + static_cast<std::ptrdiff_t>(len)));
      EXPECT_FALSE(s.reencode(cut).has_value())
          << "op " << int(s.op) << " len " << len;
    }
  }
}

TEST(WireFuzzTest, GcSurvivesRandomMutations) {
  std::mt19937_64 rng(2004);
  for (const auto& s : gc_samples()) {
    int decoded = 0;
    try {
      for (int i = 0; i < kMutationsPerKind; ++i) {
        const gc::Frame frame(mutate(s.wire, gc::Frame::kHeaderSize, rng));
        if (s.reencode(frame)) ++decoded;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "op " << int(s.op) << " threw " << e.what();
    }
    EXPECT_GT(decoded, 0) << "op " << int(s.op);
  }
}

}  // namespace
}  // namespace mead
