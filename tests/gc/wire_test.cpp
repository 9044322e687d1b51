#include "gc/wire.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../fnv64.h"

namespace mead::gc {
namespace {

/// A kFrameBatch frame around an arbitrary (possibly malformed) body.
Frame batch_of(const Bytes& body) { return Frame(wrap_frame_batch(body)); }

TEST(GcWireTest, HelloRoundTrip) {
  LenFramer f;
  f.feed(encode(HelloMsg{"replica/node1/1"}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op(), Op::kHello);
  auto m = decode<HelloMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->name, "replica/node1/1");
}

TEST(GcWireTest, JoinLeaveRoundTrip) {
  LenFramer f;
  f.feed(encode(GroupMsg{"TimeOfDay-servers"}, Op::kJoin));
  f.feed(encode(GroupMsg{"TimeOfDay-servers"}, Op::kLeave));
  auto j = f.next();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->op(), Op::kJoin);
  EXPECT_EQ(decode<GroupMsg>(*j)->group, "TimeOfDay-servers");
  auto l = f.next();
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->op(), Op::kLeave);
}

TEST(GcWireTest, McastRoundTrip) {
  Bytes payload{9, 8, 7};
  LenFramer f;
  f.feed(encode(McastMsg{"g", payload}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode<McastMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->group, "g");
  EXPECT_EQ(m->payload, payload);
}

TEST(GcWireTest, DeliverRoundTrip) {
  LenFramer f;
  f.feed(encode(DeliverMsg{"g", "sender-1", 42, Bytes{1, 2}}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode<DeliverMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->sender, "sender-1");
  EXPECT_EQ(m->seq, 42u);
  EXPECT_EQ(m->payload, (Bytes{1, 2}));
}

TEST(GcWireTest, ViewRoundTrip) {
  LenFramer f;
  f.feed(encode(ViewMsg{"g", 7, {"a", "b", "c"}}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode<ViewMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->view_id, 7u);
  EXPECT_EQ(m->members, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(GcWireTest, EmptyViewRoundTrip) {
  LenFramer f;
  f.feed(encode(ViewMsg{"g", 1, {}}));
  auto m = decode<ViewMsg>(*f.next());
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->members.empty());
}

TEST(GcWireTest, OrderedRoundTrip) {
  OrderedMsg o;
  o.seq = 100;
  o.origin = 3;
  o.msg_id = 55;
  o.kind = PayloadKind::kJoin;
  o.group = "servers";
  o.member = "replica/2";
  o.payload = Bytes{0xFF};
  LenFramer f;
  f.feed(encode(o, Op::kOrdered));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op(), Op::kOrdered);
  auto m = decode<OrderedMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->seq, 100u);
  EXPECT_EQ(m->origin, 3u);
  EXPECT_EQ(m->msg_id, 55u);
  EXPECT_EQ(m->kind, PayloadKind::kJoin);
  EXPECT_EQ(m->group, "servers");
  EXPECT_EQ(m->member, "replica/2");
}

TEST(GcWireTest, SubmitUsesSubmitOpcode) {
  OrderedMsg o;
  o.group = "g";
  o.member = "m";
  LenFramer f;
  f.feed(encode(o, Op::kSubmit));
  EXPECT_EQ(f.next()->op(), Op::kSubmit);
}

TEST(GcWireTest, HeartbeatRoundTrip) {
  LenFramer f;
  f.feed(encode(HeartbeatMsg{4}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode<HeartbeatMsg>(*frame)->daemon_id, 4u);
}

TEST(GcWireTest, SeqWatermarkRoundTrip) {
  LenFramer f;
  f.feed(encode(SeqWatermarkMsg{3, 12345}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op(), Op::kSeqWatermark);
  auto m = decode<SeqWatermarkMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->daemon_id, 3u);
  EXPECT_EQ(m->next_seq, 12345u);
}

TEST(GcWireTest, SeqWatermarkRejectsTruncated) {
  Bytes whole = encode(SeqWatermarkMsg{1, 7});
  whole.resize(whole.size() - 1);  // body one byte short
  EXPECT_FALSE(decode<SeqWatermarkMsg>(Frame(whole)).ok());
}

TEST(FrameBatchTest, RoundTripIdentity) {
  const std::vector<Bytes> frames = {
      encode(HeartbeatMsg{2}),
      encode(
          [] {
            OrderedMsg o;
            o.group = "g";
            o.member = "m";
            o.payload = Bytes{1, 2, 3};
            return o;
          }(),
          Op::kSubmit),
      encode(SeqWatermarkMsg{0, 99}),
  };
  LenFramer f;
  f.feed(encode_frame_batch(frames));
  auto outer = f.next();
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->op(), Op::kFrameBatch);
  auto inner = decode_frame_batch(*outer);
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ(inner->size(), 3u);
  EXPECT_EQ((*inner)[0].op(), Op::kHeartbeat);
  EXPECT_EQ((*inner)[1].op(), Op::kSubmit);
  EXPECT_EQ((*inner)[2].op(), Op::kSeqWatermark);
  auto sub = decode<OrderedMsg>((*inner)[1]);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->group, "g");
  EXPECT_EQ(sub->payload, (Bytes{1, 2, 3}));
}

TEST(FrameBatchTest, EmptyBatchIsMalformed) {
  auto r = decode_frame_batch(batch_of(Bytes{}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kMalformed);
}

TEST(FrameBatchTest, TruncatedSubFrameRejected) {
  Bytes payload = encode(HeartbeatMsg{1});
  Bytes cut(payload.begin(), payload.end() - 2);
  auto r = decode_frame_batch(batch_of(cut));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kTruncated);
  // A dangling length prefix with no opcode byte is also truncation.
  Bytes dangling = payload;
  append_bytes(dangling, Bytes{5, 0, 0});
  r = decode_frame_batch(batch_of(dangling));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kTruncated);
}

TEST(FrameBatchTest, UnknownSubOpRejected) {
  Bytes payload = encode(HeartbeatMsg{1});
  append_bytes(payload, Bytes{1, 0, 0, 0, 99});  // len 1, opcode 99
  auto r = decode_frame_batch(batch_of(payload));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kUnknownOp);
}

TEST(FrameBatchTest, NestedBatchRejected) {
  const Bytes inner = encode_frame_batch({encode(HeartbeatMsg{1})});
  LenFramer f;
  f.feed(encode_frame_batch({inner}));
  auto outer = f.next();
  ASSERT_TRUE(outer.has_value());
  auto r = decode_frame_batch(*outer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kMalformed);
}

TEST(FrameBatchTest, MixedVersionStreamKeepsFraming) {
  // A batch in the middle of a stream of plain frames: the framer hands
  // each top-level frame over intact, old and new ops side by side.
  Bytes stream = encode(HeartbeatMsg{1});
  append_bytes(stream, encode_frame_batch({encode(HeartbeatMsg{2}),
                                           encode(HeartbeatMsg{3})}));
  append_bytes(stream, encode(SeqWatermarkMsg{1, 4}));
  LenFramer f;
  f.feed(stream);
  EXPECT_EQ(f.next()->op(), Op::kHeartbeat);
  auto batch = f.next();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->op(), Op::kFrameBatch);
  EXPECT_EQ(decode_frame_batch(*batch)->size(), 2u);
  EXPECT_EQ(f.next()->op(), Op::kSeqWatermark);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_FALSE(f.corrupt());
}

TEST(LenFramerTest, FragmentedFramesReassemble) {
  Bytes stream = encode(McastMsg{"group-a", Bytes(100, 1)});
  append_bytes(stream, encode(HeartbeatMsg{1}));
  for (int chunk : {1, 3, 7, 50}) {
    LenFramer f;
    int frames = 0;
    for (std::size_t i = 0; i < stream.size(); i += static_cast<std::size_t>(chunk)) {
      const auto end = std::min(stream.size(), i + static_cast<std::size_t>(chunk));
      f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(i),
                   stream.begin() + static_cast<std::ptrdiff_t>(end)));
      while (f.next().has_value()) ++frames;
    }
    EXPECT_EQ(frames, 2) << "chunk=" << chunk;
    EXPECT_EQ(f.buffered(), 0u);
  }
}

TEST(LenFramerTest, WholeBufferFrameIsAdopted) {
  // One frame filling the whole fed buffer: the framer hands that very
  // buffer to the frame instead of copying it.
  Bytes wire = encode(McastMsg{"g", Bytes(1000, 7)});
  const std::uint8_t* storage = wire.data();
  LenFramer f;
  f.feed(std::move(wire));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op(), Op::kMcast);
  EXPECT_EQ(frame->body().data(), storage + Frame::kHeaderSize);
  EXPECT_EQ(f.buffered(), 0u);
  auto m = decode<McastMsg>(*frame);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->payload, Bytes(1000, 7));
  EXPECT_FALSE(f.next().has_value());
}

TEST(LenFramerTest, LastFrameAfterConsumedPrefixIsAdopted) {
  // Two frames in one chunk: both are windows onto it, the second's body
  // offset past the consumed prefix.
  const Bytes first = encode(HeartbeatMsg{1});
  const Bytes second = encode(DeliverMsg{"g", "s", 9, Bytes{4, 5}});
  Bytes chunk = first;
  append_bytes(chunk, second);
  const std::uint8_t* storage = chunk.data();
  LenFramer f;
  f.feed(std::move(chunk));
  auto a = f.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->op(), Op::kHeartbeat);
  EXPECT_EQ(decode<HeartbeatMsg>(*a)->daemon_id, 1u);
  EXPECT_EQ(f.buffered(), second.size());
  auto b = f.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->op(), Op::kDeliver);
  EXPECT_EQ(b->body().data(), storage + first.size() + Frame::kHeaderSize);
  auto m = decode<DeliverMsg>(*b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->seq, 9u);
  EXPECT_EQ(m->payload, (Bytes{4, 5}));
  EXPECT_EQ(f.buffered(), 0u);
  EXPECT_FALSE(f.next().has_value());
}

TEST(LenFramerTest, FrameSplitAcrossTwoFeeds) {
  // The second feed completes a frame whose head is still buffered, and
  // also carries the head of the next one.
  Bytes stream = encode(ViewMsg{"g", 3, {"a", "b"}});
  const std::size_t first_len = stream.size();
  append_bytes(stream, encode(PeerHelloMsg{6}));
  const std::size_t cut = first_len / 2;
  const std::size_t cut2 = first_len + 3;
  LenFramer f;
  f.feed(Bytes(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(cut)));
  EXPECT_FALSE(f.next().has_value());
  EXPECT_EQ(f.buffered(), cut);
  f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(cut),
               stream.begin() + static_cast<std::ptrdiff_t>(cut2)));
  auto v = f.next();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->op(), Op::kView);
  EXPECT_EQ(decode<ViewMsg>(*v)->members, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(f.next().has_value());
  EXPECT_EQ(f.buffered(), 3u);
  f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(cut2), stream.end()));
  auto h = f.next();
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(decode<PeerHelloMsg>(*h)->daemon_id, 6u);
  EXPECT_EQ(f.buffered(), 0u);
  EXPECT_FALSE(f.corrupt());
}

TEST(LenFramerTest, TwoFramesInOneChunk) {
  Bytes chunk = encode(GroupMsg{"alpha"}, Op::kJoin);
  append_bytes(chunk, encode(GroupMsg{"beta"}, Op::kLeave));
  LenFramer f;
  f.feed(std::move(chunk));
  auto j = f.next();
  auto l = f.next();
  ASSERT_TRUE(j.has_value());
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(j->op(), Op::kJoin);
  EXPECT_EQ(decode<GroupMsg>(*j)->group, "alpha");
  EXPECT_EQ(l->op(), Op::kLeave);
  EXPECT_EQ(decode<GroupMsg>(*l)->group, "beta");
  EXPECT_FALSE(f.next().has_value());
  EXPECT_EQ(f.buffered(), 0u);
}

TEST(GcWireTest, DeliverFromOrderedMatchesDeliverMsg) {
  // The daemon's direct encode of a stamped message is the same frame the
  // client decodes as a DeliverMsg.
  const OrderedMsg o = [] {
    OrderedMsg m;
    m.seq = 81;
    m.group = "grp";
    m.member = "replica/1";
    m.payload = Bytes{1, 2, 3, 4, 5};
    return m;
  }();
  EXPECT_EQ(encode_deliver(o),
            encode(DeliverMsg{o.group, o.member, o.seq, o.payload}));
}

// ---- payloads decoded in place ----

/// True if `payload` is the last `payload.size()` bytes of `frame`'s body:
/// the decoder windowed the frame's buffer instead of copying.
bool ends_frame(const SharedBytes& payload, const Frame& frame) {
  return payload.data() + payload.size() ==
         frame.body().data() + frame.body().size();
}

TEST(GcPayloadWindowTest, DecodedPayloadPointsIntoItsFrame) {
  const Bytes payload(300, 5);
  OrderedMsg o;
  o.group = "g";
  o.member = "m";
  o.payload = payload;
  const Frame mcast(encode(McastMsg{"g", payload}));
  const Frame submit(encode(o, Op::kSubmit));
  const Frame ordered(encode(o, Op::kOrdered));
  const Frame deliver(encode(DeliverMsg{"g", "s", 3, payload}));
  auto m = decode<McastMsg>(mcast);
  auto s = decode<OrderedMsg>(submit);
  auto od = decode<OrderedMsg>(ordered);
  auto d = decode<DeliverMsg>(deliver);
  ASSERT_TRUE(m.ok() && s.ok() && od.ok() && d.ok());
  EXPECT_TRUE(ends_frame(m->payload, mcast));
  EXPECT_TRUE(ends_frame(s->payload, submit));
  EXPECT_TRUE(ends_frame(od->payload, ordered));
  EXPECT_TRUE(ends_frame(d->payload, deliver));
  for (const SharedBytes* p :
       {&m->payload, &s->payload, &od->payload, &d->payload}) {
    EXPECT_EQ(*p, payload);
  }
}

TEST(GcPayloadWindowTest, ChunkOfThreeFramesSplitsWithoutCopy) {
  const std::vector<Bytes> frames = {
      encode(DeliverMsg{"g", "a", 1, Bytes(40, 1)}),
      encode(HeartbeatMsg{7}),
      encode(DeliverMsg{"g", "b", 2, Bytes(90, 2)}),
  };
  Bytes chunk;
  for (const Bytes& f : frames) append_bytes(chunk, f);
  const std::uint8_t* storage = chunk.data();
  LenFramer f;
  f.feed(std::move(chunk));
  std::size_t offset = 0;
  for (const Bytes& expected : frames) {
    auto frame = f.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->body().data(), storage + offset + Frame::kHeaderSize);
    EXPECT_EQ(frame->body().size(), expected.size() - Frame::kHeaderSize);
    offset += expected.size();
  }
  EXPECT_FALSE(f.next().has_value());
  EXPECT_EQ(f.buffered(), 0u);
}

TEST(GcPayloadWindowTest, PayloadOutlivesFramerAndBatch) {
  // Three deliveries in one batch frame, itself fed in two pieces. Once
  // the framer, the batch frame and its sub-frames are gone, the decoded
  // payloads still hold the bytes (ASan would flag a dangling window).
  std::vector<SharedBytes> payloads;
  {
    const Bytes wire = encode_frame_batch(
        {encode(DeliverMsg{"g", "a", 1, Bytes(64, 0xA1)}),
         encode(DeliverMsg{"g", "b", 2, Bytes{}}),
         encode(DeliverMsg{"g", "c", 3, Bytes(700, 0xC3)})});
    LenFramer f;
    f.feed(Bytes(wire.begin(), wire.begin() + 9));
    EXPECT_FALSE(f.next().has_value());
    f.feed(Bytes(wire.begin() + 9, wire.end()));
    auto batch = f.next();
    ASSERT_TRUE(batch.has_value());
    auto subs = decode_frame_batch(*batch);
    ASSERT_TRUE(subs.ok());
    for (const Frame& sub : subs.value()) {
      auto m = decode<DeliverMsg>(sub);
      ASSERT_TRUE(m.ok());
      EXPECT_TRUE(ends_frame(m->payload, sub));
      payloads.push_back(m->payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], Bytes(64, 0xA1));
  EXPECT_TRUE(payloads[1].empty());
  EXPECT_EQ(payloads[2], Bytes(700, 0xC3));
}

TEST(LenFramerTest, BadOpcodePoisons) {
  LenFramer f;
  Bytes evil{1, 0, 0, 0, 99};  // len 1, opcode 99
  f.feed(evil);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_TRUE(f.corrupt());
}

TEST(LenFramerTest, InsaneLengthPoisons) {
  LenFramer f;
  Bytes evil{0xFF, 0xFF, 0xFF, 0x7F, 1};
  f.feed(evil);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_TRUE(f.corrupt());
}

TEST(LenFramerTest, MalformedPayloadRejectedByDecoder) {
  LenFramer f;
  Bytes evil{2, 0, 0, 0, static_cast<std::uint8_t>(Op::kDeliver), 0xAA};
  f.feed(evil);
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());  // framing fine...
  EXPECT_FALSE(decode<DeliverMsg>(*frame).ok());  // ...content is not
}

// ---- corrupt sequence counts ----
//
// A sequence count of 0xFFFFFFFF must be rejected on the bytes actually
// present, never turned into a ~4G-element reserve: std::bad_alloc would
// escape the daemon's frame handler and end the whole simulation.

/// `wire` with the u32 that ends `from_end` bytes before its end set to
/// 0xFFFFFFFF.
Bytes over_count(Bytes wire, std::size_t from_end) {
  const std::size_t at = wire.size() - from_end;
  for (std::size_t i = at; i < at + 4; ++i) wire[i] = 0xFF;
  return wire;
}

template <typename T>
void expect_rejected(const Bytes& wire) {
  EXPECT_NO_THROW(EXPECT_FALSE(decode<T>(Frame(wire)).ok()));
}

TEST(GcWireOverCountTest, ViewMembers) {
  expect_rejected<ViewMsg>(over_count(encode(ViewMsg{"g", 7, {}}), 4));
}

TEST(GcWireOverCountTest, StateSyncEverySequence) {
  StateSyncMsg m;
  m.next_seq = 9;
  // groups (8 bytes from the end), alive (4)
  expect_rejected<StateSyncMsg>(over_count(encode(m), 8));
  expect_rejected<StateSyncMsg>(over_count(encode(m), 4));
  // one snapshot: its members (12), its homes (8)
  GroupSnapshot snap;
  snap.group = "g";
  m.groups = {snap};
  expect_rejected<StateSyncMsg>(over_count(encode(m), 12));
  expect_rejected<StateSyncMsg>(over_count(encode(m), 8));
}

TEST(GcWireOverCountTest, AliveSet) {
  expect_rejected<AliveSetMsg>(over_count(encode(AliveSetMsg{{}}), 4));
}

// ---- byte stability ----
//
// FNV-64 digests of every encoder's output for fixed sample messages,
// taken from the field-by-field encoders that preceded the prefix writer.
// A digest change means a wire-format change, never a refactor.

OrderedMsg sample_ordered() {
  OrderedMsg o;
  o.seq = 0x0102030405ull;
  o.origin = 3;
  o.msg_id = 77;
  o.kind = PayloadKind::kData;
  o.group = "mead/TimeOfDay/ckpt";
  o.member = "replica/node2/1";
  Bytes payload;
  for (std::uint8_t i = 0; i < 23; ++i) payload.push_back(i);
  o.payload = std::move(payload);
  return o;
}

std::vector<std::pair<std::string, Bytes>> encoder_samples() {
  Bytes payload;
  for (std::uint8_t i = 0; i < 37; ++i) payload.push_back(static_cast<std::uint8_t>(i * 7));
  StateSyncMsg sync;
  sync.next_seq = 4096;
  GroupSnapshot snap;
  snap.group = "grp";
  snap.view_id = 9;
  snap.members = {"a", "bb", "ccc"};
  snap.homes = {0, 2, 1};
  sync.groups.push_back(snap);
  sync.groups.push_back(GroupSnapshot{});
  sync.alive = {0, 1, 2, 4};
  return {
      {"hello", encode(HelloMsg{"replica/node1/1"})},
      {"join", encode(GroupMsg{"TimeOfDay-servers"}, Op::kJoin)},
      {"leave", encode(GroupMsg{"g"}, Op::kLeave)},
      {"mcast", encode(McastMsg{"grp", payload})},
      {"deliver", encode(DeliverMsg{"grp", "sender-1", 42, payload})},
      {"view", encode(ViewMsg{"g", 7, {"a", "bb", "ccc"}})},
      {"peer_hello", encode(PeerHelloMsg{3})},
      {"submit", encode(sample_ordered(), Op::kSubmit)},
      {"ordered", encode(sample_ordered(), Op::kOrdered)},
      {"heartbeat", encode(HeartbeatMsg{4})},
      {"rejoin", encode(RejoinMsg{1, 2, 3, 4})},
      {"state_sync", encode(sync)},
      {"bridge", encode(BridgeMsg{5, true})},
      {"alive_set", encode(AliveSetMsg{{0, 2, 5}})},
      {"seq_watermark", encode(SeqWatermarkMsg{3, 12345})},
      {"frame_batch",
       encode_frame_batch({encode(HeartbeatMsg{2}),
                           encode(sample_ordered(), Op::kSubmit)})},
  };
}

TEST(GcWireDigestTest, EncoderOutputIsByteStable) {
  const std::map<std::string, std::uint64_t> expected = {
      {"hello", 0xfcc00a759021b649ull},
      {"join", 0xf40865381b04281dull},
      {"leave", 0x13647c7edcaf2cf0ull},
      {"mcast", 0x4152e0c28a5c5f41ull},
      {"deliver", 0x203985ec8de04b27ull},
      {"view", 0x351ed9e58419257full},
      {"peer_hello", 0xafd36d729612e979ull},
      {"submit", 0xe7edc30913a87941ull},
      {"ordered", 0x2cac8003aed458c2ull},
      {"heartbeat", 0xbf78c2f9e0aa1503ull},
      {"rejoin", 0xd649c9dda453b6eaull},
      {"state_sync", 0x30724b7e9427c32bull},
      {"bridge", 0x184cddc7f0baeb47ull},
      {"alive_set", 0x680ce6ed205da1dfull},
      {"seq_watermark", 0x82da24004cd4dc17ull},
      {"frame_batch", 0x7751d2517ae15d83ull},
  };
  for (const auto& [name, bytes] : encoder_samples()) {
    const std::uint64_t digest = test_util::fnv64(bytes);
    auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no digest for " << name << ": 0x" << std::hex << digest;
      continue;
    }
    EXPECT_EQ(digest, it->second) << name << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace mead::gc
