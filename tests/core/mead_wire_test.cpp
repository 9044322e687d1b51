#include "core/mead_wire.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "../fnv64.h"

namespace mead::core {
namespace {

giop::IOR test_ior(const std::string& host = "node1") {
  return giop::IOR{"IDL:mead/TimeOfDay:1.0", net::Endpoint{host, 20001},
                   giop::ObjectKey::make_persistent("POA/obj")};
}

TEST(FailoverFrameTest, RoundTrip) {
  const FailoverMsg msg{net::Endpoint{"node2", 20002}, "replica/2"};
  const Bytes frame = encode_failover_frame(msg);
  auto decoded = decode_failover_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(FailoverFrameTest, HeaderIsMeadMagic) {
  const Bytes frame =
      encode_failover_frame(FailoverMsg{net::Endpoint{"n", 1}, "m"});
  auto h = giop::decode_header(frame);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->magic, giop::Magic::kMead);
  EXPECT_EQ(h->body_size + giop::kHeaderSize, frame.size());
}

TEST(FailoverFrameTest, RejectsGiopFrame) {
  const Bytes giop_frame = giop::encode_reply(
      giop::ReplyMessage{1, giop::ReplyStatus::kNoException, {}});
  EXPECT_FALSE(decode_failover_frame(giop_frame).has_value());
}

TEST(FailoverFrameTest, RejectsTruncated) {
  Bytes frame = encode_failover_frame(FailoverMsg{net::Endpoint{"n", 1}, "m"});
  frame.resize(frame.size() - 3);
  EXPECT_FALSE(decode_failover_frame(frame).has_value());
}

TEST(FailoverFrameTest, SplitsCleanlyFromPiggybackedStream) {
  // The §4.3 wire pattern: MEAD frame immediately followed by a GIOP reply.
  Bytes stream =
      encode_failover_frame(FailoverMsg{net::Endpoint{"node3", 20003}, "r3"});
  append_bytes(stream, giop::encode_reply(giop::ReplyMessage{
                           9, giop::ReplyStatus::kNoException, {}}));
  giop::FrameBuffer fb;
  fb.feed(stream);
  auto first = fb.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.magic, giop::Magic::kMead);
  auto failover = decode_failover_frame(first->data);
  ASSERT_TRUE(failover.has_value());
  EXPECT_EQ(failover->target.port, 20003);
  auto second = fb.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.magic, giop::Magic::kGiop);
  EXPECT_EQ(giop::decode_reply(second->data)->request_id, 9u);
  EXPECT_FALSE(fb.next().has_value());
}

TEST(CtrlMsgTest, AnnounceRoundTrip) {
  const Announce a{"replica/1", net::Endpoint{"node1", 20001}, test_ior()};
  auto msg = decode_ctrl(encode_ctrl(a));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kAnnounce);
  ASSERT_TRUE(std::holds_alternative<Announce>(*msg));
  EXPECT_EQ(std::get<Announce>(*msg), a);
}

TEST(CtrlMsgTest, ListingRoundTrip) {
  Listing l;
  l.entries.push_back(Announce{"r1", net::Endpoint{"node1", 1}, test_ior("node1")});
  l.entries.push_back(Announce{"r2", net::Endpoint{"node2", 2}, test_ior("node2")});
  auto msg = decode_ctrl(encode_ctrl(l));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kListing);
  ASSERT_TRUE(std::holds_alternative<Listing>(*msg));
  EXPECT_EQ(std::get<Listing>(*msg), l);
}

TEST(CtrlMsgTest, EmptyListingRoundTrip) {
  auto msg = decode_ctrl(encode_ctrl(Listing{}));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::get<Listing>(*msg).entries.empty());
}

TEST(CtrlMsgTest, LaunchRequestRoundTrip) {
  const LaunchRequest req{"replica/3", 0.82};
  auto msg = decode_ctrl(encode_ctrl(req));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kLaunchRequest);
  EXPECT_EQ(std::get<LaunchRequest>(*msg), req);
}

TEST(CtrlMsgTest, PrimaryQueryAnswerRoundTrip) {
  const PrimaryQuery q{"#reply/client/1", 42};
  auto qm = decode_ctrl(encode_ctrl(q));
  ASSERT_TRUE(qm.has_value());
  EXPECT_EQ(std::get<PrimaryQuery>(*qm), q);

  const PrimaryAnswer a{"replica/2", net::Endpoint{"node2", 20002}, 42};
  auto am = decode_ctrl(encode_ctrl(a));
  ASSERT_TRUE(am.has_value());
  EXPECT_EQ(std::get<PrimaryAnswer>(*am), a);
  EXPECT_EQ(std::get<PrimaryAnswer>(*am).nonce, 42u);
}

TEST(CtrlMsgTest, StateTransferRoundTrip) {
  const StateTransfer st{"replica/1", 7, Bytes{1, 2, 3}};
  auto msg = decode_ctrl(encode_ctrl(st));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<StateTransfer>(*msg), st);
}

TEST(CtrlMsgTest, RejectsEmptyPayload) {
  EXPECT_FALSE(decode_ctrl(Bytes{}).has_value());
}

TEST(CtrlMsgTest, RejectsUnknownKind) {
  Bytes evil{99, 0, 0, 0};
  EXPECT_FALSE(decode_ctrl(evil).has_value());
}

TEST(CtrlMsgTest, RejectsTruncatedBody) {
  Bytes frame = encode_ctrl(
      Announce{"replica/1", net::Endpoint{"node1", 20001}, test_ior()});
  frame.resize(frame.size() / 2);
  EXPECT_FALSE(decode_ctrl(frame).has_value());
}

TEST(CtrlMsgTest, ReadSetRoundTrip) {
  ReadSet rs;
  rs.version = 4;
  rs.primary = "replica/1";
  rs.entries.push_back(Announce{"r1", net::Endpoint{"node1", 1}, test_ior("node1")});
  rs.entries.push_back(Announce{"r2", net::Endpoint{"node2", 2}, test_ior("node2")});
  auto msg = decode_ctrl(encode_ctrl(rs));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kReadSet);
  ASSERT_TRUE(std::holds_alternative<ReadSet>(*msg));
  EXPECT_EQ(std::get<ReadSet>(*msg), rs);
}

TEST(CtrlMsgTest, ReadSetDeltaRoundTrip) {
  ReadSetDelta d;
  d.base_version = 4;
  d.version = 5;
  d.primary = "replica/2";
  d.removed = {"replica/1", "replica/3"};
  d.added.push_back(Announce{"replica/4", net::Endpoint{"node4", 4},
                             test_ior("node4")});
  auto msg = decode_ctrl(encode_ctrl(d));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kReadSetDelta);
  ASSERT_TRUE(std::holds_alternative<ReadSetDelta>(*msg));
  EXPECT_EQ(std::get<ReadSetDelta>(*msg), d);
}

TEST(CtrlMsgTest, EmptyReadSetDeltaRoundTrip) {
  // A version bump that removes and adds nothing (primary-only change)
  // still travels.
  ReadSetDelta d;
  d.base_version = 1;
  d.version = 2;
  d.primary = "replica/2";
  auto msg = decode_ctrl(encode_ctrl(d));
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(std::holds_alternative<ReadSetDelta>(*msg));
  EXPECT_TRUE(std::get<ReadSetDelta>(*msg).removed.empty());
  EXPECT_TRUE(std::get<ReadSetDelta>(*msg).added.empty());
  EXPECT_EQ(std::get<ReadSetDelta>(*msg).primary, "replica/2");
}

TEST(CtrlMsgTest, RejectsTruncatedReadSetDelta) {
  ReadSetDelta d;
  d.base_version = 1;
  d.version = 2;
  d.primary = "replica/2";
  d.added.push_back(Announce{"replica/4", net::Endpoint{"node4", 4},
                             test_ior("node4")});
  Bytes frame = encode_ctrl(d);
  for (std::size_t cut : {std::size_t{1}, frame.size() / 2}) {
    Bytes t(frame.begin(), frame.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_ctrl(t).has_value()) << "cut=" << cut;
  }
}

TEST(CtrlMsgTest, CkptDeltaRoundTrip) {
  CkptDelta c;
  c.member = "replica/2";
  c.nonce = 0;  // periodic push
  c.checkpoint.epoch = 7;
  c.checkpoint.base_epoch = 5;
  c.checkpoint.is_base = false;
  c.checkpoint.applied = 420;
  c.checkpoint.prev_digest = 0xDEADBEEFull;
  c.checkpoint.digest = 0xFEEDFACEull;
  c.value_pad = 32;
  c.checkpoint.entries = {{3, 111}, {9, 222}, {14, 333}};
  auto msg = decode_ctrl(encode_ctrl(c));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kCkptDelta);
  ASSERT_TRUE(std::holds_alternative<CkptDelta>(*msg));
  EXPECT_EQ(std::get<CkptDelta>(*msg), c);
}

TEST(CtrlMsgTest, CkptBaseWithNonceRoundTrip) {
  // A directed base snapshot answering a restore request.
  CkptDelta c;
  c.member = "replica/1";
  c.nonce = 0x1234ABCDull;
  c.checkpoint.epoch = 5;
  c.checkpoint.base_epoch = 5;
  c.checkpoint.is_base = true;
  c.checkpoint.applied = 400;
  c.checkpoint.digest = 42;
  c.checkpoint.entries = {{0, 1}, {1, 2}};
  auto msg = decode_ctrl(encode_ctrl(c));
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(std::holds_alternative<CkptDelta>(*msg));
  EXPECT_TRUE(std::get<CkptDelta>(*msg).checkpoint.is_base);
  EXPECT_EQ(std::get<CkptDelta>(*msg).nonce, c.nonce);
  EXPECT_EQ(std::get<CkptDelta>(*msg), c);
}

TEST(CtrlMsgTest, CkptRequestRoundTrip) {
  const CkptRequest req{"replica/4", 0xFACEull, 6};
  auto msg = decode_ctrl(encode_ctrl(req));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kCkptRequest);
  ASSERT_TRUE(std::holds_alternative<CkptRequest>(*msg));
  EXPECT_EQ(std::get<CkptRequest>(*msg), req);
}

TEST(CtrlMsgTest, LogReplayRoundTrip) {
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 99;
  lr.applied = 450;
  lr.digest = 0xABCDull;
  lr.entries = {441, 442, 443, 444, 445, 446, 447, 448, 449, 450};
  auto msg = decode_ctrl(encode_ctrl(lr));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kLogReplay);
  ASSERT_TRUE(std::holds_alternative<LogReplay>(*msg));
  EXPECT_EQ(std::get<LogReplay>(*msg), lr);
}

TEST(CtrlMsgTest, EmptyLogReplayRoundTrip) {
  // A primary whose log is empty (checkpoint just truncated it) still
  // closes the handshake with an empty suffix.
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 7;
  lr.applied = 100;
  lr.digest = 11;
  auto msg = decode_ctrl(encode_ctrl(lr));
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(std::holds_alternative<LogReplay>(*msg));
  EXPECT_TRUE(std::get<LogReplay>(*msg).entries.empty());
  EXPECT_EQ(std::get<LogReplay>(*msg), lr);
}

TEST(CtrlMsgTest, ReadSetNackRoundTrip) {
  const ReadSetNack nack{"SvcB", 17};
  auto msg = decode_ctrl(encode_ctrl(nack));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(kind_of(*msg), CtrlKind::kReadSetNack);
  ASSERT_TRUE(std::holds_alternative<ReadSetNack>(*msg));
  EXPECT_EQ(std::get<ReadSetNack>(*msg), nack);
}

TEST(CtrlMsgTest, RejectsTruncatedStateFrames) {
  CkptDelta c;
  c.member = "replica/2";
  c.checkpoint.epoch = 1;
  c.checkpoint.base_epoch = 1;
  c.checkpoint.is_base = true;
  c.checkpoint.entries = {{0, 5}, {1, 6}};
  LogReplay lr;
  lr.member = "replica/1";
  lr.entries = {1, 2, 3};
  for (const Bytes& frame :
       {encode_ctrl(c), encode_ctrl(CkptRequest{"r", 1, 0}),
        encode_ctrl(lr), encode_ctrl(ReadSetNack{"s", 2})}) {
    for (std::size_t cut : {std::size_t{1}, frame.size() / 2}) {
      Bytes t(frame.begin(), frame.end() - static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decode_ctrl(t).has_value()) << "cut=" << cut;
    }
  }
}

// ---- byte stability ----
//
// FNV-64 digests of every encoder's output for fixed sample messages,
// taken from the field-by-field encoders that preceded the prefix writer.
// A digest change means a wire-format change, never a refactor.

CkptDelta sample_ckpt(bool base, std::uint32_t pad) {
  CkptDelta c;
  c.member = "replica/node3/2";
  c.nonce = base ? 0x1234ABCDull : 0;
  c.checkpoint.epoch = base ? 9 : 12;
  c.checkpoint.base_epoch = 9;
  c.checkpoint.is_base = base;
  c.checkpoint.applied = 4321;
  c.checkpoint.prev_digest = base ? 0 : 0xDEADBEEFull;
  c.checkpoint.digest = 0xFEEDFACECAFEull;
  c.value_pad = pad;
  for (std::uint32_t k = 0; k < 11; ++k) {
    c.checkpoint.entries.emplace_back(k * 3 + 1, 0x0101010101ull * k);
  }
  return c;
}

std::vector<std::pair<std::string, Bytes>> encoder_samples() {
  const Announce a1{"replica/1", net::Endpoint{"node1", 20001}, test_ior()};
  const Announce a2{"replica/22", net::Endpoint{"node22", 20022},
                    test_ior("node22")};
  ReadSet rs;
  rs.version = 5;
  rs.primary = "replica/1";
  rs.entries = {a1, a2};
  const QuorumSet qs{rs, {"replica/22"}};
  ReadSetDelta d;
  d.base_version = 4;
  d.version = 5;
  d.primary = "replica/1";
  d.removed = {"replica/3"};
  d.added = {a2};
  Listing listing;
  listing.entries = {a1, a2};
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 99;
  lr.applied = 450;
  lr.digest = 0xABCDull;
  lr.entries = {441, 442, 443, 450};
  AliveEpoch ae;
  ae.epoch = 3;
  ae.alive = {"node1", "node12", "node2"};
  ReplyCache rc;
  rc.member = "replica/1";
  rc.nonce = 17;
  rc.entries = {{0xAAull, 1}, {0xBBull, 2}, {0xAAull, 3}};
  return {
      {"failover", encode_failover_frame(
                       FailoverMsg{net::Endpoint{"node2", 20002}, "r/2"})},
      {"announce", encode_ctrl(a1)},
      {"read_set", encode_ctrl(rs)},
      {"read_set_delta", encode_ctrl(d)},
      {"listing", encode_ctrl(listing)},
      {"launch_request", encode_ctrl(LaunchRequest{"replica/1", 0.8125})},
      {"primary_query", encode_ctrl(PrimaryQuery{"reply/client/1", 7})},
      {"primary_answer", encode_ctrl(PrimaryAnswer{
                             "replica/2", net::Endpoint{"node2", 20002}, 7})},
      {"state", encode_ctrl(StateTransfer{"replica/1", 3, Bytes{1, 2, 3, 4, 5}})},
      {"node_crash", encode_ctrl(NodeCrash{"node7"})},
      {"launch_failed", encode_ctrl(LaunchFailed{"SvcB", 4})},
      {"ckpt_delta", encode_ctrl(sample_ckpt(false, 32))},
      {"ckpt_base", encode_ctrl(sample_ckpt(true, 0))},
      {"ckpt_odd_pad", encode_ctrl(sample_ckpt(false, 5))},
      {"ckpt_request", encode_ctrl(CkptRequest{"replica/4", 0xFACEull, 6})},
      {"log_replay", encode_ctrl(lr)},
      {"read_set_nack", encode_ctrl(ReadSetNack{"SvcB", 17})},
      {"alive_epoch", encode_ctrl(ae)},
      {"node_join", encode_ctrl(NodeJoin{"node51"})},
      {"retire", encode_ctrl(Retire{"SvcB", "replica/9"})},
      {"usage_report", encode_ctrl(UsageReport{"replica/1", 0.625, 1234})},
      {"handoff", encode_ctrl(Handoff{"SvcB", "replica/1", "replica/4"})},
      {"quorum_set", encode_ctrl(qs)},
      {"catchup_done", encode_ctrl(CatchupDone{"SvcB", "replica/4"})},
      {"reply_cache", encode_ctrl(rc)},
  };
}

TEST(CtrlMsgTest, CkptDeltaTruncatedAtEveryByteIsRejected) {
  const Bytes frame = encode_ctrl(sample_ckpt(false, 32));
  ASSERT_TRUE(decode_ctrl(frame).has_value());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_ctrl(cut).has_value()) << "len=" << len;
  }
}

TEST(CtrlMsgTest, CkptDeltaHugeEntryCountIsRejectedWithoutReserving) {
  // A corrupt entry count must fail on the bytes actually present, not
  // try to reserve ~4G entries first.
  CkptDelta c = sample_ckpt(true, 0);
  c.checkpoint.entries.clear();
  Bytes frame = encode_ctrl(c);
  ASSERT_GE(frame.size(), 4u);
  for (std::size_t i = frame.size() - 4; i < frame.size(); ++i) frame[i] = 0xFF;
  EXPECT_FALSE(decode_ctrl(frame).has_value());
}

TEST(CtrlMsgTest, CkptDeltaRejectsNonBooleanIsBase) {
  // is_base travels as one byte and, like kBridge's `on`, must be 0 or 1.
  CkptDelta c = sample_ckpt(true, 0);
  const Bytes base = encode_ctrl(c);
  c.checkpoint.is_base = false;
  Bytes bad = encode_ctrl(c);
  std::size_t at = 0;
  while (at < bad.size() && bad[at] == base[at]) ++at;
  ASSERT_LT(at, bad.size());
  bad[at] = 2;
  EXPECT_FALSE(decode_ctrl(bad).has_value());
}

TEST(CtrlMsgTest, PeekKind) {
  EXPECT_FALSE(peek_ctrl_kind(Bytes{}).has_value());
  EXPECT_EQ(peek_ctrl_kind(encode_ctrl(sample_ckpt(true, 0))),
            CtrlKind::kCkptDelta);
  EXPECT_EQ(peek_ctrl_kind(encode_ctrl(NodeJoin{"n"})), CtrlKind::kNodeJoin);
}

TEST(CtrlMsgTest, CkptFromStoredCheckpointMatchesCkptDelta) {
  // The sender encodes straight from its stored checkpoint; the bytes are
  // those of the equivalent CkptDelta message.
  const CkptDelta c = sample_ckpt(false, 32);
  EXPECT_EQ(encode_ckpt_delta(c.member, c.nonce, c.value_pad, c.checkpoint),
            encode_ctrl(c));
}

// ---- bulk checkpoint entries ----
//
// The entry region is laid out once and written/read with one store/load
// per field. These cases pin it against a per-field reference encoder that
// writes every key, value and pad with its own CDR call, in both byte
// orders. value_pad 0..9 and 31..33 start the entries after the first at
// every residue mod 8. The member name lengths move the end of the string
// through every residue; the u64 header fields that follow realign the
// stream, so the first entry itself always starts 8-aligned.

/// The CkptDelta body written one CDR call at a time.
Bytes reference_ckpt_body(const CkptDelta& c, giop::ByteOrder order) {
  const state::Checkpoint& k = c.checkpoint;
  giop::CdrWriter w(order);
  w.write_string(c.member);
  w.write_u64(c.nonce);
  w.write_u64(k.epoch);
  w.write_u64(k.base_epoch);
  w.write_bool(k.is_base);
  w.write_u64(k.applied);
  w.write_u64(k.prev_digest);
  w.write_u64(k.digest);
  w.write_u32(c.value_pad);
  w.write_u32(static_cast<std::uint32_t>(k.entries.size()));
  const Bytes pad(c.value_pad, 0);
  for (const auto& [key, value] : k.entries) {
    w.write_u32(key);
    w.write_u64(value);
    w.write_raw(pad);
  }
  return w.take();
}

Bytes ckpt_body(const CkptDelta& c, giop::ByteOrder order) {
  giop::CdrWriter w(order);
  giop::encode(w, c);
  return w.take();
}

bool decode_ckpt_body(const Bytes& body, giop::ByteOrder order,
                      CkptDelta& out) {
  giop::CdrReader r(body, order);
  return giop::decode(r, out) && r.remaining() == 0;
}

struct BulkCase {
  CkptDelta msg;
  giop::ByteOrder order;
};

std::vector<BulkCase> bulk_cases() {
  std::vector<BulkCase> out;
  for (std::uint32_t pad : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 31u, 32u,
                            33u}) {
    for (std::size_t len = 0; len < 8; ++len) {
      for (auto order :
           {giop::ByteOrder::kLittleEndian, giop::ByteOrder::kBigEndian}) {
        CkptDelta c = sample_ckpt(len % 2 == 0, pad);
        c.member = std::string(len, 'm');
        c.checkpoint.entries.clear();
        for (std::uint32_t i = 0; i < 5; ++i) {
          // Distinct bytes in every field, so a missed swap shows.
          c.checkpoint.entries.emplace_back(0x01020304u * (i + 1),
                                            0x0102030405060708ull * (i + 1));
        }
        out.push_back({std::move(c), order});
      }
    }
  }
  return out;
}

/// Where the entry region starts: the size of the body without entries.
std::size_t entry_region_begin(const BulkCase& bc) {
  CkptDelta empty = bc.msg;
  empty.checkpoint.entries.clear();
  return reference_ckpt_body(empty, bc.order).size();
}

std::string describe(const BulkCase& bc) {
  return "pad=" + std::to_string(bc.msg.value_pad) +
         " member_len=" + std::to_string(bc.msg.member.size()) +
         (bc.order == giop::ByteOrder::kBigEndian ? " BE" : " LE");
}

TEST(CkptBulkCodecTest, BytesMatchPerFieldReference) {
  for (const BulkCase& bc : bulk_cases()) {
    EXPECT_EQ(ckpt_body(bc.msg, bc.order),
              reference_ckpt_body(bc.msg, bc.order))
        << describe(bc);
  }
}

TEST(CkptBulkCodecTest, ControlPayloadIsKindByteThenBody) {
  for (const BulkCase& bc : bulk_cases()) {
    if (bc.order != giop::ByteOrder::kLittleEndian) continue;
    Bytes expected{static_cast<std::uint8_t>(CtrlKind::kCkptDelta)};
    append_bytes(expected, reference_ckpt_body(bc.msg, bc.order));
    EXPECT_EQ(encode_ctrl(bc.msg), expected) << describe(bc);
    EXPECT_EQ(encode_ckpt_delta(bc.msg.member, bc.msg.nonce,
                                bc.msg.value_pad, bc.msg.checkpoint),
              expected)
        << describe(bc);
  }
}

TEST(CkptBulkCodecTest, RoundTrips) {
  for (const BulkCase& bc : bulk_cases()) {
    CkptDelta back;
    ASSERT_TRUE(decode_ckpt_body(ckpt_body(bc.msg, bc.order), bc.order, back))
        << describe(bc);
    EXPECT_EQ(back, bc.msg) << describe(bc);
  }
}

TEST(CkptBulkCodecTest, EveryTruncationInsideEntriesIsRejected) {
  for (const BulkCase& bc : bulk_cases()) {
    const Bytes body = ckpt_body(bc.msg, bc.order);
    for (std::size_t len = entry_region_begin(bc); len < body.size(); ++len) {
      const Bytes cut(body.begin(),
                      body.begin() + static_cast<std::ptrdiff_t>(len));
      CkptDelta back;
      giop::CdrReader r(cut, bc.order);
      EXPECT_FALSE(giop::decode(r, back)) << describe(bc) << " len=" << len;
    }
  }
}

TEST(CkptBulkCodecTest, CountOneOverTheFrameIsRejectedWithoutReserving) {
  for (const BulkCase& bc : bulk_cases()) {
    Bytes body = ckpt_body(bc.msg, bc.order);
    const auto n = static_cast<std::uint32_t>(bc.msg.checkpoint.entries.size());
    giop::store_int(body.data() + entry_region_begin(bc) - 4, n + 1,
                    bc.order);
    CkptDelta back;
    giop::CdrReader r(body, bc.order);
    EXPECT_FALSE(giop::decode(r, back)) << describe(bc);
    EXPECT_EQ(back.checkpoint.entries.capacity(), 0u) << describe(bc);
  }
}

// ---- corrupt sequence counts ----
//
// A sequence count of 0xFFFFFFFF must be rejected on the bytes actually
// present, never turned into a ~4G-element reserve (std::bad_alloc).

/// `frame` with the u32 that ends `from_end` bytes before its end set to
/// 0xFFFFFFFF.
Bytes over_count(Bytes frame, std::size_t from_end) {
  const std::size_t at = frame.size() - from_end;
  for (std::size_t i = at; i < at + 4; ++i) frame[i] = 0xFF;
  return frame;
}

void expect_rejected(const Bytes& frame) {
  EXPECT_NO_THROW(EXPECT_FALSE(decode_ctrl(frame).has_value()));
}

TEST(CtrlOverCountTest, Listing) {
  expect_rejected(over_count(encode_ctrl(Listing{}), 4));
}

TEST(CtrlOverCountTest, ReadSet) {
  expect_rejected(over_count(encode_ctrl(ReadSet{}), 4));
}

TEST(CtrlOverCountTest, ReadSetDeltaRemovedAndAdded) {
  const Bytes frame = encode_ctrl(ReadSetDelta{});
  expect_rejected(over_count(frame, 8));  // removed
  expect_rejected(over_count(frame, 4));  // added
}

TEST(CtrlOverCountTest, LogReplay) {
  expect_rejected(over_count(encode_ctrl(LogReplay{}), 4));
}

TEST(CtrlOverCountTest, AliveEpoch) {
  expect_rejected(over_count(encode_ctrl(AliveEpoch{}), 4));
}

TEST(CtrlOverCountTest, QuorumSetEntriesAndCatchingUp) {
  const Bytes frame = encode_ctrl(QuorumSet{});
  expect_rejected(over_count(frame, 8));  // entries
  expect_rejected(over_count(frame, 4));  // catching_up
}

TEST(CtrlOverCountTest, ReplyCache) {
  expect_rejected(over_count(encode_ctrl(ReplyCache{}), 4));
}

TEST(CtrlDigestTest, EncoderOutputIsByteStable) {
  const std::map<std::string, std::uint64_t> expected = {
      {"failover", 0x5c3235b8b52dc50full},
      {"announce", 0xb97e06a227b5836aull},
      {"read_set", 0x351d59d0b07b0f96ull},
      {"read_set_delta", 0xb0785a6b9edbdfbbull},
      {"listing", 0x2628c5e3e6f7b576ull},
      {"launch_request", 0x43ef292ef5815c29ull},
      {"primary_query", 0xa1a9eb60409b0dcfull},
      {"primary_answer", 0x95a7a61d44d33264ull},
      {"state", 0xc6c190e3f40b042eull},
      {"node_crash", 0x936cb1a1735782d0ull},
      {"launch_failed", 0x2ff8ca260acee3ffull},
      {"ckpt_delta", 0x1cb86b8835105862ull},
      {"ckpt_base", 0xa82047af58548192ull},
      {"ckpt_odd_pad", 0x118c8d2c4410989dull},
      {"ckpt_request", 0x879e604b9d121e34ull},
      {"log_replay", 0x022ab549c2eb6d20ull},
      {"read_set_nack", 0x69fc554e823b7f73ull},
      {"alive_epoch", 0x62222e796e42bafbull},
      {"node_join", 0x12ebb70a743d758cull},
      {"retire", 0x85d20495f9cc90d5ull},
      {"usage_report", 0x3f05deff7286719aull},
      {"handoff", 0x952cbfbe551de97cull},
      {"quorum_set", 0xca98f5c6d746c04cull},
      {"catchup_done", 0x5384e6d637d39facull},
      {"reply_cache", 0x21bc1b81bd4bb6e0ull},
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
}  // namespace mead::core
