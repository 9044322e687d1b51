// Wire protocol of the group-communication system (the Spread substitute):
// CDR-encoded, length-prefixed frames exchanged client<->daemon and
// daemon<->daemon.
//
// Frame layout: u32 little-endian total length (excluding itself), u8 opcode,
// CDR payload. A dedicated framer (LenFramer) reassembles frames from the
// byte stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/expected.h"
#include "common/shared_bytes.h"
#include "common/types.h"
#include "giop/cdr.h"
#include "giop/codec.h"

namespace mead::gc {

enum class Op : std::uint8_t {
  // client -> daemon
  kHello = 1,   // member name announces itself
  kJoin = 2,    // join a group
  kLeave = 3,   // leave a group
  kMcast = 4,   // totally-ordered multicast to a group
  // daemon -> client
  kDeliver = 10,  // ordered message delivery
  kView = 11,     // membership change notification
  // daemon <-> daemon (mesh)
  kPeerHello = 20,  // daemon id handshake
  kSubmit = 21,     // forward a message to the sequencer for ordering
  kOrdered = 22,    // sequencer-stamped message, broadcast to all daemons
  kHeartbeat = 23,  // liveness beacon (also the Figure-5 background traffic)
  kRejoin = 24,     // expelled daemon (or healed peer) asks to merge worlds
  kStateSync = 25,  // authority's group-state snapshot for a rejoiner
  kBridge = 26,     // ask a linked peer to relay ordered traffic to us
  kAliveSet = 27,   // merged alive-daemon set, gossiped after arbitration
  // scaled GC plane (sharded sequencers / batched mesh traffic)
  kFrameBatch = 28,    // several mesh frames coalesced into one wire write
  kSeqWatermark = 29,  // periodic stamping-counter beacon (takeover floor)
};

/// What a Submit/Ordered payload represents.
enum class PayloadKind : std::uint8_t {
  kData = 0,   // application multicast
  kJoin = 1,   // membership: member joined group
  kLeave = 2,  // membership: member left group (or died)
};
/// Largest valid PayloadKind byte (giop/codec.h rejects anything above).
constexpr PayloadKind codec_max(PayloadKind) { return PayloadKind::kLeave; }

struct HelloMsg {
  HelloMsg() = default;
  explicit HelloMsg(std::string n) : name(std::move(n)) {}
  std::string name;
  static constexpr Op kOp = Op::kHello;
  static constexpr auto kFields = std::tuple{&HelloMsg::name};
};

struct GroupMsg {  // kJoin / kLeave (client side): encode(m, op)
  GroupMsg() = default;
  explicit GroupMsg(std::string g) : group(std::move(g)) {}
  std::string group;
  static constexpr auto kFields = std::tuple{&GroupMsg::group};
};

// Payloads are SharedBytes: a decoded payload is a window onto the buffer
// of the frame it arrived in, and moving it from message to message (a
// Mcast into an OrderedMsg, a Deliver into an Event) copies no bytes.

struct McastMsg {
  McastMsg() = default;
  McastMsg(std::string g, SharedBytes p)
      : group(std::move(g)), payload(std::move(p)) {}
  std::string group;
  SharedBytes payload;
  static constexpr Op kOp = Op::kMcast;
  static constexpr auto kFields =
      std::tuple{&McastMsg::group, &McastMsg::payload};
};

struct DeliverMsg {
  DeliverMsg() = default;
  DeliverMsg(std::string g, std::string s, std::uint64_t q, SharedBytes p)
      : group(std::move(g)), sender(std::move(s)), seq(q), payload(std::move(p)) {}
  std::string group;
  std::string sender;
  std::uint64_t seq = 0;
  SharedBytes payload;
  static constexpr Op kOp = Op::kDeliver;
  static constexpr auto kFields =
      std::tuple{&DeliverMsg::group, &DeliverMsg::sender, &DeliverMsg::seq,
                 &DeliverMsg::payload};
};

struct ViewMsg {
  ViewMsg() = default;
  ViewMsg(std::string g, std::uint64_t id, std::vector<std::string> m)
      : group(std::move(g)), view_id(id), members(std::move(m)) {}
  std::string group;
  std::uint64_t view_id = 0;
  std::vector<std::string> members;  // in join order ("first member" rule)
  static constexpr Op kOp = Op::kView;
  static constexpr auto kFields =
      std::tuple{&ViewMsg::group, &ViewMsg::view_id, &ViewMsg::members};
};

struct PeerHelloMsg {
  PeerHelloMsg() = default;
  explicit PeerHelloMsg(std::uint64_t id) : daemon_id(id) {}
  std::uint64_t daemon_id = 0;
  static constexpr Op kOp = Op::kPeerHello;
  static constexpr auto kFields = std::tuple{&PeerHelloMsg::daemon_id};
};

/// A message en route to / stamped by the sequencer: encode(m, kSubmit) or
/// encode(m, kOrdered).
struct OrderedMsg {
  OrderedMsg() = default;

  std::uint64_t seq = 0;        // 0 until stamped
  std::uint64_t origin = 0;     // submitting daemon id
  std::uint64_t msg_id = 0;     // per-origin id, for at-least-once dedupe
  PayloadKind kind = PayloadKind::kData;
  std::string group;
  std::string member;  // sender (kData) or subject member (kJoin/kLeave)
  SharedBytes payload;
  static constexpr auto kFields =
      std::tuple{&OrderedMsg::seq, &OrderedMsg::origin, &OrderedMsg::msg_id,
                 &OrderedMsg::kind, &OrderedMsg::group, &OrderedMsg::member,
                 &OrderedMsg::payload};
};

struct HeartbeatMsg {
  HeartbeatMsg() = default;
  explicit HeartbeatMsg(std::uint64_t id) : daemon_id(id) {}
  std::uint64_t daemon_id = 0;
  static constexpr Op kOp = Op::kHeartbeat;
  static constexpr auto kFields = std::tuple{&HeartbeatMsg::daemon_id};
};

/// A daemon re-establishing contact after a partition heal announces enough
/// of its world-view that the two sides can agree which one is
/// authoritative (larger alive set; ties to the lower sequencer id).
struct RejoinMsg {
  RejoinMsg() = default;
  RejoinMsg(std::uint64_t d, std::uint64_t n, std::uint64_t a, std::uint64_t s)
      : daemon_id(d), next_seq(n), alive_count(a), sequencer_id(s) {}

  std::uint64_t daemon_id = 0;
  std::uint64_t next_seq = 0;      // sender's sequencing counter
  std::uint64_t alive_count = 0;   // size of the sender's alive set
  std::uint64_t sequencer_id = 0;  // who the sender believes sequences
  static constexpr Op kOp = Op::kRejoin;
  static constexpr auto kFields =
      std::tuple{&RejoinMsg::daemon_id, &RejoinMsg::next_seq,
                 &RejoinMsg::alive_count, &RejoinMsg::sequencer_id};
};

/// One group's membership as the authority sees it. `homes` is parallel to
/// `members`: the daemon id each member is homed on.
struct GroupSnapshot {
  GroupSnapshot() = default;

  std::string group;
  std::uint64_t view_id = 0;
  std::vector<std::string> members;  // join order
  std::vector<std::uint64_t> homes;  // parallel to members
  static constexpr auto kFields =
      std::tuple{&GroupSnapshot::group, &GroupSnapshot::view_id,
                 &GroupSnapshot::members, &GroupSnapshot::homes};
};

/// The authority's full group-state snapshot, sent in reply to a Rejoin the
/// authority won. The rejoiner adopts it wholesale and re-submits its local
/// clients' joins on top.
struct StateSyncMsg {
  StateSyncMsg() = default;

  std::uint64_t next_seq = 0;  // authority's counter at snapshot time
  std::vector<GroupSnapshot> groups;
  /// The authority's alive-daemon set. A rejoiner that adopts the snapshot
  /// but lacks a link to one of these daemons (a 3+-way split healed only
  /// partially) knows the merged mesh extends past its own links, and asks
  /// its connected peers to bridge ordered traffic until the link heals.
  std::vector<std::uint64_t> alive;
  static constexpr Op kOp = Op::kStateSync;
  static constexpr auto kFields =
      std::tuple{&StateSyncMsg::next_seq, &StateSyncMsg::groups,
                 &StateSyncMsg::alive};
};

/// Bridge request: `daemon_id` asks the receiving (linked) peer to start
/// (`on`) or stop forwarding every first-seen Ordered message to it, because
/// some daemon of the merged mesh — typically the sequencer — is alive but
/// unreachable from the requester while a partial partition persists.
struct BridgeMsg {
  BridgeMsg() = default;
  BridgeMsg(std::uint64_t d, bool o) : daemon_id(d), on(o) {}

  std::uint64_t daemon_id = 0;
  bool on = true;
  static constexpr Op kOp = Op::kBridge;
  static constexpr auto kFields =
      std::tuple{&BridgeMsg::daemon_id, &BridgeMsg::on};
};

/// The merged alive-daemon set, gossiped to linked peers after an
/// arbitration win (and re-forwarded by any daemon whose own set grows).
/// This is how islands further down a healed chain — which never exchanged
/// a Rejoin with the new arrival — learn the mesh extends past their links.
struct AliveSetMsg {
  AliveSetMsg() = default;
  explicit AliveSetMsg(std::vector<std::uint64_t> a) : alive(std::move(a)) {}

  std::vector<std::uint64_t> alive;
  static constexpr Op kOp = Op::kAliveSet;
  static constexpr auto kFields = std::tuple{&AliveSetMsg::alive};
};

/// Periodic stamping-counter beacon, broadcast by every daemon when the
/// plane runs sharded sequencers (it doubles as the liveness heartbeat
/// there). Receivers ratchet their own counter to at least `next_seq`, so
/// whoever inherits a dead owner's groups stamps above everything the old
/// owner is known to have issued — the per-shard takeover floor. It is also
/// what keeps daemons with no interest in a group aligned with the global
/// stamping frontier even though data frames no longer reach them.
struct SeqWatermarkMsg {
  SeqWatermarkMsg() = default;
  SeqWatermarkMsg(std::uint64_t d, std::uint64_t n)
      : daemon_id(d), next_seq(n) {}

  std::uint64_t daemon_id = 0;
  std::uint64_t next_seq = 0;
  static constexpr Op kOp = Op::kSeqWatermark;
  static constexpr auto kFields =
      std::tuple{&SeqWatermarkMsg::daemon_id, &SeqWatermarkMsg::next_seq};
};

enum class WireErr { kTruncated, kMalformed, kUnknownOp };

/// One complete frame off the wire: a window onto the buffer it arrived in
/// (shared with the other frames of that read or batch) that exposes only
/// the opcode and the CDR body, so no decoder ever handles the length
/// prefix or the opcode byte (the body's CDR alignment is relative to its
/// first byte).
class Frame {
 public:
  /// Bytes before the body: u32 length + opcode.
  static constexpr std::size_t kHeaderSize = 5;

  /// `wire` holds exactly one frame, header included; it needs at least
  /// kHeaderSize bytes (the framer checks this before constructing).
  explicit Frame(SharedBytes wire)
      : op_(static_cast<Op>(wire.at(4))), body_(wire.window(kHeaderSize)) {}

  [[nodiscard]] Op op() const { return op_; }
  [[nodiscard]] const SharedBytes& body() const { return body_; }

 private:
  Op op_;
  SharedBytes body_;
};

template <typename T>
using WireResult = Expected<T, WireErr>;

// ---- encoding / decoding ----
//
// encode() writes the CDR body straight after a reserved 5-byte header
// (CdrWriter::with_prefix) and patches the header in place: one pass over
// the bytes, no re-wrapping copy. The opcode defaults to the message's
// kOp; GroupMsg and OrderedMsg serve two opcodes each and take it as an
// argument.

/// Fills in a frame writer's reserved header (u32 LE length, opcode).
Bytes finish_frame(giop::CdrWriter& w, Op op);

template <typename T>
Bytes encode(const T& m, Op op = T::kOp) {
  giop::CdrWriter w = giop::CdrWriter::with_prefix(Frame::kHeaderSize);
  w.reserve(Frame::kHeaderSize + giop::size_hint(m));
  giop::encode(w, m);
  return finish_frame(w, op);
}

/// The delivery of a stamped kData message, encoded straight from it (the
/// daemon's per-member hop; same bytes as encode(DeliverMsg)).
Bytes encode_deliver(const OrderedMsg& m);

/// Decodes a frame's body as a T; kMalformed if it is truncated or invalid.
/// A payload is decoded as a window onto the frame's buffer.
template <typename T>
WireResult<T> decode(const Frame& frame) {
  giop::CdrReader r(frame.body(), giop::ByteOrder::kLittleEndian);
  T m;
  if (!giop::decode(r, m)) return make_unexpected(WireErr::kMalformed);
  return m;
}

// ---- frame batching ----
//
// A FrameBatch payload is simply the concatenation of complete
// length-prefixed frames (the same bytes that would have crossed the wire
// individually), so a sender coalesces by appending encoded frames to a
// buffer and wrapping it once at flush time. Batches never nest.

/// Wraps already-encoded frames (concatenated wire bytes) into one
/// kFrameBatch frame. `frames` must be non-zero; `payload` must hold
/// exactly that many complete frames.
Bytes wrap_frame_batch(const Bytes& payload);
/// Convenience for tests: encodes `frames` individually and wraps them.
Bytes encode_frame_batch(const std::vector<Bytes>& frames);
/// Splits a kFrameBatch frame's body back into frames, each a window onto
/// the batch's buffer. Rejects empty batches, truncated sub-frames
/// (kTruncated), unknown sub-frame opcodes (kUnknownOp), and nested batches
/// (kMalformed).
WireResult<std::vector<Frame>> decode_frame_batch(const Frame& batch);

/// Reassembles length-prefixed frames from a byte stream. A chunk fed to
/// an empty framer is adopted without copying, and every whole frame in it
/// is handed out as a window onto it. Only the bytes of an incomplete frame
/// are copied: they collect in a private buffer until they hold a frame,
/// and that buffer is then split the same way.
class LenFramer {
 public:
  void feed(Bytes chunk);
  /// Next complete frame; nullopt if more bytes needed. Malformed input sets
  /// corrupt() permanently.
  std::optional<Frame> next();
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::size_t buffered() const {
    return chunk_.size() - head_ + partial_.size();
  }

 private:
  /// Size of the whole frame at the front of `bytes`, or 0 if it is not
  /// all there yet. A malformed header sets corrupt_.
  std::size_t whole_frame(std::span<const std::uint8_t> bytes);

  SharedBytes chunk_;     // being split into frames
  std::size_t head_ = 0;  // consumed prefix of chunk_
  Bytes partial_;         // an incomplete frame's bytes; chunk_ is then spent
  bool corrupt_ = false;
};

}  // namespace mead::gc
