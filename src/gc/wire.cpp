#include "gc/wire.h"

#include <cstring>

namespace mead::gc {

namespace {

using giop::ByteOrder;
using giop::CdrReader;
using giop::CdrWriter;

CdrWriter frame_writer() { return CdrWriter::with_prefix(Frame::kHeaderSize); }

/// Fills in the reserved header: u32 LE length (opcode + body) and opcode.
Bytes finish(CdrWriter& w, Op op) {
  Bytes out = w.take();
  const auto len = static_cast<std::uint32_t>(out.size() - 4);
  out[0] = static_cast<std::uint8_t>(len & 0xFF);
  out[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
  out[4] = static_cast<std::uint8_t>(op);
  return out;
}

std::uint32_t read_len(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool valid_op(std::uint8_t v) {
  switch (static_cast<Op>(v)) {
    case Op::kHello:
    case Op::kJoin:
    case Op::kLeave:
    case Op::kMcast:
    case Op::kDeliver:
    case Op::kView:
    case Op::kPeerHello:
    case Op::kSubmit:
    case Op::kOrdered:
    case Op::kHeartbeat:
    case Op::kRejoin:
    case Op::kStateSync:
    case Op::kBridge:
    case Op::kAliveSet:
    case Op::kFrameBatch:
    case Op::kSeqWatermark:
      return true;
  }
  return false;
}

}  // namespace

Bytes encode_hello(const HelloMsg& m) {
  CdrWriter w = frame_writer();
  w.write_string(m.name);
  return finish(w, Op::kHello);
}

Bytes encode_join(const GroupMsg& m) {
  CdrWriter w = frame_writer();
  w.write_string(m.group);
  return finish(w, Op::kJoin);
}

Bytes encode_leave(const GroupMsg& m) {
  CdrWriter w = frame_writer();
  w.write_string(m.group);
  return finish(w, Op::kLeave);
}

Bytes encode_mcast(const McastMsg& m) {
  CdrWriter w = frame_writer();
  w.reserve(Frame::kHeaderSize + 24 + m.group.size() + m.payload.size());
  w.write_string(m.group);
  w.write_octet_seq(m.payload);
  return finish(w, Op::kMcast);
}

namespace {

Bytes deliver_frame(const std::string& group, const std::string& sender,
                    std::uint64_t seq, const Bytes& payload) {
  CdrWriter w = frame_writer();
  w.reserve(Frame::kHeaderSize + 64 + group.size() + sender.size() +
            payload.size());
  w.write_string(group);
  w.write_string(sender);
  w.write_u64(seq);
  w.write_octet_seq(payload);
  return finish(w, Op::kDeliver);
}

}  // namespace

Bytes encode_deliver(const DeliverMsg& m) {
  return deliver_frame(m.group, m.sender, m.seq, m.payload);
}

Bytes encode_deliver(const OrderedMsg& m) {
  return deliver_frame(m.group, m.member, m.seq, m.payload);
}

Bytes encode_view(const ViewMsg& m) {
  CdrWriter w = frame_writer();
  w.write_string(m.group);
  w.write_u64(m.view_id);
  w.write_u32(static_cast<std::uint32_t>(m.members.size()));
  for (const auto& member : m.members) w.write_string(member);
  return finish(w, Op::kView);
}

Bytes encode_peer_hello(const PeerHelloMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.daemon_id);
  return finish(w, Op::kPeerHello);
}

namespace {

Bytes encode_ordered_like(const OrderedMsg& m, Op op) {
  CdrWriter w = frame_writer();
  w.reserve(Frame::kHeaderSize + 64 + m.group.size() + m.member.size() +
            m.payload.size());
  w.write_u64(m.seq);
  w.write_u64(m.origin);
  w.write_u64(m.msg_id);
  w.write_u8(static_cast<std::uint8_t>(m.kind));
  w.write_string(m.group);
  w.write_string(m.member);
  w.write_octet_seq(m.payload);
  return finish(w, op);
}

}  // namespace

Bytes encode_submit(const OrderedMsg& m) {
  return encode_ordered_like(m, Op::kSubmit);
}
Bytes encode_ordered(const OrderedMsg& m) {
  return encode_ordered_like(m, Op::kOrdered);
}

Bytes encode_heartbeat(const HeartbeatMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.daemon_id);
  return finish(w, Op::kHeartbeat);
}

Bytes encode_rejoin(const RejoinMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.daemon_id);
  w.write_u64(m.next_seq);
  w.write_u64(m.alive_count);
  w.write_u64(m.sequencer_id);
  return finish(w, Op::kRejoin);
}

Bytes encode_state_sync(const StateSyncMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.next_seq);
  w.write_u32(static_cast<std::uint32_t>(m.groups.size()));
  for (const auto& g : m.groups) {
    w.write_string(g.group);
    w.write_u64(g.view_id);
    w.write_u32(static_cast<std::uint32_t>(g.members.size()));
    for (const auto& member : g.members) w.write_string(member);
    w.write_u32(static_cast<std::uint32_t>(g.homes.size()));
    for (std::uint64_t home : g.homes) w.write_u64(home);
  }
  w.write_u32(static_cast<std::uint32_t>(m.alive.size()));
  for (std::uint64_t d : m.alive) w.write_u64(d);
  return finish(w, Op::kStateSync);
}

Bytes encode_bridge(const BridgeMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.daemon_id);
  w.write_u8(m.on ? 1 : 0);
  return finish(w, Op::kBridge);
}

Bytes encode_alive_set(const AliveSetMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u32(static_cast<std::uint32_t>(m.alive.size()));
  for (std::uint64_t d : m.alive) w.write_u64(d);
  return finish(w, Op::kAliveSet);
}

Bytes encode_seq_watermark(const SeqWatermarkMsg& m) {
  CdrWriter w = frame_writer();
  w.write_u64(m.daemon_id);
  w.write_u64(m.next_seq);
  return finish(w, Op::kSeqWatermark);
}

Bytes wrap_frame_batch(const Bytes& payload) {
  CdrWriter w = frame_writer();
  w.write_raw(payload);
  return finish(w, Op::kFrameBatch);
}

Bytes encode_frame_batch(const std::vector<Bytes>& frames) {
  Bytes payload;
  for (const Bytes& f : frames) append_bytes(payload, f);
  return wrap_frame_batch(payload);
}

// ---- decoding ----

namespace {

template <typename F>
auto decode_with(const Frame& frame, F&& fn)
    -> WireResult<std::decay_t<decltype(*fn(std::declval<CdrReader&>()))>> {
  CdrReader r(frame.body(), ByteOrder::kLittleEndian);
  auto out = fn(r);
  if (!out) return make_unexpected(WireErr::kMalformed);
  return std::move(*out);
}

}  // namespace

WireResult<HelloMsg> decode_hello(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<HelloMsg> {
    auto name = r.read_string();
    if (!name) return std::nullopt;
    return HelloMsg{std::move(name.value())};
  });
}

WireResult<GroupMsg> decode_group(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<GroupMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    return GroupMsg{std::move(g.value())};
  });
}

WireResult<McastMsg> decode_mcast(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<McastMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    auto p = r.read_octet_seq();
    if (!p) return std::nullopt;
    return McastMsg{std::move(g.value()), std::move(p.value())};
  });
}

WireResult<DeliverMsg> decode_deliver(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<DeliverMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    auto s = r.read_string();
    if (!s) return std::nullopt;
    auto q = r.read_u64();
    if (!q) return std::nullopt;
    auto p = r.read_octet_seq();
    if (!p) return std::nullopt;
    return DeliverMsg{std::move(g.value()), std::move(s.value()), q.value(),
                      std::move(p.value())};
  });
}

WireResult<ViewMsg> decode_view(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<ViewMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    auto n = r.read_u32();
    if (!n) return std::nullopt;
    std::vector<std::string> members;
    members.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto m = r.read_string();
      if (!m) return std::nullopt;
      members.push_back(std::move(m.value()));
    }
    return ViewMsg{std::move(g.value()), id.value(), std::move(members)};
  });
}

WireResult<PeerHelloMsg> decode_peer_hello(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<PeerHelloMsg> {
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    return PeerHelloMsg{id.value()};
  });
}

WireResult<OrderedMsg> decode_ordered_like(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<OrderedMsg> {
    OrderedMsg m;
    auto seq = r.read_u64();
    if (!seq) return std::nullopt;
    m.seq = seq.value();
    auto origin = r.read_u64();
    if (!origin) return std::nullopt;
    m.origin = origin.value();
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    m.msg_id = id.value();
    auto kind = r.read_u8();
    if (!kind || kind.value() > 2) return std::nullopt;
    m.kind = static_cast<PayloadKind>(kind.value());
    auto g = r.read_string();
    if (!g) return std::nullopt;
    m.group = std::move(g.value());
    auto member = r.read_string();
    if (!member) return std::nullopt;
    m.member = std::move(member.value());
    auto p = r.read_octet_seq();
    if (!p) return std::nullopt;
    m.payload = std::move(p.value());
    return m;
  });
}

WireResult<HeartbeatMsg> decode_heartbeat(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<HeartbeatMsg> {
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    return HeartbeatMsg{id.value()};
  });
}

WireResult<RejoinMsg> decode_rejoin(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<RejoinMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto n = r.read_u64();
    if (!n) return std::nullopt;
    auto a = r.read_u64();
    if (!a) return std::nullopt;
    auto s = r.read_u64();
    if (!s) return std::nullopt;
    return RejoinMsg{d.value(), n.value(), a.value(), s.value()};
  });
}

WireResult<StateSyncMsg> decode_state_sync(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<StateSyncMsg> {
    StateSyncMsg m;
    auto next = r.read_u64();
    if (!next) return std::nullopt;
    m.next_seq = next.value();
    auto count = r.read_u32();
    if (!count) return std::nullopt;
    m.groups.reserve(count.value());
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      GroupSnapshot snap;
      auto g = r.read_string();
      if (!g) return std::nullopt;
      snap.group = std::move(g.value());
      auto id = r.read_u64();
      if (!id) return std::nullopt;
      snap.view_id = id.value();
      auto members = r.read_u32();
      if (!members) return std::nullopt;
      snap.members.reserve(members.value());
      for (std::uint32_t j = 0; j < members.value(); ++j) {
        auto member = r.read_string();
        if (!member) return std::nullopt;
        snap.members.push_back(std::move(member.value()));
      }
      auto homes = r.read_u32();
      if (!homes) return std::nullopt;
      snap.homes.reserve(homes.value());
      for (std::uint32_t j = 0; j < homes.value(); ++j) {
        auto home = r.read_u64();
        if (!home) return std::nullopt;
        snap.homes.push_back(home.value());
      }
      m.groups.push_back(std::move(snap));
    }
    auto alive = r.read_u32();
    if (!alive) return std::nullopt;
    m.alive.reserve(alive.value());
    for (std::uint32_t i = 0; i < alive.value(); ++i) {
      auto d = r.read_u64();
      if (!d) return std::nullopt;
      m.alive.push_back(d.value());
    }
    return m;
  });
}

WireResult<BridgeMsg> decode_bridge(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<BridgeMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto on = r.read_u8();
    if (!on || on.value() > 1) return std::nullopt;
    return BridgeMsg{d.value(), on.value() == 1};
  });
}

WireResult<AliveSetMsg> decode_alive_set(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<AliveSetMsg> {
    auto n = r.read_u32();
    if (!n) return std::nullopt;
    AliveSetMsg m;
    m.alive.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto d = r.read_u64();
      if (!d) return std::nullopt;
      m.alive.push_back(d.value());
    }
    return m;
  });
}

WireResult<SeqWatermarkMsg> decode_seq_watermark(const Frame& frame) {
  return decode_with(frame, [](CdrReader& r) -> std::optional<SeqWatermarkMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto n = r.read_u64();
    if (!n) return std::nullopt;
    return SeqWatermarkMsg{d.value(), n.value()};
  });
}

WireResult<std::vector<Frame>> decode_frame_batch(const Frame& batch) {
  const std::span<const std::uint8_t> payload = batch.body();
  std::vector<Frame> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 4) return make_unexpected(WireErr::kTruncated);
    const std::uint32_t len = read_len(payload.data() + pos);
    if (len == 0) return make_unexpected(WireErr::kMalformed);
    if (payload.size() - pos < 4 + static_cast<std::size_t>(len)) {
      return make_unexpected(WireErr::kTruncated);
    }
    std::uint8_t op = payload[pos + 4];
    if (!valid_op(op)) return make_unexpected(WireErr::kUnknownOp);
    if (static_cast<Op>(op) == Op::kFrameBatch) {  // batches never nest
      return make_unexpected(WireErr::kMalformed);
    }
    const auto first = payload.begin() + static_cast<std::ptrdiff_t>(pos);
    out.emplace_back(Bytes(first, first + 4 + len));
    pos += 4 + len;
  }
  if (out.empty()) return make_unexpected(WireErr::kMalformed);
  return out;
}

// ---- framing ----

void LenFramer::feed(Bytes chunk) {
  if (head_ == buf_.size()) {  // nothing buffered: adopt the chunk
    buf_ = std::move(chunk);
    head_ = 0;
    return;
  }
  if (head_ > 0) {  // drop consumed frames; only a partial frame moves
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  append_bytes(buf_, chunk);
}

std::optional<Frame> LenFramer::next() {
  if (corrupt_) return std::nullopt;
  const std::size_t avail = buf_.size() - head_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t len = read_len(buf_.data() + head_);
  if (len == 0 || len > 16 * 1024 * 1024) {  // sanity cap
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  if (!valid_op(buf_[head_ + 4])) {
    corrupt_ = true;
    return std::nullopt;
  }
  const std::size_t end = head_ + 4 + len;
  if (end == buf_.size()) {  // the last buffered frame takes the buffer
    Frame f(std::move(buf_), head_);
    buf_.clear();
    head_ = 0;
    return f;
  }
  const auto first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  Frame f(Bytes(first, first + 4 + len));
  head_ = end;
  return f;
}

}  // namespace mead::gc
