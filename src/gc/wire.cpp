#include "gc/wire.h"

namespace mead::gc {

namespace {

using giop::CdrWriter;

CdrWriter frame_writer() { return CdrWriter::with_prefix(Frame::kHeaderSize); }

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

// A delivery's fields, read straight off the stamped message.
constexpr auto kDeliverFromOrdered =
    std::tuple{&OrderedMsg::group, &OrderedMsg::member, &OrderedMsg::seq,
               &OrderedMsg::payload};

}  // namespace

Bytes finish_frame(CdrWriter& w, Op op) {
  Bytes out = w.take();
  const auto len = static_cast<std::uint32_t>(out.size() - 4);
  out[0] = static_cast<std::uint8_t>(len & 0xFF);
  out[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
  out[4] = static_cast<std::uint8_t>(op);
  return out;
}

Bytes encode_deliver(const OrderedMsg& m) {
  CdrWriter w = frame_writer();
  w.reserve(Frame::kHeaderSize + 64 + m.group.size() + m.member.size() +
            m.payload.size());
  giop::encode_fields(w, m, kDeliverFromOrdered);
  return finish_frame(w, Op::kDeliver);
}

Bytes wrap_frame_batch(const Bytes& payload) {
  CdrWriter w = frame_writer();
  w.write_raw(payload);
  return finish_frame(w, Op::kFrameBatch);
}

Bytes encode_frame_batch(const std::vector<Bytes>& frames) {
  Bytes payload;
  for (const Bytes& f : frames) append_bytes(payload, f);
  return wrap_frame_batch(payload);
}

// ---- decoding ----

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
