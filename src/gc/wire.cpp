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
  const SharedBytes& payload = batch.body();
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
    out.emplace_back(payload.window(pos, 4 + len));
    pos += 4 + len;
  }
  if (out.empty()) return make_unexpected(WireErr::kMalformed);
  return out;
}

// ---- framing ----

void LenFramer::feed(Bytes chunk) {
  if (head_ == chunk_.size() && partial_.empty()) {  // nothing buffered
    chunk_ = SharedBytes(std::move(chunk));
    head_ = 0;
    return;
  }
  if (head_ < chunk_.size()) {  // the chunk ended inside a frame
    partial_.assign(chunk_.begin() + head_, chunk_.end());
  }
  chunk_ = SharedBytes();
  head_ = 0;
  append_bytes(partial_, chunk);
}

std::size_t LenFramer::whole_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return 0;
  const std::uint32_t len = read_len(bytes.data());
  if (len == 0 || len > 16 * 1024 * 1024) {  // sanity cap
    corrupt_ = true;
    return 0;
  }
  if (bytes.size() < 4 + static_cast<std::size_t>(len)) return 0;
  if (!valid_op(bytes[4])) {
    corrupt_ = true;
    return 0;
  }
  return 4 + static_cast<std::size_t>(len);
}

std::optional<Frame> LenFramer::next() {
  if (corrupt_) return std::nullopt;
  if (head_ == chunk_.size()) {
    // Split the collected bytes once they hold a whole frame.
    if (partial_.empty() || whole_frame(partial_) == 0) return std::nullopt;
    chunk_ = SharedBytes(std::move(partial_));
    partial_.clear();
    head_ = 0;
  }
  const std::size_t n = whole_frame(chunk_.span().subspan(head_));
  if (n == 0) return std::nullopt;
  Frame f(chunk_.window(head_, n));
  head_ += n;
  if (head_ == chunk_.size()) {  // spent: its frames alone keep it alive
    chunk_ = SharedBytes();
    head_ = 0;
  }
  return f;
}

}  // namespace mead::gc
