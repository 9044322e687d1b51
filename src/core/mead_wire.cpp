#include "core/mead_wire.h"

#include <algorithm>
#include <array>

namespace mead::core {

using giop::ByteOrder;
using giop::CdrReader;
using giop::CdrWriter;

namespace {

// MEAD frames reuse the GIOP header layout; the type byte distinguishes
// MEAD message kinds (only fail-over exists on the piggyback path).
constexpr giop::MsgType kFailoverType = giop::MsgType::kRequest;

// The checkpoint fields between the sender's nonce and value_pad.
constexpr auto kCkptHeader = std::tuple{
    &state::Checkpoint::epoch,       &state::Checkpoint::base_epoch,
    &state::Checkpoint::is_base,     &state::Checkpoint::applied,
    &state::Checkpoint::prev_digest, &state::Checkpoint::digest};

void write_ckpt(CdrWriter& w, std::string_view member, std::uint64_t nonce,
                std::uint32_t value_pad, const state::Checkpoint& c) {
  // Header + per entry: u32 key, u64 value, value_pad bytes, alignment.
  w.reserve(w.size() + 96 + member.size() +
            c.entries.size() * (20 + value_pad));
  w.write_string(member);
  w.write_u64(nonce);
  giop::encode_fields(w, c, kCkptHeader);
  w.write_u32(value_pad);
  w.write_u32(static_cast<std::uint32_t>(c.entries.size()));
  const Bytes pad(value_pad, 0);
  for (const auto& [key, value] : c.entries) {
    w.write_u32(key);
    w.write_u64(value);
    if (value_pad > 0) w.write_raw(pad);
  }
}

// One decoder per CtrlMsg alternative, indexed by kind - 1.
template <std::size_t I>
std::optional<CtrlMsg> decode_as(CdrReader& r) {
  std::optional<CtrlMsg> msg(std::in_place, std::in_place_index<I>);
  if (!giop::decode(r, std::get<I>(*msg))) msg.reset();
  return msg;
}

template <std::size_t... I>
constexpr auto decoder_table(std::index_sequence<I...>) {
  return std::array{&decode_as<I>...};
}

constexpr auto kDecoders = decoder_table(
    std::make_index_sequence<std::variant_size_v<CtrlMsg>>{});

}  // namespace

Bytes encode_failover_frame(const FailoverMsg& m) {
  CdrWriter w;
  giop::encode(w, m);
  Bytes out = giop::encode_header(
      giop::Header{giop::Magic::kMead, w.order(), kFailoverType,
                   static_cast<std::uint32_t>(w.size())});
  append_bytes(out, w.buffer());
  return out;
}

std::optional<FailoverMsg> decode_failover_frame(const Bytes& frame) {
  auto h = giop::decode_header(frame);
  if (!h || h->magic != giop::Magic::kMead) return std::nullopt;
  if (frame.size() < giop::kHeaderSize + h->body_size) return std::nullopt;
  CdrReader r(frame, h->order, giop::kHeaderSize);
  std::optional<FailoverMsg> m(std::in_place);
  if (!giop::decode(r, *m)) m.reset();
  return m;
}

void codec_write(CdrWriter& w, const CkptDelta& m) {
  write_ckpt(w, m.member, m.nonce, m.value_pad, m.checkpoint);
}

bool codec_read(CdrReader& r, CkptDelta& m) {
  state::Checkpoint& c = m.checkpoint;
  std::uint32_t n = 0;
  if (!(giop::decode(r, m.member) && giop::decode(r, m.nonce) &&
        giop::decode_fields(r, c, kCkptHeader) &&
        giop::decode(r, m.value_pad) && giop::decode(r, n))) {
    return false;
  }
  // Every entry takes at least 12 + value_pad bytes: a corrupt count
  // cannot reserve more than the frame could hold.
  const std::size_t min_entry = 12 + static_cast<std::size_t>(m.value_pad);
  c.entries.reserve(std::min<std::size_t>(n, r.remaining() / min_entry));
  for (std::uint32_t i = 0; i < n; ++i) {
    auto key = r.read_u32();
    auto value = r.read_u64();
    if (!key || !value || !r.skip(m.value_pad)) return false;
    c.entries.emplace_back(key.value(), value.value());
  }
  return true;
}

Bytes encode_ckpt_delta(std::string_view member, std::uint64_t nonce,
                        std::uint32_t value_pad, const state::Checkpoint& c) {
  CdrWriter w = CdrWriter::with_prefix(1);
  write_ckpt(w, member, nonce, value_pad, c);
  Bytes out = w.take();
  out[0] = static_cast<std::uint8_t>(CtrlKind::kCkptDelta);
  return out;
}

std::optional<CtrlKind> peek_ctrl_kind(const Bytes& payload) {
  if (payload.empty()) return std::nullopt;
  return static_cast<CtrlKind>(payload[0]);
}

std::optional<CtrlMsg> decode_ctrl(const Bytes& payload) {
  if (payload.empty() || payload[0] == 0 || payload[0] > kDecoders.size()) {
    return std::nullopt;
  }
  // The body starts after the kind byte; CDR alignment is relative to it.
  CdrReader r(payload, ByteOrder::kLittleEndian, 1);
  return kDecoders[payload[0] - 1](r);
}

}  // namespace mead::core
