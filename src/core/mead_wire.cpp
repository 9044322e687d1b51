#include "core/mead_wire.h"

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

using Entries = decltype(state::Checkpoint::entries);

// Where an entry's key and value sit relative to its first byte, and how
// many bytes it spans (alignment gaps and value_pad included).
struct EntryLayout {
  std::size_t key = 0;
  std::size_t value = 0;
  std::size_t size = 0;
};

// An entry is a CDR u32 key, a u64 value and `value_pad` zero bytes, so its
// layout depends only on its start offset mod 8. Every entry ends 8-aligned
// plus `value_pad`, so entries 1..n-1 all start at residue value_pad % 8
// and share one layout; only entry 0 can differ.
EntryLayout entry_layout(std::size_t start, std::uint32_t value_pad) {
  const std::size_t key = giop::align_up(start, 4);
  const std::size_t value = giop::align_up(key + 4, 8);
  return {key - start, value - start, value + 8 + value_pad - start};
}

// The entry count, then every entry stored at its computed offset in one
// zero-filled region: no per-field call, the padding written by the fill.
void write_entries(CdrWriter& w, std::uint32_t value_pad,
                   const Entries& entries) {
  w.write_u32(static_cast<std::uint32_t>(entries.size()));
  if (entries.empty()) return;
  const EntryLayout first = entry_layout(w.offset(), value_pad);
  const EntryLayout rest = entry_layout(value_pad % 8, value_pad);
  std::uint8_t* p = w.extend(first.size + (entries.size() - 1) * rest.size);
  EntryLayout at = first;
  for (const auto& [key, value] : entries) {
    giop::store_int(p + at.key, key, w.order());
    giop::store_int(p + at.value, value, w.order());
    p += at.size;
    at = rest;
  }
}

// Reads `n` entries after checking the whole region against the bytes
// present, so a corrupt count fails before anything is allocated.
bool read_entries(CdrReader& r, std::uint32_t value_pad, std::uint32_t n,
                  Entries& entries) {
  entries.clear();
  if (n == 0) return true;
  const EntryLayout first = entry_layout(r.offset(), value_pad);
  const EntryLayout rest = entry_layout(value_pad % 8, value_pad);
  const std::size_t left = r.remaining();
  if (first.size > left || n - 1 > (left - first.size) / rest.size) {
    return false;
  }
  auto region = r.view(first.size + (n - 1) * rest.size);
  if (!region) return false;
  entries.resize(n);
  const std::uint8_t* p = region.value().data();
  EntryLayout at = first;
  for (auto& [key, value] : entries) {
    key = giop::load_int<std::uint32_t>(p + at.key, r.order());
    value = giop::load_int<std::uint64_t>(p + at.value, r.order());
    p += at.size;
    at = rest;
  }
  return true;
}

void write_ckpt(CdrWriter& w, std::string_view member, std::uint64_t nonce,
                std::uint32_t value_pad, const state::Checkpoint& c) {
  // Header + per entry: u32 key, u64 value, value_pad bytes, alignment.
  w.reserve(w.size() + 96 + member.size() +
            c.entries.size() * (20 + value_pad));
  w.write_string(member);
  w.write_u64(nonce);
  giop::encode_fields(w, c, kCkptHeader);
  w.write_u32(value_pad);
  write_entries(w, value_pad, c.entries);
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
  return giop::decode(r, m.member) && giop::decode(r, m.nonce) &&
         giop::decode_fields(r, c, kCkptHeader) &&
         giop::decode(r, m.value_pad) && giop::decode(r, n) &&
         read_entries(r, m.value_pad, n, c.entries);
}

Bytes encode_ckpt_delta(std::string_view member, std::uint64_t nonce,
                        std::uint32_t value_pad, const state::Checkpoint& c) {
  CdrWriter w = CdrWriter::with_prefix(1);
  write_ckpt(w, member, nonce, value_pad, c);
  Bytes out = w.take();
  out[0] = static_cast<std::uint8_t>(CtrlKind::kCkptDelta);
  return out;
}

std::optional<CtrlKind> peek_ctrl_kind(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return std::nullopt;
  return static_cast<CtrlKind>(payload[0]);
}

std::optional<CtrlMsg> decode_ctrl(std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload[0] == 0 || payload[0] > kDecoders.size()) {
    return std::nullopt;
  }
  // The body starts after the kind byte; CDR alignment is relative to it.
  CdrReader r(payload, ByteOrder::kLittleEndian, 1);
  return kDecoders[payload[0] - 1](r);
}

}  // namespace mead::core
