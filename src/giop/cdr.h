// CDR (Common Data Representation) encoding — the marshaling format beneath
// GIOP (CORBA/IIOP spec ch. 15). Implements the subset the mini-ORB needs:
// primitive types with CDR alignment rules, strings (length-prefixed,
// NUL-terminated), octet sequences, and both byte orders (a CDR stream
// declares its endianness; readers must honour it).
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/expected.h"
#include "common/shared_bytes.h"
#include "common/types.h"

namespace mead::giop {

enum class CdrErr {
  kOutOfBounds,   // read past the end of the encapsulation
  kBadString,     // missing NUL terminator or zero-length string
  kLengthLimit,   // sequence length exceeds remaining bytes (corrupt stream)
};

template <typename T>
using CdrResult = Expected<T, CdrErr>;

enum class ByteOrder : std::uint8_t {
  kBigEndian = 0,     // CDR flag 0
  kLittleEndian = 1,  // CDR flag 1
};

/// True if this machine is little-endian (used to pick the cheap path).
[[nodiscard]] constexpr ByteOrder native_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittleEndian
                                                    : ByteOrder::kBigEndian;
}

namespace detail {

template <typename T>
[[nodiscard]] inline T byteswap_int(T v) {
  T out{};
  auto* src = reinterpret_cast<const std::uint8_t*>(&v);
  auto* dst = reinterpret_cast<std::uint8_t*>(&out);
  for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
  return out;
}

}  // namespace detail

/// Rounds a stream offset up to the next multiple of `n`: the CDR rule
/// that places every primitive at an offset that is a multiple of its size.
[[nodiscard]] constexpr std::size_t align_up(std::size_t offset,
                                             std::size_t n) {
  return (offset + n - 1) / n * n;
}

/// Stores the integer `v` at `p` in byte order `order`.
template <typename T>
void store_int(std::uint8_t* p, T v, ByteOrder order) {
  if (order != native_byte_order()) v = detail::byteswap_int(v);
  std::memcpy(p, &v, sizeof(T));
}

/// Loads an integer stored at `p` in byte order `order`.
template <typename T>
[[nodiscard]] T load_int(const std::uint8_t* p, ByteOrder order) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  if (order != native_byte_order()) v = detail::byteswap_int(v);
  return v;
}

/// Serializer. Offsets are relative to the start of the CDR stream (for GIOP,
/// the message body begins at offset 0 — the 12-byte header is external and
/// deliberately laid out so body alignment is preserved).
class CdrWriter {
 public:
  explicit CdrWriter(ByteOrder order = ByteOrder::kLittleEndian)
      : order_(order) {}

  /// A writer whose buffer starts with `prefix` zero bytes reserved for a
  /// framing header. Alignment stays relative to the first byte after the
  /// prefix, so the stream is byte-identical to one written alone; the
  /// caller fills the prefix in after take(). This is what lets a framed
  /// message be encoded once instead of encoded and then re-wrapped.
  [[nodiscard]] static CdrWriter with_prefix(
      std::size_t prefix, ByteOrder order = ByteOrder::kLittleEndian) {
    CdrWriter w(order);
    w.buf_.resize(prefix, 0);
    w.base_ = prefix;
    return w;
  }

  [[nodiscard]] ByteOrder order() const { return order_; }
  /// The whole buffer, prefix included.
  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  /// Bytes written, prefix included.
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Capacity hint for large messages (avoids regrowth copies).
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Offset of the next byte from the stream origin (the end of the
  /// prefix): the offset CDR alignment is computed on.
  [[nodiscard]] std::size_t offset() const { return buf_.size() - base_; }
  /// Appends `n` zero bytes and returns the first of them, for a bulk
  /// region the caller lays out itself with align_up() and store_int().
  /// The pointer is valid until the next write.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n, 0);
    return buf_.data() + at;
  }

  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u16(std::uint16_t v) { put_int(v); }
  void write_u32(std::uint32_t v) { put_int(v); }
  void write_u64(std::uint64_t v) { put_int(v); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    write_u64(bits);
  }

  /// CDR string: u32 length including NUL, characters, NUL.
  void write_string(std::string_view s);
  /// sequence<octet>: u32 length + raw bytes.
  void write_octet_seq(std::span<const std::uint8_t> bytes);
  /// Raw bytes with no length prefix (caller manages framing).
  void write_raw(std::span<const std::uint8_t> bytes);

 private:
  void align(std::size_t n) {
    const std::size_t misalign = (buf_.size() - base_) % n;
    if (misalign != 0) buf_.resize(buf_.size() + (n - misalign), 0);
  }

  template <typename T>
  void put_int(T v) {
    align(sizeof(T));
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_int(buf_.data() + at, v, order_);
  }

  ByteOrder order_;
  Bytes buf_;
  std::size_t base_ = 0;  // alignment origin: the end of the prefix
};

/// Deserializer over a byte range. All reads are bounds-checked: a truncated
/// or corrupt stream yields CdrErr, never UB — the LOCATION_FORWARD
/// interceptor parses GIOP off the wire, so robustness here is load-bearing.
/// The reader views the range; its owner must outlive the reader.
class CdrReader {
 public:
  CdrReader(std::span<const std::uint8_t> buf, ByteOrder order,
            std::size_t start_offset = 0)
      : data_(buf.data()), size_(buf.size()), order_(order),
        pos_(start_offset), base_(start_offset) {}
  /// Reads a shared buffer: read_octet_window() then returns windows onto
  /// it instead of copies. (A template only so that a Bytes argument,
  /// which converts to both, picks the span constructor.)
  template <std::same_as<SharedBytes> S>
  CdrReader(const S& buf, ByteOrder order, std::size_t start_offset = 0)
      : CdrReader(buf.span(), order, start_offset) {
    shared_ = &buf;
  }

  [[nodiscard]] ByteOrder order() const { return order_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const {
    return size_ > pos_ ? size_ - pos_ : 0;
  }
  /// Offset of the next byte from the stream origin: the offset CDR
  /// alignment is computed on.
  [[nodiscard]] std::size_t offset() const { return pos_ - base_; }

  CdrResult<std::uint8_t> read_u8() {
    if (!has(1)) return make_unexpected(CdrErr::kOutOfBounds);
    return data_[pos_++];
  }
  CdrResult<bool> read_bool() {
    auto v = read_u8();
    if (!v) return make_unexpected(v.error());
    return v.value() != 0;
  }
  CdrResult<std::uint16_t> read_u16() { return get_int<std::uint16_t>(); }
  CdrResult<std::uint32_t> read_u32() { return get_int<std::uint32_t>(); }
  CdrResult<std::uint64_t> read_u64() { return get_int<std::uint64_t>(); }
  CdrResult<std::int32_t> read_i32() {
    auto v = read_u32();
    if (!v) return make_unexpected(v.error());
    return static_cast<std::int32_t>(v.value());
  }
  CdrResult<std::int64_t> read_i64() {
    auto v = read_u64();
    if (!v) return make_unexpected(v.error());
    return static_cast<std::int64_t>(v.value());
  }
  CdrResult<double> read_double() {
    auto bits = read_u64();
    if (!bits) return make_unexpected(bits.error());
    double v;
    std::memcpy(&v, &bits.value(), 8);
    return v;
  }
  CdrResult<std::string> read_string();
  CdrResult<Bytes> read_octet_seq();
  /// sequence<octet> as a window sharing the buffer of a reader built on a
  /// SharedBytes; a reader over a plain span has no buffer to share and
  /// returns a copy.
  CdrResult<SharedBytes> read_octet_window();
  CdrResult<Bytes> read_raw(std::size_t n);
  /// Advances past `n` bytes without copying them.
  CdrResult<void> skip(std::size_t n) {
    if (!has(n)) return make_unexpected(CdrErr::kOutOfBounds);
    pos_ += n;
    return {};
  }
  /// The next `n` bytes in place, for a bulk region the caller reads with
  /// align_up() and load_int(); advances past them.
  CdrResult<std::span<const std::uint8_t>> view(std::size_t n) {
    if (!has(n)) return make_unexpected(CdrErr::kOutOfBounds);
    const std::span<const std::uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

 private:
  CdrResult<void> align(std::size_t n) {
    const std::size_t rel = (pos_ - base_) % n;
    if (rel != 0) return skip(n - rel);
    return {};
  }
  [[nodiscard]] bool has(std::size_t n) const { return remaining() >= n; }

  template <typename T>
  CdrResult<T> get_int() {
    if (auto a = align(sizeof(T)); !a) return make_unexpected(a.error());
    if (!has(sizeof(T))) return make_unexpected(CdrErr::kOutOfBounds);
    const T v = load_int<T>(data_ + pos_, order_);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  ByteOrder order_;
  std::size_t pos_;
  std::size_t base_;  // alignment is relative to the stream start
  const SharedBytes* shared_ = nullptr;  // the buffer data_ views, if shared
};

}  // namespace mead::giop
