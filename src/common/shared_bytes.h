// An immutable window onto a shared byte buffer: how a received chunk, the
// frames split from it and the payloads decoded from those frames all use
// the bytes as they arrived instead of each owning a copy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/types.h"

namespace mead {

/// A read-only window [data(), data() + size()) onto a byte buffer shared
/// by every window taken from it. Copying a window or taking a sub-window
/// copies no bytes; the buffer lives until its last window is gone. The
/// buffer is counted once, when it is adopted (a read chunk, an encoded
/// payload), not once per frame or payload that windows it.
class SharedBytes {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SharedBytes() = default;
  /// Adopts `bytes` whole, without copying them.
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const Bytes>(std::move(bytes))),
        data_(buf_ ? buf_->data() : nullptr),
        size_(buf_ ? buf_->size() : 0) {}

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] std::uint8_t at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SharedBytes::at");
    return data_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data_, size_};
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT
    return span();
  }

  /// The `n` bytes at `offset` (to the end by default), sharing this
  /// window's buffer. Requires offset <= size() and offset + n <= size().
  [[nodiscard]] SharedBytes window(std::size_t offset,
                                   std::size_t n = npos) const {
    SharedBytes out;
    out.buf_ = buf_;
    out.data_ = data_ + offset;
    out.size_ = n == npos ? size_ - offset : n;
    return out;
  }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return std::ranges::equal(a.span(), b.span());
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return std::ranges::equal(a.span(), b);
  }

 private:
  std::shared_ptr<const Bytes> buf_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace mead
