// FNV-1a 64-bit digest for byte-stability tests: pins encoder output and
// run artifacts across commits without committing the bytes themselves.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"

namespace mead::test_util {

inline std::uint64_t fnv64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t fnv64(const Bytes& b) { return fnv64(b.data(), b.size()); }

inline std::uint64_t fnv64(std::string_view s) {
  return fnv64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

}  // namespace mead::test_util
