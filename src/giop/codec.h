// Declarative CDR codec for message structs: the one module that knows how
// a GC or MEAD control message is laid out on the wire.
//
// A message struct lists its wire fields once, in wire order, next to its
// members:
//
//   struct Retire {
//     std::string service;
//     std::string member;
//     static constexpr auto kFields =
//         std::tuple{&Retire::service, &Retire::member};
//   };
//
// and encode()/decode() walk that list. The value rules:
//  * u8/u16/u32/u64 and other integers by size (an `int` travels as u32),
//    double as its 64-bit pattern, each with CDR alignment;
//  * bool and small enums as one byte, validated on decode (a bool must be
//    0 or 1; an enum at most codec_max(E{}), found by ADL);
//  * std::string as a CDR string, Bytes and SharedBytes as an octet
//    sequence (a SharedBytes decodes as a window onto the buffer of a
//    reader built on one, without copying);
//  * std::vector<T> and std::set<T> as a u32 count followed by the
//    elements (a set in its sorted order);
//  * std::pair and described structs field by field.
// A type whose wire layout is not a plain field list supplies the hooks
// codec_write(CdrWriter&, const T&) and codec_read(CdrReader&, T&) -> bool
// beside itself (found by ADL); they take precedence over every rule.
//
// Decoding is total: truncated input, a bad bool/enum byte or a count
// larger than the bytes left all yield false, never an exception. A
// sequence reserves at most remaining() / min_wire_size<T>() elements, so
// a corrupt count cannot allocate more than the frame could hold.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/shared_bytes.h"
#include "common/types.h"
#include "giop/cdr.h"

namespace mead::giop {

template <typename T>
concept Described = requires { T::kFields; };

template <typename T>
concept Hooked = requires(CdrWriter& w, CdrReader& r, const T& c, T& m) {
  codec_write(w, c);
  { codec_read(r, m) } -> std::same_as<bool>;
};

namespace codec_detail {

template <typename T>
struct IsVector : std::false_type {};
template <typename E, typename A>
struct IsVector<std::vector<E, A>> : std::true_type {};
template <typename T>
struct IsSet : std::false_type {};
template <typename E, typename C, typename A>
struct IsSet<std::set<E, C, A>> : std::true_type {};
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename C, typename M>
M member_type(M C::*);

/// Stores a read result into `out` when it succeeded.
template <typename R, typename T>
bool assign(R&& res, T& out) {
  if (res) out = static_cast<T>(std::move(res).value());
  return res.ok();
}

template <std::size_t N>
auto read_uint(CdrReader& r) {
  if constexpr (N == 1) return r.read_u8();
  else if constexpr (N == 2) return r.read_u16();
  else if constexpr (N == 4) return r.read_u32();
  else return r.read_u64();
}

}  // namespace codec_detail

/// Fewest bytes any encoding of a T occupies (alignment ignored): the
/// divisor that bounds a sequence's reserve.
template <typename T>
constexpr std::size_t min_wire_size() {
  if constexpr (Hooked<T> || std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 5;  // u32 length + NUL
  } else if constexpr (std::is_same_v<T, SharedBytes>) {
    return 4;  // u32 length
  } else if constexpr (codec_detail::IsVector<T>::value ||
                       codec_detail::IsSet<T>::value) {
    return 4;  // u32 count
  } else if constexpr (codec_detail::IsPair<T>::value) {
    return min_wire_size<typename T::first_type>() +
           min_wire_size<typename T::second_type>();
  } else {
    return std::apply(
        [](auto... f) {
          return (std::size_t{0} + ... +
                  min_wire_size<decltype(codec_detail::member_type(f))>());
        },
        T::kFields);
  }
}

/// Upper bound on encode(v)'s size, alignment included, for reserve().
/// Hooked types count zero: a hook that writes bulk reserves for itself.
template <typename T>
std::size_t size_hint(const T& v) {
  if constexpr (Hooked<T>) {
    return 0;
  } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return 2 * sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 8 + v.size() + 1;
  } else if constexpr (std::is_same_v<T, SharedBytes>) {
    return 8 + v.size();
  } else if constexpr (codec_detail::IsVector<T>::value ||
                       codec_detail::IsSet<T>::value) {
    using E = typename T::value_type;
    if constexpr (std::is_arithmetic_v<E>) {
      return 8 + sizeof(E) * (v.size() + 1);
    } else {
      std::size_t n = 8;
      for (const auto& e : v) n += giop::size_hint(e);
      return n;
    }
  } else if constexpr (codec_detail::IsPair<T>::value) {
    return giop::size_hint(v.first) + giop::size_hint(v.second);
  } else {
    return std::apply(
        [&](auto... f) {
          return (std::size_t{0} + ... + giop::size_hint(v.*f));
        },
        T::kFields);
  }
}

template <typename T>
void encode(CdrWriter& w, const T& v);
template <typename T>
[[nodiscard]] bool decode(CdrReader& r, T& v);

/// Writes the members `fields` (a tuple of member pointers) of `v`.
template <typename T, typename Fields>
void encode_fields(CdrWriter& w, const T& v, const Fields& fields) {
  std::apply([&](auto... f) { (giop::encode(w, v.*f), ...); }, fields);
}

/// Reads the members `fields` of `v`, stopping at the first failure.
template <typename T, typename Fields>
[[nodiscard]] bool decode_fields(CdrReader& r, T& v, const Fields& fields) {
  return std::apply(
      [&](auto... f) { return (giop::decode(r, v.*f) && ...); }, fields);
}

template <typename T>
void encode(CdrWriter& w, const T& v) {
  if constexpr (Hooked<T>) {
    codec_write(w, v);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    w.write_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.write_double(v);
  } else if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    if constexpr (sizeof(T) == 1) w.write_u8(static_cast<U>(v));
    else if constexpr (sizeof(T) == 2) w.write_u16(static_cast<U>(v));
    else if constexpr (sizeof(T) == 4) w.write_u32(static_cast<U>(v));
    else w.write_u64(static_cast<U>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.write_string(v);
  } else if constexpr (std::is_same_v<T, Bytes> ||
                       std::is_same_v<T, SharedBytes>) {
    w.write_octet_seq(v);
  } else if constexpr (codec_detail::IsVector<T>::value ||
                       codec_detail::IsSet<T>::value) {
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) giop::encode(w, e);
  } else if constexpr (codec_detail::IsPair<T>::value) {
    giop::encode(w, v.first);
    giop::encode(w, v.second);
  } else {
    static_assert(Described<T>, "no codec rule, field list or hook for T");
    encode_fields(w, v, T::kFields);
  }
}

template <typename T>
bool decode(CdrReader& r, T& v) {
  if constexpr (Hooked<T>) {
    return codec_read(r, v);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    std::uint8_t max = 1;
    if constexpr (std::is_enum_v<T>) {
      max = static_cast<std::uint8_t>(codec_max(T{}));
    }
    auto b = r.read_u8();
    const bool ok = b && b.value() <= max;
    if (ok) v = static_cast<T>(b.value());
    return ok;
  } else if constexpr (std::is_same_v<T, double>) {
    return codec_detail::assign(r.read_double(), v);
  } else if constexpr (std::is_integral_v<T>) {
    return codec_detail::assign(codec_detail::read_uint<sizeof(T)>(r), v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return codec_detail::assign(r.read_string(), v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return codec_detail::assign(r.read_octet_seq(), v);
  } else if constexpr (std::is_same_v<T, SharedBytes>) {
    return codec_detail::assign(r.read_octet_window(), v);
  } else if constexpr (codec_detail::IsVector<T>::value ||
                       codec_detail::IsSet<T>::value) {
    using E = typename T::value_type;
    auto n = r.read_u32();
    bool ok = n.ok();
    const std::uint32_t count = ok ? n.value() : 0;
    v.clear();
    if constexpr (codec_detail::IsVector<T>::value) {
      v.reserve(std::min<std::size_t>(count,
                                      r.remaining() / min_wire_size<E>()));
    }
    for (std::uint32_t i = 0; ok && i < count; ++i) {
      if constexpr (codec_detail::IsVector<T>::value) {
        ok = giop::decode(r, v.emplace_back());
      } else {
        E e;
        ok = giop::decode(r, e);
        if (ok) v.insert(v.end(), std::move(e));
      }
    }
    return ok;
  } else if constexpr (codec_detail::IsPair<T>::value) {
    return giop::decode(r, v.first) && giop::decode(r, v.second);
  } else {
    return decode_fields(r, v, T::kFields);
  }
}

}  // namespace mead::giop
