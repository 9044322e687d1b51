#include "giop/cdr.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace mead::giop {
namespace {

TEST(CdrWriterTest, PrimitivesRoundTripLittleEndian) {
  CdrWriter w(ByteOrder::kLittleEndian);
  w.write_u8(0xAB);
  w.write_u16(0x1234);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i32(-42);
  w.write_i64(-1'000'000'000'000);
  w.write_double(3.141592653589793);
  w.write_bool(true);
  w.write_bool(false);

  CdrReader r(w.buffer(), ByteOrder::kLittleEndian);
  EXPECT_EQ(r.read_u8().value(), 0xAB);
  EXPECT_EQ(r.read_u16().value(), 0x1234);
  EXPECT_EQ(r.read_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i32().value(), -42);
  EXPECT_EQ(r.read_i64().value(), -1'000'000'000'000);
  EXPECT_DOUBLE_EQ(r.read_double().value(), 3.141592653589793);
  EXPECT_TRUE(r.read_bool().value());
  EXPECT_FALSE(r.read_bool().value());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CdrWriterTest, PrimitivesRoundTripBigEndian) {
  CdrWriter w(ByteOrder::kBigEndian);
  w.write_u32(0x01020304);
  // Big-endian bytes on the wire.
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x01);
  EXPECT_EQ(w.buffer()[3], 0x04);
  CdrReader r(w.buffer(), ByteOrder::kBigEndian);
  EXPECT_EQ(r.read_u32().value(), 0x01020304u);
}

TEST(CdrWriterTest, LittleEndianWireLayout) {
  CdrWriter w(ByteOrder::kLittleEndian);
  w.write_u32(0x01020304);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(CdrAlignmentTest, U16AlignedTo2) {
  CdrWriter w;
  w.write_u8(1);
  w.write_u16(0x2222);
  // 1 byte + 1 pad + 2 bytes
  EXPECT_EQ(w.size(), 4u);
  CdrReader r(w.buffer(), w.order());
  EXPECT_EQ(r.read_u8().value(), 1);
  EXPECT_EQ(r.read_u16().value(), 0x2222);
}

TEST(CdrAlignmentTest, U32AlignedTo4) {
  CdrWriter w;
  w.write_u8(1);
  w.write_u32(7);
  EXPECT_EQ(w.size(), 8u);
}

TEST(CdrAlignmentTest, U64AlignedTo8) {
  CdrWriter w;
  w.write_u32(1);
  w.write_u64(7);
  EXPECT_EQ(w.size(), 16u);
}

TEST(CdrAlignmentTest, ReaderHonoursStartOffset) {
  // Simulates a GIOP body starting after the 12-byte header: alignment is
  // relative to the body start, not the containing buffer.
  CdrWriter body;
  body.write_u8(9);
  body.write_u64(0x1111222233334444ull);
  Bytes framed(12, 0xEE);  // fake header
  append_bytes(framed, body.buffer());
  CdrReader r(framed, body.order(), 12);
  EXPECT_EQ(r.read_u8().value(), 9);
  EXPECT_EQ(r.read_u64().value(), 0x1111222233334444ull);
}

TEST(CdrAlignmentTest, PrefixWriterAlignsRelativeToBody) {
  // A reserved framing prefix does not shift the body's alignment: the
  // body bytes equal those of a writer without the prefix.
  CdrWriter plain;
  CdrWriter framed = CdrWriter::with_prefix(5);
  for (CdrWriter* w : {&plain, &framed}) {
    w->write_u8(1);
    w->write_u64(0x0102030405060708ull);
    w->write_string("abc");
    w->write_u32(9);
  }
  const Bytes body = plain.take();
  const Bytes whole = framed.take();
  ASSERT_EQ(whole.size(), body.size() + 5);
  EXPECT_EQ(Bytes(whole.begin(), whole.begin() + 5), Bytes(5, 0));
  EXPECT_EQ(Bytes(whole.begin() + 5, whole.end()), body);
  CdrReader r(whole, ByteOrder::kLittleEndian, 5);
  EXPECT_EQ(r.read_u8().value(), 1);
  EXPECT_EQ(r.read_u64().value(), 0x0102030405060708ull);
  EXPECT_EQ(r.read_string().value(), "abc");
  EXPECT_EQ(r.read_u32().value(), 9u);
}

TEST(CdrBoundsTest, SkipAdvancesOrFails) {
  const Bytes buf{1, 2, 3, 4, 5};
  CdrReader r(buf, ByteOrder::kLittleEndian);
  EXPECT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.read_u8().value(), 3);
  EXPECT_FALSE(r.skip(3).ok());  // only two left
  EXPECT_EQ(r.position(), 3u);   // a failed skip does not move
  EXPECT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.skip(0).ok());
}

TEST(CdrStringTest, RoundTrip) {
  CdrWriter w;
  w.write_string("TimeOfDay");
  w.write_string("");  // empty string is legal: length 1, just NUL
  CdrReader r(w.buffer(), w.order());
  EXPECT_EQ(r.read_string().value(), "TimeOfDay");
  EXPECT_EQ(r.read_string().value(), "");
}

TEST(CdrStringTest, LengthIncludesNul) {
  CdrWriter w;
  w.write_string("ab");
  // u32 len=3, 'a', 'b', '\0'
  ASSERT_EQ(w.size(), 7u);
  EXPECT_EQ(w.buffer()[0], 3);
  EXPECT_EQ(w.buffer()[6], 0);
}

TEST(CdrStringTest, MissingNulRejected) {
  Bytes evil{2, 0, 0, 0, 'a', 'b'};  // len 2 but no NUL at the end
  CdrReader r(evil, ByteOrder::kLittleEndian);
  auto s = r.read_string();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), CdrErr::kBadString);
}

TEST(CdrStringTest, ZeroLengthRejected) {
  Bytes evil{0, 0, 0, 0};
  CdrReader r(evil, ByteOrder::kLittleEndian);
  auto s = r.read_string();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), CdrErr::kBadString);
}

TEST(CdrOctetSeqTest, RoundTrip) {
  CdrWriter w;
  Bytes payload{1, 2, 3, 4, 5};
  w.write_octet_seq(payload);
  CdrReader r(w.buffer(), w.order());
  EXPECT_EQ(r.read_octet_seq().value(), payload);
}

TEST(CdrOctetSeqTest, OverlongLengthRejected) {
  Bytes evil{100, 0, 0, 0, 1, 2};  // claims 100 bytes, has 2
  CdrReader r(evil, ByteOrder::kLittleEndian);
  auto s = r.read_octet_seq();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), CdrErr::kLengthLimit);
}

TEST(CdrBoundsTest, ReadPastEndFails) {
  Bytes two{1, 2};
  CdrReader r(two, ByteOrder::kLittleEndian);
  EXPECT_TRUE(r.read_u8().ok());
  EXPECT_TRUE(r.read_u8().ok());
  auto v = r.read_u8();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error(), CdrErr::kOutOfBounds);
}

TEST(CdrBoundsTest, TruncatedU32Fails) {
  Bytes three{1, 2, 3};
  CdrReader r(three, ByteOrder::kLittleEndian);
  EXPECT_FALSE(r.read_u32().ok());
}

TEST(CdrBoundsTest, EmptyBufferFailsEverything) {
  Bytes empty;
  CdrReader r(empty, ByteOrder::kLittleEndian);
  EXPECT_FALSE(r.read_u8().ok());
  EXPECT_FALSE(r.read_u16().ok());
  EXPECT_FALSE(r.read_u32().ok());
  EXPECT_FALSE(r.read_u64().ok());
  EXPECT_FALSE(r.read_string().ok());
  EXPECT_FALSE(r.read_octet_seq().ok());
}

// Property sweep: mixed-type payloads round-trip across both byte orders.
class CdrRoundTripTest
    : public ::testing::TestWithParam<std::tuple<ByteOrder, std::uint64_t>> {};

TEST_P(CdrRoundTripTest, MixedPayloadRoundTrips) {
  const auto [order, seed] = GetParam();
  // Derive a pseudo-random payload from the seed.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  const auto u8 = static_cast<std::uint8_t>(x);
  const auto u16 = static_cast<std::uint16_t>(x >> 8);
  const auto u32 = static_cast<std::uint32_t>(x >> 16);
  const auto u64 = x ^ 0xABCDEF;
  const std::string str = "payload-" + std::to_string(seed);
  const Bytes seq(seed % 64, static_cast<std::uint8_t>(seed));

  CdrWriter w(order);
  w.write_u8(u8);
  w.write_string(str);
  w.write_u16(u16);
  w.write_octet_seq(seq);
  w.write_u32(u32);
  w.write_u64(u64);

  CdrReader r(w.buffer(), order);
  EXPECT_EQ(r.read_u8().value(), u8);
  EXPECT_EQ(r.read_string().value(), str);
  EXPECT_EQ(r.read_u16().value(), u16);
  EXPECT_EQ(r.read_octet_seq().value(), seq);
  EXPECT_EQ(r.read_u32().value(), u32);
  EXPECT_EQ(r.read_u64().value(), u64);
  EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CdrRoundTripTest,
    ::testing::Combine(::testing::Values(ByteOrder::kLittleEndian,
                                         ByteOrder::kBigEndian),
                       ::testing::Values(0u, 1u, 7u, 13u, 52u, 255u, 1000u)));

}  // namespace
}  // namespace mead::giop
