// Unit tests for the byte-buffer helpers every protocol layer relies on.
#include "crypto/bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace neuropuls::crypto {
namespace {

TEST(BytesHex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(BytesHex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(BytesHex, RejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesHex, RejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(CtEqual, EqualBuffers) {
  const Bytes a = {1, 2, 3, 4};
  EXPECT_TRUE(ct_equal(a, a));
}

TEST(CtEqual, UnequalContent) {
  const Bytes a = {1, 2, 3, 4};
  const Bytes b = {1, 2, 3, 5};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, UnequalLength) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3, 0};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(CtEqual, BothEmpty) {
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(CtEqual, EmptyVsNonEmpty) {
  const Bytes a = {1};
  EXPECT_FALSE(ct_equal(a, Bytes{}));
  EXPECT_FALSE(ct_equal(Bytes{}, a));
}

TEST(CtEqual, ScansFullLengthOnEarlyMismatch) {
  // First byte differs but later bytes match: still unequal, and (by
  // construction — the loop has no exit) evaluated over the full length.
  Bytes a(1024, 0x42), b(1024, 0x42);
  b[0] ^= 0xFF;
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(SecureWipe, ZeroizesRawBuffer) {
  std::uint8_t buffer[64];
  for (auto& b : buffer) b = 0xCD;
  secure_wipe(buffer, sizeof(buffer));
  for (const auto b : buffer) EXPECT_EQ(b, 0u);
}

TEST(SecureWipe, NullAndZeroSizeAreNoOps) {
  secure_wipe(nullptr, 16);  // must not crash
  std::uint8_t one = 0xEE;
  secure_wipe(&one, 0);
  EXPECT_EQ(one, 0xEEu);  // zero-size wipe leaves the byte alone
}

TEST(SecureWipe, VectorOverloadZeroizesThenClears) {
  Bytes buffer(32, 0x99);
  const std::uint8_t* block = buffer.data();
  secure_wipe(buffer);
  EXPECT_TRUE(buffer.empty());
  // clear() keeps the allocation, so the block is still owned — and must
  // hold no residue.
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(block[i], 0u) << i;
}

TEST(SecureWipe, WorksForTriviallyCopyableElementTypes) {
  std::vector<double> activations(8, 3.14);
  secure_wipe(activations);
  EXPECT_TRUE(activations.empty());
}

TEST(XorBytes, Involution) {
  const Bytes a = {0xde, 0xad, 0xbe, 0xef};
  const Bytes b = {0x12, 0x34, 0x56, 0x78};
  EXPECT_EQ(xor_bytes(xor_bytes(a, b), b), a);
}

TEST(XorBytes, LengthMismatchThrows) {
  EXPECT_THROW(xor_bytes(Bytes{1}, Bytes{1, 2}), std::invalid_argument);
}

TEST(XorInto, MatchesXorBytes) {
  Bytes a = {0xff, 0x00, 0xaa};
  const Bytes b = {0x0f, 0xf0, 0x55};
  const Bytes expected = xor_bytes(a, b);
  xor_into(a, b);
  EXPECT_EQ(a, expected);
}

TEST(Concat, JoinsInOrder) {
  const Bytes a = {1, 2};
  const Bytes b = {3};
  const Bytes c = {4, 5, 6};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(Endian, U32RoundTrip) {
  Bytes buf(4);
  put_u32_be(buf, 0xdeadbeef);
  EXPECT_EQ(buf, (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(get_u32_be(buf), 0xdeadbeefu);
}

TEST(Endian, U64RoundTrip) {
  Bytes buf(8);
  put_u64_be(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(get_u64_be(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
}

TEST(Endian, AppendHelpers) {
  Bytes out;
  append_u32_be(out, 0x01020304);
  append_u64_be(out, 0x05060708090a0b0cULL);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(get_u32_be(out), 0x01020304u);
  EXPECT_EQ(get_u64_be(ByteView(out).subspan(4)), 0x05060708090a0b0cULL);

  append_f64_le(out, -2.5);
  append_prefixed(out, Bytes{0xaa, 0xbb});
  ASSERT_EQ(out.size(), 12u + 8u + 4u + 2u);
  EXPECT_EQ(out[12 + 7], 0xc0);  // sign and exponent byte last
  ByteReader reader(out, "blob");
  EXPECT_EQ(reader.u32(), 0x01020304u);
  EXPECT_EQ(reader.u64(), 0x05060708090a0b0cULL);
  EXPECT_EQ(reader.f64(), -2.5);
  EXPECT_EQ(reader.remaining(), 6u);
  // A count is checked against the bytes left without overflowing.
  EXPECT_EQ(reader.count(3, 2), 3u);
  EXPECT_THROW(reader.count(4, 2), std::runtime_error);
  EXPECT_THROW(reader.count(~std::uint64_t{0}, 1), std::runtime_error);
  EXPECT_TRUE(std::ranges::equal(reader.prefixed(), Bytes{0xaa, 0xbb}));
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.u8(), std::runtime_error);
  EXPECT_THROW(reader.bytes(~std::size_t{0}), std::runtime_error);
}

TEST(Hamming, IdenticalIsZero) {
  const Bytes a = {0xaa, 0x55};
  EXPECT_DOUBLE_EQ(fractional_hamming_distance(a, a), 0.0);
}

TEST(Hamming, ComplementIsOne) {
  const Bytes a = {0xaa, 0x55};
  const Bytes b = {0x55, 0xaa};
  EXPECT_DOUBLE_EQ(fractional_hamming_distance(a, b), 1.0);
}

TEST(Hamming, SingleBit) {
  const Bytes a = {0x00, 0x00};
  const Bytes b = {0x00, 0x01};
  EXPECT_DOUBLE_EQ(fractional_hamming_distance(a, b), 1.0 / 16.0);
}

TEST(Hamming, LengthMismatchThrows) {
  EXPECT_THROW(fractional_hamming_distance(Bytes{1}, Bytes{1, 2}),
               std::invalid_argument);
}

TEST(Popcount, CountsAllBytes) {
  EXPECT_EQ(popcount(Bytes{0xff, 0x0f, 0x01}), 13u);
  EXPECT_EQ(popcount(Bytes{}), 0u);
}

TEST(BytesOf, CopiesText) {
  EXPECT_EQ(bytes_of("ab"), (Bytes{'a', 'b'}));
}

}  // namespace
}  // namespace neuropuls::crypto
