#include "quant/packing.h"

#include <algorithm>
#include <memory>
#include <span>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace turbo {
namespace {

TEST(PackingTest, ByteCounts) {
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt2), 2u);
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt4), 4u);
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt3), 3u);
  EXPECT_EQ(packed_byte_count(3, BitWidth::kInt4), 2u);  // rounds up
  EXPECT_EQ(packed_byte_count(0, BitWidth::kInt2), 0u);
}

TEST(PackingTest, Int4KnownLayout) {
  std::vector<std::uint8_t> codes{0x1, 0xf};
  const auto packed = pack_codes(codes, BitWidth::kInt4);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0xf1);  // little-endian within the byte
}

TEST(PackingTest, Int2KnownLayout) {
  std::vector<std::uint8_t> codes{0x3, 0x0, 0x1, 0x2};
  const auto packed = pack_codes(codes, BitWidth::kInt2);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0b10010011);
}

class PackingRoundTrip
    : public ::testing::TestWithParam<std::tuple<BitWidth, std::size_t>> {};

TEST_P(PackingRoundTrip, RoundTripsExactly) {
  const auto [bits, count] = GetParam();
  Rng rng(static_cast<std::uint64_t>(count) * 31 +
          static_cast<std::uint64_t>(bit_count(bits)));
  std::vector<std::uint8_t> codes(count);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.uniform_index(level_count(bits)));
  }
  const auto packed = pack_codes(codes, bits);
  EXPECT_EQ(packed.size(), packed_byte_count(count, bits));
  const auto back = unpack_codes(packed, bits, count);
  EXPECT_EQ(back, codes);
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAndSizes, PackingRoundTrip,
    ::testing::Combine(::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                         BitWidth::kInt4),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{8}, std::size_t{64},
                                         std::size_t{1000})));

class WholeByteUnpack
    : public ::testing::TestWithParam<std::tuple<BitWidth, std::size_t>> {};

TEST_P(WholeByteUnpack, MatchesBitLoop) {
  const auto [bits, count] = GetParam();
  Rng rng(count * 7 + static_cast<std::size_t>(bit_count(bits)));
  std::vector<std::uint8_t> codes(count);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.uniform_index(level_count(bits)));
  }
  const std::vector<std::uint8_t> packed = pack_codes(codes, bits);
  // An allocation of exactly packed_byte_count bytes, so ASan flags any
  // read past it (a vector's spare capacity would hide one).
  const std::size_t n_packed = packed_byte_count(count, bits);
  ASSERT_EQ(packed.size(), n_packed);
  const auto exact = std::make_unique<std::uint8_t[]>(n_packed);
  std::copy(packed.begin(), packed.end(), exact.get());
  const std::span<const std::uint8_t> in(exact.get(), n_packed);

  // Output slack past `count` must stay untouched.
  constexpr std::uint8_t kCanary = 0xa5;
  std::vector<std::uint8_t> fast(count + 4, kCanary);
  std::vector<std::uint8_t> general(count + 4, kCanary);
  unpack_codes(in, bits, count, fast);
  unpack_codes_bitwise(in, bits, count, general);
  EXPECT_EQ(fast, general);
  EXPECT_TRUE(std::equal(codes.begin(), codes.end(), fast.begin()));
  for (std::size_t i = count; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], kCanary) << "wrote past count at " << i;
  }
}

// Counts 0 and 1, one short of a full byte (per-byte - 1), a full byte,
// and ragged tails of every length on larger buffers.
INSTANTIATE_TEST_SUITE_P(
    Int4, WholeByteUnpack,
    ::testing::Combine(::testing::Values(BitWidth::kInt4),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{63}, std::size_t{64},
                                         std::size_t{1001})));
INSTANTIATE_TEST_SUITE_P(
    Int2, WholeByteUnpack,
    ::testing::Combine(::testing::Values(BitWidth::kInt2),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{6},
                                         std::size_t{7}, std::size_t{64},
                                         std::size_t{1001},
                                         std::size_t{1002},
                                         std::size_t{1003})));

TEST(PackingTest, UnpackRejectsShortBuffers) {
  const std::vector<std::uint8_t> packed(3, 0xff);
  std::vector<std::uint8_t> out(16);
  // 7 INT4 codes need 4 bytes; 13 INT2 codes need 4 bytes.
  EXPECT_THROW(unpack_codes(packed, BitWidth::kInt4, 7, out), CheckError);
  EXPECT_THROW(unpack_codes(packed, BitWidth::kInt2, 13, out), CheckError);
  EXPECT_THROW(unpack_codes(packed, BitWidth::kInt4, 6, std::span(out).first(5)),
               CheckError);
}

TEST(PackingTest, StraddlingByteBoundaries) {
  // 3-bit codes straddle byte boundaries; all-max codes stress the carry.
  std::vector<std::uint8_t> codes(17, 0x7);
  const auto packed = pack_codes(codes, BitWidth::kInt3);
  const auto back = unpack_codes(packed, BitWidth::kInt3, codes.size());
  EXPECT_EQ(back, codes);
}

TEST(PackingTest, CompressionRatioInt2) {
  std::vector<std::uint8_t> codes(256, 0x2);
  const auto packed = pack_codes(codes, BitWidth::kInt2);
  EXPECT_EQ(packed.size(), 64u);  // 4x over one-byte-per-code
}

}  // namespace
}  // namespace turbo
