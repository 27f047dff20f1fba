#include "common/fp16.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/rng.h"

namespace turbo {
namespace {

TEST(Fp16Test, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(round_to_fp16(f), f) << "integer " << i;
  }
}

TEST(Fp16Test, KnownBitPatterns) {
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000);
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3c00);
  EXPECT_EQ(float_to_half_bits(-1.0f), 0xbc00);
  EXPECT_EQ(float_to_half_bits(2.0f), 0x4000);
  EXPECT_EQ(float_to_half_bits(0.5f), 0x3800);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7bff);  // max finite half
}

TEST(Fp16Test, RoundTripHalfBits) {
  // Every finite half value must round-trip exactly through float.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = half_bits_to_float(h);
    if (std::isnan(f)) continue;  // NaN payloads need not be preserved
    EXPECT_EQ(float_to_half_bits(f), h) << "bits 0x" << std::hex << bits;
  }
}

TEST(Fp16Test, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(round_to_fp16(1.0e6f)));
  EXPECT_TRUE(std::isinf(round_to_fp16(-1.0e6f)));
  EXPECT_LT(round_to_fp16(-1.0e6f), 0.0f);
  // 65520 is the rounding boundary: everything >= it overflows.
  EXPECT_TRUE(std::isinf(round_to_fp16(65520.0f)));
  EXPECT_EQ(round_to_fp16(65519.0f), 65504.0f);
}

TEST(Fp16Test, UnderflowToZero) {
  EXPECT_EQ(round_to_fp16(1.0e-10f), 0.0f);
  // Smallest subnormal half is 2^-24 ~= 5.96e-8.
  EXPECT_GT(round_to_fp16(6.0e-8f), 0.0f);
}

TEST(Fp16Test, SubnormalValues) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest subnormal
  EXPECT_EQ(round_to_fp16(tiny), tiny);
  const float sub = std::ldexp(3.0f, -24);
  EXPECT_EQ(round_to_fp16(sub), sub);
}

TEST(Fp16Test, RoundToNearestEven) {
  // 2049 is halfway between 2048 and 2050 in half precision; RNE picks
  // the even mantissa (2048).
  EXPECT_EQ(round_to_fp16(2049.0f), 2048.0f);
  EXPECT_EQ(round_to_fp16(2051.0f), 2052.0f);
}

TEST(Fp16Test, RelativeErrorBound) {
  // Max relative rounding error of binary16 normals is 2^-11.
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float x =
        static_cast<float>(rng.normal(0.0, 100.0));
    if (x == 0.0f) continue;
    const float r = round_to_fp16(x);
    EXPECT_LE(std::abs(r - x) / std::abs(x), 1.0 / 2048.0 + 1e-7)
        << "value " << x;
  }
}

TEST(Fp16Test, NanPropagates) {
  // Every NaN rounds to the one canonical NaN of its sign: quiet, no
  // payload. Signalling NaNs and payload bits must not leak through on
  // either path (F16C would keep the payload's top bits).
  for (const std::uint32_t bits :
       {0x7fc00000u, 0x7f800001u, 0x7fa00000u, 0x7fffffffu, 0x7fc12345u,
        0xffc00000u, 0xff800001u, 0xffffffffu}) {
    const float nan = std::bit_cast<float>(bits);
    const std::uint32_t sign = bits & 0x80000000u;
    SCOPED_TRACE(::testing::Message() << "input 0x" << std::hex << bits);
    EXPECT_EQ(float_to_half_bits(nan), (sign >> 16) | 0x7e00u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(round_to_fp16(nan)),
              sign | 0x7fc00000u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(round_to_fp16_soft(nan)),
              sign | 0x7fc00000u);
    std::vector<float> span(11, nan);
    round_span_to_fp16(span);
    for (const float v : span) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v), sign | 0x7fc00000u);
    }
    if (cpu_has_f16c()) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(round_to_fp16_f16c(nan)),
                sign | 0x7fc00000u);
    }
  }
}

TEST(Fp16Test, InfinityPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(round_to_fp16(inf)));
  EXPECT_TRUE(std::isinf(round_to_fp16(-inf)));
  EXPECT_LT(round_to_fp16(-inf), 0.0f);
}

TEST(Fp16Test, Fp16ValueType) {
  const Fp16 a(1.5f);
  const Fp16 b(2.5f);
  EXPECT_EQ((a + b).to_float(), 4.0f);
  EXPECT_EQ((b - a).to_float(), 1.0f);
  EXPECT_EQ((a * b).to_float(), 3.75f);
  EXPECT_EQ((b / a).to_float(), round_to_fp16(2.5f / 1.5f));
  EXPECT_EQ(Fp16::from_bits(0x3c00).to_float(), 1.0f);
}

TEST(Fp16Test, DotProductAccumulatesInFp32) {
  // Sum of 4096 copies of 1.0005: FP16 inputs round to 1.0 + 2^-11-ish,
  // but the accumulation must not saturate at FP16 max.
  std::vector<float> a(70000, 1.0f);
  std::vector<float> b(70000, 1.0f);
  const float dot = fp16_dot_fp32_accumulate(a, b);
  EXPECT_EQ(dot, 70000.0f);  // would be inf if accumulated in FP16
}

TEST(Fp16Test, RoundSpanInPlace) {
  std::vector<float> v{1.0f, 1.0005f, -3.14159f, 65519.0f};
  round_span_to_fp16(v);
  for (float x : v) {
    EXPECT_EQ(x, round_to_fp16(x));  // idempotent
  }
}

// --- F16C path parity ------------------------------------------------------

// Inputs for the parity tests: a strided sweep of all 2^32 float bit
// patterns, plus every pattern of the top 19 bits with the low 13 bits
// just below, on and above a binary16 rounding tie (the bits F16C and the
// software encoder could disagree on).
std::vector<std::uint32_t> parity_inputs() {
  std::vector<std::uint32_t> in;
  constexpr std::uint64_t kStride = 4093;  // prime: hits every low-bit mix
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += kStride) {
    in.push_back(static_cast<std::uint32_t>(b));
  }
  for (std::uint32_t hi = 0; hi < (1u << 19); ++hi) {
    for (const std::uint32_t lo : {0x0fffu, 0x1000u, 0x1001u}) {
      in.push_back((hi << 13) | lo);
    }
  }
  in.push_back(0xffffffffu);
  return in;
}

TEST(Fp16F16cTest, ScalarMatchesSoftwareBitForBit) {
  if (!cpu_has_f16c()) GTEST_SKIP() << "CPU lacks F16C";
  std::size_t mismatches = 0;
  for (const std::uint32_t bits : parity_inputs()) {
    const float f = std::bit_cast<float>(bits);
    const std::uint32_t soft = std::bit_cast<std::uint32_t>(round_to_fp16_soft(f));
    const std::uint32_t hw = std::bit_cast<std::uint32_t>(round_to_fp16_f16c(f));
    if (soft != hw && ++mismatches <= 10) {
      ADD_FAILURE() << "input 0x" << std::hex << bits << ": software 0x"
                    << soft << ", F16C 0x" << hw;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Fp16F16cTest, SpanMatchesSoftwareBitForBit) {
  if (!cpu_has_f16c()) GTEST_SKIP() << "CPU lacks F16C";
  const std::vector<std::uint32_t> in = parity_inputs();
  std::vector<float> soft(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    soft[i] = std::bit_cast<float>(in[i]);
  }
  std::vector<float> hw = soft;
  round_span_to_fp16_soft(soft);
  // Ragged chunk lengths exercise the 8-lane body and the scalar tail.
  std::size_t pos = 0;
  for (std::size_t len = 0; pos < hw.size(); len = (len + 1) % 20) {
    const std::size_t n = std::min(len, hw.size() - pos);
    round_span_to_fp16_f16c(std::span<float>(hw).subspan(pos, n));
    pos += n;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(soft[i]) !=
            std::bit_cast<std::uint32_t>(hw[i]) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "input 0x" << std::hex << in[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace turbo
