#include "common/fp16.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace turbo {

std::uint16_t float_to_half_bits(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness by setting a mantissa bit.
    const std::uint32_t mantissa = (abs > 0x7f800000u) ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | mantissa);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a value >= 2^16 - 2^4: overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero). Shift the implicit bit into the mantissa.
    if (abs < 0x33000000u) {
      // Smaller than half the smallest subnormal: rounds to zero.
      return static_cast<std::uint16_t>(sign);
    }
    const std::uint32_t exp = abs >> 23;
    std::uint32_t mantissa = (abs & 0x007fffffu) | 0x00800000u;
    // The target subnormal code is round(value / 2^-24) = round(M * 2^(e-126))
    // with M the 24-bit mantissa, so drop (126 - e) bits, in [14, 24].
    const std::uint32_t dropped = 126u - exp;
    const std::uint32_t half_ulp = 1u << (dropped - 1);
    const std::uint32_t rem = mantissa & ((1u << dropped) - 1u);
    mantissa >>= dropped;
    if (rem > half_ulp || (rem == half_ulp && (mantissa & 1u))) {
      ++mantissa;
    }
    return static_cast<std::uint16_t>(sign | mantissa);
  }
  // Normal half. Re-bias the exponent (127 -> 15) and round the mantissa.
  std::uint32_t half = ((abs >> 13) & 0x3ffu) | (((abs >> 23) - 112u) << 10);
  const std::uint32_t rem = abs & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
    ++half;  // May carry into the exponent; that is correct rounding.
  }
  return static_cast<std::uint16_t>(sign | half);
}

float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mantissa = h & 0x3ffu;

  std::uint32_t out;
  if (exp == 0) {
    if (mantissa == 0) {
      out = sign;  // +-0
    } else {
      // Subnormal: normalize into a float.
      int e = -1;
      std::uint32_t m = mantissa;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3ffu;
      out = sign | ((112u - static_cast<std::uint32_t>(e)) << 23) | (m << 13);
    }
  } else if (exp == 0x1fu) {
    out = sign | 0x7f800000u | (mantissa << 13);  // Inf / NaN
  } else {
    out = sign | ((exp + 112u) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(out);
}

void round_span_to_fp16_soft(std::span<float> values) {
  for (float& v : values) {
    v = round_to_fp16_soft(v);
  }
}

#if TURBO_X86
__attribute__((target("f16c"))) void round_span_to_fp16_f16c(
    std::span<float> values) {
  float* p = values.data();
  const std::size_t n = values.size();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 qnan = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc00000));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(p + i);
    const __m256 r = _mm256_cvtph_ps(
        _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
    // canonical_fp16_nan, lane-wise.
    const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    const __m256 canon = _mm256_or_ps(_mm256_and_ps(x, sign), qnan);
    _mm256_storeu_ps(p + i, _mm256_blendv_ps(r, canon, nan));
  }
  for (; i < n; ++i) p[i] = round_to_fp16_f16c(p[i]);
}
#else
void round_span_to_fp16_f16c(std::span<float> values) {
  round_span_to_fp16_soft(values);
}
#endif

void round_span_to_fp16(std::span<float> values) {
  if (cpu_has_f16c()) {
    round_span_to_fp16_f16c(values);
  } else {
    round_span_to_fp16_soft(values);
  }
}

float fp16_dot_fp32_accumulate(std::span<const float> a,
                               std::span<const float> b) {
  TURBO_CHECK(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += round_to_fp16(a[i]) * round_to_fp16(b[i]);
  }
  return acc;
}

}  // namespace turbo
