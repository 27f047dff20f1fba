#include "quant/symmetric.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/numeric.h"

#if TURBO_X86
#include <immintrin.h>
#endif

namespace turbo {

namespace {

void quantize_portable(const float* x, std::size_t n, float inv,
                       std::int8_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = clamp_to_i8(x[i] * inv);
}

#if TURBO_X86
// clamp_to_i8(x * inv), 8 lanes at a time. vroundps in the current
// rounding direction is nearbyint; max/min return their second operand
// when the first is NaN, so NaN lanes are masked to 0 explicitly.
__attribute__((target("avx2"))) void quantize_avx2(const float* x,
                                                   std::size_t n, float inv,
                                                   std::int8_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    const __m256 nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    __m256 r = _mm256_round_ps(v, _MM_FROUND_CUR_DIRECTION);
    r = _mm256_andnot_ps(nan, _mm256_min_ps(_mm256_max_ps(r, lo), hi));
    const __m256i w = _mm256_cvtps_epi32(r);
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(w),
                                        _mm256_extracti128_si256(w, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(w16, w16));
  }
  quantize_portable(x + i, n - i, inv, out + i);
}
#else
constexpr auto quantize_avx2 = quantize_portable;
#endif

}  // namespace

float symmetric_scale_int8(std::span<const float> values, float headroom) {
  TURBO_CHECK(headroom > 0.0f);
  float amax = 0.0f;
  for (float v : values) amax = std::max(amax, std::abs(v));
  TURBO_CHECK_FINITE(amax);
  if (amax == 0.0f) return 1.0f;  // arbitrary positive scale for zero input
  return amax / headroom;
}

void quantize_symmetric_int8(std::span<const float> values, float scale,
                             std::span<std::int8_t> out) {
  quantize_symmetric_int8(values, scale, out, cpu_has_avx2());
}

void quantize_symmetric_int8(std::span<const float> values, float scale,
                             std::span<std::int8_t> out, bool avx2) {
  TURBO_CHECK(values.size() == out.size());
  TURBO_CHECK(scale > 0.0f);
  TURBO_CHECK_FINITE(scale);
  const float inv = 1.0f / scale;
  (avx2 ? quantize_avx2 : quantize_portable)(values.data(), values.size(),
                                             inv, out.data());
}

void dequantize_symmetric_int8(std::span<const std::int8_t> q, float scale,
                               std::span<float> out) {
  TURBO_CHECK(q.size() == out.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
}

Int8Tile quantize_tile_int8(const MatrixF& tile, float headroom) {
  const float scale = symmetric_scale_int8(tile.flat(), headroom);
  return quantize_tile_int8_with_scale(tile, scale);
}

Int8Tile quantize_tile_int8_with_scale(const MatrixF& tile, float scale) {
  Int8Tile out;
  out.scale = scale;
  out.q = MatrixI8(tile.rows(), tile.cols());
  quantize_symmetric_int8(tile.flat(), scale, out.q.flat());
  return out;
}

MatrixF dequantize_tile(const Int8Tile& tile) {
  MatrixF out(tile.q.rows(), tile.q.cols());
  dequantize_symmetric_int8(tile.q.flat(), tile.scale, out.flat());
  return out;
}

}  // namespace turbo
