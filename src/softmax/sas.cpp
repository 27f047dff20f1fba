#include "softmax/sas.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/fp16.h"

namespace turbo {

namespace {
// Least-squares coefficients from Eq. 15 (highest degree first).
constexpr float kC3 = -0.1025f;
constexpr float kC2 = 0.4626f;
constexpr float kC1 = -0.9922f;
constexpr float kC0 = 0.9996f;

// Lanes of the AVX2 path; the LUT must fit one register of them.
constexpr std::size_t kLanes = 8;

// POLY with each multiply-accumulate rounded through binary16 by `Round`,
// as an FP16 tensor-core MAC chain would.
template <float (*Round)(float)>
[[gnu::always_inline]] inline float poly_rounded(float t) {
  const float t16 = Round(t);
  float acc = Round(kC3);
  acc = Round(acc * t16);
  acc = Round(acc + Round(kC2));
  acc = Round(acc * t16);
  acc = Round(acc + Round(kC1));
  acc = Round(acc * t16);
  acc = Round(acc + Round(kC0));
  return acc;
}

// Algorithm 3 for one element, rounding through binary16 with `Round`.
// Every path runs this body (the AVX2 path lane-wise), which is what
// makes their results bit-identical.
template <float (*Round)(float)>
[[gnu::always_inline]] inline float exp_neg_with(
    float x, const SasConfig& config, const std::vector<float>& lut) {
  // A NaN would reach static_cast<int> below, which is undefined.
  if (x != x) return std::numeric_limits<float>::quiet_NaN();
  if (x > 0.0f) x = 0.0f;  // FP16 rounding noise can push shifted scores > 0
  if (config.exact_exp) return std::exp(x);
  if (x < static_cast<float>(config.threshold)) return 0.0f;

  const float y = -x;  // y in [0, |threshold|]
  const int y_int = static_cast<int>(y);
  const float y_dec = y - static_cast<float>(y_int);

  const float lut_v = lut[static_cast<std::size_t>(y_int)];
  const float poly_v =
      config.fp16_arithmetic ? poly_rounded<Round>(y_dec) : Sas::poly(y_dec);
  const float prod = lut_v * poly_v;
  return config.fp16_arithmetic ? Round(prod) : prod;
}

#if TURBO_X86
__attribute__((target("f16c"))) inline __m256 round8_fp16(__m256 v) {
  return _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
}
#endif

}  // namespace

Sas::Sas(SasConfig config) : config_(config) {
  TURBO_CHECK_MSG(config_.threshold < 0,
                  "SAS threshold must be negative, got "
                      << config_.threshold);
  // LUT[i] = e^{-i} for i = 0 .. |threshold|; one sentinel 0 entry past the
  // end so the sparsified bucket (Algorithm 3 sets X[X < n_r] = n_r + 1,
  // i.e. T[n_r + 1] = 0) needs no branch in the indexed path.
  const int n = -config_.threshold;
  lut_.resize(static_cast<std::size_t>(n) + 2);
  for (int i = 0; i <= n; ++i) {
    float v = std::exp(static_cast<float>(-i));
    if (config_.fp16_arithmetic) v = round_to_fp16(v);
    lut_[static_cast<std::size_t>(i)] = v;
  }
  lut_.back() = 0.0f;

  // Without FP16 rounding there is nothing for F16C to speed up.
  if (config_.fp16_arithmetic && !config_.exact_exp && cpu_has_f16c()) {
    path_ = cpu_has_avx2() && lut_.size() <= kLanes ? Path::kAvx2
                                                    : Path::kF16c;
  }
}

float Sas::poly(float t) {
  // Horner's scheme.
  return ((kC3 * t + kC2) * t + kC1) * t + kC0;
}

float Sas::poly_fp16(float t) { return poly_rounded<round_to_fp16>(t); }

float Sas::exp_neg(float x, Path path) const {
  TURBO_DCHECK(path <= path_);
  if (path == Path::kReference) {
    return exp_neg_with<round_to_fp16_soft>(x, config_, lut_);
  }
  return exp_neg_f16c(x);
}

void Sas::apply(std::span<float> values, Path path) const {
  TURBO_CHECK(path <= path_);
  switch (path) {
    case Path::kReference:
      for (float& v : values) {
        v = exp_neg_with<round_to_fp16_soft>(v, config_, lut_);
      }
      return;
    case Path::kF16c:
      for (float& v : values) v = exp_neg_f16c(v);
      return;
    case Path::kAvx2:
      apply_avx2(values);
      return;
  }
}

#if TURBO_X86
__attribute__((target("f16c"))) float Sas::exp_neg_f16c(float x) const {
  return exp_neg_with<round_to_fp16_f16c>(x, config_, lut_);
}

// exp_neg_with, 8 lanes at a time. Each step is the scalar body's float
// operation on the same operands, so each lane gets the scalar bits:
// the LUT lookup is one vpermps, and the branches become masks applied in
// the scalar body's order (NaN, x > 0, sparsified).
__attribute__((target("avx2,f16c"))) void Sas::apply_avx2(
    std::span<float> values) const {
  TURBO_DCHECK(path_ == Path::kAvx2);
  alignas(32) float lut8[kLanes] = {};
  std::copy(lut_.begin(), lut_.end(), lut8);
  const __m256 lut = _mm256_load_ps(lut8);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 qnan = _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN());
  const __m256 threshold =
      _mm256_set1_ps(static_cast<float>(config_.threshold));
  const __m256 c3 = _mm256_set1_ps(round_to_fp16_f16c(kC3));
  const __m256 c2 = _mm256_set1_ps(round_to_fp16_f16c(kC2));
  const __m256 c1 = _mm256_set1_ps(round_to_fp16_f16c(kC1));
  const __m256 c0 = _mm256_set1_ps(round_to_fp16_f16c(kC0));

  float* p = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 x = _mm256_loadu_ps(p + i);
    const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    x = _mm256_blendv_ps(x, zero, _mm256_cmp_ps(x, zero, _CMP_GT_OQ));
    const __m256 sparse = _mm256_cmp_ps(x, threshold, _CMP_LT_OQ);
    const __m256 y = _mm256_xor_ps(x, sign);
    const __m256i y_int = _mm256_cvttps_epi32(y);
    const __m256 t = round8_fp16(_mm256_sub_ps(y, _mm256_cvtepi32_ps(y_int)));
    __m256 acc = round8_fp16(_mm256_mul_ps(c3, t));
    acc = round8_fp16(_mm256_add_ps(acc, c2));
    acc = round8_fp16(_mm256_mul_ps(acc, t));
    acc = round8_fp16(_mm256_add_ps(acc, c1));
    acc = round8_fp16(_mm256_mul_ps(acc, t));
    acc = round8_fp16(_mm256_add_ps(acc, c0));
    __m256 r = round8_fp16(
        _mm256_mul_ps(_mm256_permutevar8x32_ps(lut, y_int), acc));
    r = _mm256_andnot_ps(sparse, r);
    _mm256_storeu_ps(p + i, _mm256_blendv_ps(r, qnan, nan));
  }
  for (; i < n; ++i) {
    p[i] = exp_neg_with<round_to_fp16_f16c>(p[i], config_, lut_);
  }
}
#else
float Sas::exp_neg_f16c(float x) const {
  return exp_neg_with<round_to_fp16_soft>(x, config_, lut_);
}

void Sas::apply_avx2(std::span<float> values) const {
  for (float& v : values) v = exp_neg_f16c(v);
}
#endif

MatrixF Sas::softmax(const MatrixF& scores) const {
  MatrixF out(scores.rows(), scores.cols());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    auto x = scores.row(r);
    auto o = out.row(r);
    float m = x[0];
    for (float v : x) m = std::max(m, v);
    float sum = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      o[i] = exp_neg(x[i] - m);
      sum += o[i];
    }
    // The row maximum itself always contributes ~1, so sum > 0.
    const float inv = 1.0f / sum;
    for (float& v : o) v *= inv;
  }
  return out;
}

}  // namespace turbo
