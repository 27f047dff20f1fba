#include "softmax/sas.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/fp16.h"
#include "common/stats.h"
#include "softmax/softmax.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

TEST(SasTest, PolyApproximatesExpOnUnitInterval) {
  // Figure 5's claim: the degree-3 fit tracks e^{-t} closely on [0, 1].
  double max_err = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const float t = static_cast<float>(i) / 1000.0f;
    const double err = std::abs(Sas::poly(t) - std::exp(-t));
    max_err = std::max(max_err, err);
  }
  EXPECT_LT(max_err, 5e-4);
}

TEST(SasTest, PolyFp16CloseToPolyFp32) {
  for (int i = 0; i <= 100; ++i) {
    const float t = static_cast<float>(i) / 100.0f;
    EXPECT_NEAR(Sas::poly_fp16(t), Sas::poly(t), 3e-3f) << "t=" << t;
  }
}

TEST(SasTest, LutHoldsNegativePowersOfE) {
  const Sas sas(SasConfig{.threshold = -6, .fp16_arithmetic = false});
  const auto lut = sas.lut();
  ASSERT_EQ(lut.size(), 8u);  // e^0..e^-6 plus the zero sentinel
  for (int i = 0; i <= 6; ++i) {
    EXPECT_NEAR(lut[static_cast<std::size_t>(i)],
                std::exp(static_cast<float>(-i)), 1e-6f);
  }
  EXPECT_EQ(lut.back(), 0.0f);
}

TEST(SasTest, SparsificationBelowThreshold) {
  const Sas sas;
  EXPECT_EQ(sas.exp_neg(-6.5f), 0.0f);
  EXPECT_EQ(sas.exp_neg(-100.0f), 0.0f);
  EXPECT_EQ(sas.exp_neg(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_GT(sas.exp_neg(-5.9f), 0.0f);
}

TEST(SasTest, ExactThresholdIsNotSparsified) {
  // Sparsification is x < threshold, strictly: the boundary score itself
  // still contributes e^{threshold} (Algorithm 3 keeps X >= n_r). A
  // regression here silently widens the sparsified tail by one LUT bucket.
  for (const int threshold : {-4, -6, -8}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const Sas sas(SasConfig{.threshold = threshold,
                            .fp16_arithmetic = false});
    const float x = static_cast<float>(threshold);
    EXPECT_GT(sas.exp_neg(x), 0.0f);
    // y_dec == 0 at the boundary, so the result is LUT[|threshold|] times
    // poly(0) = c0 — within the polynomial's fit error of e^{threshold}.
    EXPECT_NEAR(sas.exp_neg(x), std::exp(x), 5e-4f * std::exp(x) + 1e-6f);
    // One ULP below the boundary is sparsified to exactly zero.
    const float below =
        std::nextafter(x, -std::numeric_limits<float>::infinity());
    EXPECT_EQ(sas.exp_neg(below), 0.0f);
  }
}

TEST(SasTest, SentinelBucketYieldsExactZero) {
  // The LUT carries |threshold| + 2 entries: e^0 .. e^{threshold} plus one
  // zero sentinel so the branch-free indexed path (Algorithm 3 rewrites
  // X[X < n_r] to bucket n_r + 1) needs no comparison. The sentinel must
  // be exactly 0.0 — any epsilon leaks mass into the sparsified tail and
  // breaks the softmax normalization accounting.
  for (const int threshold : {-4, -6, -8}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const Sas sas(SasConfig{.threshold = threshold});
    const auto lut = sas.lut();
    const std::size_t n = static_cast<std::size_t>(-threshold);
    ASSERT_EQ(lut.size(), n + 2);
    EXPECT_EQ(lut[n + 1], 0.0f);
    // The sentinel annihilates whatever the polynomial produces, exactly:
    // T[n_r + 1] * poly(t) == 0 for any fractional part t.
    for (const float t : {0.0f, 0.25f, 0.5f, 0.999f}) {
      EXPECT_EQ(lut[n + 1] * Sas::poly(t), 0.0f);
      EXPECT_EQ(lut[n + 1] * Sas::poly_fp16(t), 0.0f);
    }
    // All real buckets are strictly positive, so zero uniquely marks the
    // sparsified bucket.
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_GT(lut[i], 0.0f);
    }
  }
}

TEST(SasTest, ApproximationErrorWithinRange) {
  const Sas sas;
  for (int i = 0; i <= 600; ++i) {
    const float x = -static_cast<float>(i) / 100.0f;  // [-6, 0]
    const float approx = sas.exp_neg(x);
    const float exact = std::exp(x);
    // Absolute error: POLY error (~5e-4) + FP16 rounding of values <= 1.
    EXPECT_NEAR(approx, exact, 2.5e-3f) << "x=" << x;
  }
}

TEST(SasTest, PositiveInputsClampToOne) {
  const Sas sas;
  // Rounding noise can push shifted scores slightly above 0.
  EXPECT_NEAR(sas.exp_neg(0.001f), 1.0f, 2e-3f);
  EXPECT_NEAR(sas.exp_neg(0.0f), 1.0f, 2e-3f);
}

TEST(SasTest, ExactModeBypassesApproximation) {
  const Sas sas(SasConfig{.exact_exp = true});
  for (float x : {-0.3f, -2.7f, -10.0f, -50.0f}) {
    EXPECT_FLOAT_EQ(sas.exp_neg(x), std::exp(x));
  }
}

TEST(SasTest, SoftmaxSumsToOne) {
  const Sas sas;
  const MatrixF scores = test::random_matrix(8, 64, 3, 2.0);
  const MatrixF p = sas.softmax(scores);
  for (std::size_t r = 0; r < p.rows(); ++r) {
    float sum = 0.0f;
    for (float v : p.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SasTest, SoftmaxCloseToExact) {
  const Sas sas;
  const MatrixF scores = test::random_matrix(16, 128, 7, 3.0);
  const MatrixF approx = sas.softmax(scores);
  const MatrixF exact = softmax_rows(scores);
  EXPECT_LT(max_abs_error(approx, exact), 0.03);
}

TEST(SasTest, SoftmaxSparsifiesTail) {
  const Sas sas;
  MatrixF scores(1, 4);
  scores(0, 0) = 0.0f;
  scores(0, 1) = -1.0f;
  scores(0, 2) = -20.0f;  // far below threshold after shift
  scores(0, 3) = -30.0f;
  const MatrixF p = sas.softmax(scores);
  EXPECT_EQ(p(0, 2), 0.0f);
  EXPECT_EQ(p(0, 3), 0.0f);
  EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(SasTest, ArgmaxPreserved) {
  // SAS must never flip the ranking of well separated scores.
  const Sas sas;
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    MatrixF scores(1, 16);
    for (float& v : scores.flat()) {
      v = static_cast<float>(rng.normal(0.0, 2.0));
    }
    // Skip near-ties: SAS's ~2e-3 absolute error can legitimately flip
    // scores separated by less than its error band.
    float top = -1e30f;
    float second = -1e30f;
    for (float v : scores.flat()) {
      if (v > top) {
        second = top;
        top = v;
      } else if (v > second) {
        second = v;
      }
    }
    if (top - second < 0.05f) continue;

    const MatrixF pa = sas.softmax(scores);
    const MatrixF pe = softmax_rows(scores);
    std::size_t arg_a = 0;
    std::size_t arg_e = 0;
    for (std::size_t c = 1; c < 16; ++c) {
      if (pa(0, c) > pa(0, arg_a)) arg_a = c;
      if (pe(0, c) > pe(0, arg_e)) arg_e = c;
    }
    EXPECT_EQ(arg_a, arg_e) << "trial " << trial;
  }
}

class SasThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SasThresholdSweep, TighterThresholdLargerError) {
  const int threshold = GetParam();
  const Sas sas(SasConfig{.threshold = threshold});
  // Total probability mass wrongly zeroed is bounded by
  // n * e^{threshold} after normalization.
  const MatrixF scores = test::random_matrix(4, 256, 13, 3.0);
  const MatrixF approx = sas.softmax(scores);
  const MatrixF exact = softmax_rows(scores);
  const double bound =
      256.0 * std::exp(static_cast<double>(threshold)) + 6e-3;
  EXPECT_LT(max_abs_error(approx, exact), bound) << "n_r=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SasThresholdSweep,
                         ::testing::Values(-4, -6, -8, -12));

TEST(SasTest, NanInputReturnsQuietNan) {
  // Every config and path maps a NaN score to the same quiet NaN, so it
  // propagates into the row sum instead of indexing the LUT.
  const std::uint32_t qnan =
      std::bit_cast<std::uint32_t>(std::numeric_limits<float>::quiet_NaN());
  for (const SasConfig config :
       {SasConfig{}, SasConfig{.fp16_arithmetic = false},
        SasConfig{.exact_exp = true}, SasConfig{.threshold = -12}}) {
    const Sas sas(config);
    for (const std::uint32_t bits :
         {0x7fc00000u, 0xffc00000u, 0x7f800001u, 0x7fc12345u}) {
      const float nan = std::bit_cast<float>(bits);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(sas.exp_neg(nan)), qnan);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(
                    sas.exp_neg(nan, Sas::Path::kReference)),
                qnan);
      std::vector<float> span(9, nan);
      sas.apply(span);
      for (const float v : span) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(v), qnan);
      }
    }
  }
}

TEST(SasTest, PathFollowsCpuAndConfig) {
  // Without FP16 rounding there is nothing to accelerate.
  EXPECT_EQ(Sas(SasConfig{.fp16_arithmetic = false}).path(),
            Sas::Path::kReference);
  EXPECT_EQ(Sas(SasConfig{.exact_exp = true}).path(), Sas::Path::kReference);
  if (!cpu_has_f16c()) {
    EXPECT_EQ(Sas().path(), Sas::Path::kReference);
    return;
  }
  // The 8-lane path needs AVX2 and a LUT (|threshold| + 2) of <= 8.
  const Sas::Path wide =
      cpu_has_avx2() ? Sas::Path::kAvx2 : Sas::Path::kF16c;
  EXPECT_EQ(Sas(SasConfig{.threshold = -6}).path(), wide);
  EXPECT_EQ(Sas(SasConfig{.threshold = -1}).path(), wide);
  EXPECT_EQ(Sas(SasConfig{.threshold = -7}).path(), Sas::Path::kF16c);
}

// --- Path parity ------------------------------------------------------------

// Scores that hit every fp16 fractional part in every LUT bucket
// (including the sentinel bucket past the threshold), plus the edges:
// the threshold and one ULP either side, x > 0, signed zeros, infinities.
std::vector<float> parity_scores(int threshold) {
  std::vector<float> x;
  const int buckets = -threshold + 2;
  for (int b = 0; b < buckets; ++b) {
    for (std::uint32_t h = 0; h < 0x3c00u; ++h) {  // fp16 values in [0, 1)
      const float frac = half_bits_to_float(static_cast<std::uint16_t>(h));
      x.push_back(-(static_cast<float>(b) + frac));
    }
  }
  const float thr = static_cast<float>(threshold);
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v :
       {thr, std::nextafter(thr, -inf), std::nextafter(thr, inf), 0.0f,
        -0.0f, 1e-7f, 0.001f, 3.5f, 1e30f, inf, -inf,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), -1e30f}) {
    x.push_back(v);
  }
  return x;
}

void expect_same_bits(std::span<const float> want, std::span<const float> got,
                      std::span<const float> in, const char* path) {
  ASSERT_EQ(want.size(), got.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(want[i]) !=
            std::bit_cast<std::uint32_t>(got[i]) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << path << ": x=" << in[i] << " reference " << want[i]
                    << ", got " << got[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << path;
}

class SasPathParity : public ::testing::TestWithParam<int> {};

TEST_P(SasPathParity, FastPathsMatchReferenceBitForBit) {
  if (!cpu_has_f16c()) GTEST_SKIP() << "CPU lacks F16C";
  const Sas sas(SasConfig{.threshold = GetParam()});
  const std::vector<float> x = parity_scores(GetParam());
  std::vector<float> want(x.size());
  std::vector<float> scalar(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    want[i] = sas.exp_neg(x[i], Sas::Path::kReference);
    scalar[i] = sas.exp_neg(x[i], Sas::Path::kF16c);
  }
  expect_same_bits(want, scalar, x, "F16C exp_neg");

  std::vector<float> reference_apply = x;
  sas.apply(reference_apply, Sas::Path::kReference);
  expect_same_bits(want, reference_apply, x, "reference apply");

  // The widest path this CPU runs, over ragged chunks so that both the
  // 8-lane body and the scalar tail see every kind of input.
  std::vector<float> fast = x;
  std::size_t pos = 0;
  for (std::size_t len = 0; pos < fast.size(); len = (len + 3) % 29) {
    const std::size_t n = std::min(len, fast.size() - pos);
    sas.apply(std::span<float>(fast).subspan(pos, n));
    pos += n;
  }
  expect_same_bits(want, fast, x, "apply");
}

// -6 is the paper default (AVX2 path); -1 and -4 also fit one register;
// -7 and -12 do not and stay on the scalar F16C path.
INSTANTIATE_TEST_SUITE_P(Thresholds, SasPathParity,
                         ::testing::Values(-1, -4, -6, -7, -12));

TEST(SasTest, InvalidThresholdThrows) {
  EXPECT_THROW(Sas(SasConfig{.threshold = 0}), CheckError);
  EXPECT_THROW(Sas(SasConfig{.threshold = 3}), CheckError);
}

}  // namespace
}  // namespace turbo
