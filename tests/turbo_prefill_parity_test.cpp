// The AVX2 builds of turbo_attention_prefill and quantize_symmetric_int8
// against their portable builds, bit for bit, plus the windowed prefill
// against digests recorded before KV tiles wholly outside every row's
// window were skipped.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "attention/turbo.h"
#include "common/cpu_features.h"
#include "kvcache/serialization.h"
#include "quant/symmetric.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const float f : v) out.push_back(std::bit_cast<std::uint32_t>(f));
  return out;
}

// --- quantize_symmetric_int8 ----------------------------------------------

TEST(QuantizeInt8Parity, EdgeValuesEveryTailLength) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU has no AVX2";
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> values = {
      0.0f,    -0.0f,   126.5f, -126.5f, 127.5f, -127.5f, 127.0f,  -127.0f,
      128.0f,  -128.0f, 1e9f,   -1e9f,   inf,    -inf,    nan,     -nan,
      denorm,  -denorm, 1e-39f, -1e-39f, 0.5f,   -0.5f,   1.5f,    -1.5f,
      2.5f,    -2.5f,   0.49999997f, -0.49999997f};
  for (int i = -130; i <= 130; ++i) values.push_back(static_cast<float>(i) + 0.5f);
  for (const float scale : {1.0f, 0.5f, 3.0f, 1e-30f}) {
    // Every prefix length, so every tail length 0..7 meets every value.
    for (std::size_t n = 0; n <= values.size(); ++n) {
      const std::span<const float> in(values.data(), n);
      std::vector<std::int8_t> portable(n, 99);
      std::vector<std::int8_t> avx2(n, 99);
      quantize_symmetric_int8(in, scale, portable, false);
      quantize_symmetric_int8(in, scale, avx2, true);
      ASSERT_EQ(portable, avx2) << "scale " << scale << " n " << n;
    }
  }
}

TEST(QuantizeInt8Parity, RandomTiles) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU has no AVX2";
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const MatrixF m = test::random_outlier_matrix(37, 13, seed);
    const float scale = symmetric_scale_int8(m.flat());
    std::vector<std::int8_t> portable(m.size());
    std::vector<std::int8_t> avx2(m.size());
    quantize_symmetric_int8(m.flat(), scale, portable, false);
    quantize_symmetric_int8(m.flat(), scale, avx2, true);
    ASSERT_EQ(portable, avx2) << "seed " << seed;
  }
}

// --- turbo_attention_prefill ------------------------------------------------

struct PrefillCase {
  std::size_t n_q, n_k, d, br, bc;
  bool causal = true;
  std::size_t window = 0;
  SasConfig sas = {};
};

std::ostream& operator<<(std::ostream& os, const PrefillCase& c) {
  return os << "n_q=" << c.n_q << " n_k=" << c.n_k << " d=" << c.d
            << " Br=" << c.br << " Bc=" << c.bc << " causal=" << c.causal
            << " window=" << c.window << " exact_exp=" << c.sas.exact_exp
            << " fp16=" << c.sas.fp16_arithmetic;
}

struct PrefillRun {
  std::vector<std::uint32_t> o, lse;
  std::vector<std::uint8_t> cache;
};

PrefillRun run_prefill(const PrefillCase& c, TurboPrefillScratch& scratch,
                       std::uint64_t seed = 1) {
  AttentionConfig cfg;
  cfg.block_rows = c.br;
  cfg.block_cols = c.bc;
  cfg.causal = c.causal;
  cfg.window = c.window;
  const Sas sas(c.sas);
  const MatrixF q = test::random_matrix(c.n_q, c.d, seed);
  const MatrixF k = test::random_outlier_matrix(c.n_k, c.d, seed + 1);
  const MatrixF v = test::random_outlier_matrix(c.n_k, c.d, seed + 2);
  QuantizedKvCache cache(c.d, BitWidth::kInt4, c.bc, 64);
  const TurboPrefillResult r =
      turbo_attention_prefill(q, k, v, cfg, sas, &cache, scratch);
  return {bits(r.o.flat()), bits(r.lse), serialize_cache(cache)};
}

void expect_same(const PrefillRun& a, const PrefillRun& b) {
  EXPECT_EQ(a.o, b.o);
  EXPECT_EQ(a.lse, b.lse);
  EXPECT_EQ(a.cache, b.cache);
}

std::vector<PrefillCase> prefill_cases() {
  std::vector<PrefillCase> cases;
  const std::pair<std::size_t, std::size_t> tiles[] = {
      {32, 32}, {64, 64}, {128, 128}, {32, 64}, {64, 32}, {128, 32}};
  for (const std::size_t d : {13u, 20u, 32u, 64u, 128u}) {
    for (const auto& [br, bc] : tiles) {
      cases.push_back({150, 150, d, br, bc});
    }
  }
  for (const std::size_t d : {13u, 32u}) {
    cases.push_back({150, 150, d, 64, 64, /*causal=*/false});
    cases.push_back({150, 150, d, 32, 64, true, /*window=*/40});
    cases.push_back({150, 150, d, 64, 32, false, /*window=*/70});
    cases.push_back({150, 150, d, 32, 32, true, /*window=*/1});
    // Prefix offset: the queries are the last n_q of n_k positions.
    cases.push_back({40, 170, d, 32, 64});
    cases.push_back({40, 170, d, 64, 32, true, /*window=*/50});
    // One token, and ragged last tiles on both axes.
    cases.push_back({1, 1, d, 64, 64});
    cases.push_back({1, 1, d, 64, 64, false});
    cases.push_back({97, 131, d, 32, 64, false});
    cases.push_back({131, 131, d, 128, 32});
  }
  SasConfig exact;
  exact.exact_exp = true;
  SasConfig no_fp16;
  no_fp16.fp16_arithmetic = false;
  for (const SasConfig& sas : {exact, no_fp16}) {
    cases.push_back({150, 150, 32, 64, 64, true, 0, sas});
    cases.push_back({150, 150, 20, 32, 64, true, 40, sas});
    cases.push_back({40, 170, 13, 64, 32, false, 0, sas});
  }
  return cases;
}

class PrefillParity : public ::testing::TestWithParam<PrefillCase> {};

TEST_P(PrefillParity, Avx2MatchesPortable) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU has no AVX2";
  TurboPrefillScratch portable;
  portable.avx2 = false;
  TurboPrefillScratch avx2;
  avx2.avx2 = true;
  expect_same(run_prefill(GetParam(), portable), run_prefill(GetParam(), avx2));
}

INSTANTIATE_TEST_SUITE_P(Shapes, PrefillParity,
                         ::testing::ValuesIn(prefill_cases()));

TEST(PrefillParityTest, ScratchReusedAcrossShapes) {
  // One scratch through shrinking and growing shapes on both builds: no
  // buffer left over from a larger call may leak into a smaller one.
  const PrefillCase shapes[] = {{150, 150, 128, 128, 128},
                                {40, 170, 13, 32, 64, true, 50},
                                {1, 1, 20, 64, 64},
                                {131, 131, 64, 64, 32, false}};
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !cpu_has_avx2()) continue;
    TurboPrefillScratch reused;
    reused.avx2 = use_avx2;
    for (const PrefillCase& c : shapes) {
      TurboPrefillScratch fresh;
      fresh.avx2 = use_avx2;
      SCOPED_TRACE(testing::Message() << c << " avx2=" << use_avx2);
      expect_same(run_prefill(c, fresh), run_prefill(c, reused));
    }
  }
}

// --- KV tiles outside every row's window ------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> v) {
  for (const std::uint32_t b : bits(v)) {
    for (int i = 0; i < 4; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(PrefillWindowSkip, MatchesRecordedOutputs) {
  // Digests of o and lse recorded from the kernel as it was before it
  // skipped KV tiles lying wholly before every row's window (it computed
  // them and discarded them as all -inf).
  struct Recorded {
    std::size_t n_q, n_k, d, br, bc, window;
    bool causal;
    std::uint64_t digest;
  };
  const Recorded recorded[] = {
      {64, 64, 16, 16, 16, 8, true, 0xf351cae7a6c58828ull},
      {64, 64, 16, 16, 16, 24, true, 0xa79713e938d2c852ull},
      {200, 200, 32, 32, 64, 40, true, 0xf2e28e6a55c9c486ull},
      {130, 130, 20, 64, 32, 70, false, 0x54d74e85b0fe72aaull},
      {50, 180, 32, 32, 32, 33, true, 0x63442be03a016a4bull},
      {77, 77, 13, 32, 32, 1, true, 0x1a26a3a02d067c88ull},
      {300, 300, 64, 64, 64, 100, true, 0x05664f868069f85full},
  };
  const Sas sas;
  for (const bool use_avx2 : {false, true}) {
    if (use_avx2 && !cpu_has_avx2()) continue;
    for (const Recorded& w : recorded) {
      AttentionConfig cfg;
      cfg.block_rows = w.br;
      cfg.block_cols = w.bc;
      cfg.window = w.window;
      cfg.causal = w.causal;
      const MatrixF q = test::random_matrix(w.n_q, w.d, 31 + w.d);
      const MatrixF k = test::random_matrix(w.n_k, w.d, 32 + w.d);
      const MatrixF v = test::random_matrix(w.n_k, w.d, 33 + w.d);
      TurboPrefillScratch scratch;
      scratch.avx2 = use_avx2;
      const TurboPrefillResult r =
          turbo_attention_prefill(q, k, v, cfg, sas, nullptr, scratch);
      const std::uint64_t digest =
          fnv1a(fnv1a(1469598103934665603ull, r.o.flat()), r.lse);
      EXPECT_EQ(digest, w.digest)
          << "n_k=" << w.n_k << " window=" << w.window << " avx2=" << use_avx2;
    }
  }
}

}  // namespace
}  // namespace turbo
