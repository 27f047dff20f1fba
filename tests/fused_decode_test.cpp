#include "kernels/fused_decode.h"

#include <cstring>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "attention/turbo.h"
#include "attention/turbo_method.h"
#include "common/check.h"
#include "kvcache/paged_cache.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

// Build a cache with prefill blocks (of every supported width) plus a
// buffered tail, and check the fused kernel against the reference kernel.
class FusedDecodeTest : public ::testing::TestWithParam<BitWidth> {};

TEST_P(FusedDecodeTest, BitIdenticalToReference) {
  const BitWidth bits = GetParam();
  const std::size_t d = 32;
  QuantizedKvCache cache(d, bits, 64, 64);
  const MatrixF k = test::random_matrix(200, d, 1);
  const MatrixF v = test::random_matrix(200, d, 2);
  const MatrixF qp = test::random_matrix(200, d, 3);
  const AttentionConfig cfg;
  const Sas sas;
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);

  // Add buffered decode tokens (tail not a multiple of the block size).
  Rng rng(4);
  for (int t = 0; t < 13; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    cache.append_token(kt, vt);
  }

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    rng.fill_normal(q, 0.0, 1.0);
    const auto reference = turbo_attention_decode(q, cache, cfg, sas);
    const auto fused = fused_turbo_decode(q, cache, cfg, sas);
    ASSERT_EQ(reference.size(), fused.size());
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_EQ(reference[c], fused[c])
          << "bits=" << bit_count(bits) << " trial=" << trial << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FusedDecodeTest,
                         ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                           BitWidth::kInt4));

TEST(FusedDecodeTest, RaggedFinalBlock) {
  // 100 tokens at Bc=64: one full block + one 36-row block — exercises
  // non-multiple-of-8 code counts in the packed layout.
  const std::size_t d = 16;
  QuantizedKvCache cache(d, BitWidth::kInt3, 64, 64);
  const MatrixF k = test::random_matrix(100, d, 5);
  const MatrixF v = test::random_matrix(100, d, 6);
  const MatrixF qp = test::random_matrix(100, d, 7);
  const AttentionConfig cfg;
  const Sas sas;
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);
  std::vector<float> q(d, 0.3f);
  EXPECT_EQ(turbo_attention_decode(q, cache, cfg, sas),
            fused_turbo_decode(q, cache, cfg, sas));
}

TEST(FusedDecodeTest, WorksOnPagedCache) {
  const std::size_t d = 16;
  PagedKvCache paged(d, BitWidth::kInt4, 16, 8);
  const auto seq = paged.create_sequence();
  Rng rng(8);
  for (int t = 0; t < 40; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    ASSERT_TRUE(paged.append_token(seq, kt, vt));
  }
  std::vector<float> q(d, -0.2f);
  const AttentionConfig cfg;
  const Sas sas;
  const auto reference = turbo_attention_decode(
      q, paged.blocks(seq), paged.key_buffer(seq), paged.value_buffer(seq),
      cfg, sas);
  const auto fused = fused_turbo_decode(
      q, paged.blocks(seq), paged.key_buffer(seq), paged.value_buffer(seq),
      cfg, sas);
  EXPECT_EQ(reference, fused);
}

// --- Method level -----------------------------------------------------------

// TurboKvAttention::decode/attend run the fused kernel with scratch reused
// across calls; they must return the reference kernel's bits on the same
// cache at every step.
struct MethodCase {
  BitWidth bits = BitWidth::kInt4;
  std::size_t block_cols = 64;
  std::size_t head_dim = 32;
  std::size_t window = 0;
  std::size_t prompt = 150;  // 0: decode only, the cache stays in the buffer
  std::size_t steps = 40;    // 0: attend only, the cache is blocks only
  std::size_t buffer = 16;
  bool use_sas = true;
};

std::ostream& operator<<(std::ostream& os, const MethodCase& c) {
  return os << bit_count(c.bits) << "bit_bc" << c.block_cols << "_d"
            << c.head_dim << "_win" << c.window << "_prompt" << c.prompt
            << "_steps" << c.steps << "_buf" << c.buffer
            << (c.use_sas ? "" : "_exactexp");
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<MethodCase> method_cases() {
  std::vector<MethodCase> cases;
  // Every width x tile size, with head_dim % 8 != 0 and steps that cross
  // buffer flushes.
  for (const BitWidth bits :
       {BitWidth::kInt2, BitWidth::kInt3, BitWidth::kInt4}) {
    for (const std::size_t bc : {32, 64, 128}) {
      MethodCase c;
      c.bits = bits;
      c.block_cols = bc;
      c.head_dim = 20;
      cases.push_back(c);
    }
  }
  MethodCase wide;  // the benchmark's head size
  wide.head_dim = 128;
  cases.push_back(wide);
  // Sliding window whose start falls inside a packed block (and moves
  // through it as decode proceeds).
  MethodCase window;
  window.window = 100;
  window.prompt = 200;
  window.head_dim = 13;
  cases.push_back(window);
  MethodCase buffer_only;  // every token stays in the INT8 decode buffer
  buffer_only.prompt = 0;
  buffer_only.steps = 30;
  buffer_only.buffer = 64;
  cases.push_back(buffer_only);
  MethodCase blocks_only;  // prefill tiles only, queried through attend()
  blocks_only.bits = BitWidth::kInt2;
  blocks_only.prompt = 128;
  blocks_only.steps = 0;
  cases.push_back(blocks_only);
  MethodCase exact_exp;  // the "FlashQ only" ablation: FP32 exp, no SAS
  exact_exp.use_sas = false;
  cases.push_back(exact_exp);
  return cases;
}

class MethodDecodeParity : public ::testing::TestWithParam<MethodCase> {};

TEST_P(MethodDecodeParity, BitIdenticalToReferenceKernel) {
  const MethodCase c = GetParam();
  TurboMethodConfig config;
  config.kv_bits = c.bits;
  config.attention.block_cols = c.block_cols;
  config.attention.window = c.window;
  config.buffer_capacity = c.buffer;
  config.use_sas = c.use_sas;
  TurboKvAttention method(c.head_dim, config);
  SasConfig sas_config = config.sas;
  sas_config.exact_exp = !c.use_sas;
  const Sas sas(sas_config);

  const std::size_t n = c.prompt + c.steps;
  const MatrixF q = test::random_matrix(n, c.head_dim, 21);
  const MatrixF k = test::random_matrix(n, c.head_dim, 22);
  const MatrixF v = test::random_matrix(n, c.head_dim, 23);
  const MatrixF q_other = test::random_matrix(n, c.head_dim, 24, 3.0);
  if (c.prompt > 0) {
    method.prefill(q.block_rows(0, c.prompt), k.block_rows(0, c.prompt),
                   v.block_rows(0, c.prompt));
  }
  // The portable build of the kernel's inner loops, on the same cache.
  FusedDecodeScratch portable;
  portable.avx2 = false;
  for (std::size_t t = c.prompt; t < n; ++t) {
    const auto out = method.decode(q.row(t), k.row(t), v.row(t));
    const auto reference = turbo_attention_decode(q.row(t), method.cache(),
                                                  config.attention, sas);
    EXPECT_TRUE(same_bits(out, reference)) << "decode step " << t;
    EXPECT_TRUE(same_bits(fused_turbo_decode(q.row(t), method.cache(),
                                             config.attention, sas, portable),
                          reference))
        << "portable, decode step " << t;
    // A second query head over the same cache (grouped-query attention).
    const auto other = method.attend(q_other.row(t));
    EXPECT_TRUE(same_bits(other, turbo_attention_decode(
                                     q_other.row(t), method.cache(),
                                     config.attention, sas)))
        << "attend step " << t;
  }
  if (c.steps == 0) {
    for (std::size_t t = 0; t < c.prompt; t += 7) {
      EXPECT_TRUE(same_bits(method.attend(q_other.row(t)),
                            turbo_attention_decode(q_other.row(t),
                                                   method.cache(),
                                                   config.attention, sas)))
          << "attend query " << t;
    }
  }
  // The case covers what its name says.
  if (c.prompt == 0) {
    EXPECT_EQ(method.cache().block_count(), 0u);
  }
  if (c.steps == 0) {
    EXPECT_TRUE(method.cache().key_buffer().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MethodDecodeParity,
                         ::testing::ValuesIn(method_cases()));

TEST(FusedDecodeTest, ScratchReuseAcrossCachesOfDifferentShapes) {
  // One scratch serving caches of different widths and head sizes must
  // give each the result a fresh scratch gives.
  FusedDecodeScratch scratch;
  const AttentionConfig cfg;
  const Sas sas;
  for (const std::size_t d : {40, 8, 24}) {
    QuantizedKvCache cache(d, BitWidth::kInt4, 64, 64);
    turbo_attention_prefill(test::random_matrix(90, d, d),
                            test::random_matrix(90, d, d + 1),
                            test::random_matrix(90, d, d + 2), cfg, sas,
                            &cache);
    const MatrixF q = test::random_matrix(1, d, d + 3);
    EXPECT_TRUE(same_bits(fused_turbo_decode(q.row(0), cache, cfg, sas,
                                             scratch),
                          fused_turbo_decode(q.row(0), cache, cfg, sas)))
        << "d=" << d;
  }
}

TEST(FusedDecodeTest, EmptyCacheThrows) {
  QuantizedKvCache cache(8, BitWidth::kInt4, 64, 64);
  std::vector<float> q(8, 1.0f);
  EXPECT_THROW(fused_turbo_decode(q, cache, AttentionConfig{}, Sas{}),
               CheckError);
}

}  // namespace
}  // namespace turbo
