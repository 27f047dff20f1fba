// Measured CPU-kernel microbenchmarks (google-benchmark).
//
// These complement the analytical GPU model with real measured numbers
// for every primitive this library implements: quantization stages,
// packing, SAS vs libm exponentiation, integer vs float matmuls, and the
// end-to-end attention kernels. On the CPU substrate the *relative*
// behaviour (SAS cheaper than expf, INT8 path touching 4x less memory)
// mirrors the GPU argument.
#include <benchmark/benchmark.h>

#include <cmath>

#include "attention/flash.h"
#include "attention/reference.h"
#include "attention/turbo.h"
#include "kernels/fused_decode.h"
#include "common/cpu_features.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "quant/asymmetric.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"
#include "softmax/sas.h"
#include "softmax/softmax.h"

namespace {

using namespace turbo;

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

void BM_Fp16Round(benchmark::State& state) {
  std::vector<float> v(4096);
  Rng rng(1);
  rng.fill_normal(v, 0.0, 10.0);
  for (auto _ : state) {
    std::vector<float> copy = v;
    round_span_to_fp16(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Fp16Round);

void BM_QuantizeSymmetricInt8(benchmark::State& state) {
  const MatrixF tile = random_matrix(64, 128, 2);
  for (auto _ : state) {
    Int8Tile q = quantize_tile_int8(tile);
    benchmark::DoNotOptimize(q.q.data());
  }
  state.SetItemsProcessed(state.iterations() * tile.size());
}
BENCHMARK(BM_QuantizeSymmetricInt8);

void BM_ProgressiveCompress(benchmark::State& state) {
  const BitWidth bits = state.range(0) == 2 ? BitWidth::kInt2
                                            : BitWidth::kInt4;
  const Int8Tile tile = quantize_tile_int8(random_matrix(64, 128, 3));
  for (auto _ : state) {
    ProgressiveBlock b = progressive_compress(tile.q, tile.scale, bits);
    benchmark::DoNotOptimize(b.packed.data());
  }
  state.SetItemsProcessed(state.iterations() * tile.q.size());
}
BENCHMARK(BM_ProgressiveCompress)->Arg(2)->Arg(4);

void BM_ProgressiveDecompress(benchmark::State& state) {
  const Int8Tile tile = quantize_tile_int8(random_matrix(64, 128, 4));
  const ProgressiveBlock b =
      progressive_compress(tile.q, tile.scale, BitWidth::kInt4);
  for (auto _ : state) {
    MatrixI8 back = progressive_decompress_int8(b);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(state.iterations() * tile.q.size());
}
BENCHMARK(BM_ProgressiveDecompress);

void BM_PackCodes(benchmark::State& state) {
  std::vector<std::uint8_t> codes(8192, 0x5);
  for (auto _ : state) {
    auto packed = pack_codes(codes, BitWidth::kInt4);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_PackCodes);

// SAS vs libm exponentiation — the Section 4 claim, measured.
void BM_ExpLibm(benchmark::State& state) {
  std::vector<float> x(4096);
  Rng rng(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(-6.0, 0.0));
  for (auto _ : state) {
    float acc = 0.0f;
    for (float v : x) acc += std::exp(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_ExpLibm);

void BM_ExpSas(benchmark::State& state) {
  const Sas sas(SasConfig{.fp16_arithmetic = false});
  std::vector<float> x(4096);
  Rng rng(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(-6.0, 0.0));
  for (auto _ : state) {
    float acc = 0.0f;
    for (float v : x) acc += sas.exp_neg(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_ExpSas);

void BM_SoftmaxExact(benchmark::State& state) {
  const MatrixF scores = random_matrix(64, 1024, 6);
  for (auto _ : state) {
    MatrixF p = softmax_rows(scores);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_SoftmaxExact);

void BM_SoftmaxSas(benchmark::State& state) {
  const Sas sas(SasConfig{.fp16_arithmetic = false});
  const MatrixF scores = random_matrix(64, 1024, 6);
  for (auto _ : state) {
    MatrixF p = sas.softmax(scores);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_SoftmaxSas);

void BM_MatmulFloat(benchmark::State& state) {
  const MatrixF a = random_matrix(64, 128, 7);
  const MatrixF b = random_matrix(64, 128, 8);
  for (auto _ : state) {
    MatrixF c = matmul_transposed(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 128);
}
BENCHMARK(BM_MatmulFloat);

void BM_MatmulInt8(benchmark::State& state) {
  const Int8Tile a = quantize_tile_int8(random_matrix(64, 128, 7));
  const Int8Tile b = quantize_tile_int8(random_matrix(64, 128, 8));
  for (auto _ : state) {
    MatrixI32 c = matmul_transposed_i8(a.q, b.q);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 128);
}
BENCHMARK(BM_MatmulInt8);

void BM_ReferenceAttention(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MatrixF q = random_matrix(n, 64, 9);
  const MatrixF k = random_matrix(n, 64, 10);
  const MatrixF v = random_matrix(n, 64, 11);
  AttentionConfig cfg;
  for (auto _ : state) {
    MatrixF o = reference_attention(q, k, v, cfg);
    benchmark::DoNotOptimize(o.data());
  }
}
BENCHMARK(BM_ReferenceAttention)->Arg(256)->Arg(512);

void BM_FlashAttentionFp16(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MatrixF q = random_matrix(n, 64, 9);
  const MatrixF k = random_matrix(n, 64, 10);
  const MatrixF v = random_matrix(n, 64, 11);
  AttentionConfig cfg;
  for (auto _ : state) {
    FlashResult r = flash_attention(q, k, v, cfg);
    benchmark::DoNotOptimize(r.o.data());
  }
}
BENCHMARK(BM_FlashAttentionFp16)->Arg(256)->Arg(512);

// The prefill tile kernel on the build the CPU selects (AVX2 when it has
// it) and on the portable build: bit-identical outputs, so the pair's
// ratio is the SIMD speedup, and TurboPrefill/256 against
// FlashAttentionFp16/256 is the Turbo/Flash prefill ratio.
void turbo_prefill_bench(benchmark::State& state, bool avx2) {
  if (avx2 && !cpu_has_avx2()) {
    state.SkipWithError("CPU has no AVX2");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MatrixF q = random_matrix(n, 64, 9);
  const MatrixF k = random_matrix(n, 64, 10);
  const MatrixF v = random_matrix(n, 64, 11);
  AttentionConfig cfg;
  const Sas sas;
  TurboPrefillScratch scratch;
  scratch.avx2 = avx2;
  for (auto _ : state) {
    TurboPrefillResult r =
        turbo_attention_prefill(q, k, v, cfg, sas, nullptr, scratch);
    benchmark::DoNotOptimize(r.o.data());
  }
}

void BM_TurboPrefill(benchmark::State& state) {
  turbo_prefill_bench(state, cpu_has_avx2());
}
BENCHMARK(BM_TurboPrefill)->Arg(256)->Arg(512);

void BM_TurboPrefillPortable(benchmark::State& state) {
  turbo_prefill_bench(state, false);
}
BENCHMARK(BM_TurboPrefillPortable)->Arg(256)->Arg(512);

void BM_TurboDecode(benchmark::State& state) {
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  const MatrixF k = random_matrix(ctx, 64, 12);
  const MatrixF v = random_matrix(ctx, 64, 13);
  const MatrixF qp = random_matrix(ctx, 64, 14);
  AttentionConfig cfg;
  const Sas sas;
  QuantizedKvCache cache(64, BitWidth::kInt4, 64, 64);
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);
  std::vector<float> q(64, 0.3f);
  for (auto _ : state) {
    auto o = turbo_attention_decode(q, cache, cfg, sas);
    benchmark::DoNotOptimize(o.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx * 64);
}
BENCHMARK(BM_TurboDecode)->Arg(1024)->Arg(4096);

void BM_TurboDecodeFused(benchmark::State& state) {
  // Same workload as BM_TurboDecode through the register-fused kernel
  // (no INT8 K/V materialization) — bit-identical output, less traffic.
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  const MatrixF k = random_matrix(ctx, 64, 12);
  const MatrixF v = random_matrix(ctx, 64, 13);
  const MatrixF qp = random_matrix(ctx, 64, 14);
  AttentionConfig cfg;
  const Sas sas;
  QuantizedKvCache cache(64, BitWidth::kInt4, 64, 64);
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);
  std::vector<float> q(64, 0.3f);
  for (auto _ : state) {
    auto o = fused_turbo_decode(q, cache, cfg, sas);
    benchmark::DoNotOptimize(o.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx * 64);
}
BENCHMARK(BM_TurboDecodeFused)->Arg(1024)->Arg(4096);

void BM_GroupedQuantChannelwise(benchmark::State& state) {
  const MatrixF m = random_matrix(512, 64, 15);
  for (auto _ : state) {
    GroupQuantized g =
        quantize_grouped(m, BitWidth::kInt4, 64, QuantAxis::kChannel);
    benchmark::DoNotOptimize(g.packed.data());
  }
  state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_GroupedQuantChannelwise);

}  // namespace
