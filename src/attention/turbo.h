// TurboAttention kernels: FlashQ + SAS fused into the FlashAttention
// schedule (Algorithms 1 and 2 of the paper).
//
// Prefill quantizes every Q/K/V tile to INT8 symmetrically (per-block scale
// max|x|/119), runs QK^T and P~V as integer matmuls with FP32 accumulation
// of the scaled results, computes the exponentials with SAS instead of FP32
// exp, and writes the K/V tiles through the second (channel-wise, integer)
// quantization stage into the packed KV cache. It runs as a tile kernel:
// with AVX2, 8 scores per query row from one vpmaddwd pass over K widened
// to int16, vectorized row max/shift and P~ rounding, 8 row sums at once
// (one row per lane, columns in order) and the P~V row kept in registers.
// That build returns the portable build's bits for the output, the lse
// and the cache (tests/turbo_prefill_parity_test.cpp). Decode reverses
// only the second stage (INT4/2 -> INT8, integer arithmetic) and attends
// the query against the INT8 payloads plus the INT8 decode buffer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attention/config.h"
#include "common/cpu_features.h"
#include "common/matrix.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo {

struct TurboPrefillResult {
  MatrixF o;               // [n_q x d]
  std::vector<float> lse;  // per-query log-sum-exp
};

// Working buffers of one turbo_attention_prefill call, sized by the call.
// One call at a time per scratch.
struct TurboPrefillScratch {
  std::vector<std::int8_t> k_q1;      // stage-1 INT8 K, [n_k x d]
  std::vector<std::int8_t> v_q1;      // stage-1 INT8 V, [n_k x d]
  std::vector<float> k_scale;         // one per KV tile
  std::vector<float> v_scale;         // one per KV tile
  std::vector<std::int8_t> q_q1;      // the Q tile, [Br x d]
  std::vector<float> s;               // scores, then P~ (AVX2: its codes)
  std::vector<float> m_run, l_run;    // online-softmax state per row
  // Portable build only.
  std::vector<std::int8_t> p_q;       // INT8 P~
  // AVX2 build only.
  std::vector<std::int16_t> k16;      // K widened, 16-channel rows
  std::vector<std::int16_t> q16;      // the Q tile widened, same rows
  std::vector<float> v_f;             // V as float, 8-channel rows
  std::vector<float> o;               // the Q tile's output, same rows
  std::vector<float> m_new, alpha;    // a KV tile's row updates
  std::vector<float> row_sum;         // a KV tile's row sums of P~
  // Run the AVX2 build of the tile loops. Set from the CPU; both builds
  // return the same bits, and tests clear it to check the portable one.
  bool avx2 = cpu_has_avx2();
};

// Algorithm 1. Q/K/V are one head's [tokens x head_dim] tensors. When
// `cache` is non-null, the K/V tiles are progressively compressed into it
// (its block_tokens() must equal cfg.block_cols).
TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache);

// The same, working in caller-owned scratch.
TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache,
                                           TurboPrefillScratch& scratch);

// Algorithm 2. One decode query against the compressed cache (packed
// blocks + INT8 buffer). The new token's k/v must already have been
// appended by the caller.
std::vector<float> turbo_attention_decode(std::span<const float> q,
                                          const QuantizedKvCache& cache,
                                          const AttentionConfig& cfg,
                                          const Sas& sas);

// Same kernel over an arbitrary block view — the entry point the paged
// multi-sequence cache uses (`PagedKvCache::blocks(seq)` + its buffers).
std::vector<float> turbo_attention_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas);

}  // namespace turbo
