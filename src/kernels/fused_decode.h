// Fused TurboAttention decode kernel — the decode path TurboKvAttention
// runs.
//
// The reference decode path (attention/turbo_decode.cpp) materializes each
// block's INT8 K/V before the integer matmuls — clear, but it spends its
// time writing and re-reading a scratch matrix. The GPU kernel never does
// that: codes are unpacked in registers and consumed immediately. This is
// the CPU analogue: one pass per block that
//
//   * unpacks INT4/2 codes channel by channel,
//   * applies the integer second stage (q2 * s_int + z_int) in registers,
//   * accumulates the q.K dot products and the P~.V products directly,
//
// producing bit-identical results to the reference path (same arithmetic,
// same order) at a fraction of the memory traffic. The reference path
// stays as the oracle: tests/fused_decode_test.cpp and the benchmarks
// compare the two bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attention/config.h"
#include "common/cpu_features.h"
#include "kvcache/decode_buffer.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo {

// Working buffers of one fused_turbo_decode call. A caller that decodes
// repeatedly keeps one and passes it to every call, so steady-state decode
// allocates nothing but its output. One call at a time per scratch.
struct FusedDecodeScratch {
  std::vector<const KvBlock*> blocks;  // block view of a monolithic cache
  std::vector<std::int8_t> q_q1;       // stage-1 INT8 query
  std::vector<std::uint8_t> codes;     // one block's unpacked codes
  std::vector<std::uint8_t> v_codes;   // its V codes, token-major
  std::vector<std::int32_t> v_s_int;   // its V channels' s_int, widened
  std::vector<std::int32_t> v_z_int;   // its V channels' z_int, widened
  std::vector<std::int32_t> acc;       // integer q.K accumulators
  std::vector<float> s;                // scores, then P~
  std::vector<std::int32_t> p_q;       // INT8-quantized P~
  // Run the AVX2 build of the inner loops. Set from the CPU; both builds
  // return the same bits, and tests clear it to check the portable one.
  bool avx2 = cpu_has_avx2();
};

// Drop-in equivalent of turbo_attention_decode (block-view overload).
std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas);

// Convenience over a monolithic cache.
std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas);

// The same two, working in caller-owned scratch.
std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas, FusedDecodeScratch& scratch);

std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas,
                                      FusedDecodeScratch& scratch);

}  // namespace turbo
