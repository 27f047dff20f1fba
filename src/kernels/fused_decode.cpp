#include "kernels/fused_decode.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "quant/packing.h"
#include "quant/symmetric.h"

#if TURBO_X86
#include <immintrin.h>
#endif

namespace turbo {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Online-softmax state; `o` (the unnormalized output) becomes the result.
struct State {
  float m = kNegInf;
  float l = 0.0f;
  std::vector<float> o;
  explicit State(std::size_t d) : o(d, 0.0f) {}
};

// Shared online-softmax tail once the scores s[] of a chunk are known:
// computes P~, rescales the accumulator, and returns the INT8-quantized
// P~ with its scale through the out-parameters.
void softmax_update(State& state, std::span<float> s, const Sas& sas,
                    std::vector<std::int32_t>& p_q, float& o_scale,
                    float v_scale) {
  float block_max = kNegInf;
  for (float v : s) block_max = std::max(block_max, v);
  const float m_new = std::max(state.m, block_max);
  const float alpha = state.m == kNegInf ? 0.0f : sas.exp_neg(state.m - m_new);

  // Shift, exponentiate the whole chunk at once (SAS's batched path),
  // then reduce in token order as the reference path does.
  for (float& v : s) v -= m_new;
  sas.apply(s);
  float p_max = 0.0f;
  float row_sum = 0.0f;
  for (const float v : s) {
    row_sum += v;
    p_max = std::max(p_max, v);
  }
  if (alpha != 1.0f) {
    for (float& v : state.o) v *= alpha;
  }
  state.l = state.l * alpha + row_sum;
  state.m = m_new;

  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const float inv_p = 1.0f / p_scale;
  p_q.resize(s.size());
  for (std::size_t t = 0; t < s.size(); ++t) {
    const float scaled = std::nearbyint(s[t] * inv_p);
    p_q[t] = static_cast<std::int32_t>(std::clamp(scaled, 0.0f, 127.0f));
  }
  o_scale = p_scale * v_scale;
}

// acc[t] += q[c] * K^q1[t][c] over every channel, with K^q1 rebuilt from
// channel-major codes (q2 * s_int + z_int, clamped) as it is consumed.
// Integer accumulation, so the channel order is free; the token loop is
// contiguous and vectorizes.
[[gnu::always_inline]] inline void qk_codes(const std::uint8_t* codes,
                                            std::size_t tokens, std::size_t d,
                                            const std::int8_t* q,
                                            const ChannelParams* channels,
                                            std::int32_t* acc) {
  for (std::size_t c = 0; c < d; ++c) {
    const std::int32_t qx = q[c];
    if (qx == 0) continue;
    const std::uint8_t* row = codes + c * tokens;
    const std::int32_t sc = channels[c].s_int;
    const std::int32_t z = channels[c].z_int;
    for (std::size_t t = 0; t < tokens; ++t) {
      const std::int32_t k_q1 = std::clamp<std::int32_t>(
          static_cast<std::int32_t>(row[t]) * sc + z, -127, 127);
      acc[t] += qx * k_q1;
    }
  }
}

// o[c] += o_scale * P~[t] * V^q1[t][c], token by token over the nonzero
// P~ entries, every channel at once, from token-major codes. Each channel
// adds its terms in token order, the reference path's float add order;
// the channel loop is contiguous and vectorizes.
[[gnu::always_inline]] inline void pv_codes(const std::uint8_t* codes,
                                            std::size_t tokens, std::size_t d,
                                            const std::int32_t* p_q,
                                            const std::int32_t* s_int,
                                            const std::int32_t* z_int,
                                            float o_scale, float* o) {
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::int32_t pv = p_q[t];
    if (pv == 0) continue;
    const std::uint8_t* row = codes + t * d;
    for (std::size_t c = 0; c < d; ++c) {
      const std::int32_t v_q1 = std::clamp<std::int32_t>(
          static_cast<std::int32_t>(row[c]) * s_int[c] + z_int[c], -127, 127);
      o[c] += static_cast<float>(pv * v_q1) * o_scale;
    }
  }
}

// The two loops above, built for baseline x86-64 and for AVX2 (8 int32
// lanes with native multiply/min/max). Same source, same operations per
// element, so the same bits; AVX2 does not imply FMA, so no contraction.
void qk_codes_portable(const std::uint8_t* codes, std::size_t tokens,
                       std::size_t d, const std::int8_t* q,
                       const ChannelParams* channels, std::int32_t* acc) {
  qk_codes(codes, tokens, d, q, channels, acc);
}

void pv_codes_portable(const std::uint8_t* codes, std::size_t tokens,
                       std::size_t d, const std::int32_t* p_q,
                       const std::int32_t* s_int, const std::int32_t* z_int,
                       float o_scale, float* o) {
  pv_codes(codes, tokens, d, p_q, s_int, z_int, o_scale, o);
}

#if TURBO_X86
__attribute__((target("avx2"))) void qk_codes_avx2(
    const std::uint8_t* codes, std::size_t tokens, std::size_t d,
    const std::int8_t* q, const ChannelParams* channels, std::int32_t* acc) {
  qk_codes(codes, tokens, d, q, channels, acc);
}

__attribute__((target("avx2"))) void pv_codes_avx2(
    const std::uint8_t* codes, std::size_t tokens, std::size_t d,
    const std::int32_t* p_q, const std::int32_t* s_int,
    const std::int32_t* z_int, float o_scale, float* o) {
  pv_codes(codes, tokens, d, p_q, s_int, z_int, o_scale, o);
}
#else
constexpr auto qk_codes_avx2 = qk_codes_portable;
constexpr auto pv_codes_avx2 = pv_codes_portable;
#endif

// Channel-major [d x tokens] codes -> token-major [tokens x d], in 8x8
// byte tiles (SSE2, part of baseline x86-64) with scalar edges.
void transpose_codes(const std::uint8_t* in, std::size_t tokens,
                     std::size_t d, std::uint8_t* out) {
  std::size_t c0 = 0;
#if TURBO_X86
  for (; c0 + 8 <= d; c0 += 8) {
    std::size_t t0 = 0;
    for (; t0 + 8 <= tokens; t0 += 8) {
      __m128i r[8];
      for (std::size_t i = 0; i < 8; ++i) {
        r[i] = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(in + (c0 + i) * tokens + t0));
      }
      const __m128i a0 = _mm_unpacklo_epi8(r[0], r[1]);
      const __m128i a1 = _mm_unpacklo_epi8(r[2], r[3]);
      const __m128i a2 = _mm_unpacklo_epi8(r[4], r[5]);
      const __m128i a3 = _mm_unpacklo_epi8(r[6], r[7]);
      const __m128i b0 = _mm_unpacklo_epi16(a0, a1);
      const __m128i b1 = _mm_unpackhi_epi16(a0, a1);
      const __m128i b2 = _mm_unpacklo_epi16(a2, a3);
      const __m128i b3 = _mm_unpackhi_epi16(a2, a3);
      // Each holds two tokens' 8 channel codes.
      const __m128i pairs[4] = {
          _mm_unpacklo_epi32(b0, b2), _mm_unpackhi_epi32(b0, b2),
          _mm_unpacklo_epi32(b1, b3), _mm_unpackhi_epi32(b1, b3)};
      for (std::size_t j = 0; j < 4; ++j) {
        std::uint8_t* dst = out + (t0 + 2 * j) * d + c0;
        _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), pairs[j]);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + d),
                         _mm_srli_si128(pairs[j], 8));
      }
    }
    for (; t0 < tokens; ++t0) {
      for (std::size_t i = 0; i < 8; ++i) {
        out[t0 * d + c0 + i] = in[(c0 + i) * tokens + t0];
      }
    }
  }
#endif
  for (; c0 < d; ++c0) {
    for (std::size_t t = 0; t < tokens; ++t) {
      out[t * d + c0] = in[c0 * tokens + t];
    }
  }
}

// One packed block, consumed without materializing the INT8 K/V. S
// accumulates channel by channel in integers (order-invariant); O adds
// each channel's terms in token order, the reference path's float add
// order, so results are bit-identical to the reference kernel.
void absorb_packed(State& state, float q_scale, const KvBlock& block,
                   float attn_scale, const Sas& sas,
                   FusedDecodeScratch& scratch, std::size_t mask_before) {
  const std::size_t tokens = block.k.rows;
  const std::size_t d = block.k.cols;
  TURBO_DCHECK(scratch.q_q1.size() == d);
  std::vector<std::uint8_t>& codes = scratch.codes;
  std::vector<std::int32_t>& acc = scratch.acc;
  std::vector<float>& s = scratch.s;

  // --- S = s_q * s_k * q^q1 K^q1T -----------------------------------------
  // One unpack pass per tensor (codes stay uint8; no INT8 K/V matrix, no
  // separate dequantization pass); the second stage is applied in
  // registers as each code is consumed.
  acc.assign(tokens, 0);
  codes.resize(tokens * d);
  unpack_codes(block.k.packed, block.k.bits, tokens * d, codes);
  (scratch.avx2 ? qk_codes_avx2 : qk_codes_portable)(
      codes.data(), tokens, d, scratch.q_q1.data(), block.k.channels.data(),
      acc.data());
  const float s_scale = q_scale * block.k.fp_scale * attn_scale;
  s.resize(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    s[t] = t < mask_before ? kNegInf
                           : static_cast<float>(acc[t]) * s_scale;
  }

  float o_scale = 1.0f;
  softmax_update(state, s, sas, scratch.p_q, o_scale, block.v.fp_scale);

  // --- O += o_scale * P~ V^q1 ---------------------------------------------
  unpack_codes(block.v.packed, block.v.bits, tokens * d, codes);
  scratch.v_codes.resize(tokens * d);
  transpose_codes(codes.data(), tokens, d, scratch.v_codes.data());
  scratch.v_s_int.resize(d);
  scratch.v_z_int.resize(d);
  for (std::size_t c = 0; c < d; ++c) {
    scratch.v_s_int[c] = block.v.channels[c].s_int;
    scratch.v_z_int[c] = block.v.channels[c].z_int;
  }
  (scratch.avx2 ? pv_codes_avx2 : pv_codes_portable)(
      scratch.v_codes.data(), tokens, d, scratch.p_q.data(),
      scratch.v_s_int.data(), scratch.v_z_int.data(), o_scale,
      state.o.data());
}

// Buffered tail: INT8 rows under the universal scales (row-major already).
void absorb_buffer(State& state, float q_scale, const DecodeBuffer& kb,
                   const DecodeBuffer& vb, float attn_scale, const Sas& sas,
                   FusedDecodeScratch& scratch, std::size_t mask_before) {
  const std::size_t tokens = kb.size();
  const std::size_t d = kb.dim();
  const std::span<const std::int8_t> q_q1 = scratch.q_q1;
  std::vector<float>& s = scratch.s;
  s.resize(tokens);
  const float s_scale = q_scale * kb.scale() * attn_scale;
  for (std::size_t t = 0; t < tokens; ++t) {
    if (t < mask_before) {
      s[t] = kNegInf;
      continue;
    }
    auto kr = kb.tokens().row(t);
    std::int32_t acc = 0;
    for (std::size_t x = 0; x < d; ++x) {
      acc += static_cast<std::int32_t>(q_q1[x]) *
             static_cast<std::int32_t>(kr[x]);
    }
    s[t] = static_cast<float>(acc) * s_scale;
  }
  float o_scale = 1.0f;
  softmax_update(state, s, sas, scratch.p_q, o_scale, vb.scale());
  const std::span<const std::int32_t> p_q = scratch.p_q;
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::int32_t pv = p_q[t];
    if (pv == 0) continue;
    auto vr = vb.tokens().row(t);
    for (std::size_t x = 0; x < d; ++x) {
      state.o[x] += static_cast<float>(
                        pv * static_cast<std::int32_t>(vr[x])) *
                    o_scale;
    }
  }
}

}  // namespace

std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas, FusedDecodeScratch& scratch) {
  const std::size_t d = key_buffer.dim();
  TURBO_CHECK(q.size() == d);
  TURBO_CHECK_MSG(!blocks.empty() || !key_buffer.empty(),
                  "decode against an empty cache");
  const float attn_scale = cfg.effective_scale(d);

  const float q_scale = symmetric_scale_int8(q);
  scratch.q_q1.resize(d);
  quantize_symmetric_int8(q, q_scale, scratch.q_q1);

  State state(d);

  // Sliding window: skip blocks fully outside, mask the boundary block.
  std::size_t total = key_buffer.size();
  for (const KvBlock* block : blocks) total += block->tokens();
  const std::size_t win_start =
      cfg.window > 0 && total > cfg.window ? total - cfg.window : 0;

  std::size_t pos = 0;
  for (const KvBlock* block : blocks) {
    const std::size_t end = pos + block->tokens();
    if (end <= win_start) {
      pos = end;
      continue;
    }
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    absorb_packed(state, q_scale, *block, attn_scale, sas, scratch, mask);
    pos = end;
  }
  if (!key_buffer.empty()) {
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    absorb_buffer(state, q_scale, key_buffer, value_buffer, attn_scale, sas,
                  scratch, mask);
  }

  TURBO_CHECK_MSG(state.l > 0.0f, "decode query attended no keys");
  const float inv = 1.0f / state.l;
  for (float& v : state.o) v *= inv;
  return std::move(state.o);
}

std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas,
                                      FusedDecodeScratch& scratch) {
  TURBO_CHECK_MSG(cache.token_count() > 0, "decode against an empty cache");
  scratch.blocks.clear();
  for (std::size_t j = 0; j < cache.block_count(); ++j) {
    scratch.blocks.push_back(&cache.block(j));
  }
  return fused_turbo_decode(q, scratch.blocks, cache.key_buffer(),
                            cache.value_buffer(), cfg, sas, scratch);
}

std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas) {
  FusedDecodeScratch scratch;
  return fused_turbo_decode(q, blocks, key_buffer, value_buffer, cfg, sas,
                            scratch);
}

std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas) {
  FusedDecodeScratch scratch;
  return fused_turbo_decode(q, cache, cfg, sas, scratch);
}

}  // namespace turbo
