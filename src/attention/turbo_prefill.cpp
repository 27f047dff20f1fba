#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "attention/turbo.h"
#include "common/check.h"
#include "common/numeric.h"
#include "quant/symmetric.h"

#if TURBO_X86
#include <immintrin.h>
#endif

namespace turbo {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

std::size_t round_up(std::size_t n, std::size_t m) {
  return (n + m - 1) / m * m;
}

// One call's shapes, its scratch and its output.
struct Prefill {
  const AttentionConfig& cfg;
  const Sas& sas;
  TurboPrefillScratch& sc;
  TurboPrefillResult& result;
  std::size_t n_k, d, bc, q_offset;
  float attn_scale;
  bool avx2;
  // Row widths of the AVX2 buffers: K/Q in int16 pairs for vpmaddwd,
  // V and O in 8-float registers, scores in 8-column chunks.
  std::size_t d16, d8, bc8;

  // Query row `row` sees keys [win_start(row), visible(row)).
  std::size_t visible(std::size_t row) const {
    return cfg.causal ? q_offset + row + 1 : n_k;
  }
  std::size_t win_start(std::size_t row) const {
    const std::size_t vis = visible(row);
    return cfg.window > 0 && vis > cfg.window ? vis - cfg.window : 0;
  }
};

// KV tiles [first, last) that some row of the Q tile sees. Earlier tiles
// lie wholly before every row's window and later ones wholly after every
// row (causal); their scores would all be -inf, which changes no state,
// so skipping them is exact. Rows' windows only move right, so the first
// row bounds `first`.
std::pair<std::size_t, std::size_t> kv_tiles(const Prefill& p, std::size_t qb,
                                             std::size_t q_rows) {
  const std::size_t n_tiles = (p.n_k + p.bc - 1) / p.bc;
  std::size_t last = n_tiles;
  if (p.cfg.causal) {
    const std::size_t last_visible = p.q_offset + qb + q_rows - 1;
    last = std::min(last, last_visible / p.bc + 1);
  }
  return {std::min(p.win_start(qb) / p.bc, last), last};
}

// Normalizes the Q tile's output rows (read from `src`, row stride
// `stride`) into result.o and records each row's log-sum-exp.
void finalize_rows(Prefill& p, std::size_t qb, std::size_t q_rows,
                   const float* src, std::size_t stride) {
  for (std::size_t r = 0; r < q_rows; ++r) {
    const float l = p.sc.l_run[r];
    TURBO_CHECK_MSG(l > 0.0f, "query row " << qb + r << " attended no keys");
    const float inv = 1.0f / l;
    const float* in = src + r * stride;
    auto orow = p.result.o.row(qb + r);
    for (std::size_t x = 0; x < p.d; ++x) orow[x] = in[x] * inv;
    p.result.lse[qb + r] = p.sc.m_run[r] + std::log(l);
  }
}

// The portable tile loop: the scalar reference every other build matches.
void q_tile_portable(Prefill& p, std::size_t qb, std::size_t q_rows,
                     float q_scale) {
  TurboPrefillScratch& sc = p.sc;
  const std::size_t d = p.d;
  const std::size_t bc = p.bc;
  std::fill_n(sc.m_run.begin(), q_rows, kNegInf);
  std::fill_n(sc.l_run.begin(), q_rows, 0.0f);

  const auto [first, last] = kv_tiles(p, qb, q_rows);
  for (std::size_t j = first; j < last; ++j) {
    const std::size_t kb = j * bc;
    const std::size_t k_rows = std::min(bc, p.n_k - kb);

    // S = (s_q * s_k) * Q^q1 (K^q1)^T * attn_scale — integer matmul with
    // INT32 accumulation, one FP rescale per element.
    const float s_scale = q_scale * sc.k_scale[j] * p.attn_scale;
    for (std::size_t r = 0; r < q_rows; ++r) {
      const std::int8_t* qr = sc.q_q1.data() + r * d;
      float* s_row = sc.s.data() + r * bc;
      const std::size_t visible = p.visible(qb + r);
      const std::size_t win_start = p.win_start(qb + r);
      for (std::size_t c = 0; c < k_rows; ++c) {
        if (kb + c >= visible || kb + c < win_start) {
          s_row[c] = kNegInf;
          continue;
        }
        const std::int8_t* kr = sc.k_q1.data() + (kb + c) * d;
        std::int32_t acc = 0;
        for (std::size_t x = 0; x < d; ++x) {
          acc += static_cast<std::int32_t>(qr[x]) *
                 static_cast<std::int32_t>(kr[x]);
        }
        s_row[c] = static_cast<float>(acc) * s_scale;
      }
    }

    // Online softmax with SAS exponentials; P~ replaces S row by row, then
    // the whole tile is symmetrically quantized to INT8 for the P~V
    // integer matmul.
    float p_max = 0.0f;
    for (std::size_t r = 0; r < q_rows; ++r) {
      const std::span<float> p_row(sc.s.data() + r * bc, k_rows);
      float block_max = kNegInf;
      for (const float s : p_row) block_max = std::max(block_max, s);
      if (block_max == kNegInf) {
        // Fully masked row within this tile: contributes nothing.
        std::fill(p_row.begin(), p_row.end(), 0.0f);
        continue;
      }
      const float m_new = std::max(sc.m_run[r], block_max);
      const float alpha =
          sc.m_run[r] == kNegInf ? 0.0f : p.sas.exp_neg(sc.m_run[r] - m_new);

      // m_new is finite here, so masked (-inf) scores stay -inf after
      // the shift and SAS maps them to exactly 0.
      for (float& s : p_row) s -= m_new;
      p.sas.apply(p_row);
      float row_sum = 0.0f;
      for (const float pv : p_row) {
        row_sum += pv;
        p_max = std::max(p_max, pv);
      }
      sc.l_run[r] = sc.l_run[r] * alpha + row_sum;
      sc.m_run[r] = m_new;

      if (alpha != 1.0f) {
        auto orow = p.result.o.row(qb + r);
        for (std::size_t x = 0; x < d; ++x) orow[x] *= alpha;
      }
    }

    // Quantize P~ (values in [0, 1]) with one per-tile scale and run the
    // INT8 P~V matmul.
    const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
    const float inv_p_scale = 1.0f / p_scale;
    for (std::size_t r = 0; r < q_rows; ++r) {
      for (std::size_t c = 0; c < k_rows; ++c) {
        sc.p_q[r * bc + c] = clamp_to_i8(sc.s[r * bc + c] * inv_p_scale, 0, 127);
      }
    }
    const float o_scale = p_scale * sc.v_scale[j];
    for (std::size_t r = 0; r < q_rows; ++r) {
      auto orow = p.result.o.row(qb + r);
      for (std::size_t c = 0; c < k_rows; ++c) {
        const std::int32_t pv = sc.p_q[r * bc + c];
        if (pv == 0) continue;
        const std::int8_t* vr = sc.v_q1.data() + (kb + c) * d;
        for (std::size_t x = 0; x < d; ++x) {
          orow[x] += static_cast<float>(pv * vr[x]) * o_scale;
        }
      }
    }
  }
  finalize_rows(p, qb, q_rows, p.result.o.data() + qb * d, d);
}

#if TURBO_X86
// The AVX2 tile loop. Each phase is its own target("avx2") function (a
// per-element AVX2 helper called from baseline code costs more than it
// saves) and returns the portable loop's bits:
//   * QK^T sums INT32 products, exact in any order;
//   * row max and P~ max are order-free (only ±0 tie with different bits,
//     and a zero row max is recomputed in column order);
//   * each row sum adds its columns in order, 8 rows at once, one per lane;
//   * P~ rounds with vroundps in the current direction, as nearbyint does;
//   * P~V multiplies pv * v in float (exact: |pv * v| < 2^24), then by
//     o_scale, then adds, per element and in column order, skipping the
//     pv == 0 columns the portable loop skips.
// No target here enables FMA: contracting a multiply-add would change the
// bits.

// K as int16 rows of d16 (zero-padded, plus 8 zero rows so the last 8-key
// chunk stays in bounds) and V as float rows of d8, once per call.
__attribute__((target("avx2"))) void widen_kv_avx2(Prefill& p) {
  TurboPrefillScratch& sc = p.sc;
  sc.k16.assign((p.n_k + 8) * p.d16, 0);
  sc.v_f.assign(p.n_k * p.d8, 0.0f);
  for (std::size_t t = 0; t < p.n_k; ++t) {
    const std::int8_t* k8 = sc.k_q1.data() + t * p.d;
    const std::int8_t* v8 = sc.v_q1.data() + t * p.d;
    std::int16_t* k16 = sc.k16.data() + t * p.d16;
    float* vf = sc.v_f.data() + t * p.d8;
    for (std::size_t x = 0; x < p.d; ++x) {
      k16[x] = k8[x];
      vf[x] = static_cast<float>(v8[x]);
    }
  }
}

__attribute__((target("avx2"), always_inline)) inline float hmax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

// [sum(a[0]), ..., sum(a[7])]: the 8 lanes of each accumulator added.
__attribute__((target("avx2"), always_inline)) inline __m256i hsum8(
    const __m256i* a) {
  const __m256i h01 = _mm256_hadd_epi32(a[0], a[1]);
  const __m256i h23 = _mm256_hadd_epi32(a[2], a[3]);
  const __m256i h45 = _mm256_hadd_epi32(a[4], a[5]);
  const __m256i h67 = _mm256_hadd_epi32(a[6], a[7]);
  const __m256i h0123 = _mm256_hadd_epi32(h01, h23);
  const __m256i h4567 = _mm256_hadd_epi32(h45, h67);
  return _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                          _mm256_permute2x128_si256(h0123, h4567, 0x31));
}

// S for one tile: 8 keys at a time per query row, each a vpmaddwd pass
// over the row's int16 channels; masked columns become -inf.
__attribute__((target("avx2"))) void qk_avx2(Prefill& p, std::size_t qb,
                                            std::size_t q_rows, std::size_t kb,
                                            std::size_t k_rows, float s_scale) {
  TurboPrefillScratch& sc = p.sc;
  const std::size_t d16 = p.d16;
  const std::int16_t* k = sc.k16.data() + kb * d16;
  const __m256 scale = _mm256_set1_ps(s_scale);
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::int16_t* qr = sc.q16.data() + r * d16;
    float* s_row = sc.s.data() + r * p.bc8;
    const std::size_t lo =
        std::clamp(p.win_start(qb + r), kb, kb + k_rows) - kb;
    const std::size_t hi = std::clamp(p.visible(qb + r), kb, kb + k_rows) - kb;
    for (std::size_t c0 = lo - lo % 8; c0 < hi; c0 += 8) {
      __m256i acc[8] = {};
      for (std::size_t x = 0; x < d16; x += 16) {
        const __m256i qv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qr + x));
        for (std::size_t i = 0; i < 8; ++i) {
          const __m256i kv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(k + (c0 + i) * d16 + x));
          acc[i] = _mm256_add_epi32(acc[i], _mm256_madd_epi16(qv, kv));
        }
      }
      _mm256_storeu_ps(s_row + c0,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(hsum8(acc)), scale));
    }
    std::fill(s_row, s_row + lo, kNegInf);
    std::fill(s_row + hi, s_row + k_rows, kNegInf);
  }
}

// S -> P~ in place, with the online-softmax state updates. Returns the
// tile's P~ max.
__attribute__((target("avx2"))) float softmax_avx2(Prefill& p,
                                                   std::size_t q_rows,
                                                   std::size_t k_rows) {
  TurboPrefillScratch& sc = p.sc;
  const std::size_t stride = p.bc8;
  for (std::size_t r = 0; r < q_rows; ++r) {
    float* row = sc.s.data() + r * stride;
    __m256 vmax = _mm256_set1_ps(kNegInf);
    std::size_t c = 0;
    for (; c + 8 <= k_rows; c += 8) {
      vmax = _mm256_max_ps(_mm256_loadu_ps(row + c), vmax);
    }
    float block_max = hmax(vmax);
    for (; c < k_rows; ++c) block_max = std::max(block_max, row[c]);
    if (block_max == 0.0f) {
      block_max = kNegInf;
      for (c = 0; c < k_rows; ++c) block_max = std::max(block_max, row[c]);
    }
    if (block_max == kNegInf) {
      // Fully masked row within this tile: contributes nothing.
      std::fill(row, row + k_rows, 0.0f);
      sc.m_new[r] = kNegInf;
      sc.alpha[r] = 1.0f;
      continue;
    }
    const float m_new = std::max(sc.m_run[r], block_max);
    sc.m_new[r] = m_new;
    sc.alpha[r] =
        sc.m_run[r] == kNegInf ? 0.0f : p.sas.exp_neg(sc.m_run[r] - m_new);
    const __m256 shift = _mm256_set1_ps(m_new);
    for (c = 0; c + 8 <= k_rows; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_sub_ps(_mm256_loadu_ps(row + c), shift));
    }
    for (; c < k_rows; ++c) row[c] -= m_new;
    p.sas.apply(std::span<float>(row, k_rows));
  }

  // Row sums, 8 rows at once: lane i gathers row r + i column by column.
  float p_max = 0.0f;
  __m256 vpmax = _mm256_setzero_ps();
  const __m256i lanes = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(stride)));
  std::size_t r = 0;
  for (; r + 8 <= q_rows; r += 8) {
    const float* base = sc.s.data() + r * stride;
    __m256 sum = _mm256_setzero_ps();
    for (std::size_t c = 0; c < k_rows; ++c) {
      const __m256 pv = _mm256_i32gather_ps(base + c, lanes, 4);
      sum = _mm256_add_ps(sum, pv);
      vpmax = _mm256_max_ps(pv, vpmax);
    }
    _mm256_storeu_ps(sc.row_sum.data() + r, sum);
  }
  for (; r < q_rows; ++r) {
    const float* row = sc.s.data() + r * stride;
    float sum = 0.0f;
    for (std::size_t c = 0; c < k_rows; ++c) {
      sum += row[c];
      p_max = std::max(p_max, row[c]);
    }
    sc.row_sum[r] = sum;
  }
  p_max = std::max(p_max, hmax(vpmax));

  for (r = 0; r < q_rows; ++r) {
    if (sc.m_new[r] == kNegInf) continue;
    sc.l_run[r] = sc.l_run[r] * sc.alpha[r] + sc.row_sum[r];
    sc.m_run[r] = sc.m_new[r];
  }
  return p_max;
}

// P~ -> its INT8 codes in place, kept as floats: clamp(round(p / s), 0,
// 127), NaN -> 0 (max returns its second operand on NaN).
__attribute__((target("avx2"))) void round_codes_avx2(Prefill& p,
                                                      std::size_t q_rows,
                                                      std::size_t k_rows,
                                                      float inv_p_scale) {
  const __m256 inv = _mm256_set1_ps(inv_p_scale);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 top = _mm256_set1_ps(127.0f);
  for (std::size_t r = 0; r < q_rows; ++r) {
    float* row = p.sc.s.data() + r * p.bc8;
    std::size_t c = 0;
    for (; c + 8 <= k_rows; c += 8) {
      const __m256 x = _mm256_round_ps(
          _mm256_mul_ps(_mm256_loadu_ps(row + c), inv),
          _MM_FROUND_CUR_DIRECTION);
      _mm256_storeu_ps(row + c, _mm256_min_ps(_mm256_max_ps(x, zero), top));
    }
    for (; c < k_rows; ++c) {
      row[c] = static_cast<float>(clamp_to_i8(row[c] * inv_p_scale, 0, 127));
    }
  }
}

// o[0, 8 * kRegs) = o * alpha + sum over c of (pv[c] * v[c]) * o_scale,
// in column order, with the row held in registers.
template <std::size_t kRegs>
__attribute__((target("avx2"), always_inline)) inline void pv_chunk(
    float* o, const float* codes, std::size_t k_rows, const float* v,
    std::size_t v_stride, float alpha, __m256 o_scale) {
  __m256 acc[kRegs];
  for (std::size_t i = 0; i < kRegs; ++i) acc[i] = _mm256_loadu_ps(o + 8 * i);
  if (alpha != 1.0f) {
    const __m256 a = _mm256_set1_ps(alpha);
    for (std::size_t i = 0; i < kRegs; ++i) acc[i] = _mm256_mul_ps(acc[i], a);
  }
  for (std::size_t c = 0; c < k_rows; ++c) {
    if (codes[c] == 0.0f) continue;
    const __m256 pv = _mm256_set1_ps(codes[c]);
    const float* vr = v + c * v_stride;
    for (std::size_t i = 0; i < kRegs; ++i) {
      const __m256 prod = _mm256_mul_ps(pv, _mm256_loadu_ps(vr + 8 * i));
      acc[i] = _mm256_add_ps(acc[i], _mm256_mul_ps(prod, o_scale));
    }
  }
  for (std::size_t i = 0; i < kRegs; ++i) _mm256_storeu_ps(o + 8 * i, acc[i]);
}

__attribute__((target("avx2"))) void pv_avx2(Prefill& p, std::size_t q_rows,
                                            std::size_t kb, std::size_t k_rows,
                                            float o_scale_f) {
  TurboPrefillScratch& sc = p.sc;
  const std::size_t d8 = p.d8;
  const __m256 o_scale = _mm256_set1_ps(o_scale_f);
  const float* v = sc.v_f.data() + kb * d8;
  for (std::size_t r = 0; r < q_rows; ++r) {
    float* o = sc.o.data() + r * d8;
    const float* codes = sc.s.data() + r * p.bc8;
    const float alpha = sc.alpha[r];
    for (std::size_t x = 0; x < d8; x += 64) {
      switch (std::min<std::size_t>(d8 - x, 64) / 8) {
        case 1: pv_chunk<1>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 2: pv_chunk<2>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 3: pv_chunk<3>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 4: pv_chunk<4>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 5: pv_chunk<5>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 6: pv_chunk<6>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        case 7: pv_chunk<7>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
        default: pv_chunk<8>(o + x, codes, k_rows, v + x, d8, alpha, o_scale); break;
      }
    }
  }
}

__attribute__((target("avx2"))) void q_tile_avx2(Prefill& p, std::size_t qb,
                                                std::size_t q_rows,
                                                float q_scale) {
  TurboPrefillScratch& sc = p.sc;
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::int8_t* q8 = sc.q_q1.data() + r * p.d;
    std::int16_t* q16 = sc.q16.data() + r * p.d16;
    for (std::size_t x = 0; x < p.d; ++x) q16[x] = q8[x];
    std::fill(q16 + p.d, q16 + p.d16, std::int16_t{0});
  }
  std::fill_n(sc.m_run.begin(), q_rows, kNegInf);
  std::fill_n(sc.l_run.begin(), q_rows, 0.0f);
  std::fill_n(sc.o.begin(), q_rows * p.d8, 0.0f);

  const auto [first, last] = kv_tiles(p, qb, q_rows);
  for (std::size_t j = first; j < last; ++j) {
    const std::size_t kb = j * p.bc;
    const std::size_t k_rows = std::min(p.bc, p.n_k - kb);
    qk_avx2(p, qb, q_rows, kb, k_rows, q_scale * sc.k_scale[j] * p.attn_scale);
    const float p_max = softmax_avx2(p, q_rows, k_rows);
    const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
    round_codes_avx2(p, q_rows, k_rows, 1.0f / p_scale);
    pv_avx2(p, q_rows, kb, k_rows, p_scale * sc.v_scale[j]);
  }
  finalize_rows(p, qb, q_rows, sc.o.data(), p.d8);
}
#else
// Never reached: Prefill::avx2 is false off x86.
void widen_kv_avx2(Prefill&) {}
constexpr auto q_tile_avx2 = q_tile_portable;
#endif

// Stage-1 quantization of rows [row, row + rows) of `m` into the front of
// `out` (per-block symmetric INT8); returns the block's scale.
float quantize_rows(const MatrixF& m, std::size_t row, std::size_t rows,
                    std::span<std::int8_t> out, bool avx2) {
  const std::size_t d = m.cols();
  const std::span<const float> block = m.flat().subspan(row * d, rows * d);
  const float scale = symmetric_scale_int8(block);
  quantize_symmetric_int8(block, scale, out.first(rows * d), avx2);
  return scale;
}

// Copies one stage-1 tile out of a flat INT8 buffer, reusing `tile`'s
// storage when the shape repeats.
void load_tile(Int8Tile& tile, const std::vector<std::int8_t>& src,
               std::size_t row, std::size_t rows, std::size_t d,
               float scale) {
  if (tile.q.rows() != rows || tile.q.cols() != d) tile.q = MatrixI8(rows, d);
  std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(row * d), rows * d,
              tile.q.data());
  tile.scale = scale;
}

}  // namespace

TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache,
                                           TurboPrefillScratch& scratch) {
  TURBO_CHECK(q.cols() == k.cols());
  TURBO_CHECK(k.rows() == v.rows());
  TURBO_CHECK(k.cols() == v.cols());
  TURBO_CHECK(!cfg.causal || q.rows() <= k.rows());
  TURBO_CHECK(cfg.block_rows > 0 && cfg.block_cols > 0);
  if (cache != nullptr) {
    TURBO_CHECK_MSG(cache->block_tokens() == cfg.block_cols,
                    "cache block size must match Bc");
    TURBO_CHECK(cache->head_dim() == k.cols());
  }

  const std::size_t n_q = q.rows();
  const std::size_t n_k = k.rows();
  const std::size_t d = q.cols();
  const std::size_t br = cfg.block_rows;
  const std::size_t bc = cfg.block_cols;
  TurboPrefillResult result;
  Prefill p{cfg,
            sas,
            scratch,
            result,
            n_k,
            d,
            bc,
            n_k - (cfg.causal ? n_q : n_k),
            cfg.effective_scale(d),
            TURBO_X86 && scratch.avx2,
            round_up(d, 16),
            round_up(d, 8),
            round_up(bc, 8)};
  TurboPrefillScratch& sc = scratch;

  // Stage-1 quantization of all K/V tiles (per-block symmetric INT8),
  // straight from the rows of K and V. Algorithm 1 performs this inside
  // the (i, j) loop; the result depends only on j, so we hoist it —
  // identical numerics, one pass.
  const std::size_t n_kv_tiles = (n_k + bc - 1) / bc;
  sc.k_q1.resize(n_k * d);
  sc.v_q1.resize(n_k * d);
  sc.k_scale.resize(n_kv_tiles);
  sc.v_scale.resize(n_kv_tiles);
  for (std::size_t j = 0; j < n_kv_tiles; ++j) {
    const std::size_t kb = j * bc;
    const std::size_t rows = std::min(bc, n_k - kb);
    const std::span<std::int8_t> k_out(sc.k_q1.data() + kb * d, rows * d);
    const std::span<std::int8_t> v_out(sc.v_q1.data() + kb * d, rows * d);
    sc.k_scale[j] = quantize_rows(k, kb, rows, k_out, p.avx2);
    sc.v_scale[j] = quantize_rows(v, kb, rows, v_out, p.avx2);
  }

  result.o = MatrixF(n_q, d, 0.0f);
  result.lse.assign(n_q, 0.0f);
  sc.q_q1.resize(std::min(br, n_q) * d);
  sc.m_run.resize(br);
  sc.l_run.resize(br);
  if (p.avx2) {
    widen_kv_avx2(p);
    sc.s.resize(br * p.bc8);
    sc.q16.resize(br * p.d16);
    sc.o.resize(br * p.d8);
    sc.m_new.resize(br);
    sc.alpha.resize(br);
    sc.row_sum.resize(br);
  } else {
    sc.s.resize(br * bc);
    sc.p_q.resize(br * bc);
  }

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    // Stage-1 quantization of the Q tile.
    const float q_scale = quantize_rows(q, qb, q_rows, sc.q_q1, p.avx2);
    (p.avx2 ? q_tile_avx2 : q_tile_portable)(p, qb, q_rows, q_scale);
  }

  // Second-stage compression of the K/V tiles into the cache (Step 3 of
  // Figure 3's prefill flow).
  if (cache != nullptr) {
    Int8Tile k_tile;
    Int8Tile v_tile;
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      const std::size_t kb = j * bc;
      const std::size_t rows = std::min(bc, n_k - kb);
      load_tile(k_tile, sc.k_q1, kb, rows, d, sc.k_scale[j]);
      load_tile(v_tile, sc.v_q1, kb, rows, d, sc.v_scale[j]);
      cache->append_prefill_block(k_tile, v_tile);
    }
  }
  return result;
}

TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache) {
  TurboPrefillScratch scratch;
  return turbo_attention_prefill(q, k, v, cfg, sas, cache, scratch);
}

}  // namespace turbo
