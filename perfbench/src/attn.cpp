// The two real-kernel workloads: closed-loop requests (prefill over every
// head, then decode steps) through TurboKvAttention on generated Q/K/V.
//
// attn_prefill: Phi-3-mini accuracy profile, 8 heads x 32 dims, the
//   paper's head-wise mix (half the heads 2-bit), log-normal prompts with
//   16 generated tokens each. Time goes to prefill.
// attn_decode: LLaMA-3 profile, 4-bit KV, 4:1 grouped-query attention
//   (8 query heads over 2 KV heads), long prompts and a few hundred
//   generated tokens. Time goes to reading the packed cache.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "attention/flash.h"
#include "attention/headwise.h"
#include "attention/reference.h"
#include "attention/turbo.h"
#include "attention/turbo_method.h"
#include "bench.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/stats.h"
#include "kernels/fused_decode.h"
#include "model/generator.h"
#include "model/pipeline.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"

namespace perfbench {
namespace {

using turbo::BitWidth;
using turbo::MatrixF;

struct AttnSpec {
  turbo::model::ModelProfile profile;
  std::size_t kv_heads = 8;  // KV caches (method instances) per request
  std::size_t group = 1;     // query heads per KV head
  bool headwise = false;     // half the KV heads 2-bit, chosen by priority
  BitWidth bits = BitWidth::kInt4;  // every head, when !headwise
  std::size_t pool = 8;             // distinct requests, served in a cycle
  // Prompt lengths: log-normal (median, sigma), stratified over the pool
  // so every seed sees the same length distribution; sigma 0 = fixed.
  double prompt_median = 512;
  double prompt_sigma = 0;
  std::size_t prompt_min = 64;
  std::size_t prompt_max = 4096;
  std::size_t gen = 16;
  std::size_t check_rows = 16;       // sampled prefill rows per head
  std::size_t check_every = 1;       // reference-check every k-th step
  std::size_t probe_every = 8;       // traced: probe every k-th step
  std::size_t overhead_pairs = 3;    // traced: tracing-overhead pairs
};

// Relative L2 error bounds per KV bit width: on the mean over a request's
// checked rows, and on any single row. The README gives the measured
// errors they were set from.
struct Tolerance {
  double mean;
  double row;
};
const std::map<BitWidth, Tolerance> kTolerance = {
    {BitWidth::kInt2, {1.0, 15.0}},
    {BitWidth::kInt4, {0.5, 4.0}},
};

struct PoolRequest {
  std::size_t prompt = 0;
  std::size_t gen = 0;
  std::vector<MatrixF> q;      // per query head, prompt rows
  std::vector<MatrixF> q_gen;  // per query head, generated-token rows
  std::vector<MatrixF> k, v;   // per KV head, prompt rows
  std::vector<MatrixF> k_gen, v_gen;  // per KV head, generated-token rows
  std::vector<std::size_t> check_rows;  // sampled prefill rows
};

// Outputs kept from a request's first serve for the reference check.
struct CheckedRow {
  std::size_t head = 0;  // query head
  std::size_t kv = 0;    // its KV head
  std::size_t step = 0;  // decode step; kPrefillRow for prefill rows
  std::size_t row = 0;   // prefill row
  std::vector<float> out;
};
constexpr std::size_t kPrefillRow = static_cast<std::size_t>(-1);

struct Served {
  double ttft_ms = 0;
  std::vector<double> tpot_ms;
  double prefill_s = 0;
  double decode_s = 0;
  std::uint64_t digest = 0;
  double kv_bytes_per_token = 0;
  std::size_t flushes = 0;
  double prefill_macs = 0;
  std::vector<double> decode_bytes;
};

std::uint64_t fnv(std::uint64_t h, std::span<const float> values) {
  for (const float f : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    h = (h ^ bits) * 0x100000001B3ull;
  }
  return h;
}

MatrixF concat(const MatrixF& a, const MatrixF& b, std::size_t b_rows) {
  MatrixF out = a;
  out.append_rows(b.block_rows(0, b_rows));
  return out;
}

class AttnWorkload {
 public:
  AttnWorkload(const AttnSpec& spec, const Options& opt)
      : spec_(spec), opt_(opt) {
    cfg_.attention = turbo::AttentionConfig{};
    sas_ = std::make_unique<turbo::Sas>(cfg_.sas);
  }

  // Input generation, head statistics and bit selection.
  void setup() {
    Span s("attn.setup");
    const turbo::model::QkvGenerator model_gen(spec_.profile, opt_.seed);
    if (spec_.headwise) {
      std::vector<turbo::HeadStats> stats;
      {
        Span g("model.generate", 0, static_cast<double>(spec_.kv_heads));
        stats = turbo::model::collect_head_stats(model_gen, 512);
      }
      bits_ = turbo::select_head_bits(stats, spec_.kv_heads / 2,
                                      turbo::HeadSelectionMetric::kPriority);
    } else {
      bits_.assign(spec_.kv_heads, spec_.bits);
    }
    turbo::Rng rng(turbo::Rng(opt_.seed).next_u64() ^ 0xA77Eu);
    pool_.assign(spec_.pool, PoolRequest{});
    for (std::size_t i = 0; i < spec_.pool; ++i) {
      PoolRequest& r = pool_[i];
      const double u = (static_cast<double>(i) + rng.uniform()) /
                       static_cast<double>(spec_.pool);
      const double len =
          spec_.prompt_median *
          std::exp(spec_.prompt_sigma * normal_quantile(u));
      r.prompt = std::clamp<std::size_t>(static_cast<std::size_t>(len),
                                         spec_.prompt_min, spec_.prompt_max);
      r.gen = spec_.gen;
      const turbo::model::QkvGenerator gen(spec_.profile,
                                           mix_seed(opt_.seed, i + 1));
      const std::size_t n = r.prompt + r.gen;
      const std::size_t heads = spec_.kv_heads * spec_.group;
      for (std::size_t h = 0; h < heads; ++h) {
        turbo::model::HeadTensors t;
        {
          Span g("model.generate", i);
          t = gen.generate_head(h, n);
        }
        r.q.push_back(t.q.block_rows(0, r.prompt));
        r.q_gen.push_back(t.q.block_rows(r.prompt, r.gen));
        if (h % spec_.group == 0) {
          r.k.push_back(t.k.block_rows(0, r.prompt));
          r.k_gen.push_back(t.k.block_rows(r.prompt, r.gen));
          r.v.push_back(t.v.block_rows(0, r.prompt));
          r.v_gen.push_back(t.v.block_rows(r.prompt, r.gen));
        }
      }
      // Sampled prefill rows: the last row plus a seeded spread.
      r.check_rows.push_back(r.prompt - 1);
      for (std::size_t j = 1; j < spec_.check_rows; ++j) {
        r.check_rows.push_back(
            static_cast<std::size_t>(rng.uniform_index(r.prompt)));
      }
    }
    // Serve the length bands in bit-reversed order, so that whatever
    // prefix of a cycle a run ends on is spread over the whole length
    // distribution rather than clustered in a few bands.
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < spec_.pool) ++bits;
    order_.clear();
    for (std::size_t i = 0; i < (std::size_t{1} << bits); ++i) {
      std::size_t rev = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        if ((i >> b) & 1u) rev |= std::size_t{1} << (bits - 1 - b);
      }
      if (rev < spec_.pool) order_.push_back(rev);
    }
  }

  Report run() {
    Report rep;
    std::vector<double> setups;
    for (int i = 0; i < 3; ++i) {
      const std::int64_t t = now_ns();
      setup();
      setups.push_back(seconds_since(t));
    }
    first_digest_.assign(spec_.pool, 0);
    checked_.assign(spec_.pool, {});
    served_once_.assign(spec_.pool, false);
    kv_bpt_.assign(spec_.pool, 0.0);

    std::vector<double> ttft, tpot;
    double prefill_s = 0, decode_s = 0;
    std::size_t prompt_tokens = 0, gen_tokens = 0;
    std::size_t flushes = 0;
    double macs = 0;
    std::vector<double> decode_bytes;

    const std::int64_t start = now_ns();
    std::size_t k = 0;
    while (seconds_since(start) < opt_.seconds) {
      const std::size_t idx = order_[k % spec_.pool];
      const Served s = serve(idx, k, !served_once_[idx], opt_.trace);
      record(rep, idx, s);
      ttft.push_back(s.ttft_ms);
      tpot.insert(tpot.end(), s.tpot_ms.begin(), s.tpot_ms.end());
      prefill_s += s.prefill_s;
      decode_s += s.decode_s;
      prompt_tokens += pool_[idx].prompt;
      gen_tokens += pool_[idx].gen;
      flushes += s.flushes;
      macs += s.prefill_macs;
      decode_bytes.insert(decode_bytes.end(), s.decode_bytes.begin(),
                          s.decode_bytes.end());
      ++k;
    }
    rep.attempted = k;
    // Quality is checked on every pool entry, so the quality figures do
    // not depend on how many requests the run got through: serve the ones
    // the loop did not reach, untimed.
    for (std::size_t idx = 0; idx < spec_.pool; ++idx) {
      if (!served_once_[idx]) record(rep, idx, serve(idx, k, true, false));
    }
    double kv_bpt = 0;
    for (const double b : kv_bpt_) kv_bpt += b;
    kv_bpt /= static_cast<double>(spec_.pool);

    double overhead = 0;
    if (opt_.trace) {
      std::size_t shortest = 0;
      for (std::size_t i = 0; i < spec_.pool; ++i) {
        if (pool_[i].prompt < pool_[shortest].prompt) shortest = i;
      }
      overhead = tracing_overhead_pct(
          [&] { serve(shortest, k, false, false); }, spec_.overhead_pairs);
    }

    const double rel_err = check_outputs(rep);
    const auto n = static_cast<double>(k);

    rep.end_to_end = {
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ttft_ms_p50", median(ttft), "ms"},
        {"tpot_ms_p50", median(tpot), "ms"},
        {"tpot_ms_p90", quantile(tpot, 0.90), "ms"},
    };
    rep.info = {
        {"prefill_tok_s", static_cast<double>(prompt_tokens) / prefill_s,
         "tok/s"},
        {"decode_tok_s", static_cast<double>(gen_tokens) / decode_s, "tok/s"},
        {"requests", n, "count"},
        {"ttft_samples", static_cast<double>(ttft.size()), "count"},
        {"tpot_samples", static_cast<double>(tpot.size()), "count"},
        {"tpot_ms_p99", quantile(tpot, 0.99), "ms"},
        {"tpot_samples_beyond_p99", static_cast<double>(beyond(tpot, 0.99)),
         "count"},
        {"rel_err", rel_err, "ratio"},
        {"kv_bytes_per_token", kv_bpt, "B"},
    };
    if (beyond(ttft, 0.9) >= 10) {
      rep.info.push_back({"ttft_ms_p90", quantile(ttft, 0.9), "ms"});
    }
    rep.layers = {
        {"attention.rel_err", rel_err, "ratio"},
        {"kvcache.bytes_per_token", kv_bpt, "B"},
        {"kvcache.flushes", static_cast<double>(flushes) / n, "count"},
        {"attention.prefill_macs", macs / n, "count"},
        {"attention.decode_bytes", median(decode_bytes), "B"},
        {"trace.overhead_pct", overhead, "%"},
    };
    return rep;
  }

 private:
  // Keeps a pool entry's first serve for the checks; later serves of the
  // same inputs must reproduce its outputs bit for bit.
  void record(Report& rep, std::size_t idx, const Served& s) {
    if (!served_once_[idx]) {
      served_once_[idx] = true;
      first_digest_[idx] = s.digest;
      kv_bpt_[idx] = s.kv_bytes_per_token;
      check_kv_bytes(rep, idx, s.kv_bytes_per_token);
    } else if (s.digest != first_digest_[idx]) {
      rep.fail("request " + std::to_string(idx) +
               ": outputs differ between two serves of the same inputs");
    }
  }

  turbo::TurboMethodConfig head_config(std::size_t kv) const {
    turbo::TurboMethodConfig c = cfg_;
    c.kv_bits = bits_[kv];
    return c;
  }

  // One request: prefill over every KV head, then `gen` decode steps over
  // every query head. Wall-clock samples exclude probes and checks.
  Served serve(std::size_t idx, std::size_t request, bool keep_outputs,
               bool probe) {
    const PoolRequest& r = pool_[idx];
    const std::size_t d = spec_.profile.head_dim;
    Served out;
    std::vector<std::unique_ptr<turbo::TurboKvAttention>> heads;
    for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
      heads.push_back(
          std::make_unique<turbo::TurboKvAttention>(d, head_config(g)));
    }
    std::uint64_t digest = 0xCBF29CE484222325ull;
    Span req("attn.request", request);

    std::vector<MatrixF> prefill_out(spec_.kv_heads);
    std::int64_t t0 = now_ns();
    {
      Span s("attn.prefill_all", request);
      for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
        Span h("attention.prefill", request);
        prefill_out[g] = heads[g]->prefill(r.q[g * spec_.group], r.k[g], r.v[g]);
      }
    }
    out.prefill_s = seconds_since(t0);
    out.ttft_ms = out.prefill_s * 1e3;
    for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
      digest = fnv(digest, prefill_out[g].flat());
      out.prefill_macs += 2.0 * static_cast<double>(d) *
                          static_cast<double>(r.prompt) *
                          static_cast<double>(r.prompt + 1) / 2.0;
      if (keep_outputs) {
        for (const std::size_t row : r.check_rows) {
          const auto o = prefill_out[g].row(row);
          checked_[idx].push_back(
              {g * spec_.group, g, kPrefillRow, row, {o.begin(), o.end()}});
        }
      }
    }
    if (probe) probe_prefill(r, request);

    std::unique_ptr<turbo::QuantizedKvCache> owned;
    if (probe) owned = owned_cache(r);
    for (std::size_t s = 0; s < r.gen; ++s) {
      std::vector<std::size_t> blocks_before(spec_.kv_heads);
      for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
        blocks_before[g] = heads[g]->cache().block_count();
      }
      std::vector<std::vector<float>> step_out(spec_.kv_heads * spec_.group);
      t0 = now_ns();
      {
        Span st("attn.decode_step", request);
        for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
          for (std::size_t j = 0; j < spec_.group; ++j) {
            const std::size_t h = g * spec_.group + j;
            if (j == 0) {
              Span sp("attention.decode", request);
              step_out[h] = heads[g]->decode(r.q_gen[h].row(s),
                                             r.k_gen[g].row(s),
                                             r.v_gen[g].row(s));
            } else {
              Span sp("attention.attend", request);
              step_out[h] = heads[g]->attend(r.q_gen[h].row(s));
            }
          }
        }
      }
      const double step_s = seconds_since(t0);
      out.decode_s += step_s;
      out.tpot_ms.push_back(step_s * 1e3);
      double bytes = 0;
      for (std::size_t g = 0; g < spec_.kv_heads; ++g) {
        out.flushes += heads[g]->cache().block_count() - blocks_before[g];
        bytes += static_cast<double>(heads[g]->cache().memory_bytes()) *
                 static_cast<double>(spec_.group);
      }
      out.decode_bytes.push_back(bytes);
      for (std::size_t h = 0; h < step_out.size(); ++h) {
        digest = fnv(digest, step_out[h]);
        if (keep_outputs && s % spec_.check_every == 0) {
          checked_[idx].push_back(
              {h, h / spec_.group, s, 0, std::move(step_out[h])});
        }
      }
      if (probe) {
        Span sp("kvcache.append", request);
        owned->append_token(r.k_gen[0].row(s), r.v_gen[0].row(s));
      }
      if (probe && s % spec_.probe_every == 0) {
        probe_decode(r, *heads[0], s, request);
      }
    }
    std::size_t bytes = 0;
    for (const auto& h : heads) bytes += h->kv_cache_bytes();
    out.kv_bytes_per_token = static_cast<double>(bytes) /
                             static_cast<double>(r.prompt + r.gen);
    out.digest = digest;
    return out;
  }

  // A benchmark-owned cache primed with KV head 0's prompt tiles, which
  // the probes quantize and compress on the way.
  std::unique_ptr<turbo::QuantizedKvCache> owned_cache(const PoolRequest& r) {
    const std::size_t bc = cfg_.attention.block_cols;
    auto cache = std::make_unique<turbo::QuantizedKvCache>(
        spec_.profile.head_dim, bits_[0], bc, cfg_.buffer_capacity);
    for (std::size_t t = 0; t < r.prompt; t += bc) {
      const std::size_t rows = std::min(bc, r.prompt - t);
      const MatrixF kt = r.k[0].block_rows(t, rows);
      const MatrixF vt = r.v[0].block_rows(t, rows);
      turbo::Int8Tile qk, qv;
      {
        Span s("quant.tile_int8");
        qk = turbo::quantize_tile_int8(kt);
      }
      {
        Span s("quant.tile_int8");
        qv = turbo::quantize_tile_int8(vt);
      }
      for (const BitWidth b : {BitWidth::kInt4, BitWidth::kInt2}) {
        Span s("quant.compress");
        const turbo::ProgressiveBlock pb =
            turbo::progressive_compress(qk.q, qk.scale, b);
        (void)pb;
      }
      cache->append_prefill_block(qk, qv);
    }
    return cache;
  }

  // Kernel-level probes on KV head 0's prefill tensors.
  void probe_prefill(const PoolRequest& r, std::size_t request) {
    const MatrixF& q = r.q[0];
    {
      Span s("attention.turbo_prefill", request);
      const auto res = turbo::turbo_attention_prefill(
          q, r.k[0], r.v[0], cfg_.attention, *sas_, nullptr);
      (void)res;
    }
    {
      Span s("attention.flash_prefill", request);
      const auto res =
          turbo::flash_attention(q, r.k[0], r.v[0], cfg_.attention);
      (void)res;
    }
    // One Br x Bc tile of row-max-shifted scores for the exponentials.
    const std::size_t br = std::min(cfg_.attention.block_rows, r.prompt);
    const std::size_t bc = std::min(cfg_.attention.block_cols, r.prompt);
    const MatrixF qt = q.block_rows(r.prompt - br, br);
    const MatrixF kt = r.k[0].block_rows(0, bc);
    MatrixF scores = turbo::matmul_transposed(qt, kt);
    const float scale = cfg_.attention.effective_scale(q.cols());
    for (std::size_t i = 0; i < scores.rows(); ++i) {
      auto row = scores.row(i);
      float mx = -INFINITY;
      for (float& x : row) {
        x *= scale;
        mx = std::max(mx, x);
      }
      for (float& x : row) x -= mx;
    }
    std::vector<float> a(scores.flat().begin(), scores.flat().end());
    std::vector<float> b = a;
    const auto elems = static_cast<double>(a.size());
    {
      Span s("softmax.sas", request, elems);
      sas_->apply(a);
    }
    {
      Span s("softmax.expf", request, elems);
      for (float& x : b) x = std::exp(x);
    }
    std::vector<float> f(qt.flat().begin(), qt.flat().end());
    {
      Span s("common.fp16_round", request, static_cast<double>(f.size()));
      turbo::round_span_to_fp16(f);
    }
    sink_ += a[0] + b[0] + f[0];
  }

  // Kernel-level probes on KV head 0's live cache after decode step s.
  void probe_decode(const PoolRequest& r, const turbo::TurboKvAttention& m,
                    std::size_t s, std::size_t request) {
    const turbo::QuantizedKvCache& cache = m.cache();
    const auto q = r.q_gen[0].row(s);
    std::vector<float> ref, fused;
    {
      Span sp("attention.turbo_decode", request);
      ref = turbo::turbo_attention_decode(q, cache, cfg_.attention, *sas_);
    }
    {
      Span sp("kernels.fused_decode", request);
      fused = turbo::fused_turbo_decode(q, cache, cfg_.attention, *sas_);
    }
    if (ref.size() != fused.size() ||
        std::memcmp(ref.data(), fused.data(), ref.size() * sizeof(float)) !=
            0) {
      ++fused_mismatches_;
    }
    ++fused_probes_;
    MatrixF k16 = concat(r.k[0], r.k_gen[0], s + 1);
    MatrixF v16 = concat(r.v[0], r.v_gen[0], s + 1);
    turbo::round_span_to_fp16(k16.flat());
    turbo::round_span_to_fp16(v16.flat());
    turbo::FlashOptions fo;
    fo.kv_prerounded = true;
    {
      Span sp("attention.flash_decode", request);
      const auto o = turbo::flash_decode(q, k16, v16, cfg_.attention, fo);
      sink_ += o[0];
    }
    std::vector<std::uint8_t> codes;
    for (std::size_t b = 0; b < cache.block_count(); ++b) {
      const turbo::KvBlock& blk = cache.block(b);
      {
        Span sp("quant.decompress", request);
        const turbo::MatrixI8 k8 = turbo::progressive_decompress_int8(blk.k);
        sink_ += k8.flat()[0];
      }
      const std::size_t n = blk.k.rows * blk.k.cols;
      codes.resize(n);
      {
        Span sp("quant.unpack", request, static_cast<double>(n));
        turbo::unpack_codes(blk.k.packed, blk.k.bits, n, codes);
      }
      sink_ += codes[0];
    }
  }

  void check_kv_bytes(Report& rep, std::size_t idx, double bpt) const {
    const double d = static_cast<double>(spec_.profile.head_dim);
    double floor = 0, fp16 = 0;
    for (const BitWidth b : bits_) {
      floor += 2.0 * d * static_cast<double>(turbo::bit_count(b)) / 8.0;
      fp16 += 2.0 * d * 2.0;
    }
    if (!(bpt >= floor && bpt <= fp16)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "request %zu: %.2f KV bytes/token outside [%.1f, %.1f]",
                    idx, bpt, floor, fp16);
      rep.fail(buf);
    }
  }

  // Reference check of every kept output row; returns the mean relative
  // error over them. Per request, the mean over the rows of each KV bit
  // width, and every single row, must sit within that width's tolerance.
  double check_outputs(Report& rep) const {
    double sum = 0;
    std::size_t rows = 0;
    for (std::size_t idx = 0; idx < spec_.pool; ++idx) {
      if (checked_[idx].empty()) continue;
      const PoolRequest& r = pool_[idx];
      std::map<BitWidth, std::pair<double, std::size_t>> by_bits;
      double worst = 0;
      for (const CheckedRow& c : checked_[idx]) {
        const double e = reference_error(r, c);
        const BitWidth b = bits_[c.kv];
        by_bits[b].first += e;
        ++by_bits[b].second;
        sum += e;
        ++rows;
        worst = std::max(worst, e);
        if (!(e <= kTolerance.at(b).row)) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "request %zu head %zu %s row: rel_err %.3f > %.2f",
                        idx, c.head, c.step == kPrefillRow ? "prefill" : "decode",
                        e, kTolerance.at(b).row);
          rep.fail(buf);
        }
      }
      for (const auto& [b, acc] : by_bits) {
        const double mean_err = acc.first / static_cast<double>(acc.second);
        if (!(mean_err <= kTolerance.at(b).mean)) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "request %zu %d-bit heads: mean rel_err %.4f > %.2f",
                        idx, turbo::bit_count(b), mean_err,
                        kTolerance.at(b).mean);
          rep.fail(buf);
        }
      }
    }
    if (fused_mismatches_ > 0) {
      rep.fail(std::to_string(fused_mismatches_) + " of " +
               std::to_string(fused_probes_) +
               " fused_turbo_decode probes differ from turbo_attention_decode");
    }
    return rows == 0 ? 0.0 : sum / static_cast<double>(rows);
  }

  // FP32 reference for one kept row, on the unquantized inputs.
  double reference_error(const PoolRequest& r, const CheckedRow& c) const {
    const turbo::AttentionConfig& cfg = cfg_.attention;
    if (c.step == kPrefillRow) {
      const MatrixF q = r.q[c.head].block_rows(c.row, 1);
      const MatrixF k = r.k[c.kv].block_rows(0, c.row + 1);
      const MatrixF v = r.v[c.kv].block_rows(0, c.row + 1);
      const MatrixF ref = turbo::reference_attention(q, k, v, cfg);
      return turbo::relative_error(std::span<const float>(c.out), ref.flat());
    }
    const MatrixF k = concat(r.k[c.kv], r.k_gen[c.kv], c.step + 1);
    const MatrixF v = concat(r.v[c.kv], r.v_gen[c.kv], c.step + 1);
    const std::vector<float> ref =
        turbo::reference_decode(r.q_gen[c.head].row(c.step), k, v, cfg);
    return turbo::relative_error(std::span<const float>(c.out),
                                 std::span<const float>(ref));
  }

  const AttnSpec& spec_;
  const Options& opt_;
  turbo::TurboMethodConfig cfg_;
  std::unique_ptr<turbo::Sas> sas_;
  std::vector<BitWidth> bits_;
  std::vector<PoolRequest> pool_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> first_digest_;
  std::vector<std::vector<CheckedRow>> checked_;
  std::vector<bool> served_once_;
  std::vector<double> kv_bpt_;
  std::size_t fused_probes_ = 0;
  std::size_t fused_mismatches_ = 0;
  float sink_ = 0;

  friend bool perfbench::attn_check_rejects_perturbed_row();
};

AttnSpec prefill_spec(const Options& opt) {
  AttnSpec s;
  s.profile = turbo::model::phi3_mini_profile();
  s.kv_heads = 8;
  s.group = 1;
  s.headwise = true;
  s.pool = opt.small ? 4 : 32;
  s.prompt_median = opt.small ? 128 : 512;
  s.prompt_sigma = 0.55;
  s.prompt_min = 64;
  s.prompt_max = opt.small ? 512 : 3072;
  s.gen = 16;
  s.check_rows = 16;
  s.check_every = 1;
  s.probe_every = 8;
  s.overhead_pairs = 5;
  return s;
}

AttnSpec decode_spec(const Options& opt) {
  AttnSpec s;
  s.profile = turbo::model::llama3_8b_profile();
  s.kv_heads = 2;
  s.group = 4;
  s.headwise = false;
  s.bits = BitWidth::kInt4;
  s.pool = opt.small ? 2 : 8;
  s.prompt_median = opt.small ? 256 : 2048;
  s.prompt_sigma = 0.02;
  s.prompt_min = 64;
  s.prompt_max = 4096;
  s.gen = opt.small ? 64 : 256;
  s.check_rows = 8;
  s.check_every = 8;
  s.probe_every = 32;
  s.overhead_pairs = 2;
  return s;
}

}  // namespace

Report run_attn_prefill(const Options& opt) {
  const AttnSpec spec = prefill_spec(opt);
  return AttnWorkload(spec, opt).run();
}

Report run_attn_decode(const Options& opt) {
  const AttnSpec spec = decode_spec(opt);
  return AttnWorkload(spec, opt).run();
}

bool attn_check_rejects_perturbed_row() {
  Options opt;
  opt.seed = 1;
  opt.small = true;
  opt.seconds = 0;
  const AttnSpec spec = prefill_spec(opt);
  AttnWorkload w(spec, opt);
  w.setup();
  w.checked_.assign(spec.pool, {});
  w.serve(0, 0, true, false);
  Report clean;
  w.check_outputs(clean);
  if (!clean.correct) return false;
  // Damage one decode row of a 2-bit head, the loosest bound: negate it
  // and scale it by 40.
  auto& rows = w.checked_[0];
  auto it = std::find_if(rows.begin(), rows.end(), [&](const CheckedRow& c) {
    return c.step != kPrefillRow && w.bits_[c.kv] == BitWidth::kInt2;
  });
  if (it == rows.end()) return false;
  for (float& x : it->out) x *= -40.0f;
  Report damaged;
  w.check_outputs(damaged);
  return !damaged.correct;
}

}  // namespace perfbench
