// perfbench: one seeded workload per run, end-to-end metrics untraced,
// per-layer metrics traced. See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--trace-out FILE]
//   perfbench --check-checks
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

// Per-layer metrics computed from the spans of a traced run: the mean
// time per work unit of one span name, scaled from ns to the metric unit.
struct SpanMetric {
  const char* metric;
  const char* span;
  const char* unit;
  double ns_per_unit;
};

constexpr SpanMetric kSpanMetrics[] = {
    {"model.generate_ms", "model.generate", "ms", 1e6},
    {"attention.prefill_ms", "attention.prefill", "ms", 1e6},
    {"attention.decode_us", "attention.decode", "us", 1e3},
    {"attention.attend_us", "attention.attend", "us", 1e3},
    {"attention.turbo_prefill_ms", "attention.turbo_prefill", "ms", 1e6},
    {"attention.flash_prefill_ms", "attention.flash_prefill", "ms", 1e6},
    {"attention.turbo_decode_us", "attention.turbo_decode", "us", 1e3},
    {"kernels.fused_decode_us", "kernels.fused_decode", "us", 1e3},
    {"attention.flash_decode_us", "attention.flash_decode", "us", 1e3},
    {"quant.tile_int8_us", "quant.tile_int8", "us", 1e3},
    {"quant.compress_us", "quant.compress", "us", 1e3},
    {"quant.decompress_us", "quant.decompress", "us", 1e3},
    {"quant.unpack_ns", "quant.unpack", "ns", 1.0},
    {"softmax.sas_ns", "softmax.sas", "ns", 1.0},
    {"softmax.expf_ns", "softmax.expf", "ns", 1.0},
    {"common.fp16_round_ns", "common.fp16_round", "ns", 1.0},
    {"kvcache.append_us", "kvcache.append", "us", 1e3},
    {"serving.trace_ms", "serving.trace", "ms", 1e6},
    {"fleet.run_ms", "fleet.run", "ms", 1e6},
    {"serving.step_us", "serving.step", "us", 1e3},
    {"serving.snapshot_us", "serving.snapshot", "us", 1e3},
    {"serving.restore_ms", "serving.restore", "ms", 1e6},
};

// Per-layer metrics a workload reports itself, with their units. Every
// traced run reports every per-layer metric; a layer the workload does
// not exercise reads 0.
constexpr const char* kCountedMetrics[][2] = {
    {"kvcache.flushes", "count"},
    {"attention.prefill_macs", "count"},
    {"attention.decode_bytes", "B"},
    {"attention.rel_err", "ratio"},
    {"kvcache.bytes_per_token", "B"},
    {"serving.steps", "count"},
    {"serving.snapshot_kb", "KB"},
    {"serving.prefilled_tokens", "count"},
    {"serving.prefix_hit_tokens", "count"},
    {"serving.retained_reclaimed", "count"},
    {"serving.peak_referenced_pages", "count"},
    {"serving.preemptions", "count"},
    {"serving.replayed_tokens", "count"},
    {"fleet.busiest_share", "ratio"},
    {"fleet.affinity_hits", "count"},
    {"fleet.sim_req_s", "req/s"},
    {"fleet.sim_ttft_ms_p99", "ms"},
    {"fleet.sim_goodput_req_s", "req/s"},
    {"trace.overhead_pct", "%"},
};

std::vector<Metric> per_layer(const Report& rep) {
  const auto stats = tracer().layer_stats();
  std::vector<Metric> out;
  for (const SpanMetric& m : kSpanMetrics) {
    double value = 0;
    const auto it = stats.find(m.span);
    if (it != stats.end() && it->second.units > 0) {
      value = it->second.total_ns / it->second.units / m.ns_per_unit;
    }
    out.push_back({m.metric, value, m.unit});
  }
  for (const auto& [name, unit] : kCountedMetrics) {
    double value = 0;
    for (const Metric& m : rep.layers) {
      if (m.name == name) value = m.value;
    }
    out.push_back({name, value, unit});
  }
  return out;
}

void print_layer_table() {
  const auto stats = tracer().layer_stats();
  std::printf("%-28s %9s %12s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms", "mean_us");
  for (const auto& [name, s] : stats) {
    std::printf("%-28s %9zu %12.3f %12.3f %12.3f\n", name.c_str(), s.count,
                s.total_ns * 1e-6, s.self_ns * 1e-6,
                s.total_ns * 1e-3 / static_cast<double>(s.count));
  }
  std::printf("spans recorded: %zu\n", tracer().span_count());
}

void print_json(const Report& rep, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload attn_prefill|attn_decode|"
               "serve_sessions|serve_crash --seed N --seconds S --trace 0|1 "
               "[--small] [--trace-out FILE]\n"
               "       perfbench --check-checks\n");
  return 2;
}

int check_checks() {
  const bool row = attn_check_rejects_perturbed_row();
  const bool req = serve_check_rejects_dropped_request();
  std::printf("perturbed output row rejected: %s\n", row ? "yes" : "NO");
  std::printf("dropped request rejected: %s\n", req ? "yes" : "NO");
  return row && req ? 0 : 1;
}

int run(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--check-checks") return check_checks();
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (a == "--small") {
      opt.small = true;
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();

  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"attn_prefill", run_attn_prefill},
      {"attn_decode", run_attn_decode},
      {"serve_sessions", run_serve_sessions},
      {"serve_crash", run_serve_crash},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage();

  tracer().set_enabled(opt.trace);
  const Report rep = it->second(opt);
  tracer().set_enabled(false);
  std::size_t i = 0;
  for (const char* name : kEndToEnd) {
    if (i >= rep.end_to_end.size() || rep.end_to_end[i].name != name) {
      throw std::logic_error(opt.workload + " does not report " + name);
    }
    ++i;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : rep.end_to_end) {
    std::printf("  %-26s %18.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : rep.info) {
    std::printf("  %-26s %18.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : rep.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  if (!opt.trace) {
    print_json(rep, rep.end_to_end);
    return 0;
  }
  const std::vector<Metric> layers = per_layer(rep);
  print_layer_table();
  for (const Metric& m : layers) {
    std::printf("  %-32s %18.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!opt.trace_out.empty() && !tracer().write_chrome_json(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  print_json(rep, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
