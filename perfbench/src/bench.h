// Shared pieces of the benchmark: the clock, the span tracer, the result
// report and the small statistics helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Inputs shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test scale: every workload shrinks its inputs so that it runs in
  // about a second. Never used for measurements.
  bool small = false;
  std::string trace_out;  // Chrome trace-event JSON path (traced runs)
};

// ---------------------------------------------------------------------------
// Span tracer. Spans are kept in memory and written out at exit; a disabled
// tracer records nothing, so untraced runs pay one branch per span.

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 at top
    std::uint64_t request = 0;
    double units = 1.0;  // work items the span covers (elements, codes...)
  };

  struct LayerStats {
    std::size_t count = 0;
    double units = 0.0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int32_t begin(const char* name, std::uint64_t request, double units);
  void end(std::int32_t index);

  std::size_t span_count() const { return spans_.size(); }
  // Drops every span recorded after the first `count` (closed ones only).
  void truncate(std::size_t count);
  // Per span name: calls, work units, total and self time (total minus
  // the time covered by direct children).
  std::map<std::string, LayerStats> layer_stats() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> spans_;
  std::vector<std::int32_t> stack_;
};

Tracer& tracer();

// RAII span around one call into a module of the library.
class Span {
 public:
  Span(const char* name, std::uint64_t request = 0, double units = 1.0)
      : index_(tracer().enabled() ? tracer().begin(name, request, units)
                                  : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

// Runs `op` alternately untraced and traced, `pairs` times each, and
// returns the median relative slowdown of the traced runs in percent. The
// spans the traced runs record are discarded, so they do not weigh on the
// per-layer figures.
double tracing_overhead_pct(const std::function<void()>& op,
                            std::size_t pairs);

// ---------------------------------------------------------------------------
// Result report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<Metric> end_to_end;     // gated, untraced runs
  std::vector<Metric> info;           // printed only: workload-specific
  std::vector<Metric> layers;         // traced runs

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
// Samples strictly above the q-quantile: a tail percentile is reported
// only when this is at least ten.
std::size_t beyond(const std::vector<double>& values, double q);
double peak_rss_mb();
// Inverse of the standard normal CDF (for stratified input lengths).
double normal_quantile(double p);
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// Names of the metrics every run reports; shared with BENCHMARK.json.
inline constexpr const char* kEndToEnd[] = {
    "setup_s", "peak_rss_mb", "ttft_ms_p50", "tpot_ms_p50", "tpot_ms_p90",
};

// Workload entry points (attn.cpp, serve.cpp).
Report run_attn_prefill(const Options& opt);
Report run_attn_decode(const Options& opt);
Report run_serve_sessions(const Options& opt);
Report run_serve_crash(const Options& opt);

// Checks of the checks (main.cpp --check-checks): each returns true when
// the output check rejects a deliberately damaged output.
bool attn_check_rejects_perturbed_row();
bool serve_check_rejects_dropped_request();

}  // namespace perfbench
