#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <sys/resource.h>

namespace perfbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t request,
                           double units) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request;
  r.units = units;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(r);
  stack_.push_back(index);
  // Stamp the start last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::int64_t t = now_ns();
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::truncate(std::size_t count) {
  if (count < spans_.size()) spans_.resize(count);
}

std::map<std::string, Tracer::LayerStats> Tracer::layer_stats() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  std::map<std::string, LayerStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    LayerStats& s = out[r.name];
    const auto dur = static_cast<double>(r.end_ns - r.start_ns);
    ++s.count;
    s.units += r.units;
    s.total_ns += dur;
    s.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"parent\":%d,\"units\":%.0f}}\n",
                  i == 0 ? "" : ",", r.name,
                  static_cast<double>(r.start_ns - origin) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                  static_cast<unsigned long long>(r.request), r.parent,
                  r.units);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

double tracing_overhead_pct(const std::function<void()>& op,
                            std::size_t pairs) {
  Tracer& t = tracer();
  const bool was = t.enabled();
  std::vector<double> ratios;
  for (std::size_t i = 0; i < pairs; ++i) {
    t.set_enabled(false);
    std::int64_t s = now_ns();
    op();
    const double off = seconds_since(s);
    t.set_enabled(true);
    const std::size_t recorded = t.span_count();
    s = now_ns();
    op();
    const double on = seconds_since(s);
    t.truncate(recorded);
    ratios.push_back((on - off) / off * 100.0);
  }
  t.set_enabled(was);
  return median(ratios);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t beyond(const std::vector<double>& values, double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

double normal_quantile(double p) {
  // Bisection on the CDF: exact to double precision, and only used to lay
  // out a few dozen input lengths.
  double lo = -10.0;
  double hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // splitmix64 over the pair.
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
