// The two simulated-fleet workloads: an open loop in simulated time, run
// back to back through run_fleet for the length of the run. The simulated
// outcome of a seed is deterministic, so every round must reproduce the
// first one exactly; the wall time of each round is the simulator's own
// speed.
//
// serve_sessions: multi-turn sessions sharing a system prompt, routed by
//   cache affinity. Stresses the radix prefix index, page refcounts, the
//   retained pool, the engine step and the router; no snapshots.
// serve_crash: single-turn class-mixed traffic with class routing,
//   snapshots every simulated second and one replica crash with warm
//   restart. Stresses snapshot serialization and the restore ladder; the
//   requests carry no prompt ids, so the prefix index stays idle.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>

#include "bench.h"
#include "common/fault.h"
#include "fleet/router.h"
#include "serving/engine.h"
#include "serving/snapshot.h"
#include "serving/trace.h"
#include "sim/device.h"
#include "sim/e2e_model.h"

namespace perfbench {
namespace {

using turbo::serving::Outcome;
using turbo::serving::Request;

struct ServeSpec {
  turbo::serving::TraceConfig trace;
  turbo::fleet::FleetConfig fleet;
  std::size_t crashes = 0;       // scheduled replica crashes
  std::size_t crash_replica = 0;  // which replica crashes
};

// Per-class limits used only to score goodput; the engine sees no
// deadlines, so nothing is timed out or shed.
constexpr std::array<double, 3> kTtftLimitS = {1.0, 4.0, 20.0};
constexpr std::array<double, 3> kTpotLimitS = {0.05, 0.10, 0.20};

// Traces (sub-seeds) per run.
constexpr std::size_t kTraces = 4;
// Untraced/traced replay pairs timed for the tracing overhead.
constexpr std::size_t kOverheadPairs = 5;

turbo::fleet::FleetConfig base_fleet() {
  turbo::fleet::FleetConfig f;
  f.engine.device = turbo::sim::a100_sxm_80gb();
  f.engine.geometry = turbo::sim::llama3_8b_geometry();
  f.engine.method = turbo::sim::AttnMethod::kTurbo;
  f.engine.attention.kv_bits = 4.0;
  f.replicas = 4;
  return f;
}

ServeSpec sessions_spec(const Options& opt) {
  ServeSpec s;
  s.trace.arrival_rate = 2.5;
  s.trace.duration_s = opt.small ? 60.0 : 600.0;
  s.trace.session_turns = 4;
  s.trace.session_gap_s = 5.0;
  s.trace.shared_prefix_tokens = 1024;
  s.trace.shared_prefix_fraction = 0.8;
  s.trace.class_mix = {0.3, 0.5, 0.2};
  s.fleet = base_fleet();
  s.fleet.route = turbo::fleet::RoutePolicy::kAffinity;
  return s;
}

ServeSpec crash_spec(const Options& opt) {
  ServeSpec s;
  s.trace.arrival_rate = 20.0;
  s.trace.duration_s = opt.small ? 60.0 : 600.0;
  s.trace.class_mix = {0.3, 0.5, 0.2};
  s.fleet = base_fleet();
  s.fleet.route = turbo::fleet::RoutePolicy::kClassAware;
  s.fleet.snapshot_interval_s = 1.0;
  s.crashes = 1;
  s.crash_replica = 1;
  auto& plan = s.fleet.engine.faults.replicas[s.crash_replica];
  plan.crash_at_s = s.trace.duration_s / 2.0;
  plan.restart_delay_s = 2.0;
  return s;
}

std::uint64_t digest(const turbo::fleet::FleetResult& r) {
  std::vector<const Request*> by_id;
  for (const Request& q : r.requests) by_id.push_back(&q);
  std::sort(by_id.begin(), by_id.end(),
            [](const Request* a, const Request* b) { return a->id < b->id; });
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001B3ull; };
  for (const Request* q : by_id) {
    mix(q->id);
    mix(static_cast<std::uint64_t>(q->outcome));
    mix(q->generated);
    mix(static_cast<std::uint64_t>(std::llround(q->first_token_s * 1e9)));
    mix(static_cast<std::uint64_t>(std::llround(q->finish_s * 1e9)));
  }
  return h;
}

// Output checks of one fleet run against its trace.
void check_fleet(const std::vector<Request>& trace,
                 const turbo::fleet::FleetResult& res,
                 std::size_t expected_crashes, Report& rep) {
  std::map<std::uint64_t, const Request*> want;
  for (const Request& r : trace) want[r.id] = &r;
  std::map<std::uint64_t, std::size_t> seen;
  std::size_t bad_state = 0, bad_tokens = 0, bad_order = 0, unknown = 0;
  for (const Request& r : res.requests) {
    ++seen[r.id];
    const auto it = want.find(r.id);
    if (it == want.end()) {
      ++unknown;
      continue;
    }
    if (r.outcome != Outcome::kCompleted) ++bad_state;
    if (r.generated != it->second->max_new_tokens) ++bad_tokens;
    if (!(r.arrival_s <= r.prefill_start_s &&
          r.prefill_start_s <= r.first_token_s &&
          r.first_token_s <= r.finish_s)) {
      ++bad_order;
    }
  }
  std::size_t missing = 0, duplicated = 0;
  for (const auto& [id, req] : want) {
    const auto it = seen.find(id);
    if (it == seen.end()) {
      ++missing;
    } else if (it->second > 1) {
      ++duplicated;
    }
  }
  auto flag = [&rep](std::size_t n, const char* what) {
    if (n > 0) rep.fail(std::to_string(n) + " requests " + what);
  };
  flag(missing, "have no terminal state");
  flag(duplicated, "have more than one terminal state");
  flag(unknown, "are not in the trace");
  flag(bad_state, "did not complete");
  flag(bad_tokens, "generated a token count other than max_new_tokens");
  flag(bad_order, "break arrival <= prefill_start <= first_token <= finish");
  if (res.hit_time_limit) rep.fail("fleet hit its simulated time limit");
  std::size_t crashes = 0, restores = 0;
  for (const auto& e : res.replica_results) {
    crashes += e.replica_crashes;
    restores += e.snapshot_restores;
  }
  if (crashes != expected_crashes) {
    rep.fail(std::to_string(crashes) + " replica crashes, scheduled " +
             std::to_string(expected_crashes));
  }
  if (restores > crashes) {
    rep.fail(std::to_string(restores) + " snapshot restores for " +
             std::to_string(crashes) + " crashes");
  }
}

class ServeWorkload {
 public:
  ServeWorkload(ServeSpec spec, const Options& opt)
      : spec_(std::move(spec)), opt_(opt) {}

  // One trace per sub-seed: the simulated figures pool several traces so
  // that one seed's bursts do not decide them.
  void setup() {
    Span s("serve.setup");
    traces_.clear();
    for (std::size_t i = 0; i < kTraces; ++i) {
      turbo::serving::TraceConfig cfg = spec_.trace;
      cfg.seed = mix_seed(opt_.seed, i);
      Span t("serving.trace", i);
      traces_.push_back(turbo::serving::generate_trace(cfg));
    }
  }

  Report run() {
    Report rep;
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      const std::int64_t t = now_ns();
      setup();
      setups.push_back(seconds_since(t));
    }

    // Rounds cycle over the traces, back to back. The first round of each
    // trace is checked and scored; every later round must reproduce it.
    std::vector<std::uint64_t> digests(kTraces, 0);
    std::vector<double> ttft, tpot;
    std::size_t good = 0;
    double makespan = 0, prompt_tokens = 0, gen_tokens = 0, wall = 0;
    std::size_t rounds = 0, requests = 0;
    const std::int64_t start = now_ns();
    while (rounds < kTraces || seconds_since(start) < opt_.seconds) {
      const std::size_t i = rounds % kTraces;
      std::vector<Request> copy = traces_[i];
      turbo::fleet::FleetResult res;
      const std::int64_t t = now_ns();
      {
        Span s("fleet.run", rounds);
        res = turbo::fleet::run_fleet(spec_.fleet, std::move(copy));
      }
      wall += seconds_since(t);
      for (const Request& r : traces_[i]) {
        prompt_tokens += static_cast<double>(r.prompt_tokens);
        gen_tokens += static_cast<double>(r.max_new_tokens);
      }
      requests += traces_[i].size();
      const std::uint64_t d = digest(res);
      if (rounds < kTraces) {
        digests[i] = d;
        check_fleet(traces_[i], res, spec_.crashes, rep);
        for (const Request& r : res.requests) {
          if (r.outcome != Outcome::kCompleted) continue;
          ttft.push_back(r.ttft() * 1e3);
          if (r.generated >= 2) tpot.push_back(r.tpot() * 1e3);
          const auto c = static_cast<std::size_t>(r.service_class);
          if (r.ttft() <= kTtftLimitS[c] &&
              (r.generated < 2 || r.tpot() <= kTpotLimitS[c])) {
            ++good;
          }
        }
        makespan += res.makespan_s;
        if (i == 0 && opt_.trace) first_ = std::move(res);
      } else if (d != digests[i]) {
        rep.fail("round " + std::to_string(rounds) +
                 ": simulated outcome differs from the first round");
      }
      ++rounds;
    }
    rep.attempted = requests;

    const double sim_req_s = static_cast<double>(requests) / wall;
    rep.end_to_end = {
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ttft_ms_p50", median(ttft), "ms"},
        {"tpot_ms_p50", median(tpot), "ms"},
        {"tpot_ms_p90", quantile(tpot, 0.90), "ms"},
    };
    rep.info = {
        {"prefill_tok_s", prompt_tokens / wall, "tok/s"},
        {"decode_tok_s", gen_tokens / wall, "tok/s"},
        {"requests_per_round", static_cast<double>(requests) /
                                   static_cast<double>(rounds), "count"},
        {"rounds", static_cast<double>(rounds), "count"},
        {"sim_req_s", sim_req_s, "req/s"},
        {"sim_ttft_ms_p50", median(ttft), "ms"},
        {"sim_ttft_ms_p99", quantile(ttft, 0.99), "ms"},
        {"sim_tpot_ms_p99", quantile(tpot, 0.99), "ms"},
        {"sim_goodput_req_s", static_cast<double>(good) / makespan, "req/s"},
    };

    if (opt_.trace) layer_metrics(first_, rep);
    return rep;
  }

 private:
  void layer_metrics(const turbo::fleet::FleetResult& res, Report& rep) {
    double prefilled = 0, hits = 0, reclaimed = 0, preempt = 0, replayed = 0;
    double peak_pages = 0;
    std::vector<double> per_replica(spec_.fleet.replicas, 0.0);
    for (std::size_t i = 0; i < res.replica_results.size(); ++i) {
      const auto& e = res.replica_results[i];
      prefilled += static_cast<double>(e.prefilled_tokens);
      hits += static_cast<double>(e.prefix_hit_tokens);
      reclaimed += static_cast<double>(e.retained_pages_reclaimed);
      preempt += static_cast<double>(e.preemptions);
      replayed += static_cast<double>(e.replayed_tokens);
      peak_pages =
          std::max(peak_pages, static_cast<double>(e.peak_referenced_pages));
      // Entries past the final incarnations belong to crashed ones.
      const std::size_t replica =
          i < spec_.fleet.replicas ? i : spec_.crash_replica;
      per_replica[replica] += static_cast<double>(e.requests.size());
    }
    const double busiest =
        *std::max_element(per_replica.begin(), per_replica.end()) /
        static_cast<double>(res.requests.size());

    const Replay rp = replay(res);
    const double overhead =
        tracing_overhead_pct([&] { replay(res); }, kOverheadPairs);
    if (spec_.fleet.snapshot_interval_s > 0) restore_probe(res);

    rep.layers = {
        {"serving.steps", static_cast<double>(rp.steps), "count"},
        {"serving.snapshot_kb", rp.snapshot_kb, "KB"},
        {"serving.prefilled_tokens", prefilled, "count"},
        {"serving.prefix_hit_tokens", hits, "count"},
        {"serving.retained_reclaimed", reclaimed, "count"},
        {"serving.peak_referenced_pages", peak_pages, "count"},
        {"serving.preemptions", preempt, "count"},
        {"serving.replayed_tokens", replayed, "count"},
        {"fleet.busiest_share", busiest, "ratio"},
        {"fleet.affinity_hits", static_cast<double>(res.affinity_hits),
         "count"},
        {"trace.overhead_pct", overhead, "%"},
    };
    for (const Metric& m : rep.info) {
      if (m.name == "sim_req_s" || m.name == "sim_ttft_ms_p99" ||
          m.name == "sim_goodput_req_s") {
        rep.layers.push_back({"fleet." + m.name, m.value, m.unit});
      }
    }
  }

  struct Replay {
    std::size_t steps = 0;
    double snapshot_kb = 0;
  };

  // Replica 0's routed requests, fresh, in arrival order.
  std::vector<Request> replica0_requests(
      const turbo::fleet::FleetResult& res) const {
    std::map<std::uint64_t, const Request*> by_id;
    for (const Request& r : traces_[0]) by_id[r.id] = &r;
    std::vector<Request> out;
    for (const Request& r : res.replica_results[0].requests) {
      out.push_back(*by_id.at(r.id));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Request& a, const Request& b) {
                       return a.arrival_s < b.arrival_s;
                     });
    return out;
  }

  turbo::serving::EngineConfig replica0_config() const {
    turbo::serving::EngineConfig c = spec_.fleet.engine;
    c.replica_id = 0;
    return c;
  }

  // Submits each request when the engine's clock reaches its arrival, as
  // the router does, and steps up to the next arrival. Stops once the
  // clock reaches `until` or everything has finished.
  static void drive(turbo::serving::Engine& engine,
                    const std::vector<Request>& reqs, double until,
                    const std::function<void()>& after_step) {
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t next = 0;
    while (engine.now() < until) {
      while (next < reqs.size() && reqs[next].arrival_s <= engine.now()) {
        engine.submit(reqs[next++]);
      }
      const double horizon = next < reqs.size() ? reqs[next].arrival_s : inf;
      if (!engine.has_work()) {
        if (next == reqs.size()) break;
        engine.advance_to(horizon);
        continue;
      }
      {
        Span s("serving.step");
        engine.step(horizon);
      }
      after_step();
    }
  }

  // Replays replica 0's share of the trace through Engine::submit/step,
  // snapshotting at the workload's cadence.
  Replay replay(const turbo::fleet::FleetResult& res) const {
    const std::vector<Request> reqs = replica0_requests(res);
    turbo::serving::Engine engine(replica0_config());
    turbo::serving::SnapshotStore store;
    turbo::FaultInjector fault(turbo::FaultPlan{});
    Span rs("serve.replay");
    const double cadence = spec_.fleet.snapshot_interval_s;
    double next_snapshot = cadence;
    Replay out;
    drive(engine, reqs, std::numeric_limits<double>::infinity(), [&] {
      ++out.steps;
      if (cadence > 0 && engine.now() >= next_snapshot) {
        Span s("serving.snapshot", out.steps);
        engine.snapshot_to(store, &fault);
        while (next_snapshot <= engine.now()) next_snapshot += cadence;
      }
    });
    const turbo::serving::EngineResult er = engine.finish();
    if (er.snapshots_written > 0) {
      out.snapshot_kb = static_cast<double>(er.snapshot_bytes) /
                        static_cast<double>(er.snapshots_written) / 1024.0;
    }
    return out;
  }

  // Replays replica 0 to the middle of the trace, snapshots it, and times
  // restore_from into a fresh engine.
  void restore_probe(const turbo::fleet::FleetResult& res) const {
    const std::vector<Request> reqs = replica0_requests(res);
    turbo::serving::Engine engine(replica0_config());
    turbo::serving::SnapshotStore store;
    turbo::FaultInjector fault(turbo::FaultPlan{});
    drive(engine, reqs, spec_.trace.duration_s / 2.0, [] {});
    engine.snapshot_to(store, &fault);
    const auto lost = engine.drain();
    turbo::serving::Engine fresh(replica0_config());
    Span s("serving.restore");
    fresh.restore_from(store, lost, engine.now(), &fault);
  }

  ServeSpec spec_;
  const Options& opt_;
  std::vector<std::vector<Request>> traces_;
  turbo::fleet::FleetResult first_;  // trace 0's first round (traced runs)
};

}  // namespace

Report run_serve_sessions(const Options& opt) {
  return ServeWorkload(sessions_spec(opt), opt).run();
}

Report run_serve_crash(const Options& opt) {
  return ServeWorkload(crash_spec(opt), opt).run();
}

bool serve_check_rejects_dropped_request() {
  Options opt;
  opt.seed = 1;
  opt.small = true;
  ServeSpec spec = crash_spec(opt);
  spec.trace.duration_s = 20.0;
  spec.fleet.engine.faults.replicas[spec.crash_replica].crash_at_s = 10.0;
  const auto trace = turbo::serving::generate_trace(spec.trace);
  turbo::fleet::FleetResult res = turbo::fleet::run_fleet(spec.fleet, trace);
  Report clean;
  check_fleet(trace, res, spec.crashes, clean);
  if (!clean.correct) return false;
  res.requests.erase(res.requests.begin() +
                     static_cast<std::ptrdiff_t>(res.requests.size() / 2));
  Report dropped;
  check_fleet(trace, res, spec.crashes, dropped);
  return !dropped.correct;
}

}  // namespace perfbench
