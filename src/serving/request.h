// Request model for the serving simulator.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serving/token_ids.h"

namespace turbo::serving {

// Latency tier of a request. Lower enum values are more latency-sensitive:
// the class-aware scheduler admits, re-admits and protects interactive
// requests first and sheds batch requests first under sustained overload.
enum class ServiceClass : std::uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};

inline constexpr std::size_t kServiceClassCount = 3;

inline const char* service_class_name(ServiceClass c) {
  switch (c) {
    case ServiceClass::kInteractive:
      return "interactive";
    case ServiceClass::kStandard:
      return "standard";
    case ServiceClass::kBatch:
      return "batch";
  }
  return "?";
}

// Terminal state of a request. Every request ends in exactly one of the
// non-pending states (kShed is load-shedding — a rejection decided by the
// overload controller rather than by size); kPending after an engine run
// means the max_sim_time_s safety stop fired before the request resolved.
enum class Outcome : std::uint8_t {
  kPending = 0,
  kCompleted,
  kRejected,   // could never fit, refused at arrival
  kTimedOut,   // missed its TTFT or e2e deadline
  kShed,       // dropped by overload control before admission
};

inline const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kTimedOut:
      return "timed-out";
    case Outcome::kShed:
      return "shed";
  }
  return "?";
}

struct Request {
  std::uint64_t id = 0;
  double arrival_s = 0.0;        // wall-clock arrival time
  std::size_t prompt_tokens = 0;
  std::size_t max_new_tokens = 0;
  // Prompt token ids, when the workload carries them (session traces:
  // shared system prompts, multi-turn history re-submission). Empty for
  // legacy length-only traces — the engine then schedules exactly as it
  // did before prefix sharing existed. When non-empty, size() matches
  // prompt_tokens and admission matches the ids against the radix index
  // to attach resident prefix pages instead of re-prefilling them.
  // Immutable and shared: copying a Request copies no ids.
  TokenIds prompt_ids;
  // Scheduling priority: higher values are preempted last. Ties are
  // broken by arrival order (earlier arrivals are protected). Applied
  // *within* a service class; the class dominates.
  int priority = 0;
  ServiceClass service_class = ServiceClass::kStandard;

  // Optional SLO deadlines, relative to arrival (0 = none). A request
  // whose first token cannot land by arrival_s + ttft_deadline_s, or whose
  // completion cannot land by arrival_s + e2e_deadline_s, is timed out by
  // the engine (its pages are freed) instead of occupying the machine.
  double ttft_deadline_s = 0.0;
  double e2e_deadline_s = 0.0;

  // Filled by the engine. `prefill_start_s` is stamped when this request's
  // own first prefill chunk runs (not when its admission round begins) and
  // `first_token_s` when its own last chunk completes, so TTFT never
  // includes other requests admitted in the same round. Requests with
  // max_new_tokens == 0 never get a first_token_s (nothing is generated).
  double prefill_start_s = -1.0;
  double first_token_s = -1.0;   // time the first output token is ready
  double finish_s = -1.0;
  std::size_t generated = 0;
  // Prompt tokens served from resident shared-prefix pages at admission
  // (a radix-index hit): these were neither charged pages nor prefilled.
  std::size_t prefix_hit_tokens = 0;
  std::size_t preemptions = 0;   // times this request was evicted
  // Tokens whose KV was recomputed after a recompute-mode preemption (or a
  // corrupt swap-in recovered by recomputation). Distinguishes busy_s spent
  // on useful work from busy_s spent re-deriving evicted state.
  std::size_t recomputed_tokens = 0;
  // Swap tiers skipped (unavailable or blacklisted) while fetching this
  // request's parked KV stream back in (tiered swap store only).
  std::size_t tier_failovers = 0;
  // Times this request was drained off a dying replica and failed over to
  // another one (fleet router only; see src/fleet/router.h).
  std::size_t replica_failovers = 0;
  // How the request left the system (kPending = still in flight when the
  // simulation's safety stop fired).
  Outcome outcome = Outcome::kPending;
  // KV precision (average stored bits/element) this request's cache was
  // written at; 0 until first admitted. Below the configured kv_bits when
  // the degradation ladder downshifted this request.
  double kv_bits_used = 0.0;

  bool started() const { return prefill_start_s >= 0.0; }
  bool finished() const { return finish_s >= 0.0; }

  // Time to first token (from arrival). Valid once the first output token
  // exists (first_token_s >= 0; never true when max_new_tokens == 0).
  double ttft() const { return first_token_s - arrival_s; }
  // Mean time per output token after the first.
  double tpot() const {
    if (generated <= 1) return 0.0;
    return (finish_s - first_token_s) /
           static_cast<double>(generated - 1);
  }
  double e2e_latency() const { return finish_s - arrival_s; }

  // Whether the first token met the TTFT deadline (vacuously true without
  // one). Timed-out and never-started requests miss by definition.
  bool met_ttft_deadline() const {
    if (ttft_deadline_s <= 0.0) return true;
    return first_token_s >= 0.0 &&
           ttft() <= ttft_deadline_s + 1e-9;
  }
};

}  // namespace turbo::serving
