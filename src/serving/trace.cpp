#include "serving/trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace turbo::serving {

std::vector<Request> generate_trace(const TraceConfig& config) {
  TURBO_CHECK(config.arrival_rate > 0.0);
  TURBO_CHECK(config.duration_s > 0.0);
  double mix_sum = 0.0;
  for (const double share : config.class_mix) {
    TURBO_CHECK_MSG(share >= 0.0, "class_mix shares must be non-negative");
    mix_sum += share;
  }
  TURBO_CHECK_MSG(std::abs(mix_sum - 1.0) <= 1e-6,
                  "class_mix must sum to 1");
  TURBO_CHECK_MSG(config.session_turns >= 1, "session_turns must be >= 1");
  TURBO_CHECK(config.shared_prefix_fraction >= 0.0 &&
              config.shared_prefix_fraction <= 1.0);
  TURBO_CHECK(config.agentic_fraction >= 0.0 &&
              config.agentic_fraction <= 1.0);
  TURBO_CHECK(config.session_gap_s >= 0.0);
  // Any non-default session knob flips the generator into session mode;
  // the defaults draw no extra randomness (same guarantee as draw_class
  // below), so pre-session configs replay their exact legacy RNG stream.
  const bool sessions = config.shared_prefix_tokens > 0 ||
                        config.session_turns > 1 ||
                        config.agentic_fraction > 0.0;
  // The pure-standard default is the pre-service-class trace; drawing a
  // class for it would shift every later sample, so it is skipped and the
  // RNG stream stays bit-identical to traces generated before classes
  // existed.
  const bool draw_class = config.class_mix[1] != 1.0;
  Rng rng(config.seed);

  std::vector<Request> trace;
  double t = 0.0;
  std::uint64_t id = 0;
  // Session-mode token ids: ids [0, shared_prefix_tokens) are the shared
  // system prompt; every other token comes off this counter and is unique
  // across the whole trace, so prefix hits occur exactly where intended.
  std::int32_t next_token =
      static_cast<std::int32_t>(config.shared_prefix_tokens);
  const auto fresh_ids = [&next_token](std::vector<std::int32_t>& dst,
                                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst.push_back(next_token++);
  };
  while (true) {
    // Poisson process: exponential inter-arrival times.
    double u;
    do {
      u = rng.uniform();
    } while (u <= 0.0);
    t += -std::log(u) / config.arrival_rate;
    if (t > config.duration_s) break;

    Request r;
    r.id = id++;
    r.arrival_s = t;
    const double p =
        std::exp(rng.normal(config.prompt_log_mean, config.prompt_log_std));
    const double g =
        std::exp(rng.normal(config.gen_log_mean, config.gen_log_std));
    r.prompt_tokens = std::clamp<std::size_t>(
        static_cast<std::size_t>(p), 16, config.max_prompt);
    r.max_new_tokens = std::clamp<std::size_t>(
        static_cast<std::size_t>(g), 1, config.max_gen);
    if (draw_class) {
      const double c = rng.uniform();
      if (c < config.class_mix[0]) {
        r.service_class = ServiceClass::kInteractive;
      } else if (c < config.class_mix[0] + config.class_mix[1]) {
        r.service_class = ServiceClass::kStandard;
      } else {
        r.service_class = ServiceClass::kBatch;
      }
    }
    const auto cls = static_cast<std::size_t>(r.service_class);
    r.ttft_deadline_s = config.ttft_deadline_s[cls];
    r.e2e_deadline_s = config.e2e_deadline_s[cls];
    if (!sessions) {
      trace.push_back(r);
      continue;
    }

    // --- Session mode: stamp token ids and expand multi-turn chains. ---
    std::vector<std::int32_t> history;
    bool shared = false;
    if (config.shared_prefix_tokens > 0) {
      shared = config.shared_prefix_fraction >= 1.0 ||
               rng.uniform() < config.shared_prefix_fraction;
    }
    if (shared) {
      // A shared-prefix prompt must extend past the prefix (the engine
      // never indexes or matches a whole prompt, so give it a tail).
      if (r.prompt_tokens < config.shared_prefix_tokens + 16) {
        r.prompt_tokens = config.shared_prefix_tokens + 16;
      }
      history.reserve(r.prompt_tokens);
      for (std::size_t i = 0; i < config.shared_prefix_tokens; ++i) {
        history.push_back(static_cast<std::int32_t>(i));
      }
    }
    fresh_ids(history, r.prompt_tokens - history.size());
    trace.push_back(r);
    // Turn k's ids are a prefix of turn k+1's: the history is stored once
    // and each turn (by trace index) gets a prefix view of it.
    std::vector<std::size_t> turns = {trace.size() - 1};

    if (config.session_turns > 1) {
      // Agentic loops are tool-call cycles: tiny fixed tool-result turns,
      // capped generations, full history re-submitted every time.
      const bool agentic = config.agentic_fraction > 0.0 &&
                           rng.uniform() < config.agentic_fraction;
      double turn_t = t;
      std::size_t prev_gen = r.max_new_tokens;
      for (std::size_t turn = 1; turn < config.session_turns; ++turn) {
        // The next turn re-submits everything said so far: the previous
        // prompt plus the tokens the model generated in reply.
        fresh_ids(history, prev_gen);
        std::size_t user_tokens;
        std::size_t gen_tokens;
        if (agentic) {
          user_tokens = 32;  // tool result
          gen_tokens = std::clamp<std::size_t>(prev_gen, 1, 64);
        } else {
          const double up = std::exp(
              rng.normal(config.prompt_log_mean - 2.0, config.prompt_log_std));
          user_tokens = std::clamp<std::size_t>(
              static_cast<std::size_t>(up), 16, 256);
          const double ug =
              std::exp(rng.normal(config.gen_log_mean, config.gen_log_std));
          gen_tokens = std::clamp<std::size_t>(
              static_cast<std::size_t>(ug), 1, config.max_gen);
        }
        if (history.size() + user_tokens > config.max_prompt) break;
        fresh_ids(history, user_tokens);
        turn_t += config.session_gap_s > 0.0
                      ? config.session_gap_s * (0.5 + rng.uniform())
                      : 1.0;
        Request follow = r;  // inherits class and deadlines
        follow.id = id++;
        follow.arrival_s = turn_t;
        follow.prompt_tokens = history.size();
        follow.max_new_tokens = gen_tokens;
        trace.push_back(follow);
        turns.push_back(trace.size() - 1);
        prev_gen = gen_tokens;
      }
    }
    // A turn cut off by max_prompt leaves unused reply ids at the tail.
    history.resize(trace[turns.back()].prompt_tokens);
    history.shrink_to_fit();
    const TokenIds session(std::move(history));
    for (const std::size_t i : turns) {
      trace[i].prompt_ids = session.prefix(trace[i].prompt_tokens);
    }
  }
  if (sessions) {
    // Follow-up turns arrive between later sessions' first turns; the
    // engine consumes traces in arrival order.
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request& a, const Request& b) {
                       if (a.arrival_s != b.arrival_s) {
                         return a.arrival_s < b.arrival_s;
                       }
                       return a.id < b.id;
                     });
  }
  return trace;
}

}  // namespace turbo::serving
