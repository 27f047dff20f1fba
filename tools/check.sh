#!/usr/bin/env bash
# Full correctness matrix for the TurboAttention tree.
#
#   tools/check.sh            # run everything
#   tools/check.sh release    # just the Release build + tests
#   tools/check.sh asan       # just the ASan+UBSan build + tests
#   tools/check.sh tsan       # just the ThreadSanitizer build + tests
#   tools/check.sh fault      # fault-injection suite (ctest -L fault) in
#                             # both builds; checks Release and ASan agree
#   tools/check.sh serving    # serving/scheduler suite (ctest -L serving)
#                             # in both builds (chunked prefill, metrics)
#   tools/check.sh slo        # SLO/overload-control suite (ctest -L slo)
#                             # in both builds (classes, deadlines, ladder)
#   tools/check.sh tier       # tiered-swap suite (ctest -L tier) in both
#                             # builds (placement, failover, blacklist)
#   tools/check.sh fleet      # fleet-router suite (ctest -L fleet) in all
#                             # three builds (routing, outage drain,
#                             # KV-migration failover)
#   tools/check.sh prefix     # prefix-sharing suite (ctest -L prefix) in
#                             # all three builds (radix index, CoW attach,
#                             # session traces, retained-pool reclaim)
#                             # plus a cross-lane diff of a seeded session
#                             # serve with a crash and snapshot restore
#   tools/check.sh disagg     # disaggregation suite (ctest -L disagg) in
#                             # all three builds (role split, prefill->
#                             # decode handoff, backpressure, degrade)
#   tools/check.sh chaos      # crash-recovery suite (ctest -L chaos) in
#                             # all three builds (crash faults, snapshot
#                             # restore, chaos harness) plus a cross-lane
#                             # diff of a seeded chaos run
#   tools/check.sh kernels    # kernel parity suite (ctest -L kernels) in
#                             # all three builds (F16C fp16/SAS, whole-byte
#                             # unpack and fused decode vs their reference
#                             # paths, bit for bit)
#   tools/check.sh lint       # just turbo_lint
#   tools/check.sh tidy       # just clang-tidy (skipped when not installed)
#
# Exits non-zero on the first failing stage. Stages that need a tool the
# machine does not have (clang-tidy) are reported as SKIP, not failure.
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
STAGES=("${@:-all}")
FAILED=0

for s in "${STAGES[@]}"; do
  case "$s" in
    all|release|asan|tsan|fault|serving|slo|tier|fleet|prefix|disagg|chaos|kernels|lint|tidy) ;;
    *)
      echo "check.sh: unknown stage '$s' (expected: release asan tsan fault serving slo tier fleet prefix disagg chaos kernels lint tidy)" >&2
      exit 2
      ;;
  esac
done

want() {
  local stage="$1"
  for s in "${STAGES[@]}"; do
    if [[ "$s" == "all" || "$s" == "$stage" ]]; then return 0; fi
  done
  return 1
}

banner() { printf '\n==== %s ====\n' "$1"; }

run_release() {
  banner "release: -O2 -Werror build + ctest"
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" || return 1
  ctest --preset release || return 1
}

run_asan() {
  banner "asan: -fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" || return 1
  ctest --preset debug-asan-ubsan || return 1
}

run_tsan() {
  banner "tsan: -fsanitize=thread -fno-sanitize-recover=all"
  # Today's tree is single-threaded, so this lane is a tripwire: the
  # moment the kernel thread pool lands (ROADMAP), any unsynchronized
  # shared state fails CI instead of flaking in production.
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" || return 1
  ctest --preset debug-tsan || return 1
}

run_fault() {
  banner "fault: deterministic fault-injection suite (Release + ASan+UBSan)"
  # The suite asserts bit-identical engine results for identical seeds, so
  # running it under both build types is the determinism check the
  # robustness docs promise (docs/ROBUSTNESS.md).
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target fault_injection_test || return 1
  ctest --test-dir build-release -L fault --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target fault_injection_test || return 1
  ctest --test-dir build-asan-ubsan -L fault --output-on-failure || return 1
}

run_serving() {
  banner "serving: scheduler suite (chunked prefill + metrics, both builds)"
  # Chunked prefill must be bit-deterministic and drain identical totals
  # in Release and under sanitizers, same contract as the fault stage.
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" \
    --target serving_test chunked_prefill_test || return 1
  ctest --test-dir build-release -L serving --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" \
    --target serving_test chunked_prefill_test || return 1
  ctest --test-dir build-asan-ubsan -L serving --output-on-failure || return 1
}

run_slo() {
  banner "slo: overload-control suite (classes, deadlines, ladder, both builds)"
  # Class-aware scheduling, deadline timeouts and the degradation ladder
  # must be bit-deterministic per seed in Release and under sanitizers,
  # same contract as the fault stage.
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target slo_scheduler_test || return 1
  ctest --test-dir build-release -L slo --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target slo_scheduler_test || return 1
  ctest --test-dir build-asan-ubsan -L slo --output-on-failure || return 1
}

run_tier() {
  banner "tier: tiered-swap suite (placement, failover, blacklist, both builds)"
  # Tier placement, LRU demotion, failover and blacklisting must be
  # bit-deterministic per seed in Release and under sanitizers, same
  # contract as the fault stage.
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target tiered_swap_test || return 1
  ctest --test-dir build-release -L tier --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target tiered_swap_test || return 1
  ctest --test-dir build-asan-ubsan -L tier --output-on-failure || return 1
}

run_fleet() {
  banner "fleet: router suite (routing, outage drain, migration, all builds)"
  # The fleet suite asserts bit-identical seeded runs and
  # exactly-one-terminal-state under a replica outage. It runs in all
  # three lanes: Release, ASan+UBSan, and TSan — the router will sit in
  # front of the threaded kernel pool (ROADMAP), so the TSan tripwire
  # covers it from day one.
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target fleet_router_test || return 1
  ctest --test-dir build-release -L fleet --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target fleet_router_test || return 1
  ctest --test-dir build-asan-ubsan -L fleet --output-on-failure || return 1
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" --target fleet_router_test || return 1
  ctest --test-dir build-tsan -L fleet --output-on-failure || return 1
}

run_prefix() {
  banner "prefix: prefix-sharing suite (radix index, CoW, sessions, all builds)"
  # Prefix attach, retained-pool reclaim and session traces must be
  # bit-deterministic per seed across all three lanes — the suite's
  # seeded session run is asserted bit-identical in Release, ASan+UBSan
  # and TSan, extending the fleet stage's determinism contract to the
  # radix-shared KV path. Beyond the ctest suite, one seeded session serve
  # that reclaims retained pages, crashes a replica and restores it from a
  # snapshot (so shared prompt ids pass through the snapshot codec) runs
  # through the CLI in every lane, and the full stdout is diffed.
  local session_args=(serve --model phi3-mini --device a100-pcie
                      --method turbo --bits 4 --headroom 0.35 --rate 8
                      --duration 20 --seed 31 --replicas 2
                      --route affinity --sessions 4 --shared-prefix 512
                      --shared-frac 0.8 --session-gap 1.0
                      --agentic-frac 0.4 --replica-crash 1:8,0.5
                      --snapshot-interval 1)
  local lane
  for lane in release debug-asan-ubsan debug-tsan; do
    local dir="build-${lane#debug-}"
    cmake --preset "$lane" || return 1
    cmake --build --preset "$lane" -j "$JOBS" \
      --target prefix_sharing_test token_ids_test turbo_cli || return 1
    ctest --test-dir "$dir" -L prefix --output-on-failure || return 1
    "./$dir/tools/turbo_cli" "${session_args[@]}" \
      > "$dir/session_run.txt" || return 1
  done
  diff build-release/session_run.txt build-asan-ubsan/session_run.txt || {
    echo "prefix: seeded session run differs between Release and ASan+UBSan" >&2
    return 1
  }
  diff build-release/session_run.txt build-tsan/session_run.txt || {
    echo "prefix: seeded session run differs between Release and TSan" >&2
    return 1
  }
  echo "prefix: seeded session run is byte-identical across all three lanes"
}

run_disagg() {
  banner "disagg: prefill/decode split suite (handoff, backpressure, all builds)"
  # Disaggregated fleets must be bit-deterministic per seed across all
  # three lanes — the suite's seeded 2p2d run (outage + handoff faults)
  # is asserted bit-identical in Release, ASan+UBSan and TSan, and the
  # acceptance case (a prefill replica killed mid-run) must reach 100%
  # terminal outcomes in every lane.
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target disagg_test || return 1
  ctest --test-dir build-release -L disagg --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target disagg_test || return 1
  ctest --test-dir build-asan-ubsan -L disagg --output-on-failure || return 1
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" --target disagg_test || return 1
  ctest --test-dir build-tsan -L disagg --output-on-failure || return 1
}

run_chaos() {
  banner "chaos: crash-recovery suite (crash, snapshot, chaos, all builds)"
  # Crash restarts and the composed chaos schedule must be
  # bit-deterministic per seed across all three lanes. Beyond the ctest
  # suite, the stage runs one fixed seeded chaos serve through the CLI in
  # every lane and diffs the full stdout — counters, audit and all — so a
  # lane-dependent recovery path cannot slip past the unit asserts.
  local chaos_args=(serve --rate 24 --duration 15 --seed 29 --replicas 4
                    --chaos-seed 7 --chaos-intensity 0.8)
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" \
    --target crash_recovery_test turbo_cli || return 1
  ctest --test-dir build-release -L chaos --output-on-failure || return 1
  ./build-release/tools/turbo_cli "${chaos_args[@]}" \
    > build-release/chaos_run.txt || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" \
    --target crash_recovery_test turbo_cli || return 1
  ctest --test-dir build-asan-ubsan -L chaos --output-on-failure || return 1
  ./build-asan-ubsan/tools/turbo_cli "${chaos_args[@]}" \
    > build-asan-ubsan/chaos_run.txt || return 1
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" \
    --target crash_recovery_test turbo_cli || return 1
  ctest --test-dir build-tsan -L chaos --output-on-failure || return 1
  ./build-tsan/tools/turbo_cli "${chaos_args[@]}" \
    > build-tsan/chaos_run.txt || return 1
  diff build-release/chaos_run.txt build-asan-ubsan/chaos_run.txt || {
    echo "chaos: seeded chaos run differs between Release and ASan+UBSan" >&2
    return 1
  }
  diff build-release/chaos_run.txt build-tsan/chaos_run.txt || {
    echo "chaos: seeded chaos run differs between Release and TSan" >&2
    return 1
  }
  echo "chaos: seeded chaos run is byte-identical across all three lanes"
}

run_kernels() {
  banner "kernels: parity suite (fast paths vs reference paths, all builds)"
  # Each fast path (F16C rounding, F16C/AVX2 SAS, whole-byte unpack, the
  # fused decode kernel behind TurboKvAttention) must return its
  # reference path's bits. ASan checks the unpack tail reads nothing past
  # the packed buffer; TSan covers the per-method scratch.
  local targets=(fp16_test sas_test packing_test fused_decode_test)
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" --target "${targets[@]}" || return 1
  ctest --test-dir build-release -L kernels --output-on-failure || return 1
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" --target "${targets[@]}" || return 1
  ctest --test-dir build-asan-ubsan -L kernels --output-on-failure || return 1
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" --target "${targets[@]}" || return 1
  ctest --test-dir build-tsan -L kernels --output-on-failure || return 1
}

run_lint() {
  banner "lint: turbo_lint determinism + quant-invariant rules (14 rules)"
  # Reuse whichever configured build dir already has the lint binary;
  # fall back to configuring the release preset.
  local bin=""
  for d in build-release build-asan-ubsan build; do
    if [[ -x "$d/tools/turbo_lint" ]]; then bin="$d/tools/turbo_lint"; break; fi
  done
  if [[ -z "$bin" ]]; then
    cmake --preset release || return 1
    cmake --build --preset release -j "$JOBS" --target turbo_lint || return 1
    bin="build-release/tools/turbo_lint"
  fi
  "$bin" "$ROOT" || return 1
}

run_tidy() {
  banner "tidy: clang-tidy over src/ and tools/"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "SKIP: clang-tidy not installed"
    return 0
  fi
  cmake --preset tidy || return 1
  local sources
  mapfile -t sources < <(find src tools -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p build-tidy "${sources[@]}" || return 1
  else
    clang-tidy -quiet -p build-tidy "${sources[@]}" || return 1
  fi
}

if want release; then run_release || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want asan; then run_asan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tsan; then run_tsan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want fault; then run_fault || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want serving; then run_serving || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want slo; then run_slo || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tier; then run_tier || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want fleet; then run_fleet || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want prefix; then run_prefix || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want disagg; then run_disagg || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want chaos; then run_chaos || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want kernels; then run_kernels || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want lint; then run_lint || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tidy; then run_tidy || FAILED=1; fi

if [[ $FAILED -ne 0 ]]; then
  echo
  echo "check.sh: FAILED"
  exit 1
fi
echo
echo "check.sh: all requested stages passed"
