#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Run from the repository root. It checks that
  * the output checks reject a perturbed output row and a dropped request;
  * every workload runs in seconds at self-test scale, traced and untraced,
    with its output checks passing and no failed operation, and a traced run
    writes a readable Chrome trace;
  * the deterministic metrics repeat exactly for one seed and differ for
    another: rel_err and kv_bytes_per_token on the attention workloads, the
    simulated latencies and goodput on the serving workloads.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run as bench_run  # noqa: E402

DETERMINISTIC = {
    "attn_prefill": ["rel_err", "kv_bytes_per_token"],
    "attn_decode": ["rel_err", "kv_bytes_per_token"],
    "serve_sessions": ["ttft_ms_p50", "tpot_ms_p50", "tpot_ms_p90",
                       "sim_ttft_ms_p99", "sim_tpot_ms_p99",
                       "sim_goodput_req_s"],
    "serve_crash": ["ttft_ms_p50", "tpot_ms_p50", "tpot_ms_p90",
                    "sim_ttft_ms_p99", "sim_tpot_ms_p99", "sim_goodput_req_s"],
}
MAX_SECONDS = 30.0
TRACE_FILE = os.path.join(bench_run.BUILD, "selftest-trace.json")


def run(workload, seed, trace):
    cmd = [bench_run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--small"]
    if trace:
        cmd += ["--trace-out", TRACE_FILE]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return proc.returncode, wall, result, printed


def main():
    bench_run.build()
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    proc = subprocess.run([bench_run.BINARY, "--check-checks"],
                          stdout=subprocess.PIPE, text=True)
    print(proc.stdout.strip())
    expect(proc.returncode == 0, "checks reject damaged outputs")

    for workload, keys in DETERMINISTIC.items():
        runs = {}
        for label, seed, trace in (("a", 1, 0), ("b", 1, 0), ("c", 2, 0),
                                   ("t", 1, 1)):
            code, wall, result, printed = run(workload, seed, trace)
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and wall < MAX_SECONDS)
            expect(ok, "%s seed %d trace %d: exit %d, %.1f s, %s" % (
                workload, seed, trace, code, wall,
                "correct" if ok else result))
            runs[label] = printed
            if trace:
                try:
                    with open(TRACE_FILE) as f:
                        events = json.load(f)["traceEvents"]
                except (OSError, ValueError, KeyError):
                    events = []
                expect(len(events) > 0, "%s Chrome trace holds %d spans" %
                       (workload, len(events)))
        for key in keys:
            a, b, c = (runs[x].get(key) for x in "abc")
            expect(a is not None and a == b,
                   "%s %s repeats for one seed (%s, %s)" % (workload, key, a, b))
            expect(a is not None and a != c,
                   "%s %s differs for another seed (%s, %s)" %
                   (workload, key, a, c))
    print("self-test %s" % ("passed" if not failures else
                            "FAILED (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
