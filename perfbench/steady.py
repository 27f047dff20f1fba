#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics over repeated runs.

    python3 perfbench/steady.py --workloads attn_prefill,serve_crash --runs 10

Runs each chosen workload --runs times, each time with another seed
(--seed-base + run index), alternating the workload order from one round to
the next. For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json; a spread above a third of the bound is
marked. --out saves every run's result as JSON. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.seed_base + i, args.seconds)
            results[w].append(r)
            print("run %d %s: correct=%s attempted=%d failed=%d" %
                  (i, w, r["correct"], r["attempted"], r["failed"]),
                  file=sys.stderr)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, all correct: %s, failed share(s): %s" %
              (w, len(runs), all(r["correct"] for r in runs), shares))
        print("  %-16s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                if spread > m["bound"] / 3:
                    mark = "  > bound/3"
            print("  %-16s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s" %
                  (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                   mark))
    print("largest spread/bound (setup_s excluded): %.2f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
