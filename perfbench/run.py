#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built (Release) into
.bench_build/ on first use; later runs rebuild only what changed. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Traced runs also write a Chrome trace-event file to
.bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure and build into .bench_build; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "attention", "turbo.h")):
        raise RuntimeError("library sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
