#!/usr/bin/env python3
"""Builds and runs the Propeller end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload search_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The program is compiled from the repository's own sources (a Release build
under $CARGO_TARGET_DIR, default .bench_build).  The last line of standard
output is the benchmark's JSON result; build logs go to standard error.
Each run also stores its environment record and result, plus the RPC call
log of a traced run, under <build dir>/perfbench-results/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return base


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator
    for attempt in range(2):
        done = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode == 0:
            break
        if attempt == 0 and os.path.exists(os.path.join(out, "CMakeCache.txt")):
            log("configure failed; retrying from a clean build directory")
            shutil.rmtree(out, ignore_errors=True)
            continue
        return False
    done = subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    out = os.path.join(build_dir(), "perfbench")
    if not build(out):
        log("build failed")
        return 2
    binary = os.path.join(out, "perfbench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    results = os.path.join(build_dir(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
