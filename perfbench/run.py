#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The benchmark binary (perfbench.cc) is compiled by perfbench/CMakeLists.txt into
.bench_build/perfbench at the checkout root; later runs only re-check it. Build
output goes to stderr. The binary's standard output is relayed unchanged, so its
last line is the JSON result. Exits non-zero, printing no result, when the build
or the binary fails or outlives its time limit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("exhaust2-fir", "exhaust2-weather", "certify-corpus", "paper-sweep")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
# Leaves room under the 180 s a run may take once the binary is built.
BINARY_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no EaseIO sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                    "--target", "perfbench"], stdout=sys.stderr, check=True)


def main():
    # A SIGTERM to this script must not orphan the build or the benchmark: as a
    # SystemExit it unwinds through subprocess.run and the finally block below,
    # which stop the child and wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input per workload, one pass (for the benchmark's tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    cmd = [BINARY, "--root=" + ROOT, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace] + (["--smoke"] if args.smoke else [])
    bench = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = bench.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % BINARY_TIMEOUT_S)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    if bench.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % bench.returncode)
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
