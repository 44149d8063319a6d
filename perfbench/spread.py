#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 20] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and prints, per
metric, the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. Every run must
report correct == true. With --trace 1 it also prints which per-layer values
repeated exactly across the runs. --out appends one JSON line per run to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    values = {}
    units = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "seconds": args.seconds, "trace": args.trace,
                                    "result": result}) + "\n")

    print("%-28s %14s %8s %s" % ("metric", "median", "spread", "values"))
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = "%.4f" % ((q3 - q1) / med) if med else "n/a"
        else:
            spread = "n/a"
        exact = " exact" if args.trace and len(set(v)) == 1 else ""
        print("%-28s %14.6g %8s %s %s%s" % (name, med, spread, units[name],
                                            " ".join("%.4g" % x for x in v), exact))
    if not ok:
        sys.exit("a run reported an incorrect output")


if __name__ == "__main__":
    main()
