#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and reports, per workload and
metric, the median and the quartile spread (q3 - q1) / median computed with
statistics.quantiles(values, n=4) — the numbers a bound is judged against.

    python3 perfbench/spread.py --workloads zipf_5k --runs 5 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["hot_500", "zipf_5k", "churn_5k"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    failed = False
    for workload in args.workloads:
        values = {}
        provenance = None
        for run in range(args.runs):
            seed = args.first_seed + run
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0:
                print("%s seed %d: exit %d\n%s" %
                      (workload, seed, done.returncode, done.stderr[-2000:]))
                failed = True
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                continue
            # A run that found a wrong answer still measured; its figures
            # count, and the exit status above still fails the spread run.
            provenance = provenance or next(
                (line for line in lines if line.startswith("provenance:")), "")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(
                    (metric["value"], metric["unit"]))
        print("== %s: %d runs, seeds %d..%d, %g s each" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1, args.seconds))
        if provenance:
            print(provenance.replace("runs=1", "runs=%d" % args.runs))
        print("%-44s %14s %-6s %8s  %s" % ("metric", "median", "unit",
                                            "spread", "values"))
        for name, pairs in values.items():
            numbers = [value for value, _ in pairs]
            print("%-44s %14.4f %-6s %8.3f  %s" %
                  (name, statistics.median(numbers), pairs[0][1],
                   spread(numbers), " ".join("%.4g" % v for v in numbers)))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
