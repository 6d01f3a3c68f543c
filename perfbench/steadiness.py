#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, and print per end-to-end metric the median, the quartiles and the
relative spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json. "steady" marks a spread below a third of the bound.

With --sets 2 the runs are made twice, as two separate sets with their own
seeds, and a last table gives each set's median per metric and how much
worse the second median is than the first, as a share of the first, next
to the bound.

Usage (from the root of a checkout):
    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--sets 1]
        [--seconds S]

Standard library only; runs one benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_set(bench, args, first_seed):
    """Runs every workload --runs times; returns {workload: {metric:
    median}} after printing the set's spread table."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    medians = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(first_seed, first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        print(f"== {workload} (seeds {first_seed}-{seed}, "
              f"{args.seconds} s each)")
        print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  steady")
        medians[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            bound = bounds[name]
            steady = "-" if name == "setup_s" else (
                "yes" if spread < bound / 3 else "NO")
            print(f"{name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6}  {steady}")
            medians[workload][name] = med
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"failed share per run: {shares}; all correct: "
              f"{all(r['correct'] for r in results)}", flush=True)
    return medians


def compare(bench, sets):
    """How much worse each later set's median is than the first set's."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("== set medians")
    print(f"{'workload':<13} {'metric':<22} " +
          " ".join(f"{'set ' + str(i + 1):>12}" for i in range(len(sets))) +
          f" {'worse':>8} {'bound':>6}  within")
    for workload, first in sets[0].items():
        for name, m1 in first.items():
            later = [s[workload][name] for s in sets[1:]]
            sign = 1 if better[name] == "lower" else -1
            worse = max((sign * (m - m1) / m1 if m1 else 0.0)
                        for m in later)
            print(f"{workload:<13} {name:<22} " +
                  " ".join(f"{m:>12.6g}" for m in [m1] + later) +
                  f" {worse:>8.4f} {bounds[name]:>6}  "
                  f"{'yes' if worse <= bounds[name] else 'NO'}")


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    sets = [run_set(bench, args, args.first_seed + k * args.runs)
            for k in range(args.sets)]
    if len(sets) > 1:
        compare(bench, sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
