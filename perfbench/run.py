#!/usr/bin/env python3
"""End-to-end benchmark of nusys: builds the benchmark binary, runs one workload and
prints its metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload service-cold|service-warm|simulate
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --emit --workload W --seed N [--pass-index K]

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics of a
traced run under --trace 1. Build output goes to standard error. See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nusys_perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

sys.path.insert(0, HERE)
import trace_summary  # noqa: E402

# Each set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("nusys sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "nusys_perfbench"],
                   stdout=sys.stderr, check=True)


def spawn(args, timeout=150):
    """Runs the benchmark binary; returns (result event, set-up seconds measured from
    process start to its ready line, or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True)
    setup = None
    result = None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event.get("event") == "ready":
                setup = time.perf_counter() - start
            elif event.get("event") in ("result", "selftest"):
                result = event
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or result is None:
        raise BenchError(f"nusys_perfbench {' '.join(args)} exited {proc.returncode}")
    return result, setup


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(latencies, round_ops, round_s, setups, rss, makespan, cells):
    """round_ops operations complete per round; round_s holds each round's
    duration. Throughput is taken at the median round, so a stall in a few
    rounds does not move it."""
    if len(latencies) < 100:
        raise BenchError(f"only {len(latencies)} operations; the p90 needs "
                         "at least 100")
    return {
        "throughput_per_s": metric(round_ops / statistics.median(round_s),
                                   "ops/s"),
        "latency_p50_ms": metric(percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.9), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(rss, "MiB"),
        "design_makespan_sum": metric(makespan, "ticks"),
        "design_cells_sum": metric(cells, "cells"),
    }


def common(args, workload):
    return ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]


def trace_path(workload, seed, index=0):
    os.makedirs(TRACES, exist_ok=True)
    return os.path.join(TRACES, f"{workload}-{seed}-{index}.json")


def run_cold(args):
    """service-cold: every pass is a fresh process over its own corpus."""
    errors = []
    passes = []
    setups = []
    timed = 0.0
    modes = ["service", "direct", "traced"] if args.trace else ["service"]
    files = []
    # A traced run sends each corpus three times (service, direct and traced
    # replay), so the traced and untraced replays time the same operations.
    while timed < args.seconds or len(passes) < len(modes):
        mode = modes[len(passes) % len(modes)]
        corpus = len(passes) // len(modes)
        extra = ["--pass", mode, "--pass-index", str(corpus)]
        if mode == "traced":
            files.append(trace_path("service-cold", args.seed, len(passes)))
            extra += ["--trace-out", files[-1]]
        result, setup = spawn(["cold-pass"] + common(args, "service-cold") +
                              extra)
        passes.append(result)
        setups.append(setup)
        timed += result["timed_s"]
    check, _ = spawn(["cold-check"] + common(args, "service-cold") +
                     ["--passes", str(corpus + 1)])
    errors += check["errors"]
    for p in passes:
        errors += p["errors"]
        for key, digest in p["digests"].items():
            if check["digests"].get(key) != digest:
                errors.append(f"{{{key}}}: service report differs from the "
                              "facade's report")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        docs = [trace_summary.load(f) for f in files]
        service = [p for p in passes if p["pass"] == "service"]
        untraced = [x for p in passes if p["pass"] == "direct"
                    for x in p["latencies_ms"]]
        metrics = trace_summary.layer_metrics(docs, untraced, {
            "service.queue_wait_ms": statistics.mean(
                p["queue_wait_ms"] for p in service),
            "service.worker_utilization": statistics.mean(
                p["worker_utilization"] for p in service),
        })
        return errors, attempted, failed, metrics
    latencies = [x for p in passes for x in p["latencies_ms"]]
    metrics = end_to_end(latencies, attempted / len(passes),
                         [p["timed_s"] for p in passes], setups,
                         statistics.median(p["rss_mib"] for p in passes),
                         check["design_makespan_sum"],
                         check["design_cells_sum"])
    return errors, attempted, failed, metrics


def run_in_process(args, mode, workload):
    """service-warm and simulate: one process sets up and runs; the set-up
    alone is repeated in fresh processes for the setup_s median."""
    errors = []
    setups = []
    if args.trace:
        path = trace_path(workload, args.seed)
        result, _ = spawn([mode] + common(args, workload) +
                          ["--trace", "1", "--trace-out", path])
        metrics = trace_summary.layer_metrics([trace_summary.load(path)])
        return result["errors"], result["attempted"], result["failed"], metrics
    for _ in range(SETUP_REPEATS - 1):
        result, setup = spawn([mode] + common(args, workload) +
                              ["--setup-only"])
        errors += result["errors"]
        setups.append(setup)
    result, setup = spawn([mode] + common(args, workload))
    setups.append(setup)
    errors += result["errors"]
    metrics = end_to_end(result["latencies_ms"], result["round_ops"],
                         result["round_s"], setups, result["rss_mib"],
                         result["design_makespan_sum"],
                         result["design_cells_sum"])
    return errors, result["attempted"], result["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["service-cold", "service-warm", "simulate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--emit", action="store_true")
    parser.add_argument("--pass-index", type=int, default=0,
                        help="with --emit: which service-cold pass corpus")
    args = parser.parse_args()
    try:
        build()
        if args.selftest:
            result, _ = spawn(["selftest"])
            for case in result["cases"]:
                print(f"{'caught' if case['caught'] else 'MISSED':<7} "
                      f"{case['case']}  {case['detail']}")
            return 0 if result["ok"] else 1
        if args.workload is None:
            parser.error("--workload is required")
        if args.emit:
            return subprocess.run([BINARY, "emit", "--workload",
                                   args.workload, "--seed", str(args.seed),
                                   "--pass-index",
                                   str(args.pass_index)]).returncode
        if args.workload == "service-cold":
            errors, attempted, failed, metrics = run_cold(args)
        elif args.workload == "service-warm":
            errors, attempted, failed, metrics = run_in_process(
                args, "warm", "service-warm")
        else:
            errors, attempted, failed, metrics = run_in_process(
                args, "simulate", "simulate")
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(metrics.items())}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("utilization"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("peak_live_cells"):
        return "cells"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
