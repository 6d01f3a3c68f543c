#!/usr/bin/env python3
"""Summarise the Chrome trace-event files of traced benchmark runs.

Usage:
    python3 perfbench/trace_summary.py [--by-size] TRACE.json [TRACE.json ...]

Prints, per workload and layer, the layer's self time inside operations per
traced operation and its share of the traced operation time; then the self
time of set-up and check spans per traced process; then the two
trace-quality figures: trace.unaccounted_ms (operation time no layer span
covers) and trace.overhead_ms (traced minus untraced median time per
operation).

--by-size adds, per uniform domain size |I|, the mean time of a
design-cache replay (synth.replay) next to a cold search (synth.search).

run.py imports layer_metrics() from here to turn the same files into the
benchmark's per-layer metrics. Standard library only.
"""

import json
import statistics
import sys
from collections import defaultdict

# Span name -> per-layer time metric: self time of the spans inside "op"
# roots per traced operation, ms.
TIME_METRICS = {
    "service.parse": "service.parse_ms",
    "service.encode": "service.encode_ms",
    "ir.canonicalize": "ir.canonicalize_ms",
    "synth.search": "synth.search_ms",
    "synth.replay": "synth.replay_ms",
    "synth.report": "synth.report_ms",
    "schedule.search": "schedule.search_ms",
    "space.search": "space.search_ms",
    "chains.coarse": "chains.coarse_ms",
    "modules.schedule_search": "modules.schedule_search_ms",
    "modules.space_search": "modules.space_search_ms",
    "designs.plan_build": "designs.plan_build_ms",
    "systolic.exec": "systolic.exec_ms",
    "partition.tile_plan": "partition.tile_plan_ms",
    "partition.tiled_exec": "partition.tiled_exec_ms",
    "frontends.instance": "frontends.instance_ms",
    "frontends.reference": "frontends.reference_ms",
}

# Span name -> set-up metric: total time of the span (children included)
# inside "setup" roots, per traced process.
SETUP_METRICS = {
    "synth.search": "setup.synth.search_ms",
    "designs.plan_build": "setup.designs.plan_build_ms",
}

# Span counters summed over a traced process (mean over processes).
SPAN_COUNTS = ["schedule.examined", "schedule.feasible", "space.examined",
               "space.feasible", "modules.examined", "modules.pruned"]

# Counters a traced process reports beside its spans (mean over processes).
PROCESS_COUNTS = ["synth.cache_hits", "synth.cache_misses",
                  "synth.validation_failures", "designs.plan_bytes",
                  "designs.plan_points", "systolic.plan_cache_hits",
                  "systolic.plan_cache_misses", "systolic.plan_cache_bytes",
                  "systolic.plan_cache_evictions"]


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spans(doc):
    """(name, root name, self seconds, total seconds, counters) of every
    span of one trace; the root is the span's outermost ancestor ("op",
    "setup" or "check")."""
    events = doc["traceEvents"]
    child_us = defaultdict(float)
    for e in events:
        child_us[e["args"]["parent"]] += e["dur"]
    # A parent opens before its children, so it has the smaller id.
    roots = {}
    for e in sorted(events, key=lambda e: e["args"]["id"]):
        roots[e["args"]["id"]] = roots.get(e["args"]["parent"], e["name"])
    for e in events:
        span_id = e["args"]["id"]
        yield (e["name"], roots[span_id], (e["dur"] - child_us[span_id]) / 1e6,
               e["dur"] / 1e6, e["args"]["counters"])


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(docs, untraced_ms=None, service=None):
    """The per-layer metrics of one workload's traced run.

    docs: the trace files of the run (several for service-cold, whose
    passes are separate processes). untraced_ms: untraced per-operation
    latencies of the same replay, when not inside the trace files.
    service: {"service.queue_wait_ms": x, "service.worker_utilization": y}
    when measured outside the trace files.

    The *_ms layer times count only spans inside "op" roots, divided by the
    traced operations, so they and trace.unaccounted_ms add up to the
    traced operation time. Set-up and check work is reported per traced
    process (SETUP_METRICS, analysis.plan_audit_ms per audited plan), so
    its figures do not depend on how many operations a run fits in.
    """
    ops = sum(d["otherData"]["traced_ops"] for d in docs) or 1
    op_self_s = defaultdict(float)
    setup_s = defaultdict(float)
    counts = defaultdict(float)
    audits = []
    peak = 0.0
    points = 0.0
    op_s = 0.0
    bytes_sum = 0.0
    encodes = 0
    for doc in docs:
        for name, root, self_s, total_s, counters in spans(doc):
            for key in SPAN_COUNTS:
                counts[key] += counters.get(key, 0.0)
            peak = max(peak, counters.get("partition.peak_live_cells", 0.0))
            if name == "analysis.plan_audit":
                audits.append(total_s)
            if root == "setup" and name in SETUP_METRICS:
                setup_s[name] += total_s
            if root != "op":
                continue
            op_self_s[name] += self_s
            if name == "op":
                op_s += total_s
            if name == "systolic.exec":
                points += counters.get("systolic.points", 0.0)
            if name == "service.encode":
                encodes += 1
                bytes_sum += counters.get("service.response_bytes", 0.0)
    metrics = {m: op_self_s[s] * 1e3 / ops for s, m in TIME_METRICS.items()}
    for name, metric in SETUP_METRICS.items():
        metrics[metric] = setup_s[name] * 1e3 / len(docs)
    metrics["analysis.plan_audit_ms"] = statistics.mean(audits) * 1e3 \
        if audits else 0.0
    for key in SPAN_COUNTS:
        metrics[key] = counts[key] / len(docs)
    for key in PROCESS_COUNTS:
        metrics[key] = sum(d["otherData"]["counters"].get(key, 0.0)
                           for d in docs) / len(docs)
    lookups = metrics["synth.cache_hits"] + metrics["synth.cache_misses"]
    metrics["synth.cache_hit_ratio"] = (
        metrics["synth.cache_hits"] / lookups if lookups else 0.0)
    plan = (metrics["systolic.plan_cache_hits"] +
            metrics["systolic.plan_cache_misses"])
    metrics["systolic.plan_cache_hit_ratio"] = (
        metrics["systolic.plan_cache_hits"] / plan if plan else 0.0)
    exec_s = op_self_s["systolic.exec"]
    metrics["systolic.points_per_s"] = points / exec_s if exec_s else 0.0
    metrics["partition.peak_live_cells"] = peak
    metrics["service.response_bytes"] = bytes_sum / encodes if encodes else 0.0
    for key in ("service.queue_wait_ms", "service.worker_utilization"):
        if service is not None:
            metrics[key] = service[key]
        else:
            metrics[key] = median([d["otherData"]["counters"].get(key, 0.0)
                                   for d in docs])
    covered_s = sum(op_self_s[s] for s in TIME_METRICS)
    metrics["trace.unaccounted_ms"] = (op_s - covered_s) * 1e3 / ops
    traced = [x for d in docs for x in d["otherData"]["traced_latencies_ms"]]
    if untraced_ms is None:
        untraced_ms = [x for d in docs
                       for x in d["otherData"].get("untraced_latencies_ms", [])]
    metrics["trace.overhead_ms"] = median(traced) - median(untraced_ms)
    return metrics


def layer_table(docs):
    """Per layer: self time inside operations (ms per traced operation) and
    its share of the traced operation time; then self time of set-up and
    check spans (ms per traced process)."""
    ops = sum(d["otherData"]["traced_ops"] for d in docs) or 1
    in_ops = defaultdict(float)
    outside = defaultdict(float)
    op_total = 0.0
    for doc in docs:
        for name, root, self_s, total_s, _ in spans(doc):
            layer = name.split(".")[0]
            if root == "op":
                in_ops[layer] += self_s
                if name == "op":
                    op_total += total_s
            else:
                outside[(root, layer)] += self_s
    rows = []
    for layer, seconds in sorted(in_ops.items(), key=lambda kv: -kv[1]):
        share = seconds / op_total if op_total else 0.0
        rows.append((layer, seconds * 1e3 / ops, share))
    rest = [(root, layer, seconds * 1e3 / len(docs))
            for (root, layer), seconds in sorted(outside.items(),
                                                 key=lambda kv: -kv[1])]
    return rows, rest


def by_size(docs):
    """Mean synth.search and synth.replay span time per domain size."""
    spans = defaultdict(list)
    for doc in docs:
        for e in doc["traceEvents"]:
            points = e["args"]["counters"].get("domain_points")
            if points and e["name"] in ("synth.search", "synth.replay"):
                spans[(int(points), e["name"])].append(e["dur"] / 1e3)
    print(f"{'|I|':>8} {'search ms':>10} {'replay ms':>10} {'replays':>8}")
    for points in sorted({p for p, _ in spans}):
        search = spans.get((points, "synth.search"), [])
        replay = spans.get((points, "synth.replay"), [])
        print(f"{points:>8} {statistics.mean(search) if search else 0:>10.3f}"
              f" {statistics.mean(replay) if replay else 0:>10.3f}"
              f" {len(replay):>8}")


def main(paths, sizes=False):
    by_workload = defaultdict(list)
    for path in paths:
        doc = load(path)
        by_workload[doc["otherData"]["workload"]].append(doc)
    for workload, docs in sorted(by_workload.items()):
        metrics = layer_metrics(docs)
        ops = sum(d["otherData"]["traced_ops"] for d in docs)
        print(f"== {workload}: {ops} traced operations in {len(docs)} file(s)")
        rows, rest = layer_table(docs)
        print(f"{'layer':<12} {'self ms/op':>12} {'share of op time':>17}")
        for layer, ms, share in rows:
            print(f"{layer:<12} {ms:>12.4f} {share:>16.1%}")
        for root, layer, ms in rest:
            print(f"{root + ' ' + layer:<22} {ms:>12.3f} ms per process")
        print(f"trace.unaccounted_ms {metrics['trace.unaccounted_ms']:.4f}")
        if any("untraced_latencies_ms" in d["otherData"] for d in docs):
            print(f"trace.overhead_ms    {metrics['trace.overhead_ms']:.4f}")
        else:
            # service-cold keeps its untraced replays in separate passes;
            # run.py reports the overhead from them.
            print("trace.overhead_ms    (see run.py --trace 1)")
        if sizes:
            by_size(docs)
    return 0


if __name__ == "__main__":
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    files = [a for a in sys.argv[1:] if not a.startswith("--")]
    if not files or set(flags) - {"--by-size"}:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(files, "--by-size" in flags))
