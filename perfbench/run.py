"""Benchmark of the grossone solvers; see README.md in this directory.

Run from the repository root:

    python3 perfbench/run.py --workload lp-degenerate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  The exit code is 0 only
when every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import measure  # noqa: E402
from harness.tracing import METRICS, Tracer  # noqa: E402
from harness.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
# The end-to-end metrics declared in BENCHMARK.json.  Their timings are in
# reference seconds (see harness/reference.py).  failed_ops_ratio and the
# wall-clock figures are reported beside them, in "details".
UNITS = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def plain_run(workload, root: str, seed: int, seconds: float) -> dict:
    setup_times, loop, speed = measure.segmented_loop(workload, root, seed, seconds)
    attempted, failed = len(loop.latencies), len(loop.failures)
    stats = measure.latency_stats(loop.latencies)
    scale = speed.scale()
    wall = {
        "ops_per_s": (attempted - failed) / loop.busy,
        "op_ms_p50": stats["p50"] * 1e3,
        "op_ms_tail": stats["tail"] * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    values = {
        "ops_per_s": wall["ops_per_s"] / scale,
        "op_ms_p50": wall["op_ms_p50"] * scale,
        "op_ms_tail": wall["op_ms_tail"] * scale,
        "setup_s": wall["setup_s"] * scale,
        "peak_rss_mib": measure.peak_rss_mib(),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": loop.failures,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()},
        "details": {
            "failed_ops_ratio": failed / attempted,
            "reference_s_per_wall_s": scale,
            "reference_rounds": speed.rounds,
            **{f"wall_{name}": value for name, value in wall.items()},
            "busy_s": loop.busy,
            "setup_runs_s": setup_times,
            "tail_percentile": stats["tail_percentile"],
            "tail_samples_beyond": stats["tail_beyond"],
            "samples": stats["samples"],
        },
    }


def traced_run(workload, root: str, seed: int, spans_path: str) -> dict:
    """Passes over the first `trace_ops` operations of the pool: a warm-up
    pass; a paired pass that runs each operation untraced and then traced, so
    that both see the machine at the same moment and their time ratio is the
    tracing overhead; and a second traced pass whose exact counts must equal
    those of the first."""
    _, api, pool, ctx = measure.set_up(workload, root, seed)
    count = workload.trace_ops
    warm = measure.closed_loop(workload, api, pool, ctx, count=count)
    tracer = Tracer()
    untraced, traced = measure.Loop(), measure.Loop()
    for index in range(count):
        # Alternate which run of the pair goes first, so neither gains from
        # caches the other warmed.
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            if tracing:
                tracer.op_id = index
                tracer.install(api)
            try:
                record = measure.run_op(workload, api, pool[index], index)
            finally:
                if tracing:
                    tracer.uninstall()
            (traced if tracing else untraced).add(workload, pool, ctx, record)
    first = tracer.metrics()
    error = tracer.consistency_error()
    problems = [error] if error else []
    tracer.write_spans(spans_path)
    tracer.reset()
    tracer.install(api)
    try:
        repeat = measure.closed_loop(workload, api, pool, ctx, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    second = tracer.metrics()
    passes = (warm, untraced, traced, repeat)
    for name, _, exact in METRICS:
        if exact and first[name] != second[name]:
            problems.append(f"{name} differs between two traced passes: {first[name]} vs {second[name]}")
    failed = [line for loop in passes for line in loop.failures]
    attempted = len(passes) * count
    traced_rate = count / traced.busy
    untraced_rate = count / untraced.busy
    metrics = {name: {"value": first[name], "unit": unit} for name, unit, _ in METRICS}
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "ops/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "ops/s"}
    metrics["trace.overhead_ratio"] = {"value": untraced_rate / traced_rate, "unit": "ratio"}
    return {
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed + problems,
        "metrics": metrics,
        "details": {"failed_ops_ratio": len(failed) / attempted, "traced_ops": count, "spans_file": spans_path},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {completed.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"] and completed.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grossone", "__init__.py")):
        print(f"error: no src/grossone under {root}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    env = measure.environment(root, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        outcome = traced_run(workload, root, args.seed, stem + "-spans.jsonl")
    else:
        outcome = plain_run(workload, root, args.seed, args.seconds)
    env["load_avg_end"] = list(os.getloadavg())

    result = {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "trace": args.trace, "environment": env,
                   "details": outcome["details"], "failures": outcome["failures"], **result}, handle, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, metric in outcome["metrics"].items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in outcome["details"].items():
        if not isinstance(value, list):
            print(f"  {key:44s} {value}")
    for line in outcome["failures"][:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
