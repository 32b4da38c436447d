"""The repository benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 36 --trace 0

``--workload`` is one of the workloads ``BENCHMARK.json`` lists
(``compile_cold``, ``serve_drift``) or ``all`` (each of them in a fresh
process, one row each).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` wraps the library layers'
entry points and prints the per-layer metrics instead.  The last line of
standard output is the result as JSON; the line before it is the run
record.  Any output-correctness failure makes the exit code 1.

Why the workloads and metrics are what they are: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    ROOT,
    WORK,
    emit,
    ensure_program_importable,
    host_record,
    median,
    metric,
    reference_loop_ms,
)

#: The workloads ``BENCHMARK.json`` lists, in its order.
WORKLOADS = tuple(
    entry["name"]
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
)
#: Set-ups per run, counting the run's own; the run reports their median.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 300

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
    "two_qubit_layers": "layers",
    "mean_fidelity": "ratio",
}
PASSES = ("layout", "routing", "optimize", "translate", "schedule", "metrics")
PER_LAYER = {
    "oracle.search_ms": "ms",
    "oracle.search_calls": "count",
    "oracle.cost_evals": "count",
    "oracle.share": "ratio",
    "oracle.coverage_calls": "count",
    "synthesis.self_ms": "ms",
    "synthesis.misses": "count",
    "target.self_ms": "ms",
    "target.builds": "count",
    **{f"pass.{name}.{kind}": unit for name in PASSES
       for kind, unit in (("self_ms", "ms"), ("share", "ratio"))},
    "optimize.blocks_consolidated": "count",
    "optimize.blocks_dropped": "count",
    "routing.swaps": "count",
    "setup.import_ms": "ms",
    "setup.target.self_ms": "ms",
    "setup.target.builds": "count",
    "frontend.self_ms_p50": "ms",
    "frontend.queue_ms_p99": "ms",
    "hop.self_ms_p50": "ms",
    "service.fastpath_ms_p50": "ms",
    "service.queue_ms_p99": "ms",
    "service.compile_ms_p50": "ms",
    "programcache.hits": "count",
    "programcache.hit_ratio": "ratio",
    "targetcache.builds": "count",
    "calibrate.ack_ms_p50": "ms",
    "calibrate.stalled_share": "ratio",
    "cluster.sheds": "count",
    "cluster.failovers": "count",
    "coherence.stale_serves": "count",
    "client.late_ms_p50": "ms",
    "client.late_ms_p99": "ms",
    "trace.attributed_share": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up once in this fresh process, print its "
        "set-up time and exit (the main run samples set-up this way)",
    )
    return parser.parse_args(argv)


def setup(workload: str, tracer, tag: str):
    """Everything from a fresh interpreter until the first timed operation."""
    started = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)

    import_ms = (time.perf_counter() - started) * 1000.0
    if tracer is not None:
        tracer.install()
    if workload == "compile_cold":
        from compile_cold import cold_setup

        state = cold_setup()
    else:
        from serve_drift import serve_setup

        state = serve_setup(tag)
    return state, time.perf_counter() - started, import_ms, started


def setup_probe(args) -> float:
    """One set-up in a fresh interpreter, timed by that interpreter."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-800:]}")
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_setup_only(args) -> int:
    state, seconds, _, _ = setup(args.workload, None, "probe")
    if args.workload == "serve_drift":
        from serve_drift import stop_cluster

        stop_cluster(state[0])
    print(json.dumps({"setup_s": seconds}))
    return 0


def library_layers(tracer, outcome, setup_window) -> dict:
    """Per-layer numbers of ``compile_cold`` from its spans and outputs."""
    timed = tracer.summarize(*outcome["window"])
    at_setup = tracer.summarize(*setup_window)
    self_ms = timed["self_ms"]
    ops = len(outcome["latencies_ms"])
    op_ms = timed["op_ms"] or 1.0
    layers = {
        "oracle.search_ms": self_ms.get("oracle", 0.0) / ops,
        "oracle.search_calls": timed["calls"].get("oracle.search", 0),
        "oracle.cost_evals": timed["amounts"].get("oracle.cost_evals", 0),
        "oracle.share": self_ms.get("oracle", 0.0) / op_ms,
        "oracle.coverage_calls": timed["calls"].get("oracle.coverage", 0),
        "synthesis.self_ms": self_ms.get("synthesis", 0.0) / ops,
        "target.self_ms": self_ms.get("target", 0.0) / ops,
        "target.builds": timed["calls"].get("target.new", 0),
        "setup.target.self_ms": at_setup["self_ms"].get("target", 0.0),
        "setup.target.builds": at_setup["calls"].get("target.new", 0),
        "trace.attributed_share": timed["attributed_ms"] / op_ms,
    }
    for name in PASSES:
        layers[f"pass.{name}.self_ms"] = self_ms.get(f"pass.{name}", 0.0) / ops
        layers[f"pass.{name}.share"] = self_ms.get(f"pass.{name}", 0.0) / op_ms
    cost_ms = tracer.span_cost_s() * 1000.0 * timed["spans"]
    layers["trace.overhead"] = cost_ms / max(timed["op_ms"] - cost_ms, 1e-9)
    return layers


def run_workload(args) -> int:
    from tracing import Tracer

    reference_start = reference_loop_ms()
    traced = args.trace == 1
    # Set-up is sampled in fresh interpreters too; traced runs report no
    # set-up time, so they skip the extra samples.
    probes = 0 if traced else SETUP_SAMPLES - 1
    samples = [setup_probe(args) for _ in range(probes)]
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}", enabled=traced)
    state, setup_s, import_ms, setup_start = setup(
        args.workload, tracer if traced and args.workload != "serve_drift" else None, "main"
    )
    setup_window = (setup_start, time.perf_counter())
    samples.append(setup_s)

    if args.workload == "serve_drift":
        from serve_drift import run_serve_drift

        outcome = run_serve_drift(args.seed, args.seconds, state)
    else:
        from compile_cold import run_compile_cold

        outcome = run_compile_cold(tracer, state)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(outcome["layers"])
    layers["setup.import_ms"] = import_ms
    if traced and args.workload != "serve_drift":
        layers.update(library_layers(tracer, outcome, setup_window))
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    failures = outcome["failures"]
    if traced:
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": median(samples),
            "latency_ms_p50": outcome["latency_ms_p50"],
            "latency_ms_tail": outcome["latency_ms_tail"],
            "throughput_ops_s": outcome["throughput"],
            "peak_rss_mb": outcome["peak_rss_mb"],
            "two_qubit_layers": outcome["two_qubit_layers"],
            "mean_fidelity": outcome["mean_fidelity"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host_record(),
        "setup_s_samples": samples,
        "latency_samples": len(outcome["latencies_ms"]),
        "reference_loop_ms": {"start": reference_start, "end": reference_loop_ms()},
        "failures": failures[:10],
        "failure_count": len(failures),
        "trace_missing_entry_points": tracer.missing,
        **outcome["record"],
    }
    failed = len(failures)
    emit(record, {
        "correct": failed == 0,
        "attempted": max(outcome["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    })
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one row per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 2
        print(lines[0], flush=True)
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    ensure_program_importable()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        return run_setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
