"""Service benchmark: cold/warm throughput and the program-cache split.

Fires a deterministic workload (circuits x device seeds, each request
compiling under several strategies) at in-process
:class:`~repro.service.service.CompilationService` instances:

* **cold** -- a fresh service and empty caches, so every (device, strategy)
  cell pays for basis-gate selection and every request compiles;
* **warm** -- the same request list repeated against the now-hot service:
  repeats are served by the content-addressed program cache (the
  ``latency_split`` block separates cache-lookup time from dispatch time);
* **warm_nocache** -- the same repeat traffic against a second service with
  the program cache disabled (sharing the warm on-disk target cache), which
  isolates what the program-cache layer itself buys;
* **identity** -- every workload request is compiled on both services and
  the result documents are compared byte for byte: a cache hit must be
  indistinguishable from recompiling;
* **build** -- the cold end: one multi-edge target resolved from a fresh
  device (batched scan + concurrent edge fan-out), timed once.

Emits ``BENCH_service.json``: per-phase throughput and latency percentiles,
the warm/cold and cache/no-cache speedups, program-cache hit rates and the
cold-build time.  The committed copy at ``benchmarks/BENCH_service.json``
is the CI perf baseline (``benchmarks/check_perf.py`` gates regressions
against it); refresh it by re-running this script from the repository
root::

    PYTHONPATH=src python benchmarks/bench_service.py \
        --output benchmarks/BENCH_service.json

The file is named ``bench_*`` (not ``test_*``) on purpose: pytest does not
collect it, CI runs it as a script and uploads the JSON artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.compiler.pipeline.target import build_target
from repro.device.device import default_edge_workers
from repro.fleet.devices import make_device
from repro.fleet.spec import TopologySpec
from repro.service import (
    CompilationService,
    LoadSpec,
    ServiceConfig,
    run_phase_inprocess,
)
from repro.synthesis.numerical import reset_synthesis_memo

DEFAULT_CIRCUITS = ("ghz_4", "bv_5", "qft_4", "cuccaro_6")
DEFAULT_SEEDS = (11, 12, 13)
BUILD_TOPOLOGY = "heavy_hex:2"
BUILD_STRATEGY = "criterion2"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _results_digest(responses) -> str:
    """Order-independent digest over per-request result documents."""
    blob = sorted(
        (response.request.circuit, response.request.device_seed,
         json.dumps(response.results, sort_keys=True))
        for response in responses
    )
    return json.dumps(blob)


async def _compile_all(service: CompilationService, requests) -> list:
    return [await service.compile(request) for request in requests]


def bench_build() -> dict:
    """Cold target resolution from a fresh device and synthesis memo.

    ``batched_s`` keeps the name it had when a scalar build was timed
    beside this one, so committed baselines stay comparable.
    """
    reset_synthesis_memo()
    device = make_device(TopologySpec.parse(BUILD_TOPOLOGY), 11)
    started = time.perf_counter()
    target = build_target(device, BUILD_STRATEGY).complete()
    batched_s = time.perf_counter() - started
    reset_synthesis_memo()
    return {
        "topology": BUILD_TOPOLOGY,
        "strategy": BUILD_STRATEGY,
        "edges": len(target.selections),
        "edge_workers": default_edge_workers(),
        "batched_s": batched_s,
    }


async def run_bench(args: argparse.Namespace, cache_dir: str | None) -> dict:
    """Cold, warm and no-cache phases plus the cold-build measurement."""
    spec = LoadSpec(
        circuits=tuple(args.circuits),
        topology=args.topology,
        device_seeds=tuple(args.device_seeds),
        strategies=tuple(args.strategies),
        mapping=args.mapping,
        repeats=1,
        concurrency=args.concurrency,
    )
    one_pass = spec.requests()
    config = ServiceConfig(
        cache_dir=cache_dir,
        executor=args.executor,
        max_workers=args.workers,
        batch_window_ms=args.batch_window_ms,
    )
    async with CompilationService(config) as service:
        cold = await run_phase_inprocess(
            service, one_pass, spec.concurrency, name="cold"
        )
        cold_cache = service.hot_targets.stats.as_dict()
        warm = await run_phase_inprocess(
            service, one_pass * args.warm_repeats, spec.concurrency, name="warm"
        )
        cached_responses = await _compile_all(service, one_pass)
        cache = service.hot_targets.as_dict()
        programs = service.programs.as_dict()
        metrics = service.metrics_snapshot()

    # The control: identical warm repeat traffic with the program cache off.
    # The shared cache_dir keeps the *target* layers warm, so the delta is
    # the program cache alone.
    nocache_config = ServiceConfig(
        cache_dir=cache_dir,
        executor=args.executor,
        max_workers=args.workers,
        batch_window_ms=args.batch_window_ms,
        program_cache=False,
    )
    async with CompilationService(nocache_config) as control:
        await run_phase_inprocess(
            control, one_pass, spec.concurrency, name="prewarm"
        )
        warm_nocache = await run_phase_inprocess(
            control,
            one_pass * args.warm_repeats,
            spec.concurrency,
            name="warm_nocache",
        )
        recompiled_responses = await _compile_all(control, one_pass)

    speedup = (
        warm["throughput_rps"] / cold["throughput_rps"]
        if cold["throughput_rps"] > 0
        else 0.0
    )
    warm_hits = sum(
        count
        for source, count in warm["program_sources"].items()
        if source.startswith("program-")
    )
    program_block = {
        "warm_hit_rate": warm_hits / warm["requests"] if warm["requests"] else 0.0,
        "speedup_vs_nocache": (
            warm["throughput_rps"] / warm_nocache["throughput_rps"]
            if warm_nocache["throughput_rps"] > 0
            else 0.0
        ),
        "byte_identical": (
            _results_digest(cached_responses)
            == _results_digest(recompiled_responses)
        ),
        **programs,
    }
    return {
        "benchmark": "service",
        "python": platform.python_version(),
        "cpus": cpu_count(),
        "workload": {
            "circuits": list(spec.circuits),
            "topology": spec.topology,
            "device_seeds": list(spec.device_seeds),
            "strategies": list(spec.strategies),
            "mapping": spec.mapping,
            "concurrency": spec.concurrency,
            "warm_repeats": args.warm_repeats,
            "executor": config.executor,
            "max_workers": config.max_workers,
            "batch_window_ms": config.batch_window_ms,
        },
        "cold": cold,
        "warm": warm,
        "warm_nocache": warm_nocache,
        "speedup_warm_over_cold": speedup,
        "program_cache": program_block,
        "build": bench_build(),
        "cache_after_cold": cold_cache,
        "cache": cache,
        "service_metrics": metrics,
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=list(DEFAULT_CIRCUITS),
        help="fleet circuit names",
    )
    parser.add_argument("--topology", default="grid:3x3", help="device topology label")
    parser.add_argument(
        "--device-seeds",
        nargs="+",
        type=int,
        default=list(DEFAULT_SEEDS),
        help="device frequency seeds (one simulated device each)",
    )
    parser.add_argument(
        "--strategies",
        nargs="+",
        default=["baseline", "criterion2"],
        help="strategies each request compiles under",
    )
    parser.add_argument("--mapping", default="hop_count", help="mapping metric")
    parser.add_argument(
        "--concurrency", type=int, default=12, help="in-flight request cap"
    )
    parser.add_argument(
        "--warm-repeats",
        type=int,
        default=20,
        help="how many passes over the workload the warm phase makes",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="dispatcher fan-out width"
    )
    parser.add_argument(
        "--executor", default="thread", help="dispatcher executor flavour"
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=2.0, help="coalescing window"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk target cache (default: a throwaway temp dir)",
    )
    parser.add_argument(
        "--output",
        default="benchmarks/BENCH_service.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        results = asyncio.run(run_bench(args, args.cache_dir))
    else:
        with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
            results = asyncio.run(run_bench(args, tmp))

    path = Path(args.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2))

    for phase in (results["cold"], results["warm"], results["warm_nocache"]):
        latency = phase["latency_ms"]
        print(
            f"{phase['phase']:<12} {phase['requests']:>5d} requests "
            f"{phase['throughput_rps']:>8.1f} req/s "
            f"p50 {latency['p50']:>7.1f}ms p95 {latency['p95']:>7.1f}ms "
            f"({phase['errors']} errors)"
        )
    cache = results["cache"]
    program = results["program_cache"]
    build = results["build"]
    print(
        f"speedup (warm/cold): {results['speedup_warm_over_cold']:.1f}x; "
        f"cache: {cache['memory_hits']} memory hits, {cache['disk_hits']} disk "
        f"hits, {cache['misses']} builds"
    )
    print(
        f"program cache: hit rate {program['warm_hit_rate']:.2f}, "
        f"{program['speedup_vs_nocache']:.1f}x over no-cache, "
        f"byte-identical: {program['byte_identical']}"
    )
    print(
        f"cold build ({build['topology']}, {build['edges']} edges): "
        f"{build['batched_s']:.3f}s"
    )
    print(f"\nWrote {path}")
    return results


if __name__ == "__main__":
    main()
