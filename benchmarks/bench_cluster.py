"""Cluster soak benchmark: scaling, warm-store reuse, shedding, coherence.

Exercises the sharded compilation cluster (``repro.cluster``) end to end and
emits ``BENCH_cluster.json`` with five phase groups:

* **single_warm** -- the fair baseline: one plain single-process
  :class:`~repro.service.net.ServiceServer` (no cluster front end), warm,
  over the wire.  The cluster speedup is measured against this.
* **cluster_cold / cluster_warm** -- a fresh N-shard cluster over an empty
  shared target store, then the same workload repeated hot.
* **cluster_warm_disk** -- a *brand new* cluster started over the now-warm
  store: its first pass must be served from disk (``builds == 0``), which is
  the shared-store reuse guarantee.
* **overload** -- a single-device flood past the admission bound: requests
  must shed with ``retry_after_ms`` (and eventually complete when the client
  honours it) rather than error or queue without bound.
* **coherence** -- one drift epoch applied through the calibrate fan-out
  (absolute wire payloads from :mod:`repro.drift.wire`), with load running
  *during* the update; after the ack every response fingerprint must be the
  post-drift one (``stale_served == 0``).

The committed copy at ``benchmarks/BENCH_cluster.json`` is the CI perf
baseline (``benchmarks/check_perf.py`` gates it; the >= 1.6x cluster-over-
single speedup floor applies on multi-core runners -- the document records
``cpus`` so the gate can tell).  Refresh it from the repository root::

    PYTHONPATH=src python benchmarks/bench_cluster.py \
        --output benchmarks/BENCH_cluster.json

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
from pathlib import Path

from repro.cluster import ClusterConfig, ClusterFrontend
from repro.drift.models import parse_drift_model
from repro.drift.wire import drift_calibration_payload, shadow_device
from repro.fleet.devices import device_fingerprint, make_device
from repro.fleet.spec import TopologySpec
from repro.service.loadgen import LoadSpec, run_phase_wire
from repro.service.net import ServiceClient, ServiceServer
from repro.service.service import CompilationService, ServiceConfig

DEFAULT_CIRCUITS = ("ghz_3", "bv_3")
DEFAULT_SEEDS = (11, 12, 13, 14)
#: Device seed for the single-device overload and coherence phases.
FOCUS_SEED = 21


def cpu_count() -> int:
    """Usable CPUs (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spec(args: argparse.Namespace, **overrides) -> LoadSpec:
    fields = {
        "circuits": tuple(args.circuits),
        "topology": args.topology,
        "device_seeds": tuple(args.device_seeds),
        "strategies": tuple(args.strategies),
        "mapping": args.mapping,
        "repeats": 1,
        "concurrency": args.concurrency,
    }
    fields.update(overrides)
    return LoadSpec(**fields)


def _cluster_config(args: argparse.Namespace, store_dir: str) -> ClusterConfig:
    return ClusterConfig(
        shards=args.shards,
        store_dir=store_dir,
        batch_window_ms=args.batch_window_ms,
        max_pending_per_shard=args.max_pending_per_shard,
        connections_per_shard=args.connections_per_shard,
    )


async def bench_single(args: argparse.Namespace, store_dir: str) -> dict:
    """Warm wire throughput of one plain single-process service."""
    spec = _spec(args)
    one_pass = spec.requests()
    config = ServiceConfig(cache_dir=store_dir, batch_window_ms=args.batch_window_ms)
    server = ServiceServer(CompilationService(config), port=0)
    await server.start()
    host, port = server.address
    try:
        await run_phase_wire(host, port, one_pass, spec.concurrency, name="single-warmup")
        warm = await run_phase_wire(
            host,
            port,
            one_pass * args.warm_repeats,
            spec.concurrency,
            name="single_warm",
        )
    finally:
        await server.stop()
    return warm


async def bench_cluster_fresh(args: argparse.Namespace, store_dir: str) -> dict:
    """Cold + warm + overload + coherence against one fresh cluster."""
    spec = _spec(args)
    one_pass = spec.requests()
    frontend = ClusterFrontend(_cluster_config(args, store_dir), port=0)
    await frontend.start()
    try:
        host, port = frontend.address
        cold = await run_phase_wire(
            host, port, one_pass, spec.concurrency, name="cluster_cold",
            shed_retries=20,
        )
        warm = await run_phase_wire(
            host,
            port,
            one_pass * args.warm_repeats,
            spec.concurrency,
            name="cluster_warm",
            shed_retries=20,
        )
        overload = await bench_overload(args, host, port)
        coherence = await bench_coherence(args, host, port)
        cluster_metrics = await frontend.metrics_snapshot()
    finally:
        await frontend.stop()
    return {
        "cold": cold,
        "warm": warm,
        "overload": overload,
        "coherence": coherence,
        "cluster_metrics": cluster_metrics,
    }


async def bench_overload(args: argparse.Namespace, host: str, port: int) -> dict:
    """Flood one device far past the admission bound.

    Every request targets the same device, so the whole flood lands on one
    shard's bounded queue: the front end *must* shed (the queue bound is
    well below the flood's concurrency), and a client that honours
    ``retry_after_ms`` must still land every request eventually -- sheds
    with zero errors is the acceptance shape.
    """
    spec = _spec(
        args,
        circuits=(args.circuits[0],),
        device_seeds=(FOCUS_SEED,),
        repeats=args.overload_requests,
        concurrency=args.overload_concurrency,
    )
    return await run_phase_wire(
        host,
        port,
        spec.requests(),
        spec.concurrency,
        name="overload",
        shed_retries=100,
    )


async def bench_coherence(args: argparse.Namespace, host: str, port: int) -> dict:
    """One drift epoch through the calibrate fan-out, under load.

    Uses :func:`~repro.drift.wire.drift_calibration_payload` so the device
    state every shard lands on is byte-identical to an in-place drift of the
    same spec -- the expected post-drift fingerprint is computed client-side
    from the shadow device, then every post-ack response is checked against
    it.  A load phase runs concurrently with the calibrate to exercise the
    quiesce gate (its responses are allowed either fingerprint; only
    post-ack responses are gated).
    """
    topology = TopologySpec.parse(args.topology)
    shadow = shadow_device(make_device(topology, seed=FOCUS_SEED))
    pre_fingerprint = device_fingerprint(shadow)
    models = [parse_drift_model(text) for text in args.drift_models]
    payload, _events = drift_calibration_payload(
        shadow, models, epoch=0, drift_seed=args.drift_seed
    )
    post_fingerprint = device_fingerprint(shadow)

    spec = _spec(
        args,
        circuits=(args.circuits[0],),
        device_seeds=(FOCUS_SEED,),
        repeats=6,
        concurrency=4,
    )
    requests = spec.requests()

    during_task = asyncio.create_task(
        run_phase_wire(
            host, port, requests, spec.concurrency, name="during-calibrate",
            shed_retries=20, collect_responses=True,
        )
    )
    await asyncio.sleep(0.01)  # let the load start before the update lands
    async with ServiceClient(host, port) as client:
        report = await client.calibrate(
            topology=args.topology, device_seed=FOCUS_SEED, **payload
        )
    during = await during_task

    after = await run_phase_wire(
        host, port, requests, spec.concurrency, name="after-calibrate",
        shed_retries=20, collect_responses=True,
    )
    stale_served = sum(
        1
        for response in after["responses"]
        if response.get("fingerprint") != post_fingerprint
    )
    during_stale = sum(
        1
        for response in during["responses"]
        if response.get("fingerprint")
        not in (pre_fingerprint, post_fingerprint)
    )
    during.pop("responses", None)
    after.pop("responses", None)
    return {
        "pre_fingerprint": pre_fingerprint,
        "post_fingerprint": post_fingerprint,
        "fingerprint_changed": post_fingerprint != pre_fingerprint,
        "coherent_ack": bool(report.get("coherent")),
        "shards_acked": sorted(report.get("shards", {})),
        "during": during,
        "after": after,
        "responses_checked": after["requests"],
        "stale_served": stale_served,
        "during_unknown_fingerprints": during_stale,
    }


async def bench_cluster_restart(args: argparse.Namespace, store_dir: str) -> dict:
    """First pass of a brand-new cluster over the already-warm store."""
    spec = _spec(args)
    frontend = ClusterFrontend(_cluster_config(args, store_dir), port=0)
    await frontend.start()
    try:
        host, port = frontend.address
        phase = await run_phase_wire(
            host,
            port,
            spec.requests(),
            spec.concurrency,
            name="cluster_warm_disk",
            shed_retries=20,
        )
        snapshot = await frontend.metrics_snapshot()
    finally:
        await frontend.stop()
    cache = snapshot["aggregate"]["cache"]
    return {
        **phase,
        "cache": cache,
        "builds_after_restart": cache["misses"],
        "disk_hits_after_restart": cache["disk_hits"],
    }


async def run_bench(args: argparse.Namespace, store_root: str) -> dict:
    single_store = str(Path(store_root) / "single")
    cluster_store = str(Path(store_root) / "cluster")
    single_warm = await bench_single(args, single_store)
    fresh = await bench_cluster_fresh(args, cluster_store)
    warm_disk = await bench_cluster_restart(args, cluster_store)
    single_rps = single_warm["throughput_rps"]
    cluster_rps = fresh["warm"]["throughput_rps"]
    return {
        "benchmark": "cluster",
        "python": platform.python_version(),
        "cpus": cpu_count(),
        "workload": {
            "circuits": list(args.circuits),
            "topology": args.topology,
            "device_seeds": list(args.device_seeds),
            "strategies": list(args.strategies),
            "mapping": args.mapping,
            "concurrency": args.concurrency,
            "warm_repeats": args.warm_repeats,
            "shards": args.shards,
            "batch_window_ms": args.batch_window_ms,
            "max_pending_per_shard": args.max_pending_per_shard,
            "connections_per_shard": args.connections_per_shard,
            "overload_requests": args.overload_requests,
            "overload_concurrency": args.overload_concurrency,
            "drift_models": list(args.drift_models),
            "drift_seed": args.drift_seed,
        },
        "single_warm": single_warm,
        "cluster_cold": fresh["cold"],
        "cluster_warm": fresh["warm"],
        "cluster_warm_disk": warm_disk,
        "overload": fresh["overload"],
        "coherence": fresh["coherence"],
        "speedup_cluster_over_single": (
            cluster_rps / single_rps if single_rps > 0 else 0.0
        ),
        "cluster_metrics": fresh["cluster_metrics"],
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits", nargs="+", default=list(DEFAULT_CIRCUITS),
        help="fleet circuit names",
    )
    parser.add_argument("--topology", default="linear:4", help="device topology label")
    parser.add_argument(
        "--device-seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS),
        help="device frequency seeds (one simulated device each)",
    )
    parser.add_argument(
        "--strategies", nargs="+", default=["baseline", "criterion2"],
        help="strategies each request compiles under",
    )
    parser.add_argument("--mapping", default="hop_count", help="mapping metric")
    parser.add_argument("--shards", type=int, default=2, help="shard process count")
    parser.add_argument(
        "--concurrency", type=int, default=12, help="client connection count"
    )
    parser.add_argument(
        "--warm-repeats", type=int, default=12,
        help="how many passes over the workload the warm phases make",
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=1.0, help="coalescing window"
    )
    parser.add_argument(
        "--max-pending-per-shard", type=int, default=16,
        help="admission bound (below the overload phase's concurrency on "
        "purpose, so that phase must shed)",
    )
    parser.add_argument(
        "--connections-per-shard", type=int, default=4,
        help="front-end wire connections per shard",
    )
    parser.add_argument(
        "--overload-requests", type=int, default=48,
        help="single-device requests fired by the overload phase",
    )
    parser.add_argument(
        "--overload-concurrency", type=int, default=32,
        help="overload client connections (far past the admission bound)",
    )
    parser.add_argument(
        "--drift-models", nargs="+",
        default=["ou:sigma_ghz=0.05", "tls:rate=0.5"],
        help="drift model specs the coherence phase applies",
    )
    parser.add_argument("--drift-seed", type=int, default=7, help="drift RNG seed")
    parser.add_argument(
        "--store-dir", default=None,
        help="root for the shared target stores (default: a throwaway temp dir)",
    )
    parser.add_argument(
        "--output", default="benchmarks/BENCH_cluster.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)

    if args.store_dir is not None:
        results = asyncio.run(run_bench(args, args.store_dir))
    else:
        with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
            results = asyncio.run(run_bench(args, tmp))

    path = Path(args.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2))

    for key in ("single_warm", "cluster_cold", "cluster_warm", "cluster_warm_disk", "overload"):
        phase = results[key]
        latency = phase["latency_ms"]
        print(
            f"{phase['phase']:<17} {phase['requests']:>5d} requests "
            f"{phase['throughput_rps']:>8.1f} req/s "
            f"p50 {latency['p50']:>7.1f}ms p95 {latency['p95']:>7.1f}ms "
            f"({phase['errors']} errors, {phase['sheds']} sheds)"
        )
    coherence = results["coherence"]
    print(
        f"speedup (cluster/single, {results['cpus']} cpu(s)): "
        f"{results['speedup_cluster_over_single']:.2f}x; "
        f"warm-store builds after restart: "
        f"{results['cluster_warm_disk']['builds_after_restart']}; "
        f"stale served after calibrate: {coherence['stale_served']}/"
        f"{coherence['responses_checked']}"
    )
    print(f"\nWrote {path}")
    return results


if __name__ == "__main__":
    main()
