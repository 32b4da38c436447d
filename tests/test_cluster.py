"""Tests for the sharded compilation cluster.

Covers the PR acceptance criteria directly:

* a warm 2-shard cluster must beat single-process warm wire throughput by
  the CPU-aware speedup floor, while overload traffic sheds (with
  ``retry_after_ms``) rather than erroring, and no accepted request is ever
  dropped (``TestClusterThroughput``);
* after a ``calibrate`` ack, no shard may serve a target carrying the
  pre-drift fingerprint -- asserted via the per-response ``fingerprint``
  field (``TestClusterCoherence``).

The integration tests share one live 2-shard cluster (module fixture on a
background event loop) to keep subprocess spawns -- the expensive part --
to a minimum.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterFrontend,
    ClusterMetrics,
    FairQueue,
    HashRing,
    device_route_key,
)
from repro.cluster.__main__ import main as cluster_main
from repro.drift.models import apply_drift, parse_drift_model
from repro.drift.wire import (
    calibration_state_payload,
    drift_calibration_payload,
    shadow_device,
)
from repro.fleet import TopologySpec
from repro.fleet.devices import device_fingerprint, make_device
from repro.service import (
    CalibrationUpdate,
    CompilationService,
    CompileRequest,
    LoadSpec,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.service.loadgen import run_phase_wire


def run(coro):
    """Run one coroutine on a fresh event loop."""
    return asyncio.run(coro)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def speedup_floor() -> float:
    """The CPU-aware cluster-over-single speedup acceptance floor.

    Shard processes are the parallelism: on >= 2 CPUs the 2-shard cluster
    must win by 1.6x; on one CPU the shards time-slice a single core and
    only a sanity floor applies (the front-end hop must not collapse
    throughput).  ``REPRO_CLUSTER_SPEEDUP_FLOOR`` overrides either floor --
    mirrors ``benchmarks/check_perf.py``.
    """
    override = os.environ.get("REPRO_CLUSTER_SPEEDUP_FLOOR")
    if override is not None:
        return float(override)
    return 1.6 if cpu_count() >= 2 else 0.25


# -- unit: consistent-hash ring -----------------------------------------------


class TestHashRing:
    def test_lookup_is_deterministic_and_sticky(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        key = device_route_key("grid:3x3", 11, 80.0, 20.0)
        assert ring.lookup(key) == ring.lookup(key)
        assert ring.lookup(key) in ring.shards

    def test_membership_change_moves_only_lost_keys(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [device_route_key("grid:3x3", seed, 80.0, 20.0) for seed in range(64)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("shard-2")
        for key in keys:
            owner = ring.lookup(key)
            if before[key] != "shard-2":
                assert owner == before[key]  # unaffected keys stay put
            else:
                assert owner != "shard-2"
        ring.add("shard-2")
        assert {key: ring.lookup(key) for key in keys} == before

    def test_exclude_walks_to_next_shard(self):
        ring = HashRing(["shard-0", "shard-1"])
        key = device_route_key("grid:3x3", 11, 80.0, 20.0)
        owner = ring.lookup(key)
        backup = ring.lookup(key, exclude={owner})
        assert backup != owner
        with pytest.raises(LookupError):
            ring.lookup(key, exclude={"shard-0", "shard-1"})

    def test_preference_lists_distinct_shards_in_failover_order(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        key = device_route_key("heavy_hex:2", 13, 80.0, 20.0)
        order = ring.preference(key)
        assert order[0] == ring.lookup(key)
        assert sorted(order) == sorted(ring.shards)

    def test_vnodes_balance_devices_roughly(self):
        ring = HashRing(["shard-0", "shard-1"])
        owners = [
            ring.lookup(device_route_key("grid:3x3", seed, 80.0, 20.0))
            for seed in range(200)
        ]
        share = owners.count("shard-0") / len(owners)
        assert 0.25 < share < 0.75

    def test_route_key_ignores_calibration_state(self):
        # The route key hashes device *identity*: drifting calibrations must
        # not move a device to a cold shard.
        spec = TopologySpec.parse("linear:4")
        device = make_device(spec, seed=11)
        key_before = device_route_key("linear:4", 11, 80.0, 20.0)
        apply_drift(device, [parse_drift_model("ou")], epoch=0, drift_seed=3)
        assert device_route_key("linear:4", 11, 80.0, 20.0) == key_before

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["shard-0"], vnodes=0)


# -- unit: fair queue ---------------------------------------------------------


class TestFairQueue:
    def test_round_robin_across_tenants(self):
        async def scenario():
            queue = FairQueue(max_depth=16)
            for item in range(3):
                queue.offer("big", f"big-{item}")
            queue.offer("small", "small-0")
            order = [await queue.get() for _ in range(4)]
            return [tenant for tenant, _ in order]

        # The light tenant is served after at most one of the flood's items.
        assert run(scenario()) == ["big", "small", "big", "big"]

    def test_offer_refuses_past_bound(self):
        queue = FairQueue(max_depth=2)
        assert queue.offer("a", 1)
        assert queue.offer("b", 2)
        assert not queue.offer("a", 3)  # shed
        assert queue.depth == 2

    def test_force_bypasses_bound_and_jumps_queue(self):
        async def scenario():
            queue = FairQueue(max_depth=1)
            queue.offer("a", "old")
            queue.force("a", "retry")
            return await queue.get()

        assert run(scenario()) == ("a", "retry")

    def test_get_waits_for_work(self):
        async def scenario():
            queue = FairQueue()

            async def feed():
                await asyncio.sleep(0.01)
                queue.offer("late", "item")

            task = asyncio.create_task(feed())
            tenant, item = await asyncio.wait_for(queue.get(), timeout=2.0)
            await task
            return tenant, item

        assert run(scenario()) == ("late", "item")

    def test_drain_empties_every_lane(self):
        queue = FairQueue()
        queue.offer("a", 1)
        queue.offer("b", 2)
        queue.offer("a", 3)
        drained = queue.drain()
        assert sorted(drained) == [("a", 1), ("a", 3), ("b", 2)]
        assert queue.depth == 0 and queue.tenants == ()

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            FairQueue(max_depth=0)


# -- unit: cluster metrics ----------------------------------------------------


class TestClusterMetrics:
    def test_snapshot_schema(self):
        metrics = ClusterMetrics()
        metrics.record_routed("shard-0")
        metrics.record_response(1.0, 5.0, 6.0, {"queue": 0.5, "compile": 4.0})
        metrics.record_shed()
        metrics.record_failure()
        snapshot = metrics.snapshot(
            shards={"shard-0": None}, ring={"shards": ["shard-0"], "down": []}
        )
        requests = snapshot["requests"]
        assert requests["total"] == 3
        assert requests["ok"] == 1 and requests["shed"] == 1
        assert requests["failed"] == 1
        for block in ("queue", "shard", "shard_queue", "compile", "total"):
            assert set(snapshot["latency_ms"][block]) == {
                "p50",
                "p95",
                "p99",
                "mean",
                "max",
            }
        assert snapshot["shards"]["shard-0"]["routed"] == 1
        assert json.dumps(snapshot)  # wire-serializable

    def test_aggregate_sums_shard_documents(self):
        shard_doc = {
            "requests": {"ok": 4, "failed": 1, "calibrations": 2},
            "batches": {"total": 3, "cells_total": 6},
            "cache": {"memory_hits": 5, "disk_hits": 1, "misses": 2},
        }
        totals = ClusterMetrics.aggregate_shards(
            {"shard-0": shard_doc, "shard-1": shard_doc, "shard-2": None}
        )
        assert totals["requests_ok"] == 8
        assert totals["batches_total"] == 6
        assert totals["cache"] == {
            "memory_hits": 10, "disk_hits": 2, "misses": 4, "invalidated": 0,
        }
        assert totals["programs"] == dict.fromkeys(totals["cache"], 0)


# -- unit: drift wire bridge --------------------------------------------------


class TestDriftWire:
    def test_payload_reproduces_inplace_drift_fingerprints(self):
        spec = TopologySpec.parse("linear:4")
        reference = make_device(spec, seed=11)  # drifted in place
        served = make_device(spec, seed=11)  # sees only wire payloads
        shadow = shadow_device(make_device(spec, seed=11))
        models_a = [parse_drift_model("ou:sigma_ghz=0.05"), parse_drift_model("tls:rate=0.5")]
        models_b = [parse_drift_model("ou:sigma_ghz=0.05"), parse_drift_model("tls:rate=0.5")]
        for epoch in range(3):
            apply_drift(reference, models_a, epoch, drift_seed=7)
            payload, events = drift_calibration_payload(
                shadow, models_b, epoch, drift_seed=7
            )
            update = CalibrationUpdate.from_dict(
                {"topology": "linear:4", "device_seed": 11, **payload}
            )
            served.update_calibration(**update.mutation_kwargs())
            assert device_fingerprint(served) == device_fingerprint(reference)
            assert [event.model for event in events] == ["ou", "tls"]

    def test_payload_is_absolute_and_idempotent(self):
        spec = TopologySpec.parse("linear:4")
        shadow = shadow_device(make_device(spec, seed=11))
        payload, _ = drift_calibration_payload(
            shadow, [parse_drift_model("ou")], epoch=0, drift_seed=7
        )
        served = make_device(spec, seed=11)
        update = CalibrationUpdate.from_dict(payload)
        served.update_calibration(**update.mutation_kwargs())
        once = device_fingerprint(served)
        served.update_calibration(**update.mutation_kwargs())  # replay
        assert device_fingerprint(served) == once

    def test_shadow_device_is_detached(self):
        spec = TopologySpec.parse("linear:4")
        original = make_device(spec, seed=11)
        before = device_fingerprint(original)
        shadow = shadow_device(original)
        apply_drift(shadow, [parse_drift_model("ou")], epoch=0, drift_seed=7)
        assert device_fingerprint(original) == before
        assert device_fingerprint(shadow) != before

    def test_state_payload_parses_as_calibration_update(self):
        spec = TopologySpec.parse("grid:3x3")
        payload = calibration_state_payload(make_device(spec, seed=11))
        update = CalibrationUpdate.from_dict(
            {"topology": "grid:3x3", "device_seed": 11, **payload}
        )
        kwargs = update.mutation_kwargs()
        assert set(kwargs) == {
            "frequencies",
            "coherence_time_us",
            "deviation_scales",
            "static_zz",
        }


# -- integration: a live 2-shard cluster --------------------------------------


CLUSTER_TOPOLOGY = "linear:4"
#: Per-test device seeds, disjoint so tests cannot interfere through shared
#: shard-side device state.
ROUTING_SEEDS = (11, 12, 13, 14)
OVERLOAD_SEED = 31
COHERENCE_SEED = 41
CRASH_SEED = 51
FIFO_SEED = 61
LANE_SEED = 62
PROGRAM_SEED = 71


def _spec(seeds, circuits=("ghz_3", "bv_3"), repeats=1, concurrency=8):
    return LoadSpec(
        circuits=tuple(circuits),
        topology=CLUSTER_TOPOLOGY,
        device_seeds=tuple(seeds),
        strategies=("criterion2",),
        repeats=repeats,
        concurrency=concurrency,
    )


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One live 2-shard cluster on a background event loop.

    ``cluster.call(coro)`` runs a coroutine on the cluster's loop from test
    code; the loop outlives individual tests so the (expensive) shard
    processes spawn once for the whole module.
    """
    store = tmp_path_factory.mktemp("cluster-store")
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coro, timeout=300.0):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)

    frontend = ClusterFrontend(
        ClusterConfig(
            shards=2,
            store_dir=str(store),
            batch_window_ms=1.0,
            max_pending_per_shard=16,
            restart_backoff_s=0.05,
        ),
        port=0,
    )
    call(frontend.start())
    host, port = frontend.address
    yield SimpleNamespace(
        frontend=frontend, call=call, host=host, port=port, store=store
    )
    call(frontend.stop())
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    loop.close()


async def _wait_ring_whole(frontend, timeout=30.0):
    """Block until no shard is marked down (post-crash recovery)."""
    deadline = time.monotonic() + timeout
    while frontend._down:
        if time.monotonic() > deadline:
            raise AssertionError(f"shards still down: {sorted(frontend._down)}")
        await asyncio.sleep(0.05)


class TestClusterRouting:
    def test_traffic_spreads_and_annotates_shards(self, cluster):
        spec = _spec(ROUTING_SEEDS, repeats=2)
        phase = cluster.call(
            run_phase_wire(
                cluster.host,
                cluster.port,
                spec.requests(),
                spec.concurrency,
                name="routing",
                shed_retries=10,
                collect_responses=True,
            )
        )
        assert phase["errors"] == 0
        assert phase["requests"] == len(spec.requests())
        shards_seen = {r["cluster"]["shard"] for r in phase["responses"]}
        assert shards_seen == {"shard-0", "shard-1"}  # 4 devices spread out
        # Stickiness: every request for one device landed on one shard.
        by_device = {}
        for response in phase["responses"]:
            seed = response["request"]["device_seed"]
            by_device.setdefault(seed, set()).add(response["cluster"]["shard"])
        assert all(len(shards) == 1 for shards in by_device.values())

    def test_same_protocol_ops_as_single_service(self, cluster):
        async def scenario():
            async with ServiceClient(cluster.host, cluster.port) as client:
                pong = await client.request({"op": "ping"})
                metrics = await client.metrics()
                bad = await client.request({"op": "nonsense"})
                malformed = await client.request({"op": "compile", "circuit": 7})
                return pong, metrics, bad, malformed

        pong, metrics, bad, malformed = cluster.call(scenario())
        assert pong == {"ok": True, "result": "pong"}
        assert set(metrics["ring"]["shards"]) == {"shard-0", "shard-1"}
        assert metrics["aggregate"]["requests_ok"] >= 0
        assert not bad["ok"] and "unknown op" in bad["error"]
        assert not malformed["ok"]  # shard-side validation passes through

    def test_oversize_line_is_answered_then_closed(self, cluster):
        """The front end answers a line over the 64 KiB stream limit with
        ``ok: false`` and closes only that connection, with a clean EOF
        rather than a reset."""

        async def scenario():
            reader, writer = await asyncio.open_connection(
                cluster.host, cluster.port
            )
            writer.write(b'{"op": "ping", "pad": "' + b"x" * 1_000_000 + b'"}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            rest = await reader.read()  # a reset here would raise
            writer.close()
            async with ServiceClient(cluster.host, cluster.port) as client:
                pong = await client.request({"op": "ping"})
            return answer, rest, pong

        answer, rest, pong = cluster.call(scenario())
        assert answer["ok"] is False and "64 KiB" in answer["error"]
        assert rest == b""
        assert pong == {"ok": True, "result": "pong"}

    def test_tenant_tag_is_validated_and_stripped(self, cluster):
        async def scenario():
            async with ServiceClient(cluster.host, cluster.port) as client:
                rejected = await client.request(
                    {"op": "compile", "circuit": "ghz_3", "tenant": 7}
                )
                accepted = await client.request(
                    {
                        "op": "compile",
                        "circuit": "ghz_3",
                        "topology": CLUSTER_TOPOLOGY,
                        "device_seed": ROUTING_SEEDS[0],
                        "strategies": ["criterion2"],
                        "tenant": "team-a",
                    }
                )
                return rejected, accepted

        rejected, accepted = cluster.call(scenario())
        assert not rejected["ok"] and "tenant" in rejected["error"]
        assert accepted["ok"]
        assert accepted["result"]["cluster"]["tenant"] == "team-a"


class TestClusterThroughput:
    def test_warm_cluster_beats_single_process_by_floor(self, cluster, tmp_path):
        """The headline acceptance: warm 2-shard cluster vs single process.

        The floor is CPU-aware (see :func:`speedup_floor`): 1.6x on >= 2
        CPUs, a sanity floor when the shards share one core.
        """
        spec = _spec(ROUTING_SEEDS, repeats=1)
        one_pass = spec.requests()

        async def single_warm_rps():
            config = ServiceConfig(cache_dir=str(tmp_path), batch_window_ms=1.0)
            server = ServiceServer(CompilationService(config), port=0)
            await server.start()
            host, port = server.address
            try:
                await run_phase_wire(host, port, one_pass, spec.concurrency)
                phase = await run_phase_wire(
                    host, port, one_pass * 8, spec.concurrency, name="single"
                )
            finally:
                await server.stop()
            return phase["throughput_rps"]

        async def cluster_warm_rps():
            await run_phase_wire(  # warm every shard's hot cache first
                cluster.host, cluster.port, one_pass, spec.concurrency,
                shed_retries=10,
            )
            phase = await run_phase_wire(
                cluster.host,
                cluster.port,
                one_pass * 8,
                spec.concurrency,
                name="cluster",
                shed_retries=10,
            )
            assert phase["errors"] == 0
            return phase["throughput_rps"]

        single_rps = cluster.call(single_warm_rps())
        cluster_rps = cluster.call(cluster_warm_rps())
        floor = speedup_floor()
        assert single_rps > 0
        assert cluster_rps / single_rps >= floor, (
            f"cluster {cluster_rps:.0f} rps vs single {single_rps:.0f} rps "
            f"is below the {floor}x floor on {cpu_count()} cpu(s)"
        )

    def test_overload_sheds_with_retry_after_and_drops_nothing(self, cluster):
        # One device so the whole flood lands on one shard's bounded queue.
        spec = _spec((OVERLOAD_SEED,), circuits=("ghz_3",), repeats=48,
                     concurrency=32)
        requests = spec.requests()

        async def raw_shed_probe():
            """Fire without shed retries: refusals must carry retry advice."""
            phase = await run_phase_wire(
                cluster.host, cluster.port, requests, spec.concurrency,
                name="flood",
            )
            return phase

        async def patient_client():
            """Honour retry_after_ms: every request must eventually land."""
            phase = await run_phase_wire(
                cluster.host, cluster.port, requests, spec.concurrency,
                name="patient", shed_retries=100,
            )
            return phase

        flood = cluster.call(raw_shed_probe())
        # The flood is 32 connections against a queue bound of 16: some
        # requests *must* be refused, and a refusal is an explicit shed
        # (errors == sheds exhausted, never a crash or a hang).
        assert flood["sheds"] > 0
        assert flood["errors"] == flood["sheds"]
        assert flood["requests"] + flood["errors"] == len(requests)

        patient = cluster.call(patient_client())
        assert patient["errors"] == 0  # zero dropped once the client waits
        assert patient["requests"] == len(requests)

        # The shed envelope itself advertises machine-readable retry advice.
        # A burst of concurrent submissions well past the queue bound (16)
        # plus the in-flight window must refuse deterministically.
        async def shed_envelopes():
            envelopes = await asyncio.gather(
                *(
                    cluster.frontend.submit_compile(request.to_dict())
                    for request in requests[:40]
                )
            )
            return [e for e in envelopes if e.get("shed")]

        sheds = cluster.call(shed_envelopes())
        assert sheds, "pipelined burst past the bound must shed"
        for envelope in sheds:
            assert envelope["ok"] is False
            assert envelope["retry_after_ms"] >= 10.0


class TestClusterCoherence:
    def test_no_stale_fingerprint_after_calibrate_ack(self, cluster):
        """After the calibrate ack, every response must be post-drift."""
        spec = TopologySpec.parse(CLUSTER_TOPOLOGY)
        shadow = shadow_device(make_device(spec, seed=COHERENCE_SEED))
        pre = device_fingerprint(shadow)
        payload, _ = drift_calibration_payload(
            shadow, [parse_drift_model("ou:sigma_ghz=0.05")], epoch=0, drift_seed=5
        )
        post = device_fingerprint(shadow)
        assert post != pre
        load = _spec((COHERENCE_SEED,), circuits=("ghz_3",), repeats=8,
                     concurrency=4)

        async def scenario():
            # Warm the device on its shard with the pre-drift calibration.
            before = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=10, collect_responses=True,
            )
            assert before["errors"] == 0
            assert {r["fingerprint"] for r in before["responses"]} == {pre}

            # Apply the drift while load is in flight (exercises the
            # quiesce gate), then ack.
            during_task = asyncio.create_task(
                run_phase_wire(
                    cluster.host, cluster.port, load.requests(),
                    load.concurrency, shed_retries=10, collect_responses=True,
                )
            )
            await asyncio.sleep(0.005)
            async with ServiceClient(cluster.host, cluster.port) as client:
                report = await client.calibrate(
                    topology=CLUSTER_TOPOLOGY,
                    device_seed=COHERENCE_SEED,
                    **payload,
                )
            during = await during_task

            # Post-ack: the stale fingerprint must never appear again.
            after = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=10, collect_responses=True,
            )
            return report, during, after

        report, during, after = cluster.call(scenario())
        assert report["coherent"] is True
        assert set(report["shards"]) == {"shard-0", "shard-1"}
        # In-flight traffic may see either state, but nothing else.
        assert {r["fingerprint"] for r in during["responses"]} <= {pre, post}
        assert after["errors"] == 0
        stale = [r for r in after["responses"] if r["fingerprint"] != post]
        assert stale == [], f"{len(stale)} post-ack responses served stale targets"

    def test_no_stale_program_after_calibrate_and_shard_restart(self, cluster):
        """The program-cache staleness criterion, cluster edition: once the
        calibrate is acked, no response -- cache-served or compiled, before
        or after a SIGKILL/restart over the warm shared store -- may carry
        a program compiled against the pre-drift fingerprint."""
        spec = TopologySpec.parse(CLUSTER_TOPOLOGY)
        shadow = shadow_device(make_device(spec, seed=PROGRAM_SEED))
        pre = device_fingerprint(shadow)
        payload, _ = drift_calibration_payload(
            shadow, [parse_drift_model("ou:sigma_ghz=0.05")], epoch=0, drift_seed=7
        )
        post = device_fingerprint(shadow)
        load = _spec((PROGRAM_SEED,), circuits=("ghz_3",), repeats=6,
                     concurrency=4)

        async def scenario():
            # Warm the program cache with pre-drift repeat traffic.
            warm = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=10, collect_responses=True,
            )
            assert warm["errors"] == 0
            assert {r["fingerprint"] for r in warm["responses"]} == {pre}
            cached = [
                r for r in warm["responses"]
                if r["program_source"].startswith("program-")
            ]
            assert cached, "repeat traffic must exercise the program cache"

            async with ServiceClient(cluster.host, cluster.port) as client:
                report = await client.calibrate(
                    topology=CLUSTER_TOPOLOGY,
                    device_seed=PROGRAM_SEED,
                    **payload,
                )
            assert report["coherent"] is True

            # Post-ack: the warm pre-drift programs must never surface.
            after = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=10, collect_responses=True,
            )
            assert after["errors"] == 0
            assert {r["fingerprint"] for r in after["responses"]} == {post}

            # SIGKILL the owner: failover and the disk-warm restarted shard
            # both sit on a store that still holds pre-drift entries.
            owner = after["responses"][0]["cluster"]["shard"]
            cluster.frontend.lanes[owner].process.proc.send_signal(
                signal.SIGKILL
            )
            during = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=20, collect_responses=True,
            )
            assert during["errors"] == 0
            assert {r["fingerprint"] for r in during["responses"]} == {post}

            await _wait_ring_whole(cluster.frontend)
            final = await run_phase_wire(
                cluster.host, cluster.port, load.requests(), load.concurrency,
                shed_retries=20, collect_responses=True,
            )
            assert final["errors"] == 0
            assert {r["fingerprint"] for r in final["responses"]} == {post}

        cluster.call(scenario())

    def test_calibrate_validation_errors_are_readable(self, cluster):
        async def scenario():
            async with ServiceClient(cluster.host, cluster.port) as client:
                empty = await client.request(
                    {"op": "calibrate", "topology": CLUSTER_TOPOLOGY}
                )
                unknown = await client.request(
                    {"op": "calibrate", "frequency_shifts": {"0": 0.01},
                     "bogus_field": 1}
                )
                return empty, unknown

        empty, unknown = cluster.call(scenario())
        assert not empty["ok"] and "no mutations" in empty["error"]
        assert not unknown["ok"] and "bogus_field" in unknown["error"]


class TestClusterResilience:
    def test_shard_crash_fails_over_then_restarts_with_replay(self, cluster):
        """SIGKILL one shard: traffic keeps flowing, and the restarted shard
        rejoins with replayed calibration state (no stale fingerprints)."""
        spec = TopologySpec.parse(CLUSTER_TOPOLOGY)
        shadow = shadow_device(make_device(spec, seed=CRASH_SEED))
        payload, _ = drift_calibration_payload(
            shadow, [parse_drift_model("ou:sigma_ghz=0.05")], epoch=0, drift_seed=9
        )
        post = device_fingerprint(shadow)
        load = _spec((CRASH_SEED,), circuits=("ghz_3",), repeats=6, concurrency=4)

        async def scenario():
            async with ServiceClient(cluster.host, cluster.port, retries=3) as client:
                await client.calibrate(
                    topology=CLUSTER_TOPOLOGY, device_seed=CRASH_SEED, **payload
                )
                first = await client.compile(
                    circuit="ghz_3",
                    topology=CLUSTER_TOPOLOGY,
                    device_seed=CRASH_SEED,
                    strategies=["criterion2"],
                )
                owner = first["cluster"]["shard"]
                assert first["fingerprint"] == post

                restarts_before = cluster.frontend.metrics.restarts.get(owner, 0)
                cluster.frontend.lanes[owner].process.proc.send_signal(
                    signal.SIGKILL
                )
                # Immediately keep requesting: failover must serve every one.
                phase = await run_phase_wire(
                    cluster.host, cluster.port, load.requests(),
                    load.concurrency, shed_retries=20, collect_responses=True,
                )
                assert phase["errors"] == 0
                assert {r["fingerprint"] for r in phase["responses"]} == {post}

                await _wait_ring_whole(cluster.frontend)
                assert cluster.frontend.metrics.restarts[owner] == restarts_before + 1

                # The restarted shard serves the device's *replayed*
                # calibration state, never the fabrication-time one.
                after = await run_phase_wire(
                    cluster.host, cluster.port, load.requests(),
                    load.concurrency, shed_retries=20, collect_responses=True,
                )
                assert after["errors"] == 0
                assert {r["fingerprint"] for r in after["responses"]} == {post}

        cluster.call(scenario())

    def test_warm_store_survives_cluster_restart(self, cluster, tmp_path):
        """A brand-new cluster over the same store serves from disk."""
        spec = _spec(ROUTING_SEEDS, repeats=1)

        async def scenario():
            # Warm the shared store through the live cluster first, so the
            # test holds regardless of which other tests ran before it.
            warm = await run_phase_wire(
                cluster.host, cluster.port, spec.requests(), spec.concurrency,
                shed_retries=10,
            )
            assert warm["errors"] == 0
            fresh = ClusterFrontend(
                ClusterConfig(
                    shards=2,
                    store_dir=str(cluster.store),
                    batch_window_ms=1.0,
                ),
                port=0,
            )
            await fresh.start()
            try:
                host, port = fresh.address
                phase = await run_phase_wire(
                    host, port, spec.requests(), spec.concurrency,
                    shed_retries=10,
                )
                snapshot = await fresh.metrics_snapshot()
            finally:
                await fresh.stop()
            return phase, snapshot

        phase, snapshot = cluster.call(scenario())
        assert phase["errors"] == 0
        cache = snapshot["aggregate"]["cache"]
        assert cache["misses"] == 0, "warm store must serve without rebuilding"
        # The shared *program* store answers the repeat traffic outright --
        # the fresh shards never even rebuild targets from the target store.
        programs = snapshot["aggregate"]["programs"]
        assert programs["disk_hits"] >= len(ROUTING_SEEDS)

    def test_graceful_stop_drains_accepted_work(self, cluster):
        """stop() resolves every accepted request -- zero dropped."""

        async def scenario():
            frontend = ClusterFrontend(
                ClusterConfig(shards=1, batch_window_ms=20.0), port=0
            )
            await frontend.start()
            request = CompileRequest(
                circuit="ghz_3",
                topology=CLUSTER_TOPOLOGY,
                device_seed=ROUTING_SEEDS[0],
                strategies=("criterion2",),
            )
            tasks = [
                asyncio.create_task(
                    frontend.submit_compile(request.to_dict())
                )
                for _ in range(8)
            ]
            await asyncio.sleep(0.01)  # accepted, still queued/coalescing
            snapshot = await frontend.stop()
            envelopes = await asyncio.gather(*tasks)
            return snapshot, envelopes

        snapshot, envelopes = cluster.call(scenario())
        assert all(envelope["ok"] for envelope in envelopes)
        assert snapshot["requests"]["failed"] == 0


class TestFailoverOrdering:
    """Regression: failover re-dispatch must preserve per-tenant FIFO.

    The pre-fix ``_mark_down`` drained a dead shard's backlog in arrival
    order but re-queued each item with ``FairQueue.force(front=True)``,
    reversing every tenant's order on the sibling shard."""

    def test_mark_down_preserves_per_tenant_fifo(self):
        from repro.cluster.frontend import _ClusterItem

        async def scenario():
            frontend = ClusterFrontend(ClusterConfig(shards=2))
            route = device_route_key(CLUSTER_TOPOLOGY, FIFO_SEED, 80.0, 20.0)
            owner = frontend.ring.lookup(route)
            (sibling,) = [name for name in frontend.ring.shards if name != owner]
            loop = asyncio.get_running_loop()
            for tenant, label in (
                ("a", "a1"), ("a", "a2"), ("a", "a3"), ("b", "b1"), ("b", "b2"),
            ):
                item = _ClusterItem({"label": label}, tenant, route, loop.create_future())
                assert frontend.lanes[owner].queue.offer(tenant, item)
            frontend._mark_down(frontend.lanes[owner])
            assert frontend.lanes[owner].queue.depth == 0
            per_tenant: dict[str, list[str]] = {}
            for tenant, item in frontend.lanes[sibling].queue.drain():
                per_tenant.setdefault(tenant, []).append(item.message["label"])
            return per_tenant

        per_tenant = run(scenario())
        assert per_tenant == {"a": ["a1", "a2", "a3"], "b": ["b1", "b2"]}

    def test_sigkill_failover_keeps_per_tenant_fifo(self):
        """End to end: SIGKILL the owner shard under a two-tenant backlog;
        the drained work must complete in per-tenant submission order on the
        sibling (one connection per shard makes completion order equal
        dispatch order)."""

        async def scenario():
            frontend = ClusterFrontend(
                ClusterConfig(
                    shards=2,
                    batch_window_ms=25.0,
                    connections_per_shard=1,
                    restart_backoff_s=0.05,
                ),
                port=0,
            )
            await frontend.start()
            try:
                route = device_route_key(CLUSTER_TOPOLOGY, FIFO_SEED, 80.0, 20.0)
                owner = frontend.ring.lookup(route)
                completion: list[tuple[str, int]] = []
                tagged: list[tuple[tuple[str, int], asyncio.Task]] = []
                for index in range(4):
                    for tenant in ("a", "b"):
                        message = {
                            "circuit": "ghz_3",
                            "topology": CLUSTER_TOPOLOGY,
                            "device_seed": FIFO_SEED,
                            "strategies": ["criterion2"],
                            "tenant": tenant,
                        }
                        tag = (tenant, index)
                        task = asyncio.create_task(frontend.submit_compile(message))
                        task.add_done_callback(
                            lambda _t, tag=tag: completion.append(tag)
                        )
                        tagged.append((tag, task))
                await asyncio.sleep(0.01)  # enqueued; at most one in flight
                frontend.lanes[owner].process.proc.send_signal(signal.SIGKILL)
                envelopes = await asyncio.gather(*(task for _tag, task in tagged))
                assert all(envelope["ok"] for envelope in envelopes)
                # The at-most-one in-flight victim legitimately retries to
                # the front (attempts == 2); everything drained from the dead
                # shard's queue (attempts == 1) must complete in per-tenant
                # submission order.
                attempts = {
                    tag: task.result()["result"]["cluster"]["attempts"]
                    for tag, task in tagged
                }
                ordered: dict[str, list[int]] = {}
                for tenant, index in completion:
                    if attempts[(tenant, index)] == 1:
                        ordered.setdefault(tenant, []).append(index)
                return ordered
            finally:
                await frontend.stop()

        ordered = run(scenario())
        for tenant, indexes in ordered.items():
            assert indexes == sorted(indexes), (
                f"tenant {tenant!r} completed out of submission order: {indexes}"
            )
        assert sum(len(indexes) for indexes in ordered.values()) >= 6


class TestLaneWorkerResilience:
    """Regression: a non-connection dispatch error must not kill the lane
    worker.  Pre-fix, any exception outside ``_CONNECTION_ERRORS`` escaped
    the worker coroutine -- one connection of dispatch capacity gone and the
    request's future stranded, hanging the client forever."""

    def test_lane_worker_survives_unexpected_errors(self, cluster, monkeypatch):
        original = ServiceClient.request
        state = {"poisoned": True}

        async def flaky(self, payload):
            if payload.get("op") == "compile" and state["poisoned"]:
                state["poisoned"] = False
                raise KeyError("malformed shard envelope")
            return await original(self, payload)

        monkeypatch.setattr(ServiceClient, "request", flaky)
        message = {
            "circuit": "ghz_3",
            "topology": CLUSTER_TOPOLOGY,
            "device_seed": LANE_SEED,
            "strategies": ["criterion2"],
        }

        async def scenario():
            frontend = cluster.frontend
            errors_before = frontend.metrics.lane_errors
            # Pre-fix this future is never resolved: the wait_for times out.
            poisoned = await asyncio.wait_for(
                frontend.submit_compile(dict(message)), timeout=30.0
            )
            assert poisoned["ok"] is False
            assert "failed" in poisoned["error"]
            assert "malformed shard envelope" in poisoned["error"]
            # The worker lived on: the same route keeps full capacity.
            healthy = await asyncio.wait_for(
                frontend.submit_compile(dict(message)), timeout=60.0
            )
            assert healthy["ok"] is True
            assert frontend.metrics.lane_errors == errors_before + 1
            return True

        assert cluster.call(scenario())


class TestClusterCli:
    def test_load_command_end_to_end(self, tmp_path, capsys):
        output = tmp_path / "cluster_load.json"
        document = cluster_main(
            [
                "load",
                "--shards",
                "2",
                "--store-dir",
                str(tmp_path / "store"),
                "--circuits",
                "ghz_3",
                "--device-seeds",
                "11",
                "12",
                "--strategies",
                "criterion2",
                "--repeats",
                "2",
                "--concurrency",
                "4",
                "--tenants",
                "a",
                "b",
                "--output",
                str(output),
            ]
        )
        assert document["load"]["errors"] == 0
        assert document["load"]["requests"] == 4
        cluster_doc = document["cluster"]
        assert set(cluster_doc["ring"]["shards"]) == {"shard-0", "shard-1"}
        on_disk = json.loads(output.read_text())
        assert on_disk["load"]["requests"] == 4
        assert "requests" in capsys.readouterr().out  # JSON printed to stdout

    def test_bad_arguments_exit_2_with_readable_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cluster_main(["load", "--circuits", "not_a_circuit"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "error:" in message and "not_a_circuit" in message

    def test_shard_subcommand_parses(self):
        from repro.cluster.__main__ import build_parser

        args = build_parser().parse_args(
            ["shard", "--name", "s0", "--store-dir", "/tmp/x"]
        )
        assert args.command == "shard" and args.name == "s0"
        assert args.port == 0  # ephemeral by default
