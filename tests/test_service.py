"""Tests for the compilation service: caches, batching, wire, CLIs.

Covers the PR acceptance criterion directly: warm-cache service throughput
must beat cold-cache throughput by at least 5x on the bench workload
(``TestColdWarm.test_warm_throughput_at_least_5x_cold``).
"""

import asyncio
import json

import pytest

from repro.compiler import transpile
from repro.compiler.pipeline.dispatch import BatchDispatcher, DispatchContext
from repro.compiler.pipeline.target import build_target
from repro.device import Device, DeviceParameters
from repro.fleet import TARGET_CODEC, TopologySpec, get_target
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.sweep import build_circuit
from repro.service import (
    CalibrationUpdate,
    CompilationService,
    CompileRequest,
    LoadSpec,
    RequestError,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    run_phase_inprocess,
)
from repro.service.__main__ import main as service_main
from repro.store import ContentStore


def run(coro):
    """Run one coroutine on a fresh event loop."""
    return asyncio.run(coro)


def make_device(seed=11, topology="linear:4"):
    spec = TopologySpec.parse(topology)
    return Device(graph=spec.graph(), params=DeviceParameters(seed=seed))


class TestTargetHotCache:
    def test_layering_memory_disk_build(self, tmp_path):
        cache = ContentStore(TARGET_CODEC, 4, tmp_path)
        device = make_device()
        target, source = get_target(cache, device, "criterion2")
        assert source == "built"
        again, source = get_target(cache, device, "criterion2")
        assert source == "memory"
        assert again is target
        # A fresh store over the same directory hits disk, then memory.
        resumed = ContentStore(TARGET_CODEC, 4, tmp_path)
        _, source = get_target(resumed, device, "criterion2")
        assert source == "disk"
        _, source = get_target(resumed, device, "criterion2")
        assert source == "memory"
        assert resumed.stats.disk_hits == 1 and resumed.stats.memory_hits == 1

    def test_eviction_respects_capacity_and_disk_backstop(self, tmp_path):
        cache = ContentStore(TARGET_CODEC, 1, tmp_path)
        device = make_device()
        get_target(cache, device, "baseline")
        get_target(cache, device, "criterion2")  # evicts baseline from memory
        assert len(cache) == 1
        _, source = get_target(cache, device, "baseline")
        assert source == "disk"  # not rebuilt: the disk layer caught it

    def test_memory_only_mode_rebuilds_after_eviction(self):
        cache = ContentStore(TARGET_CODEC, 1)
        device = make_device()
        get_target(cache, device, "baseline")
        get_target(cache, device, "criterion2")
        _, source = get_target(cache, device, "baseline")
        assert source == "built"
        assert cache.stats.misses == 3
        assert cache.entries() == [] and cache.as_dict()["disk_entries"] == 0

    def test_distinct_devices_get_distinct_entries(self, tmp_path):
        cache = ContentStore(TARGET_CODEC, 8, tmp_path)
        a, _ = get_target(cache, make_device(seed=11), "criterion2")
        b, _ = get_target(cache, make_device(seed=12), "criterion2")
        assert a is not b
        assert cache.stats.misses == 2

    def test_served_targets_have_cost_models_attached(self, tmp_path):
        cache = ContentStore(TARGET_CODEC, 4, tmp_path)
        device = make_device()
        target, _ = get_target(cache, device, "criterion2")
        assert target.cost_model().strategy == "criterion2"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ContentStore(TARGET_CODEC, 0)


class TestCompileRequest:
    def test_defaults_and_batch_key(self):
        request = CompileRequest(circuit="ghz_3", topology="linear:4")
        assert request.strategies == ("criterion2",)
        assert request.batch_key[0] == request.device_key

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"circuit": "nope_3"}, "unknown circuit"),
            ({"circuit": "ghz_99", "topology": "linear:4"}, "needs 99 qubits"),
            ({"circuit": "ghz_3", "topology": "ring:4"}, "cannot parse topology"),
            (
                {"circuit": "ghz_3", "topology": "linear:4", "mapping": "psychic"},
                "unknown mapping",
            ),
            (
                {
                    "circuit": "ghz_3",
                    "topology": "linear:4",
                    "strategies": ["criterion9"],
                },
                "unknown strategy",
            ),
            (
                {
                    "circuit": "ghz_3",
                    "topology": "linear:4",
                    "strategies": ["baseline", "baseline"],
                },
                "duplicate strategies",
            ),
            ({"circuit": "ghz_3", "coherence_us": -1.0}, "must be positive"),
        ],
    )
    def test_invalid_requests_raise_readable_errors(self, fields, message):
        with pytest.raises(RequestError, match=message):
            CompileRequest(**{"topology": "grid:3x3", **fields})

    def test_from_dict_rejects_unknown_fields_and_bad_types(self):
        with pytest.raises(RequestError, match="unknown request field"):
            CompileRequest.from_dict({"circuit": "ghz_3", "stategy": "x"})
        with pytest.raises(RequestError, match="missing required field"):
            CompileRequest.from_dict({})
        with pytest.raises(RequestError, match="must be an integer"):
            CompileRequest.from_dict({"circuit": "ghz_3", "seed": "17"})
        with pytest.raises(RequestError, match="must be a list"):
            CompileRequest.from_dict({"circuit": "ghz_3", "strategies": 7})

    def test_round_trip(self):
        request = CompileRequest(
            circuit="bv_3", topology="linear:4", strategies=("baseline", "criterion2")
        )
        assert CompileRequest.from_dict(request.to_dict()) == request


class TestCalibrationUpdate:
    def test_parses_wire_form(self):
        update = CalibrationUpdate.from_dict(
            {
                "topology": "linear:4",
                "device_seed": 11,
                "frequency_shifts": {"0": 0.02, "1": -0.01},
                "set_coherence_us": 72.0,
                "static_zz": {"1-0": 0.001},
            }
        )
        assert update.device_key == ("linear:4", 11, 80.0, 20.0)
        kwargs = update.mutation_kwargs()
        assert kwargs["frequency_shifts"] == {0: 0.02, 1: -0.01}
        assert kwargs["coherence_time_us"] == 72.0
        assert kwargs["static_zz"] == {(0, 1): 0.001}  # edge key sorted

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"topology": "ring:4"}, "cannot parse topology"),
            ({"frequency_shifts": {"zero": 0.1}}, "not a qubit label"),
            ({"frequency_shifts": {"0": "fast"}}, "must be a number"),
            ({"static_zz": {"0:1": 0.1}}, "cannot parse edge"),
            ({"static_zz": {"0-1": 0.1, "1-0": 0.2}}, "duplicate edges"),
            ({"frequency_shifts": {"--1": 0.1}}, "not a qubit label"),
            ({"frequency_shifts": {"0": 0.1, "00": 0.2}}, "duplicate qubit"),
            ({"static_zz": 7}, "must map"),
            ({"set_coherence_us": -2.0}, "must be positive"),
            ({"frequency_shifts": {"0": 0.1}, "typo": 1}, "unknown calibration field"),
            ({}, "carries no mutations"),
        ],
    )
    def test_invalid_updates_raise_readable_errors(self, fields, message):
        with pytest.raises(RequestError, match=message):
            CalibrationUpdate.from_dict({"topology": "linear:4", **fields})

    def test_service_calibrate_rotates_caches_and_rebuilds(self, tmp_path):
        """The calibration-update op end to end: warm traffic, drift, the
        old hot entry is evicted, the next compile rebuilds against the
        drifted device and produces a different answer."""

        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                fields = {"circuit": "ghz_3", "topology": "linear:4",
                          "strategies": ["criterion2"]}
                first = await service.compile(dict(fields))
                warm = await service.compile(dict(fields))
                # The repeat is served whole from the program cache now;
                # it never touches the target layer.
                assert warm.program_source == "program-mem"
                assert warm.results == first.results
                key = ("linear:4", 11, 80.0, 20.0)
                old_device, _ = service._devices[key]
                report = await service.calibrate(
                    {
                        "topology": "linear:4",
                        "frequency_shifts": {"0": 0.05},
                        "set_coherence_us": 70.0,
                    }
                )
                # a drifted *copy* is swapped in: batches in flight keep a
                # consistent pre-drift device (constants included)
                new_device, _ = service._devices[key]
                assert new_device is not old_device
                assert old_device.calibration_epoch == 0
                assert old_device.params.coherence_time_us == 80.0
                assert new_device.params.coherence_time_us == 70.0
                after = await service.compile(dict(fields))
                snapshot = service.metrics_snapshot()
                return first, report, after, snapshot

        first, report, after, snapshot = run(go())
        assert report["old_fingerprint"] != report["new_fingerprint"]
        assert report["hot_entries_evicted"] == 1
        assert report["program_entries_evicted"] == 1
        assert report["calibration_epoch"] == 1
        # the rebuilt target reflects the drifted device; no cached program
        # can match the new fingerprint
        assert after.program_source == "compiled"
        assert after.target_sources == {"criterion2": "built"}
        assert (
            after.results["criterion2"]["fidelity"]
            != first.results["criterion2"]["fidelity"]
        )
        assert snapshot["requests"]["calibrations"] == 1

    def test_repeated_calibrates_compound(self):
        """Each update applies on top of the previous drifted copy -- an
        update must never be lost by re-reading the pre-drift base."""

        async def go():
            async with CompilationService() as service:
                first = await service.calibrate(
                    {"topology": "linear:4", "frequency_shifts": {"0": 0.05}}
                )
                second = await service.calibrate(
                    {"topology": "linear:4", "frequency_shifts": {"0": 0.05}}
                )
                device, _ = service._devices[("linear:4", 11, 80.0, 20.0)]
                return first, second, device

        first, second, device = run(go())
        assert second["old_fingerprint"] == first["new_fingerprint"]
        assert second["calibration_epoch"] == 2
        base = make_device(topology="linear:4")
        assert device.frequencies[0] == pytest.approx(base.frequencies[0] + 0.10)

    def test_calibrate_unknown_device_seeds_future_traffic(self):
        """Calibrating a device the service has not seen yet still applies:
        the device is built, drifted, and used for subsequent requests."""

        async def go():
            async with CompilationService() as service:
                report = await service.calibrate(
                    {"topology": "linear:4", "frequency_shifts": {"0": 0.05}}
                )
                response = await service.compile(
                    {"circuit": "ghz_3", "topology": "linear:4"}
                )
                return report, response

        report, response = run(go())
        assert report["hot_entries_evicted"] == 0
        assert report["calibration_epoch"] == 1
        assert response.target_sources == {"criterion2": "built"}

    def test_calibrate_rejects_bad_mutations_readably(self):
        async def go():
            async with CompilationService() as service:
                with pytest.raises(RequestError, match="unknown qubit label"):
                    await service.calibrate(
                        {"topology": "linear:4", "frequency_shifts": {"99": 0.1}}
                    )
                with pytest.raises(RequestError, match="no mutations"):
                    await service.calibrate({"topology": "linear:4"})
                return service.metrics_snapshot()

        snapshot = run(go())
        assert snapshot["requests"]["calibrations"] == 0
        # rejected calibration traffic is visible, like rejected compiles
        assert snapshot["requests"]["failed"] == 2


class TestServiceCompile:
    def test_results_match_single_circuit_transpile(self, tmp_path):
        """The service path is the one-shot pipeline, byte for byte."""

        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                return await service.compile(
                    {
                        "circuit": "ghz_3",
                        "topology": "linear:4",
                        "device_seed": 11,
                        "strategies": ["baseline", "criterion2"],
                    }
                )

        response = run(go())
        device = make_device(seed=11)
        for strategy in ("baseline", "criterion2"):
            direct = transpile(build_circuit("ghz_3"), device, strategy=strategy)
            got = response.results[strategy]
            assert got["fidelity"] == pytest.approx(float(direct.fidelity), abs=0)
            assert got["duration_ns"] == float(direct.total_duration)
            assert got["swap_count"] == int(direct.swap_count)

    def test_burst_coalesces_into_one_batch(self):
        async def go():
            config = ServiceConfig(batch_window_ms=50.0, max_batch=8)
            async with CompilationService(config) as service:
                # Warm the target first so the burst isn't serialized by builds.
                await service.compile({"circuit": "ghz_3", "topology": "linear:4"})
                return await asyncio.gather(
                    *(
                        service.compile({"circuit": name, "topology": "linear:4"})
                        for name in ("ghz_3", "bv_3", "qft_3", "ghz_4")
                    )
                )

        responses = run(go())
        # The repeated ghz_3 never reaches the batcher -- the program-cache
        # fast path answers it -- while the three fresh circuits coalesce
        # into one batch and compile against the hot target.
        assert responses[0].program_source == "program-mem"
        assert responses[0].batch_size == 1
        assert [r.batch_size for r in responses[1:]] == [3, 3, 3]
        assert all(r.program_source == "compiled" for r in responses[1:])
        assert all(
            r.target_sources == {"criterion2": "memory"} for r in responses[1:]
        )

    def test_different_batch_keys_do_not_mix(self):
        async def go():
            config = ServiceConfig(batch_window_ms=50.0)
            async with CompilationService(config) as service:
                return await asyncio.gather(
                    service.compile({"circuit": "ghz_3", "topology": "linear:4"}),
                    service.compile(
                        {"circuit": "ghz_3", "topology": "linear:4", "seed": 23}
                    ),
                )

        responses = run(go())
        assert [r.batch_size for r in responses] == [1, 1]

    def test_malformed_request_counts_failure_and_raises(self):
        async def go():
            async with CompilationService() as service:
                with pytest.raises(RequestError, match="unknown circuit"):
                    await service.compile({"circuit": "nope_1"})
                return service.metrics_snapshot()

        snapshot = run(go())
        assert snapshot["requests"]["failed"] == 1
        assert snapshot["requests"]["ok"] == 0

    def test_compile_after_stop_raises(self):
        async def go():
            service = CompilationService()
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await service.compile({"circuit": "ghz_3", "topology": "linear:4"})

        run(go())

    def test_metrics_snapshot_schema(self, tmp_path):
        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                await service.compile({"circuit": "ghz_3", "topology": "linear:4"})
                return service.metrics_snapshot()

        snapshot = run(go())
        assert snapshot["requests"]["ok"] == 1
        assert snapshot["batches"]["total"] == 1
        assert snapshot["cache"]["misses"] == 1
        assert snapshot["cache"]["disk_entries"] == 1
        # One schema for both stores.
        assert set(snapshot["cache"]) == set(snapshot["programs"])
        for block in ("queue", "compile", "total"):
            assert set(snapshot["latency_ms"][block]) == {
                "p50",
                "p95",
                "p99",
                "mean",
                "max",
            }
        json.dumps(snapshot)  # the whole document must be JSON-serializable


class TestColdWarm:
    def test_warm_throughput_at_least_5x_cold(self, tmp_path):
        """The acceptance criterion, measured exactly like bench_service.py."""
        spec = LoadSpec(
            circuits=("ghz_3", "bv_3"),
            topology="linear:4",
            device_seeds=(11, 12),
            strategies=("baseline", "criterion2"),
            concurrency=4,
        )
        one_pass = spec.requests()

        async def go():
            config = ServiceConfig(cache_dir=str(tmp_path))
            async with CompilationService(config) as service:
                cold = await run_phase_inprocess(service, one_pass, 4, name="cold")
                warm = await run_phase_inprocess(service, one_pass * 5, 4, name="warm")
                return (
                    cold,
                    warm,
                    service.hot_targets.stats.as_dict(),
                    service.programs.as_dict(),
                )

        cold, warm, cache, programs = run(go())
        assert cold["errors"] == 0 and warm["errors"] == 0
        assert cache["misses"] == 4  # 2 devices x 2 strategies, cold only
        # Warm repeats never reach the target layer any more: the program
        # cache absorbs them whole.
        assert set(warm["program_sources"]) == {"program-mem"}
        assert programs["memory_hits"] == warm["requests"]
        speedup = warm["throughput_rps"] / cold["throughput_rps"]
        assert speedup >= 5.0, (cold, warm)


class TestWire:
    def test_round_trip_metrics_and_shutdown(self):
        async def go():
            service = CompilationService(ServiceConfig())
            server = ServiceServer(service, port=0)
            await server.start()
            host, port = server.address
            async with ServiceClient(host, port) as client:
                assert (await client.request({"op": "ping"}))["result"] == "pong"
                result = await client.compile(circuit="ghz_3", topology="linear:4")
                assert result["results"]["criterion2"]["fidelity"] > 0
                assert (await client.metrics())["requests"]["ok"] == 1
                bad = await client.request({"op": "compile", "circuit": "nope_1"})
                assert not bad["ok"] and "unknown circuit" in bad["error"]
                report = await client.calibrate(
                    topology="linear:4", frequency_shifts={"0": 0.02}
                )
                assert report["old_fingerprint"] != report["new_fingerprint"]
                rejected = await client.request(
                    {"op": "calibrate", "topology": "linear:4"}
                )
                assert not rejected["ok"] and "no mutations" in rejected["error"]
                weird = await client.request({"op": "divine"})
                assert not weird["ok"] and "unknown op" in weird["error"]
                await client.shutdown()
            return await server.serve_until_shutdown()

        metrics = run(go())
        assert metrics["requests"]["ok"] == 1
        # the malformed compile AND the rejected calibrate both count
        assert metrics["requests"]["failed"] == 2
        assert metrics["requests"]["calibrations"] == 1

    def test_invalid_json_line_is_answered_not_fatal(self):
        async def go():
            server = ServiceServer(CompilationService(), port=0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"{not json}\n")
            await writer.drain()
            line = json.loads(await reader.readline())
            assert not line["ok"] and "invalid JSON" in line["error"]
            # The connection survives and still answers well-formed traffic.
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            writer.close()
            await server.stop()

        run(go())

    def test_oversize_line_is_answered_then_closed(self):
        """A line over the 64 KiB stream limit gets a readable ``ok: false``
        (not a traceback and a silent EOF); only that connection closes, and
        it closes with a clean EOF because the server reads the line's tail
        first (closing with it unread would send a reset)."""

        async def go():
            server = ServiceServer(CompilationService(), port=0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "pad": "' + b"x" * 1_000_000 + b'"}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            rest = await reader.read()  # a reset here would raise
            writer.close()
            async with ServiceClient(host, port) as client:
                pong = await client.request({"op": "ping"})
            await server.stop()
            return answer, rest, pong

        answer, rest, pong = run(go())
        assert answer["ok"] is False and "64 KiB" in answer["error"]
        assert rest == b""  # the server closed that connection
        assert pong == {"ok": True, "result": "pong"}


class TestServiceCli:
    def test_load_in_process_reports_metrics(self, tmp_path, capsys):
        output = tmp_path / "load.json"
        document = service_main(
            [
                "load",
                "--circuits",
                "ghz_3",
                "--topology",
                "linear:4",
                "--strategies",
                "criterion2",
                "--repeats",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--output",
                str(output),
            ]
        )
        assert document["load"]["requests"] == 2
        assert document["service"]["cache"]["misses"] == 1
        assert json.loads(output.read_text()) == document
        assert '"throughput_rps"' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["load", "--circuits", "nope_3"], "unknown circuit"),
            (
                ["load", "--circuits", "ghz_99", "--topology", "linear:4"],
                "needs 99 qubits",
            ),
            (
                ["load", "--circuits", "ghz_3", "--mapping", "psychic"],
                "unknown mapping",
            ),
            (
                ["load", "--circuits", "ghz_3", "--connect", "nowhere"],
                "cannot parse --connect",
            ),
            (["load", "--circuits", "ghz_3", "--repeats", "0"], "repeats"),
            # An unreachable server is an OSError, not a parse error; it
            # must still exit 2 with a one-liner, never a traceback.
            (
                ["load", "--circuits", "ghz_3", "--connect", "127.0.0.1:1"],
                "",
            ),
            (["serve", "--max-batch", "0"], "max_batch"),
        ],
    )
    def test_malformed_args_exit_2_with_readable_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            service_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err


class TestFleetCliErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--topology", "ring:4"], "cannot parse topology"),
            (["--circuits", "nope_3"], "unknown circuit"),
            (
                ["--topology", "linear:4", "--circuits", "ghz_99"],
                "need more qubits",
            ),
            (["--strategies", "baseline", "criterion9"], "unknown strategy"),
            (["--mappings", "psychic"], "unknown mapping"),
            (["--baseline", "criterion9"], "baseline_strategy"),
            (["--draws", "0"], "draws must be positive"),
        ],
    )
    def test_malformed_specs_exit_2_with_readable_message(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fleet_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err


class TestDispatcherReuse:
    def test_thread_pool_persists_across_dispatches(self):
        device = make_device()
        targets = {"criterion2": build_target(device, "criterion2")}
        circuits = [build_circuit("ghz_3"), build_circuit("bv_3")]
        with BatchDispatcher(executor="thread", max_workers=2) as dispatcher:
            first = dispatcher.dispatch(
                circuits, DispatchContext(device, targets, key=("a",))
            )
            pool = dispatcher._thread_pool
            assert pool is not None
            second = dispatcher.dispatch(
                circuits, DispatchContext(device, targets, key=("a",))
            )
            assert dispatcher._thread_pool is pool
        for one, two in zip(first, second):
            assert one["criterion2"].fidelity == two["criterion2"].fidelity

    def test_dispatch_after_close_raises(self):
        device = make_device()
        targets = {"criterion2": build_target(device, "criterion2")}
        dispatcher = BatchDispatcher(executor="thread", max_workers=2)
        dispatcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.dispatch(
                [build_circuit("ghz_3")] * 2, DispatchContext(device, targets)
            )

    def test_serial_dispatch_matches_transpile_batch(self):
        from repro.compiler import transpile_batch

        device = make_device()
        circuits = [build_circuit("ghz_3"), build_circuit("qft_3")]
        expected = transpile_batch(circuits, device, ("baseline", "criterion2"))
        targets = {s: build_target(device, s) for s in ("baseline", "criterion2")}
        with BatchDispatcher() as dispatcher:
            got = dispatcher.dispatch(circuits, DispatchContext(device, targets))
        for want, have in zip(expected, got):
            for strategy in want:
                assert want[strategy].fidelity == have[strategy].fidelity
                assert want[strategy].total_duration == have[strategy].total_duration


class TestShutdownAndReconnect:
    """Graceful drain and client reconnect (the cluster's failover substrate)."""

    def test_stop_drains_queued_microbatches(self):
        """stop() must flush coalescing micro-batches -- zero lost requests."""

        async def go():
            # A long window guarantees the requests are still queued (the
            # batch has not fired) when stop() begins.
            service = CompilationService(ServiceConfig(batch_window_ms=200.0))
            await service.start()
            request = CompileRequest(
                circuit="ghz_3", topology="linear:4", strategies=("criterion2",)
            )
            tasks = [
                asyncio.create_task(service.compile(request)) for _ in range(6)
            ]
            await asyncio.sleep(0.02)  # accepted, coalescing window still open
            metrics = await service.stop()
            responses = await asyncio.gather(*tasks)
            with pytest.raises(RuntimeError):
                await service.compile(request)
            return metrics, responses

        metrics, responses = run(go())
        assert len(responses) == 6
        assert all(r.results["criterion2"]["fidelity"] > 0 for r in responses)
        assert metrics["requests"]["ok"] == 6
        assert metrics["requests"]["failed"] == 0

    def test_client_reconnects_across_server_restart_mid_load(self, tmp_path):
        """Kill and restart the server mid-load: with ``retries`` the whole
        workload still lands, zero errors."""
        from repro.service import run_phase_wire

        spec = LoadSpec(
            circuits=("ghz_3",),
            topology="linear:4",
            device_seeds=(11,),
            strategies=("criterion2",),
            repeats=40,
            concurrency=4,
        )

        async def go():
            # Program cache off: warm repeats would otherwise drain the whole
            # workload before the kill, leaving nothing in flight to reconnect.
            config = ServiceConfig(
                cache_dir=str(tmp_path), batch_window_ms=1.0, program_cache=False
            )
            # The first server batches slowly (a 20 ms window per round of 4,
            # about 200 ms for the workload), so the kill below lands mid-load
            # however fast a compile is.
            slow = ServiceConfig(
                cache_dir=str(tmp_path), batch_window_ms=20.0, program_cache=False
            )
            server = ServiceServer(CompilationService(slow), port=0)
            await server.start()
            host, port = server.address
            load = asyncio.create_task(
                run_phase_wire(
                    host, port, spec.requests(), spec.concurrency,
                    name="across-restart", retries=8,
                )
            )
            await asyncio.sleep(0.05)  # inside the cold build: load in flight
            await server.stop()  # severs live connections mid-load
            restarted = ServiceServer(CompilationService(config), host=host, port=port)
            await restarted.start()
            phase = await load
            metrics = await restarted.stop()
            return phase, metrics

        phase, metrics = run(go())
        assert phase["errors"] == 0
        assert phase["requests"] == 40  # every request landed despite the kill
        assert metrics["requests"]["ok"] > 0  # the restarted server served some

    def test_retries_exhaust_into_connection_error(self):
        async def go():
            server = ServiceServer(CompilationService(), port=0)
            await server.start()
            host, port = server.address
            client = ServiceClient(host, port, retries=2, backoff_s=0.01)
            await client.connect()
            assert (await client.request({"op": "ping"}))["ok"]
            await server.stop()  # gone for good: no restart this time
            with pytest.raises(ConnectionError, match="3 attempt"):
                await client.request({"op": "ping"})
            await client.close()

        run(go())

    def test_request_before_connect_is_a_usage_error(self):
        async def go():
            client = ServiceClient("127.0.0.1", 1, retries=5)
            with pytest.raises(RuntimeError, match="not connected"):
                await client.request({"op": "ping"})

        run(go())
