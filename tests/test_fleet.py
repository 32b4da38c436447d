"""Tests for the fleet scenario engine and the hardened topologies.

Covers the heavy-hex structural invariants, ``qubit_position`` edge cases,
``TopologySpec``/``FleetSpec`` validation, device fingerprints, the
persistent target store (including its invalidation semantics), the
``run_sweep`` cold/warm behaviour required by the acceptance criteria, and
the ``python -m repro.fleet`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import replace

import networkx as nx
import pytest

from repro.device import Device, DeviceParameters
from repro.device.sampling import pair_detunings
from repro.device.topology import (
    grid_graph,
    heavy_hex_graph,
    linear_graph,
    qubit_position,
)
from repro.compiler.pipeline import REGISTRY, register_strategy
from repro.core.basis_selection import PredicateStrategy
from repro.fleet import (
    TARGET_CODEC,
    FleetSpec,
    TopologySpec,
    build_circuit,
    build_device,
    device_fingerprint,
    fleet_scenarios,
    get_target,
    run_sweep,
)
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.cache import target_cache_key
from repro.store import ContentStore
from repro.synthesis.depth import can_synthesize_swap_in_3_layers


def _linear_device(length: int = 3, seed: int = 5) -> Device:
    return Device(graph=linear_graph(length), params=DeviceParameters(seed=seed))


def _store(root, capacity: int = 8) -> ContentStore:
    """A target store over ``root``; a new one models a later process."""
    return ContentStore(TARGET_CODEC, capacity, root)


def _entry(device, strategy: str) -> tuple[str, dict]:
    """The key and echo fields of one (device, strategy) target entry."""
    fingerprint = device_fingerprint(device)
    echo = {
        "fingerprint": fingerprint,
        "strategy": strategy,
        "generation": REGISTRY.generation(strategy),
    }
    return target_cache_key(device, strategy, fingerprint), echo


class TestHeavyHexTopology:
    @pytest.mark.parametrize("distance", (3, 5, 7))
    def test_structural_invariants(self, distance):
        graph = heavy_hex_graph(distance)
        vertex_count = (2 * distance + 1) ** 2
        assert graph.graph["kind"] == "heavy_hex"
        assert graph.graph["distance"] == distance
        assert graph.graph["vertex_count"] == vertex_count
        # Connectivity: routing relies on every pair having a finite distance.
        assert nx.is_connected(graph)
        # Heavy-hex degree bound: at most three couplings per qubit.
        degrees = dict(graph.degree())
        assert max(degrees.values()) <= 3
        # Relabeling invariants: vertex qubits keep their base-grid labels
        # 0..vertex_count-1 and couplers are contiguous after them, so node
        # labels are exactly 0..n-1 (Device assumes integer-dense labels).
        assert sorted(graph.nodes) == list(range(graph.number_of_nodes()))
        couplers = [node for node in graph.nodes if node >= vertex_count]
        assert len(couplers) == graph.number_of_nodes() - vertex_count
        # Every coupler subdivides exactly one base edge between two vertices.
        for coupler in couplers:
            ends = list(graph.neighbors(coupler))
            assert degrees[coupler] == 2
            assert len(ends) == 2
            assert all(end < vertex_count for end in ends)
        assert graph.number_of_edges() == 2 * len(couplers)

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            heavy_hex_graph(0)

    def test_bipartite_checkerboard_gives_far_detuned_pairs(self):
        """Frequency sampling on heavy-hex must two-colour exactly, so every
        edge couples a low-frequency qubit to a high-frequency one."""
        device = Device(graph=heavy_hex_graph(2), params=DeviceParameters(seed=7))
        detunings = pair_detunings(device.graph, device.frequencies)
        assert min(detunings.values()) > 0.5  # nominal split is 2 GHz +- 5 %


class TestQubitPosition:
    def test_round_trips_on_grid(self):
        graph = grid_graph(3, 4)
        for qubit in graph.nodes:
            row, col = qubit_position(graph, qubit)
            assert 0 <= row < 3 and 0 <= col < 4
            assert qubit == row * 4 + col

    @pytest.mark.parametrize("bad", (-1, 12, 1000))
    def test_out_of_range_qubit_rejected(self, bad):
        with pytest.raises(ValueError, match="not on the 3x4 grid"):
            qubit_position(grid_graph(3, 4), bad)

    def test_non_grid_graph_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            qubit_position(heavy_hex_graph(1), 0)

    def test_linear_chain_is_a_single_row(self):
        assert qubit_position(linear_graph(5), 3) == (0, 3)


class TestTopologySpec:
    @pytest.mark.parametrize("text", ("grid:3x3", "linear:6", "heavy_hex:3"))
    def test_parse_label_round_trip(self, text):
        spec = TopologySpec.parse(text)
        assert spec.label == text
        graph = spec.graph()
        assert graph.number_of_nodes() == spec.n_qubits

    def test_constructors_match_parse(self):
        assert TopologySpec.grid(2, 5) == TopologySpec.parse("grid:2x5")
        assert TopologySpec.linear(7) == TopologySpec.parse("linear:7")
        assert TopologySpec.heavy_hex(3) == TopologySpec.parse("heavy_hex:3")

    @pytest.mark.parametrize("bad", ("ring:5", "grid:3", "grid:axb", "linear:0", "grid:3x3x3"))
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            TopologySpec.parse(bad)

    def test_fleet_spec_validation(self):
        with pytest.raises(ValueError, match="at least one topology"):
            FleetSpec(topologies=())
        with pytest.raises(ValueError, match="baseline_strategy"):
            FleetSpec(
                topologies=(TopologySpec.linear(3),),
                strategies=("criterion1", "criterion2"),
            )
        with pytest.raises(ValueError, match="draws"):
            FleetSpec(topologies=(TopologySpec.linear(3),), draws=0)
        with pytest.raises(ValueError, match="unknown executor"):
            FleetSpec(topologies=(TopologySpec.linear(3),), executor="processes")

    def test_fleet_scenarios_enumeration(self):
        spec = FleetSpec(
            topologies=(TopologySpec.linear(3), TopologySpec.grid(2, 2)),
            draws=2,
            base_seed=40,
        )
        scenarios = fleet_scenarios(spec)
        assert [s.scenario_id for s in scenarios] == [
            "linear:3#s40",
            "linear:3#s41",
            "grid:2x2#s40",
            "grid:2x2#s41",
        ]
        assert spec.device_count == 4
        device = build_device(scenarios[0], spec)
        assert device.n_qubits == 3
        assert device.coherence_time_ns == spec.coherence_time_us * 1000.0


class TestBuildCircuit:
    def test_known_families(self):
        assert build_circuit("ghz_4").n_qubits == 4
        assert build_circuit("bv_5").n_qubits == 5
        assert build_circuit("qft_3").n_qubits == 3
        assert build_circuit("qaoa_0.5_4").n_qubits == 4

    def test_deterministic(self):
        first, second = build_circuit("qaoa_0.5_4"), build_circuit("qaoa_0.5_4")
        assert [g for g in first.gates] == [g for g in second.gates]

    @pytest.mark.parametrize(
        # ghz_4_5 / qaoa_0.3_4_5 would silently parse as 45 via int()'s
        # underscore digit separators if the size were not digit-checked.
        "bad",
        ("foo_3", "ghz", "ghz_x", "qaoa_4", "ghz_4_5", "qaoa_0.3_4_5", "bv_-3"),
    )
    def test_unknown_names_rejected(self, bad):
        with pytest.raises(ValueError):
            build_circuit(bad)


class TestDeviceFingerprint:
    def test_deterministic_across_rebuilds(self):
        assert device_fingerprint(_linear_device()) == device_fingerprint(_linear_device())

    def test_sensitive_to_seed_topology_and_parameters(self):
        base = device_fingerprint(_linear_device())
        assert device_fingerprint(_linear_device(seed=6)) != base
        assert device_fingerprint(_linear_device(length=4)) != base
        slower = Device(
            graph=linear_graph(3),
            params=DeviceParameters(seed=5, coherence_time_us=40.0),
        )
        assert device_fingerprint(slower) != base

    def test_in_place_mutation_changes_fingerprint(self):
        device = _linear_device()
        before = device_fingerprint(device)
        device.frequencies[0] += 0.1
        assert device_fingerprint(device) != before

    def test_epoch_bump_without_mutation_keeps_fingerprint(self):
        """invalidate_calibrations() forces recomputation, but recomputing
        from identical inputs gives identical selections -- the fingerprint
        (hence the cache entry) deliberately stays valid."""
        device = _linear_device()
        before = device_fingerprint(device)
        device.invalidate_calibrations()
        assert device_fingerprint(device) == before

    def test_field_list_is_pinned(self):
        """The fingerprint must hash *every* calibration input selection
        reads; a drifted field missing from the payload would serve stale
        cached targets.  Adding a new calibration input to Device therefore
        requires updating FINGERPRINT_FIELDS, the payload and this test."""
        from repro.fleet.devices import FINGERPRINT_FIELDS, fingerprint_payload

        payload = fingerprint_payload(_linear_device())
        assert tuple(sorted(payload)) == tuple(sorted(FINGERPRINT_FIELDS))
        assert set(FINGERPRINT_FIELDS) == {
            "n_qubits",
            "edges",
            "frequencies",
            "deviation_scales",
            "static_zz",
            "coherence_time_ns",
            "single_qubit_duration",
            "baseline_amplitude",
            "nonstandard_amplitude",
            "trajectory_resolution_ns",
        }

    def test_every_calibration_field_changes_the_fingerprint(self):
        """One mutation per fingerprint field; each must change the key."""
        mutations = {
            "frequencies": lambda d: d.update_calibration(
                frequency_shifts={0: 0.01}
            ),
            "deviation_scales": lambda d: d.update_calibration(
                deviation_scales={(0, 1): 1.3}
            ),
            "static_zz": lambda d: d.update_calibration(static_zz={(0, 1): 5e-4}),
            "coherence_time_ns": lambda d: d.update_calibration(
                coherence_time_us=41.0
            ),
            "single_qubit_duration": lambda d: setattr(
                d.params, "single_qubit_gate_ns", 21.0
            ),
            "baseline_amplitude": lambda d: setattr(
                d.params, "baseline_amplitude", 0.006
            ),
            "nonstandard_amplitude": lambda d: setattr(
                d.params, "nonstandard_amplitude", 0.05
            ),
            "trajectory_resolution_ns": lambda d: setattr(
                d.params, "trajectory_resolution_ns", 2.0
            ),
            "edges": lambda d: d.graph.remove_edge(0, 1),
        }
        for field_name, mutate in mutations.items():
            device = _linear_device()
            before = device_fingerprint(device)
            mutate(device)
            assert device_fingerprint(device) != before, field_name

    def test_pickled_device_keeps_calibration_identity(self):
        """__getstate__ strips derived caches but must keep every
        calibration input -- a worker whose static_zz (or any fingerprint
        field) was dropped would compute different selections."""
        import pickle

        device = _linear_device()
        device.update_calibration(static_zz={(0, 1): 2e-3})
        clone = pickle.loads(pickle.dumps(device))
        assert clone._calibrations == {}  # derived caches stripped
        assert device_fingerprint(clone) == device_fingerprint(device)


class TestTargetCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        device = _linear_device()
        cache = _store(tmp_path)
        built, source = get_target(cache, device, "criterion2")
        assert source == "built"
        assert cache.stats.misses == 1 and cache.stats.disk_hits == 0
        assert len(cache.entries()) == 1

        fresh = _store(tmp_path)  # simulates a later process
        loaded, source = get_target(fresh, device, "criterion2")
        assert source == "disk"
        assert fresh.stats.disk_hits == 1 and fresh.stats.misses == 0
        assert loaded == built  # exact float round trip through JSON
        # The hit is detached and complete: usable without touching the device.
        assert len(loaded.selections) == len(device.edges())
        assert loaded.edges() == device.edges()

    def test_distinct_strategies_get_distinct_entries(self, tmp_path):
        device = _linear_device()
        cache = _store(tmp_path)
        get_target(cache, device, "baseline")
        get_target(cache, device, "criterion2")
        assert len(cache.entries()) == 2
        assert cache.stats.misses == 2

    def test_corrupt_entry_is_a_miss_and_gets_rebuilt(self, tmp_path):
        device = _linear_device()
        get_target(_store(tmp_path), device, "criterion2")
        [entry] = _store(tmp_path).entries()
        entry.write_text("{ not json")
        fresh = _store(tmp_path)
        rebuilt, source = get_target(fresh, device, "criterion2")
        assert source == "built" and fresh.stats.misses == 1
        assert rebuilt.selections
        # The rebuilt entry replaced the corrupt one and now loads cleanly.
        key, echo = _entry(device, "criterion2")
        assert _store(tmp_path).get(key, echo)[1] == "disk"

    def test_device_mutation_invalidates(self, tmp_path):
        device = _linear_device()
        cache = _store(tmp_path)
        get_target(cache, device, "criterion2")
        device.frequencies[0] += 0.1
        device.invalidate_calibrations()
        key, echo = _entry(device, "criterion2")
        assert _store(tmp_path).get(key, echo) == (None, None)  # new fingerprint
        assert get_target(cache, device, "criterion2")[1] == "built"
        assert cache.stats.misses == 2  # initial build + this lookup

    def test_registry_generation_invalidates(self, tmp_path):
        device = _linear_device()
        name = "fleet_cache_regen_test"
        register_strategy(name)(
            lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
        )
        try:
            get_target(_store(tmp_path), device, name)
            assert get_target(_store(tmp_path), device, name)[1] == "disk"
            register_strategy(name, overwrite=True)(
                lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
            )
            # New generation -> new key -> the old entry is never served.
            key, echo = _entry(device, name)
            assert _store(tmp_path).get(key, echo) == (None, None)
        finally:
            REGISTRY.unregister(name)

    def test_sanitized_strategy_names_do_not_collide(self, tmp_path):
        """Names that sanitize to the same filename must get distinct keys."""
        device = _linear_device()
        key_at = target_cache_key(device, "crit@v2")
        key_under = target_cache_key(device, "crit_v2")
        assert key_at != key_under
        assert "@" not in key_at  # still filesystem-safe

    def test_renamed_entry_is_rejected(self, tmp_path):
        """A file under the wrong key must not pass the stored-metadata check."""
        device = _linear_device()
        cache = _store(tmp_path)
        get_target(cache, device, "baseline")
        [entry] = cache.entries()
        key, echo = _entry(device, "criterion2")
        entry.rename(cache.path_for(key))
        assert _store(tmp_path).get(key, echo) == (None, None)

    def test_entries_are_byte_stable(self, tmp_path):
        """The on-disk layout: format version, echo fields, then payload."""
        device = _linear_device()
        target, _ = get_target(_store(tmp_path), device, "baseline")
        [entry] = _store(tmp_path).entries()
        key, echo = _entry(device, "baseline")
        assert entry.name == f"{key}.json"
        expected = {
            "format_version": TARGET_CODEC.format_version,
            **echo,
            "target": target.to_dict(),
            "cost_model": target.cost_model().to_dict(),
        }
        assert entry.read_text() == json.dumps(expected)

    def test_clear_sweeps_orphaned_scratch_files(self, tmp_path):
        device = _linear_device()
        cache = _store(tmp_path)
        get_target(cache, device, "baseline")
        # Simulate a writer killed between write_text and the atomic rename.
        orphan = tmp_path / "deadbeef-criterion2-g0.json.tmp12345"
        orphan.write_text("{")
        assert len(cache.entries()) == 1  # scratch files never count as entries
        assert cache.clear() == 1
        assert cache.entries() == [] and len(cache) == 0
        assert not orphan.exists()


#: Tiny sweep used by the run_sweep tests: 2 devices x 2 strategies x 2 circuits.
TINY_SPEC = FleetSpec(
    topologies=(TopologySpec.linear(4),),
    draws=2,
    base_seed=19,
    strategies=("baseline", "criterion2"),
    circuits=("ghz_3", "bv_3"),
)


class TestRunSweep:
    def test_cold_then_warm_hits_cache_for_every_cell(self, tmp_path):
        spec = replace(TINY_SPEC, cache_dir=str(tmp_path / "cache"))
        cold = run_sweep(spec)
        assert cold.cache_stats["misses"] == spec.device_count * len(spec.strategies)
        assert cold.cache_stats["disk_hits"] == 0

        warm = run_sweep(spec)
        # The acceptance criterion: 100% of (device, strategy) cells hit.
        assert warm.cache_stats["disk_hits"] == spec.device_count * len(spec.strategies)
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hit_rate"] == 1.0
        # And the warm (detached-target) results are byte-identical.
        assert [c.as_dict() for c in warm.cells] == [c.as_dict() for c in cold.cells]

    def test_sweep_shape_and_aggregates(self):
        result = run_sweep(TINY_SPEC)
        assert result.cache_stats is None
        expected_cells = (
            TINY_SPEC.device_count * len(TINY_SPEC.circuits) * len(TINY_SPEC.strategies)
        )
        assert len(result.cells) == expected_cells
        assert set(result.aggregates) == set(TINY_SPEC.strategies)

        baseline = result.aggregates["baseline"]
        criterion2 = result.aggregates["criterion2"]
        assert baseline.win_rate == 0.0  # the baseline cannot beat itself
        assert 0.0 <= criterion2.win_rate <= 1.0
        # Aggregates must be recomputable from the cells they summarise.
        fidelities = [c.fidelity for c in result.cells if c.strategy == "criterion2"]
        assert criterion2.cells == len(fidelities)
        assert criterion2.fidelity_mean == pytest.approx(
            sum(fidelities) / len(fidelities)
        )
        assert min(fidelities) <= criterion2.fidelity_p50 <= max(fidelities)
        # The paper's headline claim, fleet-wide: per-edge selection at the
        # stronger drive beats the fixed baseline on these workloads.
        assert criterion2.fidelity_mean > baseline.fidelity_mean

    def test_result_json_round_trip(self, tmp_path):
        result = run_sweep(replace(TINY_SPEC, draws=1, circuits=("ghz_3",)))
        path = result.write_json(tmp_path / "nested" / "out.json")
        data = json.loads(path.read_text())
        assert data["spec"]["topologies"] == ["linear:4"]
        assert data["device_count"] == 1
        assert len(data["cells"]) == 2
        assert set(data["aggregates"]) == {"baseline", "criterion2"}
        table = result.format_table()
        assert "baseline" in table and "criterion2" in table

    def test_process_executor_matches_serial(self, tmp_path):
        serial = run_sweep(TINY_SPEC)
        pooled = run_sweep(replace(TINY_SPEC, max_workers=2, executor="process"))
        assert [c.as_dict() for c in pooled.cells] == [c.as_dict() for c in serial.cells]

    def test_oversized_circuit_fails_fast_before_any_compilation(self, tmp_path):
        spec = replace(
            TINY_SPEC, circuits=("ghz_8",), cache_dir=str(tmp_path / "cache")
        )
        with pytest.raises(ValueError, match="linear:4"):
            run_sweep(spec)
        # Validated up front: no device was built, calibrated or cached.
        assert _store(tmp_path / "cache").entries() == []

    def test_unknown_strategy_is_diagnosed(self):
        spec = replace(TINY_SPEC, strategies=("baseline", "nope"), draws=1)
        with pytest.raises(ValueError, match="registered strategies"):
            run_sweep(spec)


class TestCli:
    def test_smoke_cold_then_warm(self, tmp_path, capsys):
        output = tmp_path / "fleet.json"
        args = [
            "--topology", "linear:4",
            "--draws", "1",
            "--seed", "19",
            "--strategies", "baseline", "criterion2",
            "--circuits", "ghz_3",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(output),
        ]
        cold = fleet_main(args)
        assert cold.cache_stats["misses"] == 2
        printed = capsys.readouterr().out
        assert "Strategy" in printed and "Wrote" in printed

        data = json.loads(output.read_text())
        assert len(data["cells"]) == 2
        assert data["spec"]["strategies"] == ["baseline", "criterion2"]

        warm = fleet_main(args + ["--quiet"])
        assert warm.cache_stats["hit_rate"] == 1.0
        assert capsys.readouterr().out == ""


class TestTargetCacheConcurrency:
    """The shared-store guarantees cluster shards lean on: one build per
    cold cell and never a torn entry, under concurrent writers."""

    def test_concurrent_cold_get_or_build_builds_once(self, tmp_path, monkeypatch):
        import threading

        import repro.fleet.cache as cache_module

        real_build = cache_module.build_target
        build_calls = []

        def counted(device, strategy):
            build_calls.append(strategy)
            return real_build(device, strategy)

        monkeypatch.setattr(cache_module, "build_target", counted)
        barrier = threading.Barrier(6)
        results, failures = [], []

        def worker():
            try:
                # Own Device and own store instance per thread: models
                # independent processes racing one shared store directory.
                device = _linear_device()
                cache = _store(tmp_path)
                barrier.wait()
                results.append(get_target(cache, device, "criterion2")[0])
            except Exception as error:  # noqa: BLE001 - surfaced via assert
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert failures == []
        assert len(results) == 6
        # The entry lock makes the losers wait and re-read, not rebuild.
        assert build_calls == ["criterion2"]
        assert len(_store(tmp_path).entries()) == 1
        reference = results[0].to_dict()
        assert all(target.to_dict() == reference for target in results[1:])

    def test_concurrent_store_never_exposes_partial_entries(self, tmp_path):
        import threading

        device = _linear_device()
        target, _ = get_target(_store(tmp_path), device, "baseline")
        key, echo = _entry(device, "baseline")
        stop = threading.Event()
        torn = []

        def writer():
            own = _store(tmp_path)
            for _ in range(25):
                own.put(key, target, echo)

        def reader():
            while not stop.is_set():
                # Atomic rename: a reader must always see a whole, valid
                # entry -- a miss here would mean a torn or half-renamed
                # file.  A fresh store per read keeps the disk layer in play.
                if _store(tmp_path).get(key, echo)[0] is None:
                    torn.append(True)
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(3)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=120)
        assert torn == []
        assert len(_store(tmp_path).entries()) == 1
        assert _store(tmp_path).get(key, echo)[1] == "disk"

    def test_clear_sweeps_lock_sidecars(self, tmp_path):
        device = _linear_device()
        cache = _store(tmp_path)
        get_target(cache, device, "baseline")
        assert list(tmp_path.glob("*.json.lock"))  # writer left its sidecar
        cache.clear()
        assert not list(tmp_path.glob("*.json.lock"))
        assert cache.entries() == []
