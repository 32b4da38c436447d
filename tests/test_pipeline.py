"""Tests for the composable compilation pipeline.

Covers the strategy registry, the build-once ``Target`` snapshot, the
``PassManager``/``PropertySet`` ordering contracts, ``transpile_batch``, and a
golden test asserting the pass-based pipeline reproduces the legacy monolithic
``transpile`` byte-for-byte on seeded circuits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import bernstein_vazirani, ghz_circuit, qaoa_circuit
from repro.compiler import (
    AnalysisPass,
    PassManager,
    SabreRouter,
    Target,
    TranslationOptions,
    build_target,
    compare_strategies,
    get_strategy,
    register_strategy,
    sabre_layout,
    translate_circuit,
    transpile,
    transpile_batch,
)
from repro.compiler.basis_translation import (
    BASELINE_DIRECT_TARGETS,
    MINIMALIST_DIRECT_TARGETS,
)
from repro.compiler.pipeline import (
    REGISTRY,
    LayoutPass,
    MetricsPass,
    MissingPropertyError,
    PropertySet,
    RoutingPass,
    SchedulePass,
    TranslationPass,
)
from repro.core.basis_selection import (
    BaselineSqrtIswapStrategy,
    Criterion2Strategy,
    SelectionStrategy,
    select_basis_gate,
)
from repro.device import Device, DeviceParameters
from repro.device.noise import circuit_coherence_fidelity
from repro.synthesis.depth import can_synthesize_swap_in_3_layers

STRATEGIES = ("baseline", "criterion1", "criterion2")


def _legacy_transpile(circuit, device, strategy, seed=17):
    """The seed repository's monolithic pipeline, re-implemented verbatim."""
    router = SabreRouter(device, seed=seed)
    layout = sabre_layout(circuit, device, router=router, iterations=1, seed=seed)
    routing = router.run(circuit, layout)
    # Options built exactly as the seed did -- independent of the registry,
    # so a registry regression cannot shift reference and subject together.
    options = TranslationOptions(
        direct_targets=(
            BASELINE_DIRECT_TARGETS if strategy == "baseline" else MINIMALIST_DIRECT_TARGETS
        ),
        one_qubit_duration=device.single_qubit_duration,
    )
    operations = translate_circuit(routing.circuit, device, strategy, options)
    qubit_free_at = np.zeros(device.n_qubits)
    spans_first: dict[int, float] = {}
    spans_last: dict[int, float] = {}
    makespan = 0.0
    swap_layers = 0
    for op in operations:
        start = float(max(qubit_free_at[list(op.qubits)])) if op.qubits else 0.0
        end = start + op.duration
        makespan = max(makespan, end)
        if op.kind == "2q":
            swap_layers += op.layers
        for q in op.qubits:
            qubit_free_at[q] = end
            spans_first.setdefault(q, start)
            spans_first[q] = min(spans_first[q], start)
            spans_last[q] = max(spans_last.get(q, end), end)
    spans = {q: spans_last[q] - spans_first[q] for q in spans_first}
    fidelity = circuit_coherence_fidelity(spans, device.coherence_time_ns)
    return {
        "swap_count": float(routing.swap_count),
        "two_qubit_layers": float(swap_layers),
        "duration_ns": float(makespan),
        "fidelity": fidelity,
    }


class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = REGISTRY.names()
        for name in ("baseline", "criterion1", "criterion2", "pe_and_swap3"):
            assert name in names

    def test_get_strategy_builds_instances(self):
        assert isinstance(get_strategy("baseline"), BaselineSqrtIswapStrategy)
        assert isinstance(get_strategy("criterion2"), Criterion2Strategy)
        # A fresh instance each time, not a shared singleton.
        assert get_strategy("criterion2") is not get_strategy("criterion2")

    def test_unknown_strategy_lists_registered_names(self):
        with pytest.raises(ValueError, match="criterion2"):
            get_strategy("does_not_exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("criterion2")(Criterion2Strategy)

    def test_register_and_unregister_custom_strategy(self):
        @register_strategy("swap3_only_test")
        class Swap3Only(SelectionStrategy):
            name = "swap3_only_test"

            def predicate(self, coords):
                return can_synthesize_swap_in_3_layers(coords)

        try:
            assert "swap3_only_test" in REGISTRY
            assert isinstance(get_strategy("swap3_only_test"), Swap3Only)
        finally:
            REGISTRY.unregister("swap3_only_test")
        assert "swap3_only_test" not in REGISTRY

    def test_custom_strategy_flows_through_whole_pipeline(self, small_device):
        @register_strategy("like_criterion1_test")
        class LikeCriterion1(SelectionStrategy):
            name = "like_criterion1_test"

            def predicate(self, coords):
                return can_synthesize_swap_in_3_layers(coords)

        try:
            compiled = transpile(ghz_circuit(3), small_device, strategy="like_criterion1_test")
            reference = transpile(ghz_circuit(3), small_device, strategy="criterion1")
            # Same predicate as criterion 1 -> same selections -> same numbers.
            assert compiled.summary() == reference.summary()
        finally:
            REGISTRY.unregister("like_criterion1_test")

    def test_overwrite_invalidates_cached_selections_and_targets(self):
        from repro.core.basis_selection import PredicateStrategy
        from repro.synthesis.depth import can_synthesize_cnot_in_2_layers

        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        name = "rewritable_test"
        register_strategy(name)(
            lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
        )
        try:
            edge = device.edges()[0]
            first_target = build_target(device, name)
            first = device.basis_gate(edge, name)
            # Redefine the strategy under the same name with a stricter
            # predicate: caches keyed on the name must not serve stale gates.
            register_strategy(name, overwrite=True)(
                lambda: PredicateStrategy(
                    name,
                    lambda c: can_synthesize_swap_in_3_layers(c)
                    and can_synthesize_cnot_in_2_layers(c),
                )
            )
            second = device.basis_gate(edge, name)
            expected = device.basis_gate(edge, "criterion2")
            assert second.duration == expected.duration
            assert second.duration != first.duration
            assert build_target(device, name) is not first_target
            assert build_target(device, name).basis_gate(edge).duration == expected.duration
            # A target held across the overwrite refuses to mix definitions.
            with pytest.raises(RuntimeError, match="re-registered"):
                first_target.basis_gate(edge)
            # Stale-generation entries are evicted, not accumulated.
            from repro.compiler.pipeline.target import _TARGET_CACHE

            assert sum(1 for k in _TARGET_CACHE[device] if k[0] == name) == 1
            amplitude = device.amplitude_for_strategy(name)
            selections = device.calibration(edge, amplitude).selections
            assert sum(1 for k in selections if k[0] == name) == 1
        finally:
            REGISTRY.unregister(name)

    def test_early_validation_everywhere(self, small_device):
        circuit = ghz_circuit(3)
        with pytest.raises(ValueError, match="registered strategies"):
            transpile(circuit, small_device, strategy="nope")
        with pytest.raises(ValueError, match="registered strategies"):
            compare_strategies(circuit, small_device, strategies=("baseline", "nope"))
        with pytest.raises(ValueError, match="registered strategies"):
            transpile_batch([circuit], small_device, strategies=("nope",))
        with pytest.raises(ValueError, match="registered strategies"):
            translate_circuit(circuit, small_device, "nope")
        with pytest.raises(ValueError, match="registered strategies"):
            small_device.basis_gate(small_device.edges()[0], "nope")
        with pytest.raises(ValueError, match="registered strategies"):
            select_basis_gate(None, "nope")
        with pytest.raises(ValueError, match="registered strategies"):
            small_device.amplitude_for_strategy("critreion2")  # typo must not pass
        with pytest.raises(ValueError, match="registered strategies"):
            TranslationOptions.for_strategy("nope")


class TestTarget:
    def test_build_target_is_cached_per_device_and_strategy(self):
        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        first = build_target(device, "criterion2")
        assert build_target(device, "criterion2") is first
        assert build_target(device, "criterion1") is not first
        refreshed = build_target(device, "criterion2", refresh=True)
        assert refreshed is not first
        assert build_target(device, "criterion2") is refreshed

    def test_held_target_refuses_stale_calibration(self):
        """A target held across invalidate_calibrations() must not mix
        selections from the old and new device calibration."""
        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        held = build_target(device, "criterion2")
        held.basis_gate(device.edges()[0])
        device.frequencies[device.edges()[0][0]] += 0.4
        device.invalidate_calibrations()
        with pytest.raises(RuntimeError, match="recalibrated"):
            held.basis_gate(device.edges()[1])
        with pytest.raises(RuntimeError, match="recalibrated"):
            held.complete()
        # A freshly built target resolves against the new calibration fine.
        complete = build_target(device, "criterion2").complete()
        # A FULLY-resolved snapshot stays serviceable across recalibration:
        # nothing remains to resolve, so nothing can mix.
        device.invalidate_calibrations()
        assert complete.complete() is complete
        assert complete.to_dict()["strategy"] == "criterion2"
        assert complete.copy().edges() == complete.edges()

    def test_refresh_recomputes_after_in_place_recalibration(self):
        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        edge = device.edges()[0]
        before = build_target(device, "criterion2").basis_gate(edge)
        # Recalibrate in place: detune one qubit, which changes the edge's
        # trajectory and hence the selected gate's duration.
        device.frequencies[edge[0]] += 0.4
        stale = build_target(device, "criterion2").basis_gate(edge)
        assert stale.duration == before.duration  # memoised until refreshed
        after = build_target(device, "criterion2", refresh=True).basis_gate(edge)
        assert after.duration != before.duration
        # The documented recipe -- invalidate_calibrations() alone -- must
        # reach compilations too, without the refresh=True spelling.
        device.frequencies[edge[0]] -= 0.4
        device.invalidate_calibrations()
        restored = build_target(device, "criterion2").basis_gate(edge)
        assert restored.duration == before.duration

    def test_snapshot_matches_device_selections(self, small_device):
        target = build_target(small_device, "criterion2")
        assert target.n_qubits == small_device.n_qubits
        assert target.edges() == small_device.edges()
        for edge in small_device.edges():
            assert target.basis_gate(edge) is small_device.basis_gate(edge, "criterion2")

    def test_selections_resolve_lazily_per_edge(self):
        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        target = build_target(device, "criterion1", refresh=True)
        assert target.selections == {}  # nothing paid for yet
        edge = device.edges()[0]
        target.basis_gate(edge)
        assert set(target.selections) == {edge}  # only the touched edge
        target.complete()
        assert set(target.selections) == set(device.edges())

    def test_copy_is_detached_and_safe_to_edit(self, small_device):
        shared = build_target(small_device, "criterion2")
        clone = shared.copy()
        edge = small_device.edges()[0]
        original = shared.basis_gate(edge)
        clone.selections[edge] = clone.basis_gate(small_device.edges()[1])
        # Editing the copy must not leak into the shared cached target.
        assert shared.basis_gate(edge) is original
        assert build_target(small_device, "criterion2").basis_gate(edge) is original

    def test_edge_lookup_normalises_order_and_validates(self, small_device):
        target = build_target(small_device, "criterion2")
        a, b = small_device.edges()[0]
        assert target.basis_gate((b, a)) is target.basis_gate((a, b))
        assert target.has_edge(b, a)
        with pytest.raises(ValueError, match="not an edge"):
            target.basis_gate((0, small_device.n_qubits + 5))

    def test_serialization_round_trip(self, small_device):
        target = build_target(small_device, "criterion2")
        clone = Target.from_dict(target.to_dict())
        assert clone == target  # metadata equality (selections checked below)
        assert clone.strategy == target.strategy
        assert clone.n_qubits == target.n_qubits
        assert clone.single_qubit_duration == target.single_qubit_duration
        assert clone.coherence_time_ns == target.coherence_time_ns
        assert clone.edges() == target.edges()
        for edge in target.edges():
            original, restored = target.basis_gate(edge), clone.basis_gate(edge)
            assert restored.duration == original.duration
            assert restored.coordinates == original.coordinates
            assert restored.swap_layers == original.swap_layers
            assert restored.cnot_layers == original.cnot_layers
            np.testing.assert_allclose(restored.unitary, original.unitary)

    def test_deserialized_target_preserves_direct_targets(self):
        """A shipped target must translate like it did where it was built,
        even if the custom strategy is not registered in this process."""
        from repro.circuits import qft_circuit
        from repro.compiler.basis_translation import BASELINE_DIRECT_TARGETS
        from repro.compiler.pipeline import compile_with_targets
        from repro.core.basis_selection import PredicateStrategy

        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        name = "direct_targets_test"
        register_strategy(name, direct_targets=BASELINE_DIRECT_TARGETS)(
            lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
        )
        circuit = qft_circuit(3)  # cp gates: direct vs lower-to-CNOT matters
        try:
            target = build_target(device, name)
            expected = compile_with_targets(circuit, device, {name: target})[name].summary()
            data = target.to_dict()
        finally:
            REGISTRY.unregister(name)
        restored = Target.from_dict(data)
        assert restored.direct_targets == BASELINE_DIRECT_TARGETS
        result = compile_with_targets(circuit, device, {name: restored})[name]
        assert result.summary() == expected
        # Without the snapshot the fallback would lower cp to CNOTs instead.
        assert restored.translation_options().direct_targets == BASELINE_DIRECT_TARGETS

    def test_detached_partial_snapshot_refuses_to_pose_as_complete(self):
        import gc
        import weakref

        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        target = build_target(device, "criterion1", refresh=True)
        target.basis_gate(device.edges()[0])  # resolve 1 of 2 edges
        ref = weakref.ref(device)
        del device
        gc.collect()
        assert ref() is None
        with pytest.raises(RuntimeError, match="detached"):
            target.to_dict()
        with pytest.raises(RuntimeError, match="detached"):
            target.average_basis_duration()
        with pytest.raises(RuntimeError, match="detached"):
            target.copy()
        with pytest.raises(RuntimeError, match="detached"):
            target.basis_gate((1, 2))  # a real edge it can no longer resolve
        with pytest.raises(RuntimeError, match="detached"):
            target.has_edge(1, 2)  # must not silently report "uncoupled"
        with pytest.raises(RuntimeError, match="detached"):
            target.edges()  # must not enumerate a shrunken device

    def test_batch_builds_each_target_once(self, monkeypatch):
        device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        calls: list[str] = []
        original = Target.from_device.__func__

        def counting(cls, dev, strategy):
            calls.append(strategy)
            return original(cls, dev, strategy)

        monkeypatch.setattr(Target, "from_device", classmethod(counting))
        circuits = [ghz_circuit(2), ghz_circuit(3), bernstein_vazirani(2)]
        transpile_batch(circuits, device, strategies=("criterion1", "criterion2"))
        # Three circuits, two strategies: exactly one build per strategy.
        assert sorted(calls) == ["criterion1", "criterion2"]


#: Devices for every topology family the fleet sweeps, built lazily once per
#: module (heavy-hex calibrations are the expensive part).
@pytest.fixture(scope="module")
def family_devices():
    from repro.device.topology import heavy_hex_graph, linear_graph

    return {
        "grid": Device.from_parameters(DeviceParameters(rows=2, cols=3, seed=53)),
        "linear": Device(graph=linear_graph(4), params=DeviceParameters(seed=7)),
        "heavy_hex": Device(graph=heavy_hex_graph(1), params=DeviceParameters(seed=7)),
    }


class TestTargetRoundTrip:
    """to_dict -> from_dict across every registered strategy and topology."""

    FAMILIES = ("grid", "linear", "heavy_hex")
    # All builtin registered strategies, not just the Table II trio.
    ALL_STRATEGIES = ("baseline", "criterion1", "criterion2", "pe_and_swap3")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_round_trip_is_exact(self, family_devices, family, strategy):
        device = family_devices[family]
        target = build_target(device, strategy)
        # Through real JSON text, not just the dict: float exactness must
        # survive the serialization the on-disk target store actually uses.
        import json

        clone = Target.from_dict(json.loads(json.dumps(target.to_dict())))
        assert clone == target  # field-wise, including every unitary
        assert clone.direct_targets == target.direct_targets
        assert clone.edge_count == len(device.edges())
        assert clone.edges() == device.edges()
        for edge in device.edges():
            assert clone.basis_gate(edge).duration == target.basis_gate(edge).duration

    @pytest.mark.parametrize("family", FAMILIES)
    def test_registry_generation_guard(self, family):
        """A partially-resolved target must refuse to mix two definitions of
        its strategy name, on every topology family."""
        from repro.core.basis_selection import PredicateStrategy
        from repro.device.topology import heavy_hex_graph, linear_graph

        graph = {
            "grid": None,  # default 1x3 grid via parameters
            "linear": linear_graph(3),
            "heavy_hex": heavy_hex_graph(1),
        }[family]
        if graph is None:
            device = Device.from_parameters(DeviceParameters(rows=1, cols=3, seed=53))
        else:
            device = Device(graph=graph, params=DeviceParameters(seed=7))
        name = f"roundtrip_regen_{family}"
        register_strategy(name)(
            lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
        )
        try:
            held = build_target(device, name)
            held.basis_gate(device.edges()[0])  # partially resolved
            register_strategy(name, overwrite=True)(
                lambda: PredicateStrategy(name, can_synthesize_swap_in_3_layers)
            )
            with pytest.raises(RuntimeError, match="re-registered"):
                held.complete()
            with pytest.raises(RuntimeError, match="re-registered"):
                held.to_dict()
        finally:
            REGISTRY.unregister(name)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_calibration_epoch_guard_and_snapshot_survival(self, family):
        """Recalibration stales held targets, but a completed round-tripped
        snapshot stays serviceable (nothing remains to resolve)."""
        from repro.device.topology import heavy_hex_graph, linear_graph

        device = {
            "grid": lambda: Device.from_parameters(
                DeviceParameters(rows=1, cols=3, seed=53)
            ),
            "linear": lambda: Device(
                graph=linear_graph(3), params=DeviceParameters(seed=7)
            ),
            "heavy_hex": lambda: Device(
                graph=heavy_hex_graph(1), params=DeviceParameters(seed=7)
            ),
        }[family]()
        # A fresh (unmemoised) target so it stays partially resolved even
        # after the snapshot below force-completes the shared cached one.
        held = Target.from_device(device, "criterion2")
        held.basis_gate(device.edges()[0])
        snapshot = Target.from_dict(build_target(device, "criterion2").to_dict())
        device.invalidate_calibrations()
        with pytest.raises(RuntimeError, match="recalibrated"):
            held.complete()
        # The detached snapshot predates the bump but is fully resolved, so
        # it cannot mix definitions -- it keeps compiling.
        assert snapshot.edges() == device.edges()
        assert snapshot == snapshot.copy()


class TestPassManager:
    def test_default_pipeline_composition(self):
        manager = PassManager.default("criterion2")
        assert manager.pass_names() == [
            "LayoutPass",
            "RoutingPass",
            "TranslationPass",
            "SchedulePass",
            "MetricsPass",
        ]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_golden_equivalence_with_legacy_pipeline(self, small_device, strategy):
        """PassManager.default(s) == legacy transpile(s), byte for byte."""
        for circuit in (ghz_circuit(4), bernstein_vazirani(5), qaoa_circuit(6, 0.4, seed=3)):
            expected = _legacy_transpile(circuit, small_device, strategy)
            via_wrapper = transpile(circuit, small_device, strategy=strategy).summary()
            via_manager = (
                PassManager.default(strategy).run(circuit, device=small_device).summary()
            )
            assert via_wrapper == expected
            assert via_manager == expected

    #: Pinned seed-implementation outputs (4x4 grid, seed 53, default seeds).
    #: Unlike the reimplemented-reference test above, these anchors cannot
    #: shift together with a regression in shared translation internals.
    PINNED_GOLDEN = {
        ("ghz_4", "baseline"): (0.0, 6.0, 718.40625, 0.9822001661165464),
        ("ghz_4", "criterion1"): (0.0, 9.0, 338.7158203125, 0.9915678561344591),
        ("ghz_4", "criterion2"): (0.0, 6.0, 249.775390625, 0.9937750708876665),
        ("bv_5", "baseline"): (0.0, 8.0, 872.283203125, 0.9614436600870223),
        ("bv_5", "criterion1"): (0.0, 12.0, 436.0390625, 0.9808940807899829),
        ("bv_5", "criterion2"): (0.0, 8.0, 321.81640625, 0.985873651391622),
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pinned_golden_values(self, small_device, strategy):
        """Absolute anchors: outputs must match the recorded seed numbers."""
        for name, circuit in (("ghz_4", ghz_circuit(4)), ("bv_5", bernstein_vazirani(5))):
            swaps, layers, duration, fidelity = self.PINNED_GOLDEN[(name, strategy)]
            summary = transpile(circuit, small_device, strategy=strategy).summary()
            assert summary["swap_count"] == swaps
            assert summary["two_qubit_layers"] == layers
            assert summary["duration_ns"] == pytest.approx(duration, rel=1e-6)
            assert summary["fidelity"] == pytest.approx(fidelity, rel=1e-6)

    def test_metrics_pass_matches_summary(self, small_device):
        manager = PassManager.default("criterion2")
        compiled = manager.run(bernstein_vazirani(5), device=small_device)
        assert manager.property_set["metrics"] == compiled.summary()

    def test_metrics_pass_can_be_dropped(self, small_device):
        manager = PassManager.default("criterion2", metrics=False)
        assert "MetricsPass" not in manager.pass_names()
        compiled = manager.run(bernstein_vazirani(5), device=small_device)
        assert "metrics" not in manager.property_set
        reference = PassManager.default("criterion2").run(
            bernstein_vazirani(5), device=small_device
        )
        assert compiled.summary() == reference.summary()

    def test_pass_ordering_contract_is_enforced(self, small_device):
        manager = PassManager([RoutingPass()])
        with pytest.raises(MissingPropertyError, match="RoutingPass.*'layout'"):
            manager.run(ghz_circuit(3), device=small_device)

    def test_schedule_pass_without_device_or_target_is_diagnosed(self):
        manager = PassManager([SchedulePass()])
        with pytest.raises(MissingPropertyError, match="SchedulePass.*'device' or 'target'"):
            manager.run(ghz_circuit(3), property_set={"operations": []})

    def test_preflight_fails_before_any_pass_runs(self, small_device):
        ran = []

        class SpyRouting(RoutingPass):
            def run(self, circuit, properties):
                ran.append(self.name)
                return super().run(circuit, properties)

        manager = PassManager([SpyRouting(), SchedulePass()])
        with pytest.raises(MissingPropertyError, match="SchedulePass.*'operations'"):
            manager.run(
                ghz_circuit(3),
                device=small_device,
                property_set={"layout": {0: 0, 1: 1, 2: 2}},
            )
        assert ran == []  # the impossible composition was rejected up front

    def test_metrics_agree_with_summary_for_external_target(self, small_device):
        """An edited/deserialized target must not split metrics from summary()."""
        snapshot = Target.from_dict(build_target(small_device, "criterion2").to_dict())
        snapshot.coherence_time_ns *= 0.5  # simulate a stale snapshot
        manager = PassManager.default("criterion2")
        compiled = manager.run(ghz_circuit(3), device=small_device, target=snapshot)
        assert manager.property_set["metrics"] == compiled.summary()

    def test_seeded_property_set_satisfies_requires(self, small_device):
        circuit = ghz_circuit(3)
        layout = {0: 0, 1: 1, 2: 2}
        manager = PassManager([RoutingPass(), TranslationPass(), SchedulePass(), MetricsPass()])
        compiled = manager.run(
            circuit,
            device=small_device,
            target=build_target(small_device, "criterion2"),
            property_set={"layout": layout},
        )
        reference = transpile(circuit, small_device, strategy="criterion2", layout=layout)
        assert compiled.summary() == reference.summary()

    def test_custom_analysis_pass_extends_pipeline(self, small_device):
        class TwoQubitCountPass(AnalysisPass):
            requires = ("operations",)
            provides = ("two_qubit_count",)

            def run(self, circuit, properties):
                properties["two_qubit_count"] = sum(
                    1 for op in properties["operations"] if op.kind == "2q"
                )

        manager = PassManager.default("criterion2").append(TwoQubitCountPass())
        compiled = manager.run(bernstein_vazirani(5), device=small_device)
        count = manager.property_set["two_qubit_count"]
        assert count == sum(1 for op in compiled.operations if op.kind == "2q")
        assert count > 0

    def test_analysis_only_pipeline_returns_property_set(self, small_device):
        manager = PassManager([LayoutPass(seed=17), RoutingPass()])
        result = manager.run(bernstein_vazirani(5), device=small_device)
        assert isinstance(result, PropertySet)
        assert "routing" in result and "layout" in result

    def test_explicit_target_skips_device_lookup(self, small_device):
        target = build_target(small_device, "criterion1")
        compiled = PassManager.default("criterion1").run(
            ghz_circuit(3), device=small_device, target=target
        )
        assert compiled.strategy == "criterion1"


class TestBatch:
    def test_serial_batch_stays_lazy(self):
        """Default (serial) batches must not eagerly calibrate the device."""
        device = Device.from_parameters(DeviceParameters(rows=4, cols=4, seed=53))
        transpile_batch([ghz_circuit(3), bernstein_vazirani(3)], device)  # default workers
        for strategy in STRATEGIES:
            target = build_target(device, strategy)
            assert 0 < len(target.selections) < len(device.edges())

    def test_compare_strategies_accepts_an_iterator(self, small_device):
        result = compare_strategies(
            ghz_circuit(3), small_device, strategies=iter(["baseline", "criterion2"])
        )
        assert set(result) == {"baseline", "criterion2"}

    def test_batch_matches_compare_strategies(self, small_device):
        circuits = [ghz_circuit(4), bernstein_vazirani(5), qaoa_circuit(6, 0.4, seed=3)]
        batch = transpile_batch(circuits, small_device, strategies=STRATEGIES, max_workers=2)
        assert len(batch) == len(circuits)
        for circuit, compiled in zip(circuits, batch):
            expected = compare_strategies(circuit, small_device, strategies=STRATEGIES)
            assert set(compiled) == set(STRATEGIES)
            for strategy in STRATEGIES:
                assert compiled[strategy].summary() == expected[strategy].summary()
                assert compiled[strategy].name == (circuit.name or "circuit")

    def test_serial_and_parallel_agree(self, small_device):
        circuits = [bernstein_vazirani(n) for n in (2, 3, 4)]
        serial = transpile_batch(circuits, small_device, max_workers=1)
        parallel = transpile_batch(circuits, small_device, max_workers=3)
        clamped = transpile_batch(circuits, small_device, max_workers=0)  # <= 0: serial
        for left, right, third in zip(serial, parallel, clamped):
            for strategy in STRATEGIES:
                assert left[strategy].summary() == right[strategy].summary()
                assert left[strategy].summary() == third[strategy].summary()

    def test_batch_shares_routing_across_strategies(self, small_device):
        [compiled] = transpile_batch([bernstein_vazirani(5)], small_device)
        routings = {id(c.routing) for c in compiled.values()}
        assert len(routings) == 1  # one layout/routing per circuit, as in the paper

    def test_worker_count_and_executor_determinism(self):
        """Serial, threaded and process-pooled batches must produce
        byte-identical seeded results, in input order."""
        device = Device.from_parameters(DeviceParameters(rows=3, cols=3, seed=53))
        circuits = [
            ghz_circuit(4),
            bernstein_vazirani(5),
            qaoa_circuit(4, 0.5, seed=3),
            bernstein_vazirani(3),
        ]
        serial = transpile_batch(circuits, device, max_workers=1)
        threaded = transpile_batch(circuits, device, max_workers=3)
        pooled = transpile_batch(circuits, device, max_workers=2, executor="process")
        assert len(serial) == len(threaded) == len(pooled) == len(circuits)
        for index, circuit in enumerate(circuits):
            for strategy in STRATEGIES:
                reference = serial[index][strategy]
                assert reference.name == (circuit.name or "circuit")  # input order
                for subject in (threaded[index][strategy], pooled[index][strategy]):
                    assert subject.name == reference.name
                    assert subject.summary() == reference.summary()
                    # Operation-level identity, not just aggregate metrics.
                    assert [
                        (op.kind, tuple(op.qubits), op.duration, op.layers)
                        for op in subject.operations
                    ] == [
                        (op.kind, tuple(op.qubits), op.duration, op.layers)
                        for op in reference.operations
                    ]
                # The parent re-attaches its own device to process results.
                assert pooled[index][strategy].device is device

    def test_externally_supplied_targets_are_used(self, small_device):
        """targets= (e.g. from the fleet's on-disk cache) must replace
        build_target and produce identical results."""
        supplied = {
            strategy: Target.from_dict(build_target(small_device, strategy).to_dict())
            for strategy in STRATEGIES
        }
        circuit = bernstein_vazirani(4)
        [via_supplied] = transpile_batch(
            [circuit], small_device, strategies=STRATEGIES, targets=supplied
        )
        [via_built] = transpile_batch([circuit], small_device, strategies=STRATEGIES)
        for strategy in STRATEGIES:
            assert via_supplied[strategy].summary() == via_built[strategy].summary()

    def test_batch_argument_validation(self, small_device):
        with pytest.raises(ValueError, match="unknown executor"):
            transpile_batch([ghz_circuit(2)], small_device, executor="rayon")
        with pytest.raises(ValueError, match="missing strategies"):
            transpile_batch(
                [ghz_circuit(2)],
                small_device,
                strategies=("baseline",),
                targets={},
            )
