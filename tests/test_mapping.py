"""Tests for the basis-aware mapping layer (CostModel + mapping metrics).

Covers the :class:`~repro.compiler.cost.CostModel` (derivation, lookup,
serialization, cache persistence), the mapping registry, the pluggable
router/layout metric, a golden test pinning the default hop-count mapping
byte-identical to a frozen copy of the pre-refactor SABRE implementation,
routing determinism across seeds on grid and heavy-hex topologies, and the
fleet's mapping-comparison axis.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits import (
    QuantumCircuit,
    bernstein_vazirani,
    cuccaro_adder,
    ghz_circuit,
    qaoa_circuit,
    qft_circuit,
)
from repro.compiler import (
    BasisAwareMetric,
    CostModel,
    HopCountMetric,
    MappingMetric,
    PassManager,
    SabreRouter,
    available_mapping_names,
    build_metric,
    build_target,
    compare_strategies,
    get_mapping_spec,
    greedy_subgraph_layout,
    register_mapping,
    sabre_layout,
    transpile,
    transpile_batch,
)
from repro.compiler.cost import MAPPING_REGISTRY
from repro.compiler.pipeline import compile_with_targets
from repro.device import Device, DeviceParameters
from repro.device.topology import heavy_hex_graph
from repro.fleet import TARGET_CODEC, FleetSpec, TopologySpec, get_target, run_sweep
from repro.store import ContentStore
from repro.synthesis.library import layered_duration

STRATEGIES = ("baseline", "criterion1", "criterion2")


# --------------------------------------------------------------------------
# Frozen pre-refactor reference implementation (seed repository behaviour).
# --------------------------------------------------------------------------


def _seed_greedy_layout(circuit, device, seed=0, metric=None):
    """Verbatim copy of the seed greedy_subgraph_layout (uniform hops).

    ``metric`` swaps the hop count for any metric's scalar ``distance``,
    as for ``_SeedRouter`` below.
    """
    from repro.compiler.layout import interaction_graph

    distance = (metric if metric is not None else HopCountMetric(device)).distance
    rng = np.random.default_rng(seed)
    graph = interaction_graph(circuit)
    order = sorted(
        graph.nodes,
        key=lambda q: sum(d["weight"] for _, _, d in graph.edges(q, data=True)),
        reverse=True,
    )
    best_qubit, best_ecc = 0, None
    for q in range(device.n_qubits):
        ecc = max(distance(q, other) for other in range(device.n_qubits))
        if best_ecc is None or ecc < best_ecc:
            best_qubit, best_ecc = q, ecc
    center = best_qubit
    free = set(range(device.n_qubits))
    layout = {}
    for logical in order:
        placed = [
            (other, graph[logical][other]["weight"])
            for other in graph.neighbors(logical)
            if other in layout
        ]
        if not placed:
            choice = sorted(free, key=lambda p: distance(p, center))[0]
        else:
            def cost(p):
                return sum(w * distance(p, layout[o]) for o, w in placed)

            best_cost = min(cost(p) for p in free)
            best = [p for p in free if cost(p) <= best_cost + 1e-9]
            choice = int(best[rng.integers(len(best))]) if len(best) > 1 else best[0]
        layout[logical] = choice
        free.discard(choice)
    for logical in range(circuit.n_qubits):
        if logical not in layout:
            candidates = sorted(free, key=lambda p: distance(p, center))
            layout[logical] = candidates[0]
            free.discard(candidates[0])
    return layout


class _SeedRouter:
    """Frozen copy of the seed SabreRouter: the golden SABRE reference.

    Re-pinned once: the seed's extended look-ahead set included the
    front-layer gates themselves, double-counting the front term contrary
    to SABRE (the extended set is the successors *beyond* the front).  The
    frozen copy now carries the corrected semantics so the golden test pins
    the fixed algorithm.  ``extended_skips_front=False`` reproduces the
    pre-fix behaviour for the regression test below.

    ``metric`` swaps the uniform hop count for any
    :class:`~repro.compiler.cost.MappingMetric`: scores read its scalar
    ``distance`` and add its ``swap_bias``, so the same dict-based loop is
    the reference for every metric the array-based ``SabreRouter`` serves.
    """

    def __init__(self, device, lookahead_size=20, lookahead_weight=0.5,
                 decay_increment=0.001, seed=17, extended_skips_front=True,
                 metric=None):
        self.device = device
        self.metric = metric if metric is not None else HopCountMetric(device)
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        self.decay_increment = decay_increment
        self.extended_skips_front = extended_skips_front
        self._rng = np.random.default_rng(seed)

    def run(self, circuit, initial_layout):
        physical_of = dict(initial_layout)
        routed = QuantumCircuit(self.device.n_qubits, name=f"{circuit.name}_routed")
        remaining = list(circuit.gates)
        pending_idx = 0
        n = len(remaining)
        executed = [False] * n
        per_qubit = {q: [] for q in range(circuit.n_qubits)}
        for i, gate in enumerate(remaining):
            for q in gate.qubits:
                per_qubit[q].append(i)
        next_ptr = {q: 0 for q in range(circuit.n_qubits)}

        def gate_ready(i):
            gate = remaining[i]
            return all(
                per_qubit[q][next_ptr[q]] == i if next_ptr[q] < len(per_qubit[q]) else False
                for q in gate.qubits
            )

        def advance(i):
            executed[i] = True
            for q in remaining[i].qubits:
                next_ptr[q] += 1

        swap_count = 0
        decay = np.ones(self.device.n_qubits)
        while not all(executed):
            progressed = False
            for i in range(pending_idx, n):
                if executed[i] or not gate_ready(i):
                    continue
                gate = remaining[i]
                if not gate.is_two_qubit:
                    routed.append(gate.with_qubits(*[physical_of[q] for q in gate.qubits]))
                    advance(i)
                    progressed = True
                    continue
                p0, p1 = physical_of[gate.qubits[0]], physical_of[gate.qubits[1]]
                if self.device.has_edge(p0, p1):
                    routed.append(gate.with_qubits(p0, p1))
                    advance(i)
                    progressed = True
            while pending_idx < n and executed[pending_idx]:
                pending_idx += 1
            if all(executed):
                break
            if progressed:
                decay[:] = 1.0
                continue
            front_ids = [
                i
                for i in range(pending_idx, n)
                if not executed[i] and gate_ready(i) and remaining[i].is_two_qubit
            ]
            front = [remaining[i] for i in front_ids]
            skip = frozenset(front_ids) if self.extended_skips_front else frozenset()
            extended = []
            for i in range(pending_idx, n):
                if executed[i] or not remaining[i].is_two_qubit or i in skip:
                    continue
                extended.append(remaining[i])
                if len(extended) >= self.lookahead_size:
                    break
            candidate_swaps = set()
            for gate in front:
                for logical in gate.qubits:
                    phys = physical_of[logical]
                    for neighbor in self.device.neighbors(phys):
                        candidate_swaps.add(tuple(sorted((phys, neighbor))))

            def score(swap):
                a, b = swap
                trial = dict(physical_of)
                inverse = {p: l for l, p in trial.items()}
                la, lb = inverse.get(a), inverse.get(b)
                if la is not None:
                    trial[la] = b
                if lb is not None:
                    trial[lb] = a
                front_cost = sum(
                    self.metric.distance(trial[g.qubits[0]], trial[g.qubits[1]])
                    for g in front
                )
                front_cost /= max(len(front), 1)
                extended_cost = 0.0
                if extended:
                    extended_cost = sum(
                        self.metric.distance(trial[g.qubits[0]], trial[g.qubits[1]])
                        for g in extended
                    ) / len(extended)
                return float(
                    max(decay[a], decay[b])
                    * (
                        front_cost
                        + self.lookahead_weight * extended_cost
                        + self.metric.swap_bias(a, b)
                    )
                )

            swaps = sorted(candidate_swaps)
            scores = np.array([score(s) for s in swaps])
            best = np.flatnonzero(scores <= scores.min() + 1e-12)
            choice = int(best[self._rng.integers(len(best))]) if len(best) > 1 else int(best[0])
            a_phys, b_phys = swaps[choice]
            routed.swap(a_phys, b_phys)
            swap_count += 1
            decay[a_phys] += self.decay_increment
            decay[b_phys] += self.decay_increment
            inverse = {p: l for l, p in physical_of.items()}
            la, lb = inverse.get(a_phys), inverse.get(b_phys)
            if la is not None:
                physical_of[la] = b_phys
            if lb is not None:
                physical_of[lb] = a_phys
        return routed, dict(physical_of), swap_count


def _seed_sabre_layout(circuit, device, router, iterations=1, seed=17):
    """Verbatim copy of the seed sabre_layout driving the frozen router."""
    layout = _seed_greedy_layout(circuit, device, seed=seed)
    reversed_circuit = circuit.copy()
    reversed_circuit.gates = list(reversed(circuit.gates))
    for _ in range(iterations):
        _, layout, _ = router.run(circuit, layout)
        _, layout, _ = router.run(reversed_circuit, layout)
    return layout


def _gate_stream(circuit):
    return [(g.name, tuple(g.qubits), tuple(g.params)) for g in circuit.gates]


@pytest.fixture(scope="module")
def heavy_hex_device():
    return Device(graph=heavy_hex_graph(1), params=DeviceParameters(seed=7))


class TestGoldenDefaultMapping:
    """The default hop-count path must equal the pre-refactor pipeline."""

    CIRCUITS = (
        ("ghz_5", lambda: ghz_circuit(5)),
        ("bv_6", lambda: bernstein_vazirani(6)),
        ("qaoa", lambda: qaoa_circuit(7, 0.4, seed=3)),
        ("qft_5", lambda: qft_circuit(5)),
    )

    @pytest.mark.parametrize("name,factory", CIRCUITS, ids=[c[0] for c in CIRCUITS])
    def test_routing_byte_identical_to_seed_implementation(
        self, small_device, heavy_hex_device, name, factory
    ):
        """Gate-by-gate identity, not just aggregate metrics, on both a grid
        and a heavy-hex device."""
        for device in (small_device, heavy_hex_device):
            circuit = factory()
            frozen_router = _SeedRouter(device, seed=17)
            expected_layout = _seed_sabre_layout(circuit, device, frozen_router)
            routed, final_layout, swaps = frozen_router.run(circuit, expected_layout)

            router = SabreRouter(device, seed=17)
            layout = sabre_layout(circuit, device, router=router, iterations=1, seed=17)
            assert layout == expected_layout
            result = router.run(circuit, layout)
            assert result.swap_count == swaps
            assert result.final_layout == final_layout
            assert _gate_stream(result.circuit) == _gate_stream(routed)

    def test_transpile_defaults_to_hop_count(self, small_device):
        circuit = bernstein_vazirani(5)
        default = transpile(circuit, small_device, strategy="criterion2")
        explicit = transpile(
            circuit, small_device, strategy="criterion2", mapping="hop_count"
        )
        assert default.summary() == explicit.summary()
        assert [
            (op.kind, op.qubits, op.duration, op.layers) for op in default.operations
        ] == [(op.kind, op.qubits, op.duration, op.layers) for op in explicit.operations]


class TestExtendedSetRegression:
    """Regression for the PR 7 look-ahead fix: the extended set must contain
    only successors *beyond* the front layer (SABRE, Li/Ding/Xie 2019), not
    the front gates themselves.  Fails against the pre-fix implementation,
    which ``_SeedRouter(extended_skips_front=False)`` reproduces."""

    def test_front_gates_excluded_from_lookahead(self, small_device):
        circuit = qft_circuit(5)
        corrected = _SeedRouter(small_device, seed=17)
        buggy = _SeedRouter(small_device, seed=17, extended_skips_front=False)
        corrected_layout = _seed_sabre_layout(circuit, small_device, corrected)
        buggy_layout = _seed_sabre_layout(circuit, small_device, buggy)
        # The bug is observable on this case: double-counting the front term
        # biases swap scores enough to change the chosen layout.
        assert corrected_layout != buggy_layout

        router = SabreRouter(small_device, seed=17)
        layout = sabre_layout(
            circuit, small_device, router=router, iterations=1, seed=17
        )
        assert layout == corrected_layout
        assert layout != buggy_layout

    def test_routed_streams_diverge_from_buggy_reference(self, small_device):
        """Same layout, same RNG state: only the extended-set semantics
        differ, and the routed gate streams diverge."""
        circuit = qft_circuit(8)
        layout = _seed_sabre_layout(
            circuit, small_device, _SeedRouter(small_device, seed=0), seed=0
        )
        routed_good, _, _ = _SeedRouter(small_device, seed=0).run(
            circuit, dict(layout)
        )
        routed_bad, _, _ = _SeedRouter(
            small_device, seed=0, extended_skips_front=False
        ).run(circuit, dict(layout))
        assert _gate_stream(routed_good) != _gate_stream(routed_bad)

        result = SabreRouter(small_device, seed=0).run(circuit, layout)
        assert _gate_stream(result.circuit) == _gate_stream(routed_good)
        assert _gate_stream(result.circuit) != _gate_stream(routed_bad)


class _SkewedHops(MappingMetric):
    """A float metric defined only through the scalar methods: hop counts
    scaled per pair, plus a per-edge SWAP bias."""

    name = "skewed_hops_test"

    def distance(self, a, b):
        return self.device.distance(a, b) * (1.0 + 0.1 * ((a * b) % 3))

    def swap_bias(self, a, b):
        return 0.05 * ((a + b) % 4)


class TestVectorizedReferenceIdentity:
    """Golden byte-identity harness: the array-based router must match the
    frozen dict-based reference (``_SeedRouter``) gate-by-gate across
    topologies, seeds, and mapping metrics."""

    TOPOLOGIES = (
        ("grid", lambda: Device.from_parameters(DeviceParameters(rows=3, cols=3, seed=53))),
        ("linear", lambda: Device.from_parameters(DeviceParameters(rows=1, cols=8, seed=5))),
        ("heavy_hex", lambda: Device(graph=heavy_hex_graph(1), params=DeviceParameters(seed=7))),
    )

    @pytest.mark.parametrize("seed", (0, 17, 123))
    @pytest.mark.parametrize(
        "topology,factory", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES]
    )
    @pytest.mark.parametrize("mapping", ("hop_count", "basis_aware", "skewed_hops"))
    def test_vectorized_matches_reference_gate_by_gate(
        self, topology, factory, seed, mapping
    ):
        """``skewed_hops`` is a custom metric defined only through the
        scalar ``distance`` and ``swap_bias``; the base class builds the
        dense matrices the router reads."""
        device = factory()
        if mapping == "skewed_hops":
            metric = _SkewedHops(device)
        else:
            metric = build_metric(
                mapping,
                device,
                cost_model=(
                    build_target(device, "criterion2").cost_model()
                    if get_mapping_spec(mapping).requires_cost_model
                    else None
                ),
            )
        for circuit in (qft_circuit(5), cuccaro_adder(6), qaoa_circuit(6, 0.5, seed=3)):
            layout = sabre_layout(circuit, device, iterations=1, seed=seed)
            got = SabreRouter(device, seed=seed, metric=metric).run(circuit, layout)
            routed, final_layout, swaps = _SeedRouter(
                device, seed=seed, metric=metric
            ).run(circuit, layout)
            assert _gate_stream(got.circuit) == _gate_stream(routed)
            assert got.final_layout == final_layout
            assert got.swap_count == swaps
            assert got.initial_layout == layout
            assert greedy_subgraph_layout(
                circuit, device, seed=seed, metric=metric
            ) == _seed_greedy_layout(circuit, device, seed=seed, metric=metric)


class TestDisconnectedDevice:
    """Two coupling components: routing raises only when it must score a
    pair across them, and layout (which compares every pair) raises up
    front."""

    @pytest.fixture(scope="class")
    def device(self):
        import networkx as nx

        graph = nx.Graph([(0, 1), (1, 2), (3, 4)])
        return Device(graph=graph, params=DeviceParameters(seed=5))

    @staticmethod
    def _route(device, pairs, n_qubits):
        circuit = QuantumCircuit(n_qubits)
        for a, b in pairs:
            circuit.cx(a, b)
        identity = {q: q for q in range(n_qubits)}
        return SabreRouter(device, seed=17).run(circuit, identity)

    def test_adjacent_gates_route_without_swaps(self, device):
        result = self._route(device, [(0, 1), (1, 2), (3, 4)], 5)
        assert result.swap_count == 0
        assert _gate_stream(result.circuit) == [
            ("cx", (0, 1), ()),
            ("cx", (1, 2), ()),
            ("cx", (3, 4), ()),
        ]

    def test_in_component_gate_routes_with_one_swap(self, device):
        result = self._route(device, [(0, 2)], 3)
        assert result.swap_count == 1

    def test_cross_component_gate_raises(self, device):
        with pytest.raises(ValueError, match="not connected"):
            self._route(device, [(0, 3)], 4)
        with pytest.raises(ValueError, match="not connected"):
            sabre_layout(ghz_circuit(3), device, seed=17)


class TestRoutingDeterminism:
    """Same seed -> identical results, run to run and device rebuild to
    rebuild, on grid and heavy-hex topologies."""

    @pytest.mark.parametrize("seed", (0, 7, 17))
    @pytest.mark.parametrize("topology", ("grid", "heavy_hex"))
    @pytest.mark.parametrize("mapping", ("hop_count", "basis_aware"))
    def test_repeat_compilations_are_identical(self, topology, seed, mapping):
        def fresh_device():
            if topology == "grid":
                return Device.from_parameters(DeviceParameters(rows=3, cols=3, seed=53))
            return Device(graph=heavy_hex_graph(1), params=DeviceParameters(seed=7))

        circuit = qaoa_circuit(6, 0.5, seed=3)
        first = transpile(
            circuit, fresh_device(), strategy="criterion2", seed=seed, mapping=mapping
        )
        second = transpile(
            circuit, fresh_device(), strategy="criterion2", seed=seed, mapping=mapping
        )
        assert _gate_stream(first.routing.circuit) == _gate_stream(second.routing.circuit)
        assert first.routing.initial_layout == second.routing.initial_layout
        assert first.summary() == second.summary()


class TestCostModel:
    def test_from_target_derives_expected_numbers(self, small_device):
        target = build_target(small_device, "criterion2")
        model = CostModel.from_target(target)
        assert model.strategy == "criterion2"
        assert model.n_qubits == small_device.n_qubits
        assert model.edges() == small_device.edges()
        one_q = small_device.single_qubit_duration
        coherence = small_device.coherence_time_ns
        for edge in small_device.edges():
            selection = target.basis_gate(edge)
            cost = model.edge_cost(edge)
            assert cost.swap_layers == selection.swap_layers
            assert cost.cnot_layers == selection.cnot_layers
            assert cost.basis_duration == selection.duration
            assert cost.swap_duration == layered_duration(
                selection.swap_layers, selection.duration, one_q
            )
            assert cost.cnot_duration == layered_duration(
                selection.cnot_layers, selection.duration, one_q
            )
            assert cost.swap_log_infidelity == pytest.approx(
                2.0 * cost.swap_duration / coherence
            )

    def test_edge_cost_normalises_order_and_validates(self, small_device):
        model = build_target(small_device, "criterion2").cost_model()
        a, b = small_device.edges()[0]
        assert model.edge_cost((b, a)) is model.edge_cost((a, b))
        assert model.has_edge(b, a)
        with pytest.raises(ValueError, match="not an edge"):
            model.edge_cost((0, small_device.n_qubits + 3))

    def test_swap_weights_normalised_to_unit_mean(self, small_device):
        model = build_target(small_device, "criterion1").cost_model()
        weights = model.swap_weights()
        assert set(weights) == set(small_device.edges())
        assert np.mean(list(weights.values())) == pytest.approx(1.0)
        assert all(w > 0 for w in weights.values())

    def test_serialization_round_trip_is_exact(self, small_device):
        model = build_target(small_device, "criterion2").cost_model()
        clone = CostModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert clone.strategy == model.strategy
        assert clone.n_qubits == model.n_qubits
        assert clone.one_qubit_duration == model.one_qubit_duration
        assert clone.coherence_time_ns == model.coherence_time_ns
        assert clone.edge_costs == model.edge_costs  # frozen dataclass equality

    def test_cost_model_memoised_on_target(self, small_device):
        target = build_target(small_device, "criterion2")
        assert target.cost_model() is target.cost_model()

    def test_attach_rejects_foreign_strategy(self, small_device):
        model = build_target(small_device, "criterion1").cost_model()
        target = build_target(small_device, "criterion2")
        with pytest.raises(ValueError, match="criterion1"):
            target.copy().attach_cost_model(model)

    def test_matches_options_guards_one_qubit_duration(self, small_device):
        from repro.compiler import TranslationOptions

        target = build_target(small_device, "criterion2")
        model = target.cost_model()
        assert model.matches_options("criterion2", target.translation_options())
        assert not model.matches_options("criterion1", target.translation_options())
        assert not model.matches_options(
            "criterion2", TranslationOptions(one_qubit_duration=35.0)
        )


class TestMappingRegistry:
    def test_builtin_mappings_registered(self):
        names = available_mapping_names()
        assert "hop_count" in names and "basis_aware" in names
        assert not get_mapping_spec("hop_count").requires_cost_model
        assert get_mapping_spec("basis_aware").requires_cost_model

    def test_unknown_mapping_diagnosed_everywhere(self, small_device):
        circuit = ghz_circuit(3)
        with pytest.raises(ValueError, match="registered mappings"):
            transpile(circuit, small_device, mapping="nope")
        with pytest.raises(ValueError, match="registered mappings"):
            transpile_batch([circuit], small_device, mapping="nope")
        with pytest.raises(ValueError, match="registered mappings"):
            PassManager.default("criterion2", mapping="nope")
        with pytest.raises(ValueError, match="registered mappings"):
            build_metric("nope", small_device)
        with pytest.raises(ValueError, match="registered mappings"):
            FleetSpec(topologies=(TopologySpec.linear(3),), mappings=("nope",))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mapping("hop_count")(lambda device, cost_model: None)

    def test_custom_mapping_flows_through_transpile(self, small_device):
        @register_mapping("hops_again_test")
        def _factory(device, cost_model):
            return HopCountMetric(device)

        try:
            circuit = bernstein_vazirani(4)
            via_custom = transpile(
                circuit, small_device, strategy="criterion2", mapping="hops_again_test"
            )
            reference = transpile(circuit, small_device, strategy="criterion2")
            assert via_custom.summary() == reference.summary()
        finally:
            del MAPPING_REGISTRY["hops_again_test"]

    def test_basis_aware_requires_cost_model(self, small_device):
        with pytest.raises(ValueError, match="CostModel"):
            get_mapping_spec("basis_aware").build(small_device)
        with pytest.raises(ValueError, match="CostModel"):
            BasisAwareMetric(small_device, None)


class TestBasisAwareMetric:
    def test_distances_against_reference_dijkstra(self, small_device):
        """Metric distances must equal an independent weighted-shortest-path
        computation over the normalised SWAP weights."""
        import networkx as nx

        model = build_target(small_device, "criterion2").cost_model()
        metric = BasisAwareMetric(small_device, model)
        graph = nx.Graph()
        for (a, b), weight in model.swap_weights().items():
            graph.add_edge(a, b, weight=weight)
        expected = dict(nx.all_pairs_dijkstra_path_length(graph, weight="weight"))
        for a in range(0, small_device.n_qubits, 3):
            for b in range(small_device.n_qubits):
                assert metric.distance(a, b) == pytest.approx(expected[a][b])
        a, b = small_device.edges()[0]
        assert metric.swap_bias(a, b) == metric.swap_bias(b, a)
        assert metric.swap_bias(a, b) == model.swap_weights()[(a, b)]

    def test_hop_metric_is_integer_device_distance(self, small_device):
        metric = HopCountMetric(small_device)
        assert metric.distance(0, 15) == small_device.distance(0, 15)
        assert metric.swap_bias(0, 1) == 0.0


class TestBasisAwarePipeline:
    def test_pass_manager_publishes_cost_model_and_metric(self, small_device):
        manager = PassManager.default("criterion2", mapping="basis_aware")
        compiled = manager.run(qft_circuit(4), device=small_device)
        props = manager.property_set
        assert isinstance(props["cost_model"], CostModel)
        assert isinstance(props["mapping_metric"], BasisAwareMetric)
        assert props["cost_model"] is build_target(small_device, "criterion2").cost_model()
        # Metrics pass and result object must agree under the new mapping too.
        assert props["metrics"] == compiled.summary()

    def test_basis_aware_routing_differs_per_strategy(self, heavy_hex_device):
        """Each strategy's cost model shapes its own routing (the shared
        routing invariant only holds for basis-agnostic mappings)."""
        circuit = qft_circuit(5)
        shared = compare_strategies(circuit, heavy_hex_device, strategies=STRATEGIES)
        assert len({id(c.routing) for c in shared.values()}) == 1
        aware = compare_strategies(
            circuit, heavy_hex_device, strategies=STRATEGIES, mapping="basis_aware"
        )
        assert len({id(c.routing) for c in aware.values()}) == len(STRATEGIES)

    def test_heavy_hex_improvement(self, heavy_hex_device):
        """The acceptance-criterion behaviour: on heavy-hex scenarios the
        cost-aware router reduces SWAP-synthesis time (and never silently
        degrades correctness -- every routed gate still lands on an edge)."""
        improved = 0
        for circuit in (qft_circuit(5), cuccaro_adder(6)):
            hop = transpile(circuit, heavy_hex_device, strategy="criterion2")
            aware = transpile(
                circuit, heavy_hex_device, strategy="criterion2", mapping="basis_aware"
            )
            for gate in aware.routing.circuit.two_qubit_gates():
                assert heavy_hex_device.has_edge(*gate.qubits)
            if (
                aware.swap_duration_ns < hop.swap_duration_ns
                or aware.fidelity > hop.fidelity
            ):
                improved += 1
        assert improved >= 1

    def test_batch_executors_agree_under_basis_aware(self):
        """Serial, threaded and process-pooled basis-aware batches must be
        byte-identical (cost models re-derived in workers from round-tripped
        selections)."""
        device = Device.from_parameters(DeviceParameters(rows=3, cols=3, seed=53))
        circuits = [qft_circuit(4), bernstein_vazirani(5), cuccaro_adder(6)]
        serial = transpile_batch(circuits, device, mapping="basis_aware")
        threaded = transpile_batch(
            circuits, device, mapping="basis_aware", max_workers=3
        )
        pooled = transpile_batch(
            circuits, device, mapping="basis_aware", max_workers=2, executor="process"
        )
        for index in range(len(circuits)):
            for strategy in STRATEGIES:
                reference = serial[index][strategy]
                for subject in (threaded[index][strategy], pooled[index][strategy]):
                    assert subject.summary() == reference.summary()
                    assert [
                        (op.kind, tuple(op.qubits), op.duration, op.layers)
                        for op in subject.operations
                    ] == [
                        (op.kind, tuple(op.qubits), op.duration, op.layers)
                        for op in reference.operations
                    ]

    def test_compile_with_targets_rejects_foreign_cost_models(self, small_device):
        """A supplied cost model must match its strategy's target -- the same
        contract Target.attach_cost_model and TranslationPass enforce."""
        targets = {"criterion2": build_target(small_device, "criterion2")}
        foreign = build_target(small_device, "criterion1").cost_model()
        with pytest.raises(ValueError, match="criterion1"):
            compile_with_targets(
                ghz_circuit(3),
                small_device,
                targets,
                mapping="basis_aware",
                cost_models={"criterion2": foreign},
            )

    def test_batch_builds_each_metric_once(self, small_device, monkeypatch):
        """The all-pairs weighted distance matrix depends only on
        (device, cost model): a batch must build one metric per strategy,
        not one per circuit."""
        import repro.compiler.cost as cost_module

        calls: list[str] = []
        original = BasisAwareMetric.__init__

        def counting(self, device, cost_model):
            calls.append(cost_model.strategy)
            original(self, device, cost_model)

        monkeypatch.setattr(cost_module.BasisAwareMetric, "__init__", counting)
        circuits = [ghz_circuit(3), bernstein_vazirani(4), qft_circuit(4)]
        transpile_batch(
            circuits, small_device, strategies=("criterion1", "criterion2"),
            mapping="basis_aware",
        )
        assert sorted(calls) == ["criterion1", "criterion2"]

    def test_routing_pass_rejects_mismatched_mapping(self, small_device):
        """RoutingPass must not silently reuse a router built under another
        mapping -- the requested metric would never run."""
        from repro.compiler import LayoutPass, RoutingPass, SchedulePass, TranslationPass

        manager = PassManager(
            [
                LayoutPass(seed=17),  # hop_count
                RoutingPass(seed=17, mapping="basis_aware"),
                TranslationPass(),
                SchedulePass(),
            ],
            strategy="criterion2",
        )
        with pytest.raises(ValueError, match="same mapping"):
            manager.run(ghz_circuit(3), device=small_device)
        # Matched mappings on both passes stay accepted.
        matched = PassManager(
            [
                LayoutPass(seed=17, mapping="basis_aware"),
                RoutingPass(seed=17, mapping="basis_aware"),
                TranslationPass(),
                SchedulePass(),
            ],
            strategy="criterion2",
        ).run(ghz_circuit(3), device=small_device)
        assert matched.summary() == transpile(
            ghz_circuit(3), small_device, strategy="criterion2", mapping="basis_aware"
        ).summary()

    def test_seeded_cost_model_must_match_target_strategy(self, small_device):
        """A PropertySet-seeded cost model from another strategy must fail
        loudly -- routing against foreign edge costs would be silently wrong."""
        foreign = build_target(small_device, "criterion1").cost_model()
        manager = PassManager.default("criterion2", mapping="basis_aware")
        with pytest.raises(ValueError, match="criterion1"):
            manager.run(
                ghz_circuit(3), device=small_device, property_set={"cost_model": foreign}
            )

    def test_routing_pass_rejects_seeded_router_with_foreign_metric(self, small_device):
        """A router seeded directly into the PropertySet has no mapping
        provenance; a non-default mapping request must still fail loudly
        when the seeded metric does not match."""
        from repro.compiler import RoutingPass, SchedulePass, TranslationPass

        manager = PassManager(
            [RoutingPass(seed=17, mapping="basis_aware"), TranslationPass(), SchedulePass()],
            strategy="criterion2",
        )
        with pytest.raises(ValueError, match="hop_count"):
            manager.run(
                ghz_circuit(3),
                device=small_device,
                property_set={
                    "layout": {0: 0, 1: 1, 2: 2},
                    "router": SabreRouter(small_device, seed=17),  # hop-count metric
                },
            )

    def test_sabre_layout_rejects_conflicting_router_and_metric(self, small_device):
        model = build_target(small_device, "criterion2").cost_model()
        router = SabreRouter(small_device, seed=17)
        with pytest.raises(ValueError, match="different metric"):
            sabre_layout(
                ghz_circuit(3),
                small_device,
                router=router,
                metric=BasisAwareMetric(small_device, model),
            )
        # The router's own metric (same object) stays accepted.
        layout = sabre_layout(
            ghz_circuit(3), small_device, router=router, metric=router.metric
        )
        assert len(layout) == 3

    def test_translation_identical_with_and_without_cost_model(self, small_device):
        """The cost-model fast path must not change a single operation."""
        from repro.compiler import translate_operations

        circuit = qft_circuit(5)
        compiled = transpile(circuit, small_device, strategy="criterion2")
        target = build_target(small_device, "criterion2")
        options = target.translation_options()
        routed = compiled.routing.circuit
        plain = translate_operations(routed, target.basis_gate, options)
        fast = translate_operations(
            routed, target.basis_gate, options, cost_model=target.cost_model()
        )
        assert plain == fast


class TestCachePersistsCostModels:
    def test_cache_round_trips_cost_model(self, tmp_path):
        device = Device.from_parameters(DeviceParameters(rows=1, cols=4, seed=53))
        cache = ContentStore(TARGET_CODEC, 4, tmp_path)
        built, _ = get_target(cache, device, "criterion2")
        expected = built.cost_model()

        fresh = ContentStore(TARGET_CODEC, 4, tmp_path)
        loaded, _ = get_target(fresh, device, "criterion2")
        assert fresh.stats.disk_hits == 1
        # The attached model is served from disk, not re-derived...
        assert getattr(loaded, "_cost_model", None) is not None
        # ...and is float-exact against the freshly derived one.
        assert loaded.cost_model().edge_costs == expected.edge_costs

    def test_entry_without_cost_model_is_a_miss(self, tmp_path):
        """Entries without a cost_model payload (pre-v2), or with a cost row
        lacking basis_coordinates (pre-v3), must be rebuilt, not
        half-loaded."""

        def drop_payload(data):
            del data["cost_model"]

        def drop_coordinates(data):
            del data["cost_model"]["edge_costs"][0]["basis_coordinates"]

        device = Device.from_parameters(DeviceParameters(rows=1, cols=4, seed=53))
        for corrupt in (drop_payload, drop_coordinates):
            cache = ContentStore(TARGET_CODEC, 4, tmp_path)
            get_target(cache, device, "criterion2")
            [entry] = cache.entries()
            data = json.loads(entry.read_text())
            corrupt(data)
            entry.write_text(json.dumps(data))
            fresh = ContentStore(TARGET_CODEC, 4, tmp_path)
            rebuilt, source = get_target(fresh, device, "criterion2")
            assert source == "built" and fresh.stats.disk_hits == 0
            assert getattr(rebuilt, "_cost_model", None) is not None


#: Heavy-hex fleet slice exercising both mappings (the PR acceptance cell).
MAPPING_SPEC = FleetSpec(
    topologies=(TopologySpec.heavy_hex(1),),
    draws=1,
    base_seed=7,
    strategies=("baseline", "criterion2"),
    circuits=("qft_5", "cuccaro_6"),
    mappings=("hop_count", "basis_aware"),
)


class TestFleetMappingAxis:
    def test_sweep_shape_labels_and_comparison(self):
        result = run_sweep(MAPPING_SPEC)
        expected_cells = (
            MAPPING_SPEC.device_count
            * len(MAPPING_SPEC.circuits)
            * len(MAPPING_SPEC.strategies)
            * len(MAPPING_SPEC.mappings)
        )
        assert len(result.cells) == expected_cells
        assert set(result.aggregates) == {
            "baseline",
            "criterion2",
            "baseline+basis_aware",
            "criterion2+basis_aware",
        }
        # Reference-mapping aggregates keep the bare strategy keys.
        assert result.aggregates["baseline"].mapping == "hop_count"
        assert result.aggregates["criterion2+basis_aware"].mapping == "basis_aware"
        # Every cell row carries its mapping and swap-duration.
        assert {c.mapping for c in result.cells} == set(MAPPING_SPEC.mappings)
        assert all(c.swap_duration_ns >= 0 for c in result.cells)

        comparison = result.mapping_comparison
        assert comparison is not None
        assert {(row["strategy"], row["mapping"]) for row in comparison} == {
            ("baseline", "basis_aware"),
            ("criterion2", "basis_aware"),
        }
        for row in comparison:
            assert row["cells"] == len(MAPPING_SPEC.circuits)
            assert row["baseline_mapping"] == "hop_count"
        # The acceptance criterion: basis-aware mapping improves swap
        # duration or fidelity on at least one heavy-hex cell.
        assert any(
            row["swap_duration_win_rate"] > 0 or row["fidelity_win_rate"] > 0
            for row in comparison
        )
        table = result.format_mapping_table()
        assert "basis_aware" in table

    def test_single_mapping_sweep_has_no_comparison(self):
        result = run_sweep(replace(MAPPING_SPEC, mappings=("hop_count",)))
        assert result.mapping_comparison is None
        assert set(result.aggregates) == {"baseline", "criterion2"}
        assert result.format_mapping_table() == ""

    def test_warm_cache_reproduces_basis_aware_cells(self, tmp_path):
        """A warm sweep serves detached targets + deserialized cost models;
        its basis-aware cells must be byte-identical to the cold run's."""
        spec = replace(MAPPING_SPEC, cache_dir=str(tmp_path / "cache"))
        cold = run_sweep(spec)
        warm = run_sweep(spec)
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hit_rate"] == 1.0
        assert [c.as_dict() for c in warm.cells] == [c.as_dict() for c in cold.cells]

    def test_fleet_spec_mapping_validation(self):
        with pytest.raises(ValueError, match="at least one mapping"):
            FleetSpec(topologies=(TopologySpec.linear(3),), mappings=())
        with pytest.raises(ValueError, match="duplicate"):
            FleetSpec(
                topologies=(TopologySpec.linear(3),),
                mappings=("hop_count", "hop_count"),
            )
        spec = FleetSpec(
            topologies=(TopologySpec.linear(3),),
            mappings=("basis_aware", "hop_count"),
        )
        assert spec.baseline_mapping == "basis_aware"

    def test_cli_mapping_flag(self, tmp_path, capsys):
        from repro.fleet.__main__ import main as fleet_main

        output = tmp_path / "fleet.json"
        result = fleet_main(
            [
                "--topology", "heavy_hex:1",
                "--draws", "1",
                "--seed", "7",
                "--strategies", "criterion2",
                "--baseline", "criterion2",
                "--circuits", "qft_5",
                "--mappings", "hop_count", "basis_aware",
                "--output", str(output),
            ]
        )
        printed = capsys.readouterr().out
        assert "basis_aware" in printed
        assert "Mapping vs 'hop_count'" in printed
        data = json.loads(output.read_text())
        assert data["spec"]["mappings"] == ["hop_count", "basis_aware"]
        assert len(data["mapping_comparison"]) == 1
        assert {cell["mapping"] for cell in data["cells"]} == {
            "hop_count",
            "basis_aware",
        }
        assert len(result.cells) == 2
