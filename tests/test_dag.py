"""Tests for the DAG circuit IR and the 2Q-block consolidation optimizer.

Three layers of proof:

* **structural** -- lossless ``to_dag``/``to_circuit`` round-trips, block
  collection, edge cases (empty / 1Q-only / disconnected circuits), and
  determinism under pickling;
* **semantic** -- the property suite: random seeded circuits across every
  small topology and both mapping metrics, asserting the optimized pipeline
  output is unitary-equivalent to the unoptimized one (chained through the
  routing identity) and never deeper;
* **golden** -- pinned block counts and post-optimizer numbers for the
  ``heavy_hex:2`` benchmark cells, plus byte-identity of ``optimize=False``
  against the pre-optimizer pipeline.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equivalence import assert_compiled_equivalent
from repro.circuits import (
    DAGCircuit,
    QuantumCircuit,
    circuits_equivalent,
    ghz_circuit,
    phase_distance,
    qft_circuit,
    routed_equivalent,
)
from repro.circuits.circuit import Gate
from repro.circuits.library import cuccaro_adder, random_two_qubit_circuit
from repro.compiler import (
    OptimizationPass,
    PassManager,
    collect_blocks,
    consolidate_blocks,
    transpile,
    verify_consolidation,
)
from repro.compiler.basis_translation import TranslationOptions
from repro.compiler.pipeline.target import build_target
from repro.device import Device, DeviceParameters
from repro.fleet import TopologySpec, build_circuit
from repro.synthesis import DEPTH_ORACLE_VERSION, CoverageSetOracle

ROOT = Path(__file__).resolve().parents[1]

#: Topologies small enough for dense unitary contraction of the routed
#: (physical-width) circuit.
PROPERTY_TOPOLOGIES = ("linear:6", "grid:2x3", "grid:3x3")
PROPERTY_MAPPINGS = ("hop_count", "basis_aware")


def _device(label: str, seed: int = 11) -> Device:
    topology = TopologySpec.parse(label)
    return Device(graph=topology.graph(), params=DeviceParameters(seed=seed))


_DEVICES: dict[str, Device] = {}


def _cached_device(label: str) -> Device:
    if label not in _DEVICES:
        _DEVICES[label] = _device(label)
    return _DEVICES[label]


# -- DAG round-trips -----------------------------------------------------------


class TestDagRoundTrip:
    @pytest.mark.parametrize(
        "circuit",
        [
            qft_circuit(4),
            ghz_circuit(6),
            cuccaro_adder(8),
            random_two_qubit_circuit(5, 30, seed=9),
        ],
        ids=lambda c: c.name,
    )
    def test_lossless(self, circuit):
        dag = circuit.to_dag()
        rebuilt = dag.to_circuit()
        assert rebuilt.n_qubits == circuit.n_qubits
        assert rebuilt.name == circuit.name
        assert rebuilt.gates == circuit.gates

    def test_wire_edges_follow_dependencies(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 2)
        circuit.cx(1, 2)
        dag = circuit.to_dag()
        assert dag.predecessors[0] == ()
        assert dag.predecessors[1] == (0,)
        assert dag.predecessors[2] == ()
        assert dag.predecessors[3] == (1, 2)
        assert dag.successors[1] == (3,)
        assert {node.index for node in dag.front_layer()} == {0, 2}
        assert [node.index for node in dag.two_qubit_nodes()] == [1, 3]

    def test_empty_circuit(self):
        circuit = QuantumCircuit(4, name="empty")
        dag = circuit.to_dag()
        assert len(dag) == 0
        rebuilt = dag.to_circuit()
        assert rebuilt.gates == []
        assert rebuilt.n_qubits == 4

    def test_single_qubit_only(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.rz(0.5, 0)
        circuit.x(1)
        dag = circuit.to_dag()
        assert dag.to_circuit().gates == circuit.gates
        assert dag.two_qubit_nodes() == []

    def test_disconnected_qubits(self):
        # Gates on {0,1} and {4,5}; wires 2-3 never touched.
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(4, 5)
        circuit.cx(0, 1)
        dag = circuit.to_dag()
        assert dag.to_circuit().gates == circuit.gates
        # The two components share no wire edges.
        assert dag.predecessors[1] == ()
        assert dag.predecessors[2] == (0,)

    def test_cycle_detection(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        dag = circuit.to_dag()
        # Corrupt the DAG into a 2-cycle; to_circuit must refuse.
        dag.predecessors = {0: (1,), 1: (0,)}
        dag.successors = {0: (1,), 1: (0,)}
        with pytest.raises(ValueError, match="cycle"):
            dag.to_circuit()

    def test_pickle_determinism(self):
        circuit = random_two_qubit_circuit(5, 25, seed=4)
        dag = circuit.to_dag()
        copy = pickle.loads(pickle.dumps(dag))
        assert copy.to_circuit().gates == circuit.gates
        assert pickle.dumps(copy) == pickle.dumps(dag)
        # from_circuit is itself deterministic gate-for-gate.
        again = DAGCircuit.from_circuit(circuit)
        assert again.predecessors == dag.predecessors
        assert again.successors == dag.successors


# -- block collection and consolidation ----------------------------------------


class TestBlocks:
    def test_every_two_qubit_gate_in_exactly_one_block(self):
        circuit = random_two_qubit_circuit(6, 40, seed=2)
        blocks = collect_blocks(circuit.to_dag())
        claimed: list[int] = []
        for block in blocks:
            claimed.extend(
                i for i in block.indices if circuit.gates[i].is_two_qubit
            )
        expected = [i for i, g in enumerate(circuit.gates) if g.is_two_qubit]
        assert sorted(claimed) == expected

    def test_interleaved_1q_absorbed_trailing_left_out(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.2, 0)  # interleaved: committed when the next cx arrives
        circuit.cx(0, 1)
        circuit.h(1)  # trailing: stays outside the block
        blocks = collect_blocks(circuit.to_dag())
        assert len(blocks) == 1
        assert blocks[0].indices == (0, 1, 2)
        assert blocks[0].two_qubit_count == 2

    def test_conflicting_edge_closes_block(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)  # shares qubit 1: closes the (0,1) block
        circuit.cx(0, 1)
        blocks = collect_blocks(circuit.to_dag())
        assert [block.edge for block in blocks] == [(0, 1), (1, 2), (0, 1)]

    def test_self_inverse_pair_drops_to_identity(self):
        device = _cached_device("linear:6")
        target = build_target(device, "criterion2").complete()
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.add("swap", [2, 3])
        circuit.add("swap", [2, 3])
        result = consolidate_blocks(
            circuit, target.basis_gate, target.translation_options()
        )
        assert result.blocks_dropped == 2
        assert result.circuit.gates == []
        assert all(record.layers_after == 0 for record in result.blocks)
        assert phase_distance(
            circuit.unitary(), np.eye(2**6, dtype=complex)
        ) <= 1e-9

    def test_consolidated_block_is_equivalent_and_reported(self):
        device = _cached_device("linear:6")
        target = build_target(device, "criterion2").complete()
        circuit = QuantumCircuit(6)
        circuit.cp(0.7, 0, 1)
        circuit.add("swap", [0, 1])
        result = consolidate_blocks(
            circuit, target.basis_gate, target.translation_options()
        )
        assert result.blocks_consolidated == 1
        (gate,) = result.circuit.gates
        assert gate.name == "unitary2q"
        assert circuits_equivalent(circuit, result.circuit)
        summary = result.summary()
        assert summary["two_qubit_layers_after"] <= summary["two_qubit_layers_before"]
        assert summary["depth_vs_lower_bound"] >= 1.0

    def test_unitary2q_gate_roundtrip(self):
        rng = np.random.default_rng(5)
        matrix, _ = np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        )
        gate = Gate.unitary2q(matrix, (2, 3))
        assert gate.name == "unitary2q"
        assert len(gate.params) == 32
        assert np.allclose(gate.matrix(), matrix)
        assert pickle.loads(pickle.dumps(gate)) == gate


# -- coverage-set depth oracle -------------------------------------------------


class TestCoverageSetOracle:
    def test_identity_and_basis_depths(self):
        oracle = CoverageSetOracle(basis=(0.5, 0.25, 0.0))
        assert oracle.minimum_layers((0.0, 0.0, 0.0)) == 0
        assert oracle.minimum_layers((0.5, 0.25, 0.0)) == 1

    def test_queries_route_through_layers_fn(self):
        calls = []

        def counting(target, basis, max_layers):
            calls.append((target, basis, max_layers))
            return 2

        oracle = CoverageSetOracle(basis=(0.5, 0.0, 0.0), layers_fn=counting)
        assert oracle.minimum_layers((0.3, 0.1, 0.0)) == 2
        assert calls == [((0.3, 0.1, 0.0), (0.5, 0.0, 0.0), 4)]

    def test_repeat_blocks_hit_the_shared_memo(self):
        from repro.compiler.cost import _minimum_layers_memo, cached_minimum_layers

        oracle = CoverageSetOracle(
            basis=(0.25, 0.25, 0.0),
            layers_fn=lambda target, basis, layers: cached_minimum_layers(
                target, basis, max_layers=layers, decimals=3
            ),
        )
        first = oracle.minimum_layers((0.3171, 0.2, 0.1))
        hits = _minimum_layers_memo.cache_info().hits
        assert oracle.minimum_layers((0.3169, 0.2, 0.1)) == first
        assert _minimum_layers_memo.cache_info().hits == hits + 1

    def test_version_constant(self):
        assert DEPTH_ORACLE_VERSION == 2


# -- pipeline wiring -----------------------------------------------------------


class TestOptimizationPass:
    def test_default_pipeline_inserts_pass_between_routing_and_translation(self):
        names = PassManager.default("criterion2", optimize=True).pass_names()
        routing = names.index("RoutingPass")
        translation = names.index("TranslationPass")
        assert names[routing + 1] == "OptimizationPass"
        assert translation == routing + 2
        assert "OptimizationPass" not in PassManager.default("criterion2").pass_names()

    def test_pass_contract(self):
        pass_ = OptimizationPass()
        assert set(pass_.requires) == {"routing", "target"}
        assert pass_.provides == ("optimization",)

    def test_unoptimized_result_has_no_optimizer_keys(self):
        device = _cached_device("grid:3x3")
        compiled = transpile(qft_circuit(4), device, strategy="criterion2")
        assert compiled.optimization is None
        assert compiled.depth_lower_bound is None
        assert compiled.depth_vs_lower_bound is None
        assert "depth_vs_lower_bound" not in compiled.summary()

    def test_optimized_result_reports_depth_vs_lower_bound(self):
        device = _cached_device("grid:3x3")
        compiled = transpile(
            qft_circuit(4), device, strategy="criterion2", optimize=True
        )
        assert compiled.optimization is not None
        summary = compiled.summary()
        assert summary["depth_vs_lower_bound"] >= 1.0
        assert summary["depth_lower_bound"] == float(
            compiled.optimization.depth_lower_bound
        )
        assert compiled.two_qubit_layer_count == compiled.optimization.layers_after

    def test_verify_consolidation_accepts_and_catches_tampering(self):
        device = _cached_device("grid:3x3")
        compiled = transpile(
            qft_circuit(4), device, strategy="criterion2", optimize=True
        )
        optimization = compiled.optimization
        verify_consolidation(optimization)
        assert optimization.blocks_consolidated >= 1
        for index, gate in enumerate(optimization.circuit.gates):
            if gate.name == "unitary2q":
                optimization.circuit.gates[index] = Gate.unitary2q(
                    np.eye(4, dtype=complex), gate.qubits
                )
                break
        with pytest.raises(ValueError, match="does not match"):
            verify_consolidation(optimization)


# -- property suite: equivalence and never-deeper ------------------------------


def _property_cell(seed: int) -> tuple[str, str]:
    """Spread seeds 0-31 over every (topology, mapping) combination."""
    topology = PROPERTY_TOPOLOGIES[seed % len(PROPERTY_TOPOLOGIES)]
    mapping = PROPERTY_MAPPINGS[(seed // len(PROPERTY_TOPOLOGIES)) % 2]
    return topology, mapping


class TestOptimizerProperties:
    @pytest.mark.parametrize("seed", range(32))
    def test_equivalent_and_never_deeper(self, seed):
        topology, mapping = _property_cell(seed)
        device = _cached_device(topology)
        circuit = random_two_qubit_circuit(5, 12, seed=seed)
        base = transpile(
            circuit, device, strategy="criterion2", mapping=mapping, seed=17
        )
        optimized = transpile(
            circuit,
            device,
            strategy="criterion2",
            mapping=mapping,
            seed=17,
            optimize=True,
        )
        # Routing itself implements the source circuit...
        assert routed_equivalent(
            circuit, base.routing.circuit, base.routing.initial_layout
        )
        # ...and the full optimized compile chains through it.
        assert_compiled_equivalent(circuit, optimized)
        assert circuits_equivalent(
            base.routing.circuit, optimized.optimization.circuit
        )
        assert optimized.two_qubit_layer_count <= base.two_qubit_layer_count
        assert optimized.total_duration <= base.total_duration + 1e-9
        assert optimized.depth_vs_lower_bound >= 1.0 - 1e-12

    @pytest.mark.parametrize("strategy", ["baseline", "criterion1", "criterion2"])
    def test_strategies_on_qft(self, strategy):
        device = _cached_device("grid:3x3")
        circuit = qft_circuit(5)
        base = transpile(circuit, device, strategy=strategy, seed=17)
        optimized = transpile(
            circuit, device, strategy=strategy, seed=17, optimize=True
        )
        assert_compiled_equivalent(circuit, optimized)
        assert optimized.two_qubit_layer_count <= base.two_qubit_layer_count


# -- golden pins: heavy_hex:2 benchmark cells ----------------------------------

#: optimize=False must stay byte-identical to the pre-optimizer pipeline;
#: these are the exact summaries the seed produced (criterion2, device seed
#: 11, layout/routing seed 17, hop_count mapping).
GOLDEN_BASE = {
    "qft_5": {
        "swap_count": 6.0,
        "two_qubit_layers": 64.0,
        "duration_ns": 1967.4462890625,
        "fidelity": 0.895768153068726,
    },
    "qft_8": {
        "swap_count": 29.0,
        "two_qubit_layers": 211.0,
        "duration_ns": 5639.720703125,
        "fidelity": 0.5801829158375266,
    },
    "cuccaro_8": {
        "swap_count": 19.0,
        "two_qubit_layers": 155.0,
        "duration_ns": 5656.4306640625,
        "fidelity": 0.6706145704028948,
    },
}

#: Post-optimizer pins: consolidated block counts and headline numbers.
GOLDEN_OPTIMIZED = {
    "qft_5": {
        "blocks_considered": 17,
        "blocks_consolidated": 1,
        "blocks_dropped": 0,
        "two_qubit_layers": 60,
        "depth_lower_bound": 46,
        "duration_ns": 1857.4951171875,
    },
    "qft_8": {
        "blocks_considered": 54,
        "blocks_consolidated": 7,
        "blocks_dropped": 0,
        "two_qubit_layers": 183,
        "depth_lower_bound": 155,
        "duration_ns": 4993.525390625,
    },
    "cuccaro_8": {
        "blocks_considered": 60,
        "blocks_consolidated": 7,
        "blocks_dropped": 0,
        "two_qubit_layers": 139,
        "depth_lower_bound": 139,
        "duration_ns": 5241.2880859375,
    },
}


class TestGoldenHeavyHex:
    @pytest.fixture(scope="class")
    def golden_runs(self):
        """All six golden compiles, in generation order."""
        device = _device("heavy_hex:2")
        runs: dict[str, dict[bool, object]] = {}
        for name in ("qft_5", "qft_8", "cuccaro_8"):
            circuit = build_circuit(name)
            runs[name] = {
                optimize: transpile(
                    circuit,
                    device,
                    strategy="criterion2",
                    seed=17,
                    optimize=optimize,
                )
                for optimize in (False, True)
            }
        return runs

    def test_reverse_order_in_a_fresh_process(self, golden_runs):
        """Layer counts are a pure function of their coordinates: compiling
        the cells in reverse order in a new process changes no summary."""
        script = (
            "import json\n"
            "from repro.compiler import transpile\n"
            "from repro.device import Device, DeviceParameters\n"
            "from repro.fleet import TopologySpec, build_circuit\n"
            "graph = TopologySpec.parse('heavy_hex:2').graph()\n"
            "device = Device(graph=graph, params=DeviceParameters(seed=11))\n"
            "print(json.dumps({name: [transpile(build_circuit(name), device,\n"
            "    strategy='criterion2', seed=17, optimize=optimize).summary()\n"
            "    for optimize in (True, False)]\n"
            "    for name in ('cuccaro_8', 'qft_8', 'qft_5')}))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        fresh = json.loads(completed.stdout)
        for name, runs in golden_runs.items():
            assert fresh[name] == [runs[True].summary(), runs[False].summary()]

    @pytest.mark.parametrize("name", sorted(GOLDEN_BASE))
    def test_optimize_false_byte_identical(self, golden_runs, name):
        assert golden_runs[name][False].summary() == GOLDEN_BASE[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_OPTIMIZED))
    def test_optimized_pins(self, golden_runs, name):
        compiled = golden_runs[name][True]
        pins = GOLDEN_OPTIMIZED[name]
        optimization = compiled.optimization
        assert optimization.blocks_considered == pins["blocks_considered"]
        assert optimization.blocks_consolidated == pins["blocks_consolidated"]
        assert optimization.blocks_dropped == pins["blocks_dropped"]
        assert compiled.two_qubit_layer_count == pins["two_qubit_layers"]
        assert compiled.depth_lower_bound == pins["depth_lower_bound"]
        assert compiled.total_duration == pins["duration_ns"]
        # The tentpole claim: optimization reduces 2Q depth on these cells.
        assert pins["two_qubit_layers"] < GOLDEN_BASE[name]["two_qubit_layers"]
        assert compiled.depth_vs_lower_bound == pytest.approx(
            pins["two_qubit_layers"] / pins["depth_lower_bound"]
        )
