"""2Q-block consolidation over the routed circuit's DAG.

The flat gate-by-gate translation cannot exploit adjacent two-qubit
structure: two back-to-back CNOTs on the same pair translate to two full
decompositions even though their product is the identity, and a QFT's
``cp + swap`` ladder pays for each gate separately even when the *combined*
block sits in a shallower coverage set of the edge's basis gate.  This module
is the core of the pipeline's ``OptimizationPass``:

1. build the routed circuit's :class:`~repro.circuits.dag.DAGCircuit` and
   collect **maximal runs** of two-qubit gates on the same physical edge
   (interleaved single-qubit gates on the pair are absorbed into the run);
2. multiply each run into a single 4x4 unitary and canonicalize it to Weyl
   coordinates (:func:`repro.weyl.cartan.cartan_coordinates`);
3. ask the edge's :class:`~repro.synthesis.depth.CoverageSetOracle` for the
   block's minimum basis-layer depth, and replace the run with one opaque
   ``unitary2q`` gate whenever that is no deeper than what gate-by-gate
   translation would emit (blocks that multiply to the identity are dropped
   outright);
4. report per-block records plus the circuit-wide coverage-set lower bound,
   which :class:`~repro.compiler.pipeline.result.CompiledCircuit` surfaces
   as ``depth_vs_lower_bound``.

All layer queries route through the shared
:func:`repro.compiler.cost.cached_minimum_layers` memo (same rounding as
basis translation), so the optimizer's depth accounting is *exactly* what
translation will emit for its output, and repeat blocks are answered from
the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Gate, QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.equivalence import phase_distance
from repro.compiler.basis_translation import TranslationOptions, target_coordinates
from repro.compiler.cost import cached_minimum_layers
from repro.gates.constants import SWAP
from repro.synthesis.depth import CoverageSetOracle
from repro.weyl.cartan import canonicalize_coordinates, cartan_coordinates

Edge = tuple[int, int]
Coords = tuple[float, float, float]

#: Blocks whose product is within this phase distance of the identity are
#: deleted outright (self-inverse pairs, ``cp(0)``-style no-ops).
IDENTITY_ATOL = 1e-8

#: Number of CNOTs emitted by ``lower_to_cnot`` per non-direct 2Q gate name;
#: must mirror :func:`repro.compiler.basis_translation.lower_to_cnot`.
_CNOT_LOWERING_COUNTS = {"cz": 1, "cp": 2, "rzz": 2, "iswap": 2, "sqrt_iswap": 2}

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class Block:
    """A maximal same-edge run of 2Q gates (plus absorbed 1Q gates).

    ``indices`` are gate positions in the routed circuit, in order; every
    two-qubit gate of the routed circuit belongs to exactly one block.
    """

    edge: Edge
    indices: tuple[int, ...]
    two_qubit_count: int


@dataclass(frozen=True)
class BlockRecord:
    """What the optimizer decided about one block.

    ``action`` is ``"dropped"`` (product ~ identity), ``"consolidated"``
    (replaced by one ``unitary2q``) or ``"kept"`` (no win; original gates
    pass through).  ``indices`` are the block's gate positions in the routed
    circuit (what :func:`verify_consolidation` re-multiplies);
    ``layers_before`` is what gate-by-gate translation would emit for the
    block's 2Q gates; ``layers_after`` is what will be emitted after the
    decision; ``lower_bound`` is the coverage-set depth of the block's
    combined unitary on this edge (0 for identity blocks).
    """

    edge: Edge
    start: int
    gate_count: int
    two_qubit_count: int
    action: str
    layers_before: int
    layers_after: int
    lower_bound: int
    coordinates: Coords
    indices: tuple[int, ...] = ()


@dataclass
class OptimizationResult:
    """Optimized routed circuit plus the per-block ledger.

    The pre-optimization circuit is retained so the unitary-equivalence
    harness (``tests/equivalence.py``) can prove the rewrite on any compile
    small enough to contract densely.
    """

    circuit: QuantumCircuit
    source: QuantumCircuit
    blocks: list[BlockRecord] = field(default_factory=list)

    @property
    def blocks_considered(self) -> int:
        return len(self.blocks)

    @property
    def blocks_consolidated(self) -> int:
        return sum(1 for b in self.blocks if b.action == "consolidated")

    @property
    def blocks_dropped(self) -> int:
        return sum(1 for b in self.blocks if b.action == "dropped")

    @property
    def layers_before(self) -> int:
        """2Q basis layers gate-by-gate translation would emit."""
        return sum(b.layers_before for b in self.blocks)

    @property
    def layers_after(self) -> int:
        """2Q basis layers translation emits for the optimized circuit."""
        return sum(b.layers_after for b in self.blocks)

    @property
    def depth_lower_bound(self) -> int:
        """Sum of per-block coverage-set depths: no translation that
        implements each block on its own edge can emit fewer layers."""
        return sum(b.lower_bound for b in self.blocks)

    def summary(self) -> dict:
        """Plain-data summary (the ``optimizer`` block of result summaries)."""
        lower = self.depth_lower_bound
        after = self.layers_after
        return {
            "blocks_considered": self.blocks_considered,
            "blocks_consolidated": self.blocks_consolidated,
            "blocks_dropped": self.blocks_dropped,
            "gates_before": len(self.source.gates),
            "gates_after": len(self.circuit.gates),
            "two_qubit_layers_before": self.layers_before,
            "two_qubit_layers_after": after,
            "depth_lower_bound": lower,
            "depth_vs_lower_bound": depth_ratio(after, lower),
        }


def depth_ratio(layers: int, lower_bound: int) -> float:
    """``layers / lower_bound`` with the empty-circuit corner pinned to 1.0."""
    if lower_bound > 0:
        return float(layers) / float(lower_bound)
    return 1.0 if layers == 0 else float(layers)


@dataclass
class _OpenBlock:
    body: list[int] = field(default_factory=list)
    trailing: list[int] = field(default_factory=list)
    two_qubit_count: int = 0


def collect_blocks(dag: DAGCircuit) -> list[Block]:
    """Maximal same-edge 2Q runs from the wire-dependency DAG.

    Walks the DAG in emission order keeping one open block per claimed edge.
    A 1Q gate on a claimed qubit joins that block *tentatively* (``trailing``)
    and is only committed to the body once another 2Q gate on the same edge
    arrives -- trailing 1Q gates after the last 2Q gate stay outside the
    block.  A 2Q gate on a different edge sharing a qubit closes the
    conflicting blocks (the run is no longer adjacent on the wire).
    """
    blocks: list[Block] = []
    open_by_edge: dict[Edge, _OpenBlock] = {}
    claim: dict[int, Edge] = {}

    def close(edge: Edge) -> None:
        open_block = open_by_edge.pop(edge)
        for q in edge:
            if claim.get(q) == edge:
                del claim[q]
        blocks.append(
            Block(
                edge=edge,
                indices=tuple(open_block.body),
                two_qubit_count=open_block.two_qubit_count,
            )
        )

    for node in dag.topological_order():
        gate = node.gate
        if not gate.is_two_qubit:
            edge = claim.get(gate.qubits[0])
            if edge is not None:
                open_by_edge[edge].trailing.append(node.index)
            continue
        a, b = gate.qubits
        edge = (a, b) if a < b else (b, a)
        open_block = open_by_edge.get(edge)
        if open_block is not None:
            open_block.body.extend(open_block.trailing)
            open_block.trailing.clear()
            open_block.body.append(node.index)
            open_block.two_qubit_count += 1
            continue
        for q in (a, b):
            if q in claim:
                close(claim[q])
        fresh = _OpenBlock()
        fresh.body.append(node.index)
        fresh.two_qubit_count = 1
        open_by_edge[edge] = fresh
        claim[a] = edge
        claim[b] = edge
    for edge in list(open_by_edge):
        close(edge)
    blocks.sort(key=lambda block: block.indices[0])
    return blocks


def block_unitary(gates: list[Gate], edge: Edge) -> np.ndarray:
    """Product of a block's gates in the edge's local 2-qubit space.

    Local wire 0 is the smaller physical qubit (most significant bit,
    matching :meth:`QuantumCircuit.unitary`); gates listed on the reversed
    pair are SWAP-conjugated into that convention.
    """
    a, b = edge
    total = _I4.copy()
    for gate in gates:
        matrix = gate.matrix()
        if gate.n_qubits == 1:
            if gate.qubits[0] == a:
                local = np.kron(matrix, _I2)
            elif gate.qubits[0] == b:
                local = np.kron(_I2, matrix)
            else:
                raise ValueError(f"gate on {gate.qubits} is outside edge {edge}")
        else:
            if gate.qubits == (a, b):
                local = matrix
            elif gate.qubits == (b, a):
                local = SWAP @ matrix @ SWAP
            else:
                raise ValueError(f"gate on {gate.qubits} is outside edge {edge}")
        total = local @ total
    return total


def _gate_layers(
    gate: Gate, edge: Edge, selection, cost_model, options: TranslationOptions
) -> int:
    """2Q basis layers gate-by-gate translation emits for one routed gate.

    Mirrors :func:`~repro.compiler.basis_translation.translate_operations`:
    direct targets decompose straight into the basis, everything else is
    first lowered to CNOTs and pays the CNOT layer count per CNOT.
    """
    direct = options.direct_targets | {"swap", "cx"}
    if gate.name not in direct and gate.name in _CNOT_LOWERING_COUNTS:
        return _CNOT_LOWERING_COUNTS[gate.name] * _gate_layers(
            Gate("cx", gate.qubits), edge, selection, cost_model, options
        )
    if cost_model is not None and gate.name in ("swap", "cx"):
        cost = cost_model.edge_cost(edge)
        return cost.swap_layers if gate.name == "swap" else cost.cnot_layers
    if gate.name == "swap":
        return selection.swap_layers
    if gate.name == "cx":
        return selection.cnot_layers
    return cached_minimum_layers(
        target_coordinates(gate),
        selection.coordinates,
        max_layers=options.max_layers,
        decimals=options.cache_decimals,
    )


def _edge_oracle(
    selection, cost_model, edge: Edge, options: TranslationOptions
) -> CoverageSetOracle:
    """The edge's coverage-set oracle, routed through the shared layer memo."""
    if cost_model is not None:
        return cost_model.coverage_oracle(
            edge, max_layers=options.max_layers, decimals=options.cache_decimals
        )
    return CoverageSetOracle(
        basis=selection.coordinates,
        max_layers=options.max_layers,
        layers_fn=lambda target, basis, max_layers: cached_minimum_layers(
            target, basis, max_layers=max_layers, decimals=options.cache_decimals
        ),
    )


def consolidate_blocks(
    routed: QuantumCircuit,
    basis_lookup,
    options: TranslationOptions | None = None,
    cost_model=None,
) -> OptimizationResult:
    """Consolidate same-edge 2Q runs of a routed circuit into basis blocks.

    ``basis_lookup`` maps a sorted physical edge to its
    :class:`~repro.core.basis_selection.BasisGateSelection` (typically
    ``target.basis_gate``); ``cost_model`` optionally supplies the same
    per-edge numbers mapping used, so all three consumers agree.  A block is
    rewritten only when its coverage-set depth is no deeper than what
    gate-by-gate translation would emit, so the optimized circuit is **never
    deeper** (in 2Q basis layers, and therefore in duration) than the
    unoptimized one; blocks multiplying to the identity are deleted.
    """
    options = options if options is not None else TranslationOptions()
    dag = routed.to_dag()
    blocks = collect_blocks(dag)
    gate_of = {node.index: node.gate for node in dag.nodes}

    drop: set[int] = set()
    replace: dict[int, Gate] = {}
    records: list[BlockRecord] = []
    oracles: dict[Edge, CoverageSetOracle] = {}
    #: Unitary and Weyl class (``None`` for the identity) per gate pattern,
    #: i.e. the block's gates with qubits numbered along the edge: QFT
    #: ladders and adder cells repeat a few patterns on many edges.
    classes: dict[tuple, tuple[np.ndarray, Coords | None]] = {}

    for block in blocks:
        gates = [gate_of[index] for index in block.indices]
        selection = basis_lookup(block.edge)
        oracle = oracles.get(block.edge)
        if oracle is None:
            oracle = _edge_oracle(selection, cost_model, block.edge, options)
            oracles[block.edge] = oracle
        layers_before = sum(
            _gate_layers(g, block.edge, selection, cost_model, options)
            for g in gates
            if g.is_two_qubit
        )
        pattern = tuple(
            (g.name, g.params, tuple(block.edge.index(q) for q in g.qubits))
            for g in gates
        )
        if pattern not in classes:
            unitary = block_unitary(gates, block.edge)
            classes[pattern] = (
                unitary,
                None
                if phase_distance(unitary, _I4) <= IDENTITY_ATOL
                else canonicalize_coordinates(cartan_coordinates(unitary)),
            )
        unitary, coordinates = classes[pattern]
        if coordinates is None:
            drop.update(block.indices)
            records.append(
                BlockRecord(
                    edge=block.edge,
                    start=block.indices[0],
                    gate_count=len(block.indices),
                    two_qubit_count=block.two_qubit_count,
                    action="dropped",
                    layers_before=layers_before,
                    layers_after=0,
                    lower_bound=0,
                    coordinates=(0.0, 0.0, 0.0),
                    indices=block.indices,
                )
            )
            continue
        lower_bound = oracle.minimum_layers(coordinates)
        if block.two_qubit_count >= 2 and lower_bound <= layers_before:
            replacement = Gate.unitary2q(unitary, block.edge)
            first, *rest = block.indices
            replace[first] = replacement
            drop.update(rest)
            action, layers_after = "consolidated", lower_bound
        else:
            action, layers_after = "kept", layers_before
        records.append(
            BlockRecord(
                edge=block.edge,
                start=block.indices[0],
                gate_count=len(block.indices),
                two_qubit_count=block.two_qubit_count,
                action=action,
                layers_before=layers_before,
                layers_after=layers_after,
                lower_bound=lower_bound,
                coordinates=coordinates,
                indices=block.indices,
            )
        )

    optimized = QuantumCircuit(routed.n_qubits, routed.name)
    for index, gate in enumerate(routed.gates):
        if index in drop:
            continue
        optimized.append(replace.get(index, gate))
    return OptimizationResult(circuit=optimized, source=routed, blocks=records)


def verify_consolidation(result: OptimizationResult, atol: float = 1e-8) -> None:
    """Prove an optimizer rewrite block-by-block, at any circuit width.

    Dense contraction (``tests/equivalence.py``) caps out at 10 qubits; this
    check instead exploits that every rewrite is local to one physical edge:
    a block's gates touch only its two wires, so replacing them in place by
    their 4x4 product (or deleting them when that product is the identity)
    preserves the global unitary regardless of how wide the device is.  It
    re-multiplies each dropped/consolidated block from the *pre-optimization*
    circuit and replays the edit script, raising ``ValueError`` on the first
    discrepancy:

    - a ``dropped`` block whose product is not the identity,
    - a ``consolidated`` block whose replacement ``unitary2q`` matrix differs
      from the recomputed product (up to global phase),
    - any kept gate mutated, reordered or lost by the rewrite.
    """
    source, optimized = result.source, result.circuit
    drop: set[int] = set()
    replace: dict[int, np.ndarray] = {}
    for record in result.blocks:
        if record.action == "kept":
            continue
        if not record.indices:
            raise ValueError(f"block at {record.start} carries no gate indices")
        gates = [source.gates[index] for index in record.indices]
        unitary = block_unitary(gates, record.edge)
        if record.action == "dropped":
            distance = phase_distance(unitary, _I4)
            if distance > atol:
                raise ValueError(
                    f"dropped block at {record.start} is not the identity "
                    f"(phase distance {distance:.3e})"
                )
            drop.update(record.indices)
        else:
            first, *rest = record.indices
            replace[first] = unitary
            drop.update(rest)
    position = 0
    for index, gate in enumerate(source.gates):
        if index in drop:
            continue
        if position >= len(optimized.gates):
            raise ValueError(f"optimized circuit lost source gate {index}")
        actual = optimized.gates[position]
        position += 1
        expected = replace.get(index)
        if expected is None:
            if actual != gate:
                raise ValueError(
                    f"kept gate {index} was mutated: {gate} -> {actual}"
                )
            continue
        if actual.name != "unitary2q":
            raise ValueError(
                f"consolidated block at {index} emitted {actual.name}, "
                "expected unitary2q"
            )
        distance = phase_distance(actual.matrix(), expected)
        if distance > atol:
            raise ValueError(
                f"consolidated block at {index} does not match its gates "
                f"(phase distance {distance:.3e})"
            )
    if position != len(optimized.gates):
        raise ValueError(
            f"optimized circuit has {len(optimized.gates) - position} "
            "trailing gates with no source"
        )
