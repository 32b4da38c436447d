"""Initial layout of logical qubits onto physical qubits.

Three strategies are provided, in increasing order of quality:

* :func:`trivial_layout` -- logical ``i`` onto physical ``i``;
* :func:`greedy_subgraph_layout` -- place heavily interacting logical qubits
  on adjacent physical qubits, starting from the centre of the device;
* :func:`sabre_layout` -- iterate forward/backward routing passes using the
  final mapping of one pass as the initial mapping of the next (the SABRE
  layout trick used by the paper via Qiskit's "SABRE" layout method).

Both heuristics take a :class:`~repro.compiler.cost.MappingMetric`: the
default hop-count metric reproduces the legacy uniform-distance behaviour
byte for byte, while a basis-aware metric pulls heavily interacting qubits
toward the device's cheap-SWAP edges (see ``docs/mapping.md``).
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.cost import HopCountMetric


def trivial_layout(circuit: QuantumCircuit, device) -> dict[int, int]:
    """Map logical qubit ``i`` to physical qubit ``i``."""
    if circuit.n_qubits > device.n_qubits:
        raise ValueError(
            f"circuit needs {circuit.n_qubits} qubits but the device has {device.n_qubits}"
        )
    return {q: q for q in range(circuit.n_qubits)}


def interaction_graph(circuit: QuantumCircuit) -> nx.Graph:
    """Weighted graph of two-qubit interactions in the circuit."""
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.n_qubits))
    for gate in circuit.two_qubit_gates():
        a, b = gate.qubits
        if graph.has_edge(a, b):
            graph[a][b]["weight"] += 1
        else:
            graph.add_edge(a, b, weight=1)
    return graph


def greedy_subgraph_layout(
    circuit: QuantumCircuit, device, seed: int = 0, metric=None
) -> dict[int, int]:
    """Greedy placement of the interaction graph onto the device.

    Logical qubits are placed in decreasing order of interaction weight; each
    is assigned the free physical qubit minimising the total metric distance
    to the already-placed logical qubits it interacts with.

    Raises:
        ValueError: when the circuit does not fit, or the metric's hop
            matrix marks a pair unreachable (a disconnected device).
    """
    if circuit.n_qubits > device.n_qubits:
        raise ValueError("circuit does not fit on the device")
    metric = metric if metric is not None else HopCountMetric(device)
    rng = np.random.default_rng(seed)
    graph = interaction_graph(circuit)
    order = sorted(
        graph.nodes,
        key=lambda q: sum(d["weight"] for _, _, d in graph.edges(q, data=True)),
        reverse=True,
    )
    matrix = _metric_matrix(metric)
    # Start near the centre of the device so growth has room in every direction.
    center = _device_center(device, metric)
    free = set(range(device.n_qubits))
    layout: dict[int, int] = {}
    for logical in order:
        placed_neighbors = [
            (other, graph[logical][other]["weight"])
            for other in graph.neighbors(logical)
            if other in layout
        ]
        # ``free`` is iterated in set order; freezing that order in a list
        # keeps tie-breaking identical to a scan over the set itself.
        free_list = list(free)
        if not placed_neighbors:
            choice = _closest(free_list, matrix, center)
        else:
            # One gather per placed neighbour, accumulated left-to-right
            # like a scalar sum so float costs match bit for bit.
            other, weight = placed_neighbors[0]
            column = weight * matrix[:, layout[other]]
            for other, weight in placed_neighbors[1:]:
                column = column + weight * matrix[:, layout[other]]
            costs = column[free_list]
            best_cost = costs.min()
            best = [p for p, c in zip(free_list, costs) if c <= best_cost + 1e-9]
            choice = int(best[rng.integers(len(best))]) if len(best) > 1 else best[0]
        layout[logical] = choice
        free.discard(choice)
    # Any isolated logical qubits not yet placed (no 2Q gates at all).
    for logical in range(circuit.n_qubits):
        if logical not in layout:
            choice = _closest(list(free), matrix, center)
            layout[logical] = choice
            free.discard(choice)
    return layout


def sabre_layout(
    circuit: QuantumCircuit,
    device,
    router=None,
    iterations: int = 2,
    seed: int = 0,
    metric=None,
) -> dict[int, int]:
    """SABRE layout: alternate forward and reverse routing passes.

    Each pass routes the circuit (or its reverse) from the current layout and
    adopts the *final* mapping as the next initial layout; the reverse pass
    makes the layout sensitive to the end of the circuit as well as the start.
    An explicit ``router`` supplies the metric; passing a different ``metric``
    alongside it is rejected -- a layout seeded under one metric and refined
    under another would be neither.
    """
    from repro.compiler.routing import SabreRouter

    if router is not None and metric is not None and metric is not router.metric:
        raise ValueError(
            "sabre_layout received both a router and a different metric; the "
            "router's own metric drives its refinement passes, so build the "
            "router with the desired metric instead"
        )
    router = (
        router if router is not None else SabreRouter(device, seed=seed, metric=metric)
    )
    layout = greedy_subgraph_layout(circuit, device, seed=seed, metric=router.metric)
    reversed_circuit = circuit.copy()
    reversed_circuit.gates = list(reversed(circuit.gates))
    for iteration in range(iterations):
        forward = router.run(circuit, layout)
        layout = forward.final_layout
        backward = router.run(reversed_circuit, layout)
        layout = backward.final_layout
    return layout


def _closest(candidates: list[int], matrix: np.ndarray, center: int) -> int:
    """The first of ``candidates`` at minimal distance from ``center``."""
    return candidates[int(np.argmin(matrix[candidates, center]))]


def _device_center(device, metric=None) -> int:
    """Physical qubit with the smallest eccentricity (centre of the device).

    The centre depends only on the metric, so it is memoised on the metric
    instance -- batch compilation shares one metric per (device, strategy)
    and would otherwise redo this O(n^2) scan for every circuit.
    """
    metric = metric if metric is not None else HopCountMetric(device)
    cached = getattr(metric, "_device_center_cache", None)
    if cached is not None:
        return cached
    # Row max = eccentricity; argmin keeps the first minimal qubit.
    best_qubit = int(np.argmin(_metric_matrix(metric).max(axis=1)))
    try:
        metric._device_center_cache = best_qubit
    except AttributeError:
        pass  # exotic metric without settable attributes: just recompute
    return best_qubit


def _metric_matrix(metric) -> np.ndarray:
    """The metric's dense distance matrix, checked for unreachable pairs.

    Layout compares distances between arbitrary pairs, so a hop matrix that
    marks a pair unreachable (``-1``: a disconnected device) raises up front.
    """
    matrix = np.asarray(metric.distance_matrix())
    if matrix.dtype.kind in "iu" and (matrix < 0).any():
        a, b = np.argwhere(matrix < 0)[0]
        raise ValueError(f"qubits {a} and {b} are not connected on the device")
    return matrix
