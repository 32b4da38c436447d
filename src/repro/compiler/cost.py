"""Per-edge compilation costs and the mapping metrics built on them.

The paper's central claim is that each coupled pair gets its *own* basis
gate, which makes the cost of a SWAP or CNOT edge-dependent: a pair whose
trajectory crosses the SWAP-in-3-layers region early gets a fast basis gate,
its neighbour may not.  The legacy mapping layers (SABRE layout and routing)
minimised uniform hop-count distance and were blind to this.  This module
closes the loop:

* :class:`CostModel` -- for one :class:`~repro.compiler.pipeline.target.Target`
  it derives, per physical edge, the analytic SWAP/CNOT layer count (straight
  from the selection's canonical coordinates), the concrete durations in ns
  (basis pulses plus interleaved single-qubit layers) and a ``-log(fidelity)``
  coherence weight.  It is plain data: serializable via ``to_dict`` /
  ``from_dict`` and persisted alongside targets in the fleet's on-disk
  target store (:mod:`repro.fleet.cache`).

* **Mapping metrics** -- the pluggable distance/edge-cost objects consumed by
  :class:`~repro.compiler.routing.SabreRouter` and the layout heuristics.
  ``"hop_count"`` reproduces the legacy uniform-distance behaviour byte for
  byte; ``"basis_aware"`` runs Dijkstra over normalised per-edge SWAP costs so
  routing prefers paths over cheap edges and breaks ties toward cheap SWAPs.
  New metrics plug in through :func:`register_mapping`.

* :func:`cached_minimum_layers` -- the single shared coordinate-rounding
  cache in front of :func:`repro.synthesis.depth.minimum_layers`, used by
  basis translation, numerical synthesis, and the cost model alike (each used
  to carry its own copy of this cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.synthesis.depth import minimum_layers
from repro.synthesis.library import layered_duration
from repro.weyl.cartan import canonicalize_coordinates

Edge = tuple[int, int]
Coords = tuple[float, float, float]


# --------------------------------------------------------------------------
# Shared analytic layer-count cache.
# --------------------------------------------------------------------------

@lru_cache(maxsize=16384)
def _minimum_layers_memo(target: Coords, basis: Coords, max_layers: int) -> int:
    return minimum_layers(target, basis, max_layers=max_layers)


def cached_minimum_layers(
    target: Coords, basis: Coords, max_layers: int = 4, decimals: int | None = 6
) -> int:
    """Memoised :func:`~repro.synthesis.depth.minimum_layers`.

    Coordinates are canonicalized and rounded to ``decimals`` before keying
    (and before the depth query itself), so gates whose coordinates differ by
    less than the rounding are treated alike -- which keeps compile times flat
    across a 180-edge device.  ``decimals=None`` skips the rounding and keys
    on the exact canonical coordinates (callers near a region boundary, e.g.
    synthesis depth predictions, must not have their query perturbed).  This
    is the one shared -- LRU-bounded -- cache behind basis translation,
    numerical synthesis predictions and :class:`CostModel`.
    """
    canonical_target = canonicalize_coordinates(target)
    canonical_basis = canonicalize_coordinates(basis)
    if decimals is not None:
        canonical_target = tuple(round(c, decimals) for c in canonical_target)
        canonical_basis = tuple(round(c, decimals) for c in canonical_basis)
    return _minimum_layers_memo(canonical_target, canonical_basis, max_layers)


# --------------------------------------------------------------------------
# Cost model.
# --------------------------------------------------------------------------


def _key(edge: Edge) -> Edge:
    a, b = edge
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class EdgeCost:
    """Everything mapping needs to know about one coupled pair.

    Attributes:
        edge: the (sorted) physical pair.
        swap_layers: analytic basis-gate layers for a SWAP on this pair.
        cnot_layers: analytic basis-gate layers for a CNOT on this pair.
        basis_duration: one application of the pair's basis gate (ns).
        swap_duration: full SWAP decomposition incl. 1Q layers (ns).
        cnot_duration: full CNOT decomposition incl. 1Q layers (ns).
        swap_log_infidelity: ``-log(fidelity)`` of a SWAP on this pair under
            the coherence model (both qubits busy for ``swap_duration``).
        cnot_log_infidelity: likewise for a CNOT.
        basis_coordinates: canonical Weyl coordinates of the pair's selected
            basis gate.  With them the model answers layer counts for
            *arbitrary* targets (consolidated blocks), not just SWAP/CNOT --
            see :meth:`CostModel.coverage_oracle`.
    """

    edge: Edge
    swap_layers: int
    cnot_layers: int
    basis_duration: float
    swap_duration: float
    cnot_duration: float
    swap_log_infidelity: float
    cnot_log_infidelity: float
    basis_coordinates: Coords

    def as_dict(self) -> dict:
        """Plain-data row for serialization."""
        return {
            "edge": list(self.edge),
            "swap_layers": self.swap_layers,
            "cnot_layers": self.cnot_layers,
            "basis_duration": self.basis_duration,
            "swap_duration": self.swap_duration,
            "cnot_duration": self.cnot_duration,
            "swap_log_infidelity": self.swap_log_infidelity,
            "cnot_log_infidelity": self.cnot_log_infidelity,
            "basis_coordinates": list(self.basis_coordinates),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EdgeCost":
        """Rebuild a row from :meth:`as_dict` output."""
        return cls(
            edge=tuple(data["edge"]),
            swap_layers=int(data["swap_layers"]),
            cnot_layers=int(data["cnot_layers"]),
            basis_duration=float(data["basis_duration"]),
            swap_duration=float(data["swap_duration"]),
            cnot_duration=float(data["cnot_duration"]),
            swap_log_infidelity=float(data["swap_log_infidelity"]),
            cnot_log_infidelity=float(data["cnot_log_infidelity"]),
            basis_coordinates=tuple(float(c) for c in data["basis_coordinates"]),
        )


@dataclass
class CostModel:
    """Per-edge SWAP/CNOT costs derived from one target's basis selections.

    Built once per (device, strategy) -- see
    :meth:`~repro.compiler.pipeline.target.Target.cost_model`, which memoises
    it on the target, and the target store (:mod:`repro.fleet.cache`),
    which persists it next to the target snapshot.
    """

    strategy: str
    n_qubits: int
    one_qubit_duration: float
    coherence_time_ns: float
    edge_costs: dict[Edge, EdgeCost]

    @classmethod
    def from_target(cls, target) -> "CostModel":
        """Derive the cost model from a (lazily resolving) target snapshot.

        Forces :meth:`Target.complete` -- a cost model over a subset of edges
        would silently bias routing toward whatever happened to be resolved.
        """
        target.complete()
        coherence = float(target.coherence_time_ns)
        one_qubit = float(target.single_qubit_duration)
        edge_costs: dict[Edge, EdgeCost] = {}
        for edge, selection in sorted(target.selections.items()):
            swap_duration = layered_duration(
                selection.swap_layers, selection.duration, one_qubit
            )
            cnot_duration = layered_duration(
                selection.cnot_layers, selection.duration, one_qubit
            )
            edge_costs[edge] = EdgeCost(
                edge=edge,
                swap_layers=selection.swap_layers,
                cnot_layers=selection.cnot_layers,
                basis_duration=float(selection.duration),
                swap_duration=float(swap_duration),
                cnot_duration=float(cnot_duration),
                # Both qubits of the pair sit busy for the whole block, so
                # the pair's -log(fidelity) is 2 * t / T.
                swap_log_infidelity=float(2.0 * swap_duration / coherence),
                cnot_log_infidelity=float(2.0 * cnot_duration / coherence),
                basis_coordinates=canonicalize_coordinates(selection.coordinates),
            )
        return cls(
            strategy=target.strategy,
            n_qubits=int(target.n_qubits),
            one_qubit_duration=one_qubit,
            coherence_time_ns=coherence,
            edge_costs=edge_costs,
        )

    # -- lookup ---------------------------------------------------------------

    def edge_cost(self, edge: Edge) -> EdgeCost:
        """The cost row for a coupled pair (order-insensitive)."""
        key = _key(edge)
        if key not in self.edge_costs:
            raise ValueError(
                f"{edge} is not an edge of the cost model (strategy "
                f"{self.strategy!r})"
            )
        return self.edge_costs[key]

    def has_edge(self, a: int, b: int) -> bool:
        """True when the pair has a cost row."""
        return _key((a, b)) in self.edge_costs

    def edges(self) -> list[Edge]:
        """Sorted list of covered pairs."""
        return sorted(self.edge_costs)

    def mean_swap_duration(self) -> float:
        """Average SWAP decomposition duration over all edges (ns)."""
        return float(
            np.mean([cost.swap_duration for cost in self.edge_costs.values()])
        )

    def swap_weights(self) -> dict[Edge, float]:
        """Per-edge SWAP costs normalised to a mean of 1.0.

        Dimensionless "typical-SWAP units": a weighted distance of ``d``
        means "as expensive as ``d`` average SWAPs", which keeps the SABRE
        look-ahead and decay terms on the same scale as hop counts.
        """
        mean = self.mean_swap_duration()
        if mean <= 0.0:
            return {edge: 1.0 for edge in self.edge_costs}
        return {
            edge: cost.swap_duration / mean for edge, cost in self.edge_costs.items()
        }

    def coverage_oracle(
        self, edge: Edge, max_layers: int = 4, decimals: int = 3
    ):
        """A per-edge :class:`~repro.synthesis.depth.CoverageSetOracle`.

        Sharpens the model from "SWAP and CNOT layer counts" to "minimum
        layers for *any* canonical coordinates on this edge" -- the query the
        block-consolidation optimizer asks.  Oracles are memoised per
        ``(edge, max_layers, decimals)`` and route through
        :func:`cached_minimum_layers`, so their answers are identical to
        basis translation's.
        """
        cost = self.edge_cost(edge)
        oracles = getattr(self, "_coverage_oracles", None)
        if oracles is None:
            oracles = {}
            self._coverage_oracles = oracles
        key = (cost.edge, int(max_layers), int(decimals))
        oracle = oracles.get(key)
        if oracle is None:
            from repro.synthesis.depth import CoverageSetOracle

            oracle = CoverageSetOracle(
                basis=cost.basis_coordinates,
                max_layers=max_layers,
                layers_fn=lambda target, basis, layers: cached_minimum_layers(
                    target, basis, max_layers=layers, decimals=decimals
                ),
            )
            oracles[key] = oracle
        return oracle

    def matches_options(self, strategy: str, options) -> bool:
        """True when translation under ``options`` can reuse this model.

        The layer counts and durations baked into the model assumed this
        strategy's selections and this single-qubit layer duration; anything
        else must fall back to recomputation.
        """
        return (
            strategy == self.strategy
            and float(options.one_qubit_duration) == self.one_qubit_duration
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data (JSON-serializable) form."""
        return {
            "strategy": self.strategy,
            "n_qubits": self.n_qubits,
            "one_qubit_duration": self.one_qubit_duration,
            "coherence_time_ns": self.coherence_time_ns,
            "edge_costs": [
                cost.as_dict() for _, cost in sorted(self.edge_costs.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        """Rebuild from :meth:`to_dict` output."""
        edge_costs = {}
        for entry in data["edge_costs"]:
            cost = EdgeCost.from_dict(entry)
            edge_costs[cost.edge] = cost
        return cls(
            strategy=data["strategy"],
            n_qubits=int(data["n_qubits"]),
            one_qubit_duration=float(data["one_qubit_duration"]),
            coherence_time_ns=float(data["coherence_time_ns"]),
            edge_costs=edge_costs,
        )


# --------------------------------------------------------------------------
# Mapping metrics.
# --------------------------------------------------------------------------


class MappingMetric:
    """Distance + per-edge SWAP cost consumed by layout and routing.

    ``distance(a, b)`` is the mapping distance between physical qubits;
    ``swap_bias(a, b)`` is the extra heuristic cost of performing a SWAP on
    the edge ``(a, b)`` itself (zero in the legacy uniform metric, where it
    cancels across candidates).

    Layout and routing read both through dense arrays only:
    :meth:`distance_matrix` and :meth:`swap_bias_matrix` build them once per
    metric instance from the scalar methods, so a custom metric overrides
    ``distance`` (and optionally ``swap_bias``) and takes the same array
    engine as the built-in ones.  A subclass with a faster way to the matrix
    overrides the matrix method and keeps ``matrix[a, b] == distance(a, b)``.
    """

    name = "base"
    #: The dense matrices, built on first use.  Class-level defaults, so a
    #: subclass with its own ``__init__`` need not call this one.
    _matrix: np.ndarray | None = None
    _bias_matrix: np.ndarray | None = None

    def __init__(self, device):
        self.device = device

    def distance(self, a: int, b: int):
        """Mapping distance between two physical qubits."""
        raise NotImplementedError

    def swap_bias(self, a: int, b: int) -> float:
        """Heuristic cost of swapping on edge ``(a, b)`` (0 when uniform)."""
        return 0.0

    def distance_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` array of :meth:`distance` over every pair."""
        if self._matrix is None:
            qubits = range(self.device.n_qubits)
            self._matrix = np.array(
                [[self.distance(a, b) for b in qubits] for a in qubits]
            )
        return self._matrix

    def swap_bias_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` array of :meth:`swap_bias` on every coupled pair.

        Uncoupled pairs hold 0.0: the router only charges the bias of a
        candidate SWAP, and every candidate is an edge.
        """
        if self._bias_matrix is None:
            n = self.device.n_qubits
            matrix = np.zeros((n, n))
            for a in range(n):
                for b in self.device.neighbors(a):
                    matrix[a, b] = self.swap_bias(a, b)
            self._bias_matrix = matrix
        return self._bias_matrix


class HopCountMetric(MappingMetric):
    """The legacy metric: BFS hop counts, every SWAP costs the same.

    ``distance`` returns the device's own (integer) shortest-path distances
    unchanged, so the default mapping path stays byte-identical to the
    pre-cost-model pipeline.
    """

    name = "hop_count"

    def distance(self, a: int, b: int):
        return self.device.distance(a, b)

    def distance_matrix(self) -> np.ndarray:
        """The device's dense BFS hop matrix (``-1`` marks unreachable)."""
        return self.device.distance_matrix()


class BasisAwareMetric(MappingMetric):
    """Cost-weighted metric: Dijkstra over normalised per-edge SWAP costs.

    Each edge is weighted by its SWAP decomposition duration divided by the
    device mean (so weights average 1.0 and distances stay comparable to hop
    counts); all-pairs distances come from Dijkstra over that weighted graph,
    and ``swap_bias`` charges a candidate SWAP its own edge weight so ties
    between equally-improving SWAPs break toward the cheap edge.
    """

    name = "basis_aware"

    def __init__(self, device, cost_model: CostModel):
        if cost_model is None:
            raise ValueError("basis_aware mapping requires a CostModel")
        super().__init__(device)
        self.cost_model = cost_model
        self._weights = cost_model.swap_weights()
        missing = [e for e in device.edges() if e not in self._weights]
        if missing:
            raise ValueError(
                f"cost model for strategy {cost_model.strategy!r} is missing "
                f"device edges {missing[:4]}{'...' if len(missing) > 4 else ''}"
            )

    @staticmethod
    def _weighted_distances(device, weights: dict[Edge, float]) -> np.ndarray:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        n = device.n_qubits
        rows, cols, data = [], [], []
        for (a, b), weight in sorted(weights.items()):
            rows.append(a)
            cols.append(b)
            data.append(weight)
        graph = csr_matrix((data, (rows, cols)), shape=(n, n))
        return dijkstra(graph, directed=False)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs weighted distances (computed once, or adopted).

        Lazy: the all-pairs Dijkstra runs on first use, so a worker that
        adopts a shared-memory matrix never pays for it at all.
        """
        if self._matrix is None:
            self._matrix = self._weighted_distances(self.device, self._weights)
        return self._matrix

    def adopt_distance_matrix(self, matrix: np.ndarray) -> None:
        """Install a precomputed distance matrix instead of running Dijkstra.

        Process-pool workers attach the parent's matrix over shared memory:
        zero copies shipped and byte-identical distances by construction.
        The matrix must be the ``(n, n)`` float output of
        :meth:`distance_matrix` for the *same* (device, cost model) pair --
        shape is validated, provenance is the caller's contract.
        """
        matrix = np.asarray(matrix, dtype=float)
        n = self.device.n_qubits
        if matrix.shape != (n, n):
            raise ValueError(
                f"distance matrix shape {matrix.shape} does not match the "
                f"device ({n} qubits)"
            )
        self._matrix = matrix

    def distance(self, a: int, b: int) -> float:
        return float(self.distance_matrix()[a, b])

    def swap_bias(self, a: int, b: int) -> float:
        return self._weights[_key((a, b))]


# --------------------------------------------------------------------------
# Mapping registry.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MappingSpec:
    """Everything the pipeline knows about one named mapping mode.

    Attributes:
        name: public name used in ``transpile(..., mapping=name)``.
        factory: ``(device, cost_model) -> MappingMetric``; ``cost_model`` is
            ``None`` when the mode does not require one.
        requires_cost_model: whether the mode needs a per-strategy
            :class:`CostModel` (and hence a resolved target) to build.
        description: one-line summary for docs and CLIs.
    """

    name: str
    factory: Callable[[object, CostModel | None], MappingMetric]
    requires_cost_model: bool = False
    description: str = ""

    def build(self, device, cost_model: CostModel | None = None) -> MappingMetric:
        """Instantiate the metric for a device (and optional cost model)."""
        if self.requires_cost_model and cost_model is None:
            raise ValueError(
                f"mapping {self.name!r} requires a CostModel; build one with "
                "Target.cost_model() or CostModel.from_target(target)"
            )
        return self.factory(device, cost_model)


#: The process-wide registry of mapping modes.
MAPPING_REGISTRY: dict[str, MappingSpec] = {}

#: The legacy default mode, guaranteed byte-identical to the seed pipeline.
DEFAULT_MAPPING = "hop_count"


def register_mapping(
    name: str,
    *,
    requires_cost_model: bool = False,
    description: str = "",
    overwrite: bool = False,
):
    """Decorator registering a mapping-metric factory under ``name``.

    The factory is called as ``factory(device, cost_model)``; register with
    ``requires_cost_model=True`` when it cannot work without one.
    """

    def decorator(factory: Callable[[object, CostModel | None], MappingMetric]):
        if name in MAPPING_REGISTRY and not overwrite:
            raise ValueError(
                f"mapping {name!r} is already registered; pass overwrite=True "
                "to replace it"
            )
        MAPPING_REGISTRY[name] = MappingSpec(
            name=name,
            factory=factory,
            requires_cost_model=requires_cost_model,
            description=description,
        )
        return factory

    return decorator


def validate_mapping(name: str) -> str:
    """Raise ``ValueError`` (listing registered names) for unknown mappings."""
    if name not in MAPPING_REGISTRY:
        raise ValueError(
            f"unknown mapping {name!r}; registered mappings: "
            f"{sorted(MAPPING_REGISTRY)}"
        )
    return name


def get_mapping_spec(name: str) -> MappingSpec:
    """The :class:`MappingSpec` registered under ``name``."""
    validate_mapping(name)
    return MAPPING_REGISTRY[name]


def available_mapping_names() -> tuple[str, ...]:
    """Names accepted anywhere a mapping string is expected."""
    return tuple(MAPPING_REGISTRY)


def build_metric(
    name: str, device, cost_model: CostModel | None = None
) -> MappingMetric:
    """Build the metric registered under ``name`` for a device."""
    return get_mapping_spec(name).build(device, cost_model)


register_mapping(
    DEFAULT_MAPPING,
    description="uniform BFS hop counts (legacy default, byte-identical)",
)(lambda device, cost_model: HopCountMetric(device))

register_mapping(
    "basis_aware",
    requires_cost_model=True,
    description="Dijkstra over per-edge SWAP costs from the strategy's CostModel",
)(lambda device, cost_model: BasisAwareMetric(device, cost_model))
