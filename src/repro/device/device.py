"""The simulated 10x10 case-study device (Section VIII-C).

A :class:`Device` owns the connectivity graph, the sampled qubit frequencies,
coherence parameters, and -- lazily -- the per-edge entangler models, Cartan
trajectories and selected basis gates for each selection strategy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import networkx as nx

from repro.core.basis_selection import BasisGateSelection, select_basis_gate
from repro.core.trajectory import CartanTrajectory
from repro.device.sampling import sample_checkerboard_frequencies
from repro.device.topology import grid_graph
from repro.hamiltonian.effective import (
    BASELINE_DRIVE_AMPLITUDE,
    NONSTANDARD_DRIVE_AMPLITUDE,
    EffectiveEntanglerModel,
)

Edge = tuple[int, int]


def default_edge_workers() -> int:
    """Thread count for concurrent edge resolution.

    ``REPRO_EDGE_WORKERS`` overrides; the default scales with the machine and
    degrades to serial resolution on a single-core box, where thread overhead
    would only hurt.
    """
    env = os.getenv("REPRO_EDGE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _bfs_distance_matrix(graph: nx.Graph) -> np.ndarray:
    """All-pairs shortest-path hop counts as a dense int matrix.

    Qubits are integer-labelled ``0..n-1`` (a topology-module invariant), so
    a plain breadth-first search per source fills the matrix in O(n(n+m));
    unreachable pairs are marked ``-1``.
    """
    n = graph.number_of_nodes()
    neighbors = [list(graph.neighbors(q)) for q in range(n)]
    matrix = np.full((n, n), -1, dtype=np.int64)
    for source in range(n):
        row = matrix[source]
        row[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            reached: list[int] = []
            for node in frontier:
                for neighbor in neighbors[node]:
                    if row[neighbor] < 0:
                        row[neighbor] = depth
                        reached.append(neighbor)
            frontier = reached
    return matrix


@dataclass
class DeviceParameters:
    """Configuration of the simulated device.

    Defaults reproduce the paper's case study: a 10x10 grid, qubit
    frequencies drawn from two populations 2 GHz apart with 5 % standard
    deviation, T = 80 us coherence for every qubit, 20 ns single-qubit gates,
    a 0.005 Phi0 baseline drive and a 0.04 Phi0 nonstandard drive.
    """

    rows: int = 10
    cols: int = 10
    coherence_time_us: float = 80.0
    single_qubit_gate_ns: float = 20.0
    low_freq_mean_ghz: float = 3.2
    high_freq_mean_ghz: float = 5.2
    relative_std: float = 0.05
    baseline_amplitude: float = BASELINE_DRIVE_AMPLITUDE
    nonstandard_amplitude: float = NONSTANDARD_DRIVE_AMPLITUDE
    deviation_scale_std: float = 0.15
    trajectory_resolution_ns: float = 1.0
    #: Default RNG seed.  Chosen so that the sampled mean pair detuning of the
    #: 10x10 checkerboard matches the nominal 2 GHz (an unlucky draw would
    #: rescale every duration by the same factor and obscure the comparison).
    seed: int = 53

    @property
    def coherence_time_ns(self) -> float:
        """Coherence time converted to nanoseconds."""
        return self.coherence_time_us * 1000.0


@dataclass
class EdgeCalibration:
    """Everything known about one edge at one drive amplitude.

    ``selections`` is keyed by (strategy name, registry generation) so that
    re-registering a strategy invalidates the memo.
    """

    edge: Edge
    drive_amplitude: float
    model: EffectiveEntanglerModel
    trajectory: CartanTrajectory
    selections: dict[tuple[str, int], BasisGateSelection] = field(default_factory=dict)


class Device:
    """A simulated device with per-pair entangler models and basis gates."""

    def __init__(
        self,
        graph: nx.Graph | None = None,
        frequencies: dict[int, float] | None = None,
        params: DeviceParameters | None = None,
    ):
        self.params = params if params is not None else DeviceParameters()
        self.graph = graph if graph is not None else grid_graph(self.params.rows, self.params.cols)
        rng = np.random.default_rng(self.params.seed)
        self.frequencies = (
            frequencies
            if frequencies is not None
            else sample_checkerboard_frequencies(
                self.graph,
                low_mean=self.params.low_freq_mean_ghz,
                high_mean=self.params.high_freq_mean_ghz,
                relative_std=self.params.relative_std,
                rng=rng,
            )
        )
        # Pair-specific deviation scales model fabrication variation of the
        # strong-drive systematics; drawn once so results are reproducible.
        self._deviation_scales = {
            self._key(edge): float(max(0.2, rng.normal(1.0, self.params.deviation_scale_std)))
            for edge in self.graph.edges
        }
        self._calibrations: dict[tuple[Edge, float], EdgeCalibration] = {}
        #: Per-edge residual ZZ crosstalk (rad/ns) on top of the drive-induced
        #: deviation.  Zero for a freshly fabricated device; calibration drift
        #: (e.g. a TLS defect activating near a coupler) can set it, so it is
        #: genuine calibration *input* state: pickled with the device and
        #: covered by the fleet cache fingerprint.
        self._static_zz: dict[Edge, float] = {}
        #: Lazy (n, n) int matrix of BFS shortest-path distances; excluded
        #: from pickles like the other derived caches.
        self._distance_matrix: np.ndarray | None = None
        #: Bumped by invalidate_calibrations(); lets held Target snapshots
        #: detect that their resolved selections predate a recalibration.
        self.calibration_epoch = 0

    # -- basic structure -----------------------------------------------------

    @classmethod
    def from_parameters(cls, params: DeviceParameters | None = None) -> "Device":
        """Build the default case-study device from parameters alone."""
        return cls(params=params)

    @property
    def n_qubits(self) -> int:
        """Number of physical qubits."""
        return self.graph.number_of_nodes()

    def edges(self) -> list[Edge]:
        """Sorted list of coupled qubit pairs."""
        return sorted(self._key(edge) for edge in self.graph.edges)

    def neighbors(self, qubit: int) -> list[int]:
        """Neighbouring physical qubits."""
        return sorted(self.graph.neighbors(qubit))

    def has_edge(self, a: int, b: int) -> bool:
        """True if qubits ``a`` and ``b`` are directly coupled."""
        return self.graph.has_edge(a, b)

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two physical qubits.

        Served from a dense numpy matrix computed once by BFS over the
        coupling graph -- far smaller and faster to build than the previous
        dict-of-dicts from ``nx.all_pairs_shortest_path_length``, which the
        router's scoring loop hammered.
        """
        matrix = self.distance_matrix()
        n = matrix.shape[0]
        if not (0 <= a < n and 0 <= b < n):
            # numpy would happily wrap a negative label to the other end of
            # the matrix; the dict-of-dicts this replaced raised instead.
            raise ValueError(f"qubit labels {a}, {b} outside the device (0..{n - 1})")
        hops = int(matrix[a, b])
        if hops < 0:
            raise ValueError(f"qubits {a} and {b} are not connected on the device")
        return hops

    def distance_matrix(self) -> np.ndarray:
        """The dense all-pairs BFS hop matrix (``-1`` marks unreachable).

        Computed once and cached; the router, layout and the
        shared-memory dispatch snapshots read it directly, so treat the
        returned array as read-only.
        """
        if self._distance_matrix is None:
            self._distance_matrix = _bfs_distance_matrix(self.graph)
        return self._distance_matrix

    def adopt_distance_matrix(self, matrix: np.ndarray) -> None:
        """Install an externally computed BFS hop matrix.

        Used by process-pool workers to adopt the parent's shared-memory
        snapshot instead of re-running BFS; the caller guarantees the matrix
        matches this device's coupling graph.
        """
        matrix = np.asarray(matrix)
        expected = (self.n_qubits, self.n_qubits)
        if matrix.shape != expected:
            raise ValueError(
                f"distance matrix shape {matrix.shape} does not match "
                f"device shape {expected}"
            )
        self._distance_matrix = matrix

    @property
    def coherence_time_ns(self) -> float:
        """Per-qubit coherence time in ns (T1 = T2 = T)."""
        return self.params.coherence_time_ns

    @property
    def single_qubit_duration(self) -> float:
        """Single-qubit gate duration in ns."""
        return self.params.single_qubit_gate_ns

    @staticmethod
    def _key(edge: Edge) -> Edge:
        a, b = edge
        return (a, b) if a < b else (b, a)

    # -- pickling --------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the device's configuration, not its lazy calibration caches.

        Process-pool compilation ships the device to workers alongside fully
        resolved :class:`~repro.compiler.pipeline.target.Target` snapshots, so
        the workers never re-simulate an edge; dropping the memoised
        trajectories keeps the payload small.  Any other consumer of an
        unpickled device simply recalibrates lazily on first use.
        """
        state = self.__dict__.copy()
        state["_calibrations"] = {}
        state["_distance_matrix"] = None  # derived; recomputed on first use
        state.pop("_sabre_adjacency", None)  # router-derived; rebuilt on use
        return state

    # -- entangler models and trajectories ------------------------------------

    def deviation_scale(self, edge: Edge) -> float:
        """Pair-specific strong-drive deviation multiplier."""
        return self._deviation_scales[self._key(edge)]

    def static_zz(self, edge: Edge) -> float:
        """Residual always-on ZZ crosstalk for an edge (rad/ns; 0 by default)."""
        return self._static_zz.get(self._key(edge), 0.0)

    def entangler_model(self, edge: Edge, drive_amplitude: float) -> EffectiveEntanglerModel:
        """Effective entangler model for an edge at a drive amplitude."""
        a, b = self._key(edge)
        if not self.graph.has_edge(a, b):
            raise ValueError(f"{edge} is not an edge of the device")
        return EffectiveEntanglerModel.for_pair(
            self.frequencies[a],
            self.frequencies[b],
            drive_amplitude,
            deviation_scale=self.deviation_scale(edge),
            static_zz=self.static_zz((a, b)),
        )

    def update_calibration(
        self,
        *,
        frequencies: dict[int, float] | None = None,
        frequency_shifts: dict[int, float] | None = None,
        coherence_time_us: float | None = None,
        deviation_scales: dict[Edge, float] | None = None,
        static_zz: dict[Edge, float] | None = None,
        invalidate: bool = True,
    ) -> None:
        """Mutate the device's calibration inputs in place, then invalidate.

        The single sanctioned way to model calibration drift: qubit
        frequencies move (absolute ``frequencies`` or additive
        ``frequency_shifts``), coherence degrades, pair deviation scales or
        residual ZZ terms jump.  Unknown qubit labels or non-edges raise
        ``ValueError`` before anything is touched, and every mutation ends in
        :meth:`invalidate_calibrations` (unless ``invalidate=False``, used by
        the drift engine to batch several models' mutations into one epoch
        bump).

        Example::

            device.update_calibration(frequency_shifts={0: 0.02},
                                      coherence_time_us=72.0)
            # held Target snapshots for this device are now stale; rebuild
            # with build_target(device, strategy)
        """
        def _as_floats(mapping, what: str) -> dict:
            try:
                return {key: float(value) for key, value in mapping.items()}
            except (TypeError, ValueError) as error:
                raise ValueError(f"{what} values must be numbers: {error}") from error

        # Validate everything -- labels, edges AND values -- before touching
        # any state: a mid-loop failure must not leave the device partially
        # drifted with no epoch bump (stale caches would then be served).
        frequencies = _as_floats(frequencies or {}, "frequencies")
        frequency_shifts = _as_floats(frequency_shifts or {}, "frequency_shifts")
        deviation_scales = _as_floats(deviation_scales or {}, "deviation_scales")
        static_zz = _as_floats(static_zz or {}, "static_zz")
        for label in list(frequencies) + list(frequency_shifts):
            if label not in self.frequencies:
                raise ValueError(f"unknown qubit label {label!r} in calibration update")
        for edge in list(deviation_scales) + list(static_zz):
            a, b = edge
            if not self.graph.has_edge(a, b):
                raise ValueError(f"{tuple(edge)} is not an edge of the device")
        if coherence_time_us is not None:
            coherence_time_us = float(coherence_time_us)
            if coherence_time_us <= 0:
                raise ValueError(
                    f"coherence_time_us must be positive, got {coherence_time_us}"
                )
        for label, value in frequencies.items():
            self.frequencies[label] = value
        for label, delta in frequency_shifts.items():
            self.frequencies[label] = float(self.frequencies[label] + delta)
        if coherence_time_us is not None:
            self.params.coherence_time_us = coherence_time_us
        for edge, scale in deviation_scales.items():
            self._deviation_scales[self._key(edge)] = scale
        for edge, value in static_zz.items():
            self._static_zz[self._key(edge)] = value
        if invalidate:
            self.invalidate_calibrations()

    def invalidate_calibrations(self) -> None:
        """Drop every memoised trajectory and basis-gate selection.

        Call after changing device state in place (frequencies, parameters):
        the next lookup re-simulates each edge.  The compilation pipeline's
        cached :class:`~repro.compiler.pipeline.target.Target` snapshots for
        this device are dropped too, so subsequent ``transpile`` calls see
        the new state.  ``build_target(..., refresh=True)`` is equivalent to
        calling this first.
        """
        self._calibrations.clear()
        self.calibration_epoch += 1
        from repro.compiler.pipeline.target import invalidate_device_targets

        invalidate_device_targets(self)

    def _build_edge_calibration(
        self, edge: Edge, drive_amplitude: float
    ) -> EdgeCalibration:
        """Simulate one edge's trajectory; pure (no device state mutated).

        Safe to run from worker threads: it only reads the frequency table
        and edge parameters, and returns a fresh :class:`EdgeCalibration`
        that the caller is responsible for memoising.
        """
        model = self.entangler_model(edge, drive_amplitude)
        # Scan a bit past the sqrt(iSWAP) point so every strategy finds its
        # crossing; the XY rate sets the natural timescale.
        max_duration = 0.7 * np.pi / model.xy_rate
        resolution = max(
            self.params.trajectory_resolution_ns, max_duration / 400.0
        )
        trajectory = CartanTrajectory.from_model(
            model,
            max_duration=max_duration,
            resolution=resolution,
            label=f"edge {self._key(edge)} @ {drive_amplitude} Phi0",
        )
        return EdgeCalibration(
            edge=self._key(edge),
            drive_amplitude=float(drive_amplitude),
            model=model,
            trajectory=trajectory,
        )

    def calibration(self, edge: Edge, drive_amplitude: float) -> EdgeCalibration:
        """Trajectory (and cached selections) for an edge at an amplitude."""
        key = (self._key(edge), float(drive_amplitude))
        if key not in self._calibrations:
            self._calibrations[key] = self._build_edge_calibration(
                edge, drive_amplitude
            )
        return self._calibrations[key]

    # -- basis-gate selection --------------------------------------------------

    def amplitude_for_strategy(self, strategy: str) -> float:
        """Drive amplitude used by a named strategy in the case study.

        Each strategy declares its amplitude class on its
        :class:`~repro.compiler.pipeline.registry.StrategySpec`; unknown
        names raise ``ValueError`` listing the registered strategies.
        """
        from repro.compiler.pipeline.registry import get_strategy_spec

        return (
            self.params.baseline_amplitude
            if get_strategy_spec(strategy).uses_baseline_amplitude
            else self.params.nonstandard_amplitude
        )

    def basis_gate(self, edge: Edge, strategy: str) -> BasisGateSelection:
        """The basis gate selected for an edge by a named strategy."""
        from repro.compiler.pipeline.registry import REGISTRY, validate_strategy

        validate_strategy(strategy)
        amplitude = self.amplitude_for_strategy(strategy)
        calibration = self.calibration(edge, amplitude)
        # The generation invalidates memoised selections when a strategy name
        # is re-registered with a new definition; stale generations are evicted.
        key = (strategy, REGISTRY.generation(strategy))
        if key not in calibration.selections:
            for stale in [k for k in calibration.selections if k[0] == strategy]:
                del calibration.selections[stale]
            calibration.selections[key] = select_basis_gate(
                calibration.trajectory, strategy
            )
        return calibration.selections[key]

    def resolve_basis_gates(
        self,
        edges: Sequence[Edge],
        strategy: str,
        max_workers: int | None = None,
    ) -> dict[Edge, BasisGateSelection]:
        """Basis gates for many edges at once, resolved concurrently.

        Semantically identical to calling :meth:`basis_gate` per edge -- the
        same memoisation and stale-generation eviction apply, and the
        selections are byte-identical -- but trajectory simulation fans out
        over ``max_workers`` threads (:func:`default_edge_workers` when None)
        and the feasibility scans run batched across edges.  Workers only
        *compute*; all memo-dict mutation happens on the calling thread in
        deterministic edge order.
        """
        from repro.compiler.pipeline.registry import (
            REGISTRY,
            get_strategy,
            validate_strategy,
        )

        validate_strategy(strategy)
        amplitude = float(self.amplitude_for_strategy(strategy))
        selection_key = (strategy, REGISTRY.generation(strategy))

        results: dict[Edge, BasisGateSelection] = {}
        pending: list[Edge] = []
        for edge in edges:
            key = self._key(edge)
            calibration = self._calibrations.get((key, amplitude))
            selection = (
                calibration.selections.get(selection_key) if calibration else None
            )
            if selection is not None:
                results[key] = selection
            elif key not in pending:
                pending.append(key)
        if not pending:
            return results

        missing = [e for e in pending if (e, amplitude) not in self._calibrations]
        workers = max_workers if max_workers is not None else default_edge_workers()
        workers = max(1, min(workers, len(missing))) if missing else 1
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                built = list(
                    pool.map(
                        lambda edge: self._build_edge_calibration(edge, amplitude),
                        missing,
                    )
                )
        else:
            built = [self._build_edge_calibration(e, amplitude) for e in missing]
        for edge, calibration in zip(missing, built):
            self._calibrations.setdefault((edge, amplitude), calibration)

        strategy_obj = get_strategy(strategy)
        trajectories = [
            self._calibrations[(e, amplitude)].trajectory for e in pending
        ]
        selections = strategy_obj.select_batch(trajectories)
        for edge, selection in zip(pending, selections):
            calibration = self._calibrations[(edge, amplitude)]
            for stale in [k for k in calibration.selections if k[0] == strategy]:
                del calibration.selections[stale]
            calibration.selections[selection_key] = selection
            results[edge] = selection
        return results

    def basis_gates(self, strategy: str) -> dict[Edge, BasisGateSelection]:
        """Basis gates for every edge under a named strategy.

        Convenience wrapper over the pipeline's cached per-device
        :class:`~repro.compiler.pipeline.target.Target`, so the device and
        the compiler share one snapshot layer.
        """
        from repro.compiler.pipeline.target import build_target

        return dict(build_target(self, strategy).complete().selections)

    def average_basis_duration(self, strategy: str) -> float:
        """Average selected basis-gate duration over all edges (ns)."""
        from repro.compiler.pipeline.target import build_target

        return build_target(self, strategy).average_basis_duration()
