"""Fleet specifications: which devices, circuits and strategies to sweep.

A :class:`FleetSpec` describes a Monte-Carlo evaluation of basis-gate
selection strategies over a *fleet* of simulated devices: a grid of
(topology family x size) x seeded frequency draws, each compiled against a
set of named benchmark circuits under every strategy.  The spec is a plain
frozen dataclass so it serializes into result files and cache metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.device.topology import grid_graph, heavy_hex_graph, linear_graph

#: Topology families the fleet knows how to instantiate.
TOPOLOGY_FAMILIES = ("grid", "linear", "heavy_hex")


@dataclass(frozen=True)
class TopologySpec:
    """One connectivity family at one parameterized size.

    ``size`` is family-specific: ``(rows, cols)`` for ``grid``, ``(length,)``
    for ``linear`` and ``(distance,)`` for ``heavy_hex``.  Use the
    :meth:`grid` / :meth:`linear` / :meth:`heavy_hex` constructors or
    :meth:`parse` rather than spelling the tuple by hand.

    Example::

        TopologySpec.parse("heavy_hex:3") == TopologySpec.heavy_hex(3)
        TopologySpec.grid(3, 4).label      # 'grid:3x4'
        TopologySpec.linear(6).n_qubits    # 6
    """

    family: str
    size: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise ValueError(
                f"unknown topology family {self.family!r}; expected one of "
                f"{TOPOLOGY_FAMILIES}"
            )
        expected = 2 if self.family == "grid" else 1
        if len(self.size) != expected or any(s < 1 for s in self.size):
            raise ValueError(
                f"{self.family} topology takes {expected} positive size "
                f"parameter(s), got {self.size}"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def grid(cls, rows: int, cols: int) -> "TopologySpec":
        """A ``rows x cols`` rectangular lattice."""
        return cls("grid", (rows, cols))

    @classmethod
    def linear(cls, length: int) -> "TopologySpec":
        """A 1D chain of ``length`` qubits."""
        return cls("linear", (length,))

    @classmethod
    def heavy_hex(cls, distance: int) -> "TopologySpec":
        """An IBM-style heavy-hexagonal lattice at a code distance."""
        return cls("heavy_hex", (distance,))

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        """Parse CLI syntax: ``grid:3x3``, ``linear:6``, ``heavy_hex:3``."""
        family, _, size_text = text.partition(":")
        family = family.strip()
        if family not in TOPOLOGY_FAMILIES:
            raise ValueError(
                f"cannot parse topology {text!r}; expected "
                "'grid:RxC', 'linear:N' or 'heavy_hex:D'"
            )
        try:
            parts = tuple(int(p) for p in size_text.strip().split("x") if p)
        except ValueError as error:
            raise ValueError(f"cannot parse topology size in {text!r}") from error
        return cls(family, parts)

    # -- derived --------------------------------------------------------------

    @property
    def label(self) -> str:
        """Canonical short name, e.g. ``grid:3x3`` (``parse`` round-trips it)."""
        return f"{self.family}:{'x'.join(str(s) for s in self.size)}"

    def graph(self) -> nx.Graph:
        """Build the connectivity graph for this topology."""
        if self.family == "grid":
            return grid_graph(*self.size)
        if self.family == "linear":
            return linear_graph(self.size[0])
        return heavy_hex_graph(self.size[0])

    @property
    def n_qubits(self) -> int:
        """Number of qubits a device with this topology will have."""
        return self.graph().number_of_nodes()


@dataclass(frozen=True)
class FleetSpec:
    """A full Monte-Carlo sweep: fleet x circuits x strategies.

    Attributes:
        topologies: connectivity families/sizes to instantiate.
        draws: seeded frequency/noise draws per topology (the Monte-Carlo
            axis); draw ``i`` uses device seed ``base_seed + i``.
        base_seed: first device seed.
        strategies: basis-gate selection strategies to compare (must be
            registered in the strategy registry).
        baseline_strategy: the fixed-basis reference that win rates are
            computed against (must appear in ``strategies``).
        circuits: named benchmark circuits, e.g. ``ghz_4``, ``bv_5``,
            ``qft_4``, ``cuccaro_6``, ``qaoa_0.3_8`` (see
            :func:`repro.fleet.sweep.build_circuit`).
        mappings: layout/routing metrics to sweep (registered mapping names,
            e.g. ``"hop_count"``, ``"basis_aware"``).  The **first** entry is
            the reference mapping that the per-strategy mapping comparison is
            computed against.
        compile_seed: layout/routing seed shared by every cell.
        max_workers: fan-out width for ``transpile_batch`` (None/<=1 serial).
        executor: ``"thread"`` or ``"process"`` (see ``transpile_batch``).
        cache_dir: when set, targets persist in a target store
            (:func:`~repro.fleet.cache.get_target`) rooted here, so warm
            reruns skip calibration entirely.
        coherence_time_us: per-qubit coherence time for every fleet device.
        single_qubit_gate_ns: single-qubit gate duration for every device.

    Example::

        spec = FleetSpec(
            topologies=(TopologySpec.grid(3, 3), TopologySpec.heavy_hex(2)),
            draws=3, strategies=("baseline", "criterion2"),
            circuits=("ghz_4", "bv_5"), cache_dir=".fleet-cache",
        )
        run_sweep(spec).format_table()
    """

    topologies: tuple[TopologySpec, ...]
    draws: int = 2
    base_seed: int = 11
    strategies: tuple[str, ...] = ("baseline", "criterion1", "criterion2")
    baseline_strategy: str = "baseline"
    circuits: tuple[str, ...] = ("ghz_4", "bv_4", "qft_4")
    mappings: tuple[str, ...] = ("hop_count",)
    compile_seed: int = 17
    max_workers: int | None = None
    executor: str = "thread"
    cache_dir: str | None = None
    coherence_time_us: float = 80.0
    single_qubit_gate_ns: float = 20.0

    def __post_init__(self) -> None:
        if not self.topologies:
            raise ValueError("FleetSpec needs at least one topology")
        if self.draws < 1:
            raise ValueError("draws must be positive")
        if not self.strategies:
            raise ValueError("FleetSpec needs at least one strategy")
        if self.baseline_strategy not in self.strategies:
            raise ValueError(
                f"baseline_strategy {self.baseline_strategy!r} must be one of the "
                f"swept strategies {self.strategies}"
            )
        if not self.circuits:
            raise ValueError("FleetSpec needs at least one circuit")
        if not self.mappings:
            raise ValueError("FleetSpec needs at least one mapping")
        if len(set(self.mappings)) != len(self.mappings):
            raise ValueError(f"duplicate mappings in {self.mappings}")
        from repro.compiler.cost import validate_mapping
        from repro.compiler.pipeline.batch import EXECUTORS

        for mapping in self.mappings:
            validate_mapping(mapping)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )

    @property
    def device_count(self) -> int:
        """Number of devices the fleet instantiates."""
        return len(self.topologies) * self.draws

    @property
    def baseline_mapping(self) -> str:
        """The reference mapping (first listed) for mapping comparisons."""
        return self.mappings[0]

    def to_dict(self) -> dict:
        """JSON-serializable echo of the spec for result files."""
        return {
            "topologies": [t.label for t in self.topologies],
            "draws": self.draws,
            "base_seed": self.base_seed,
            "strategies": list(self.strategies),
            "baseline_strategy": self.baseline_strategy,
            "circuits": list(self.circuits),
            "mappings": list(self.mappings),
            "compile_seed": self.compile_seed,
            "max_workers": self.max_workers,
            "executor": self.executor,
            "cache_dir": self.cache_dir,
            "coherence_time_us": self.coherence_time_us,
            "single_qubit_gate_ns": self.single_qubit_gate_ns,
        }
