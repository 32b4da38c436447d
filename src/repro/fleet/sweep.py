"""The fleet sweep: compile every (circuit x strategy x device) cell.

:func:`run_sweep` is the engine's entry point.  For each device of the fleet
it obtains one :class:`Target` per strategy -- completed through the
persistent target store (:func:`~repro.fleet.cache.get_target`) when the
spec names a ``cache_dir``, else resolved lazily in memory -- and pushes the whole circuit suite through the
shared dispatch core (:class:`~repro.compiler.pipeline.dispatch.BatchDispatcher`,
serial, thread- or process-pooled per the spec; one pool persists across the
whole sweep).  The
per-cell fidelities and durations aggregate into per-strategy distributions
(mean, p50, p95) plus a win rate against the spec's fixed-basis baseline,
demonstrating the paper's claim across topologies and frequency draws rather
than on a single sampled device.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import (
    bernstein_vazirani,
    cuccaro_adder,
    ghz_circuit,
    qaoa_circuit,
    qft_circuit,
)
from repro.compiler.pipeline.dispatch import BatchDispatcher, DispatchContext
from repro.compiler.pipeline.registry import validate_strategy
from repro.compiler.pipeline.target import build_target
from repro.fleet.cache import TARGET_CODEC, get_target
from repro.fleet.devices import build_device, device_fingerprint, fleet_scenarios
from repro.fleet.spec import FleetSpec
from repro.store import ContentStore

#: QAOA circuits use a fixed graph seed so a named circuit is reproducible.
_QAOA_GRAPH_SEED = 7

#: Circuit-name prefix -> builder taking the parsed size parameters.
_CIRCUIT_FAMILIES: dict[str, Callable[..., QuantumCircuit]] = {
    "ghz": lambda n: ghz_circuit(n),
    "bv": lambda n: bernstein_vazirani(n),
    "qft": lambda n: qft_circuit(n),
    "cuccaro": lambda n: cuccaro_adder(n),
    "qaoa": lambda density, n: qaoa_circuit(n, density, seed=_QAOA_GRAPH_SEED),
}


@lru_cache(maxsize=512)
def circuit_qubit_count(name: str) -> int:
    """Qubit count of a named benchmark circuit (memoised).

    Request validation needs only the width, not the gate list; caching it
    keeps per-request parsing O(1) instead of rebuilding e.g. a full
    ``qft_10`` on every wire message.
    """
    return build_circuit(name).n_qubits


def build_circuit(name: str) -> QuantumCircuit:
    """Build a benchmark circuit from its fleet name.

    Names are ``family_N`` (``ghz_4``, ``bv_9``, ``qft_10``, ``cuccaro_10``)
    or ``qaoa_DENSITY_N`` (``qaoa_0.33_20``), matching the Table II naming.
    """
    family, _, rest = name.partition("_")
    builder = _CIRCUIT_FAMILIES.get(family)
    if builder is None or not rest:
        raise ValueError(
            f"unknown circuit {name!r}; expected one of "
            f"{sorted(_CIRCUIT_FAMILIES)} with a size suffix, e.g. 'ghz_4', "
            "'bv_9' or 'qaoa_0.33_20'"
        )
    try:
        if family == "qaoa":
            density_text, _, size_text = rest.partition("_")
            if not size_text.isdigit():  # int() would accept "4_5" as 45
                raise ValueError(size_text)
            args: tuple = (float(density_text), int(size_text))
        else:
            if not rest.isdigit():
                raise ValueError(rest)
            args = (int(rest),)
    except ValueError as error:
        raise ValueError(f"cannot parse circuit size in {name!r}") from error
    return builder(*args)


@dataclass(frozen=True)
class CellResult:
    """One compiled (device, circuit, strategy, mapping) cell of the sweep."""

    scenario: str
    topology: str
    device_seed: int
    circuit: str
    strategy: str
    fidelity: float
    duration_ns: float
    swap_count: int
    two_qubit_layers: int
    mapping: str = "hop_count"
    swap_duration_ns: float = 0.0

    def as_dict(self) -> dict:
        """Plain-data row for JSON results."""
        return {
            "scenario": self.scenario,
            "topology": self.topology,
            "device_seed": self.device_seed,
            "circuit": self.circuit,
            "strategy": self.strategy,
            "mapping": self.mapping,
            "fidelity": self.fidelity,
            "duration_ns": self.duration_ns,
            "swap_count": self.swap_count,
            "swap_duration_ns": self.swap_duration_ns,
            "two_qubit_layers": self.two_qubit_layers,
        }


@dataclass(frozen=True)
class StrategyAggregate:
    """Distribution summary of one (strategy, mapping) over every sweep cell."""

    strategy: str
    cells: int
    fidelity_mean: float
    fidelity_p50: float
    fidelity_p95: float
    duration_mean_ns: float
    duration_p50_ns: float
    duration_p95_ns: float
    win_rate: float
    mapping: str = "hop_count"
    swap_count_mean: float = 0.0
    swap_duration_mean_ns: float = 0.0

    def as_dict(self) -> dict:
        """Plain-data row for JSON results."""
        return {
            "strategy": self.strategy,
            "mapping": self.mapping,
            "cells": self.cells,
            "fidelity": {
                "mean": self.fidelity_mean,
                "p50": self.fidelity_p50,
                "p95": self.fidelity_p95,
            },
            "duration_ns": {
                "mean": self.duration_mean_ns,
                "p50": self.duration_p50_ns,
                "p95": self.duration_p95_ns,
            },
            "swap_count_mean": self.swap_count_mean,
            "swap_duration_mean_ns": self.swap_duration_mean_ns,
            "win_rate": self.win_rate,
        }


def aggregate_label(strategy: str, mapping: str, baseline_mapping: str) -> str:
    """Key for one (strategy, mapping) aggregate.

    Cells under the reference mapping keep the bare strategy name (so
    single-mapping sweeps read exactly as before); other mappings are
    suffixed, e.g. ``criterion2+basis_aware``.
    """
    return strategy if mapping == baseline_mapping else f"{strategy}+{mapping}"


def aggregate_cells(
    cells: list[CellResult],
    baseline_strategy: str,
    baseline_mapping: str,
) -> dict[str, StrategyAggregate]:
    """Per-(strategy, mapping) distributions plus win rate vs the baseline.

    A (strategy, mapping) "wins" a (device, circuit) cell when its fidelity
    strictly exceeds the fixed reference -- the baseline strategy under the
    baseline mapping -- on the same cell; the reference's own win rate is 0
    by construction.  ``baseline_mapping`` is deliberately required: a
    defaulted reference that the cells do not contain would silently zero
    every win rate (``run_sweep`` passes ``spec.baseline_mapping``).
    """
    by_group: dict[tuple[str, str], list[CellResult]] = {}
    for cell in cells:
        by_group.setdefault((cell.strategy, cell.mapping), []).append(cell)
    baseline_fidelity = {
        (cell.scenario, cell.circuit): cell.fidelity
        for cell in by_group.get((baseline_strategy, baseline_mapping), [])
    }
    aggregates: dict[str, StrategyAggregate] = {}
    for (strategy, mapping), rows in by_group.items():
        fidelities = np.array([row.fidelity for row in rows])
        durations = np.array([row.duration_ns for row in rows])
        wins = sum(
            1
            for row in rows
            if row.fidelity > baseline_fidelity.get((row.scenario, row.circuit), np.inf)
        )
        label = aggregate_label(strategy, mapping, baseline_mapping)
        aggregates[label] = StrategyAggregate(
            strategy=strategy,
            mapping=mapping,
            cells=len(rows),
            fidelity_mean=float(fidelities.mean()),
            fidelity_p50=float(np.percentile(fidelities, 50)),
            fidelity_p95=float(np.percentile(fidelities, 95)),
            duration_mean_ns=float(durations.mean()),
            duration_p50_ns=float(np.percentile(durations, 50)),
            duration_p95_ns=float(np.percentile(durations, 95)),
            swap_count_mean=float(np.mean([row.swap_count for row in rows])),
            swap_duration_mean_ns=float(
                np.mean([row.swap_duration_ns for row in rows])
            ),
            win_rate=wins / len(rows),
        )
    return aggregates


def compare_mappings(
    cells: list[CellResult], baseline_mapping: str
) -> list[dict]:
    """Per-strategy comparison of each mapping against the reference mapping.

    For every (strategy, mapping != baseline_mapping) pair this reports, over
    the cells both mappings compiled: the mean swap-count / swap-duration /
    makespan deltas (negative = the mapping improved on the reference) and
    the fraction of cells where it strictly won on fidelity or swap duration.
    """
    reference = {
        (c.strategy, c.scenario, c.circuit): c
        for c in cells
        if c.mapping == baseline_mapping
    }
    groups: dict[tuple[str, str], list[tuple[CellResult, CellResult]]] = {}
    for cell in cells:
        if cell.mapping == baseline_mapping:
            continue
        base = reference.get((cell.strategy, cell.scenario, cell.circuit))
        if base is not None:
            groups.setdefault((cell.strategy, cell.mapping), []).append((cell, base))
    rows = []
    for (strategy, mapping), pairs in sorted(groups.items()):
        n = len(pairs)
        rows.append(
            {
                "strategy": strategy,
                "mapping": mapping,
                "baseline_mapping": baseline_mapping,
                "cells": n,
                "swap_count_delta_mean": float(
                    np.mean([c.swap_count - b.swap_count for c, b in pairs])
                ),
                "swap_duration_delta_mean_ns": float(
                    np.mean([c.swap_duration_ns - b.swap_duration_ns for c, b in pairs])
                ),
                "duration_delta_mean_ns": float(
                    np.mean([c.duration_ns - b.duration_ns for c, b in pairs])
                ),
                "fidelity_win_rate": sum(
                    1 for c, b in pairs if c.fidelity > b.fidelity
                )
                / n,
                "swap_duration_win_rate": sum(
                    1 for c, b in pairs if c.swap_duration_ns < b.swap_duration_ns
                )
                / n,
            }
        )
    return rows


@dataclass
class FleetResult:
    """Everything one :func:`run_sweep` produced."""

    spec: FleetSpec
    cells: list[CellResult]
    aggregates: dict[str, StrategyAggregate]
    cache_stats: dict | None = None
    mapping_comparison: list[dict] | None = None

    def to_dict(self) -> dict:
        """Machine-readable form (the benchmarks-dir JSON artifact)."""
        return {
            "spec": self.spec.to_dict(),
            "device_count": self.spec.device_count,
            "cells": [cell.as_dict() for cell in self.cells],
            "aggregates": {
                strategy: aggregate.as_dict()
                for strategy, aggregate in self.aggregates.items()
            },
            "mapping_comparison": self.mapping_comparison,
            "cache": self.cache_stats,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`to_dict` to disk (creating parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    def format_table(self) -> str:
        """Human-readable per-(strategy, mapping) summary of the sweep."""
        width = max(
            [14]
            + [
                len(aggregate_label(s, m, self.spec.baseline_mapping))
                for s in self.spec.strategies
                for m in self.spec.mappings
            ]
        )
        header = (
            f"{'Strategy':<{width}} {'cells':>6} {'fid mean':>9} {'fid p50':>9} "
            f"{'fid p95':>9} {'dur p50':>10} {'win rate':>9}"
        )
        lines = [header, "-" * len(header)]
        for mapping in self.spec.mappings:
            for strategy in self.spec.strategies:
                label = aggregate_label(strategy, mapping, self.spec.baseline_mapping)
                agg = self.aggregates[label]
                lines.append(
                    f"{label:<{width}} {agg.cells:>6d} {agg.fidelity_mean:>9.4f} "
                    f"{agg.fidelity_p50:>9.4f} {agg.fidelity_p95:>9.4f} "
                    f"{agg.duration_p50_ns:>8.1f}ns {agg.win_rate * 100:>8.1f}%"
                )
        return "\n".join(lines)

    def format_mapping_table(self) -> str:
        """Human-readable mapping-vs-reference comparison (empty when the
        sweep ran a single mapping)."""
        if not self.mapping_comparison:
            return ""
        header = (
            f"{'Strategy':<14} {'mapping':<14} {'d swaps':>8} {'d swap dur':>11} "
            f"{'d makespan':>11} {'fid wins':>9} {'swapdur wins':>13}"
        )
        lines = [header, "-" * len(header)]
        for row in self.mapping_comparison:
            lines.append(
                f"{row['strategy']:<14} {row['mapping']:<14} "
                f"{row['swap_count_delta_mean']:>+8.2f} "
                f"{row['swap_duration_delta_mean_ns']:>+9.1f}ns "
                f"{row['duration_delta_mean_ns']:>+9.1f}ns "
                f"{row['fidelity_win_rate'] * 100:>8.1f}% "
                f"{row['swap_duration_win_rate'] * 100:>12.1f}%"
            )
        return "\n".join(lines)


def run_sweep(spec: FleetSpec) -> FleetResult:
    """Compile the whole fleet and aggregate per-(strategy, mapping) stats.

    Every (circuit x strategy x device) cell compiles once per mapping in
    ``spec.mappings``; with more than one mapping the result also carries a
    per-strategy :func:`compare_mappings` report (swap count, swap duration
    and fidelity win rate vs the first-listed reference mapping).

    With ``spec.cache_dir`` set, every (device, strategy) target -- and its
    derived cost model -- is served from or persisted to the on-disk
    target store; a warm rerun of the same spec therefore hits the cache
    for 100% of cells and never simulates an edge.

    Example::

        result = run_sweep(FleetSpec(topologies=(TopologySpec.linear(6),)))
        print(result.format_table())           # per-strategy distributions
        result.write_json("fleet_results.json")
    """
    for strategy in spec.strategies:
        validate_strategy(strategy)
    circuits = [build_circuit(name) for name in spec.circuits]
    # Fail fast on impossible (topology, circuit) pairs -- every device size
    # is known up front, so no scenario's compilation work should be spent
    # before discovering a later scenario cannot fit a circuit.
    for topology in spec.topologies:
        oversized = [
            name
            for name, circuit in zip(spec.circuits, circuits)
            if circuit.n_qubits > topology.n_qubits
        ]
        if oversized:
            raise ValueError(
                f"circuits {oversized} need more qubits than topology "
                f"{topology.label!r} has ({topology.n_qubits})"
            )
    # The memory layer only needs to hold the current device's targets:
    # every scenario is a new device, so earlier entries are never re-read.
    cache = (
        ContentStore(TARGET_CODEC, len(spec.strategies), spec.cache_dir)
        if spec.cache_dir is not None
        else None
    )

    cells: list[CellResult] = []
    # One dispatcher for the whole sweep: its worker pool persists across
    # scenarios instead of being torn down per (device, mapping) batch.  The
    # service layer shares this exact dispatch core (docs/service.md).
    with BatchDispatcher(
        executor=spec.executor, max_workers=spec.max_workers
    ) as dispatcher:
        for scenario in fleet_scenarios(spec):
            device = build_device(scenario, spec)
            if cache is not None:
                fingerprint = device_fingerprint(device)  # hash the device once
                targets = {
                    strategy: get_target(cache, device, strategy, fingerprint)[0]
                    for strategy in spec.strategies
                }
            else:
                targets = {
                    strategy: build_target(device, strategy)
                    for strategy in spec.strategies
                }
            for mapping in spec.mappings:
                context = DispatchContext(
                    device,
                    targets,
                    mapping=mapping,
                    seed=spec.compile_seed,
                    key=(
                        scenario.scenario_id,
                        spec.strategies,
                        mapping,
                        spec.compile_seed,
                    ),
                )
                batch = dispatcher.dispatch(circuits, context)
                for name, compiled in zip(spec.circuits, batch):
                    for strategy in spec.strategies:
                        cell = compiled[strategy]
                        cells.append(
                            CellResult(
                                scenario=scenario.scenario_id,
                                topology=scenario.topology.label,
                                device_seed=scenario.seed,
                                circuit=name,
                                strategy=strategy,
                                mapping=mapping,
                                fidelity=float(cell.fidelity),
                                duration_ns=float(cell.total_duration),
                                swap_count=int(cell.swap_count),
                                swap_duration_ns=float(cell.swap_duration_ns),
                                two_qubit_layers=int(cell.two_qubit_layer_count),
                            )
                        )

    return FleetResult(
        spec=spec,
        cells=cells,
        aggregates=aggregate_cells(
            cells, spec.baseline_strategy, spec.baseline_mapping
        ),
        cache_stats=cache.stats.as_dict() if cache is not None else None,
        mapping_comparison=(
            compare_mappings(cells, spec.baseline_mapping)
            if len(spec.mappings) > 1
            else None
        ),
    )
