"""Basis-gate selection strategies (Section V-E of the paper).

Each strategy inspects a pair's Cartan trajectory and returns the duration --
and hence the gate -- that should be calibrated as that pair's two-qubit basis
gate.  Criteria 1 and 2 are the two strategies evaluated in the case study;
the baseline strategy picks the sqrt(iSWAP)-equivalent gate from the standard
(low-drive) trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.trajectory import CartanTrajectory
from repro.synthesis.depth import (
    TwoLayerOracle,
    can_synthesize_cnot_in_2_layers,
    can_synthesize_swap_in_3_layers,
    cnot2_feasible_mask,
    minimum_layers,
    swap3_feasible_mask,
)
from repro.weyl.cartan import canonicalize_coordinates
from repro.weyl.chamber import WEYL_POINTS, point_distance
from repro.weyl.entangling_power import is_perfect_entangler

Coords = tuple[float, float, float]

@dataclass(frozen=True)
class BasisGateSelection:
    """The outcome of selecting a basis gate from a trajectory.

    Attributes:
        strategy: name of the selection strategy.
        duration: pulse duration of the selected gate (ns).
        coordinates: canonical Cartan coordinates of the selected gate.
        unitary: 4x4 unitary of the gate (None when the trajectory carries no
            gate model).
        swap_layers: number of layers needed to synthesize SWAP with this gate.
        cnot_layers: number of layers needed to synthesize CNOT with this gate.
    """

    strategy: str
    duration: float
    coordinates: Coords
    unitary: np.ndarray | None
    swap_layers: int
    cnot_layers: int


class SelectionStrategy:
    """Base class for basis-gate selection strategies."""

    name = "base"
    #: True when :meth:`batch_predicate` implements a vectorized scan whose
    #: sample flags match the scalar :meth:`predicate` exactly.  Strategies
    #: with one always scan batched; the others scan sample by sample.
    has_batch_predicate = False

    def predicate(self, coords: Coords) -> bool:
        """Feasibility predicate the selected gate must satisfy."""
        raise NotImplementedError

    def batch_predicate(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized counterpart of :meth:`predicate` over ``(n, 3)`` points."""
        raise NotImplementedError

    def select(self, trajectory: CartanTrajectory) -> BasisGateSelection:
        """Select the fastest gate on ``trajectory`` satisfying the predicate."""
        batch = self.batch_predicate if self.has_batch_predicate else None
        duration = trajectory.first_duration_where(
            self.predicate, batch_predicate=batch
        )
        if duration is None:
            raise ValueError(
                f"strategy {self.name!r} found no suitable gate on trajectory "
                f"{trajectory.label!r}"
            )
        return self._selection_from_duration(trajectory, duration)

    def select_batch(
        self, trajectories: Sequence[CartanTrajectory]
    ) -> list[BasisGateSelection]:
        """Select basis gates for many trajectories at once.

        With a vectorized predicate the per-sample scan runs as one mask call
        over all trajectories and the bisection refinements advance in
        lockstep (one mask call per step across all unresolved trajectories).
        Every per-point boolean matches the scalar predicate exactly, so the
        selected durations are identical to calling :meth:`select` per
        trajectory.
        """
        trajectories = list(trajectories)
        if not trajectories:
            return []
        if not self.has_batch_predicate:
            return [self.select(t) for t in trajectories]
        durations = _batched_first_durations(trajectories, self.batch_predicate)
        selections = []
        for trajectory, duration in zip(trajectories, durations):
            if duration is None:
                raise ValueError(
                    f"strategy {self.name!r} found no suitable gate on trajectory "
                    f"{trajectory.label!r}"
                )
            selections.append(self._selection_from_duration(trajectory, duration))
        return selections

    def _selection_from_duration(
        self, trajectory: CartanTrajectory, duration: float
    ) -> BasisGateSelection:
        coords = trajectory.coordinates_at(duration)
        unitary = None
        if trajectory.gate_model is not None:
            unitary = trajectory.unitary_at(duration)
        swap_layers = _swap_layer_count(coords)
        cnot_layers = _cnot_layer_count(coords)
        return BasisGateSelection(
            strategy=self.name,
            duration=float(duration),
            coordinates=coords,
            unitary=unitary,
            swap_layers=swap_layers,
            cnot_layers=cnot_layers,
        )


def _batched_first_durations(
    trajectories: Sequence[CartanTrajectory],
    batch_mask: Callable[[np.ndarray], np.ndarray],
    refine_tolerance: float = 1e-3,
) -> list[float | None]:
    """First crossing duration per trajectory, computed in lockstep.

    Mirrors ``CartanTrajectory.first_duration_where`` exactly -- same scan,
    same bisection updates, same ``high`` endpoint returned -- but evaluates
    the feasibility mask across all trajectories per step instead of once per
    point per trajectory.
    """
    from repro.weyl.cartan import canonicalize_coordinates_batch

    counts = [len(t) for t in trajectories]
    all_coords = np.concatenate([t.coordinates for t in trajectories], axis=0)
    mask = np.asarray(
        batch_mask(canonicalize_coordinates_batch(all_coords)), dtype=bool
    )

    results: list[float | None] = [None] * len(trajectories)
    low: dict[int, float] = {}
    high: dict[int, float] = {}
    offset = 0
    for i, trajectory in enumerate(trajectories):
        flags = mask[offset : offset + counts[i]]
        offset += counts[i]
        if not flags.any():
            continue
        first_index = int(np.argmax(flags))
        if first_index == 0:
            results[i] = float(trajectory.durations[0])
        else:
            low[i] = float(trajectory.durations[first_index - 1])
            high[i] = float(trajectory.durations[first_index])

    active = [i for i in low if high[i] - low[i] > refine_tolerance]
    while active:
        mids = {i: 0.5 * (low[i] + high[i]) for i in active}
        rows = np.array(
            [trajectories[i].coordinates_at(mids[i]) for i in active], dtype=float
        )
        flags = np.asarray(batch_mask(rows), dtype=bool)
        still = []
        for passed, i in zip(flags, active):
            if passed:
                high[i] = mids[i]
            else:
                low[i] = mids[i]
            if high[i] - low[i] > refine_tolerance:
                still.append(i)
        active = still
    for i in low:
        results[i] = high[i]
    return results


def _swap_layer_count(coords: Coords) -> int:
    """Layer count for SWAP from a basis gate at ``coords`` (1, 2, 3 or 4)."""
    from repro.synthesis.depth import (
        can_synthesize_swap_in_1_layer,
        can_synthesize_swap_in_2_layers,
    )

    if can_synthesize_swap_in_1_layer(coords):
        return 1
    if can_synthesize_swap_in_2_layers(coords):
        return 2
    if can_synthesize_swap_in_3_layers(coords):
        return 3
    return 4


def _cnot_layer_count(coords: Coords) -> int:
    """Layer count for CNOT from a basis gate at ``coords`` (2, 3 or 4)."""
    if can_synthesize_cnot_in_2_layers(coords):
        return 2
    if TwoLayerOracle().can_reach_in_3(WEYL_POINTS["CNOT"], coords):
        return 3
    return 4


class Criterion1Strategy(SelectionStrategy):
    """Criterion 1: fastest gate able to synthesize SWAP in three layers."""

    name = "criterion1"
    has_batch_predicate = True

    def predicate(self, coords: Coords) -> bool:
        return can_synthesize_swap_in_3_layers(coords)

    def batch_predicate(self, coords: np.ndarray) -> np.ndarray:
        return swap3_feasible_mask(coords)


class Criterion2Strategy(SelectionStrategy):
    """Criterion 2: fastest gate giving SWAP in 3 layers and CNOT in 2."""

    name = "criterion2"
    has_batch_predicate = True

    def predicate(self, coords: Coords) -> bool:
        return can_synthesize_swap_in_3_layers(coords) and can_synthesize_cnot_in_2_layers(
            coords
        )

    def batch_predicate(self, coords: np.ndarray) -> np.ndarray:
        return swap3_feasible_mask(coords) & cnot2_feasible_mask(coords)


class BaselineSqrtIswapStrategy(SelectionStrategy):
    """Baseline: the sqrt(iSWAP)-equivalent gate on a standard trajectory.

    On an ideal XY trajectory the first gate able to synthesize SWAP in three
    layers *is* sqrt(iSWAP); on nearly standard trajectories the selected gate
    is the closest sampled gate to sqrt(iSWAP).  A tolerance guards against
    picking a genuinely nonstandard gate by accident.
    """

    name = "baseline"
    has_batch_predicate = True

    def __init__(self, tolerance: float = 0.08):
        self.tolerance = tolerance

    def predicate(self, coords: Coords) -> bool:
        return can_synthesize_swap_in_3_layers(coords)

    def batch_predicate(self, coords: np.ndarray) -> np.ndarray:
        return swap3_feasible_mask(coords)

    def _check_standard(self, selection: BasisGateSelection) -> None:
        target = WEYL_POINTS["SQRT_ISWAP"]
        distance = point_distance(selection.coordinates, target)
        if distance > self.tolerance:
            raise ValueError(
                "baseline strategy expected a (near-)standard trajectory but the "
                f"selected gate {selection.coordinates} is {distance:.3f} away from "
                "sqrt(iSWAP); use Criterion 1/2 for nonstandard trajectories"
            )

    def select(self, trajectory: CartanTrajectory) -> BasisGateSelection:
        selection = super().select(trajectory)
        self._check_standard(selection)
        return BasisGateSelection(
            strategy=self.name,
            duration=selection.duration,
            coordinates=selection.coordinates,
            unitary=selection.unitary,
            swap_layers=selection.swap_layers,
            cnot_layers=selection.cnot_layers,
        )

    def select_batch(
        self, trajectories: Sequence[CartanTrajectory]
    ) -> list[BasisGateSelection]:
        selections = super().select_batch(trajectories)
        for selection in selections:
            self._check_standard(selection)
        return selections


class PredicateStrategy(SelectionStrategy):
    """A custom strategy built from an arbitrary coordinate predicate.

    Example: the paper mentions selecting "the fastest gate on the trajectory
    that is both a PE and can synthesize SWAP in 3 layers"::

        PredicateStrategy(
            "pe_and_swap3",
            lambda c: is_perfect_entangler(c) and can_synthesize_swap_in_3_layers(c),
        )
    """

    def __init__(self, name: str, predicate: Callable[[Coords], bool]):
        self.name = name
        self._predicate = predicate

    def predicate(self, coords: Coords) -> bool:
        return self._predicate(canonicalize_coordinates(coords))


@dataclass
class CompositeCriterionStrategy(SelectionStrategy):
    """Require several target gates to be synthesizable within layer budgets.

    ``targets`` maps a target name to ``(coordinates, max_layers)``; the
    strategy selects the fastest gate on the trajectory able to synthesize
    every target within its budget.  Budgets up to three layers are decided
    exactly (:func:`~repro.synthesis.depth.minimum_layers`); no test exists
    beyond three, so larger budgets are assumed to suffice.  This realises
    the paper's "simultaneous prioritisation of multiple target gates".
    """

    targets: dict[str, tuple[Coords, int]] = field(default_factory=dict)
    name: str = "composite"

    def predicate(self, coords: Coords) -> bool:
        for target_coords, budget in self.targets.values():
            # One layer past the budget keeps "needs more" distinct from
            # "fits exactly" in the capped answer.
            if budget <= 3 and minimum_layers(
                target_coords, coords, max_layers=budget + 1
            ) > budget:
                return False
        return True


def select_basis_gate(
    trajectory: CartanTrajectory, strategy: SelectionStrategy | str
) -> BasisGateSelection:
    """Convenience function: select a basis gate with a named strategy.

    Names are resolved through the strategy registry
    (:mod:`repro.compiler.pipeline.registry`); unknown names raise
    ``ValueError`` listing the registered strategies.
    """
    if isinstance(strategy, str):
        from repro.compiler.pipeline.registry import get_strategy

        strategy = get_strategy(strategy)
    return strategy.select(trajectory)


def available_strategies() -> Sequence[str]:
    """Names accepted by :func:`select_basis_gate` (registry contents)."""
    from repro.compiler.pipeline.registry import available_strategy_names

    return available_strategy_names()
