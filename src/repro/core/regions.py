"""Weyl-chamber region data for Fig. 4 of the paper.

These helpers package the geometric content of Section V in the exact form
the figure presents it: the two line segments of gates that give SWAP in two
layers (Fig. 4(a)), the mirror trajectory construction (Fig. 4(b)), the
tetrahedral complements of the SWAP-in-3 and CNOT-in-2 regions (Fig. 4(c)-(e))
and the intersection region (Fig. 4(f)), together with Monte-Carlo volume
fractions.
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.depth import (
    CNOT2_INFEASIBLE_TETRAHEDRA,
    SWAP3_INFEASIBLE_TETRAHEDRA,
    cnot2_feasible_mask,
    mirror_coordinates,
    swap3_feasible_mask,
)
from repro.weyl.chamber import WEYL_POINTS, points_on_segment, sample_chamber_points

Coords = tuple[float, float, float]


def swap2_segments(n_points: int = 21) -> dict[str, np.ndarray]:
    """The two segments of self-sufficient SWAP-in-2-layers gates (Fig. 4(a)).

    One runs from the B gate to sqrt(SWAP) and the other from B to
    sqrt(SWAP)^dag.
    """
    b = WEYL_POINTS["B"]
    return {
        "B_to_sqrt_swap": np.array(
            list(points_on_segment(b, WEYL_POINTS["SQRT_SWAP"], n_points))
        ),
        "B_to_sqrt_swap_dag": np.array(
            list(points_on_segment(b, WEYL_POINTS["SQRT_SWAP_DAG"], n_points))
        ),
    }


def mirror_trajectory(coordinates: np.ndarray) -> np.ndarray:
    """Mirror every point of a trajectory (Fig. 4(b)).

    For each point the returned point is the unique partner with which it
    could synthesize SWAP in two layers; a trajectory leaving the identity has
    a mirror leaving SWAP, and the two only intersect for very special
    trajectories -- which is why two-layer SWAP synthesis is generally not
    available and Criterion 1 settles for three layers.
    """
    return np.array([mirror_coordinates(tuple(c)) for c in np.asarray(coordinates, float)])


def swap3_infeasible_tetrahedra() -> tuple:
    """Vertices of the four tetrahedra of Fig. 4(c)/(d)."""
    return SWAP3_INFEASIBLE_TETRAHEDRA


def cnot2_infeasible_tetrahedra() -> tuple:
    """Vertices of the three tetrahedra of Fig. 4(e)."""
    return CNOT2_INFEASIBLE_TETRAHEDRA


def _masked_fraction(mask_fn, n_samples: int, seed: int) -> float:
    """Fraction of ``n_samples`` seeded chamber points inside a region mask.

    Draws exactly the points :func:`~repro.weyl.chamber.chamber_volume_fraction`
    draws for the same seed, and the masks agree with the scalar predicates
    point for point, so the fraction is the scalar loop's, bit for bit.
    """
    points = sample_chamber_points(n_samples, np.random.default_rng(seed))
    return int(np.count_nonzero(mask_fn(points))) / float(n_samples)


def swap3_feasible_volume_fraction(n_samples: int = 20000, seed: int = 1234) -> float:
    """Monte-Carlo fraction of the chamber able to give SWAP in 3 layers.

    The paper quotes 68.5 %.
    """
    return _masked_fraction(swap3_feasible_mask, n_samples, seed)


def cnot2_feasible_volume_fraction(n_samples: int = 20000, seed: int = 1234) -> float:
    """Monte-Carlo fraction of the chamber able to give CNOT in 2 layers.

    The paper quotes 75 %.
    """
    return _masked_fraction(cnot2_feasible_mask, n_samples, seed)


def intersection_volume_fraction(n_samples: int = 20000, seed: int = 1234) -> float:
    """Fraction of the chamber in the Fig. 4(f) region (SWAP-3 and CNOT-2)."""
    return _masked_fraction(
        lambda points: swap3_feasible_mask(points) & cnot2_feasible_mask(points),
        n_samples,
        seed,
    )


def exact_infeasible_volume_fractions() -> dict[str, float]:
    """Exact (analytic) chamber volume fractions of the infeasible regions.

    Computed from the tetrahedra vertices; the chamber volume is 1/24.
    """
    def tetra_volume(vertices) -> float:
        v = np.asarray(vertices, dtype=float)
        return float(abs(np.linalg.det(v[1:] - v[0])) / 6.0)

    chamber = 1.0 / 24.0
    swap3 = sum(tetra_volume(t) for t in SWAP3_INFEASIBLE_TETRAHEDRA) / chamber
    cnot2 = sum(tetra_volume(t) for t in CNOT2_INFEASIBLE_TETRAHEDRA) / chamber
    return {"swap3_infeasible": swap3, "cnot2_infeasible": cnot2}
