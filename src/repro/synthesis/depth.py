"""Analytic circuit-depth theory for two-qubit gate synthesis (Section V).

The paper's basis-gate selection criteria hinge on three questions about a
candidate basis gate ``G`` with Cartan coordinates ``g``:

1. can ``G`` synthesize SWAP in 1 layer?  (only if ``G`` is locally SWAP)
2. can ``G`` (alone, or together with a partner ``G'``) synthesize SWAP in 2
   layers?  The exact answer is the *mirror relation* of Appendix B:
   ``G`` and ``G'`` work iff ``g' ~ canonicalize((1/2,1/2,1/2) - g)``.
3. can ``G`` synthesize SWAP in 3 layers / CNOT in 2 layers?  The answer is a
   region of the Weyl chamber whose complement is a small union of tetrahedra
   (Fig. 4(d) and 4(e) of the paper); membership is a point-in-tetrahedron
   test.

For arbitrary targets, :class:`TwoLayerOracle` decides two- and three-layer
reachability exactly, with the monodromy-polytope inequalities of Peterson,
Crooks & Smith (Theorem 5.1 in the paper): a gate class maps to an alcove
point of SU(4), and ``A`` is reachable from basis gates ``B, C`` in two layers
iff the points of ``B``, ``C`` and ``A^-1`` satisfy the 72 linear
inequalities of :data:`HORN_INEQUALITIES`.  Three layers add one
intermediate class, found by a vertex test over a small polytope.
:func:`minimum_layers` combines these tests into a depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.weyl.cartan import (
    canonical_points_close,
    canonicalize_coordinates,
    canonicalize_coordinates_batch,
    coordinates_close,
)
from repro.weyl.chamber import WEYL_POINTS

Coords = tuple[float, float, float]

# --------------------------------------------------------------------------
# Mirror relation (Appendix B): 2-layer SWAP synthesis.
# --------------------------------------------------------------------------


def mirror_coordinates(coords: Coords) -> Coords:
    """The unique partner class that completes a 2-layer SWAP decomposition.

    Derived in Appendix B of the paper: gates ``B ~ (x, y, z)`` and
    ``C ~ (x', y', z')`` can synthesize SWAP in two layers iff
    ``(x, y, z) ~ (1/2, 1/2, 1/2) - (x', y', z')`` up to canonicalization.
    The CNOT/iSWAP pair is the canonical example.
    """
    coords = canonicalize_coordinates(coords)
    raw = tuple(0.5 - c for c in coords)
    return canonicalize_coordinates(raw)


def swap2_partner(coords: Coords) -> Coords:
    """Alias for :func:`mirror_coordinates` (the ``*_mirror`` of Fig. 3(b))."""
    return mirror_coordinates(coords)


def can_synthesize_swap_in_1_layer(coords: Coords, atol: float = 1e-7) -> bool:
    """True iff the gate is locally equivalent to SWAP itself."""
    return coordinates_close(coords, WEYL_POINTS["SWAP"], atol=atol)


def can_synthesize_swap_in_2_layers(
    coords: Coords, partner: Coords | None = None, atol: float = 1e-7
) -> bool:
    """True iff ``coords`` (with ``partner``, or with itself) gives SWAP in 2
    layers.

    Single-gate case: the self-mirror gates form the two segments from the B
    gate to sqrt(SWAP) and from B to sqrt(SWAP)^dag (Fig. 4(a)).
    """
    partner = coords if partner is None else partner
    return coordinates_close(mirror_coordinates(coords), partner, atol=atol)


# --------------------------------------------------------------------------
# Tetrahedral regions (Fig. 4(d) and 4(e)).
# --------------------------------------------------------------------------

#: Tetrahedra whose (open) union is the set of gates NOT able to synthesize
#: SWAP in three layers; Fig. 4(d).  Together they occupy ~31.5 % of the
#: chamber, i.e. the feasible set is the 68.5 % quoted in the paper.
SWAP3_INFEASIBLE_TETRAHEDRA: tuple[tuple[Coords, Coords, Coords, Coords], ...] = (
    ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.25, 0.0), (1 / 6, 1 / 6, 1 / 6)),
    ((0.5, 0.0, 0.0), (1.0, 0.0, 0.0), (0.75, 0.25, 0.0), (5 / 6, 1 / 6, 1 / 6)),
    (
        (0.5, 0.5, 0.5),
        (0.5, 1 / 6, 1 / 6),
        (1 / 6, 1 / 6, 1 / 6),
        (1 / 3, 1 / 3, 1 / 6),
    ),
    (
        (0.5, 0.5, 0.5),
        (0.5, 1 / 6, 1 / 6),
        (5 / 6, 1 / 6, 1 / 6),
        (2 / 3, 1 / 3, 1 / 6),
    ),
)

#: Tetrahedra whose (open) union is the set of gates NOT able to synthesize
#: CNOT in two layers; Fig. 4(e).  They occupy exactly 25 % of the chamber,
#: i.e. the feasible set is the 75 % quoted in the paper.
CNOT2_INFEASIBLE_TETRAHEDRA: tuple[tuple[Coords, Coords, Coords, Coords], ...] = (
    ((0.0, 0.0, 0.0), (0.25, 0.0, 0.0), (0.25, 0.25, 0.0), (0.25, 0.25, 0.25)),
    ((1.0, 0.0, 0.0), (0.75, 0.0, 0.0), (0.75, 0.25, 0.0), (0.75, 0.25, 0.25)),
    ((0.5, 0.5, 0.5), (0.25, 0.25, 0.25), (0.75, 0.25, 0.25), (0.5, 0.5, 0.25)),
)

#: The two faces whose first crossing marks the fastest SWAP-in-3-layers gate
#: on a trajectory leaving the identity corner (Section V-C, Summary).
SWAP3_ENTRY_FACES: tuple[tuple[Coords, Coords, Coords], ...] = (
    ((0.5, 0.0, 0.0), (0.25, 0.25, 0.0), (1 / 6, 1 / 6, 1 / 6)),
    ((0.5, 0.0, 0.0), (0.75, 0.25, 0.0), (5 / 6, 1 / 6, 1 / 6)),
)

#: The faces whose first crossing marks the fastest CNOT-in-2-layers gate.
CNOT2_ENTRY_FACES: tuple[tuple[Coords, Coords, Coords], ...] = (
    ((0.25, 0.0, 0.0), (0.25, 0.25, 0.0), (0.25, 0.25, 0.25)),
    ((0.75, 0.0, 0.0), (0.75, 0.25, 0.0), (0.75, 0.25, 0.25)),
)


def _shape_key(vertices: Sequence[Coords]) -> tuple:
    return tuple(tuple(float(c) for c in v) for v in vertices)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached arrays read-only: every caller shares them."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _tetrahedron_frame(vertices: tuple) -> tuple[np.ndarray, ...]:
    """Origin and edge matrix of a tetrahedron (its barycentric frame)."""
    v = np.asarray(vertices, dtype=float)
    return _frozen(v[0].copy(), (v[1:] - v[0]).T)


def _barycentric_coordinates(
    point: Coords, vertices: Sequence[Coords]
) -> np.ndarray | None:
    """Barycentric coordinates of ``point`` w.r.t. a tetrahedron.

    Returns ``None`` when the tetrahedron is degenerate.
    """
    origin, mat = _tetrahedron_frame(_shape_key(vertices))
    try:
        local = np.linalg.solve(mat, np.asarray(point, dtype=float) - origin)
    except np.linalg.LinAlgError:
        return None
    return np.concatenate([[1.0 - local.sum()], local])


def point_in_tetrahedron(
    point: Coords,
    vertices: Sequence[Coords],
    include_boundary: bool = True,
    atol: float = 1e-9,
) -> bool:
    """Point-in-tetrahedron test via barycentric coordinates."""
    bary = _barycentric_coordinates(point, vertices)
    if bary is None:
        return False
    if include_boundary:
        return bool(np.all(bary >= -atol))
    return bool(np.all(bary > atol))


@lru_cache(maxsize=64)
def _triangle_frame(triangle: tuple) -> tuple | None:
    """A triangle's corner, unit normal, edges and their Gram entries, or
    ``None`` when it is degenerate."""
    a, b, c = (np.asarray(v, dtype=float) for v in triangle)
    normal = np.cross(b - a, c - a)
    norm = np.linalg.norm(normal)
    if norm < 1e-12:
        return None
    v0, v1 = b - a, c - a
    d00, d01, d11 = np.dot(v0, v0), np.dot(v0, v1), np.dot(v1, v1)
    return (*_frozen(a, normal / norm, v0, v1), d00, d01, d11, d00 * d11 - d01 * d01)


def point_on_triangle(
    point: Coords, triangle: Sequence[Coords], atol: float = 1e-9
) -> bool:
    """True if ``point`` lies on (within ``atol`` of) a triangle in 3D."""
    frame = _triangle_frame(_shape_key(triangle))
    if frame is None:
        return False
    a, normal, v0, v1, d00, d01, d11, denom = frame
    v2 = np.asarray(point, dtype=float) - a
    if abs(np.dot(v2, normal)) > max(atol, 1e-9):
        return False
    # 2D barycentric test in the plane of the triangle.
    d20, d21 = np.dot(v2, v0), np.dot(v2, v1)
    if abs(denom) < 1e-15:
        return False
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    u = 1.0 - v - w
    eps = 1e-7
    return bool(u >= -eps and v >= -eps and w >= -eps)


def _points_in_tetrahedron(
    points: np.ndarray,
    vertices: Sequence[Coords],
    atol: float = 1e-9,
) -> np.ndarray:
    """Vectorized closed-boundary :func:`point_in_tetrahedron` for ``(n, 3)``."""
    v = np.asarray(vertices, dtype=float)
    mat = (v[1:] - v[0]).T
    try:
        local = np.linalg.solve(mat, (points - v[0]).T)
    except np.linalg.LinAlgError:
        return np.zeros(len(points), dtype=bool)
    bary0 = 1.0 - local.sum(axis=0)
    return (bary0 >= -atol) & np.all(local >= -atol, axis=0)


def _points_on_triangle(
    points: np.ndarray, triangle: Sequence[Coords], atol: float = 1e-9
) -> np.ndarray:
    """Vectorized :func:`point_on_triangle` for an ``(n, 3)`` array."""
    a, b, c = (np.asarray(v, dtype=float) for v in triangle)
    normal = np.cross(b - a, c - a)
    norm = np.linalg.norm(normal)
    if norm < 1e-12:
        return np.zeros(len(points), dtype=bool)
    normal = normal / norm
    rel = points - a
    on_plane = np.abs(rel @ normal) <= max(atol, 1e-9)
    v0, v1 = b - a, c - a
    d00, d01, d11 = np.dot(v0, v0), np.dot(v0, v1), np.dot(v1, v1)
    denom = d00 * d11 - d01 * d01
    if abs(denom) < 1e-15:
        return np.zeros(len(points), dtype=bool)
    d20 = rel @ v0
    d21 = rel @ v1
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    u = 1.0 - v - w
    eps = 1e-7
    return on_plane & (u >= -eps) & (v >= -eps) & (w >= -eps)


def _feasible_mask_outside_tetrahedra(
    points: np.ndarray,
    tetrahedra: Sequence[tuple[Coords, Coords, Coords, Coords]],
    entry_faces: Sequence[tuple[Coords, Coords, Coords]],
    atol: float,
) -> np.ndarray:
    """Vectorized :func:`_feasible_outside_tetrahedra` over ``(n, 3)`` points.

    Matches the scalar logic exactly: both bottom-plane representatives are
    tested, entry-face membership wins, and otherwise the point must lie
    outside every closed infeasible tetrahedron.
    """
    pts = canonicalize_coordinates_batch(points)
    has_mirror = np.abs(pts[:, 2]) < 1e-9
    mirrored = pts.copy()
    mirrored[:, 0] = 1.0 - mirrored[:, 0]

    face_atol = max(atol, 1e-9)
    on_face = np.zeros(len(pts), dtype=bool)
    for face in entry_faces:
        on_face |= _points_on_triangle(pts, face, atol=face_atol)
        on_face |= has_mirror & _points_on_triangle(mirrored, face, atol=face_atol)
    in_tetra = np.zeros(len(pts), dtype=bool)
    for tetra in tetrahedra:
        in_tetra |= _points_in_tetrahedron(pts, tetra, atol=atol)
        in_tetra |= has_mirror & _points_in_tetrahedron(mirrored, tetra, atol=atol)
    return on_face | ~in_tetra


def swap3_feasible_mask(points: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Vectorized :func:`can_synthesize_swap_in_3_layers` over ``(n, 3)``."""
    return _feasible_mask_outside_tetrahedra(
        np.asarray(points, dtype=float),
        SWAP3_INFEASIBLE_TETRAHEDRA,
        SWAP3_ENTRY_FACES,
        atol,
    )


def cnot2_feasible_mask(points: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Vectorized :func:`can_synthesize_cnot_in_2_layers` over ``(n, 3)``."""
    return _feasible_mask_outside_tetrahedra(
        np.asarray(points, dtype=float),
        CNOT2_INFEASIBLE_TETRAHEDRA,
        CNOT2_ENTRY_FACES,
        atol,
    )


def _region_representatives(coords: Coords) -> Iterable[Coords]:
    """Yield the chamber representatives equivalent to ``coords``.

    Points on the bottom plane have two representatives, ``(tx, ty, 0)`` and
    ``(1 - tx, ty, 0)``; region tests must accept membership through either.
    """
    coords = canonicalize_coordinates(coords)
    yield coords
    if abs(coords[2]) < 1e-9:
        yield (1.0 - coords[0], coords[1], coords[2])


def _feasible_outside_tetrahedra(
    coords: Coords,
    tetrahedra: Sequence[tuple[Coords, Coords, Coords, Coords]],
    entry_faces: Sequence[tuple[Coords, Coords, Coords]],
    atol: float,
) -> bool:
    """Shared membership logic for the SWAP-in-3 and CNOT-in-2 regions.

    A gate is feasible iff its chamber representative lies outside every
    (closed) infeasible tetrahedron -- with the exception of the designated
    *entry faces*: the paper identifies the first crossing of those faces as
    the fastest feasible gate, so points exactly on them count as feasible.
    """
    for representative in _region_representatives(coords):
        for face in entry_faces:
            if point_on_triangle(representative, face, atol=max(atol, 1e-9)):
                return True
    for representative in _region_representatives(coords):
        for tetra in tetrahedra:
            if point_in_tetrahedron(
                representative, tetra, include_boundary=True, atol=atol
            ):
                return False
    return True


def can_synthesize_swap_in_3_layers(coords: Coords, atol: float = 1e-9) -> bool:
    """True iff a single basis gate at ``coords`` gives SWAP in three layers.

    Implements Fig. 4(d): the infeasible set is the union of four tetrahedra
    around the identity corners and the SWAP vertex; points on the designated
    entry faces through CZ are the fastest feasible gates and count as
    feasible.
    """
    return _feasible_outside_tetrahedra(
        coords, SWAP3_INFEASIBLE_TETRAHEDRA, SWAP3_ENTRY_FACES, atol
    )


def can_synthesize_cnot_in_2_layers(coords: Coords, atol: float = 1e-9) -> bool:
    """True iff a single basis gate at ``coords`` gives CNOT in two layers.

    Implements Fig. 4(e): the infeasible set is the union of three tetrahedra
    near the identity corners and the SWAP vertex; points on the designated
    entry faces through (1/4, 0, 0) / (3/4, 0, 0) count as feasible.
    """
    return _feasible_outside_tetrahedra(
        coords, CNOT2_INFEASIBLE_TETRAHEDRA, CNOT2_ENTRY_FACES, atol
    )


# --------------------------------------------------------------------------
# Exact reachability: the monodromy polytope (Theorem 5.1).
# --------------------------------------------------------------------------

#: The multiplicative Horn inequalities of SU(4) (Agnihotri & Woodward 1998;
#: Belkale 2001), on which Peterson, Crooks & Smith (Quantum 4, 247, 2020)
#: build the monodromy polytope.  A row ``(I, J, K, d)`` reads
#: ``sum(a[i] for i in I) + sum(b[j] for j in J) + sum(c[k] for k in K) <= d``
#: with 1-based indices into alcove points: three conjugacy classes of SU(4)
#: with alcove points ``a, b, c`` hold elements whose product is the
#: identity iff every row holds.  The rows are the triples of ``r``-subsets
#: of {1, 2, 3, 4} (r = 1, 2, 3) whose Gromov-Witten invariant
#: ``<sigma_I, sigma_J, sigma_K>_d`` on Gr(r, 4) is 1, with ``sigma_I`` the
#: Schubert class of the partition ``lambda_a = 4 - r + a - i_a``; the
#: quantum products come from the Bertram-Ciocan-Fontanine-Fulton rim-hook
#: rule.  ``tests/test_monodromy.py`` regenerates them.
HORN_INEQUALITIES: tuple[
    tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...
] = (
    ((1,), (1,), (3,), 1),
    ((1,), (2,), (2,), 1),
    ((1,), (3,), (1,), 1),
    ((1,), (4,), (4,), 0),
    ((2,), (1,), (2,), 1),
    ((2,), (2,), (1,), 1),
    ((2,), (3,), (4,), 0),
    ((2,), (4,), (3,), 0),
    ((3,), (1,), (1,), 1),
    ((3,), (2,), (4,), 0),
    ((3,), (3,), (3,), 0),
    ((3,), (4,), (2,), 0),
    ((4,), (1,), (4,), 0),
    ((4,), (2,), (3,), 0),
    ((4,), (3,), (2,), 0),
    ((4,), (4,), (1,), 0),
    ((1, 2), (1, 2), (1, 2), 2),
    ((1, 2), (1, 3), (2, 4), 1),
    ((1, 2), (1, 4), (2, 3), 1),
    ((1, 2), (2, 3), (1, 4), 1),
    ((1, 2), (2, 4), (1, 3), 1),
    ((1, 2), (3, 4), (3, 4), 0),
    ((1, 3), (1, 2), (2, 4), 1),
    ((1, 3), (1, 3), (1, 4), 1),
    ((1, 3), (1, 3), (2, 3), 1),
    ((1, 3), (1, 4), (1, 3), 1),
    ((1, 3), (2, 3), (1, 3), 1),
    ((1, 3), (2, 4), (1, 2), 1),
    ((1, 3), (2, 4), (3, 4), 0),
    ((1, 3), (3, 4), (2, 4), 0),
    ((1, 4), (1, 2), (2, 3), 1),
    ((1, 4), (1, 3), (1, 3), 1),
    ((1, 4), (1, 4), (3, 4), 0),
    ((1, 4), (2, 3), (1, 2), 1),
    ((1, 4), (2, 4), (2, 4), 0),
    ((1, 4), (3, 4), (1, 4), 0),
    ((2, 3), (1, 2), (1, 4), 1),
    ((2, 3), (1, 3), (1, 3), 1),
    ((2, 3), (1, 4), (1, 2), 1),
    ((2, 3), (2, 3), (3, 4), 0),
    ((2, 3), (2, 4), (2, 4), 0),
    ((2, 3), (3, 4), (2, 3), 0),
    ((2, 4), (1, 2), (1, 3), 1),
    ((2, 4), (1, 3), (1, 2), 1),
    ((2, 4), (1, 3), (3, 4), 0),
    ((2, 4), (1, 4), (2, 4), 0),
    ((2, 4), (2, 3), (2, 4), 0),
    ((2, 4), (2, 4), (1, 4), 0),
    ((2, 4), (2, 4), (2, 3), 0),
    ((2, 4), (3, 4), (1, 3), 0),
    ((3, 4), (1, 2), (3, 4), 0),
    ((3, 4), (1, 3), (2, 4), 0),
    ((3, 4), (1, 4), (1, 4), 0),
    ((3, 4), (2, 3), (2, 3), 0),
    ((3, 4), (2, 4), (1, 3), 0),
    ((3, 4), (3, 4), (1, 2), 0),
    ((1, 2, 3), (1, 2, 3), (1, 3, 4), 1),
    ((1, 2, 3), (1, 2, 4), (1, 2, 4), 1),
    ((1, 2, 3), (1, 3, 4), (1, 2, 3), 1),
    ((1, 2, 3), (2, 3, 4), (2, 3, 4), 0),
    ((1, 2, 4), (1, 2, 3), (1, 2, 4), 1),
    ((1, 2, 4), (1, 2, 4), (1, 2, 3), 1),
    ((1, 2, 4), (1, 3, 4), (2, 3, 4), 0),
    ((1, 2, 4), (2, 3, 4), (1, 3, 4), 0),
    ((1, 3, 4), (1, 2, 3), (1, 2, 3), 1),
    ((1, 3, 4), (1, 2, 4), (2, 3, 4), 0),
    ((1, 3, 4), (1, 3, 4), (1, 3, 4), 0),
    ((1, 3, 4), (2, 3, 4), (1, 2, 4), 0),
    ((2, 3, 4), (1, 2, 3), (2, 3, 4), 0),
    ((2, 3, 4), (1, 2, 4), (1, 3, 4), 0),
    ((2, 3, 4), (1, 3, 4), (1, 2, 4), 0),
    ((2, 3, 4), (2, 3, 4), (1, 2, 3), 0),
)


def _horn_arrays() -> tuple[np.ndarray, np.ndarray]:
    """The rows as a ``(rows, factor, 4)`` 0/1 array and their bounds."""
    matrix = np.zeros((len(HORN_INEQUALITIES), 3, 4))
    for row, (*subsets, _) in enumerate(HORN_INEQUALITIES):
        for factor, subset in enumerate(subsets):
            matrix[row, factor, [i - 1 for i in subset]] = 1.0
    bound = np.array([row[3] for row in HORN_INEQUALITIES], dtype=float)
    return matrix, bound


_HORN, _HORN_BOUND = _horn_arrays()

#: A row counts as satisfied within this slack.
_SLACK = 1e-9


def _alcove(phases: Iterable[float]) -> list[float]:
    """Alcove point of the SU(4) class with eigenvalues ``exp(2 pi i phases)``.

    The phases are reduced mod 1 and sorted descending, then 1 is subtracted
    from the largest until they sum to 0, which lands in the alcove
    ``a1 >= a2 >= a3 >= a4 >= a1 - 1``.
    """
    values = sorted((float(p) % 1.0 for p in phases), reverse=True)
    shift = round(sum(values))
    return sorted([v - 1.0 for v in values[:shift]] + values[shift:], reverse=True)


def alcove_coordinates(coords: Coords) -> np.ndarray:
    """Alcove point of ``gamma = m^T m`` for a gate with Cartan ``coords``.

    ``m`` is the gate in the magic basis.  In the convention of
    :mod:`repro.weyl.cartan`, gamma has eigenvalues ``exp(-2 pi i s_k)`` with
    ``s = ((x+y-z)/2, (x-y+z)/2, (-x+y+z)/2, -(x+y+z)/2)``.  A local class
    fixes gamma only up to sign; :func:`_inverses` covers both.
    """
    x, y, z = coords
    s = ((x + y - z) / 2, (x - y + z) / 2, (-x + y + z) / 2, -(x + y + z) / 2)
    return np.array(_alcove(-v for v in s))


def _inverses(target: np.ndarray) -> np.ndarray:
    """Alcove points of ``T^-1`` and ``-T^-1``, as the columns of a 4x2 array.

    Negating adds 1/2 to every phase; inverting maps ``a`` to
    ``(-a4, -a3, -a2, -a1)``.
    """
    negated = _alcove(v + 0.5 for v in target)
    return -np.array([target, negated]).T[::-1]


def _products_reach(first: np.ndarray, second: np.ndarray, target: np.ndarray) -> bool:
    """True iff classes ``first`` and ``second`` hold a product in ``target``.

    A gate ``B k C`` (``k`` local) has gamma conjugate to
    ``(O^T gamma_B O) gamma_C`` with ``O`` real orthogonal, and Peterson et
    al. show that these products cover the same classes as the unitary
    ones; the target's sign is free.
    """
    fixed = _HORN[:, 0] @ first + _HORN[:, 1] @ second
    sums = fixed[:, None] + _HORN[:, 2] @ _inverses(target)
    return bool((sums <= _HORN_BOUND[:, None] + _SLACK).all(axis=0).any())


#: The alcove walls ``x2 - x1 <= 0``, ``x3 - x2 <= 0``, ``x4 - x3 <= 0`` and
#: ``x1 - x4 <= 1``.
_WALLS = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
)
_WALL_BOUND = np.array([0.0, 0.0, 0.0, 1.0])


def _middle_geometry() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Half-space directions and the vertex map of the three-layer test.

    The middle class ``x`` of a three-layer product enters the rows as the
    product of the first two layers (through ``x^-1``, whose alcove point is
    linear in ``x``), as a factor of the last product, and through the
    alcove walls.  On ``x4 = -(x1 + x2 + x3)`` those normals take 18
    distinct integer directions.  The 584 independent triples of them each
    fix one candidate vertex; ``vertex_map`` holds their 3x3 inverses, so
    ``bounds @ vertex_map`` lists every vertex at once.
    """
    normals = np.vstack([-_HORN[:, 2, ::-1], _HORN[:, 0], _WALLS])
    reduced = normals[:, :3] - normals[:, 3:]
    directions, direction_of = np.unique(reduced, axis=0, return_inverse=True)
    direction_of = direction_of.reshape(-1)
    order = np.argsort(direction_of, kind="stable")
    starts = np.searchsorted(direction_of[order], np.arange(len(directions)))
    triples = np.array(list(combinations(range(len(directions)), 3)))
    planes = directions[triples]
    independent = np.abs(np.linalg.det(planes)) > 0.5  # integer determinants
    triples, inverses = triples[independent], np.linalg.inv(planes[independent])
    vertex_map = np.zeros((len(directions), len(triples), 3))
    for column in range(3):
        vertex_map[triples[:, column], np.arange(len(triples))] = inverses[:, :, column]
    return directions, order, starts, vertex_map.reshape(len(directions), -1)


_DIRECTIONS, _DIRECTION_ORDER, _DIRECTION_STARTS, _VERTEX_MAP = _middle_geometry()


def _middle_class_exists(basis: np.ndarray, target: np.ndarray) -> bool:
    """True iff some ``x`` has ``x in R2(basis, basis)`` and ``target in
    R2(x, basis)``.

    Both conditions are half-spaces in ``x``, so the candidates form a
    bounded polytope, which is non-empty iff one of its vertices is
    feasible.  Each direction keeps its tightest bound; both signs of the
    target run side by side.
    """
    rows = len(HORN_INEQUALITIES)
    limits = np.empty((2 * rows + len(_WALL_BOUND), 2))
    limits[:rows] = (_HORN_BOUND - _HORN[:, 0] @ basis - _HORN[:, 1] @ basis)[:, None]
    limits[rows : 2 * rows] = (_HORN_BOUND - _HORN[:, 1] @ basis)[:, None]
    limits[rows : 2 * rows] -= _HORN[:, 2] @ _inverses(target)
    limits[2 * rows :] = _WALL_BOUND[:, None]
    bounds = np.minimum.reduceat(limits[_DIRECTION_ORDER], _DIRECTION_STARTS).T
    vertices = (bounds @ _VERTEX_MAP).reshape(-1, 3)
    values = (vertices @ _DIRECTIONS.T).reshape(2, -1, len(_DIRECTIONS))
    return bool((values <= bounds[:, None, :] + _SLACK).all(axis=2).any())


@dataclass(frozen=True)
class TwoLayerOracle:
    """Exact two- and three-layer reachability (Theorem 5.1).

    ``A`` is reachable from basis gates ``B, C`` in two layers (free
    single-qubit gates around and between them) iff the alcove points of
    ``B``, ``C`` and ``A^-1`` satisfy :data:`HORN_INEQUALITIES`, for either
    sign of ``A``.  Three layers of ``B`` reach ``A`` iff some class ``x``
    is reachable in two layers of ``B`` and ``A`` is reachable from ``x``
    and ``B``.  Every answer is a pure function of its coordinates.
    """

    def can_reach_in_2(
        self, target: Coords, basis: Coords, second_basis: Coords | None = None
    ) -> bool:
        """Return True if ``target`` is reachable in two layers of the basis."""
        first = alcove_coordinates(basis)
        second = first if second_basis is None else alcove_coordinates(second_basis)
        return _products_reach(first, second, alcove_coordinates(target))

    def can_reach_in_3(self, target: Coords, basis: Coords) -> bool:
        """Return True if ``target`` is reachable in three layers of ``basis``."""
        return _middle_class_exists(
            alcove_coordinates(basis), alcove_coordinates(target)
        )


#: Version of the depth-oracle semantics.  Participates in the service's
#: ``program_cache_key`` blob: compiled programs embed layer counts derived
#: from this oracle, so changing its rules must make every cached program
#: structurally unservable.  Bump on any change to :func:`minimum_layers`,
#: the tetrahedral regions, or :class:`CoverageSetOracle`.  Version 2: layer
#: counts come from the exact monodromy-polytope test.
DEPTH_ORACLE_VERSION = 2


def minimum_layers(
    target: Coords,
    basis: Coords,
    max_layers: int = 4,
    atol: float = 1e-7,
) -> int:
    """Minimum number of basis-gate layers needed to synthesize ``target``.

    This is the analytic depth prediction used to skip straight to the right
    search depth in the NuOp-style numerical synthesis (Section VII).  Depths
    up to three are exact: SWAP and CNOT targets use the geometric
    characterisations of Section V, every other target the monodromy-polytope
    test of :class:`TwoLayerOracle`.  A target that needs more layers than
    that (or than ``max_layers``) gets ``max_layers``.
    """
    target = canonicalize_coordinates(target)
    basis = canonicalize_coordinates(basis)
    # coordinates_close(target, point, atol) with the target canonicalized
    # once; the identity, SWAP and CNOT points are canonical at any atol.
    probe = canonicalize_coordinates(target, atol=atol)

    def near(point: Coords) -> bool:
        return canonical_points_close(probe, point, atol)

    if near((0.0, 0.0, 0.0)):
        return 0
    if near(canonicalize_coordinates(basis, atol=atol)):
        return 1

    oracle = TwoLayerOracle()
    is_swap = near(WEYL_POINTS["SWAP"])
    if is_swap:
        in_two = can_synthesize_swap_in_2_layers(basis, atol=atol)
    elif near(WEYL_POINTS["CNOT"]):
        in_two = can_synthesize_cnot_in_2_layers(basis)
    else:
        in_two = oracle.can_reach_in_2(target, basis)
    if in_two:
        return 2
    if max_layers < 3:
        return max_layers
    if is_swap:
        in_three = can_synthesize_swap_in_3_layers(basis)
    else:
        in_three = oracle.can_reach_in_3(target, basis)
    return 3 if in_three else max_layers


@dataclass
class CoverageSetOracle:
    """Per-edge coverage-set depth oracle over one basis gate.

    The monodromy-polytope view (Peterson et al.): ``k`` layers of a basis
    gate ``B`` cover a region ("coverage set") of the Weyl chamber, and the
    minimum synthesis depth of a target is the first ``k`` whose set contains
    the target's canonical coordinates.  This class is that function for a
    *fixed* basis -- the shape the block-consolidation optimizer needs, one
    oracle per physical edge.

    ``layers_fn`` is the underlying two-coordinate depth query, which
    canonicalizes its arguments; it defaults to :func:`minimum_layers` and is
    pluggable so the compiler can route it through its shared process-wide
    memo (``repro.compiler.cost.cached_minimum_layers``).
    """

    basis: Coords
    max_layers: int = 4
    layers_fn: Callable[[Coords, Coords, int], int] = minimum_layers

    def __post_init__(self) -> None:
        self.basis = canonicalize_coordinates(self.basis)

    def minimum_layers(self, target: Coords) -> int:
        """Depth of the first coverage set containing ``target`` (capped)."""
        return int(self.layers_fn(target, self.basis, self.max_layers))

    def swap_layers(self) -> int:
        """Layers to cover SWAP (matches the Section V geometric answer)."""
        return self.minimum_layers(WEYL_POINTS["SWAP"])

    def cnot_layers(self) -> int:
        """Layers to cover CNOT (matches the Section V geometric answer)."""
        return self.minimum_layers(WEYL_POINTS["CNOT"])

    def coverage_profile(self) -> dict[str, int]:
        """Depth of every named Weyl point -- the basis gate's coverage card."""
        return {
            name: self.minimum_layers(coords)
            for name, coords in sorted(WEYL_POINTS.items())
        }
