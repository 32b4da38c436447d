"""Cartan (Weyl-chamber) coordinates of two-qubit gates.

The non-local content of any ``U in SU(4)`` is captured by three numbers
``(tx, ty, tz)`` -- the Cartan coordinates -- defined through the Cartan
decomposition (Eq. (1) of the paper)::

    U = k1 * exp(-i*pi/2*(tx XX + ty YY + tz ZZ)) * k2

with ``k1, k2`` single-qubit (local) gates.  Two gates are locally equivalent
iff they share the same canonical coordinates.

The extraction algorithm works in the magic (Bell) basis, where local gates
become real orthogonal matrices and the canonical gate becomes diagonal: the
eigenvalue phases of ``m^T m`` (with ``m`` the magic-basis representation of
``U``) determine the coordinates up to the Weyl-group symmetry, which is then
removed by :func:`canonicalize_coordinates`.
"""

from __future__ import annotations

import numpy as np

#: The "magic" (Bell-like) basis change.  Columns are maximally entangled
#: states; conjugating by this matrix maps SU(2) x SU(2) onto SO(4).
MAGIC_BASIS = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / np.sqrt(2)
)

_CHAMBER_ATOL = 1e-9


def _to_su4(u: np.ndarray) -> np.ndarray:
    """Rescale a 4x4 unitary so that its determinant is exactly 1."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    det = np.linalg.det(u)
    return u * det ** (-0.25)


def cartan_coordinates(u: np.ndarray, atol: float = 1e-10) -> tuple[float, float, float]:
    """Return the canonical Cartan coordinates ``(tx, ty, tz)`` of ``u``.

    The returned point lies inside the Weyl chamber of Fig. 1 of the paper:
    ``ty <= min(tx, 1 - tx)``, ``tz <= ty``, all non-negative, and ``tx`` is
    reported in ``[0, 1/2]`` whenever ``tz`` is (numerically) zero.
    """
    u = _to_su4(u)
    m = MAGIC_BASIS.conj().T @ u @ MAGIC_BASIS
    gamma = m.T @ m
    eigenvalues = np.linalg.eigvals(gamma)
    # Each eigenvalue is exp(-i*pi*h_k) where the h_k are signed combinations
    # of the coordinates; work with the phases in units of pi.  The minus sign
    # matches the paper's convention in which sqrt(SWAP) sits at
    # (1/4, 1/4, 1/4) and its adjoint at (3/4, 1/4, 1/4).
    two_s = -np.angle(eigenvalues) / np.pi
    # Move branch cuts so all values lie in (-0.5, 1.5].
    two_s = np.where(two_s <= -0.5, two_s + 2.0, two_s)
    s = np.sort(two_s / 2.0)[::-1]
    # The four phases sum to an integer (0, 1 or 2); subtract 1 from the
    # largest n of them so the corrected set sums to zero.
    n = int(round(float(np.sum(s))))
    if n:
        s = s - np.concatenate([np.ones(n), np.zeros(4 - n)])
        s = np.sort(s)[::-1]
    tx = s[0] + s[1]
    ty = s[0] + s[2]
    tz = s[1] + s[2]
    return canonicalize_coordinates((tx, ty, tz), atol=atol)


def canonicalize_coordinates(
    coords: tuple[float, float, float] | np.ndarray, atol: float = 1e-10
) -> tuple[float, float, float]:
    """Map arbitrary Cartan coordinates into the Weyl chamber.

    The Weyl-group symmetries are: shifting any single coordinate by an
    integer, flipping the signs of any *two* coordinates simultaneously, and
    permuting the coordinates.  Additionally, on the bottom plane (``tz = 0``)
    the points ``(tx, ty, 0)`` and ``(1 - tx, ty, 0)`` represent the same
    local-equivalence class; we return the representative with ``tx <= 1/2``.

    Works on Python floats (three numbers do not amortise numpy's per-call
    cost); every step is the same IEEE operation as in
    :func:`canonicalize_coordinates_batch`, so the two agree bit for bit.
    """
    array = np.asarray(coords, dtype=float)
    if array.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got {coords!r}")
    c = array.tolist()

    for _ in range(20):
        c = sorted((v % 1.0 for v in c), reverse=True)
        # If the two largest coordinates exceed the chamber (second one above
        # 1/2 or their sum above 1), reflect them: (a, b) -> (1 - a, 1 - b).
        if not (c[1] > 0.5 + atol or c[0] + c[1] > 1.0 + atol):
            break
        c[0], c[1] = 1.0 - c[0], 1.0 - c[1]
    c = sorted((v % 1.0 for v in c), reverse=True)

    # Bottom-plane representative: if tz == 0, report tx in [0, 1/2].
    if c[2] < atol and c[0] > 0.5 + atol:
        c[0] = 1.0 - c[0]
        c.sort(reverse=True)

    # Snap tiny numerical noise to zero.
    c = [0.0 if abs(v) < atol else v for v in c]
    c = [0.0 if abs(v - 1.0) < atol else v for v in c]
    return c[0], c[1], c[2]


def canonicalize_coordinates_batch(
    coords: np.ndarray, atol: float = 1e-10
) -> np.ndarray:
    """Vectorized :func:`canonicalize_coordinates` for an ``(n, 3)`` array.

    Produces bit-identical results to mapping the scalar function over the
    rows: each iteration applies the same mod/sort/reflect step to every row,
    and rows that have already settled are unchanged by the extra iterations
    (their values lie in ``[0, 1)`` sorted descending, for which mod and sort
    are the identity and the reflection condition stays false).
    """
    c = np.array(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {c.shape}")

    for _ in range(20):
        c = np.mod(c, 1.0)
        c = np.sort(c, axis=1)[:, ::-1]
        reflect = (c[:, 1] > 0.5 + atol) | (c[:, 0] + c[:, 1] > 1.0 + atol)
        if not reflect.any():
            break
        c[reflect, 0] = 1.0 - c[reflect, 0]
        c[reflect, 1] = 1.0 - c[reflect, 1]
    c = np.mod(c, 1.0)
    c = np.sort(c, axis=1)[:, ::-1]

    bottom = (c[:, 2] < atol) & (c[:, 0] > 0.5 + atol)
    if bottom.any():
        c[bottom, 0] = 1.0 - c[bottom, 0]
        c[bottom] = np.sort(c[bottom], axis=1)[:, ::-1]

    c[np.abs(c) < atol] = 0.0
    c[np.abs(c - 1.0) < atol] = 0.0
    return c


def in_weyl_chamber(
    coords: tuple[float, float, float], atol: float = 1e-9
) -> bool:
    """Return True if ``coords`` lies inside the (closed) Weyl chamber."""
    tx, ty, tz = coords
    if tz < -atol or ty < tz - atol or tx < ty - atol:
        return False
    if tx > 1.0 + atol:
        return False
    return ty <= min(tx, 1.0 - tx) + atol


def coordinates_close(
    a: tuple[float, float, float],
    b: tuple[float, float, float],
    atol: float = 1e-7,
) -> bool:
    """Compare two canonical coordinate triples, honouring the bottom-plane
    identification ``(tx, ty, 0) ~ (1 - tx, ty, 0)``.

    Each coordinate must match within ``atol + 1e-5 * |b|`` (the
    ``np.allclose`` rule).
    """
    return canonical_points_close(
        canonicalize_coordinates(a, atol=atol),
        canonicalize_coordinates(b, atol=atol),
        atol,
    )


def canonical_points_close(
    a: tuple[float, float, float], b: tuple[float, float, float], atol: float
) -> bool:
    """:func:`coordinates_close` for points already canonicalized at ``atol``."""

    def close(x, y) -> bool:
        return all(abs(p - q) <= atol + 1e-5 * abs(q) for p, q in zip(x, y))

    if close(a, b):
        return True
    # Near the bottom plane the two representatives (tx, ty, ~0) and
    # (1 - tx, ty, ~0) describe gates a distance O(tz) apart, so within the
    # comparison tolerance they should be treated as the same class.
    if a[2] < 10 * atol and b[2] < 10 * atol:
        return close(a, (1.0 - b[0], b[1], b[2]))
    return False
