"""Tests for Cartan coordinate extraction and canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import (
    B_GATE,
    CNOT,
    CZ,
    ISWAP,
    SQRT_ISWAP,
    SQRT_SWAP,
    SQRT_SWAP_DAG,
    SWAP,
    canonical_gate,
)
from repro.gates.single_qubit import random_su2
from repro.weyl import (
    canonicalize_coordinates,
    cartan_coordinates,
    coordinates_close,
    in_weyl_chamber,
)

KNOWN_COORDINATES = [
    (CNOT, (0.5, 0.0, 0.0)),
    (CZ, (0.5, 0.0, 0.0)),
    (ISWAP, (0.5, 0.5, 0.0)),
    (SWAP, (0.5, 0.5, 0.5)),
    (SQRT_ISWAP, (0.25, 0.25, 0.0)),
    (SQRT_SWAP, (0.25, 0.25, 0.25)),
    (SQRT_SWAP_DAG, (0.75, 0.25, 0.25)),
    (B_GATE, (0.5, 0.25, 0.0)),
    (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("gate,expected", KNOWN_COORDINATES)
def test_known_gate_coordinates(gate, expected):
    assert cartan_coordinates(gate) == pytest.approx(expected, abs=1e-7)


def test_coordinates_invariant_under_local_gates(rng):
    for _ in range(20):
        tx = rng.uniform(0, 1)
        ty = rng.uniform(0, min(tx, 1 - tx))
        tz = rng.uniform(0, ty)
        core = canonical_gate(tx, ty, tz)
        dressed = (
            np.kron(random_su2(rng), random_su2(rng))
            @ core
            @ np.kron(random_su2(rng), random_su2(rng))
        )
        assert cartan_coordinates(dressed) == pytest.approx((tx, ty, tz), abs=1e-6)


def test_coordinates_invariant_under_global_phase(rng):
    gate = canonical_gate(0.31, 0.22, 0.07)
    assert cartan_coordinates(np.exp(0.9j) * gate) == pytest.approx(
        cartan_coordinates(gate), abs=1e-8
    )


def test_canonicalize_is_idempotent(rng):
    for _ in range(50):
        raw = tuple(rng.uniform(-2, 2, size=3))
        once = canonicalize_coordinates(raw)
        twice = canonicalize_coordinates(once)
        assert once == pytest.approx(twice, abs=1e-9)
        assert in_weyl_chamber(once)


def test_scalar_and_batch_canonicalization_agree_bit_for_bit(rng):
    """The float-based scalar path and the numpy batch path must agree
    exactly, including at the chamber's edges and snapping thresholds."""
    from repro.weyl.cartan import canonicalize_coordinates_batch

    edges = [0.0, -0.0, 1e-12, -1e-12, 1e-9, 0.25, 0.5, 0.5 + 1e-11, 0.75, 1.0,
             1 - 1e-12, -0.5, 1.5, 1 / 3, 2 / 3]
    points = np.vstack(
        [rng.choice(edges, size=(2000, 3)), rng.uniform(-3, 3, size=(2000, 3))]
    )
    for atol in (1e-10, 1e-7):
        batch = canonicalize_coordinates_batch(points, atol=atol)
        scalar = np.array([canonicalize_coordinates(p, atol=atol) for p in points])
        assert np.array_equal(batch, scalar)


def test_identity_swap_and_cnot_are_canonical_at_any_tolerance():
    # minimum_layers compares against these points without re-canonicalizing.
    for atol in (1e-10, 1e-7, 1e-3):
        for point in ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.5, 0.0, 0.0)):
            assert canonicalize_coordinates(point, atol=atol) == point


def test_canonicalize_known_symmetries():
    # Shift of one coordinate by an integer is a local operation.
    assert canonicalize_coordinates((1.3, 0.2, 0.1)) == pytest.approx(
        canonicalize_coordinates((0.3, 0.2, 0.1))
    )
    # Flipping the signs of two coordinates is a local operation.
    assert canonicalize_coordinates((-0.3, -0.2, 0.1)) == pytest.approx(
        canonicalize_coordinates((0.3, 0.2, 0.1))
    )
    # Permutations are local operations.
    assert canonicalize_coordinates((0.1, 0.3, 0.2)) == pytest.approx(
        canonicalize_coordinates((0.3, 0.2, 0.1))
    )


def test_bottom_plane_identification():
    assert coordinates_close((0.3, 0.1, 0.0), (0.7, 0.1, 0.0))
    assert not coordinates_close((0.3, 0.1, 0.05), (0.7, 0.1, 0.05))
    assert coordinates_close((0.25, 0.25, 0.0), (0.75, 0.25, 0.0))


def test_in_weyl_chamber_rejects_outside_points():
    assert in_weyl_chamber((0.5, 0.25, 0.1))
    assert not in_weyl_chamber((0.2, 0.3, 0.1))  # ty > tx
    assert not in_weyl_chamber((0.9, 0.3, 0.1))  # ty > 1 - tx
    assert not in_weyl_chamber((0.5, 0.2, 0.3))  # tz > ty
    assert not in_weyl_chamber((0.5, 0.2, -0.1))


def test_cartan_coordinates_rejects_bad_shape():
    with pytest.raises(ValueError):
        cartan_coordinates(np.eye(3))


@settings(max_examples=50, deadline=None)
@given(
    tx=st.floats(0.0, 1.0),
    ty=st.floats(0.0, 0.5),
    tz=st.floats(0.0, 0.5),
)
def test_roundtrip_property(tx, ty, tz):
    coords = canonicalize_coordinates((tx, ty, tz))
    gate = canonical_gate(*coords)
    recovered = cartan_coordinates(gate)
    assert coordinates_close(recovered, coords, atol=1e-6)
