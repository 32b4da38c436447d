"""Tests for the exact monodromy-polytope depth test.

:data:`repro.synthesis.depth.HORN_INEQUALITIES` is a committed literal; this
file regenerates it from quantum Schubert calculus, checks it against random
products, against the paper's exact SWAP/CNOT regions, and against a copy of
the Nelder-Mead search the exact test replaced.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.compiler.cost import cached_minimum_layers
from repro.fleet import TopologySpec
from repro.fleet.devices import make_device
from repro.gates.single_qubit import su2_from_params
from repro.gates.two_qubit import canonical_gate
from repro.synthesis.depth import (
    HORN_INEQUALITIES,
    TwoLayerOracle,
    alcove_coordinates,
    cnot2_feasible_mask,
    minimum_layers,
    mirror_coordinates,
    swap3_feasible_mask,
)
from repro.weyl.cartan import (
    MAGIC_BASIS,
    canonicalize_coordinates,
    cartan_coordinates,
)

ROOT = Path(__file__).resolve().parents[1]
ORACLE = TwoLayerOracle()
#: Distance below which the search counts as having reached its target.
TOLERANCE = 1e-6
SWAP = (0.5, 0.5, 0.5)
CNOT = (0.5, 0.0, 0.0)


# -- regenerating the rows: quantum cohomology of Gr(r, 4) ---------------------


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = defaultdict(int)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return {e: c for e, c in out.items() if c}


def _sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _schur(shape: tuple[int, ...], k: int) -> dict:
    """Schur polynomial in ``k`` variables (Jacobi-Trudi determinant)."""
    shape = tuple(shape) + (0,) * (k - len(shape))
    total: dict = defaultdict(int)
    for perm in itertools.permutations(range(k)):
        term = {(0,) * k: _sign(perm)}
        for i in range(k):
            degree = shape[i] - i + perm[i]
            if degree < 0:
                term = {}
                break
            complete = {
                e: 1
                for e in itertools.product(range(degree + 1), repeat=k)
                if sum(e) == degree
            }
            term = _poly_mul(term, complete)
        for e, c in term.items():
            total[e] += c
    return {e: c for e, c in total.items() if c}


def _classical_product(lam: tuple[int, ...], mu: tuple[int, ...], k: int) -> dict:
    """``s_lam * s_mu`` in ``k`` variables, by the alternant ``a_(lam+delta)``."""
    delta = tuple(range(k - 1, -1, -1))
    beta = tuple(a + d for a, d in zip(lam, delta))
    alternant = {
        tuple(beta[p] for p in perm): _sign(perm)
        for perm in itertools.permutations(range(k))
    }
    product = _poly_mul(_schur(mu, k), alternant)
    return {
        tuple(a - d for a, d in zip(e, delta)): c
        for e, c in product.items()
        if all(e[i] > e[i + 1] for i in range(k - 1))
    }


def _rim_hook_reduce(nu: tuple[int, ...], k: int, n: int = 4):
    """Reduce ``s_nu`` in QH*(Gr(k, n)) to ``(sign, d, rho)``, or None for 0.

    The Bertram-Ciocan-Fontanine-Fulton rule, on beta numbers: removing an
    ``n``-rim hook of height ``h`` lowers one beta number by ``n`` and
    multiplies by ``(-1)^(k - h) q``.
    """
    beta = sorted((nu[i] + k - 1 - i for i in range(k)), reverse=True)
    sign, degree = 1, 0
    while beta[0] >= n:
        top = beta[0]
        if top - n in beta:
            return None
        height = 1 + sum(1 for b in beta if top - n < b < top)
        sign *= (-1) ** (k - height)
        degree += 1
        beta = sorted(beta[1:] + [top - n], reverse=True)
    return sign, degree, tuple(beta[i] - (k - 1 - i) for i in range(k))


def _partition(subset: tuple[int, ...], r: int, n: int = 4) -> tuple[int, ...]:
    return tuple(n - r + a - i for a, i in enumerate(subset, start=1))


def regenerate_horn_rows(n: int = 4) -> tuple:
    """Every ``(I, J, K, d)`` with ``<sigma_I, sigma_J, sigma_K>_d = 1``."""
    rows = []
    for r in range(1, n):
        subsets = list(itertools.combinations(range(1, n + 1), r))
        for first, second in itertools.product(subsets, repeat=2):
            quantum: dict = defaultdict(int)
            for nu, coefficient in _classical_product(
                _partition(first, r), _partition(second, r), r
            ).items():
                reduced = _rim_hook_reduce(nu, r, n)
                if reduced is not None:
                    sign, degree, rho = reduced
                    quantum[(degree, rho)] += sign * coefficient
            assert all(c >= 0 for c in quantum.values())  # GW invariants
            for third in subsets:
                shape = _partition(third, r)
                dual = tuple(n - r - shape[r - 1 - i] for i in range(r))
                for (degree, rho), coefficient in quantum.items():
                    if rho == dual and coefficient == 1:
                        rows.append((first, second, third, degree))
    return tuple(rows)


def test_committed_rows_match_the_rim_hook_rule():
    rows = regenerate_horn_rows()
    assert len(rows) == 72
    assert rows == HORN_INEQUALITIES


# -- alcove coordinates ----------------------------------------------------------


def _haar_su4(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q * np.linalg.det(q) ** (-0.25)


def _alcove_of_spectrum(matrix: np.ndarray) -> np.ndarray:
    phases = np.angle(np.linalg.eigvals(matrix)) / (2 * np.pi)
    values = np.sort(np.mod(phases, 1.0))[::-1]
    values[: int(round(values.sum()))] -= 1.0
    return np.sort(values)[::-1]


def _negated(point: np.ndarray) -> np.ndarray:
    return _alcove_of_spectrum(np.diag(-np.exp(2j * np.pi * point)))


def test_closed_form_matches_gamma_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        unitary = _haar_su4(rng)
        m = MAGIC_BASIS.conj().T @ unitary @ MAGIC_BASIS
        spectrum = _alcove_of_spectrum(m.T @ m)
        closed = alcove_coordinates(cartan_coordinates(unitary))
        # A class fixes gamma up to sign.
        assert np.allclose(closed, spectrum, atol=1e-8) or np.allclose(
            _negated(closed), spectrum, atol=1e-8
        )


def test_random_products_violate_no_row():
    matrix = np.zeros((len(HORN_INEQUALITIES), 12))
    for row, (first, second, third, _) in enumerate(HORN_INEQUALITIES):
        for offset, subset in zip((0, 4, 8), (first, second, third)):
            matrix[row, [offset + i - 1 for i in subset]] = 1.0
    bound = np.array([row[3] for row in HORN_INEQUALITIES], dtype=float)
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = _haar_su4(rng), _haar_su4(rng)
        # a @ b @ (a @ b)^-1 = 1.
        point = np.concatenate(
            [
                _alcove_of_spectrum(a),
                _alcove_of_spectrum(b),
                -_alcove_of_spectrum(a @ b)[::-1],
            ]
        )
        assert np.all(matrix @ point <= bound + 1e-9)


# -- the paper's exact regions -----------------------------------------------------


def random_chamber_coords(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform random canonical coordinates inside the Weyl chamber."""
    while True:
        tx, ty, tz = rng.uniform(0, 1), rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        if tz <= ty <= min(tx, 1 - tx):
            return float(tx), float(ty), float(tz)


def _chamber_samples(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([random_chamber_coords(rng) for _ in range(count)])


def test_cnot_in_two_region_is_reproduced():
    points = _chamber_samples(1500, seed=3)
    exact = [ORACLE.can_reach_in_2(CNOT, tuple(p)) for p in points]
    assert exact == list(cnot2_feasible_mask(points))


def test_swap_in_three_region_is_reproduced():
    points = _chamber_samples(400, seed=4)
    exact = [ORACLE.can_reach_in_3(SWAP, tuple(p)) for p in points]
    assert exact == list(swap3_feasible_mask(points))


def test_mirror_pairs_reach_swap_in_two():
    for point in _chamber_samples(200, seed=5):
        point = tuple(point)
        assert ORACLE.can_reach_in_2(SWAP, point, mirror_coordinates(point))


# -- agreement with the numerical search -----------------------------------------


def search_distance(target, layers, restarts: int, seed: int = 11) -> float:
    """The Nelder-Mead search the exact test replaced, without warm starts.

    Smallest coordinate distance between ``target`` and any gate built from
    ``layers`` with free single-qubit gates between them.
    """
    basis = [canonical_gate(*c) for c in layers]
    goal = np.asarray(canonicalize_coordinates(target), dtype=float)
    goals = [goal]
    if goal[2] < 1e-9:  # the bottom-plane mirror image is the same class
        goals.append(np.array([1.0 - goal[0], goal[1], goal[2]]))
    n_middle = len(layers) - 1
    rng = np.random.default_rng(seed)

    def cost(params: np.ndarray) -> float:
        u = basis[0]
        for i in range(n_middle):
            block = params[6 * i : 6 * (i + 1)]
            local = np.kron(su2_from_params(block[:3]), su2_from_params(block[3:]))
            u = basis[i + 1] @ local @ u
        achieved = np.asarray(cartan_coordinates(u), dtype=float)
        return min(float(np.dot(achieved - g, achieved - g)) for g in goals)

    best = np.inf
    for attempt in range(restarts):
        start = (
            np.zeros(6 * n_middle)
            if attempt == 0
            else rng.uniform(-np.pi, np.pi, 6 * n_middle)
        )
        result = minimize(
            cost,
            start,
            method="Nelder-Mead",
            options={"maxiter": 600, "fatol": 1e-12, "xatol": 1e-8},
        )
        best = min(best, float(result.fun))
        if best < 1e-12:
            break
    return float(np.sqrt(best))


#: Each basis reaches one chirality of a class pair in two layers and not the
#: other: the test must not identify (x, y, z) with (1 - x, y, z) off the
#: bottom plane.
CHIRALITY_PAIRS = (
    ((0.2, 0.15, 0.1), (0.3, 0.2, 0.1), (0.7, 0.2, 0.1)),
    ((0.25, 0.2, 0.1), (0.4, 0.3, 0.2), (0.6, 0.3, 0.2)),
    ((0.15, 0.1, 0.05), (0.2, 0.15, 0.1), (0.8, 0.15, 0.1)),
)


@pytest.mark.parametrize("basis,reachable,mirrored", CHIRALITY_PAIRS)
def test_chirality_pairs_agree_with_the_search(basis, reachable, mirrored):
    assert ORACLE.can_reach_in_2(reachable, basis)
    assert not ORACLE.can_reach_in_2(mirrored, basis)
    assert search_distance(reachable, [basis, basis], restarts=6) < TOLERANCE
    assert search_distance(mirrored, [basis, basis], restarts=4) > TOLERANCE


def _fleet_basis_gates() -> list:
    topology = TopologySpec.parse("grid:3x3")
    gates = []
    for seed, strategy in ((11, "baseline"), (12, "criterion1"), (13, "criterion2")):
        device = make_device(topology, seed=seed)
        gates.append(device.basis_gate(device.edges()[0], strategy).coordinates)
    return gates


def test_search_witnesses_every_reachable_answer_and_no_other():
    """Seeded grid: fleet basis gates x chamber targets.

    "Reachable" must come with a witness from the search; "unreachable"
    must not.  The search gives false negatives on three layers at six
    restarts (SWAP from sqrt(iSWAP) stops at 0.013), so witnesses get more.
    """
    rng = np.random.default_rng(0)
    targets = [random_chamber_coords(rng) for _ in range(3)]
    for basis in _fleet_basis_gates():
        for target in targets:
            if ORACLE.can_reach_in_2(target, basis):
                assert search_distance(target, [basis] * 2, restarts=12) < TOLERANCE
                continue
            assert search_distance(target, [basis] * 2, restarts=6) > TOLERANCE
            if ORACLE.can_reach_in_3(target, basis):
                assert search_distance(target, [basis] * 3, restarts=24) < TOLERANCE
            else:
                assert search_distance(target, [basis] * 3, restarts=6) > TOLERANCE


def test_cnot_needs_four_layers_of_a_weak_basis():
    """(0.15, 0.1, 0.02) lies outside the CNOT-in-2 region and cannot make
    CNOT in three layers either: it needs four."""
    basis = (0.15, 0.1, 0.02)
    assert not ORACLE.can_reach_in_3(CNOT, basis)
    assert minimum_layers(CNOT, basis) == 4
    assert search_distance(CNOT, [basis] * 3, restarts=6) > 0.04


# -- history-free answers ----------------------------------------------------------

#: Queries mixing SWAP/CNOT fast paths with generic targets and bases.
ORDER_QUERIES = [
    (target, basis)
    for target in (SWAP, CNOT, (0.3, 0.2, 0.1), (0.7, 0.2, 0.1), (0.5, 0.5, 0.469))
    for basis in (
        (0.25, 0.25, 0.0),
        (0.15, 0.1, 0.02),
        (0.25, 0.25, 0.034),
        (0.2, 0.15, 0.1),
    )
]


def test_answers_do_not_depend_on_query_order():
    forward = [minimum_layers(t, b) for t, b in ORDER_QUERIES]
    order = np.random.default_rng(3).permutation(len(ORDER_QUERIES))
    shuffled = {int(i): minimum_layers(*ORDER_QUERIES[i]) for i in order}
    assert [shuffled[i] for i in range(len(ORDER_QUERIES))] == forward
    cached = [cached_minimum_layers(t, b) for t, b in reversed(ORDER_QUERIES)]
    assert cached == forward[::-1]


def test_answers_match_a_fresh_process():
    script = (
        "import json, sys\n"
        "from repro.synthesis.depth import minimum_layers\n"
        "queries = json.loads(sys.argv[1])\n"
        "print(json.dumps([minimum_layers(t, b) for t, b in reversed(queries)]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, json.dumps(ORDER_QUERIES)],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    fresh = json.loads(completed.stdout)[::-1]
    assert fresh == [minimum_layers(t, b) for t, b in ORDER_QUERIES]
