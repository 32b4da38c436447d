"""Tests for Cartan trajectories and basis-gate selection strategies."""

import numpy as np
import pytest

from repro.core import (
    BaselineSqrtIswapStrategy,
    CartanTrajectory,
    CompositeCriterionStrategy,
    Criterion1Strategy,
    Criterion2Strategy,
    PredicateStrategy,
    select_basis_gate,
)
from repro.compiler import build_target
from repro.compiler.pipeline.registry import get_strategy
from repro.core.basis_selection import _cnot_layer_count, available_strategies
from repro.core.regions import (
    cnot2_feasible_volume_fraction,
    exact_infeasible_volume_fractions,
    intersection_volume_fraction,
    mirror_trajectory,
    swap2_segments,
    swap3_feasible_volume_fraction,
)
from repro.fleet import TopologySpec, make_device
from repro.hamiltonian.effective import EffectiveEntanglerModel
from repro.synthesis.depth import (
    TwoLayerOracle,
    can_synthesize_cnot_in_2_layers,
    can_synthesize_swap_in_3_layers,
)
from repro.weyl.chamber import chamber_volume_fraction
from repro.weyl.entangling_power import is_perfect_entangler


@pytest.fixture(scope="module")
def baseline_model():
    return EffectiveEntanglerModel.for_pair(3.2, 5.2, 0.005)


@pytest.fixture(scope="module")
def nonstandard_model():
    return EffectiveEntanglerModel.for_pair(3.2, 5.2, 0.04)


@pytest.fixture(scope="module")
def baseline_trajectory(baseline_model):
    return CartanTrajectory.from_model(baseline_model, max_duration=150, resolution=1.0)


@pytest.fixture(scope="module")
def nonstandard_trajectory(nonstandard_model):
    return CartanTrajectory.from_model(nonstandard_model, max_duration=25, resolution=0.25)


class TestTrajectory:
    def test_basic_properties(self, baseline_trajectory):
        assert len(baseline_trajectory) > 100
        point = baseline_trajectory[10]
        assert point.duration == baseline_trajectory.durations[10]
        assert 0 <= point.entangling_power <= 2 / 9 + 1e-9

    def test_requires_monotone_durations(self):
        with pytest.raises(ValueError):
            CartanTrajectory([1.0, 1.0], [(0, 0, 0), (0.1, 0, 0)])
        with pytest.raises(ValueError):
            CartanTrajectory([1.0], [(0, 0, 0)])
        with pytest.raises(ValueError):
            CartanTrajectory([1.0, 2.0], [(0, 0, 0)])

    def test_first_duration_where_with_refinement(self, baseline_trajectory):
        crossing = baseline_trajectory.first_duration_where(can_synthesize_swap_in_3_layers)
        assert crossing == pytest.approx(83.04, abs=0.05)
        coarse = baseline_trajectory.first_duration_where(
            can_synthesize_swap_in_3_layers, refine=False
        )
        assert coarse >= crossing

    def test_first_duration_where_none_when_never_true(self, baseline_trajectory):
        assert baseline_trajectory.first_duration_where(lambda c: c[2] > 0.4) is None

    def test_first_perfect_entangler(self, nonstandard_trajectory):
        pe = nonstandard_trajectory.first_perfect_entangler()
        assert pe is not None
        assert 8 < pe < 13

    def test_deviation_from_xy(self, baseline_trajectory, nonstandard_trajectory):
        assert baseline_trajectory.deviation_from_xy() == pytest.approx(0.0, abs=1e-9)
        assert nonstandard_trajectory.deviation_from_xy() > 0.01

    def test_from_unitaries_constructor(self, baseline_model):
        durations = [10.0, 20.0, 30.0]
        unitaries = [baseline_model.unitary(t) for t in durations]
        trajectory = CartanTrajectory.from_unitaries(durations, unitaries)
        assert trajectory.coordinates.shape == (3, 3)
        with pytest.raises(ValueError):
            trajectory.unitary_at(15.0)  # no gate model attached

    def test_coordinates_at_interpolates(self, baseline_model):
        durations = np.array([10.0, 20.0, 30.0])
        coords = [baseline_model.coordinates(t) for t in durations]
        trajectory = CartanTrajectory(durations, coords)
        mid = trajectory.coordinates_at(15.0)
        assert coords[0][0] < mid[0] < coords[1][0]


class TestSelectionStrategies:
    def test_baseline_selects_sqrt_iswap(self, baseline_trajectory):
        selection = select_basis_gate(baseline_trajectory, "baseline")
        assert selection.duration == pytest.approx(83.04, abs=0.1)
        assert selection.coordinates == pytest.approx((0.25, 0.25, 0.0), abs=1e-3)
        assert selection.swap_layers == 3
        assert selection.cnot_layers == 2
        assert selection.unitary is not None

    def test_criterion1_is_fastest(self, nonstandard_trajectory):
        c1 = select_basis_gate(nonstandard_trajectory, "criterion1")
        c2 = select_basis_gate(nonstandard_trajectory, "criterion2")
        assert c1.duration <= c2.duration
        assert can_synthesize_swap_in_3_layers(c1.coordinates)
        assert c1.swap_layers == 3

    def test_criterion2_gives_two_layer_cnot(self, nonstandard_trajectory):
        c2 = select_basis_gate(nonstandard_trajectory, "criterion2")
        assert c2.cnot_layers == 2

    def test_criterion_gates_are_about_8x_faster(self, baseline_trajectory, nonstandard_trajectory):
        baseline = select_basis_gate(baseline_trajectory, "baseline")
        c1 = select_basis_gate(nonstandard_trajectory, "criterion1")
        assert 7.0 < baseline.duration / c1.duration < 9.0

    def test_baseline_rejects_nonstandard_trajectory(self):
        model = EffectiveEntanglerModel.for_pair(3.2, 5.2, 0.04, static_zz=0.05)
        trajectory = CartanTrajectory.from_model(model, max_duration=25, resolution=0.25)
        with pytest.raises(ValueError):
            BaselineSqrtIswapStrategy(tolerance=0.02).select(trajectory)

    def test_strategy_error_when_no_gate_found(self):
        coords = [(0.01 * k, 0.0, 0.0) for k in range(1, 6)]
        trajectory = CartanTrajectory(list(range(1, 6)), coords)
        with pytest.raises(ValueError):
            Criterion1Strategy().select(trajectory)

    def test_predicate_strategy_pe_and_swap3(self, nonstandard_trajectory):
        strategy = PredicateStrategy(
            "pe_and_swap3",
            lambda c: is_perfect_entangler(c) and can_synthesize_swap_in_3_layers(c),
        )
        selection = strategy.select(nonstandard_trajectory)
        assert is_perfect_entangler(selection.coordinates)
        named = select_basis_gate(nonstandard_trajectory, "pe_and_swap3")
        assert named.duration == pytest.approx(selection.duration)

    def test_composite_strategy_matches_criterion2(self, nonstandard_trajectory):
        composite = CompositeCriterionStrategy(
            targets={
                "swap": ((0.5, 0.5, 0.5), 3),
                "cnot": ((0.5, 0.0, 0.0), 2),
            },
            name="swap3_cnot2",
        )
        selection = composite.select(nonstandard_trajectory)
        reference = Criterion2Strategy().select(nonstandard_trajectory)
        assert selection.duration == pytest.approx(reference.duration, abs=0.05)

    def test_composite_budget_below_three_is_checked(self, nonstandard_trajectory):
        """A budget of two is a real test, not a cap that every gate meets:
        the first samples (0.25 ns, near the identity) cannot make B in two
        layers; the first sample that can is at 11.0 ns."""
        b_gate = (0.5, 0.25, 0.0)
        composite = CompositeCriterionStrategy(targets={"b": (b_gate, 2)})
        selection = composite.select(nonstandard_trajectory)
        assert 10.75 <= selection.duration <= 11.0
        assert TwoLayerOracle().can_reach_in_2(b_gate, selection.coordinates)
        first = tuple(nonstandard_trajectory.coordinates[0])
        assert not TwoLayerOracle().can_reach_in_2(b_gate, first)

    def test_cnot_layer_count_is_checked_beyond_two(self):
        assert _cnot_layer_count((0.25, 0.25, 0.0)) == 2
        assert _cnot_layer_count((0.2, 0.0, 0.0)) == 3
        assert _cnot_layer_count((0.15, 0.1, 0.02)) == 4

    def test_available_strategies_listed(self):
        assert set(available_strategies()) >= {"baseline", "criterion1", "criterion2"}


class TestDeviceScanIdentity:
    """A device's target build scans trajectories batched (one mask call
    across all edges, bisection in lockstep) and simulates edges on worker
    threads; neither may change a selection."""

    SEEDS = (1000, 1003)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("strategy", ("baseline", "criterion1", "criterion2"))
    def test_batched_scan_equals_the_scalar_scan(self, strategy, seed):
        device = make_device(TopologySpec.parse("grid:3x3"), seed)
        amplitude = device.amplitude_for_strategy(strategy)
        trajectories = [
            device.calibration(edge, amplitude).trajectory for edge in device.edges()
        ]
        strategy_obj = get_strategy(strategy)
        assert strategy_obj.has_batch_predicate
        batched = [s.duration for s in strategy_obj.select_batch(trajectories)]
        scalar = [t.first_duration_where(strategy_obj.predicate) for t in trajectories]
        assert batched == scalar

    @pytest.mark.parametrize("seed", SEEDS)
    def test_threaded_build_equals_the_serial_build(self, seed):
        def build(max_workers):
            device = make_device(TopologySpec.parse("grid:3x3"), seed)
            return build_target(device, "criterion2").complete(max_workers=max_workers)

        assert build(1) == build(4)


class TestRegionSummaries:
    def test_volume_fractions_match_paper(self):
        assert swap3_feasible_volume_fraction(8000) == pytest.approx(0.685, abs=0.03)
        assert cnot2_feasible_volume_fraction(8000) == pytest.approx(0.75, abs=0.03)

    @pytest.mark.parametrize("n_samples, seed", [(3000, 1234), (2000, 7)])
    def test_masked_fractions_equal_the_scalar_predicates(self, n_samples, seed):
        """The vectorized masks reproduce the per-point loop bit for bit."""

        def scalar(predicate):
            rng = np.random.default_rng(seed)
            return chamber_volume_fraction(predicate, n_samples, rng)

        assert swap3_feasible_volume_fraction(n_samples, seed) == scalar(
            can_synthesize_swap_in_3_layers
        )
        assert cnot2_feasible_volume_fraction(n_samples, seed) == scalar(
            can_synthesize_cnot_in_2_layers
        )
        assert intersection_volume_fraction(n_samples, seed) == scalar(
            lambda c: can_synthesize_swap_in_3_layers(c)
            and can_synthesize_cnot_in_2_layers(c)
        )

    def test_exact_fractions(self):
        exact = exact_infeasible_volume_fractions()
        assert exact["cnot2_infeasible"] == pytest.approx(0.25, abs=1e-9)
        assert exact["swap3_infeasible"] == pytest.approx(0.315, abs=0.002)

    def test_swap2_segments_endpoints(self):
        segments = swap2_segments(n_points=5)
        assert np.allclose(segments["B_to_sqrt_swap"][0], (0.5, 0.25, 0.0))
        assert np.allclose(segments["B_to_sqrt_swap"][-1], (0.25, 0.25, 0.25))
        assert np.allclose(segments["B_to_sqrt_swap_dag"][-1], (0.75, 0.25, 0.25))

    def test_mirror_trajectory_shape(self):
        coords = np.array([(0.1, 0.08, 0.01), (0.2, 0.18, 0.02)])
        mirrored = mirror_trajectory(coords)
        assert mirrored.shape == coords.shape
