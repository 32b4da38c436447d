"""Tests for the circuit-depth theory (mirror relation, regions, oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.depth import (
    CNOT2_INFEASIBLE_TETRAHEDRA,
    SWAP3_INFEASIBLE_TETRAHEDRA,
    TwoLayerOracle,
    can_synthesize_cnot_in_2_layers,
    can_synthesize_swap_in_1_layer,
    can_synthesize_swap_in_2_layers,
    can_synthesize_swap_in_3_layers,
    minimum_layers,
    mirror_coordinates,
    point_in_tetrahedron,
    point_on_triangle,
    swap2_partner,
)
from repro.weyl.cartan import canonicalize_coordinates, coordinates_close
from repro.weyl.chamber import chamber_volume_fraction, points_on_segment


class TestMirrorRelation:
    def test_cnot_mirrors_to_iswap(self):
        assert mirror_coordinates((0.5, 0.0, 0.0)) == pytest.approx((0.5, 0.5, 0.0))

    def test_swap2_partner_alias(self):
        assert swap2_partner((0.5, 0, 0)) == mirror_coordinates((0.5, 0, 0))

    def test_mirror_is_an_involution(self, rng):
        for _ in range(40):
            tx = rng.uniform(0, 1)
            ty = rng.uniform(0, min(tx, 1 - tx))
            tz = rng.uniform(0, ty)
            coords = canonicalize_coordinates((tx, ty, tz))
            assert coordinates_close(mirror_coordinates(mirror_coordinates(coords)), coords)

    def test_self_mirror_segments_are_the_b_to_sqrt_swap_lines(self):
        for endpoint in ((0.25, 0.25, 0.25), (0.75, 0.25, 0.25)):
            for point in points_on_segment((0.5, 0.25, 0.0), endpoint, 9):
                assert can_synthesize_swap_in_2_layers(point)

    def test_generic_points_are_not_self_mirror(self):
        assert not can_synthesize_swap_in_2_layers((0.5, 0.0, 0.0))
        assert not can_synthesize_swap_in_2_layers((0.25, 0.25, 0.0))
        assert not can_synthesize_swap_in_2_layers((0.3, 0.2, 0.1))

    def test_cnot_iswap_pair_gives_swap_in_2(self):
        assert can_synthesize_swap_in_2_layers((0.5, 0, 0), (0.5, 0.5, 0))
        assert not can_synthesize_swap_in_2_layers((0.5, 0, 0), (0.4, 0.3, 0))


class TestSwap1Layer:
    def test_only_swap_class_qualifies(self):
        assert can_synthesize_swap_in_1_layer((0.5, 0.5, 0.5))
        assert not can_synthesize_swap_in_1_layer((0.5, 0.5, 0.4))
        assert not can_synthesize_swap_in_1_layer((0.5, 0.0, 0.0))


class TestRegions:
    @pytest.mark.parametrize(
        "coords,expected",
        [
            ((0.5, 0.0, 0.0), True),       # CNOT
            ((0.25, 0.25, 0.0), True),     # sqrt(iSWAP), on the entry face
            ((0.5, 0.25, 0.0), True),      # B gate
            ((0.5, 0.5, 0.0), True),       # iSWAP
            ((0.05, 0.02, 0.0), False),    # near identity
            ((0.2, 0.1, 0.05), False),     # inside the identity tetrahedron
            ((0.45, 0.45, 0.45), False),   # near SWAP
        ],
    )
    def test_swap3_region_membership(self, coords, expected):
        assert can_synthesize_swap_in_3_layers(coords) is expected

    @pytest.mark.parametrize(
        "coords,expected",
        [
            ((0.25, 0.25, 0.0), True),     # sqrt(iSWAP), on the entry face
            ((0.5, 0.0, 0.0), True),       # CNOT itself
            ((0.5, 0.25, 0.0), True),      # B gate
            ((0.1, 0.05, 0.0), False),     # near identity
            ((0.2, 0.15, 0.1), False),     # tx < 1/4
            ((0.45, 0.45, 0.4), False),    # near SWAP
        ],
    )
    def test_cnot2_region_membership(self, coords, expected):
        assert can_synthesize_cnot_in_2_layers(coords) is expected

    def test_region_membership_respects_bottom_plane_mirror(self):
        assert can_synthesize_swap_in_3_layers((0.3, 0.2, 0.0)) == can_synthesize_swap_in_3_layers(
            (0.7, 0.2, 0.0)
        )
        assert can_synthesize_cnot_in_2_layers((0.1, 0.05, 0.0)) == can_synthesize_cnot_in_2_layers(
            (0.9, 0.05, 0.0)
        )

    def test_swap3_volume_fraction_matches_paper(self):
        fraction = chamber_volume_fraction(can_synthesize_swap_in_3_layers, n_samples=15000)
        assert fraction == pytest.approx(0.685, abs=0.02)

    def test_cnot2_volume_fraction_matches_paper(self):
        fraction = chamber_volume_fraction(can_synthesize_cnot_in_2_layers, n_samples=15000)
        assert fraction == pytest.approx(0.75, abs=0.02)

    def test_tetrahedra_vertex_lists_are_nondegenerate(self):
        for tetra in SWAP3_INFEASIBLE_TETRAHEDRA + CNOT2_INFEASIBLE_TETRAHEDRA:
            v = np.asarray(tetra, dtype=float)
            volume = abs(np.linalg.det(v[1:] - v[0])) / 6
            assert volume > 1e-5


class TestGeometryPrimitives:
    def test_point_in_tetrahedron(self):
        tetra = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert point_in_tetrahedron((0.1, 0.1, 0.1), tetra)
        assert not point_in_tetrahedron((0.5, 0.5, 0.5), tetra)
        assert point_in_tetrahedron((0, 0, 0), tetra, include_boundary=True)
        assert not point_in_tetrahedron((0, 0, 0), tetra, include_boundary=False)

    def test_point_on_triangle(self):
        triangle = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
        assert point_on_triangle((0.25, 0.25, 0.0), triangle)
        assert not point_on_triangle((0.25, 0.25, 0.1), triangle)
        assert not point_on_triangle((0.8, 0.8, 0.0), triangle)


class TestOracleAndMinimumLayers:
    def test_oracle_agrees_with_known_two_layer_facts(self):
        oracle = TwoLayerOracle()
        # sqrt(iSWAP) twice can make CNOT, but cannot make SWAP.
        assert oracle.can_reach_in_2((0.5, 0, 0), (0.25, 0.25, 0))
        assert not oracle.can_reach_in_2((0.5, 0.5, 0.5), (0.25, 0.25, 0))
        # CNOT and iSWAP together can make SWAP.
        assert oracle.can_reach_in_2((0.5, 0.5, 0.5), (0.5, 0, 0), (0.5, 0.5, 0))
        # The B gate twice reaches SWAP (B is on the self-mirror segment).
        assert oracle.can_reach_in_2((0.5, 0.5, 0.5), (0.5, 0.25, 0))

    def test_oracle_three_layer_swap_from_cnot(self):
        oracle = TwoLayerOracle()
        assert oracle.can_reach_in_3((0.5, 0.5, 0.5), (0.5, 0, 0))

    @pytest.mark.parametrize(
        "target,basis,expected",
        [
            ((0.0, 0.0, 0.0), (0.25, 0.25, 0.0), 0),
            ((0.25, 0.25, 0.0), (0.25, 0.25, 0.0), 1),
            ((0.5, 0.0, 0.0), (0.25, 0.25, 0.0), 2),
            ((0.5, 0.5, 0.5), (0.25, 0.25, 0.0), 3),
            ((0.5, 0.5, 0.5), (0.5, 0.0, 0.0), 3),
            ((0.5, 0.5, 0.5), (0.5, 0.25, 0.0), 2),
            ((0.5, 0.0, 0.0), (0.15, 0.1, 0.02), 4),
        ],
    )
    def test_minimum_layers_known_cases(self, target, basis, expected):
        assert minimum_layers(target, basis) == expected

    def test_regions_consistent_with_oracle_on_samples(self, rng):
        """Cross-validate the tetrahedral CNOT-2 region against the oracle."""
        oracle = TwoLayerOracle()
        for _ in range(6):
            tx = rng.uniform(0.05, 0.95)
            ty = rng.uniform(0, min(tx, 1 - tx))
            tz = rng.uniform(0, ty)
            coords = (tx, ty, tz)
            region = can_synthesize_cnot_in_2_layers(coords)
            numerical = oracle.can_reach_in_2((0.5, 0, 0), coords)
            assert region == numerical


@settings(max_examples=30, deadline=None)
@given(
    tx=st.floats(0.0, 1.0),
    ty=st.floats(0.0, 0.5),
    tz=st.floats(0.0, 0.5),
)
def test_mirror_lands_in_chamber_property(tx, ty, tz):
    from repro.weyl.cartan import in_weyl_chamber

    mirrored = mirror_coordinates(canonicalize_coordinates((tx, ty, tz)))
    assert in_weyl_chamber(mirrored)
