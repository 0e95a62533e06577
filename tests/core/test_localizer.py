"""Tests for the SP localizer on synthetic (noise-free) anchor sets."""

import numpy as np
import pytest

from repro.core import (
    Anchor,
    CenterMethod,
    LocalizerConfig,
    NomLocLocalizer,
)
from repro.geometry import Point, Polygon


def ideal_anchors(positions, obj, nomadic_flags=None):
    """Anchors whose PDPs decay perfectly with distance (no noise)."""
    nomadic_flags = nomadic_flags or [False] * len(positions)
    return [
        Anchor(
            f"A{i}",
            p,
            1.0 / (0.1 + obj.distance_to(p)) ** 2,
            nomadic=n,
        )
        for i, (p, n) in enumerate(zip(positions, nomadic_flags))
    ]


SQUARE = Polygon.rectangle(0, 0, 10, 10)
CORNERS = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]


class TestLocalizerBasics:
    def test_needs_two_anchors(self):
        loc = NomLocLocalizer(SQUARE)
        with pytest.raises(ValueError):
            loc.locate([Anchor("A", Point(1, 1), 1.0)])

    def test_coincident_anchors_rejected(self):
        loc = NomLocLocalizer(SQUARE)
        with pytest.raises(ValueError):
            loc.locate(
                [Anchor("A", Point(1, 1), 1.0), Anchor("B", Point(1, 1), 2.0)]
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LocalizerConfig(boundary_weight=0.0)
        with pytest.raises(ValueError):
            LocalizerConfig(cost_merge_tolerance=-1.0)

    def test_estimate_inside_area(self):
        loc = NomLocLocalizer(SQUARE)
        obj = Point(3, 7)
        est = loc.locate(ideal_anchors(CORNERS, obj))
        assert SQUARE.contains(est.position)

    def test_ideal_judgements_bound_error_by_cell_size(self):
        """With perfect judgements the estimate lands in the object's cell."""
        loc = NomLocLocalizer(SQUARE)
        rng = np.random.default_rng(0)
        for _ in range(20):
            obj = Point(float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
            est = loc.locate(ideal_anchors(CORNERS, obj))
            assert est.was_feasible
            # 4 corner anchors partition the square into cells of diameter
            # well under the diagonal; be loose but meaningful.
            assert est.error_to(obj) < 4.5

    def test_more_anchors_reduce_error(self):
        loc = NomLocLocalizer(SQUARE)
        rng = np.random.default_rng(1)
        dense_positions = CORNERS + [
            Point(5, 0),
            Point(5, 10),
            Point(0, 5),
            Point(10, 5),
            Point(5, 5),
        ]
        sparse_err, dense_err = [], []
        for _ in range(25):
            obj = Point(float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
            sparse_err.append(loc.locate(ideal_anchors(CORNERS, obj)).error_to(obj))
            dense_err.append(
                loc.locate(ideal_anchors(dense_positions, obj)).error_to(obj)
            )
        assert np.mean(dense_err) < np.mean(sparse_err)

    def test_object_in_anchor_cell_center_exact(self):
        """Object at the exact centre produces all-equal PDPs, which the
        judgement stage tie-breaks into an ordering chain; the estimate is
        the centre of that chain's cell, on the central axis."""
        loc = NomLocLocalizer(SQUARE)
        est = loc.locate(ideal_anchors(CORNERS, Point(5, 5)))
        assert est.position.x == pytest.approx(5.0, abs=0.1)
        assert est.error_to(Point(5, 5)) < 3.0


class TestNomadicDownscoping:
    def test_nomadic_sites_shrink_region(self):
        """Adding nomadic sites must not grow the feasible region."""
        loc = NomLocLocalizer(SQUARE)
        obj = Point(6.5, 3.5)
        base = loc.locate(ideal_anchors(CORNERS, obj))
        extended_positions = CORNERS + [Point(5, 3), Point(7, 5)]
        flags = [False] * 4 + [True, True]
        extended = loc.locate(ideal_anchors(extended_positions, obj, flags))
        assert base.region is not None and extended.region is not None
        assert extended.region.area() <= base.region.area() + 1e-9
        assert extended.error_to(obj) <= base.error_to(obj) + 0.5

    def test_paper_mode_excludes_site_pairs(self):
        cfg = LocalizerConfig(include_nomadic_pairs=False)
        loc = NomLocLocalizer(SQUARE, cfg)
        obj = Point(6.5, 3.5)
        positions = CORNERS + [Point(5, 3), Point(7, 5)]
        flags = [False] * 4 + [True, True]
        est = loc.locate(ideal_anchors(positions, obj, flags))
        # 6 static pairs + 2 sites x 4 statics + 4 boundary = 18 rows.
        assert est.num_constraints == 6 + 8 + 4


class TestWrongJudgements:
    def test_single_wrong_lowweight_judgement_recovered(self):
        """A low-confidence wrong row is sacrificed by the relaxation."""
        loc = NomLocLocalizer(SQUARE)
        obj = Point(2, 2)
        anchors = ideal_anchors(CORNERS, obj)
        # Corrupt: claim A2 (far corner) has slightly higher PDP than A1.
        a1, a2 = anchors[1], anchors[2]
        anchors[2] = Anchor(a2.name, a2.position, a1.pdp * 1.05)
        est = loc.locate(anchors)
        # Error grows but stays bounded; the estimate stays in the area.
        assert SQUARE.contains(est.position)
        assert est.error_to(obj) < 6.0


class TestNonConvexArea:
    L_SHAPE = Polygon.from_coords(
        [(0, 0), (20, 0), (20, 10), (10, 10), (10, 20), (0, 20)]
    )
    L_ANCHORS = [Point(1, 1), Point(19, 1), Point(19, 9), Point(1, 19)]

    def test_decomposed_into_pieces(self):
        loc = NomLocLocalizer(self.L_SHAPE)
        assert len(loc.pieces) == 2

    def test_estimate_stays_in_l_shape(self):
        loc = NomLocLocalizer(self.L_SHAPE)
        rng = np.random.default_rng(2)
        objs = self.L_SHAPE.sample_points(15, rng, margin=0.5)
        for obj in objs:
            est = loc.locate(ideal_anchors(self.L_ANCHORS, obj))
            # Estimate must not fall into the notch (outside the L).
            assert self.L_SHAPE.contains(est.position) or min(
                est.position.distance_to(v) for v in self.L_SHAPE.vertices
            ) < 1e-6

    def test_upper_arm_object_wins_upper_piece(self):
        loc = NomLocLocalizer(self.L_SHAPE)
        obj = Point(4, 16)
        est = loc.locate(ideal_anchors(self.L_ANCHORS, obj))
        assert est.error_to(obj) < 8.0
        assert est.position.y > 8.0  # clearly in the upper arm


class TestCenterMethods:
    @pytest.mark.parametrize(
        "method",
        [CenterMethod.CENTROID, CenterMethod.ANALYTIC],
    )
    def test_all_methods_work_end_to_end(self, method):
        loc = NomLocLocalizer(SQUARE, LocalizerConfig(center_method=method))
        obj = Point(7, 3)
        est = loc.locate(ideal_anchors(CORNERS, obj))
        assert SQUARE.contains(est.position)
        assert est.error_to(obj) < 5.0


class TestDiagnostics:
    def test_estimate_fields(self):
        loc = NomLocLocalizer(SQUARE)
        est = loc.locate(ideal_anchors(CORNERS, Point(3, 3)))
        assert est.was_feasible
        assert len(est.pieces) == 1
        assert est.num_constraints == 6 + 4
        assert est.region is not None
        assert est.relaxation_cost == pytest.approx(0.0, abs=1e-8)

    def test_confidence_radius(self):
        import math

        loc = NomLocLocalizer(SQUARE)
        est = loc.locate(ideal_anchors(CORNERS, Point(3, 3)))
        assert est.region is not None
        expected = math.sqrt(est.region.area() / math.pi)
        assert est.confidence_radius_m == pytest.approx(expected)
        # More anchors shrink the self-reported uncertainty.
        dense = loc.locate(
            ideal_anchors(CORNERS + [Point(5, 5), Point(3, 0.5)], Point(3, 3))
        )
        assert dense.confidence_radius_m <= est.confidence_radius_m + 1e-9
