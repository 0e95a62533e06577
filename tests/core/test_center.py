"""Tests for region-centre estimators."""

import numpy as np
import pytest

from repro.core import CenterMethod, feasible_polygon, region_center
from repro.core.center import _region_rows
from repro.geometry import HalfSpace, Point, Polygon
from repro.optimize import LPStatus, analytic_center


BOUND = Polygon.rectangle(-20, -20, 20, 20)


def box_hs(cx, cy, half):
    return [
        HalfSpace(1, 0, cx + half),
        HalfSpace(-1, 0, -(cx - half)),
        HalfSpace(0, 1, cy + half),
        HalfSpace(0, -1, -(cy - half)),
    ]


class TestFeasiblePolygon:
    def test_square(self):
        region = feasible_polygon(box_hs(3, 4, 2), BOUND)
        assert region is not None
        assert region.area() == pytest.approx(16.0)

    def test_empty(self):
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]
        assert feasible_polygon(hs, BOUND) is None

    def test_no_constraints_returns_bound(self):
        region = feasible_polygon([], BOUND)
        assert region is not None
        assert region.area() == pytest.approx(BOUND.area())


class TestRegionCenter:
    @pytest.mark.parametrize(
        "method",
        [CenterMethod.CENTROID, CenterMethod.ANALYTIC],
    )
    def test_square_center_all_methods(self, method):
        c = region_center(box_hs(3, -2, 1.5), BOUND, method)
        assert c is not None
        assert c.almost_equals(Point(3, -2), tol=1e-4)

    def test_methods_differ_on_asymmetric_region(self):
        """A thin right trapezoid separates the two centre notions.

        (On a triangle they coincide: the analytic centre of a simplex is
        its vertex average.)
        """
        hs = [
            HalfSpace(0, -1, 0),  # y >= 0
            HalfSpace(-1, 0, 0),  # x >= 0
            HalfSpace(1, 8, 8),  # x + 8y <= 8
            HalfSpace(1, 0, 6),  # x <= 6
        ]
        centroid = region_center(hs, BOUND, CenterMethod.CENTROID)
        analytic = region_center(hs, BOUND, CenterMethod.ANALYTIC)
        assert centroid is not None and analytic is not None
        assert not centroid.almost_equals(analytic, tol=1e-3)

    def test_analytic_sliver_falls_back_to_centroid(self):
        # A 1e-7 m high quadrilateral: positive area, but its rounded
        # centroid is not strictly inside its own edge rows, so the Newton
        # solve has no start and the exact centroid is the answer.
        region = Polygon(
            (
                Point(17.3, 17.3),
                Point(27.3, 17.3),
                Point(24.3, 17.3 + 1e-7),
                Point(19.3, 17.3 + 1e-7),
            )
        )
        centroid = region.centroid()
        a, b = _region_rows(region)
        start = analytic_center(a, b, np.array([centroid.x, centroid.y]))
        assert start.status is LPStatus.INFEASIBLE
        got = region_center((), BOUND, CenterMethod.ANALYTIC, region=region)
        assert got == centroid

    def test_all_methods_stay_inside(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            cx, cy = rng.uniform(-5, 5, 2)
            hs = box_hs(cx, cy, float(rng.uniform(0.5, 3.0)))
            # Add a random cut through the box.
            theta = rng.uniform(0, 2 * np.pi)
            hs.append(
                HalfSpace(
                    float(np.cos(theta)),
                    float(np.sin(theta)),
                    float(np.cos(theta) * cx + np.sin(theta) * cy + 0.3),
                )
            )
            region = feasible_polygon(hs, BOUND)
            assert region is not None
            for method in CenterMethod:
                c = region_center(hs, BOUND, method)
                assert c is not None
                assert region.contains(c) or any(
                    c.distance_to(v) < 1e-5 for v in region.vertices
                )

    def test_empty_region_without_fallback(self):
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]
        assert region_center(hs, BOUND) is None

    def test_empty_region_with_fallback(self):
        hs = [HalfSpace(1, 0, 0), HalfSpace(-1, 0, -1)]
        c = region_center(hs, BOUND, fallback=np.array([0.5, 0.5]))
        assert c == Point(0.5, 0.5)
