"""Tests for the log-barrier analytic centre."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import HalfSpace, Point, Polygon, intersect_halfspaces
from repro.optimize import LPStatus, analytic_center


def box_constraints(cx, cy, half):
    """|x - cx| <= half and |y - cy| <= half as (A, b)."""
    a = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    b = np.array([cx + half, -(cx - half), cy + half, -(cy - half)])
    return a, b


class TestAnalyticCenter:
    def test_square_center(self):
        a, b = box_constraints(0.0, 0.0, 1.0)
        res = analytic_center(a, b, np.array([0.3, -0.2]))
        assert res.ok
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-7)

    def test_center_is_interior(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            centre = rng.uniform(-5, 5, 2)
            a = rng.uniform(-1, 1, size=(8, 2))
            norms = np.linalg.norm(a, axis=1)
            a = a[norms > 0.1]
            b = a @ centre + rng.uniform(0.5, 2.0, size=a.shape[0])
            # Bound the region with a big box to guarantee existence.
            box_a, box_b = box_constraints(centre[0], centre[1], 50.0)
            a_all = np.vstack([a, box_a])
            b_all = np.concatenate([b, box_b])
            res = analytic_center(a_all, b_all, centre)
            assert res.ok
            assert np.all(a_all @ res.x < b_all)

    def test_asymmetric_slab_matches_closed_form(self):
        # Region: 0 <= x <= 3 crossed with 0 <= y <= 1.  Analytic centre of a
        # product of intervals is the interval midpoints.
        a = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        b = np.array([3.0, 0.0, 1.0, 0.0])
        res = analytic_center(a, b, np.array([0.5, 0.9]))
        assert res.ok
        np.testing.assert_allclose(res.x, [1.5, 0.5], atol=1e-6)

    def test_infeasible_region(self):
        # x <= 0 and x >= 1: no start point can be strictly inside.
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.0, -1.0])
        res = analytic_center(a, b, np.array([0.5, 0.0]))
        assert res.status is LPStatus.INFEASIBLE

    def test_supplied_x0_must_be_interior(self):
        a, b = box_constraints(0.0, 0.0, 1.0)
        res = analytic_center(a, b, x0=np.array([5.0, 5.0]))
        assert res.status is LPStatus.INFEASIBLE

    def test_weighting_pulls_toward_far_faces(self):
        """Centre of x <= 1, -x <= 1, y <= t, -y <= t stays at origin."""
        for t in (0.5, 2.0, 7.0):
            a = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
            b = np.array([1.0, 1.0, t, t])
            res = analytic_center(a, b, np.array([0.5, -0.4 * t]))
            assert res.ok
            np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-4)


class TestCentersAgainstGeometry:
    """Started from the centroid, the analytic centre stays inside the
    exact clipped feasible polygon."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_centers_inside_exact_region(self, seed):
        rng = np.random.default_rng(seed)
        bound = Polygon.rectangle(-10, -10, 10, 10)
        halfspaces = []
        target = Point(*rng.uniform(-8, 8, 2))
        for _ in range(5):
            other = Point(*rng.uniform(-9, 9, 2))
            if other.distance_to(target) < 0.3:
                continue
            from repro.geometry import bisector_halfspace

            halfspaces.append(bisector_halfspace(target, other))
        region = intersect_halfspaces(halfspaces, bound)
        assert region is not None  # target is always feasible
        bound_hs = [
            HalfSpace(1, 0, 10),
            HalfSpace(-1, 0, 10),
            HalfSpace(0, 1, 10),
            HalfSpace(0, -1, 10),
        ]
        all_hs = halfspaces + bound_hs
        a = np.array([[h.ax, h.ay] for h in all_hs])
        b = np.array([h.b for h in all_hs])

        centroid = region.centroid()
        ana = analytic_center(a, b, np.array([centroid.x, centroid.y]))
        assert ana.ok
        assert region.contains(Point(*ana.x))
