"""Bit-exactness tests for the row-stack halfspace clipper.

``intersect_rows`` promises, for every ``(a, b)`` row stack ("lane"), the
polygon that :func:`intersect_halfspaces` and the scalar oracle
(:func:`tests.oracles.geometry.clip_halfspaces`: ``clip_polygon`` chained
over :class:`HalfSpace` objects) produce from the same rows as
:class:`HalfSpace` objects, so every comparison here is exact (``==`` on
vertex floats), never ``approx``.
"""

import numpy as np
import pytest

from repro.geometry import (
    HalfSpace,
    Polygon,
    intersect_halfspaces,
    intersect_rows,
)
from tests.oracles.geometry import clip_halfspaces

BOUND = Polygon.rectangle(0.0, 0.0, 20.0, 14.0)


def rows_to_halfspaces(a, b):
    return [HalfSpace(a[j, 0], a[j, 1], b[j]) for j in range(len(b))]


def random_lane(rng, max_rows=8):
    m = int(rng.integers(0, max_rows + 1))
    a = rng.normal(size=(m, 2))
    # Offsets biased so many rows actually cut through the bound.
    b = a @ rng.uniform([2, 2], [18, 12]) + rng.normal(scale=4.0, size=m)
    return a, b


def assert_lane_identical(ref, got):
    if ref is None or got is None:
        assert ref is None and got is None
        return
    assert len(ref.vertices) == len(got.vertices)
    for p, q in zip(ref.vertices, got.vertices):
        assert (p.x, p.y) == (q.x, q.y)


def clip_lanes(lanes):
    """``intersect_rows`` per lane, each checked against both references."""
    polys = []
    for a, b in lanes:
        poly = intersect_rows(a, b, BOUND)
        halfspaces = rows_to_halfspaces(a, b)
        assert_lane_identical(intersect_halfspaces(halfspaces, BOUND), poly)
        assert_lane_identical(clip_halfspaces(halfspaces, BOUND), poly)
        polys.append(poly)
    return polys


class TestIntersectHalfspacesBatch:
    """``intersect_rows`` lane by lane against both references."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lanes_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        lanes = [random_lane(rng) for _ in range(24)]
        clip_lanes(lanes)

    def test_zero_row_lane_returns_bound(self):
        lanes = [(np.zeros((0, 2)), np.zeros(0))] * 14
        for poly in clip_lanes(lanes):
            assert_lane_identical(BOUND, poly)

    def test_infeasible_lane_is_none_without_poisoning_others(self):
        # x <= -1 and x >= 1 cannot meet inside the bound.
        bad_a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        bad_b = np.array([-1.0, -1.0])
        good_a = np.array([[1.0, 0.0]])
        good_b = np.array([10.0])
        lanes = [(bad_a, bad_b), (good_a, good_b)] * 12
        polys = clip_lanes(lanes)
        assert polys[0] is None
        assert polys[1] is not None

    def test_mixed_row_counts(self):
        rng = np.random.default_rng(7)
        lanes = [random_lane(rng, max_rows=1) for _ in range(12)]
        lanes += [random_lane(rng, max_rows=12) for _ in range(12)]
        clip_lanes(lanes)

    def test_degenerate_sliver_lanes(self):
        # Two parallel cuts leaving (almost) zero area: the scalar oracle
        # collapses slivers to None; ``intersect_rows`` must agree.
        lanes = []
        for eps in (0.0, 1e-13, 1e-9, 1e-3):
            a = np.array([[1.0, 0.0], [-1.0, 0.0]])
            b = np.array([5.0 + eps, -5.0])
            lanes.append((a, b))
        lanes = lanes * 4
        clip_lanes(lanes)
