"""Bit-exactness tests for the batched halfspace clipper.

``intersect_halfspaces_batch`` promises, per lane, the polygon the scalar
oracle (:func:`tests.oracles.geometry.clip_halfspaces`: ``clip_polygon`` chained
over :class:`HalfSpace` objects) produces, so every comparison here is
exact (``==`` on vertex floats), never ``approx``.
"""

import numpy as np
import pytest

from repro.geometry import HalfSpace, Polygon, intersect_halfspaces_batch
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


def assert_lane_identical(scalar, batched):
    if scalar is None or batched is None:
        assert scalar is None and batched is None
        return
    assert len(scalar.vertices) == len(batched.vertices)
    for p, q in zip(scalar.vertices, batched.vertices):
        assert (p.x, p.y) == (q.x, q.y)


class TestIntersectHalfspacesBatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lanes_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        lanes = [random_lane(rng) for _ in range(24)]
        batched = intersect_halfspaces_batch(lanes, BOUND)
        for (a, b), poly in zip(lanes, batched):
            scalar = clip_halfspaces(rows_to_halfspaces(a, b), BOUND)
            assert_lane_identical(scalar, poly)

    def test_small_batch_scalar_fallback_path(self):
        # A lane's polygon must not depend on how many other lanes share
        # the batch.
        rng = np.random.default_rng(99)
        lanes = [random_lane(rng) for _ in range(11)]
        small = intersect_halfspaces_batch(lanes, BOUND)
        padded = intersect_halfspaces_batch(
            lanes + [random_lane(rng) for _ in range(12)], BOUND
        )
        for lane, (p, q) in enumerate(zip(small, padded[: len(small)])):
            assert_lane_identical(p, q)

    def test_empty_batch_and_singleton(self):
        assert intersect_halfspaces_batch([], BOUND) == []
        a = np.array([[1.0, 0.0]])
        b = np.array([7.0])
        [poly] = intersect_halfspaces_batch([(a, b)], BOUND)
        scalar = clip_halfspaces(rows_to_halfspaces(a, b), BOUND)
        assert_lane_identical(scalar, poly)

    def test_zero_row_lane_returns_bound(self):
        lanes = [(np.zeros((0, 2)), np.zeros(0))] * 14
        for poly in intersect_halfspaces_batch(lanes, BOUND):
            assert_lane_identical(BOUND, poly)

    def test_infeasible_lane_is_none_without_poisoning_others(self):
        # x <= -1 and x >= 1 cannot meet inside the bound.
        bad_a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        bad_b = np.array([-1.0, -1.0])
        good_a = np.array([[1.0, 0.0]])
        good_b = np.array([10.0])
        lanes = [(bad_a, bad_b), (good_a, good_b)] * 12
        batched = intersect_halfspaces_batch(lanes, BOUND)
        for (a, b), poly in zip(lanes, batched):
            scalar = clip_halfspaces(rows_to_halfspaces(a, b), BOUND)
            assert_lane_identical(scalar, poly)
        assert batched[0] is None
        assert batched[1] is not None

    def test_mixed_row_counts(self):
        rng = np.random.default_rng(7)
        lanes = [random_lane(rng, max_rows=1) for _ in range(12)]
        lanes += [random_lane(rng, max_rows=12) for _ in range(12)]
        batched = intersect_halfspaces_batch(lanes, BOUND)
        for (a, b), poly in zip(lanes, batched):
            scalar = clip_halfspaces(rows_to_halfspaces(a, b), BOUND)
            assert_lane_identical(scalar, poly)

    def test_degenerate_sliver_lanes(self):
        # Two parallel cuts leaving (almost) zero area: the scalar oracle
        # collapses slivers to None; the batch must agree lane by lane.
        lanes = []
        for eps in (0.0, 1e-13, 1e-9, 1e-3):
            a = np.array([[1.0, 0.0], [-1.0, 0.0]])
            b = np.array([5.0 + eps, -5.0])
            lanes.append((a, b))
        lanes = lanes * 4
        batched = intersect_halfspaces_batch(lanes, BOUND)
        for (a, b), poly in zip(lanes, batched):
            scalar = clip_halfspaces(rows_to_halfspaces(a, b), BOUND)
            assert_lane_identical(scalar, poly)
