"""Tests for the topology-keyed constraint caches."""

import pytest

from repro.core import Anchor, LocalizerConfig, pairwise_constraints_batch
from repro.geometry import Point, Polygon
from repro.serving import BisectorCache, LocalizerCache, topology_key


def pairwise_rows(anchors, bisector_cache=None):
    """One query's rows from the production builder."""
    [(rows, _mats)] = pairwise_constraints_batch(
        [anchors], bisector_cache=bisector_cache
    )
    return rows


def square_anchors(pdps=(4.0, 3.0, 2.0, 1.0)):
    corners = [Point(0, 0), Point(10, 0), Point(10, 8), Point(0, 8)]
    return [
        Anchor(f"A{i}", c, pdp) for i, (c, pdp) in enumerate(zip(corners, pdps))
    ]


class TestTopologyKey:
    def test_same_topology_same_key(self):
        a = Polygon.rectangle(0, 0, 10, 8)
        b = Polygon.rectangle(0, 0, 10, 8)
        cfg = LocalizerConfig()
        assert topology_key(a, cfg) == topology_key(b, cfg)

    def test_differs_by_area_and_config(self):
        a = Polygon.rectangle(0, 0, 10, 8)
        b = Polygon.rectangle(0, 0, 11, 8)
        cfg = LocalizerConfig()
        assert topology_key(a, cfg) != topology_key(b, cfg)
        assert topology_key(a, cfg) != topology_key(
            a, LocalizerConfig(boundary_weight=50.0)
        )


class TestLocalizerCache:
    def test_hit_returns_same_instance(self):
        cache = LocalizerCache()
        area = Polygon.rectangle(0, 0, 10, 8)
        first, hit1 = cache.get(area)
        second, hit2 = cache.get(Polygon.rectangle(0, 0, 10, 8))
        assert not hit1 and hit2
        assert first is second

    def test_warmed_on_miss(self):
        cache = LocalizerCache()
        localizer, _ = cache.get(Polygon.rectangle(0, 0, 10, 8))
        assert all(rows is not None for rows in localizer._boundary_rows)

    def test_lru_eviction(self):
        cache = LocalizerCache(max_entries=2)
        a = Polygon.rectangle(0, 0, 1, 1)
        b = Polygon.rectangle(0, 0, 2, 2)
        c = Polygon.rectangle(0, 0, 3, 3)
        first_a, _ = cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a's recency
        cache.get(c)  # evicts b
        again_a, hit = cache.get(a)
        assert hit and again_a is first_a
        _, hit_b = cache.get(b)
        assert not hit_b  # was evicted
        assert cache.stats().evictions >= 1

    def test_stats(self):
        cache = LocalizerCache()
        area = Polygon.rectangle(0, 0, 10, 8)
        cache.get(area)
        cache.get(area)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_min_entries_validated(self):
        with pytest.raises(ValueError):
            LocalizerCache(0)


class TestBisectorCache:
    def test_cached_rows_identical_to_uncached(self):
        anchors = square_anchors()
        cache = BisectorCache()
        plain = pairwise_rows(anchors)
        cached_cold = pairwise_rows(anchors, bisector_cache=cache)
        cached_warm = pairwise_rows(anchors, bisector_cache=cache)
        assert plain == cached_cold == cached_warm

    def test_repeat_queries_hit(self):
        anchors = square_anchors()
        cache = BisectorCache()
        pairwise_rows(anchors, bisector_cache=cache)
        pairwise_rows(anchors, bisector_cache=cache)
        stats = cache.stats()
        assert stats.hits == stats.misses  # second pass all hits
        assert stats.hits > 0

    def test_orientation_flip_is_a_distinct_entry(self):
        cache = BisectorCache()
        pairwise_rows(square_anchors((4.0, 3.0)), bisector_cache=cache)
        # Same pair, reversed proximity judgement -> different (near, far).
        pairwise_rows(square_anchors((3.0, 4.0)), bisector_cache=cache)
        assert cache.stats().misses == 2
