"""Tests for cluster-level metrics and the fleet roll-up."""

import json

from repro.cluster import ClusterMetrics, merge_service_snapshots


class TestClusterMetrics:
    def test_routed_and_degraded_counts(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.01)
        metrics.record_query(0.05, degraded=True)
        snap = metrics.snapshot()
        assert snap["routed"] == 2
        assert snap["degraded"] == 1
        assert snap["latency_p50_s"] > 0

    def test_empty_cluster_has_routed_nothing(self):
        snap = ClusterMetrics().snapshot()
        assert snap["routed"] == 0
        assert snap["degraded"] == 0


class TestMergeServiceSnapshots:
    def test_counters_sum_and_depth_takes_worst(self):
        merged = merge_service_snapshots(
            [
                {
                    "completed": 3,
                    "cache_hits": 2,
                    "cache_misses": 1,
                    "queue_depth": 0,
                    "degraded_links_total": 1,
                },
                {
                    "completed": 5,
                    "cache_hits": 4,
                    "cache_misses": 1,
                    "queue_depth": 7,
                },
            ]
        )
        assert merged["completed"] == 8
        assert merged["queue_depth"] == 7
        assert merged["degraded_links_total"] == 1
        assert merged["cache_hit_rate"] == 6 / 8
        assert merged["shard_count"] == 2

    def test_empty_fleet(self):
        merged = merge_service_snapshots([])
        assert merged["shard_count"] == 0
        assert merged["cache_hit_rate"] == 0.0


class TestClusterMetricsToJson:
    def test_to_json_dumps_cleanly_with_stable_order(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.01)
        metrics.record_query(0.02, degraded=True)
        doc = metrics.to_json()
        assert doc == json.loads(json.dumps(doc, sort_keys=True))
        assert list(doc) == sorted(doc)
        assert doc["routed"] == 2
        assert doc["degraded"] == 1

    def test_to_json_matches_snapshot_values(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.125)
        snap = metrics.snapshot()
        doc = metrics.to_json()
        assert doc["latency_p95_s"] == snap["latency_p95_s"]  # exact floats
        assert doc["routed"] == snap["routed"] == 1
