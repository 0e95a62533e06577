"""Tests for the service metrics core."""

import enum
import json
import math

import numpy as np
import pytest

from repro.serving import LatencyReservoir, ServiceMetrics, json_safe, percentile


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 25, 50, 75, 90, 95, 100])
    def test_matches_numpy(self, q):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0, 10, 37))
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q))
        )

    def test_single_value(self):
        assert percentile([4.2], 95) == 4.2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyReservoir:
    def test_window_is_bounded_but_count_is_not(self):
        r = LatencyReservoir(capacity=4)
        for i in range(10):
            r.observe(float(i))
        assert len(r) == 4
        assert r.count == 10

    def test_mean_over_all_observations(self):
        r = LatencyReservoir(capacity=2)
        for v in (1.0, 2.0, 3.0, 6.0):
            r.observe(v)
        assert r.mean() == pytest.approx(3.0)

    def test_quantiles_empty_are_zero(self):
        assert LatencyReservoir().quantiles() == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LatencyReservoir(0)


class TestServiceMetrics:
    def test_counters_and_snapshot(self):
        m = ServiceMetrics()
        m.record_admitted()
        m.record_admitted()
        m.record_cache(hit=True)
        m.record_cache(hit=False)
        m.record_completed(0.010)
        m.record_completed(0.030, degraded=True, timed_out=True)
        snap = m.snapshot(queue_depth=5)
        assert snap["admitted"] == 2
        assert snap["completed"] == 2
        assert snap["degraded"] == 1
        assert snap["timeouts"] == 1
        assert snap["lp_failures"] == 0
        assert snap["queue_depth"] == 5
        assert snap["cache_hit_rate"] == pytest.approx(0.5)
        assert snap["latency_mean_s"] == pytest.approx(0.020)
        assert snap["latency_p50_s"] == pytest.approx(0.020)
        assert snap["throughput_qps"] > 0

    def test_snapshot_is_plain_dict(self):
        snap = ServiceMetrics().snapshot()
        assert isinstance(snap, dict)
        assert all(isinstance(v, (int, float)) for v in snap.values())


class TestQueueWait:
    def test_queue_wait_split_in_snapshot(self):
        m = ServiceMetrics()
        m.record_queue_wait(0.010)
        m.record_queue_wait(0.030)
        snap = m.snapshot()
        assert snap["queue_wait_mean_s"] == pytest.approx(0.020)
        assert snap["queue_wait_p50_s"] == pytest.approx(0.020)
        assert snap["queue_wait_p95_s"] == pytest.approx(0.029)

    def test_queue_wait_defaults_to_zero(self):
        snap = ServiceMetrics().snapshot()
        assert snap["queue_wait_mean_s"] == 0.0
        assert snap["queue_wait_p50_s"] == 0.0
        assert snap["queue_wait_p95_s"] == 0.0


class TestJsonSafe:
    def test_sorted_stringified_keys_recursively(self):
        out = json_safe({"b": 1, 2: {"z": (1, 2), "a": {3.5}}})
        assert list(out) == ["2", "b"]
        assert out["2"] == {"a": [3.5], "z": [1, 2]}
        json.dumps(out)

    def test_non_finite_floats_become_null(self):
        assert json_safe({"a": math.nan, "b": math.inf, "c": 1.5}) == {
            "a": None,
            "b": None,
            "c": 1.5,
        }

    def test_enums_collapse_and_unknowns_stringify(self):
        class Status(enum.Enum):
            OK = "ok"

        class Opaque:
            def __str__(self):
                return "opaque!"

        out = json_safe({"s": Status.OK, "o": Opaque(), "flag": True})
        assert out == {"flag": True, "o": "opaque!", "s": "ok"}
        json.dumps(out)

    def test_numpy_scalars_never_break_serialization(self):
        out = json_safe({"count": np.int64(3), "rate": np.float64(0.5)})
        json.dumps(out)  # falls back to str for non-builtin numerics


class TestServiceMetricsToJson:
    def test_to_json_dumps_cleanly_with_stable_order(self):
        m = ServiceMetrics()
        m.record_admitted()
        m.record_completed(0.01)
        doc = m.to_json(queue_depth=2)
        assert doc == json.loads(json.dumps(doc, sort_keys=True))
        assert list(doc) == sorted(doc)
        assert doc["completed"] == 1
        assert doc["queue_depth"] == 2

    def test_to_json_matches_snapshot_values(self):
        m = ServiceMetrics()
        m.record_admitted()
        m.record_completed(0.25)
        snap = m.snapshot()
        doc = m.to_json()
        assert doc["latency_p50_s"] == snap["latency_p50_s"]  # exact floats
        assert doc["completed"] == snap["completed"]
