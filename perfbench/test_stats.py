"""Unit tests for the benchmark's arithmetic, on synthetic inputs.

Run from the repository root with either of::

    python3 -m pytest perfbench/test_stats.py -q
    python3 perfbench/test_stats.py
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    due_latencies,
    interpolate,
    layer_split,
    match_frames,
    percentile,
    self_times,
    summarize,
    unattributed,
    windows,
)


def span(span_id, name, start, duration, parent=None, **attributes):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start_s": start,
        "duration_s": duration,
        "attributes": attributes,
        "counters": {},
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(values, 50.0), 3.0)
        self.assertEqual(percentile(values, 95.0), 5.0)
        self.assertEqual(percentile(values, 0.0), 1.0)
        self.assertEqual(percentile(values, 100.0), 5.0)

    def test_p95_of_hundred(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 95.0), 95)
        self.assertEqual(percentile(values, 50.0), 50)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50.0)
        with self.assertRaises(ValueError):
            percentile([1.0], 101.0)

    def test_summary_carries_sample_count(self):
        summary = summarize([2.0, 4.0, 6.0, 8.0])
        self.assertEqual(summary["n"], 4)
        self.assertEqual(summary["p50"], 4.0)
        self.assertEqual(summary["mean"], 5.0)
        empty = summarize([])
        self.assertEqual(empty["n"], 0)
        self.assertTrue(math.isnan(empty["p50"]))


class DueLatencyTest(unittest.TestCase):
    def test_latency_runs_from_due_not_send(self):
        # "b" was sent 30 ms late behind a stall: the stall is its latency.
        due = {"a": 1.0, "b": 1.01}
        arrived = {"a": 1.005, "b": 1.05}
        latency = due_latencies(due, arrived)
        self.assertAlmostEqual(latency["a"], 0.005)
        self.assertAlmostEqual(latency["b"], 0.04)

    def test_missing_arrivals_have_no_latency(self):
        latency = due_latencies({"a": 0.0, "b": 0.0}, {"a": 0.1})
        self.assertEqual(latency, {"a": 0.1})


class WindowTest(unittest.TestCase):
    def test_interpolate_and_clamp(self):
        samples = [(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)]
        self.assertEqual(interpolate(samples, -1.0), 0.0)
        self.assertAlmostEqual(interpolate(samples, 0.5), 1.0)
        self.assertAlmostEqual(interpolate(samples, 2.0), 2.5)
        self.assertEqual(interpolate(samples, 9.0), 3.0)

    def test_fixes_fall_in_the_window_of_their_due_time(self):
        fixes = [(0.1, 1.0, 0.5), (4.9, 2.0, 0.6), (5.0, 3.0, 0.7),
                 (9.99, 4.0, 0.8)]
        cpu = [(0.0, 0.0), (10.0, 4.0)]
        out = windows(fixes, cpu, 5.0, 10.0)
        self.assertEqual([w["fix"] for w in out], [[1.0, 2.0], [3.0, 4.0]])
        self.assertEqual(out[0]["ack"], [0.5, 0.6])
        self.assertAlmostEqual(out[0]["cpu_s"], 2.0)
        self.assertAlmostEqual(out[1]["cpu_s"], 2.0)

    def test_short_tail_joins_the_last_window(self):
        fixes = [(t / 10.0, 1.0, 1.0) for t in range(120)]  # 0 .. 11.9 s
        out = windows(fixes, [(0.0, 0.0), (12.0, 1.0)], 5.0, 12.0)
        self.assertEqual(len(out), 2)
        self.assertEqual((out[1]["t0"], out[1]["t1"]), (5.0, 12.0))
        self.assertEqual(sum(len(w["fix"]) for w in out), 120)


class FrameMatchTest(unittest.TestCase):
    @staticmethod
    def frame(kind, obj, seq, t, batch=None):
        out = {"type": kind, "object_id": obj, "stream_seq": seq, "t": t}
        if batch is not None:
            out["batch_id"] = batch
        return out

    def test_track_follows_its_position_per_object(self):
        frames = [
            self.frame("position", "o1", 1, 0.10, "b1"),
            self.frame("position", "o2", 1, 0.11, "b2"),
            self.frame("track", "o2", 2, 0.12),
            self.frame("track", "o1", 2, 0.13),
            self.frame("session-event", "o1", 3, 0.14),
            self.frame("position", "o1", 4, 0.20, "b3"),
            self.frame("track", "o1", 5, 0.21),
        ]
        counts, arrival = match_frames(frames)
        self.assertEqual(counts, {"b1": [1, 1], "b2": [1, 1], "b3": [1, 1]})
        self.assertEqual(arrival, {"b1": 0.13, "b2": 0.12, "b3": 0.21})

    def test_track_not_adjacent_to_a_position_is_unmatched(self):
        frames = [
            self.frame("position", "o1", 1, 0.1, "b1"),
            self.frame("session-event", "o1", 2, 0.2),
            self.frame("track", "o1", 3, 0.3),
        ]
        counts, arrival = match_frames(frames)
        self.assertEqual(counts["b1"], [1, 0])
        self.assertEqual(counts[None], [0, 1])
        self.assertEqual(arrival, {})

    def test_duplicates_are_counted(self):
        frames = [
            self.frame("position", "o1", 1, 0.1, "b1"),
            self.frame("track", "o1", 2, 0.2),
            self.frame("position", "o1", 1, 0.3, "b1"),
            self.frame("track", "o1", 2, 0.4),
        ]
        counts, arrival = match_frames(frames)
        self.assertEqual(counts["b1"], [2, 2])
        self.assertEqual(arrival["b1"], 0.2)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            span(1, "root", 0.0, 10.0),
            span(2, "child", 1.0, 3.0, parent=1),
            span(3, "child", 5.0, 2.0, parent=1),
            span(4, "grandchild", 1.5, 1.0, parent=2),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 5.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 2.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(1, "root", 0.0, 4.0),
            span(2, "a", 1.0, 2.0, parent=1),  # [1, 3]
            span(3, "b", 2.0, 4.0, parent=1),  # [2, 6] -> clipped to [2, 4]
        ]
        self.assertAlmostEqual(self_times(spans)[1], 1.0)

    def test_layer_split_and_unattributed(self):
        spans = [
            # fix "k1": request span whose self time is a wait, a solve
            # on another thread re-parented under it, and a ledger write
            # that queued 0.5 before starting.
            span(1, "gateway.request", 0.0, 6.0, query_id="k1"),
            span(2, "gateway.solve", 2.0, 4.0, parent=1, query_id="k1"),
            span(3, "lp.solve", 3.0, 2.0, parent=2),
            span(4, "ledger.record_batch", 7.0, 1.0, key="k1", wait_s=0.5),
            span(5, "wal.write", 7.2, 0.5, parent=4),
            # an unkeyed span and an unmapped root are left out
            span(6, "journal.flush", 9.0, 1.0),
            span(7, "mystery", 9.0, 1.0, key="k1"),
        ]
        layers = {
            "gateway.request": "bridge.wait",
            "gateway.solve": "cluster",
            "lp.solve": "lp",
            "ledger.record_batch": "ledger",
            "journal.flush": "journal",
        }
        split, total, first = layer_split(
            spans, layers, key_attrs=("key", "query_id")
        )
        self.assertEqual(set(split), {"k1"})
        row = split["k1"]
        self.assertAlmostEqual(row["bridge.wait"], 2.0)
        self.assertAlmostEqual(row["cluster"], 2.0)
        self.assertAlmostEqual(row["lp"], 2.0)
        # wal.write has no layer of its own: it counts to its parent's
        self.assertAlmostEqual(row["ledger"], 1.0)
        self.assertAlmostEqual(row["ledger.wait"], 0.5)
        self.assertAlmostEqual(total["k1"], 7.5)
        self.assertEqual(first, {"k1": 0.0})
        residual = unattributed({"k1": 10.0, "k2": 3.0}, total)
        self.assertEqual(len(residual), 1)
        self.assertAlmostEqual(residual[0], 2.5)

    def test_cycle_is_rejected(self):
        spans = [
            span(1, "a", 0.0, 1.0, parent=2),
            span(2, "b", 0.0, 1.0, parent=1),
        ]
        with self.assertRaises(ValueError):
            layer_split(spans, {})


if __name__ == "__main__":
    unittest.main()
