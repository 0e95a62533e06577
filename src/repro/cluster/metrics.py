"""Cluster-level metrics: routing counters + fleet-wide aggregation.

Two layers of observability meet here.  The cluster's own counters
(routed and degraded queries) live in :class:`ClusterMetrics` with a
latency reservoir reused from the serving layer.  Per-shard
:class:`~repro.serving.metrics.ServiceMetrics` snapshots are merged by
:func:`merge_service_snapshots` into one fleet view — summed counters,
worst-case queue depth — so "how loaded is the cluster" is one dict, not
one per shard.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Sequence

from ..serving.metrics import LatencyReservoir, json_safe

__all__ = ["ClusterMetrics", "merge_service_snapshots"]

#: ServiceMetrics counters that sum meaningfully across a fleet.
_SUMMED_KEYS = (
    "admitted",
    "rejected",
    "completed",
    "degraded",
    "timeouts",
    "lp_failures",
    "cache_hits",
    "cache_misses",
    "queue_rejected_total",
    "degraded_links_total",
    "rejected_links_total",
)


class ClusterMetrics:
    """Thread-safe counters + latency reservoir for one cluster.

    :class:`~repro.cluster.cluster.LocalizationCluster` calls
    :meth:`record_query` once per routed query.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyReservoir(latency_window)
        self._started = time.perf_counter()
        self.routed = 0
        self.degraded = 0

    def record_query(self, latency_s: float, *, degraded: bool = False) -> None:
        """One routed query finished."""
        with self._lock:
            self.routed += 1
            self._latencies.observe(latency_s)
            if degraded:
                self.degraded += 1

    def snapshot(self) -> dict:
        """Point-in-time cluster counters as a plain dict."""
        with self._lock:
            elapsed = time.perf_counter() - self._started
            snap = {
                "uptime_s": elapsed,
                "routed": self.routed,
                "degraded": self.degraded,
                "throughput_qps": self.routed / elapsed if elapsed > 0 else 0.0,
                "latency_mean_s": self._latencies.mean(),
            }
            snap.update(
                {
                    f"latency_{k}_s": v
                    for k, v in self._latencies.quantiles().items()
                }
            )
            return snap

    def to_json(self) -> dict:
        """:meth:`snapshot` as a JSON-serializable dict with sorted keys.

        Same contract as
        :meth:`repro.serving.metrics.ServiceMetrics.to_json` — the form
        the gateway's ``/metrics`` endpoint ships on the wire.
        """
        return json_safe(self.snapshot())


def merge_service_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """Fleet-wide roll-up of per-shard ServiceMetrics snapshots.

    Counters sum; ``queue_depth`` takes the worst shard; cache hit rate
    is recomputed from the summed lookups.
    """
    merged: dict = {key: 0 for key in _SUMMED_KEYS}
    merged["queue_depth"] = 0
    for snap in snapshots:
        for key in _SUMMED_KEYS:
            merged[key] += int(snap.get(key, 0))
        merged["queue_depth"] = max(
            merged["queue_depth"], int(snap.get("queue_depth", 0))
        )
    lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = (
        merged["cache_hits"] / lookups if lookups else 0.0
    )
    merged["shard_count"] = len(snapshots)
    return merged
