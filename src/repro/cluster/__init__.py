"""Cluster layer: topology-keyed routing of queries onto shards.

A :class:`LocalizationCluster` routes each query by its topology key
(:func:`route_key`, the serving cache's identity) through a
deterministic consistent-hash :class:`ShardRouter` to one
:class:`~repro.serving.LocalizationService` per shard, so each venue's
queries keep one shard's constraint caches hot, and hands each run of
same-shard requests to that service's batch path.  Routing chooses
*which* service computes, never *what*: answers are **bit-identical**
to one sequential service for any shard count (see DESIGN.md, "Cluster
architecture").
"""

from .cluster import ClusterConfig, ClusterResponse, LocalizationCluster
from .metrics import ClusterMetrics, merge_service_snapshots
from .router import ShardRouter, route_key, stable_hash

__all__ = [
    "ClusterConfig",
    "ClusterMetrics",
    "ClusterResponse",
    "LocalizationCluster",
    "merge_service_snapshots",
    "route_key",
    "ShardRouter",
    "stable_hash",
]
