"""`LocalizationCluster`: a topology router over one service per shard.

Queries are consistent-hashed by topology key
(:func:`~repro.cluster.router.route_key`) onto shards, and each shard is
one :class:`~repro.serving.LocalizationService`, so every query for a
venue meets the same warm constraint caches.  A batch hands each run of
consecutive same-shard requests to that shard's
:meth:`~repro.serving.LocalizationService.batch` in one call, so their
relaxation LPs solve as stacked tableaux.

Routing only chooses *which* service computes, never *what* it
computes: cluster answers are **bit-identical** to one
:class:`~repro.serving.LocalizationService`, for any shard count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core import Anchor, LocalizerConfig, LocationEstimate
from ..geometry import Point, Polygon
from ..obs import aggregate, get_tracer, span
from ..serving import (
    LocalizationRequest,
    LocalizationResponse,
    LocalizationService,
    ServingConfig,
)
from ..serving.metrics import json_safe
from .metrics import ClusterMetrics, merge_service_snapshots
from .router import ShardRouter, route_key

__all__ = [
    "ClusterConfig",
    "ClusterResponse",
    "LocalizationCluster",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Operational knobs of a :class:`LocalizationCluster`.

    Attributes
    ----------
    num_shards:
        Number of shards (see :class:`~repro.cluster.router.ShardRouter`).
    serving:
        Per-shard :class:`~repro.serving.ServingConfig`; the default
        sequential config is the bit-exactness reference.
    latency_window:
        Size of the cluster-level latency reservoir.
    """

    num_shards: int = 1
    serving: ServingConfig = ServingConfig()
    latency_window: int = 2048

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")


@dataclass(frozen=True)
class ClusterResponse:
    """Outcome of one routed query: the shard's answer plus its shard.

    ``position`` is always present.  ``degraded`` and ``reason`` are the
    serving layer's (``"timeout"``/``"lp-failure"``, ``estimate is
    None``).
    """

    query_id: str
    position: Point
    estimate: LocationEstimate | None
    degraded: bool = False
    reason: str = ""
    shard: int = 0
    cache_hit: bool = False
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the full SP pipeline answered (not the fallback)."""
        return not self.degraded

    @property
    def confidence(self) -> float:
        """Measurement-layer confidence of the routed answer.

        Mirrors :attr:`repro.serving.LocalizationResponse.confidence`:
        the estimate's guard confidence, or 0.0 for a degraded fallback
        (``estimate is None``) — so the session layer and wire payloads
        read one field regardless of which serving tier answered.
        """
        return self.estimate.confidence if self.estimate is not None else 0.0

    def error_to(self, truth: Point) -> float:
        """Euclidean error of the served position against ground truth."""
        return self.position.distance_to(truth)


@dataclass(frozen=True)
class _Shard:
    """One shard: the service answering every key routed to it."""

    service: LocalizationService


class LocalizationCluster:
    """Topology-keyed routing of localization queries onto shards.

    Parameters
    ----------
    area:
        Default venue polygon (requests may override, multi-tenant).
    localizer_config:
        SP knobs shared by every shard.
    config:
        Operational :class:`ClusterConfig`.
    """

    def __init__(
        self,
        area: Polygon,
        localizer_config: LocalizerConfig | None = None,
        config: ClusterConfig | None = None,
    ) -> None:
        self.area = area
        self.localizer_config = localizer_config or LocalizerConfig()
        self.config = config or ClusterConfig()
        self.router = ShardRouter(self.config.num_shards)
        self.metrics = ClusterMetrics(self.config.latency_window)
        # Nested one-per-shard only because perfbench iterates shards[g][r].
        self.shards: list[list[_Shard]] = [
            [
                _Shard(
                    LocalizationService(
                        area, self.localizer_config, self.config.serving
                    )
                )
            ]
            for _ in range(self.config.num_shards)
        ]
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> dict:
        """Drain every shard's service; returns the final snapshot."""
        for (shard,) in self.shards:
            shard.service.drain(timeout_s)
        self._closed = True
        return self.metrics_snapshot()

    def close(self) -> None:
        """Drain and shut down every shard (idempotent)."""
        self.drain()

    def __enter__(self) -> "LocalizationCluster":
        """Context-manager entry: the cluster itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the cluster."""
        self.close()

    # ------------------------------------------------------------------
    # Query paths
    # ------------------------------------------------------------------
    def locate(
        self,
        anchors: Sequence[Anchor],
        query_id: str = "",
        area: Polygon | None = None,
        timeout_s: float | None = None,
    ) -> ClusterResponse:
        """Route and serve one query."""
        return self.locate_request(
            LocalizationRequest(
                tuple(anchors), query_id=query_id, area=area, timeout_s=timeout_s
            )
        )

    def locate_request(self, request: LocalizationRequest) -> ClusterResponse:
        """Route one already-built request (the network entry point).

        The request-preserving sibling of :meth:`locate`, mirroring
        :meth:`repro.serving.LocalizationService.locate_request`: callers
        that construct a :class:`~repro.serving.LocalizationRequest`
        themselves — the gateway's protocol decoder chief among them —
        route through here so optional fields (``gate``, per-request
        ``timeout_s``, ``area``) reach the shard's service.
        """
        self._check_open()
        shard_id = self._shard_of(request)
        with span("cluster.route", query_id=request.query_id, shard=shard_id):
            resp = self.shards[shard_id][0].service.locate_request(request)
        return self._finish(resp, shard_id)

    def batch(
        self, requests: Iterable[LocalizationRequest | Sequence[Anchor]]
    ) -> list[ClusterResponse]:
        """Serve a batch; responses in input order.

        Each run of consecutive requests that route to the same shard
        goes to that shard's
        :meth:`~repro.serving.LocalizationService.batch` in one call.
        """
        self._check_open()
        out: list[ClusterResponse] = []
        run: list[LocalizationRequest] = []
        run_shard = 0
        for request in requests:
            if not isinstance(request, LocalizationRequest):
                request = LocalizationRequest(tuple(request))
            shard_id = self._shard_of(request)
            if run and shard_id != run_shard:
                out.extend(self._serve_run(run_shard, run))
                run = []
            run_shard = shard_id
            run.append(request)
        if run:
            out.extend(self._serve_run(run_shard, run))
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Cluster counters + fleet roll-up + per-shard detail.

        Layout: cluster-level routing counters at the top; ``"shards"``
        the per-shard ServiceMetrics snapshots; ``"services"`` their
        summed fleet view; ``"spans"`` the per-stage span aggregates
        when tracing is enabled.
        """
        snap = self.metrics.snapshot()
        per_shard = {}
        for shard_id, (shard,) in enumerate(self.shards):
            ssnap = shard.service.metrics_snapshot()
            # The global span aggregate is reported once, cluster-wide.
            ssnap.pop("spans", None)
            per_shard[f"shard{shard_id}"] = ssnap
        snap["shards"] = per_shard
        snap["services"] = merge_service_snapshots(list(per_shard.values()))
        tracer = get_tracer()
        if tracer is not None:
            snap["spans"] = aggregate(tracer.finished())
        return snap

    def metrics_json(self) -> dict:
        """:meth:`metrics_snapshot` coerced to JSON-serializable form.

        Keys come back sorted — see
        :func:`repro.serving.metrics.json_safe`.  The gateway's
        ``/metrics`` endpoint serves this dict verbatim.
        """
        return json_safe(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("cluster is closed")

    def _shard_of(self, request: LocalizationRequest) -> int:
        area = request.area if request.area is not None else self.area
        return self.router.shard_for(route_key(area, self.localizer_config))

    def _serve_run(
        self, shard_id: int, run: list[LocalizationRequest]
    ) -> list[ClusterResponse]:
        """Serve one same-shard run through the shard's batch path."""
        with span("cluster.batch", shard=shard_id, size=len(run)):
            resps = self.shards[shard_id][0].service.batch(run)
        return [self._finish(resp, shard_id) for resp in resps]

    def _finish(
        self, resp: LocalizationResponse, shard_id: int
    ) -> ClusterResponse:
        """Wrap a shard's answer with its shard and record the query.

        The latency is the service's own per-request figure.
        """
        self.metrics.record_query(resp.latency_s, degraded=resp.degraded)
        return ClusterResponse(
            query_id=resp.query_id,
            position=resp.position,
            estimate=resp.estimate,
            degraded=resp.degraded,
            reason=resp.reason,
            shard=shard_id,
            cache_hit=resp.cache_hit,
            latency_s=resp.latency_s,
        )
