"""`LocalizationService`: the batched, cached serving façade.

Wraps :class:`~repro.core.NomLocLocalizer` the way a production NomLoc
backend would be deployed — a long-lived process answering a stream of
anchor-set queries — instead of the one-shot CLI path that rebuilds the
whole constraint system per call:

* one request handler serves every entry point: a list of N >= 1
  requests is grouped by venue topology and each group is solved in
  one stacked :meth:`~repro.core.NomLocLocalizer.locate_batch` pass (a
  single query is a batch of one);
* the topology-dependent constraint prefix (convex decomposition,
  boundary/virtual-AP rows) comes from an LRU
  :class:`~repro.serving.cache.LocalizerCache`, so only the
  PDP-dependent pairwise rows are rebuilt per query;
* ``max_workers=0`` serves inline on the calling thread; ``N >= 1``
  serves queued work on a
  :class:`~repro.serving.procpool.ProcessPool` — results are
  bit-identical either way;
* a bounded :class:`~repro.serving.queueing.AdmissionQueue` caps the
  queries in flight, a per-query deadline bounds tail latency,
  and LP failures or timeouts degrade gracefully to the
  PDP-weighted-centroid baseline with the degraded path flagged in the
  response;
* :class:`~repro.serving.metrics.ServiceMetrics` tracks latency
  percentiles, throughput, cache hit rates, queue depth and fallbacks.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core import Anchor, LocalizerConfig, LocationEstimate, NomLocLocalizer
from ..geometry import Point, Polygon
from ..obs import aggregate, get_tracer, span
from .cache import BisectorCache, LocalizerCache
from .metrics import ServiceMetrics, json_safe
from .queueing import AdmissionQueue

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from ..guard.policy import GateResult
    from .procpool import ProcessPool

__all__ = [
    "ServiceClosedError",
    "ServingConfig",
    "LocalizationRequest",
    "LocalizationResponse",
    "LocalizationService",
    "weighted_centroid",
]


class ServiceClosedError(RuntimeError):
    """Raised on submissions to a service that is draining or closed."""


def weighted_centroid(anchors: Sequence[Anchor]) -> Point:
    """PDP-weighted centroid of an anchor set (degradation estimator).

    The same estimator as the
    :class:`~repro.baselines.WeightedCentroidLocalizer` baseline
    (exponent 1): coarse, calibration-free, O(anchors).  The service's
    degraded path projects the result into its venue.
    """
    total = sum(a.pdp for a in anchors)
    if total <= 0:  # PDPs are validated positive; belt and braces
        total = float(len(anchors))
        return Point(
            sum(a.position.x for a in anchors) / total,
            sum(a.position.y for a in anchors) / total,
        )
    return Point(
        sum(a.pdp * a.position.x for a in anchors) / total,
        sum(a.pdp * a.position.y for a in anchors) / total,
    )


@dataclass(frozen=True)
class ServingConfig:
    """Operational knobs of a :class:`LocalizationService`.

    Attributes
    ----------
    max_workers:
        ``0`` (default) serves every query inline on the calling thread;
        ``N >= 1`` runs queued work (:meth:`~LocalizationService.batch`)
        on a :class:`~repro.serving.procpool.ProcessPool` of ``N``
        processes — real parallelism for the GIL-bound LP solves, with
        the warmed topology/bisector caches fork-inherited by every
        worker.  :meth:`~LocalizationService.locate` and
        :meth:`~LocalizationService.locate_request` always run inline.
        Results are bit-identical either way.
    lp_batch:
        Chunk size of queued work: up to this many consecutive queries
        are solved together in one stacked-LP pass
        (:meth:`~repro.core.NomLocLocalizer.locate_batch`), advancing N
        queries per NumPy pass instead of one.  ``0``/``1`` means chunks
        of one.  Each worker process solves whole chunks.
    queue_capacity:
        In-flight request bound; :meth:`~LocalizationService.batch`
        waits for a slot beyond it, and caps its chunks at it.
    timeout_s:
        Default per-query deadline (seconds), checked before and after
        the stacked solve; ``None`` disables it.  On expiry the query
        degrades to the weighted-centroid fallback.
    degrade_on_failure:
        Answer LP failures/timeouts with the flagged fallback estimate
        instead of propagating the exception.
    cache_topologies / max_cached_topologies:
        Reuse warmed localizers (decomposition + boundary rows) per
        (area, config) topology, LRU-bounded.
    cache_bisectors / max_cached_bisectors:
        Memoize the bisector pair table of each anchor geometry (the
        ordered positions and nomadic flags of a query's anchors); the
        bound counts geometries, not anchor pairs.
    latency_window:
        Size of the sliding latency reservoir behind the percentiles.
    """

    max_workers: int = 0
    lp_batch: int = 0
    queue_capacity: int = 64
    timeout_s: float | None = None
    degrade_on_failure: bool = True
    cache_topologies: bool = True
    max_cached_topologies: int = 8
    cache_bisectors: bool = True
    max_cached_bisectors: int = 4096
    latency_window: int = 2048

    def __post_init__(self) -> None:
        # Every knob is validated here, at construction, so a bad config
        # fails loudly instead of deep inside some later query.
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        if self.lp_batch < 0:
            raise ValueError("lp_batch must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.max_cached_topologies < 1:
            raise ValueError("max_cached_topologies must be positive")
        if self.max_cached_bisectors < 1:
            raise ValueError("max_cached_bisectors must be positive")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")


@dataclass(frozen=True)
class LocalizationRequest:
    """One serving query: an anchor set, optionally its own venue.

    Attributes
    ----------
    anchors:
        The measured anchor set (positions + PDPs), as produced by
        :meth:`repro.core.NomLocSystem.gather_anchors` or a recorded
        dataset.
    query_id:
        Caller-chosen correlation id echoed in the response.
    area:
        Venue override for multi-tenant serving; ``None`` uses the
        service default.
    timeout_s:
        Per-request deadline override (``None`` inherits the service's).
    gate:
        Optional measurement-gating outcome
        (:class:`repro.guard.GateResult`) from the guard layer.  When
        present, its quality weights scale the relaxation LP's rows,
        its per-link rulings feed the ``degraded_links_total`` /
        ``rejected_links_total`` service counters, and the served
        estimate carries its ``confidence`` and reasons.  ``None`` (the
        default) serves exactly the historical ungated pipeline.
    """

    anchors: tuple[Anchor, ...]
    query_id: str = ""
    area: Polygon | None = None
    timeout_s: float | None = None
    gate: "GateResult | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if not self.anchors:
            raise ValueError("a localization request needs at least one anchor")


@dataclass(frozen=True)
class LocalizationResponse:
    """Outcome of one serving query.

    ``position`` is always present; ``estimate`` carries the full SP
    diagnostics and is ``None`` exactly when the query ``degraded`` to
    the weighted-centroid fallback (``reason`` says why: ``"timeout"``
    or ``"lp-failure"``).
    """

    query_id: str
    position: Point
    estimate: LocationEstimate | None
    degraded: bool = False
    reason: str = ""
    cache_hit: bool = False
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the full SP pipeline answered (not the fallback)."""
        return not self.degraded

    @property
    def confidence(self) -> float:
        """Measurement-layer confidence of the served answer.

        The estimate's guard confidence (1.0 on the ungated path), or
        0.0 for degraded fallback answers — a weighted-centroid guess
        deserves no measurement-layer trust.  This is the value
        downstream consumers (the session layer's confidence-to-noise
        mapping, wire payloads) read; before it existed, the gate's
        confidence died here (ROADMAP item 2's "dropped on the floor").
        """
        return self.estimate.confidence if self.estimate is not None else 0.0

    def error_to(self, truth: Point) -> float:
        """Euclidean error of the served position against ground truth."""
        return self.position.distance_to(truth)


class LocalizationService:
    """Long-lived serving façade over the NomLoc SP pipeline.

    Parameters
    ----------
    area:
        Default venue polygon for requests that don't carry their own.
    localizer_config:
        SP knobs shared by every served query.
    config:
        Operational :class:`ServingConfig`.

    Bit-exactness contract: for any request, the served ``position`` and
    ``estimate`` equal what a fresh
    ``NomLocLocalizer(area, localizer_config).locate(anchors)`` returns —
    caching, stacking and worker processes only reorder/ reuse
    deterministic work, they never change it.  The degraded fallback is
    the only exception and is always flagged.
    """

    def __init__(
        self,
        area: Polygon,
        localizer_config: LocalizerConfig | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        self.area = area
        self.localizer_config = localizer_config or LocalizerConfig()
        self.config = config or ServingConfig()
        self.metrics = ServiceMetrics(self.config.latency_window)
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.proc_pool: "ProcessPool | None" = None
        if self.config.max_workers >= 1:
            from .procpool import ProcessPool

            self.proc_pool = ProcessPool(
                area,
                self.localizer_config,
                self.config,
                self.config.max_workers,
            )
        self.topology_cache = (
            LocalizerCache(self.config.max_cached_topologies)
            if self.config.cache_topologies
            else None
        )
        self.bisector_cache = (
            BisectorCache(self.config.max_cached_bisectors)
            if self.config.cache_bisectors
            else None
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`drain`/:meth:`close` stopped admissions."""
        return self._closed

    def drain(self, timeout_s: float | None = None) -> dict:
        """Graceful shutdown: stop admissions, finish in-flight, flush.

        The clean shutdown path: new submissions raise
        :class:`ServiceClosedError` immediately, every already-admitted
        query runs to completion, and the final metrics snapshot is
        returned before the worker processes are torn down.  Idempotent
        — a second call just re-snapshots.

        Raises
        ------
        TimeoutError
            When in-flight queries are still running after ``timeout_s``
            seconds (``None`` waits indefinitely); admissions stay
            stopped and the workers are left running so the caller can
            retry.
        """
        self._closed = True
        if not self.queue.wait_idle(timeout_s):
            raise TimeoutError(
                f"{self.queue.depth} queries still in flight "
                f"after {timeout_s}s drain"
            )
        snapshot = self.metrics_snapshot()
        if self.proc_pool is not None:
            self.proc_pool.shutdown()
        return snapshot

    def close(self) -> None:
        """Drain and shut down the worker processes (idempotent)."""
        self.drain()

    def __enter__(self) -> "LocalizationService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the service."""
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
        gate: "GateResult | None" = None,
    ) -> LocalizationResponse:
        """Serve one query synchronously on the caller's thread.

        ``gate`` optionally carries the guard layer's verdicts (see
        :class:`LocalizationRequest`).
        """
        request = LocalizationRequest(
            tuple(anchors),
            query_id=query_id,
            area=area,
            timeout_s=timeout_s,
            gate=gate,
        )
        return self._serve([request])[0]

    def locate_request(
        self, request: LocalizationRequest
    ) -> LocalizationResponse:
        """Serve one already-built request synchronously.

        The request-preserving sibling of :meth:`locate` — callers that
        construct a :class:`LocalizationRequest` (the cluster's shards,
        gated pipelines) route through here so optional fields like
        ``gate`` survive the hop.
        """
        return self._serve([request])[0]

    def batch(
        self, requests: Iterable[LocalizationRequest | Sequence[Anchor]]
    ) -> list[LocalizationResponse]:
        """Serve a batch, blocking for admission; responses in input order.

        A full queue *waits* for a slot — a batch caller wants all
        answers.  Consecutive requests are grouped into chunks of
        :attr:`ServingConfig.lp_batch` (capped at the queue capacity, so
        a chunk can always be admitted whole), each solved through one
        stacked-LP pass — positions stay bit-identical to per-request
        serving.
        """
        size = min(max(1, self.config.lp_batch), self.config.queue_capacity)
        futures = []
        chunk: list[LocalizationRequest] = []
        for request in requests:
            chunk.append(self._admit(request))
            if len(chunk) == size:
                futures.append(self._dispatch(chunk, time.perf_counter()))
                chunk = []
        if chunk:
            futures.append(self._dispatch(chunk, time.perf_counter()))
        return [response for f in futures for response in f.result()]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Plain-dict service state: latency, throughput, caches, queue.

        When tracing is enabled (:func:`repro.obs.enable` /
        :func:`repro.obs.capture`), the snapshot additionally carries a
        ``"spans"`` key with the per-stage latency aggregates of every
        span finished so far — the serving metrics and the pipeline
        stage breakdown read as one observable state.
        """
        snap = self.metrics.snapshot(queue_depth=self.queue.depth)
        tracer = get_tracer()
        if tracer is not None:
            snap["spans"] = aggregate(tracer.finished())
        if self.topology_cache is not None:
            stats = self.topology_cache.stats()
            snap["topology_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        if self.bisector_cache is not None:
            stats = self.bisector_cache.stats()
            snap["bisector_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        return snap

    def metrics_json(self) -> dict:
        """:meth:`metrics_snapshot` coerced to JSON-serializable form.

        Sorted keys, enum values collapsed, non-finite floats nulled —
        see :func:`repro.serving.metrics.json_safe`.  This is what
        network exporters (the gateway ``/metrics`` endpoint) serve
        directly, without any per-caller conversion shims.
        """
        return json_safe(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        """Refuse admissions once the service is draining/closed."""
        if self._closed:
            raise ServiceClosedError("service is draining; admissions stopped")

    def _coerce(
        self, request: LocalizationRequest | Sequence[Anchor]
    ) -> LocalizationRequest:
        """Accept bare anchor sequences anywhere a request is expected."""
        if isinstance(request, LocalizationRequest):
            return request
        return LocalizationRequest(tuple(request))

    def _admit(
        self, request: LocalizationRequest | Sequence[Anchor]
    ) -> LocalizationRequest:
        """Take an admission slot for one request, waiting for one."""
        self._check_open()
        request = self._coerce(request)
        self.queue.acquire()
        self.metrics.record_admitted()
        return request

    def _localizer_for(self, area: Polygon) -> tuple[NomLocLocalizer, bool]:
        """``(localizer, cache_hit)`` for one venue topology."""
        if self.topology_cache is not None:
            return self.topology_cache.get(area, self.localizer_config)
        return NomLocLocalizer(area, self.localizer_config).warm(), False

    def _dispatch(
        self, chunk: list[LocalizationRequest], admitted_at: float
    ) -> Future:
        """Serve one admitted chunk inline or on a worker process.

        The returned future resolves to the chunk's responses.
        ``admitted_at`` is the admission timestamp; the gap to the start
        of the solve is the queue wait, the load component of latency,
        reported separately from compute.  Admission slots are freed
        when the chunk completes.
        """
        if self.proc_pool is not None:
            return self._wrap_process_future(
                self.proc_pool.submit_chunk(chunk), chunk, admitted_at
            )
        future: Future = Future()
        queue_wait_s = max(0.0, time.perf_counter() - admitted_at)
        try:
            for _ in chunk:
                self.metrics.record_queue_wait(queue_wait_s)
            responses = self._serve(chunk, queue_wait_s)
            future.set_result(responses)
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        finally:
            for _ in chunk:
                self.queue.release()
        return future

    def _wrap_process_future(
        self,
        raw: Future,
        requests: list[LocalizationRequest],
        admitted_at: float,
    ) -> Future:
        """Account for process-worker results on the parent side.

        Worker processes record metrics into *their own* (discarded)
        service instance, so the parent re-records each response's
        observable outcome — queue wait, cache hit, completion, gating —
        into its metrics, then frees the admission slots.  The returned
        future resolves like :meth:`_dispatch`'s.
        """
        wrapped: Future = Future()

        def _done(f) -> None:
            try:
                responses = f.result()
            except BaseException as exc:  # noqa: BLE001 — future carries it
                for _ in requests:
                    self.queue.release()
                wrapped.set_exception(exc)
                return
            round_trip_s = max(0.0, time.perf_counter() - admitted_at)
            try:
                for request, response in zip(requests, responses):
                    # Queue wait = round trip minus the worker's compute
                    # time; transport (pickling) counts as wait, which is
                    # honest — it is serving overhead, not solving.
                    self.metrics.record_queue_wait(
                        max(0.0, round_trip_s - response.latency_s)
                    )
                    self.metrics.record_cache(response.cache_hit)
                    if request.gate is not None:
                        self.metrics.record_gating(
                            len(request.gate.degraded),
                            len(request.gate.rejected),
                        )
                    self.metrics.record_completed(
                        response.latency_s,
                        degraded=response.degraded,
                        timed_out=response.reason == "timeout",
                        lp_failed=response.reason == "lp-failure",
                    )
            finally:
                for _ in requests:
                    self.queue.release()
            wrapped.set_result(responses)

        raw.add_done_callback(_done)
        return wrapped

    def _serve(
        self,
        requests: Sequence[LocalizationRequest],
        queue_wait_s: float = 0.0,
    ) -> list[LocalizationResponse]:
        """The request handler: N >= 1 requests through the stacked solver.

        Requests are grouped by venue topology and each group is solved
        in one :meth:`~repro.core.NomLocLocalizer.locate_batch` pass.
        Each request's deadline is checked before and after that pass —
        there is no check between pieces — and an expired one degrades
        with reason ``"timeout"``; an LP failure degrades only the
        failing request (``"lp-failure"``).  With ``degrade_on_failure``
        off, both raise instead.  Every request in the call completes
        when the call does, so the call's wall time is each one's
        latency.
        """
        with span("serve.query", queries=len(requests)) as sp:
            started = time.perf_counter()
            localizers: list[NomLocLocalizer] = []
            cache_hits: list[bool] = []
            groups: dict[int, list[int]] = {}
            for i, request in enumerate(requests):
                area = request.area if request.area is not None else self.area
                localizer, cache_hit = self._localizer_for(area)
                self.metrics.record_cache(cache_hit)
                if request.gate is not None:
                    self.metrics.record_gating(
                        len(request.gate.degraded), len(request.gate.rejected)
                    )
                localizers.append(localizer)
                cache_hits.append(cache_hit)
                groups.setdefault(id(localizer), []).append(i)
            estimates: list[LocationEstimate | None] = [None] * len(requests)
            reasons = [""] * len(requests)

            def expired(i: int) -> bool:
                request = requests[i]
                timeout = (
                    request.timeout_s
                    if request.timeout_s is not None
                    else self.config.timeout_s
                )
                if timeout is None or time.perf_counter() <= started + timeout:
                    return False
                if not self.config.degrade_on_failure:
                    raise TimeoutError(
                        f"query {request.query_id!r} exceeded {timeout}s"
                    )
                reasons[i] = "timeout"
                return True

            for members in groups.values():
                live = [i for i in members if not expired(i)]
                if not live:
                    continue
                solved = self._solve_group(
                    localizers[live[0]], [requests[i] for i in live]
                )
                for i, estimate in zip(live, solved):
                    if estimate is None:
                        reasons[i] = "lp-failure"
                    elif not expired(i):
                        estimates[i] = estimate
            latency = time.perf_counter() - started
            responses = []
            for i, request in enumerate(requests):
                estimate = estimates[i]
                if estimate is None:
                    position = localizers[i].project_into_area(
                        weighted_centroid(request.anchors)
                    )
                else:
                    if request.gate is not None:
                        estimate = replace(
                            estimate,
                            confidence=request.gate.confidence,
                            degradation_reasons=request.gate.reasons,
                        )
                    position = estimate.position
                self.metrics.record_completed(
                    latency,
                    degraded=estimate is None,
                    timed_out=reasons[i] == "timeout",
                    lp_failed=reasons[i] == "lp-failure",
                )
                responses.append(
                    LocalizationResponse(
                        query_id=request.query_id,
                        position=position,
                        estimate=estimate,
                        degraded=estimate is None,
                        reason=reasons[i],
                        cache_hit=cache_hits[i],
                        latency_s=latency,
                    )
                )
            # The queue-wait vs compute split: ``queue_wait_s`` is load
            # (time spent admitted but unpicked), ``compute_s`` is work.
            sp.set(
                queue_wait_s=queue_wait_s,
                compute_s=latency,
                cache_hit=all(cache_hits),
                degraded=any(r.degraded for r in responses),
            )
            return responses

    def _solve_group(
        self, localizer: NomLocLocalizer, group: list[LocalizationRequest]
    ) -> list[LocationEstimate | None]:
        """One topology group's stacked solve; ``None`` marks an LP failure.

        A stacked pass that raises is re-solved one member at a time, so
        a poisoned query degrades only itself.
        """
        try:
            return localizer.locate_batch(
                [request.anchors for request in group],
                quality_weights=[
                    request.gate.quality_weights
                    if request.gate is not None
                    else None
                    for request in group
                ],
                bisector_cache=self.bisector_cache,
            )
        except (RuntimeError, ArithmeticError):
            if len(group) > 1:
                return [
                    estimate
                    for request in group
                    for estimate in self._solve_group(localizer, [request])
                ]
            # The relaxation LP "should not" fail (it is always
            # feasible) but solver pathologies happen under load; a
            # flagged coarse answer beats a 500.
            if not self.config.degrade_on_failure:
                raise
            return [None]
