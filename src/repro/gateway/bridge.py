"""The async/sync boundary: coalesced solves and group-committed writes.

The gateway's event loop must never block on an LP or an fsync — the
solver (:class:`repro.cluster.LocalizationCluster` /
:class:`repro.serving.LocalizationService`) is synchronous and
CPU-bound, and a durable ledger commit waits for the disk.  So both hop
off the loop, each onto a thread of its own, and both batch the same
way: **whatever is submitted while the thread is busy goes together as
its next call**.  There is no timer window — a lone request starts at
once, and a burst fills the next call while the current one runs.

* **Solves.**  Requests queued behind a running solve are handed to
  ``target.batch`` as one chunk of at most ``max_chunk`` (the serving
  layer's ``lp_batch``), so they reach the stacked ``locate_batch``
  together.  A chunk of one goes through ``target.locate_request``.  If
  a chunk raises, each of its requests is re-solved alone, so an error
  stays with the request that caused it.
* **Writes.**  Ledger mutations queued behind a running commit share one
  :meth:`~repro.durable.WalDatabase.write_group` transaction — one
  fsync per group, a ``SAVEPOINT`` per item.  A write's awaiter resumes
  only after the commit that covers its row has returned, so an ack sent
  after ``await bridge.write(...)`` is backed by the disk.  The writer
  thread never waits behind a solve.

Admission is bounded where requests enter: each connection keeps at
most ``max_inflight`` pipelined requests outstanding (see
:mod:`repro.gateway.server`), so a flood backs up in the socket buffers
rather than in these queues.

Observability crosses the boundary with spans recorded after the fact
(:meth:`repro.obs.Tracer.record`), since a span cannot stay open across
awaits on the loop thread:

* one ``gateway.solve`` span per chunk (attribute ``size``) on the
  solver thread, with the solver's own spans nested under it;
* one ``gateway.request`` span per request, from the moment it was
  queued until its awaiter resumed with the answer; the chunk's
  ``gateway.solve`` tree is re-parented under the *first* request of
  the chunk, so the others' ``gateway.request`` self time is the time
  they waited — behind earlier chunks and inside their own;
* one span per write, named by the caller (``ledger.record_batch``,
  ``ledger.record_estimate``) and keyed by its ``batch_id``, from the
  start of its group's transaction until its awaiter resumed after the
  commit, with ``wait_s`` the time it queued before its group started.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable

from ..durable import WalDatabase
from ..obs import get_tracer, span
from ..serving import LocalizationRequest

__all__ = ["SolverBridge"]


class _Coalescer:
    """One worker thread fed from the event loop in batches.

    ``handler(payloads)`` runs on the thread with the payloads taken
    from the queue (at most ``cap`` of them) and returns one outcome per
    payload — a result, or an exception instance for that payload
    alone.  While it runs, new submissions queue up and become the next
    call.  Only the event loop touches the queue, so it needs no lock.
    """

    def __init__(self, handler: Callable, cap: int | None, name: str) -> None:
        self._handler = handler
        self._cap = cap
        self.pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
        self._queue: list = []
        self._running = 0

    @property
    def pending(self) -> int:
        """Payloads queued or in the running call."""
        return len(self._queue) + self._running

    def submit(self, payload) -> asyncio.Future:
        """Queue one payload; the future resolves to its outcome."""
        future = asyncio.get_running_loop().create_future()
        self._queue.append((payload, future))
        if not self._running:
            self._next()
        return future

    def _next(self) -> None:
        taken = self._queue[: self._cap]
        del self._queue[: self._cap]
        self._running = len(taken)
        call = asyncio.get_running_loop().run_in_executor(
            self.pool, self._handler, [payload for payload, _ in taken]
        )
        call.add_done_callback(functools.partial(self._finished, taken))

    def _finished(self, taken: list, call: asyncio.Future) -> None:
        self._running = 0
        if self._queue:
            self._next()
        error = call.exception()
        outcomes = [error] * len(taken) if error is not None else call.result()
        for (_, future), outcome in zip(taken, outcomes):
            if future.done():  # the awaiter was cancelled
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)


class SolverBridge:
    """Coalescing bridge from coroutines into a sync solver and ledger.

    Parameters
    ----------
    target:
        Anything with ``locate_request(LocalizationRequest)`` and
        ``batch(requests)`` methods — a cluster or a bare service.
    ledger:
        The :class:`~repro.durable.WalDatabase` that :meth:`write`
        group-commits into (optional for solve-only use).
    max_chunk:
        Most requests handed to one ``target.batch`` call.
    """

    def __init__(
        self, target, ledger: WalDatabase | None = None, max_chunk: int = 1
    ):
        if max_chunk < 1:
            raise ValueError("max_chunk must be at least 1")
        self.target = target
        self.ledger = ledger
        self._solver = _Coalescer(self._solve_chunk, max_chunk, "repro-gateway-solve")
        self._writer = _Coalescer(self._commit_group, None, "repro-gateway-ledger")
        self._closed = False

    @property
    def inflight(self) -> int:
        """Requests queued for, or inside, the solver."""
        return self._solver.pending

    # ------------------------------------------------------------------
    # Solves
    # ------------------------------------------------------------------
    def _solve_chunk(self, requests: list) -> list:
        """Solver-thread body: one chunk under one ``gateway.solve`` span.

        Outcomes are ``(response, span_id)`` pairs; only the first
        request of the chunk carries the span id (see the module
        docstring), the others ``None``.
        """
        sp = span("gateway.solve", size=len(requests))
        with sp:
            if len(requests) == 1:
                outcomes = [self._solve_one(requests[0])]
            else:
                try:
                    outcomes = self.target.batch(requests)
                except Exception:
                    outcomes = [self._solve_one(r) for r in requests]
        span_id = getattr(sp, "span_id", None)
        return [
            outcome if isinstance(outcome, BaseException)
            else (outcome, span_id if i == 0 else None)
            for i, outcome in enumerate(outcomes)
        ]

    def _solve_one(self, request: LocalizationRequest):
        try:
            return self.target.locate_request(request)
        except Exception as exc:
            return exc

    def locate(self, request: LocalizationRequest) -> Awaitable:
        """Queue one request for the solver now; await the result for
        its response.

        The request joins the solver queue at the call, not when the
        result is first awaited, so a caller may queue it and hand the
        awaiting to a background task.  Once queued, the solve runs to
        completion whether or not anyone awaits it.
        """
        if self._closed:
            raise RuntimeError("solver bridge is closed")
        return self._answer(request, time.perf_counter(), self._solver.submit(request))

    async def _answer(
        self, request: LocalizationRequest, started: float, solved: asyncio.Future
    ):
        response, solve_span_id = await solved
        tracer = get_tracer()
        if tracer is not None:
            sp = tracer.record(
                "gateway.request",
                started,
                time.perf_counter() - started,
                query_id=request.query_id,
                anchors=len(request.anchors),
            )
            if solve_span_id is not None:
                tracer.reparent([solve_span_id], sp.span_id)
        return response

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _commit_group(self, txns: list) -> list:
        """Writer-thread body: every queued write in one transaction.

        Outcomes are ``(result, group start)`` pairs, or the exception
        of an item that rolled back alone.
        """
        started = time.perf_counter()
        return [
            outcome if isinstance(outcome, BaseException) else (outcome, started)
            for outcome in self.ledger.write_group(txns)
        ]

    async def write(self, txn: Callable, name: str, key: str):
        """Group-commit one ledger mutation; returns its result.

        ``txn`` is a function of the connection (see
        :meth:`repro.gateway.MeasurementLedger.batch_txn`); ``name`` and
        ``key`` label its span.  Returns once the commit covering it has
        returned; raises what ``txn`` raised, with the rest of its
        group unaffected.
        """
        if self._closed:
            raise RuntimeError("solver bridge is closed")
        submitted = time.perf_counter()
        result, started = await self._writer.submit(txn)
        tracer = get_tracer()
        if tracer is not None:
            tracer.record(
                name,
                started,
                time.perf_counter() - started,
                key=key,
                wait_s=started - submitted,
            )
        return result

    async def run(self, fn, *args):
        """Run any blocking callable on the solver thread, after the
        chunk in flight."""
        if self._closed:
            raise RuntimeError("solver bridge is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._solver.pool, fn, *args)

    def shutdown(self) -> None:
        """Stop accepting and join both threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._solver.pool.shutdown(wait=True)
        self._writer.pool.shutdown(wait=True)
