"""The benchmark's server process: the served fix path, nothing else.

Runs one :class:`repro.gateway.GatewayServer` (durable WAL ledger,
1x1 cluster, serving, solver) with a durable
:class:`repro.sessions.SessionManager` (zone map, geofence, journal)
behind it, exactly as a deployment would wire them, and prints
``listening <port>`` once it accepts connections.  SIGTERM, or the end
of its standard input (the benchmark exiting), drains it.

With ``--trace 1`` it also installs the ``repro.obs`` tracer and adds
spans around the public calls of layers that emit none of their own —
``MeasurementLedger.record_*``, ``WalDatabase.write``,
``SessionManager.ingest``/``evict_idle``, ``SessionStore``'s journal
calls and the protocol codec — plus an event-loop lag probe.  Every
span carries the ``key`` (batch or query id) of the fix it served.
Spans stay in memory and are written to ``spans.jsonl`` in ``--dir``
at exit, with counters in ``report.json``.  Nothing under ``src/`` is
modified: the probes wrap from the outside.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/server.py --venue lab --dir DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

#: Event-loop lag probe period.
LAG_PROBE_S = 0.005


def build_server(venue: str, work_dir: Path):
    """The gateway + durable session stack for one venue."""
    from inputs import scenario_for
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.sessions import (
        GeofenceRule,
        SessionManager,
        SessionStore,
        ZoneMap,
    )

    scenario = scenario_for(venue)
    zones = ZoneMap.grid(scenario.plan.boundary, 3, 3)
    sessions = SessionManager(
        zones,
        rules=(GeofenceRule(zone=zones.names()[-1], forbidden=True),),
        store=SessionStore(work_dir / "sessions.db"),
    )
    server = GatewayServer(
        scenario.plan.boundary,
        config=GatewayConfig(port=0, db_path=str(work_dir / "gateway.db")),
        sessions=sessions,
    )
    return server, sessions


class Probes:
    """Span wrappers around the layers that emit no spans themselves."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (ledger method, batch id) -> time its bridge.run was called.
        self._submitted: dict[tuple[str, str], float] = {}
        #: object id -> batch id of the fix its session last ingested.
        self._last_key: dict[str, str] = {}
        #: batch id of the fix the session layer is currently handling.
        self._feeding: str | None = None
        #: id(frame dict) -> batch id, for the WebSocket encode span.
        self._frame_keys: dict[int, str] = {}
        self.cluster_calls = 0
        self.cluster_requests = 0
        self.lag_s: list[float] = []

    def install(self) -> None:
        from repro.cluster import LocalizationCluster
        from repro.durable import WalDatabase
        from repro.gateway import MeasurementLedger, SolverBridge, protocol
        from repro.gateway.http import HttpRequest
        from repro.obs import Tracer, span
        from repro.sessions import SessionManager, SessionStore

        probes = self

        # -- tracer: the span being re-homed has just finished ----------
        # Tracer.reparent scans every finished span under the tracer
        # lock, once per solve, so over a run its cost grows with the
        # square of the span count and lands on the event loop (as
        # unattributed time).  The bridge and the cluster re-home a span
        # right after it finishes, so searching from the newest end finds
        # it at once; the result is the same.
        def reparent(self, span_ids, parent_id):
            wanted = set(span_ids)
            moved = 0
            with self._lock:
                for sp in reversed(self._finished):
                    if moved == len(wanted):
                        break
                    if sp.span_id in wanted:
                        sp.parent_id = parent_id
                        moved += 1
            return moved

        Tracer.reparent = reparent

        # -- bridge: when each ledger call was handed to the executor ----
        run = SolverBridge.run

        async def bridge_run(self, fn, *args):
            target = fn.func if isinstance(fn, functools.partial) else fn
            call_args = fn.args if isinstance(fn, functools.partial) else args
            name = getattr(target, "__name__", "")
            if name.startswith("record_") and call_args:
                with probes._lock:
                    probes._submitted[(name, call_args[0])] = (
                        time.perf_counter()
                    )
            return await run(self, fn, *args)

        SolverBridge.run = bridge_run

        # -- gateway store: each ledger write, with its executor wait ----
        def ledger(method):
            original = getattr(MeasurementLedger, method)

            @functools.wraps(original)
            def wrapper(self, batch_id, *args, **kwargs):
                with probes._lock:
                    submitted = probes._submitted.pop((method, batch_id), None)
                with span(f"ledger.{method}", key=batch_id) as sp:
                    if submitted is not None:
                        sp.set(wait_s=sp.start_s - submitted)
                    return original(self, batch_id, *args, **kwargs)

            setattr(MeasurementLedger, method, wrapper)

        ledger("record_batch")
        ledger("record_estimate")

        def plain(owner, method, name):
            original = getattr(owner, method)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)

            setattr(owner, method, wrapper)

        plain(WalDatabase, "write", "wal.write")
        plain(SessionStore, "append_journal", "journal.append")
        plain(SessionStore, "flush", "journal.flush")
        plain(SessionStore, "save_snapshot", "journal.snapshot")

        # -- sessions: keyed by the batch the fix came from ---------------
        ingest = SessionManager.ingest

        @functools.wraps(ingest)
        def sessions_ingest(self, object_id, t_s, response):
            key = response.query_id
            probes._last_key[object_id] = key
            probes._feeding = key
            with span("sessions.ingest", key=key):
                return ingest(self, object_id, t_s, response)

        SessionManager.ingest = sessions_ingest

        evict = SessionManager.evict_idle

        @functools.wraps(evict)
        def sessions_evict(self, now_s):
            with span("sessions.evict_idle", key=probes._feeding):
                return evict(self, now_s)

        SessionManager.evict_idle = sessions_evict

        # -- cluster: requests per solver call (coalescing witness) -------
        def count_call(size: int) -> None:
            with probes._lock:
                probes.cluster_calls += 1
                probes.cluster_requests += size

        locate_request = LocalizationCluster.locate_request

        @functools.wraps(locate_request)
        def cluster_locate_request(self, request):
            count_call(1)
            return locate_request(self, request)

        LocalizationCluster.locate_request = cluster_locate_request

        batch = LocalizationCluster.batch

        @functools.wraps(batch)
        def cluster_batch(self, requests):
            requests = list(requests)
            count_call(len(requests))
            return batch(self, requests)

        LocalizationCluster.batch = cluster_batch

        # -- protocol codec ------------------------------------------------
        body_json = HttpRequest.json

        @functools.wraps(body_json)
        def request_json(self):
            with span("protocol.decode") as sp:
                payload = body_json(self)
                sp.set(key=payload.get("batch_id") or payload.get("query_id"))
                return payload

        HttpRequest.json = request_json

        def codec(name, span_name, key_of, frame=False):
            original = getattr(protocol, name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                key = key_of(*args)
                with span(span_name, key=key):
                    result = original(*args, **kwargs)
                if frame and key is not None:
                    probes._frame_keys[id(result)] = key
                return result

            setattr(protocol, name, wrapper)

        decode, encode = "protocol.decode", "protocol.encode"
        codec("decode_measurement_batch", decode, lambda p: p.get("batch_id"))
        codec("decode_locate", decode, lambda p, *a: p.get("query_id"))
        codec("response_to_dict", encode, lambda r: r.query_id)
        codec("position_event", encode, lambda o, b, w: b, frame=True)
        codec(
            "track_event", encode, lambda o, u: probes._last_key.get(o),
            frame=True,
        )
        codec(
            "session_event", encode, lambda o, r: probes._last_key.get(o),
            frame=True,
        )

        dumps = protocol.dumps

        @functools.wraps(dumps)
        def frame_dumps(payload):
            key = probes._frame_keys.pop(id(payload), None)
            with span("protocol.encode", key=key):
                return dumps(payload)

        protocol.dumps = frame_dumps

    async def lag_probe(self) -> None:
        """Record how late the event loop wakes a periodic timer."""
        while True:
            started = time.perf_counter()
            await asyncio.sleep(LAG_PROBE_S)
            self.lag_s.append(time.perf_counter() - started - LAG_PROBE_S)


def cache_stats(server) -> dict:
    """Topology and bisector cache counters summed over every replica."""
    out = {}
    for kind in ("topology_cache", "bisector_cache"):
        hits = misses = 0
        for group in server.cluster.shards:
            for replica in group:
                cache = getattr(replica.service, kind)
                if cache is not None:
                    stats = cache.stats()
                    hits += stats.hits
                    misses += stats.misses
        out[kind] = {"hits": hits, "misses": misses}
    return out


async def serve(args) -> None:
    from repro import obs

    work_dir = Path(args.dir)
    probes = None
    if args.trace:
        obs.enable()
        probes = Probes()
        probes.install()
    server, sessions = build_server(args.venue, work_dir)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def parent_gone() -> None:
        # stdin is a pipe from the benchmark; EOF means it has exited.
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), parent_gone)
    lag_task = (
        asyncio.ensure_future(probes.lag_probe()) if probes is not None else None
    )
    print(f"listening {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        if lag_task is not None:
            lag_task.cancel()
            try:
                await lag_task
            except asyncio.CancelledError:
                pass
        await server.stop()
        sessions.store.close()
    if probes is not None:
        obs.dump_jsonl(obs.get_tracer().finished(), work_dir / "spans.jsonl")
        report = {
            "cluster_calls": probes.cluster_calls,
            "cluster_requests": probes.cluster_requests,
            "loop_lag_s": probes.lag_s,
            "caches": cache_stats(server),
        }
        (work_dir / "report.json").write_text(json.dumps(report))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--venue", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
