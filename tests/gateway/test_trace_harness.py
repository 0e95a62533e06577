"""The wire benchmark's trace harness and the cluster it reaches into.

``perfbench/server.py --trace 1`` wraps ``LocalizationCluster``'s
``locate_request`` and ``batch`` at class level to count requests per
solver call, and sums every shard's cache counters through
``server.cluster.shards[g][r].service``.  These tests build the gateway
as that harness's ``build_server`` does and pin those touchpoints, so a
change to the cluster that would blind the benchmark fails here first.
"""

import asyncio
import threading

from repro.cluster import LocalizationCluster
from repro.gateway import GatewayConfig, GatewayServer, protocol
from repro.gateway.client import AsyncGatewayClient
from repro.sessions import GeofenceRule, SessionManager, SessionStore, ZoneMap


def build_server(area, work_dir):
    """The gateway + durable session stack the trace harness serves."""
    zones = ZoneMap.grid(area, 3, 3)
    sessions = SessionManager(
        zones,
        rules=(GeofenceRule(zone=zones.names()[-1], forbidden=True),),
        store=SessionStore(work_dir / "sessions.db"),
    )
    server = GatewayServer(
        area,
        config=GatewayConfig(port=0, db_path=str(work_dir / "gateway.db")),
        sessions=sessions,
    )
    return server, sessions


def locate_call(anchors, query_id):
    payload = {
        "v": protocol.PROTOCOL_VERSION,
        "query_id": query_id,
        "anchors": [protocol.anchor_to_dict(a) for a in anchors],
    }
    return ("POST", "/v1/locate", payload)


class TestTraceHarnessContract:
    def test_cluster_exposes_the_wrapped_entry_points(self):
        assert callable(LocalizationCluster.locate_request)
        assert callable(LocalizationCluster.batch)

    def test_lone_request_and_burst_reach_the_wrapped_calls(
        self, lab, anchor_sets, tmp_path, monkeypatch
    ):
        calls = []
        release = threading.Event()
        locate_request = LocalizationCluster.locate_request
        batch = LocalizationCluster.batch

        def counted_locate_request(self, request):
            calls.append(("locate_request", 1))
            # Hold the lone solve so the burst queues up behind it.
            assert release.wait(10), "test never released the solve"
            return locate_request(self, request)

        def counted_batch(self, requests):
            requests = list(requests)
            calls.append(("batch", len(requests)))
            return batch(self, requests)

        monkeypatch.setattr(
            LocalizationCluster, "locate_request", counted_locate_request
        )
        monkeypatch.setattr(LocalizationCluster, "batch", counted_batch)
        burst = [locate_call(a, f"q{i}") for i, a in enumerate(anchor_sets * 2)]

        async def scenario():
            server, sessions = build_server(lab.plan.boundary, tmp_path)
            try:
                async with server:
                    async with AsyncGatewayClient(server.host, server.port) as c:
                        pending = asyncio.ensure_future(c.pipeline(burst))
                        try:
                            for _ in range(1000):
                                if server.bridge.inflight == len(burst):
                                    break
                                await asyncio.sleep(0.005)
                        finally:
                            release.set()
                        return await asyncio.wait_for(pending, 10.0)
            finally:
                sessions.store.close()

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [200] * len(burst)
        assert calls == [("locate_request", 1), ("batch", len(burst) - 1)]

    def test_shards_expose_each_service_cache(self, lab, tmp_path):
        server, sessions = build_server(lab.plan.boundary, tmp_path)
        try:
            assert isinstance(server.cluster.shards, list)
            holders = [h for group in server.cluster.shards for h in group]
            assert len(holders) == server.config.num_shards
            for holder in holders:
                for kind in ("topology_cache", "bisector_cache"):
                    cache = getattr(holder.service, kind)
                    assert cache is not None
                    stats = cache.stats()
                    assert stats.hits == 0 and stats.misses == 0
        finally:
            server.cluster.close()
            server.ledger.close()
            sessions.store.close()
