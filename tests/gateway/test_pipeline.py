"""Burst ingest over one connection: pipelining, group commit, coalescing.

A fleet tick arrives as many requests pipelined on one connection.  The
gateway reads them while earlier ones are still in flight, group-commits
their ledger rows and coalesces their solves, and these tests pin the
contracts that must survive that concurrency:

* responses leave in request order, whatever order the work finishes in,
  and each acked batch pushes exactly one ``position`` event;
* ``Connection: close`` ends a pipeline, and a WebSocket upgrade after
  pipelined requests still works;
* no ack leaves before the commit that covers its row has returned;
* one failing write in a group rolls back alone, and a ``batch_id``
  repeated inside one group lands once;
* coalesced answers are bit-identical to the in-process service;
* ``stop()`` answers every pipelined request already read and loses no
  acked write.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.cluster import ClusterConfig, LocalizationCluster
from repro.core import NomLocSystem, SystemConfig
from repro.gateway import (
    GatewayConfig,
    GatewayServer,
    MeasurementLedger,
    SolverBridge,
    protocol,
)
from repro.gateway.client import AsyncGatewayClient, batch_payload
from repro.gateway.http import read_response, write_request
from repro.gateway.ws import OP_TEXT, encode_frame, read_frame
from repro.serving import LocalizationRequest, LocalizationService, ServingConfig


MEASUREMENTS = "/v1/measurements"


def run(coro):
    return asyncio.run(coro)


def make_server(lab, db_path) -> GatewayServer:
    return GatewayServer(
        lab.plan.boundary, config=GatewayConfig(port=0, db_path=str(db_path))
    )


def locate_payload(anchors, query_id):
    return {
        "v": protocol.PROTOCOL_VERSION,
        "query_id": query_id,
        "anchors": [protocol.anchor_to_dict(a) for a in anchors],
    }


def hold_commits(ledger):
    """Hold every ledger transaction open, rows written but uncommitted,
    until the returned ``release`` event is set.

    Returns ``(entered, release, groups)``: ``entered`` is set once a
    transaction is being held, ``groups`` lists the size of every
    group commit.
    """
    entered, release = threading.Event(), threading.Event()
    groups = []
    write, write_group = ledger.write, ledger.write_group

    def held_write(fn):
        def txn(conn):
            out = fn(conn)
            entered.set()
            assert release.wait(10), "test never released the commit"
            return out

        return write(txn)

    def counted_write_group(fns):
        groups.append(len(fns))
        return write_group(fns)

    ledger.write = held_write
    ledger.write_group = counted_write_group
    return entered, release, groups


async def wait_until(predicate, timeout_s=5.0):
    for _ in range(int(timeout_s / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


class TestResponseOrder:
    def test_mixed_pipeline_answers_in_request_order(
        self, lab, anchor_sets, tmp_path
    ):
        bad = {"v": protocol.PROTOCOL_VERSION, "anchors": []}
        calls = [
            ("POST", MEASUREMENTS, batch_payload("m1", anchor_sets[0], "cart")),
            ("POST", "/v1/locate", locate_payload(anchor_sets[1], "q1")),
            ("GET", "/healthz", None),
            ("POST", "/v1/locate", bad),
            ("GET", "/nope", None),
            ("POST", MEASUREMENTS, batch_payload("m2", anchor_sets[2], "cart", True)),
        ]

        async def scenario():
            async with make_server(lab, tmp_path / "p.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    return await c.pipeline(calls)

        responses = run(scenario())
        assert [r.status for r in responses] == [200, 200, 200, 400, 404, 200]
        bodies = [r.json() for r in responses]
        assert bodies[0]["batch_id"] == "m1" and not bodies[0]["duplicate"]
        assert bodies[1]["query_id"] == "q1"
        with LocalizationService(lab.plan.boundary) as direct:
            ref = direct.locate_request(
                LocalizationRequest(anchor_sets[1], query_id="q1")
            )
            ref2 = direct.locate_request(
                LocalizationRequest(anchor_sets[2], query_id="m2")
            )
        assert bodies[1]["position"] == {"x": ref.position.x, "y": ref.position.y}
        assert bodies[2]["status"] == "ok"
        assert bodies[3]["error"] == "bad-anchor"
        assert bodies[4]["error"] == "not-found"
        assert bodies[5]["batch_id"] == "m2"
        assert bodies[5]["estimate"]["position"] == {
            "x": ref2.position.x,
            "y": ref2.position.y,
        }

    def test_burst_acks_in_order_with_one_push_each(
        self, lab, anchor_sets, tmp_path
    ):
        burst = [f"b{i}" for i in range(16)]

        async def scenario():
            async with make_server(lab, tmp_path / "b.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    # resume_from=0 replays anything published before the
                    # subscription lands, so no push can be missed.
                    stream = c.stream("cart", resume_from=0)
                    pushed = []

                    async def consume():
                        async for event in stream:
                            if event.get("type") == "position":
                                pushed.append(event["batch_id"])

                    consumer = asyncio.ensure_future(consume())
                    responses = await c.pipeline(
                        [
                            (
                                "POST",
                                MEASUREMENTS,
                                batch_payload(
                                    batch_id,
                                    anchor_sets[i % len(anchor_sets)],
                                    "cart",
                                ),
                            )
                            for i, batch_id in enumerate(burst)
                        ]
                    )
                    await wait_until(
                        lambda: len(pushed) >= len(burst), timeout_s=30.0
                    )
                    # A second push for any ack would arrive by now.
                    await asyncio.sleep(0.2)
                    consumer.cancel()
                    await asyncio.gather(consumer, return_exceptions=True)
                    await stream.aclose()
                    return responses, pushed

        responses, pushed = run(scenario())
        assert [r.status for r in responses] == [200] * len(burst)
        assert [r.json()["batch_id"] for r in responses] == burst
        assert not any(r.json()["duplicate"] for r in responses)
        assert sorted(pushed) == sorted(burst)

    def test_connection_close_ends_the_pipeline(self, lab, tmp_path):
        async def scenario():
            async with make_server(lab, tmp_path / "c.db") as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_request(writer, "GET", "/healthz")
                await write_request(
                    writer, "GET", "/healthz", headers={"connection": "close"}
                )
                await write_request(writer, "GET", "/healthz")
                first = await read_response(reader)
                second = await read_response(reader)
                rest = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                return first, second, rest, server.requests_total

        first, second, rest, requests_total = run(scenario())
        assert first.headers["connection"] == "keep-alive"
        assert second.headers["connection"] == "close"
        assert rest == b""  # the server hung up; the third was never read
        assert requests_total == 2

    def test_websocket_upgrade_after_pipelined_requests(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "w.db") as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_request(writer, "GET", "/healthz")
                await write_request(
                    writer, "POST", "/v1/locate", locate_payload(anchor_sets[0], "q0")
                )
                await write_request(
                    writer,
                    "GET",
                    "/v1/stream",
                    headers={
                        "upgrade": "websocket",
                        "connection": "Upgrade",
                        "sec-websocket-key": "cGlwZWxpbmVkLXVwZ3JhZGU=",
                        "sec-websocket-version": "13",
                    },
                )
                health = await read_response(reader)
                located = await read_response(reader)
                switching = await reader.readuntil(b"\r\n\r\n")
                subscribe = {
                    "v": protocol.PROTOCOL_VERSION,
                    "type": "subscribe",
                    "object_id": "cart",
                }
                writer.write(
                    encode_frame(
                        OP_TEXT, protocol.dumps(subscribe).encode(), mask=True
                    )
                )
                await writer.drain()
                _, reply = await asyncio.wait_for(read_frame(reader), 5.0)
                async with AsyncGatewayClient(server.host, server.port) as c:
                    await c.submit_batch("w1", anchor_sets[1], object_id="cart")
                _, pushed = await asyncio.wait_for(read_frame(reader), 5.0)
                writer.close()
                return health, located, switching, reply, pushed

        health, located, switching, reply, pushed = run(scenario())
        assert health.status == 200 and located.status == 200
        assert located.json()["query_id"] == "q0"
        assert b" 101 " in switching.split(b"\r\n", 1)[0]
        assert json.loads(reply)["type"] == "subscribed"
        event = json.loads(pushed)
        assert event["type"] == "position" and event["batch_id"] == "w1"


class TestGroupCommit:
    def test_no_ack_before_its_commit_returns(self, lab, anchor_sets, tmp_path):
        async def scenario():
            async with make_server(lab, tmp_path / "a.db") as server:
                entered, release, _ = hold_commits(server.ledger)
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    body = batch_payload("a1", anchor_sets[0])
                    await write_request(writer, "POST", MEASUREMENTS, body)
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(None, entered.wait, 5.0)
                    # The row is written but its transaction is open: no
                    # ack may leave, and no reader may see the row.
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(reader.read(1), timeout=0.3)
                    unseen = server.ledger.get_batch("a1")
                finally:
                    release.set()
                ack = await asyncio.wait_for(read_response(reader), 5.0)
                seen = server.ledger.get_batch("a1")
                writer.close()
                return unseen, ack, seen

        unseen, ack, seen = run(scenario())
        assert unseen is None
        assert ack.status == 200 and ack.json()["batch_id"] == "a1"
        assert seen is not None

    def test_repeated_batch_id_in_one_group_lands_once(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "d.db") as server:
                entered, release, groups = hold_commits(server.ledger)
                async with AsyncGatewayClient(server.host, server.port) as c:
                    first = asyncio.ensure_future(
                        c.pipeline(
                            [
                                ("POST", MEASUREMENTS, batch_payload(bid, anchors))
                                for bid, anchors in (
                                    ("x0", anchor_sets[0]),
                                    ("dup", anchor_sets[1]),
                                    ("dup", anchor_sets[1]),
                                )
                            ]
                        )
                    )
                    try:
                        loop = asyncio.get_running_loop()
                        assert await loop.run_in_executor(
                            None, entered.wait, 5.0
                        )
                        # x0's group is held; both "dup"s queue behind it.
                        await wait_until(lambda: server.bridge._writer.pending == 3)
                    finally:
                        release.set()
                    responses = await asyncio.wait_for(first, 10.0)
                counts = server.ledger.counts()
                return [r.json() for r in responses], groups, counts

        acks, groups, counts = run(scenario())
        assert [a["batch_id"] for a in acks] == ["x0", "dup", "dup"]
        assert [a["duplicate"] for a in acks] == [False, False, True]
        assert groups[:2] == [1, 2]
        assert counts["batches"] == 2

    def test_failing_item_rolls_back_alone(self, tmp_path, anchor_sets):
        payload = json.dumps({"batch_id": "b"})
        with MeasurementLedger(tmp_path / "f.db") as ledger:

            def broken(conn):
                ledger.batch_txn("bad", "", anchor_sets[0], payload)(conn)
                raise RuntimeError("item failed after writing")

            outcomes = ledger.write_group(
                [
                    ledger.batch_txn("ok1", "", anchor_sets[0], payload),
                    broken,
                    ledger.batch_txn("ok2", "", anchor_sets[1], payload),
                ]
            )
            assert outcomes[0] is True and outcomes[2] is True
            assert isinstance(outcomes[1], RuntimeError)
            assert ledger.get_batch("ok1") is not None
            assert ledger.get_batch("ok2") is not None
            assert ledger.get_batch("bad") is None
            assert ledger.counts()["batches"] == 2

    def test_group_shares_one_transaction(self, tmp_path, anchor_sets):
        payload = json.dumps({"batch_id": "b"})
        with MeasurementLedger(tmp_path / "g.db") as ledger:
            commits = []
            write = ledger.write

            def counted(fn):
                commits.append(fn)
                return write(fn)

            ledger.write = counted
            outcomes = ledger.write_group(
                [
                    ledger.batch_txn(f"b{i}", "", anchor_sets[i], payload)
                    for i in range(len(anchor_sets))
                ]
            )
            assert outcomes == [True] * len(anchor_sets)
            assert len(commits) == 1
            assert ledger.counts()["batches"] == len(anchor_sets)


@pytest.fixture(scope="module")
def gated_requests(lab):
    from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records

    system = NomLocSystem(lab, SystemConfig(packets_per_link=4))
    metric = system.config.resolve_metric()
    injector = LinkFaultInjector(LinkFaultPlan.subcarrier_dropout(0.2), seed=3)
    requests = []
    for i, site in enumerate(lab.test_sites[:4]):
        rng = np.random.default_rng(np.random.SeedSequence([9, i]))
        records = system.gather_link_records(site, rng)
        anchors = tuple(r.to_anchor(metric) for r in records)
        gate = gate_records(injector.corrupt_batch(records), 4)
        requests.append(LocalizationRequest(anchors, query_id=f"u{i}"))
        requests.append(
            LocalizationRequest(gate.anchors, query_id=f"g{i}", gate=gate)
        )
    return requests


class TestCoalescing:
    def test_coalesced_answers_match_in_process_service(
        self, lab, gated_requests
    ):
        cluster = LocalizationCluster(
            lab.plan.boundary,
            None,
            ClusterConfig(serving=ServingConfig(lp_batch=16)),
        )
        chunks = []
        batch = cluster.batch

        def counted_batch(requests):
            chunks.append(len(requests))
            return batch(requests)

        cluster.batch = counted_batch

        async def scenario():
            bridge = SolverBridge(cluster, max_chunk=16)
            try:
                # Queued together: the first starts alone at once, the
                # rest wait behind it and go as one chunk.
                pending = [bridge.locate(r) for r in gated_requests]
                return await asyncio.gather(*pending)
            finally:
                bridge.shutdown()

        try:
            responses = run(scenario())
        finally:
            cluster.close()
        assert chunks == [len(gated_requests) - 1]
        with LocalizationService(lab.plan.boundary) as direct:
            for request, response in zip(gated_requests, responses):
                reference = direct.locate_request(request)
                assert response.query_id == request.query_id
                assert response.position == reference.position
                assert response.degraded == reference.degraded
                assert response.confidence == reference.confidence
                assert (
                    response.estimate.relaxation_cost
                    == reference.estimate.relaxation_cost
                )

    def test_failing_request_in_a_chunk_fails_alone(self, lab, anchor_sets):
        class Target:
            def locate_request(self, request):
                if request.query_id == "bad":
                    raise ValueError("bad request")
                return request.query_id

            def batch(self, requests):
                return [self.locate_request(r) for r in requests]

        async def scenario():
            bridge = SolverBridge(Target(), max_chunk=8)
            try:
                pending = [
                    bridge.locate(LocalizationRequest(anchor_sets[0], query_id=q))
                    for q in ("first", "a", "bad", "b")
                ]
                return await asyncio.gather(*pending, return_exceptions=True)
            finally:
                bridge.shutdown()

        first, a, bad, b = run(scenario())
        assert (first, a, b) == ("first", "a", "b")
        assert isinstance(bad, ValueError)


class TestDrain:
    def test_stop_answers_pipelined_requests_and_loses_no_ack(
        self, lab, anchor_sets, tmp_path
    ):
        db = tmp_path / "s.db"
        count = 6

        async def scenario():
            server = make_server(lab, db)
            await server.start()
            entered, release, _ = hold_commits(server.ledger)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            for i in range(count):
                await write_request(
                    writer,
                    "POST",
                    MEASUREMENTS,
                    batch_payload(f"s{i}", anchor_sets[i % len(anchor_sets)]),
                )
            try:
                # Every request is read and in flight behind a held commit.
                await wait_until(
                    lambda: sum(c.outstanding for c in server._connections)
                    == count
                )
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.05)
            finally:
                release.set()
            responses = [
                await asyncio.wait_for(read_response(reader), 10.0)
                for _ in range(count)
            ]
            rest = await asyncio.wait_for(reader.read(), 10.0)
            await asyncio.wait_for(stopping, 20.0)
            writer.close()
            return responses, rest

        responses, rest = run(scenario())
        acks = [r.json() for r in responses]
        assert [a["batch_id"] for a in acks] == [f"s{i}" for i in range(count)]
        assert all(a["status"] == "accepted" for a in acks)
        assert [r.headers["connection"] for r in responses] == (
            ["keep-alive"] * (count - 1) + ["close"]
        )
        assert rest == b""
        with MeasurementLedger(db) as ledger:
            counts = ledger.counts()
            assert counts["batches"] == count
            assert counts["pending"] == 0, "drain lost acked batches"


class TestSpans:
    def test_burst_spans_attribute_every_item(self, lab, anchor_sets, tmp_path):
        from repro import obs

        ids = [f"t{i}" for i in range(6)]

        async def scenario():
            async with make_server(lab, tmp_path / "t.db") as server:
                entered, release, groups = hold_commits(server.ledger)
                async with AsyncGatewayClient(server.host, server.port) as c:
                    burst = asyncio.ensure_future(
                        c.pipeline(
                            [
                                ("POST", MEASUREMENTS, batch_payload(bid, anchors))
                                for bid, anchors in zip(ids, anchor_sets * 2)
                            ]
                        )
                    )
                    try:
                        loop = asyncio.get_running_loop()
                        assert await loop.run_in_executor(
                            None, entered.wait, 5.0
                        )
                        await wait_until(
                            lambda: server.bridge._writer.pending == len(ids)
                        )
                    finally:
                        release.set()
                    await asyncio.wait_for(burst, 10.0)
                    await wait_until(lambda: server.answered_total == len(ids))
                return groups

        with obs.capture() as tracer:
            groups = run(scenario())
        spans = tracer.finished()
        by_name = {}
        for sp in spans:
            by_name.setdefault(sp.name, []).append(sp)
        assert groups[:2] == [1, len(ids) - 1]
        for name in ("ledger.record_batch", "ledger.record_estimate"):
            items = by_name[name]
            assert sorted(sp.attributes["key"] for sp in items) == ids
            assert all(sp.attributes["wait_s"] >= 0 for sp in items)
        # The held group's items share its start; their queueing shows
        # as wait, not as their own time.
        batch_starts = [sp.start_s for sp in by_name["ledger.record_batch"]]
        assert len(set(batch_starts)) == 2
        solves = by_name["gateway.solve"]
        assert sum(sp.attributes["size"] for sp in solves) == len(ids)
        requests = {sp.span_id: sp for sp in by_name["gateway.request"]}
        assert sorted(sp.attributes["query_id"] for sp in requests.values()) == ids
        # Each chunk's solve tree hangs under one request of the chunk.
        assert all(sp.parent_id in requests for sp in solves)
