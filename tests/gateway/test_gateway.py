"""End-to-end gateway tests over real sockets.

Everything here talks to a :class:`GatewayServer` bound to an ephemeral
loopback port through :class:`AsyncGatewayClient` — the full wire path:
HTTP parse, protocol decode, thread-offloaded solve, WAL ledger,
WebSocket push.  The two contracts the issue pins down are asserted
directly: answers over the socket are **bit-identical** to calling
:class:`LocalizationService` in-process, and **no acknowledged write is
ever lost** across a graceful drain or a simulated kill/restart.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.gateway import (
    AsyncGatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayServer,
    MeasurementLedger,
)
from repro.serving import LocalizationRequest, LocalizationService


def run(coro):
    """Drive one async test scenario to completion."""
    return asyncio.run(coro)


def make_server(lab, db_path) -> GatewayServer:
    return GatewayServer(
        lab.plan.boundary,
        config=GatewayConfig(port=0, db_path=str(db_path)),
    )


@pytest.fixture(scope="module")
def direct_answers(lab, anchor_sets):
    """The in-process ground truth the socket answers must match."""
    service = LocalizationService(lab.plan.boundary)
    try:
        return [
            service.locate_request(
                LocalizationRequest(anchors, query_id=f"q{i}")
            )
            for i, anchors in enumerate(anchor_sets)
        ]
    finally:
        service.close()


class TestRoundTrip:
    def test_locate_is_bit_identical_to_in_process_service(
        self, lab, anchor_sets, direct_answers, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    out = []
                    for i, anchors in enumerate(anchor_sets):
                        out.append(await c.locate(anchors, query_id=f"q{i}"))
                    return out

        answers = run(scenario())
        for wire, direct in zip(answers, direct_answers):
            # == on floats that crossed a socket: the bit-exact contract.
            assert wire["position"]["x"] == direct.position.x
            assert wire["position"]["y"] == direct.position.y
            assert wire["degraded"] == direct.degraded
            assert wire["query_id"] == direct.query_id

    def test_submit_wait_persists_and_answers(
        self, lab, anchor_sets, direct_answers, tmp_path
    ):
        db = tmp_path / "g.db"

        async def scenario():
            async with make_server(lab, db) as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    ack = await c.submit_batch(
                        "q0", anchor_sets[0], object_id="cart", wait=True
                    )
                    polled = await c.get_estimate("q0")
                    return ack, polled

        ack, polled = run(scenario())
        assert ack["status"] == "accepted" and not ack["duplicate"]
        assert ack["estimate"]["position"]["x"] == direct_answers[0].position.x
        assert ack["estimate"]["position"]["y"] == direct_answers[0].position.y
        assert polled["status"] == "answered"
        assert polled["estimate"] == ack["estimate"]
        # The ack was durable: the row survives the server.
        with MeasurementLedger(db) as ledger:
            assert ledger.get_estimate("q0") == ack["estimate"]
            assert ledger.counts()["pending"] == 0

    def test_duplicate_submission_reacks_same_estimate(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    first = await c.submit_batch("b1", anchor_sets[0], wait=True)
                    again = await c.submit_batch("b1", anchor_sets[0], wait=True)
                    return first, again, server.duplicates_total

        first, again, duplicates = run(scenario())
        assert not first["duplicate"]
        assert again["duplicate"]
        assert again["estimate"] == first["estimate"]
        assert duplicates == 1

    def test_background_solve_and_estimate_polling(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    ack = await c.submit_batch("bg1", anchor_sets[1], wait=False)
                    assert "estimate" not in ack
                    for _ in range(200):
                        polled = await c.get_estimate("bg1")
                        if polled["status"] == "answered":
                            return polled
                        await asyncio.sleep(0.01)
                    raise AssertionError("estimate never materialized")

        polled = run(scenario())
        assert polled["estimate"]["query_id"] == "bg1"
        assert "position" in polled["estimate"]

    def test_unknown_batch_404(self, lab, tmp_path):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    with pytest.raises(GatewayError) as err:
                        await c.get_estimate("never-submitted")
                    return err.value

        err = run(scenario())
        assert err.status == 404
        assert err.payload["error"] == "unknown-batch"

    def test_malformed_payload_maps_to_400_with_code(self, lab, tmp_path):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    with pytest.raises(GatewayError) as err:
                        await c.request_json(
                            "POST", "/v1/locate", {"anchors": []}
                        )
                    bad_version = None
                    try:
                        await c.request_json(
                            "POST", "/v1/locate", {"v": 99, "anchors": [{}]}
                        )
                    except GatewayError as exc:
                        bad_version = exc
                    return err.value, bad_version, server.errors_total

        bad_anchor, bad_version, errors_total = run(scenario())
        assert bad_anchor.status == 400
        assert bad_anchor.payload["error"] == "bad-anchor"
        assert bad_version is not None
        assert bad_version.payload["error"] == "bad-version"
        assert errors_total == 2

    def test_keep_alive_connection_reuse(self, lab, anchor_sets, tmp_path):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    for _ in range(5):
                        health = await c.healthz()
                        assert health["status"] == "ok"
                    return server.requests_total, len(server._connections)

        requests_total, open_connections = run(scenario())
        assert requests_total == 5
        assert open_connections <= 1  # all five rode one socket


class TestMetricsEndpoint:
    def test_metrics_document_is_json_clean_and_complete(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    await c.locate(anchor_sets[0], query_id="m0")
                    await c.submit_batch("m1", anchor_sets[1], wait=True)
                    return await c.metrics()

        doc = run(scenario())
        # Already crossed the wire once; must also re-serialize cleanly.
        json.dumps(doc)
        gateway = doc["gateway"]
        assert gateway["requests_total"] == 3  # locate + submit + this scrape
        assert gateway["ingested_total"] == 1
        assert gateway["answered_total"] == 1
        assert gateway["ledger"]["batches"] == 1
        assert gateway["ledger"]["pending"] == 0
        cluster = doc["cluster"]
        assert cluster["routed"] >= 2
        assert cluster["shards"]["shard0"]["completed"] >= 2


class TestStreaming:
    def test_position_pushes_reach_subscribers(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            async with make_server(lab, tmp_path / "g.db") as server:
                client = AsyncGatewayClient(server.host, server.port)
                stream = client.stream("cart-7")
                events = []

                async def consume():
                    async for event in stream:
                        events.append(event)
                        if len(events) == 2:
                            return

                consumer = asyncio.ensure_future(consume())
                await asyncio.sleep(0.05)  # let the subscribe land
                async with client:
                    await client.submit_batch(
                        "s1", anchor_sets[0], object_id="cart-7", wait=True
                    )
                    await client.submit_batch(
                        "s2", anchor_sets[1], object_id="cart-7", wait=True
                    )
                    await client.submit_batch(
                        "other", anchor_sets[2], object_id="cart-9", wait=True
                    )
                await asyncio.wait_for(consumer, timeout=5.0)
                await stream.aclose()
                stored = {}
                for batch_id in ("s1", "s2"):
                    stored[batch_id] = server.ledger.get_estimate(batch_id)
                return events, stored, server.published_total

        events, stored, published = run(scenario())
        assert [e["batch_id"] for e in events] == ["s1", "s2"]
        for event in events:
            assert event["type"] == "position"
            assert event["object_id"] == "cart-7"
            # The push carries the exact stored estimate position.
            assert event["position"] == stored[event["batch_id"]]["position"]
        assert published == 2  # cart-9's estimate went to nobody


class TestSessionStreaming:
    def test_track_and_session_events_reach_subscribers(
        self, lab, anchor_sets, tmp_path
    ):
        from repro.sessions import SessionConfig, SessionManager, ZoneMap

        sessions = SessionManager(
            ZoneMap.grid(lab.plan.boundary, 2, 3),
            SessionConfig(enter_debounce=1, exit_debounce=1),
        )

        async def scenario():
            server = GatewayServer(
                lab.plan.boundary,
                config=GatewayConfig(port=0, db_path=str(tmp_path / "s.db")),
                sessions=sessions,
            )
            async with server:
                client = AsyncGatewayClient(server.host, server.port)
                stream = client.stream("cart-7")
                events = []

                async def consume():
                    async for event in stream:
                        events.append(event)
                        if len(events) == 5:
                            return

                consumer = asyncio.ensure_future(consume())
                await asyncio.sleep(0.05)  # let the subscribe land
                async with client:
                    await client.submit_batch(
                        "s1", anchor_sets[0], object_id="cart-7", wait=True
                    )
                    await client.submit_batch(
                        "s2", anchor_sets[1], object_id="cart-7", wait=True
                    )
                    metrics = await client.metrics()
                await asyncio.wait_for(consumer, timeout=5.0)
                await stream.aclose()
                return events, metrics

        events, metrics = run(scenario())
        by_type = {}
        for event in events:
            by_type.setdefault(event["type"], []).append(event)
        # Each answered batch pushes position + track; the first fix also
        # confirms a zone entry (enter_debounce=1) -> one session-event.
        assert len(by_type["position"]) == 2
        assert len(by_type["track"]) == 2
        assert len(by_type["session-event"]) == 1
        for event in by_type["position"]:
            assert event["confidence"] == 1.0
        for event in by_type["track"]:
            assert event["object_id"] == "cart-7"
            assert event["sigma_m"] > 0
            assert set(event["position"]) == {"x", "y"}
        entry = by_type["session-event"][0]
        assert entry["kind"] == "enter"
        assert entry["object_id"] == "cart-7"
        assert entry["zone"] in sessions.zones.names()
        # The /metrics document grows a sessions section when enabled.
        assert metrics["sessions"]["sessions_active"] == 1
        assert metrics["sessions"]["updates_total"] == 2


class TestStreamResume:
    def test_reconnect_resumes_exactly_missed_frames(
        self, lab, anchor_sets, tmp_path
    ):
        """Drop mid-stream, reconnect with resume_from, get exactly the
        frames published while away — no dupes, no gaps."""

        async def scenario():
            async with make_server(lab, tmp_path / "r.db") as server:
                client = AsyncGatewayClient(server.host, server.port)
                first = client.stream("cart-7")
                got = []

                async def consume_one():
                    async for event in first:
                        got.append(event)
                        return

                consumer = asyncio.ensure_future(consume_one())
                await asyncio.sleep(0.05)  # let the subscribe land
                async with client:
                    await client.submit_batch(
                        "s1", anchor_sets[0], object_id="cart-7", wait=True
                    )
                    await asyncio.wait_for(consumer, timeout=5.0)
                    await first.aclose()  # connection drops mid-stream
                    # Published while this subscriber is away: stamped
                    # into the replay ring even with zero listeners.
                    await client.submit_batch(
                        "s2", anchor_sets[1], object_id="cart-7", wait=True
                    )
                    await client.submit_batch(
                        "s3", anchor_sets[2], object_id="cart-7", wait=True
                    )
                    second = client.stream(
                        "cart-7", resume_from=got[0]["stream_seq"]
                    )
                    resumed = []

                    async def consume_rest():
                        async for event in second:
                            resumed.append(event)
                            if len(resumed) == 3:
                                return

                    rest = asyncio.ensure_future(consume_rest())
                    await asyncio.sleep(0.05)
                    await client.submit_batch(
                        "s4", anchor_sets[3], object_id="cart-7", wait=True
                    )
                    await asyncio.wait_for(rest, timeout=5.0)
                    await second.aclose()
                return got, resumed, server.resumed_total

        got, resumed, resumed_total = run(scenario())
        assert [e["batch_id"] for e in got] == ["s1"]
        # The two missed frames replay first, then live push continues.
        assert [e["batch_id"] for e in resumed] == ["s2", "s3", "s4"]
        seqs = [e["stream_seq"] for e in got + resumed]
        assert seqs == list(range(seqs[0], seqs[0] + 4))  # contiguous
        assert resumed_total == 2

    def test_resume_past_ring_eviction_skips_to_oldest_buffered(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            server = GatewayServer(
                lab.plan.boundary,
                config=GatewayConfig(
                    port=0,
                    db_path=str(tmp_path / "rb.db"),
                    ws_replay_buffer=2,
                ),
            )
            async with server:
                client = AsyncGatewayClient(server.host, server.port)
                async with client:
                    for i, anchors in enumerate(anchor_sets):
                        await client.submit_batch(
                            f"b{i}", anchors, object_id="cart-7", wait=True
                        )
                    stream = client.stream("cart-7", resume_from=0)
                    events = []

                    async def consume():
                        async for event in stream:
                            events.append(event)
                            if len(events) == 2:
                                return

                    await asyncio.wait_for(consume(), timeout=5.0)
                    await stream.aclose()
                return events

        events = run(scenario())
        # Four frames were published but the ring holds two: the resume
        # replays what survives, and the seq jump makes the gap visible.
        assert [e["stream_seq"] for e in events] == [3, 4]
        assert [e["batch_id"] for e in events] == ["b2", "b3"]

    def test_unresponsive_subscriber_is_idle_closed(self, lab, tmp_path):
        from repro.gateway import protocol
        from repro.gateway.ws import OP_TEXT, encode_frame

        async def scenario():
            server = GatewayServer(
                lab.plan.boundary,
                config=GatewayConfig(
                    port=0,
                    db_path=str(tmp_path / "hb.db"),
                    ws_heartbeat_s=0.05,
                    ws_idle_pings=1,
                ),
            )
            async with server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    (
                        f"GET /v1/stream HTTP/1.1\r\n"
                        f"Host: {server.host}:{server.port}\r\n"
                        "Upgrade: websocket\r\n"
                        "Connection: Upgrade\r\n"
                        "Sec-WebSocket-Key: aWRsZS1zdWJzY3JpYmVy\r\n"
                        "Sec-WebSocket-Version: 13\r\n\r\n"
                    ).encode("latin-1")
                )
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                subscribe = {
                    "v": protocol.PROTOCOL_VERSION,
                    "type": "subscribe",
                    "object_id": "cart-7",
                }
                writer.write(
                    encode_frame(
                        OP_TEXT, protocol.dumps(subscribe).encode(), mask=True
                    )
                )
                await writer.drain()
                # Never answer the heartbeat pings: the server must hang
                # up on its own instead of pinning the dead socket.
                await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                return server.idle_closed_total

        assert run(scenario()) == 1

    def test_responsive_subscriber_survives_heartbeats(
        self, lab, anchor_sets, tmp_path
    ):
        async def scenario():
            server = GatewayServer(
                lab.plan.boundary,
                config=GatewayConfig(
                    port=0,
                    db_path=str(tmp_path / "hb2.db"),
                    ws_heartbeat_s=0.05,
                    ws_idle_pings=1,
                ),
            )
            async with server:
                client = AsyncGatewayClient(server.host, server.port)
                stream = client.stream("cart-7")
                events = []

                async def consume():
                    async for event in stream:
                        events.append(event)
                        return

                consumer = asyncio.ensure_future(consume())
                # Several heartbeat windows of silence: the client's
                # automatic pongs keep the subscription alive.
                await asyncio.sleep(0.3)
                async with client:
                    await client.submit_batch(
                        "hb1", anchor_sets[0], object_id="cart-7", wait=True
                    )
                await asyncio.wait_for(consumer, timeout=5.0)
                await stream.aclose()
                return events, server.idle_closed_total

        events, idle_closed = run(scenario())
        assert [e["batch_id"] for e in events] == ["hb1"]
        assert idle_closed == 0


class TestDurability:
    def test_no_acked_write_lost_across_drain(self, lab, anchor_sets, tmp_path):
        """Satellite 2's contract: drain answers every acked batch."""
        db = tmp_path / "drain.db"

        async def scenario():
            server = make_server(lab, db)
            await server.start()
            acked = []
            async with AsyncGatewayClient(server.host, server.port) as c:
                for i in range(8):
                    ack = await c.submit_batch(
                        f"d{i}", anchor_sets[i % len(anchor_sets)], wait=False
                    )
                    assert ack["status"] == "accepted"
                    acked.append(ack["batch_id"])
            # Stop immediately: background solves are still in flight.
            await server.stop()
            assert server.ledger.closed
            return acked

        acked = run(scenario())
        with MeasurementLedger(db) as ledger:
            counts = ledger.counts()
            assert counts["batches"] == len(acked)
            assert counts["pending"] == 0, "drain lost acked batches"
            for batch_id in acked:
                assert ledger.get_estimate(batch_id) is not None

    def test_kill_replay_answers_backlog_bit_identically(
        self, lab, anchor_sets, direct_answers, tmp_path
    ):
        """A gateway killed after ack but before answering: the restart
        replays the backlog from the ledger alone, bit-identically."""
        db = tmp_path / "killed.db"
        # Forge the post-kill state directly: acked batches, no
        # estimates (exactly what a SIGKILL between the ledger commit
        # and the solve leaves behind).
        from repro.gateway import protocol as proto

        with MeasurementLedger(db) as ledger:
            for i, anchors in enumerate(anchor_sets):
                payload = {
                    "v": proto.PROTOCOL_VERSION,
                    "batch_id": f"q{i}",
                    "object_id": f"obj{i}",
                    "anchors": [proto.anchor_to_dict(a) for a in anchors],
                }
                ledger.record_batch(
                    f"q{i}", f"obj{i}", anchors,
                    json.dumps(payload, sort_keys=True),
                )
            assert ledger.counts()["pending"] == len(anchor_sets)

        async def scenario():
            async with make_server(lab, db) as server:
                replayed = server.replayed
                async with AsyncGatewayClient(server.host, server.port) as c:
                    estimates = [
                        await c.get_estimate(f"q{i}")
                        for i in range(len(anchor_sets))
                    ]
                return replayed, estimates

        replayed, estimates = run(scenario())
        assert replayed == len(anchor_sets)
        for i, (polled, direct) in enumerate(zip(estimates, direct_answers)):
            assert polled["status"] == "answered"
            estimate = polled["estimate"]
            assert estimate["position"]["x"] == direct.position.x
            assert estimate["position"]["y"] == direct.position.y

    def test_restart_after_clean_shutdown_has_no_backlog(
        self, lab, anchor_sets, tmp_path
    ):
        db = tmp_path / "clean.db"

        async def first_run():
            async with make_server(lab, db) as server:
                async with AsyncGatewayClient(server.host, server.port) as c:
                    await c.submit_batch("c1", anchor_sets[0], wait=True)

        async def second_run():
            async with make_server(lab, db) as server:
                return server.replayed, server.ledger.counts()

        run(first_run())
        replayed, counts = run(second_run())
        assert replayed == 0
        assert counts["batches"] == 1 and counts["pending"] == 0


class TestGracefulSignals:
    def test_sigterm_triggers_drain(self, lab, anchor_sets, tmp_path):
        db = tmp_path / "sig.db"

        async def scenario():
            server = make_server(lab, db)
            await server.start()
            forever = asyncio.ensure_future(server.serve_forever())
            await asyncio.sleep(0)  # let serve_forever install handlers
            async with AsyncGatewayClient(server.host, server.port) as c:
                ack = await c.submit_batch("sig1", anchor_sets[0], wait=False)
                assert ack["status"] == "accepted"
                os.kill(os.getpid(), signal.SIGTERM)
                await asyncio.wait_for(forever, timeout=10.0)
            return server.ledger.closed

        assert run(scenario())
        with MeasurementLedger(db) as ledger:
            assert ledger.counts()["pending"] == 0
            assert ledger.get_estimate("sig1") is not None

    def test_stop_is_idempotent(self, lab, tmp_path):
        async def scenario():
            server = make_server(lab, tmp_path / "g.db")
            await server.start()
            await server.stop()
            await server.stop()  # second stop is a no-op
            return server.ledger.closed

        assert run(scenario())
