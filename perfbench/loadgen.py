"""The load generator: one process, one thread, at most two sockets.

``open_loop`` drives the durable ingest path.  One HTTP/1.1 connection
carries every ``POST /v1/measurements`` (``wait=false``), written at
its due time whether or not earlier acks have come back (pipelined, so
the schedule never waits on the server), and one WebSocket subscribed
to every object receives the ``position``/``track``/``session-event``
pushes.  Each operation is timed from its due time.

``closed_loop`` drives ephemeral ``POST /v1/locate`` over one
connection: the next query is sent when the previous answer arrives.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import time
from dataclasses import dataclass, field

from repro.gateway.http import read_response
from repro.gateway.ws import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    encode_frame,
    read_frame,
)

#: Frame kinds the stream keeps (acks of subscriptions are dropped).
STREAM_KINDS = ("position", "track", "session-event")
#: Period of the caller's ``sample`` callback during a run.
SAMPLE_S = 0.5


@dataclass
class Op:
    """One scheduled measurement batch."""

    batch_id: str
    object_id: str
    pool_index: int
    due_s: float  # offset from the schedule origin
    body: bytes
    sent: float = 0.0  # absolute perf_counter times from here on
    due: float = 0.0
    acked: float | None = None
    ack_ok: bool = False


@dataclass
class StreamRun:
    """What an open-loop run saw."""

    ops: list[Op]
    frames: list[dict] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


async def _sampling(sample) -> None:
    """Call ``sample()`` now and every ``SAMPLE_S`` until cancelled."""
    while True:
        sample()
        await asyncio.sleep(SAMPLE_S)


def http_request(path: str, body: bytes) -> bytes:
    """One pre-encoded HTTP/1.1 keep-alive POST."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "host: gateway\r\n"
        "content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _open_stream(host: str, port: int, object_ids) -> tuple:
    """A WebSocket subscribed to every object, subscriptions confirmed."""
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            "GET /v1/stream HTTP/1.1\r\n"
            "host: gateway\r\n"
            "upgrade: websocket\r\n"
            "connection: Upgrade\r\n"
            f"sec-websocket-key: {key}\r\n"
            "sec-websocket-version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    status = await reader.readuntil(b"\r\n\r\n")
    if b" 101 " not in status.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"websocket upgrade refused: {status[:80]!r}")
    for object_id in object_ids:
        message = {"v": 1, "type": "subscribe", "object_id": object_id}
        writer.write(encode_frame(OP_TEXT, json.dumps(message).encode(), mask=True))
    await writer.drain()
    pending = set(object_ids)
    while pending:
        opcode, payload = await read_frame(reader)
        if opcode == OP_TEXT:
            reply = json.loads(payload)
            if reply.get("type") != "subscribed":
                raise RuntimeError(f"subscription refused: {reply}")
            pending.discard(reply["object_id"])
    return reader, writer


async def open_loop(
    host: str,
    port: int,
    ops: list[Op],
    object_ids,
    drain_timeout_s: float,
    sample,
) -> StreamRun:
    """Send ``ops`` on schedule; return acks and stream frames.

    Ends when every acked batch has its ``track`` frame, or
    ``drain_timeout_s`` after the last due time (missing frames then
    count as failures downstream).
    """
    ws_reader, ws_writer = await _open_stream(host, port, object_ids)
    http_reader, http_writer = await asyncio.open_connection(host, port)
    result = StreamRun(ops)
    in_flight: asyncio.Queue = asyncio.Queue()
    done = asyncio.Event()
    state = {"acks": 0, "acked_ok": 0, "tracks": 0}

    def check_done() -> None:
        if state["acks"] == len(ops) and state["tracks"] >= state["acked_ok"]:
            done.set()

    async def send() -> None:
        for op in ops:
            delay = op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            op.sent = time.perf_counter()
            http_writer.write(op.body)
            in_flight.put_nowait(op)
            await http_writer.drain()

    async def read_acks() -> None:
        for _ in ops:
            response = await read_response(http_reader)
            op = await in_flight.get()
            op.acked = time.perf_counter()
            body = json.loads(response.body) if response.body else {}
            op.ack_ok = (
                response.status == 200
                and body.get("status") == "accepted"
                and body.get("batch_id") == op.batch_id
                and not body.get("duplicate")
            )
            state["acks"] += 1
            state["acked_ok"] += op.ack_ok
            check_done()

    async def read_stream() -> None:
        while True:
            try:
                opcode, payload = await read_frame(ws_reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            now = time.perf_counter()
            if opcode == OP_PING:
                ws_writer.write(encode_frame(OP_PONG, payload, mask=True))
                continue
            if opcode == OP_CLOSE:
                return
            if opcode != OP_TEXT:
                continue
            frame = json.loads(payload)
            if frame.get("type") not in STREAM_KINDS:
                continue
            frame["t"] = now
            result.frames.append(frame)
            if frame["type"] == "track":
                state["tracks"] += 1
                check_done()

    result.start = time.perf_counter() + 0.02
    for op in ops:
        op.due = result.start + op.due_s
    tasks = [
        asyncio.ensure_future(_sampling(sample)),
        asyncio.ensure_future(send()),
        asyncio.ensure_future(read_acks()),
        asyncio.ensure_future(read_stream()),
    ]
    last_due = ops[-1].due if ops else result.start
    try:
        timeout = last_due - time.perf_counter() + drain_timeout_s
        await asyncio.wait_for(done.wait(), timeout=max(timeout, 0.1))
    except asyncio.TimeoutError:
        pass  # the missing frames are counted as failures downstream
    result.end = time.perf_counter()
    sample()
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass
    for writer in (http_writer, ws_writer):
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return result


@dataclass
class ClosedRun:
    """What a closed-loop run saw: per query (pool index, send time,
    latency, HTTP status, reply)."""

    queries: list[tuple[int, float, float, int, dict]] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


async def closed_loop(
    host: str,
    port: int,
    make_request,
    seconds: float,
    sample,
) -> ClosedRun:
    """Locate queries back to back for ``seconds``.

    ``make_request(i)`` gives query ``i``'s ``(pool index, request
    bytes)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    result = ClosedRun()
    sampler = asyncio.ensure_future(_sampling(sample))
    result.start = time.perf_counter()
    deadline = result.start + seconds
    i = 0
    try:
        while time.perf_counter() < deadline:
            index, request = make_request(i)
            sent = time.perf_counter()
            writer.write(request)
            await writer.drain()
            response = await read_response(reader)
            latency = time.perf_counter() - sent
            body = json.loads(response.body) if response.body else {}
            result.queries.append((index, sent, latency, response.status, body))
            i += 1
        result.end = time.perf_counter()
        sample()
    finally:
        sampler.cancel()
        try:
            await sampler
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return result
