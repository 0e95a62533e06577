"""Gateway clients: a keep-alive asyncio client and a sync facade.

:class:`AsyncGatewayClient` is the canonical implementation — one
persistent HTTP connection per client (the loadgen opens many), plus
separate WebSocket connections for streaming.  :class:`GatewayClient`
wraps it behind blocking calls for tests and scripts:
it owns a private event loop so the keep-alive connection survives
between calls.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
from typing import AsyncIterator, Sequence

from ..core import Anchor
from . import protocol
from .http import HttpResponse, read_response, write_request
from .ws import OP_CLOSE, OP_PING, OP_PONG, OP_TEXT, encode_frame, read_frame

__all__ = ["AsyncGatewayClient", "GatewayClient", "GatewayError", "batch_payload"]

_ws_key_counter = itertools.count(1)


class GatewayError(RuntimeError):
    """A non-2xx or malformed reply from the gateway.

    ``status`` is the HTTP status code (0 for transport-level trouble);
    ``payload`` the parsed error body when there was one.
    """

    def __init__(self, status: int, payload=None) -> None:
        super().__init__(f"gateway error {status}: {payload!r}")
        self.status = status
        self.payload = payload


def _anchors_payload(anchors: Sequence[Anchor]) -> list[dict]:
    return [protocol.anchor_to_dict(a) for a in anchors]


def batch_payload(
    batch_id: str,
    anchors: Sequence[Anchor],
    object_id: str = "",
    wait: bool = False,
    gate=None,
) -> dict:
    """The ``POST /v1/measurements`` body of one measurement batch."""
    payload = {
        "v": protocol.PROTOCOL_VERSION,
        "batch_id": batch_id,
        "object_id": object_id,
        "anchors": _anchors_payload(anchors),
        "wait": wait,
    }
    if gate is not None:
        payload["gate"] = gate.to_dict()
    return payload


class AsyncGatewayClient:
    """One persistent connection to a gateway (asyncio)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncGatewayClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform noise
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncGatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _call(
        self, method: str, path: str, payload: dict | None = None
    ) -> HttpResponse:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        await write_request(self._writer, method, path, payload)
        return await read_response(self._reader)

    async def pipeline(
        self, calls: Sequence[tuple[str, str, dict | None]]
    ) -> list[HttpResponse]:
        """Send ``(method, path, payload)`` requests back to back, then
        read their responses — which the server writes in request
        order."""
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        for method, path, payload in calls:
            await write_request(self._writer, method, path, payload)
        return [await read_response(self._reader) for _ in calls]

    async def request_json(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        """One request; raises :class:`GatewayError` on non-2xx."""
        response = await self._call(method, path, payload)
        body = response.json()
        if not 200 <= response.status < 300:
            raise GatewayError(response.status, body)
        return body

    # -- protocol calls -------------------------------------------------
    async def healthz(self) -> dict:
        return await self.request_json("GET", "/healthz")

    async def metrics(self) -> dict:
        return await self.request_json("GET", "/metrics")

    async def locate(
        self,
        anchors: Sequence[Anchor],
        query_id: str = "",
        timeout_s: float | None = None,
    ) -> dict:
        """Ephemeral query; returns the wire estimate dict."""
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "query_id": query_id,
            "anchors": _anchors_payload(anchors),
        }
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        return await self.request_json("POST", "/v1/locate", payload)

    async def submit_batch(
        self,
        batch_id: str,
        anchors: Sequence[Anchor],
        object_id: str = "",
        wait: bool = False,
        gate=None,
    ) -> dict:
        """Durable ingest; the returned ack is backed by an fsynced row."""
        return await self.request_json(
            "POST",
            "/v1/measurements",
            batch_payload(batch_id, anchors, object_id, wait, gate),
        )

    async def get_estimate(self, batch_id: str) -> dict:
        return await self.request_json("GET", f"/v1/estimates/{batch_id}")

    # -- streaming ------------------------------------------------------
    async def stream(
        self, object_id: str, resume_from: int | None = None
    ) -> AsyncIterator[dict]:
        """Subscribe to one object's position pushes (fresh connection).

        Yields every event after the ``subscribed`` confirmation; exits
        when the server closes the stream.  ``resume_from`` is the last
        ``stream_seq`` this client saw on a previous connection: the
        server first replays every buffered frame after it (no dupes,
        no gaps while the replay ring covers the position), then
        continues live.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            key = f"repro-gateway-{next(_ws_key_counter):016d}"
            encoded = base64.b64encode(key.encode()).decode()
            writer.write(
                (
                    f"GET /v1/stream HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {encoded}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            raw = await reader.readuntil(b"\r\n\r\n")
            if b" 101 " not in raw.split(b"\r\n", 1)[0]:
                raise GatewayError(0, f"websocket upgrade refused: {raw[:120]!r}")
            subscribe = {
                "v": protocol.PROTOCOL_VERSION,
                "type": "subscribe",
                "object_id": object_id,
            }
            if resume_from is not None:
                subscribe["resume_from"] = resume_from
            writer.write(
                encode_frame(
                    OP_TEXT, protocol.dumps(subscribe).encode(), mask=True
                )
            )
            await writer.drain()
            while True:
                try:
                    opcode, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if opcode == OP_CLOSE:
                    return
                if opcode == OP_PING:  # heartbeat: pong proves liveness
                    writer.write(encode_frame(OP_PONG, payload, mask=True))
                    await writer.drain()
                    continue
                if opcode == OP_TEXT:
                    event = protocol.loads(payload)
                    if event.get("type") == "subscribed":
                        continue  # the handshake ack, not a position
                    yield event
        finally:
            writer.close()


class GatewayClient:
    """Blocking facade over :class:`AsyncGatewayClient`.

    Owns a private event loop so the keep-alive connection persists
    across calls; safe for single-threaded callers (CLI, tests).
    """

    def __init__(self, host: str, port: int) -> None:
        self._loop = asyncio.new_event_loop()
        self._client = AsyncGatewayClient(host, port)

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def healthz(self) -> dict:
        return self._run(self._client.healthz())

    def metrics(self) -> dict:
        return self._run(self._client.metrics())

    def locate(self, anchors, query_id: str = "", timeout_s=None) -> dict:
        return self._run(self._client.locate(anchors, query_id, timeout_s))

    def submit_batch(
        self, batch_id, anchors, object_id="", wait=False, gate=None
    ) -> dict:
        return self._run(
            self._client.submit_batch(batch_id, anchors, object_id, wait, gate)
        )

    def get_estimate(self, batch_id: str) -> dict:
        return self._run(self._client.get_estimate(batch_id))

    def close(self) -> None:
        if not self._loop.is_closed():
            self._run(self._client.close())
            self._loop.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
