"""`repro.gateway`: the asyncio network edge with a durable ledger.

The serving stack's front door — the first layer anything outside the
Python process can talk to.  Components:

* :mod:`~repro.gateway.protocol` — the small versioned JSON wire
  protocol (submit measurement batches, request estimates, stream
  position updates, fetch metrics);
* :mod:`~repro.gateway.store` — the write-ahead durable
  :class:`MeasurementLedger` (stdlib sqlite3, WAL + fsync): acked means
  committed, and a killed gateway replays its unanswered backlog on
  restart;
* :mod:`~repro.gateway.bridge` — the thread offload between the event
  loop and the synchronous solver and ledger: queued solves go to the
  stacked solver as one chunk, queued ledger writes share one group
  commit;
* :mod:`~repro.gateway.server` — :class:`GatewayServer`, the asyncio
  HTTP + WebSocket server with end-to-end graceful shutdown;
* :mod:`~repro.gateway.client` — keep-alive clients (async + sync);
* :mod:`~repro.gateway.loadgen` — the load-generator harness behind
  ``benchmarks/bench_gateway.py``.

Answers served over the socket are **bit-identical** to calling
:class:`repro.serving.LocalizationService` in-process on the same
anchors: the protocol round-trips every float exactly, and the gateway
adds transport, never computation.
"""

from .bridge import SolverBridge
from .client import AsyncGatewayClient, GatewayClient, GatewayError
from .loadgen import LoadGenConfig, LoadReport, run_loadgen, run_loadgen_sync
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import GatewayConfig, GatewayServer
from .store import SCHEMA_VERSION, LedgerError, MeasurementLedger

__all__ = [
    "AsyncGatewayClient",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "GatewayServer",
    "LedgerError",
    "LoadGenConfig",
    "LoadReport",
    "MeasurementLedger",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SCHEMA_VERSION",
    "SolverBridge",
    "run_loadgen",
    "run_loadgen_sync",
]
