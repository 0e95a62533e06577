"""The gateway's write-ahead durable measurement ledger (stdlib sqlite3).

Durability contract, in one sentence: **a measurement batch is only
acknowledged after its INSERT has committed to a WAL-journaled,
fsync-synchronous SQLite database**, so a gateway killed at any instant
recovers every acked batch on restart and can re-serve the queries it
never answered.

The WAL/pragma/transaction discipline (serialized ``BEGIN IMMEDIATE``
writers, the ``synchronous`` fsync level, the schema-version gate,
checkpoint-on-close) lives in the shared
:class:`repro.durable.WalDatabase` helper — the session layer's
:class:`repro.sessions.durable.SessionStore` rides the same machinery.
This module owns only the measurement schema and its queries.  Each
write comes in two forms: ``record_batch``/``record_estimate`` commit
one row on the calling thread, and ``batch_txn``/``estimate_txn`` return
the same mutation for :meth:`~repro.durable.WalDatabase.write_group`,
which the gateway uses to commit every write queued at once in one
transaction.  Reads see committed rows only.

Schema (version :data:`SCHEMA_VERSION`, guarded by an explicit
``schema_version`` table — opening a ledger written by an incompatible
gateway fails loudly instead of corrupting it):

``access_points``
    One row per distinct anchor ever seen (name, reported position,
    nomadic flag) — the AccessPoint table of a deployed positioning
    stack, fed idempotently from ingest.
``batches``
    One row per acked measurement batch: caller-chosen ``batch_id``
    (the idempotency key — replayed submissions hit ``INSERT OR
    IGNORE`` and re-ack without duplicating), object id, receive time,
    and the full anchors/gate payload as JSON so the solve is
    reproducible from the ledger alone.
``estimates``
    One row per answered batch (position, degradation flags, full wire
    response).  ``batches`` rows without an ``estimates`` row are the
    crash-recovery backlog: :meth:`MeasurementLedger.pending_batches`
    lists them for idempotent re-solve on restart.
``guard_verdicts``
    Per-link guard rulings of gated batches (status, quality, reasons)
    — the durable form of :class:`repro.guard.LinkVerdict`.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..core import Anchor
from ..durable import WalDatabase

__all__ = ["LedgerError", "MeasurementLedger", "SCHEMA_VERSION"]

#: Bumped on any incompatible schema change.
SCHEMA_VERSION = 1

#: Individual statements (``executescript`` would auto-commit the
#: surrounding transaction, breaking the all-or-nothing schema init).
_SCHEMA = """
CREATE TABLE IF NOT EXISTS access_points (
    name         TEXT PRIMARY KEY,
    x            REAL NOT NULL,
    y            REAL NOT NULL,
    nomadic      INTEGER NOT NULL DEFAULT 0,
    first_seen_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS batches (
    batch_id   TEXT PRIMARY KEY,
    object_id  TEXT NOT NULL DEFAULT '',
    received_s REAL NOT NULL,
    payload    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS estimates (
    batch_id   TEXT PRIMARY KEY REFERENCES batches(batch_id),
    x          REAL NOT NULL,
    y          REAL NOT NULL,
    degraded   INTEGER NOT NULL,
    reason     TEXT NOT NULL DEFAULT '',
    confidence REAL,
    payload    TEXT NOT NULL,
    answered_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS guard_verdicts (
    batch_id TEXT NOT NULL REFERENCES batches(batch_id),
    link     TEXT NOT NULL,
    status   TEXT NOT NULL,
    quality  REAL NOT NULL,
    reasons  TEXT NOT NULL DEFAULT '[]',
    PRIMARY KEY (batch_id, link)
);
CREATE INDEX IF NOT EXISTS idx_batches_object ON batches(object_id);
"""


class LedgerError(RuntimeError):
    """The ledger file is unusable (wrong schema version, closed, ...)."""


class MeasurementLedger(WalDatabase):
    """One gateway's durable store, safe for multi-threaded writers.

    Parameters
    ----------
    path:
        Database file path (parent directories are created).  ``":memory:"``
        is accepted for tests that only need the schema logic.
    synchronous:
        SQLite ``PRAGMA synchronous`` level; the default ``"FULL"`` is
        what makes an ack mean "on disk".  Benchmarks may relax it to
        ``"NORMAL"`` explicitly — never silently.
    """

    def __init__(self, path: str | Path, synchronous: str = "FULL") -> None:
        super().__init__(
            path,
            schema=_SCHEMA,
            schema_version=SCHEMA_VERSION,
            synchronous=synchronous,
            error_cls=LedgerError,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def record_batch(
        self,
        batch_id: str,
        object_id: str,
        anchors: Sequence[Anchor],
        payload_json: str,
        verdicts: Iterable[Mapping] = (),
    ) -> bool:
        """Durably record one measurement batch; returns False on replay.

        One transaction covers the batch row, the access-point upserts
        and any guard verdict rows — after this returns, the ack is
        backed by a committed WAL frame.  A ``batch_id`` already in the
        ledger is a client retry (at-least-once delivery): nothing is
        overwritten and ``False`` comes back so the caller can flag the
        ack as a duplicate.
        """
        return bool(
            self.write(
                self.batch_txn(batch_id, object_id, anchors, payload_json, verdicts)
            )
        )

    def batch_txn(
        self,
        batch_id: str,
        object_id: str,
        anchors: Sequence[Anchor],
        payload_json: str,
        verdicts: Iterable[Mapping] = (),
    ) -> Callable[[sqlite3.Connection], bool]:
        """The mutation of :meth:`record_batch`, for a group commit.

        Returns a function of the connection that inserts the batch and
        returns False when ``batch_id`` is already present; run it
        through :meth:`write` or :meth:`~repro.durable.WalDatabase.write_group`.
        """
        now = time.time()
        verdict_rows = [
            (
                batch_id,
                v["name"],
                v["status"],
                float(v["quality"]),
                json.dumps(list(v.get("reasons") or ())),
            )
            for v in verdicts
        ]

        def txn(conn: sqlite3.Connection) -> bool:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO batches"
                "(batch_id, object_id, received_s, payload)"
                " VALUES (?, ?, ?, ?)",
                (batch_id, object_id, now, payload_json),
            )
            if cursor.rowcount == 0:
                return False  # idempotent replay
            for anchor in anchors:
                conn.execute(
                    "INSERT OR IGNORE INTO access_points"
                    "(name, x, y, nomadic, first_seen_s) VALUES (?, ?, ?, ?, ?)",
                    (
                        anchor.name,
                        anchor.position.x,
                        anchor.position.y,
                        int(anchor.nomadic),
                        now,
                    ),
                )
            conn.executemany(
                "INSERT OR REPLACE INTO guard_verdicts"
                "(batch_id, link, status, quality, reasons)"
                " VALUES (?, ?, ?, ?, ?)",
                verdict_rows,
            )
            return True

        return txn

    def record_estimate(self, batch_id: str, wire_response: Mapping) -> None:
        """Durably record the answer of one batch (idempotent).

        ``wire_response`` is the protocol dict
        (:func:`repro.gateway.protocol.response_to_dict`); the position
        is denormalized into columns for queries, the full payload kept
        verbatim for replay fidelity.
        """
        self.write(self.estimate_txn(batch_id, wire_response))

    def estimate_txn(
        self, batch_id: str, wire_response: Mapping
    ) -> Callable[[sqlite3.Connection], None]:
        """The mutation of :meth:`record_estimate`, for a group commit."""
        position = wire_response["position"]
        payload = json.dumps(wire_response, sort_keys=True)
        now = time.time()

        def txn(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO estimates"
                "(batch_id, x, y, degraded, reason, confidence, payload,"
                " answered_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    batch_id,
                    position["x"],
                    position["y"],
                    int(bool(wire_response.get("degraded"))),
                    wire_response.get("reason", ""),
                    wire_response.get("confidence"),
                    payload,
                    now,
                ),
            )

        return txn

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_batch(self, batch_id: str) -> dict | None:
        """The stored ingest payload of one batch (None when unknown)."""
        rows = self.query(
            "SELECT object_id, received_s, payload FROM batches"
            " WHERE batch_id = ?",
            (batch_id,),
        )
        if not rows:
            return None
        return {
            "batch_id": batch_id,
            "object_id": rows[0][0],
            "received_s": rows[0][1],
            "payload": json.loads(rows[0][2]),
        }

    def get_estimate(self, batch_id: str) -> dict | None:
        """The stored wire response of one batch (None when unanswered)."""
        rows = self.query(
            "SELECT payload FROM estimates WHERE batch_id = ?", (batch_id,)
        )
        return None if not rows else json.loads(rows[0][0])

    def get_verdicts(self, batch_id: str) -> list[dict]:
        """The persisted guard rulings of one batch (link order by name)."""
        rows = self.query(
            "SELECT link, status, quality, reasons FROM guard_verdicts"
            " WHERE batch_id = ? ORDER BY link",
            (batch_id,),
        )
        return [
            {
                "name": link,
                "status": status,
                "quality": quality,
                "reasons": json.loads(reasons),
            }
            for link, status, quality, reasons in rows
        ]

    def pending_batches(self) -> list[dict]:
        """Acked batches with no stored estimate — the replay backlog.

        Ordered by receive time so recovery re-serves in arrival order.
        """
        rows = self.query(
            "SELECT b.batch_id, b.object_id, b.payload FROM batches b"
            " LEFT JOIN estimates e ON e.batch_id = b.batch_id"
            " WHERE e.batch_id IS NULL ORDER BY b.received_s, b.batch_id"
        )
        return [
            {
                "batch_id": batch_id,
                "object_id": object_id,
                "payload": json.loads(payload),
            }
            for batch_id, object_id, payload in rows
        ]

    def counts(self) -> dict:
        """Row counts per table — the ledger's health/metrics summary."""
        out = {}
        for table in ("access_points", "batches", "estimates", "guard_verdicts"):
            out[table] = int(
                self.query(f"SELECT COUNT(*) FROM {table}")[0][0]
            )
        out["pending"] = out["batches"] - out["estimates"]
        return out
