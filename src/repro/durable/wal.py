"""`WalDatabase`: the WAL SQLite boilerplate every durable store shares.

Durability contract, in one sentence: **a mutation run through
:meth:`WalDatabase.write` has committed to a WAL-journaled,
``synchronous``-controlled SQLite database before the call returns**,
so at the default ``"FULL"`` level an acknowledgement backed by such a
commit survives a SIGKILL at any instant.

What lives here (and only here):

* connection setup — WAL journal mode, the ``synchronous`` pragma
  (validated, never silently relaxed), foreign keys on, autocommit mode
  so every transaction is an explicit ``BEGIN IMMEDIATE`` block;
* writer serialization — one internal lock plus a dedicated immediate
  transaction per mutation, so concurrent threads never interleave
  partial writes;
* group commit — :meth:`WalDatabase.write_group` runs many independent
  mutations in one transaction (one fsync), each under its own
  ``SAVEPOINT`` so a failing item rolls back alone;
* committed reads — :meth:`WalDatabase.query` goes through a separate
  read-only connection, which under WAL sees only committed snapshots,
  so a read never observes a write transaction that is still open (and
  may yet roll back) and never waits for one;
* the schema-version gate — a ``schema_version`` table checked at open;
  a file written by an incompatible store fails loudly instead of being
  corrupted;
* lifecycle — ``checkpoint()`` (WAL truncate, fsync included),
  idempotent ``close()``, context-manager support.

Stores (:class:`repro.gateway.store.MeasurementLedger`,
:class:`repro.sessions.durable.SessionStore`) subclass or wrap this and
contribute just their ``CREATE TABLE`` statements and queries.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Callable, Sequence, TypeVar

__all__ = ["WalDatabase", "WalError"]

_T = TypeVar("_T")

#: Accepted ``PRAGMA synchronous`` levels.
_SYNC_LEVELS = ("OFF", "NORMAL", "FULL", "EXTRA")


class WalError(RuntimeError):
    """The database file is unusable (wrong schema version, closed, ...)."""


class WalDatabase:
    """One WAL-journaled SQLite file, safe for multi-threaded writers.

    Parameters
    ----------
    path:
        Database file path (parent directories are created).
        ``":memory:"`` is accepted for tests that only need the schema
        logic.
    schema:
        ``;``-separated DDL statements, applied inside the opening
        transaction (``executescript`` would auto-commit and break the
        all-or-nothing init, so statements run individually).
    schema_version:
        Version stamped into (and checked against) the file's
        ``schema_version`` table.
    synchronous:
        SQLite ``PRAGMA synchronous`` level; the default ``"FULL"`` is
        what makes a committed write mean "on disk".  Benchmarks may
        relax it to ``"NORMAL"`` explicitly — never silently.
    error_cls:
        Exception type raised for lifecycle/schema trouble, so each
        store keeps its own error vocabulary (defaults to
        :class:`WalError`).
    """

    def __init__(
        self,
        path: str | Path,
        schema: str,
        schema_version: int,
        synchronous: str = "FULL",
        error_cls: type[Exception] = WalError,
    ) -> None:
        if synchronous.upper() not in _SYNC_LEVELS:
            raise ValueError(f"unknown synchronous level {synchronous!r}")
        self.path = str(path)
        self._error_cls = error_cls
        self._schema_version = schema_version
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # autocommit mode (isolation_level=None): transactions are
        # explicit BEGIN IMMEDIATE blocks in write(), nothing implicit.
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA synchronous={synchronous.upper()}")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._closed = False
        self._init_schema(schema)
        # Reads get their own connection: the writer's would show them
        # rows of a transaction that is still open.  An in-memory
        # database cannot be shared, so there reads take the writer
        # lock instead (and so only ever see committed state too).
        self._read_lock = self._lock
        self._reader = self._conn
        if self.path != ":memory:":
            self._read_lock = threading.Lock()
            self._reader = sqlite3.connect(
                Path(self.path).resolve().as_uri() + "?mode=ro",
                uri=True,
                check_same_thread=False,
                isolation_level=None,
            )

    # ------------------------------------------------------------------
    # Schema / lifecycle
    # ------------------------------------------------------------------
    def _init_schema(self, schema: str) -> None:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS schema_version ("
                    "version INTEGER NOT NULL)"
                )
                for statement in schema.split(";"):
                    if statement.strip():
                        self._conn.execute(statement)
                row = self._conn.execute(
                    "SELECT version FROM schema_version"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO schema_version(version) VALUES (?)",
                        (self._schema_version,),
                    )
                elif row[0] != self._schema_version:
                    raise self._error_cls(
                        f"database {self.path!r} has schema version "
                        f"{row[0]}, this store requires "
                        f"{self._schema_version}"
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def schema_version(self) -> int:
        """The version recorded in the database file."""
        rows = self.query("SELECT version FROM schema_version")
        if not rows:  # pragma: no cover - _init_schema guarantees a row
            raise self._error_cls("database has no schema_version row")
        return int(rows[0][0])

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def checkpoint(self) -> None:
        """Flush the WAL into the main database file (fsync included)."""
        with self._lock:
            self.check_open()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Checkpoint and close the connections (idempotent)."""
        with self._lock:
            if self._closed:
                return
            if self._reader is not self._conn:
                with self._read_lock:
                    self._reader.close()
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            finally:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "WalDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def check_open(self) -> None:
        """Raise the store's error type once :meth:`close` has run."""
        if self._closed:
            raise self._error_cls("store is closed")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def write(self, fn: Callable[[sqlite3.Connection], _T]) -> _T:
        """Run one mutation inside a serialized BEGIN IMMEDIATE block.

        ``fn`` receives the raw connection; when it returns, the
        transaction commits (a WAL frame, fsynced per the configured
        ``synchronous`` level).  Any exception rolls the whole mutation
        back and propagates.
        """
        with self._lock:
            self.check_open()
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                result = fn(self._conn)
                self._conn.execute("COMMIT")
                return result
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def write_group(
        self, fns: Sequence[Callable[[sqlite3.Connection], object]]
    ) -> list:
        """Run independent mutations in one :meth:`write` transaction.

        Each ``fn`` runs under its own ``SAVEPOINT``: one that raises is
        rolled back alone and its exception takes its slot in the
        returned list; the others keep their results and commit together
        — one WAL commit, one fsync, for the whole group.  An item sees
        the rows of the items before it (a repeated key inside one group
        behaves as it would across two transactions).  A failure of the
        commit itself fails every item.
        """

        def txn(conn: sqlite3.Connection) -> list:
            outcomes: list = []
            for fn in fns:
                conn.execute("SAVEPOINT item")
                try:
                    outcomes.append(fn(conn))
                except Exception as exc:
                    conn.execute("ROLLBACK TO item")
                    outcomes.append(exc)
                conn.execute("RELEASE item")
            return outcomes

        return self.write(txn)

    def query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """One read-only statement over committed data only."""
        with self._read_lock:
            self.check_open()
            return self._reader.execute(sql, params).fetchall()
