"""Tests for the durable measurement ledger.

The satellite coverage the issue calls out explicitly: schema creation
and version checking, idempotent re-insert of a replayed batch,
crash-mid-transaction recovery (reopen after a simulated kill), and
concurrent writer serialization.
"""

import json
import sqlite3
import threading

import pytest

from repro.gateway import SCHEMA_VERSION, LedgerError, MeasurementLedger


def _payload(anchors):
    return json.dumps(
        {
            "batch_id": "b",
            "anchors": [
                {
                    "name": a.name,
                    "x": a.position.x,
                    "y": a.position.y,
                    "pdp": a.pdp,
                    "nomadic": a.nomadic,
                }
                for a in anchors
            ],
        }
    )


def _wire(x=1.0, y=2.0, degraded=False, reason=""):
    return {
        "v": 1,
        "query_id": "b",
        "position": {"x": x, "y": y},
        "degraded": degraded,
        "reason": reason,
        "latency_s": 0.01,
        "confidence": 1.0,
    }


class TestSchema:
    def test_creates_all_tables_and_version_row(self, tmp_path):
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            assert ledger.schema_version() == SCHEMA_VERSION
            assert ledger.counts() == {
                "access_points": 0,
                "batches": 0,
                "estimates": 0,
                "guard_verdicts": 0,
                "pending": 0,
            }

    def test_reopen_preserves_schema_and_rows(self, tmp_path, anchor_sets):
        path = tmp_path / "ledger.db"
        with MeasurementLedger(path) as ledger:
            ledger.record_batch("b1", "obj", anchor_sets[0], _payload(anchor_sets[0]))
        with MeasurementLedger(path) as ledger:
            assert ledger.schema_version() == SCHEMA_VERSION
            assert ledger.counts()["batches"] == 1
            assert ledger.get_batch("b1")["object_id"] == "obj"

    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "ledger.db"
        MeasurementLedger(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE schema_version SET version = 999")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerError, match="schema version 999"):
            MeasurementLedger(path)

    def test_closed_ledger_refuses_writes(self, tmp_path, anchor_sets):
        ledger = MeasurementLedger(tmp_path / "ledger.db")
        ledger.close()
        assert ledger.closed
        with pytest.raises(LedgerError):
            ledger.record_batch(
                "b1", "", anchor_sets[0], _payload(anchor_sets[0])
            )
        ledger.close()  # idempotent


class TestIdempotentReplay:
    def test_reinsert_is_ignored_not_duplicated(self, tmp_path, anchor_sets):
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            assert ledger.record_batch(
                "b1", "obj", anchor_sets[0], _payload(anchor_sets[0])
            )
            # At-least-once delivery: the client retries the same batch.
            assert not ledger.record_batch(
                "b1", "obj", anchor_sets[0], _payload(anchor_sets[0])
            )
            assert ledger.counts()["batches"] == 1

    def test_replay_does_not_overwrite_original_payload(
        self, tmp_path, anchor_sets
    ):
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            ledger.record_batch("b1", "obj", anchor_sets[0], '{"first": true}')
            ledger.record_batch("b1", "obj", anchor_sets[0], '{"second": true}')
            assert ledger.get_batch("b1")["payload"] == {"first": True}

    def test_estimate_reinsert_is_idempotent(self, tmp_path, anchor_sets):
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            ledger.record_batch("b1", "", anchor_sets[0], _payload(anchor_sets[0]))
            ledger.record_estimate("b1", _wire())
            ledger.record_estimate("b1", _wire())  # replayed solve: same row
            assert ledger.counts()["estimates"] == 1
            assert ledger.get_estimate("b1")["position"] == {"x": 1.0, "y": 2.0}

    def test_access_points_dedupe_across_batches(self, tmp_path, anchor_sets):
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            ledger.record_batch("b1", "", anchor_sets[0], _payload(anchor_sets[0]))
            ledger.record_batch("b2", "", anchor_sets[0], _payload(anchor_sets[0]))
            names = {a.name for a in anchor_sets[0]}
            assert ledger.counts()["access_points"] == len(names)


class TestCrashRecovery:
    def test_uncommitted_transaction_rolls_back_on_reopen(
        self, tmp_path, anchor_sets
    ):
        """A kill mid-transaction must not leave a half-written batch."""
        path = tmp_path / "ledger.db"
        with MeasurementLedger(path) as ledger:
            ledger.record_batch("acked", "", anchor_sets[0], _payload(anchor_sets[0]))
        # Simulate a writer killed mid-transaction: BEGIN + INSERT on a
        # raw connection, then drop it without COMMIT.
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "INSERT INTO batches(batch_id, object_id, received_s, payload)"
            " VALUES ('torn', '', 0.0, '{}')"
        )
        conn.close()  # no COMMIT — the "kill"
        with MeasurementLedger(path) as ledger:
            assert ledger.get_batch("acked") is not None  # committed survives
            assert ledger.get_batch("torn") is None  # torn write rolled back

    def test_pending_backlog_lists_unanswered_in_arrival_order(
        self, tmp_path, anchor_sets
    ):
        path = tmp_path / "ledger.db"
        with MeasurementLedger(path) as ledger:
            ledger.record_batch("b1", "o1", anchor_sets[0], _payload(anchor_sets[0]))
            ledger.record_batch("b2", "o2", anchor_sets[1], _payload(anchor_sets[1]))
            ledger.record_batch("b3", "o3", anchor_sets[2], _payload(anchor_sets[2]))
            ledger.record_estimate("b2", _wire())
        # Reopen (the restart) and ask for the replay backlog.
        with MeasurementLedger(path) as ledger:
            pending = ledger.pending_batches()
            assert [p["batch_id"] for p in pending] == ["b1", "b3"]
            assert ledger.counts()["pending"] == 2

    def test_checkpoint_then_reopen_roundtrip(self, tmp_path, anchor_sets):
        path = tmp_path / "ledger.db"
        ledger = MeasurementLedger(path)
        ledger.record_batch("b1", "", anchor_sets[0], _payload(anchor_sets[0]))
        ledger.checkpoint()
        ledger.close()
        with MeasurementLedger(path) as reopened:
            assert reopened.get_batch("b1") is not None


class TestConcurrentWriters:
    def test_parallel_threads_serialize_without_loss(
        self, tmp_path, anchor_sets
    ):
        ledger = MeasurementLedger(tmp_path / "ledger.db")
        per_thread, threads = 25, 4
        errors = []

        def writer(tid: int) -> None:
            try:
                for i in range(per_thread):
                    batch_id = f"t{tid}-b{i}"
                    ledger.record_batch(
                        batch_id, f"obj{tid}", anchor_sets[0],
                        _payload(anchor_sets[0]),
                    )
                    ledger.record_estimate(batch_id, _wire(x=float(tid), y=float(i)))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(tid,)) for tid in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        counts = ledger.counts()
        assert counts["batches"] == per_thread * threads
        assert counts["estimates"] == per_thread * threads
        assert counts["pending"] == 0
        ledger.close()

    def test_contending_replays_ack_exactly_once(self, tmp_path, anchor_sets):
        """N threads replaying the same batch: exactly one wins the insert."""
        ledger = MeasurementLedger(tmp_path / "ledger.db")
        outcomes = []
        lock = threading.Lock()

        def writer() -> None:
            inserted = ledger.record_batch(
                "contended", "", anchor_sets[0], _payload(anchor_sets[0])
            )
            with lock:
                outcomes.append(inserted)

        workers = [threading.Thread(target=writer) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert sorted(outcomes) == [False] * 7 + [True]
        assert ledger.counts()["batches"] == 1
        ledger.close()


def hold_write_open(db, txn):
    """Run ``txn`` in a write on another thread and keep it open.

    Returns ``(release, join)``: set ``release`` to let the transaction
    end — ``txn`` then raises, so it rolls back — and call ``join()``
    to wait for that.
    """
    inside, release = threading.Event(), threading.Event()
    errors = []

    def body(conn):
        txn(conn)
        inside.set()
        assert release.wait(5)
        raise RuntimeError("roll back")

    def writer():
        try:
            db.write(body)
        except RuntimeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    assert inside.wait(5)

    def join():
        thread.join()
        assert len(errors) == 1

    return release, join


class TestCommittedReads:
    def test_reads_never_see_an_open_write(self, tmp_path, anchor_sets):
        """A read while a write transaction is open must not see its
        rows: they are not on disk yet, and here they roll back."""
        ledger = MeasurementLedger(tmp_path / "ledger.db")
        ledger.record_batch("b", "", anchor_sets[0], _payload(anchor_sets[0]))
        release, join = hold_write_open(
            ledger,
            lambda conn: conn.execute(
                "INSERT INTO estimates(batch_id, x, y, degraded, payload,"
                " answered_s) VALUES ('b', 1, 2, 0, '{\"x\": 1}', 0)"
            ),
        )
        try:
            during = ledger.get_estimate("b")
            pending = ledger.counts()["pending"]
        finally:
            release.set()
            join()
        assert during is None
        assert pending == 1
        assert ledger.get_estimate("b") is None
        ledger.close()

    def test_reads_see_each_commit(self, tmp_path, anchor_sets):
        ledger = MeasurementLedger(tmp_path / "ledger.db")
        assert ledger.get_batch("b") is None
        ledger.record_batch("b", "o", anchor_sets[0], _payload(anchor_sets[0]))
        assert ledger.get_batch("b")["object_id"] == "o"
        ledger.record_estimate("b", _wire(x=3.0))
        assert ledger.get_estimate("b")["position"]["x"] == 3.0
        ledger.close()
        with pytest.raises(LedgerError):
            ledger.get_batch("b")


class TestVerdictPersistence:
    def test_guard_verdicts_roundtrip(self, tmp_path, anchor_sets):
        verdicts = [
            {"name": "AP1", "status": "ok", "quality": 1.0, "reasons": []},
            {
                "name": "AP2",
                "status": "degraded",
                "quality": 0.5,
                "reasons": ["nan-burst"],
            },
        ]
        with MeasurementLedger(tmp_path / "ledger.db") as ledger:
            ledger.record_batch(
                "b1", "", anchor_sets[0], _payload(anchor_sets[0]),
                verdicts=verdicts,
            )
            stored = ledger.get_verdicts("b1")
        assert stored == verdicts
