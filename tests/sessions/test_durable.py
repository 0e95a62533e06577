"""Tests for crash-consistent session persistence (repro.sessions.durable).

The contract under test: the :class:`SessionStore` journals every
applied input with a post-apply digest-chain head, snapshots cover only
flushed rows, and :func:`recover` (latest snapshot + journal-tail replay
through the normal apply path) rebuilds a manager whose continued run is
byte-identical to one that never crashed — with any divergence caught
per entry as a :class:`RecoveryError`, never silently absorbed.
"""

import json
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.environment import FloorPlan
from repro.geometry import Point, Polygon
from repro.sessions import (
    CHAIN_SEED,
    GeofenceRule,
    RecoveryError,
    SessionConfig,
    SessionManager,
    SessionStore,
    SessionStoreError,
    ZoneMap,
    recover,
)

SEED = 5
OBJECTS = 3


def _zones() -> ZoneMap:
    return ZoneMap.grid(Polygon.rectangle(0, 0, 12, 8), 2, 3)


def _plan() -> FloorPlan:
    return FloorPlan("room", Polygon.rectangle(0, 0, 12, 8))


def _fixes(ticks: int = 12, objects: int = OBJECTS, salt: int = 9):
    """Seeded fix stream: [(object_id, t_s, Point, confidence), ...]."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, salt]))
    rows = []
    for tick in range(ticks):
        for i in range(objects):
            rows.append(
                (
                    f"obj-{i}",
                    float(tick),
                    Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))),
                    float(rng.uniform(0.2, 1.0)),
                )
            )
    return rows


def _feed(manager, fixes):
    for object_id, t_s, fix, confidence in fixes:
        manager.observe(object_id, t_s, fix, confidence=confidence)


class TestSessionStore:
    def test_rows_buffer_until_group_commit(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=4) as store:
            for i in range(3):
                seq = store.append_journal("fix", "a", float(i), {}, "c")
                assert seq == i + 1
            # Three buffered rows: nothing durable yet.
            assert store.journal_len() == 0
            assert store.counts()["buffered"] == 3
            store.append_journal("fix", "a", 3.0, {}, "c")
            # The fourth row completed the batch -> one fsynced txn.
            assert store.journal_len() == 4
            assert store.counts()["buffered"] == 0

    def test_reads_never_see_an_open_write(self, tmp_path):
        from tests.gateway.test_store import hold_write_open

        with SessionStore(tmp_path / "s.db", group_commit=1) as store:
            release, join = hold_write_open(
                store,
                lambda conn: conn.execute(
                    "INSERT INTO journal(seq, kind, object_id, t_s, payload,"
                    " chain) VALUES (1, 'fix', 'a', 0, '{}', 'c')"
                ),
            )
            try:
                during = store.journal_len()
            finally:
                release.set()
                join()
            assert during == 0
            assert store.journal_len() == 0

    def test_flush_commits_partial_batch(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=100) as store:
            store.append_journal("fix", "a", 0.0, {"x": 1.0}, "c0")
            store.flush()
            assert store.journal_len() == 1
            assert store.last_seq() == 1
            store.flush()  # empty flush is a no-op
            assert store.journal_len() == 1

    def test_sequence_continues_across_reopen(self, tmp_path):
        db = tmp_path / "s.db"
        with SessionStore(db, group_commit=1) as store:
            store.append_journal("fix", "a", 0.0, {}, "c0")
            store.append_journal("fix", "a", 1.0, {}, "c1")
        with SessionStore(db, group_commit=1) as store:
            assert store.last_seq() == 2
            assert store.append_journal("fix", "a", 2.0, {}, "c2") == 3

    def test_journal_tail_round_trips_payloads(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=1) as store:
            store.append_journal(
                "fix", "obj-1", 1.5, {"x": 0.1, "y": 2.0, "confidence": 0.5}, "ch"
            )
            store.append_journal("evict", "", 9.0, {}, "ch2")
            tail = store.journal_tail()
            assert [e.seq for e in tail] == [1, 2]
            assert tail[0].kind == "fix"
            assert tail[0].object_id == "obj-1"
            assert tail[0].payload == {"x": 0.1, "y": 2.0, "confidence": 0.5}
            assert tail[0].chain == "ch"
            assert tail[1].kind == "evict"
            assert store.journal_tail(after_seq=1) == tail[1:]
            assert store.fix_count() == 1

    def test_snapshot_flushes_buffer_and_prunes_old(self, tmp_path):
        with SessionStore(
            tmp_path / "s.db", group_commit=100, keep_snapshots=2
        ) as store:
            for i in range(5):
                store.append_journal("fix", "a", float(i), {}, f"c{i}")
            store.save_snapshot(3, {"n": 3})
            # The snapshot must never cover rows that are not on disk.
            assert store.journal_len() == 5
            store.save_snapshot(4, {"n": 4})
            store.save_snapshot(5, {"n": 5})
            assert store.snapshot_count() == 2  # 3 was pruned
            seq, state = store.latest_snapshot()
            assert (seq, state) == (5, {"n": 5})

    def test_payload_encoding_matches_json(self):
        from repro.sessions.durable import _encode_payload

        cases = [
            {},
            {"x": 0.1, "y": -2.5e-17, "confidence": 1.0},
            {"x": float("inf")},  # non-finite: json.dumps fallback
            {"n": 3},
            {"weird key": 1.0},
            {"nested": {"a": 1.0}},
        ]
        for case in cases:
            assert _encode_payload(case) == json.dumps(
                case, sort_keys=True, separators=(",", ":")
            ), case

    def test_validation_and_closed_store(self, tmp_path):
        with pytest.raises(ValueError):
            SessionStore(tmp_path / "a.db", group_commit=0)
        with pytest.raises(ValueError):
            SessionStore(tmp_path / "b.db", keep_snapshots=0)
        store = SessionStore(tmp_path / "c.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(SessionStoreError):
            store.append_journal("fix", "a", 0.0, {}, "c")


class TestRecovery:
    def _run_durable(self, db, fixes, *, checkpoint_every=10, group_commit=4,
                     config=None, rules=(), plan=None, evict_at=()):
        store = SessionStore(db, group_commit=group_commit)
        manager = SessionManager(
            _zones(),
            config,
            rules,
            plan,
            store=store,
            checkpoint_every=checkpoint_every,
        )
        for row in fixes:
            object_id, t_s, fix, confidence = row
            manager.observe(object_id, t_s, fix, confidence=confidence)
            if t_s in evict_at:
                manager.evict_idle(t_s)
        manager.sync()
        return store, manager

    def test_kalman_recovery_matches_uninterrupted_run(self, tmp_path):
        db = tmp_path / "k.db"
        fixes = _fixes()
        store, durable = self._run_durable(db, fixes)
        pre_crash = durable.log.chain()
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, report = recover(reopened, _zones(), checkpoint_every=10)
        baseline = SessionManager(_zones())
        _feed(baseline, fixes)

        assert recovered.log.digest() == baseline.log.digest()
        assert recovered.log.chain() == pre_crash
        assert report.chain == pre_crash
        assert report.snapshot_seq > 0  # a checkpoint actually fired
        assert report.replayed == len(fixes) - report.snapshot_seq
        assert report.events == len(baseline.log)
        reopened.close()

    def test_recovered_manager_continues_bit_identically(self, tmp_path):
        """The real contract: recovery is invisible to the future."""
        db = tmp_path / "p.db"
        config = SessionConfig(filter_kind="particle", seed=3)
        fixes = _fixes(ticks=10)
        cut = len(fixes) // 2
        store, _ = self._run_durable(
            db, fixes[:cut], config=config, plan=_plan(), checkpoint_every=7
        )
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, _ = recover(
            reopened, _zones(), config, plan=_plan(), checkpoint_every=7
        )
        _feed(recovered, fixes[cut:])

        baseline = SessionManager(_zones(), config, plan=_plan())
        _feed(baseline, fixes)

        # Byte-identical events AND bit-identical filter state (particle
        # clouds advanced through the restored RNGs).
        assert recovered.log.digest() == baseline.log.digest()
        for object_id in baseline.object_ids():
            a = recovered.session(object_id).filter.estimate()
            b = baseline.session(object_id).filter.estimate()
            assert a == b, object_id
        reopened.close()

    def test_evictions_and_geofence_state_survive_recovery(self, tmp_path):
        db = tmp_path / "e.db"
        rules = (
            GeofenceRule(zone="z0-0", forbidden=True),
            GeofenceRule(zone="z0-1", max_occupancy=1),
            GeofenceRule(zone="z1-2", max_dwell_s=2.0),
        )
        config = SessionConfig(
            idle_timeout_s=4.0, enter_debounce=1, exit_debounce=1
        )
        # obj-2 goes dark after t=5 so the t=11 sweep really evicts it.
        fixes = [
            row
            for row in _fixes(ticks=14)
            if not (row[0] == "obj-2" and row[1] > 5.0)
        ]
        store, durable = self._run_durable(
            db, fixes, config=config, rules=rules, evict_at=(11.0,),
            checkpoint_every=9,
        )
        assert durable.sessions_evicted_total == 1
        assert "evict" in {e.kind for e in store.journal_tail()}
        pre_crash_state = json.dumps(durable.state_dict(), sort_keys=True)
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, report = recover(
            reopened, _zones(), config, rules, checkpoint_every=9
        )
        assert json.dumps(recovered.state_dict(), sort_keys=True) == pre_crash_state
        assert recovered.sessions_evicted_total == 1
        assert report.events == len(recovered.log)
        reopened.close()

    def test_group_commit_tail_loss_is_refed_deterministically(self, tmp_path):
        """A lost unflushed tail re-applies from the fix count onward."""
        db = tmp_path / "t.db"
        fixes = _fixes()
        cut = 20
        store = SessionStore(db, group_commit=6)
        manager = SessionManager(_zones(), store=store, checkpoint_every=8)
        _feed(manager, fixes[:cut])
        # Simulate SIGKILL: the group-commit buffer never reached disk
        # (no sync() — rows 17..20 sit in memory and die with the process).
        store._pending.clear()
        store.close()

        reopened = SessionStore(db, group_commit=6)
        durable_fixes = reopened.fix_count()
        assert durable_fixes < cut  # some tail really was lost
        recovered, _ = recover(reopened, _zones(), checkpoint_every=8)
        # The deterministic feed resumes at the durable fix count.
        _feed(recovered, fixes[durable_fixes:])
        recovered.sync()

        baseline = SessionManager(_zones())
        _feed(baseline, fixes)
        assert recovered.log.digest() == baseline.log.digest()
        # Zero lost confirmed inputs: every flushed fix is in the journal.
        assert reopened.fix_count() == len(fixes)
        reopened.close()

    def test_recovered_log_chains_onto_pre_crash_prefix(self, tmp_path):
        db = tmp_path / "c.db"
        fixes = _fixes()
        store, durable = self._run_durable(db, fixes[:18])
        prefix_len = len(durable.log)
        prefix_chain = durable.log.chain_at(prefix_len)
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, _ = recover(reopened, _zones())
        _feed(recovered, fixes[18:])
        # Agreement at the shared length certifies byte-identity of the
        # whole pre-crash prefix, not just its final line.
        assert recovered.log.chain_at(prefix_len) == prefix_chain
        reopened.close()

    def test_tampered_chain_raises_recovery_error(self, tmp_path):
        db = tmp_path / "bad.db"
        store, _ = self._run_durable(db, _fixes(), checkpoint_every=1000)
        store.close()
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE journal SET chain = ? WHERE seq ="
                " (SELECT MAX(seq) FROM journal)",
                ("0" * 64,),
            )
        reopened = SessionStore(db)
        with pytest.raises(RecoveryError, match="diverged"):
            recover(reopened, _zones())
        reopened.close()

    def test_unknown_journal_kind_raises(self, tmp_path):
        db = tmp_path / "kind.db"
        with SessionStore(db, group_commit=1) as store:
            store.append_journal("teleport", "a", 0.0, {}, CHAIN_SEED)
        reopened = SessionStore(db)
        with pytest.raises(RecoveryError, match="unknown kind"):
            recover(reopened, _zones())
        reopened.close()

    def test_recover_from_empty_store(self, tmp_path):
        with SessionStore(tmp_path / "empty.db") as store:
            manager, report = recover(store, _zones())
            assert len(manager.log) == 0
            assert report.snapshot_seq == 0
            assert report.replayed == 0
            assert report.chain == CHAIN_SEED

    def test_recovered_manager_keeps_journaling(self, tmp_path):
        db = tmp_path / "cont.db"
        fixes = _fixes()
        store, _ = self._run_durable(db, fixes[:9], group_commit=1)
        store.close()
        reopened = SessionStore(db, group_commit=1)
        before = reopened.last_seq()
        recovered, _ = recover(reopened, _zones())
        _feed(recovered, fixes[9:12])
        # Post-recovery inputs land after the pre-crash sequence.
        assert reopened.last_seq() == before + 3
        reopened.close()


class TestRecoveryProperty:
    """Hypothesis: for *any* fix stream, crash point, and checkpoint /
    group-commit cadence, flushed-journal recovery plus the remaining
    feed is byte-identical to a run that never crashed."""

    @settings(max_examples=25, deadline=None)
    @given(
        stream_seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_fixes=st.integers(min_value=1, max_value=36),
        crash_at=st.integers(min_value=0, max_value=36),
        checkpoint_every=st.integers(min_value=1, max_value=12),
        group_commit=st.integers(min_value=1, max_value=8),
    )
    def test_snapshot_plus_replay_is_byte_identical(
        self, stream_seed, n_fixes, crash_at, checkpoint_every, group_commit
    ):
        crash_at = min(crash_at, n_fixes)
        rng = np.random.default_rng(np.random.SeedSequence([stream_seed]))
        fixes = [
            (
                f"obj-{int(rng.integers(0, 3))}",
                float(i),
                Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))),
                float(rng.uniform(0.2, 1.0)),
            )
            for i in range(n_fixes)
        ]
        with tempfile.TemporaryDirectory() as td:
            db = Path(td) / "prop.db"
            store = SessionStore(db, group_commit=group_commit)
            manager = SessionManager(
                _zones(), store=store, checkpoint_every=checkpoint_every
            )
            _feed(manager, fixes[:crash_at])
            manager.sync()
            store.close()

            reopened = SessionStore(db, group_commit=group_commit)
            recovered, report = recover(
                reopened, _zones(), checkpoint_every=checkpoint_every
            )
            _feed(recovered, fixes[crash_at:])

            baseline = SessionManager(_zones())
            _feed(baseline, fixes)

            assert recovered.log.digest() == baseline.log.digest()
            assert json.dumps(
                recovered.state_dict(), sort_keys=True
            ) == json.dumps(baseline.state_dict(), sort_keys=True)
            assert report.snapshot_seq + report.replayed == crash_at
            reopened.close()
