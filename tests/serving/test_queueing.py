"""Tests for the bounded admission queue."""

import threading

import pytest

from repro.serving import AdmissionQueue


class TestAdmissionQueue:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_release_frees_a_slot(self):
        q = AdmissionQueue(1)
        q.acquire()
        q.release()
        q.acquire()  # does not block
        assert q.depth == 1

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionQueue(1).release()

    def test_blocking_acquire_wakes_on_release(self):
        q = AdmissionQueue(1)
        q.acquire()
        acquired = threading.Event()

        def waiter():
            q.acquire()
            acquired.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        assert not acquired.wait(timeout=0.05)  # full: the waiter blocks
        q.release()
        t.join(timeout=5)
        assert acquired.is_set()
        assert q.depth == 1


class TestWaitIdle:
    def test_returns_immediately_when_empty(self):
        assert AdmissionQueue(4).wait_idle(timeout=0.01)

    def test_times_out_while_slots_held(self):
        q = AdmissionQueue(1)
        q.acquire()
        assert not q.wait_idle(timeout=0.01)

    def test_wakes_when_last_slot_returns(self):
        q = AdmissionQueue(2)
        q.acquire()
        q.acquire()
        idle = threading.Event()

        def waiter():
            if q.wait_idle(timeout=5):
                idle.set()

        t = threading.Thread(target=waiter)
        t.start()
        q.release()
        assert not idle.wait(timeout=0.05)  # one slot still held
        q.release()
        t.join(timeout=5)
        assert idle.is_set()
