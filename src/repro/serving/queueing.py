"""Bounded admission control for the localization service.

The service admits a request only while fewer than ``capacity`` queries
are in flight (queued or executing); a caller beyond that waits for a
slot, so the in-flight work — and the memory behind it — stays bounded
however large a batch is.
"""

from __future__ import annotations

import threading

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Counting gate over the service's in-flight request slots.

    Not a data queue — requests themselves travel through the worker
    pool; this object only meters how many may be in flight at once and
    exposes the current depth for metrics.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._depth = 0
        self._cond = threading.Condition()

    @property
    def depth(self) -> int:
        """Number of requests currently holding a slot."""
        with self._cond:
            return self._depth

    def acquire(self) -> None:
        """Take a slot, blocking until one frees up."""
        with self._cond:
            self._cond.wait_for(lambda: self._depth < self.capacity)
            self._depth += 1

    def release(self) -> None:
        """Return a slot (called by the service when a query finishes)."""
        with self._cond:
            if self._depth <= 0:
                raise RuntimeError("release without matching acquire")
            self._depth -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every slot is returned; True unless ``timeout`` hit.

        The drain primitive: a service that has stopped admissions waits
        here for its in-flight queries before shutting the pool down.
        """
        with self._cond:
            return self._cond.wait_for(lambda: self._depth == 0, timeout)
