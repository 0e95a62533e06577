"""The instrumentation switch: ``span()`` that costs ~nothing when off.

Pipeline code imports exactly two functions from here::

    from ..obs import span, add_counter

    def locate_batch(...):
        with span("lp.solve_batch", queries=len(queries)):
            ...

    # deep inside the simplex:
    add_counter("simplex.pivots", iterations)

When no tracer is installed (the default), :func:`span` returns a shared
:data:`NULL_SPAN` and :func:`add_counter` returns after one global read —
the disabled cost is one function call plus a ``None`` check, guarded by
``benchmarks/bench_obs_overhead.py``.  Instrumentation never alters what
the instrumented code computes; it only observes wall time.

Enabling is process-global on purpose: tracing is an operator decision
(``repro serve --trace``, a debugging session), not a per-call-site
one, and a module-level global is the cheapest thing the disabled path
can read.  :func:`capture` scopes enablement for tests.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from .trace import Tracer

__all__ = [
    "NULL_SPAN",
    "add_counter",
    "capture",
    "current_span",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "span",
]

#: The installed tracer; ``None`` means tracing is off (the default).
_tracer: Tracer | None = None


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        """Ignore attributes (tracing is off)."""
        return self

    def incr(self, counter: str, value: float = 1.0) -> "_NullSpan":
        """Ignore counters (tracing is off)."""
        return self


NULL_SPAN = _NullSpan()


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-global tracer."""
    global _tracer
    if tracer is None:
        tracer = Tracer()
    _tracer = tracer
    return tracer


def disable() -> None:
    """Remove the global tracer; ``span()`` reverts to the no-op."""
    global _tracer
    _tracer = None


def is_enabled() -> bool:
    """True when a tracer is installed."""
    return _tracer is not None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is off."""
    return _tracer


def span(name: str, **attrs):
    """A context-managed span when tracing is on; the no-op otherwise.

    This is the only function instrumented call sites should need; its
    disabled path is deliberately branch-one-global-read cheap.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.start(name, **attrs)


def current_span() -> "Span | _NullSpan":
    """The calling thread's innermost active span (no-op span when off)."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.current() or NULL_SPAN


def add_counter(counter: str, value: float = 1.0) -> None:
    """Accumulate onto the active span's counter, if tracing is on.

    Lets deep code (the simplex pivot loop) report volume metrics without
    knowing which stage span it runs under.
    """
    tracer = _tracer
    if tracer is None:
        return
    active = tracer.current()
    if active is not None:
        active.incr(counter, value)


@contextlib.contextmanager
def capture(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scope tracing to a ``with`` block, restoring the previous state.

    The test-and-tooling entry point::

        with obs.capture() as tracer:
            localizer.locate(anchors)
        names = [s.name for s in tracer.finished()]
    """
    global _tracer
    previous = _tracer
    installed = tracer if tracer is not None else Tracer()
    _tracer = installed
    try:
        yield installed
    finally:
        _tracer = previous
