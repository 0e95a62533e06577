"""Process-based serving workers: real parallelism past the GIL.

The per-query LP solves hold the GIL, so worker threads add contention,
not parallelism (a thread pool measured 0.99x sequential throughput at
4x the p50).  This module runs the solves in worker **processes**
instead, with the warmed read-only state shared instead of rebuilt:

* each worker holds a full sequential :class:`LocalizationService`
  template (localizer, boundary rows, bisector cache) in a module
  global;
* under the ``fork`` start method (Linux default) the parent builds and
  warms that template *before* spawning, so every worker inherits the
  caches copy-on-write — zero per-worker warm-up, zero serialization of
  the topology state;
* under ``spawn``/``forkserver`` an initializer rebuilds the template
  from the pickled ``(area, localizer_config, serving_config)`` triple —
  slower start-up, identical behaviour.

Bit-exactness contract: a worker answers a chunk with the service's
one request handler on an inline (``max_workers=0``) template, so
responses are bit-identical to the caller running
:meth:`LocalizationService.locate_request` itself; only queue/latency
metadata differs.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core import LocalizerConfig
    from ..geometry import Polygon
    from .service import (
        LocalizationRequest,
        LocalizationResponse,
        LocalizationService,
        ServingConfig,
    )

__all__ = ["ProcessPool"]

#: The per-process template service.  In the parent it is set (and
#: warmed) before the executor forks, so fork-started workers inherit the
#: caches copy-on-write; spawn-started workers build their own copy in
#: :func:`_init_worker`.
_WORKER_SERVICE: "LocalizationService | None" = None


def _build_template(
    area: "Polygon",
    localizer_config: "LocalizerConfig | None",
    config: "ServingConfig",
) -> "LocalizationService":
    """A warmed sequential service for one worker process."""
    from .service import LocalizationService

    service = LocalizationService(area, localizer_config, config)
    # Prime the topology cache for the default venue so the first query
    # in every worker skips the convex decomposition + boundary rows.
    service._localizer_for(area)
    return service


def _init_worker(
    area: "Polygon",
    localizer_config: "LocalizerConfig | None",
    config: "ServingConfig",
) -> None:
    """Executor initializer: ensure the worker has a template service.

    Fork-started workers already inherited ``_WORKER_SERVICE`` from the
    parent and skip the rebuild; spawn-started workers construct it here.
    """
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = _build_template(area, localizer_config, config)


def _serve_in_worker(
    requests: Sequence["LocalizationRequest"],
) -> list["LocalizationResponse"]:
    """Worker entry point: one chunk through the service's handler."""
    assert _WORKER_SERVICE is not None, "worker initializer did not run"
    return _WORKER_SERVICE._serve(list(requests))


class ProcessPool:
    """Order-preserving pool of process workers for localization solves.

    Parameters
    ----------
    area, localizer_config, serving_config:
        The template the workers serve with.  ``serving_config`` is
        normalized to inline serving (``max_workers=0``) inside each
        worker so a worker never nests pools.
    max_workers:
        Process count; ``None`` picks ``os.cpu_count()`` — the right
        default here, unlike threads, because processes do not share a
        GIL.
    """

    def __init__(
        self,
        area: "Polygon",
        localizer_config: "LocalizerConfig | None",
        serving_config: "ServingConfig",
        max_workers: int | None = None,
    ) -> None:
        global _WORKER_SERVICE
        self.max_workers = max_workers or os.cpu_count() or 1
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        template_config = replace(
            serving_config, max_workers=0, lp_batch=0
        )
        ctx = multiprocessing.get_context()
        if ctx.get_start_method() == "fork":
            # Build + warm before forking so workers inherit the caches
            # copy-on-write.  Reuse an existing identical template (e.g.
            # a pool restarted with the same venue) rather than rebuild.
            _WORKER_SERVICE = _build_template(
                area, localizer_config, template_config
            )
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_worker,
            initargs=(area, localizer_config, template_config),
        )

    def submit_chunk(
        self, requests: Sequence["LocalizationRequest"]
    ) -> "Future[list[LocalizationResponse]]":
        """Schedule a chunk of one or more requests on a worker process."""
        return self._executor.submit(_serve_in_worker, list(requests))

    def shutdown(self) -> None:
        """Stop the worker processes (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: shut the pool down."""
        self.shutdown()
