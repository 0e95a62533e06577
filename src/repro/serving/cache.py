"""Topology-keyed constraint caches for the localization service.

Two cache levels, mirroring the two halves of the constraint stack:

* :class:`LocalizerCache` — the expensive, query-independent prefix.  A
  warmed :class:`~repro.core.NomLocLocalizer` bundles the convex
  decomposition, the clipping bound, and every piece's boundary
  (virtual-AP mirror) rows; all of it depends only on the area polygon
  and the localizer config, so one entry serves every query against that
  topology.
* :class:`BisectorCache` — the geometric part of the PDP-dependent rows.
  A pairwise row is a perpendicular bisector *oriented* by the PDP
  comparison; the bisector itself depends only on the two anchor
  positions.  Static APs and nomadic sites recur across queries, so the
  normalized halfspaces are memoized by (near, far) position pair while
  the orientation/confidence is still judged fresh per query.

Both caches are LRU-bounded and thread-safe, and expose hit/miss
counters for the service metrics snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core import LocalizerConfig, NomLocLocalizer
from ..geometry import HalfSpace, Polygon

__all__ = ["CacheStats", "LocalizerCache", "BisectorCache", "topology_key"]


def topology_key(area: Polygon, config: LocalizerConfig) -> tuple:
    """Hashable identity of a (venue, localizer-config) topology.

    Two areas with identical vertex tuples share all topology-derived
    state; the config rides along because the boundary weight and
    confidence function change the cached rows.
    """
    return (
        tuple((v.x, v.y) for v in area.vertices),
        config,
    )


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache: lookups, hits, evictions, current size."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class _LRUCore:
    """Shared LRU plumbing of both cache classes."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("cache must hold at least one entry")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _lookup(self, key):
        """Return the cached value or None, updating recency + counters."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return value

    def _store(self, key, value):
        """Insert ``value``, evicting the least-recently-used overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` of this cache."""
        with self._lock:
            return CacheStats(
                self._hits, self._misses, self._evictions, len(self._entries)
            )

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LocalizerCache(_LRUCore):
    """LRU cache of warmed localizers, keyed by :func:`topology_key`.

    ``get`` either returns the cached instance (cache *hit*: convex
    decomposition and all boundary rows already built) or constructs a
    localizer, warms every piece's boundary rows, and caches it.
    """

    def __init__(self, max_entries: int = 8) -> None:
        super().__init__(max_entries)

    def get(
        self, area: Polygon, config: LocalizerConfig | None = None
    ) -> tuple[NomLocLocalizer, bool]:
        """``(localizer, was_hit)`` for a topology, building on miss."""
        config = config or LocalizerConfig()
        key = topology_key(area, config)
        localizer = self._lookup(key)
        if localizer is not None:
            return localizer, True
        localizer = NomLocLocalizer(area, config).warm()
        self._store(key, localizer)
        return localizer, False


class BisectorCache(_LRUCore):
    """LRU memo of normalized bisector halfspaces by anchor-position pair.

    Exposes the two-method mapping protocol
    (:meth:`get` / ``__setitem__``) that
    :func:`repro.core.constraints.pairwise_constraints_batch` consumes via its
    ``bisector_cache`` parameter.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        super().__init__(max_entries)

    def get(self, key) -> HalfSpace | None:
        """The cached halfspace for ``key``, or None on miss."""
        return self._lookup(key)

    def __setitem__(self, key, halfspace: HalfSpace) -> None:
        """Memoize a freshly built halfspace."""
        self._store(key, halfspace)
