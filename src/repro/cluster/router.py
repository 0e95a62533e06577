"""Deterministic consistent-hash routing of topology keys onto shards.

NomLoc's constraint stack is dominated by topology-dependent state — the
convex decomposition, boundary rows and bisector memos all key off the
(venue, localizer-config) identity that
:func:`repro.serving.cache.topology_key` hashes.  Routing every query for
one topology to the *same* shard keeps that shard's
:class:`~repro.serving.cache.LocalizerCache` hot; consistent hashing
(virtual nodes on a ring) keeps the key→shard map stable when shards are
added or removed, so a resize only re-homes ``~1/num_shards`` of the
keys instead of reshuffling every cache.

Everything here is process-independent: hashes are BLAKE2b over
``repr`` — never Python's salted ``hash()`` — so two routers built with
the same shard count agree on every placement, in any process, forever,
so a venue's caches stay on one shard across restarts.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Sequence

from ..core import LocalizerConfig
from ..geometry import Polygon
from ..serving.cache import topology_key

__all__ = ["stable_hash", "route_key", "ShardRouter"]


def stable_hash(value) -> int:
    """64-bit process-independent hash of ``repr(value)``.

    ``repr`` of the tuples/floats/frozen-dataclasses making up a
    topology key is deterministic; BLAKE2b makes the mapping uniform.
    """
    digest = hashlib.blake2b(
        repr(value).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def route_key(area: Polygon, config: LocalizerConfig | None = None) -> tuple:
    """The routing key of a query: its serving-cache topology identity."""
    return topology_key(area, config or LocalizerConfig())


#: Virtual nodes per shard on the ring: enough for a smooth key
#: distribution and a ~1/num_shards remap fraction on resize.
VNODES_PER_SHARD = 64


class ShardRouter:
    """Consistent-hash ring mapping routing keys to shards.

    Parameters
    ----------
    num_shards:
        Number of shards (disjoint topology-key partitions).
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        ring = sorted(
            (stable_hash(("shard", shard, "vnode", vnode)), shard)
            for shard in range(num_shards)
            for vnode in range(VNODES_PER_SHARD)
        )
        self._ring_hashes = [h for h, _ in ring]
        self._ring_shards = [s for _, s in ring]

    def shard_for(self, key) -> int:
        """The shard owning ``key``: first vnode clockwise on the ring."""
        position = stable_hash(key)
        index = bisect.bisect_right(self._ring_hashes, position) % len(
            self._ring_hashes
        )
        return self._ring_shards[index]

    def placement(self, keys: Sequence) -> dict[int, int]:
        """Keys-per-shard histogram (diagnostics / balance tests)."""
        counts = {shard: 0 for shard in range(self.num_shards)}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts
