"""Region-centre estimators for the final feasible region.

The paper "choose[s] the center point of the region as the approximation
result" and obtains it from CVX's interior-point solver ("the center of
the feasible region by using logarithmic barrier functions").  Two
estimators are provided and compared in the ABL-CTR ablation:

* **CENTROID** — exact area centroid of the clipped feasible polygon
  (exact in 2-D; the default);
* **ANALYTIC** — the log-barrier analytic centre (what CVX effectively
  returned to the authors), a Newton solve started from the centroid.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

import numpy as np

from ..geometry import HalfSpace, Point, Polygon, intersect_halfspaces
from ..optimize import analytic_center

__all__ = [
    "CenterMethod",
    "region_center",
    "region_centers_batch",
    "feasible_polygon",
]


class CenterMethod(enum.Enum):
    """How to turn the feasible region into a point estimate."""

    CENTROID = "centroid"
    ANALYTIC = "analytic"


def feasible_polygon(
    halfspaces: Sequence[HalfSpace], bound: Polygon
) -> Polygon | None:
    """Exact feasible polygon: the halfspaces clipped against ``bound``."""
    return intersect_halfspaces(halfspaces, bound)


#: Sentinel distinguishing "no precomputed region passed" from a caller
#: that already clipped and found the region empty (``region=None``).
_UNSET: Any = object()


def region_center(
    halfspaces: Sequence[HalfSpace],
    bound: Polygon,
    method: CenterMethod = CenterMethod.CENTROID,
    fallback: np.ndarray | None = None,
    region: Polygon | None | Any = _UNSET,
) -> Point | None:
    """Centre of ``{z : halfspaces} ∩ bound`` by the chosen method.

    Returns ``None`` when the region is empty and no ``fallback`` point is
    given; with a ``fallback`` (typically the relaxation LP's feasible
    point) a degenerate region still yields an estimate.  A caller that
    already clipped the same halfspaces may pass the result as ``region``
    (including ``None`` for "known empty") to skip the redundant clip —
    clipping is deterministic, so the centre is unchanged.
    """
    if region is _UNSET:
        region = feasible_polygon(halfspaces, bound)
    if region is None:
        if fallback is None:
            return None
        return Point(float(fallback[0]), float(fallback[1]))

    centroid = region.centroid()
    if method is CenterMethod.CENTROID:
        return centroid

    # The analytic centre works on the region's own halfspace description
    # -- the polygon edges -- which already includes the bound.  The
    # centroid of a convex polygon with positive area is strictly inside
    # it, so it is the Newton start.
    a_arr, b_arr = _region_rows(region)
    result = analytic_center(a_arr, b_arr, np.array([centroid.x, centroid.y]))
    if not result.ok:
        # A sliver whose centroid is not strictly interior (or a Newton
        # stall) keeps the exact centroid.
        return centroid
    return Point(float(result.x[0]), float(result.x[1]))


def _region_rows(region: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """The region's own halfspace description, one outward row per edge."""
    a = []
    b = []
    for edge in region.edges():
        normal = edge.normal()  # left of CCW direction = inward
        # inward normal n satisfies n . z >= n . p on the region, i.e.
        # (-n) . z <= -(n . p): outward halfspace row.
        p = edge.a
        a.append([-normal.x, -normal.y])
        b.append(-(normal.x * p.x + normal.y * p.y))
    return np.array(a), np.array(b)


def region_centers_batch(
    regions: Sequence[Polygon | None],
    fallbacks: Sequence[np.ndarray],
    method: CenterMethod = CenterMethod.CENTROID,
) -> list[Point]:
    """Centres of many already-clipped regions, one per region.

    :func:`region_center` per region with the matching ``fallback`` and
    the precomputed ``region``: empty regions fall back to their LP
    feasible point.
    """
    return [
        region_center((), None, method, fallback=fallback, region=region)
        for region, fallback in zip(regions, fallbacks)
    ]
