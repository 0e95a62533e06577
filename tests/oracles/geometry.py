"""Sutherland–Hodgman clipping on :class:`Polygon` objects, one halfspace
at a time: the reference for :func:`repro.geometry.intersect_halfspaces`
and its batch form."""

from __future__ import annotations

from typing import Iterable

from repro.geometry import EPS, HalfSpace, Point, Polygon


def clip_polygon(polygon: Polygon | None, hs: HalfSpace) -> Polygon | None:
    """Clip a convex polygon by one halfspace.

    Returns ``None`` when the intersection is empty or degenerate (area
    below :data:`~repro.geometry.EPS`).
    """
    if polygon is None:
        return None
    verts = polygon.vertices
    out: list[Point] = []
    n = len(verts)
    for i in range(n):
        cur = verts[i]
        nxt = verts[(i + 1) % n]
        cur_in = hs.evaluate(cur) >= -EPS
        nxt_in = hs.evaluate(nxt) >= -EPS
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            # Edge crosses the boundary line: add the crossing point.
            denom = hs.ax * (nxt.x - cur.x) + hs.ay * (nxt.y - cur.y)
            if abs(denom) > EPS:
                t = (hs.b - hs.ax * cur.x - hs.ay * cur.y) / denom
                t = max(0.0, min(1.0, t))
                out.append(cur + (nxt - cur) * t)
    # Drop consecutive (cyclically) near-duplicate vertices.
    cleaned: list[Point] = []
    for p in out:
        if not cleaned or not cleaned[-1].almost_equals(p, 1e-9):
            cleaned.append(p)
    if len(cleaned) > 1 and cleaned[0].almost_equals(cleaned[-1], 1e-9):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    clipped = Polygon(tuple(cleaned))
    if clipped.area() <= EPS:
        return None
    return clipped


def clip_halfspaces(
    halfspaces: Iterable[HalfSpace], bound: Polygon
) -> Polygon | None:
    """``bound`` clipped by every halfspace in turn."""
    region: Polygon | None = bound
    for hs in halfspaces:
        region = clip_polygon(region, hs)
    return region
