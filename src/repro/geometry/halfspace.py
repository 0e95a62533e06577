"""Halfspaces and 2-D halfspace intersection by polygon clipping.

Every proximity judgement in NomLoc is a linear inequality
``a . z <= b`` (Eq. 7 of the paper).  Because the unknown ``z`` is a 2-D
position, the feasible region of any constraint stack is a convex polygon
and can be computed *exactly* by Sutherland–Hodgman clipping — no LP solver
is needed to find its centre.  :mod:`repro.optimize` is still used for the
weighted relaxation (Eq. 19) and for the analytic centre; this module
provides the exact geometric ground truth the solvers are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .polygon import Polygon
from .primitives import EPS, Point

__all__ = [
    "HalfSpace",
    "intersect_halfspaces",
    "intersect_rows",
    "bisector_halfspace",
    "halfspaces_to_matrix",
]


@dataclass(frozen=True, slots=True)
class HalfSpace:
    """The closed halfplane ``ax * x + ay * y <= b``."""

    ax: float
    ay: float
    b: float

    def __post_init__(self) -> None:
        if math.hypot(self.ax, self.ay) <= EPS:
            raise ValueError("halfspace normal must be non-zero")

    def evaluate(self, p: Point) -> float:
        """Signed slack ``b - a . p`` (non-negative inside)."""
        return self.b - (self.ax * p.x + self.ay * p.y)

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """True when ``p`` satisfies the inequality within ``tol``."""
        return self.evaluate(p) >= -tol

    def normalized(self) -> "HalfSpace":
        """Scale so the normal has unit length (distances become metric)."""
        n = math.hypot(self.ax, self.ay)
        return HalfSpace(self.ax / n, self.ay / n, self.b / n)

    def relaxed(self, slack: float) -> "HalfSpace":
        """The halfspace loosened by ``slack`` (``a . z <= b + slack``)."""
        if slack < 0:
            raise ValueError("slack must be non-negative")
        return HalfSpace(self.ax, self.ay, self.b + slack)

    def boundary_distance(self, p: Point) -> float:
        """Perpendicular distance from ``p`` to the boundary line."""
        n = math.hypot(self.ax, self.ay)
        return abs(self.ax * p.x + self.ay * p.y - self.b) / n

    def as_row(self) -> tuple[float, float, float]:
        """``(ax, ay, b)`` for stacking into matrix form."""
        return (self.ax, self.ay, self.b)


def bisector_halfspace(near: Point, far: Point) -> HalfSpace:
    """Halfspace of points at least as close to ``near`` as to ``far``.

    This is Eq. 7 of the paper: closer to AP ``i`` (= ``near``) than AP
    ``j`` (= ``far``) iff ``2(xj - xi) x + 2(yj - yi) y <= xj^2 + yj^2 -
    xi^2 - yi^2``.
    """
    if near.almost_equals(far):
        raise ValueError("bisector of coincident points is undefined")
    ax = 2.0 * (far.x - near.x)
    ay = 2.0 * (far.y - near.y)
    b = far.x**2 + far.y**2 - near.x**2 - near.y**2
    return HalfSpace(ax, ay, b)


def intersect_halfspaces(
    halfspaces: Iterable[HalfSpace], bound: Polygon
) -> Polygon | None:
    """Intersect halfspaces with a bounding polygon.

    ``bound`` must be convex; it anchors the (possibly unbounded) halfspace
    intersection to the area of interest.  Returns the feasible polygon or
    ``None`` when the constraints are jointly infeasible inside ``bound``.

    The clipping runs on plain coordinate tuples (one Sutherland–Hodgman
    pass of :func:`_clip_coords` per halfspace) and only the final region
    is materialized as a :class:`Polygon`.
    """
    return intersect_rows(*halfspaces_to_matrix(list(halfspaces)), bound)


def _clip_coords(
    verts: list[tuple[float, float]], ax: float, ay: float, b: float
) -> list[tuple[float, float]] | None:
    """Clip a convex polygon by one halfspace (Sutherland–Hodgman).

    Takes and returns CCW vertex tuples; ``None`` when the intersection
    is empty or degenerate (fewer than three distinct vertices, or area
    below :data:`~repro.geometry.primitives.EPS`).
    """
    out: list[tuple[float, float]] = []
    n = len(verts)
    # One slack sign per vertex — the edge walk below reads each vertex
    # twice (as current and as next), so evaluating upfront halves the
    # arithmetic without changing any expression.
    inside = [b - (ax * x + ay * y) >= -EPS for x, y in verts]
    emit = out.append
    for i in range(n):
        k = i + 1 if i + 1 < n else 0
        cur_in = inside[i]
        if cur_in:
            emit(verts[i])
        if cur_in != inside[k]:
            # Edge crosses the boundary line: add the crossing point.
            cx, cy = verts[i]
            nx, ny = verts[k]
            denom = ax * (nx - cx) + ay * (ny - cy)
            if abs(denom) > EPS:
                t = (b - ax * cx - ay * cy) / denom
                t = max(0.0, min(1.0, t))
                emit((cx + (nx - cx) * t, cy + (ny - cy) * t))
    # Consecutive (cyclic) near-duplicate vertex removal.
    cleaned: list[tuple[float, float]] = []
    for x, y in out:
        if (
            not cleaned
            or abs(cleaned[-1][0] - x) > 1e-9
            or abs(cleaned[-1][1] - y) > 1e-9
        ):
            cleaned.append((x, y))
    if (
        len(cleaned) > 1
        and abs(cleaned[0][0] - cleaned[-1][0]) <= 1e-9
        and abs(cleaned[0][1] - cleaned[-1][1]) <= 1e-9
    ):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    # Shoelace, replicating Polygon.signed_area term order exactly.
    total = 0.0
    k = len(cleaned)
    for i in range(k):
        px, py = cleaned[i]
        qx, qy = cleaned[(i + 1) % k]
        total += px * qy - qx * py
    signed = total / 2.0
    if abs(signed) <= EPS:
        return None
    if signed < 0:
        # Polygon.__post_init__ normalizes orientation the same way.
        cleaned.reverse()
    return cleaned


def intersect_rows(
    a: np.ndarray, b: np.ndarray, bound: Polygon
) -> Polygon | None:
    """Clip ``bound`` by the row stack ``a z <= b``, row by row.

    ``a`` has shape ``(m, 2)`` and ``b`` shape ``(m,)``.  Returns the
    feasible polygon, or ``None`` when the rows are jointly infeasible or
    leave a degenerate sliver inside ``bound``.
    """
    verts: list[tuple[float, float]] | None
    verts = [(p.x, p.y) for p in bound.vertices]
    # ``tolist`` yields the same Python floats as per-element ``float()``
    # reads, without a NumPy scalar round trip per row.
    for (ax, ay), bj in zip(a.tolist(), b.tolist()):
        verts = _clip_coords(verts, ax, ay, bj)
        if verts is None:
            return None
    return Polygon(tuple(Point(x, y) for x, y in verts))


def halfspaces_to_matrix(
    halfspaces: Sequence[HalfSpace],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack halfspaces into ``(A, b)`` with rows ``a_i . z <= b_i``."""
    if not halfspaces:
        return np.zeros((0, 2)), np.zeros(0)
    a = np.array([[h.ax, h.ay] for h in halfspaces], dtype=float)
    b = np.array([h.b for h in halfspaces], dtype=float)
    return a, b
