"""Chebyshev centre of a polyhedron via LP.

The Chebyshev centre — the centre of the largest inscribed ball — is one of
the "centre of the feasible region" estimators NomLoc can use after space
partitioning.  For ``{x : a_i . x <= b_i}`` it solves

    maximize  r
    s.t.      a_i . x + r ||a_i|| <= b_i   for all i,   r >= 0

with our own simplex; the optimal ``r`` doubles as a feasibility
certificate (``r > 0`` iff the polyhedron has non-empty interior).

``chebyshev_center_batch`` is a loop over :func:`chebyshev_center`, kept
so callers can hand over a whole batch of regions at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linprog import solve_lp
from .types import LPResult, LPStatus

__all__ = ["chebyshev_center", "chebyshev_center_batch"]


def chebyshev_center(a_ub: np.ndarray, b_ub: np.ndarray) -> LPResult:
    """Chebyshev centre of ``{x : a_ub x <= b_ub}``.

    Returns
    -------
    LPResult
        ``x`` is the centre, ``objective`` the inscribed-ball radius.
        ``INFEASIBLE`` when the polyhedron is empty, ``UNBOUNDED`` when the
        inscribed radius is unbounded (region not bounded in all
        directions).
    """
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    m, n = a.shape
    if b.size != m:
        raise ValueError("a_ub and b_ub row counts differ")
    if m == 0:
        return LPResult(LPStatus.UNBOUNDED, message="no constraints")

    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= 0):
        raise ValueError("constraint rows must have non-zero normals")

    # Variables: [x (free, n), r (nonneg, 1)]; minimize -r.
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_aug = np.hstack([a, norms[:, None]])
    nonneg = np.zeros(n + 1, dtype=bool)
    nonneg[-1] = True
    result = solve_lp(c, a_aug, b, nonneg)

    if result.status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, message="inscribed radius unbounded")
    if not result.ok:
        return result
    radius = float(result.x[-1])
    if radius < -1e-9:
        return LPResult(LPStatus.INFEASIBLE, message="polyhedron is empty")
    return LPResult(LPStatus.OPTIMAL, result.x[:n], radius, result.iterations)


def chebyshev_center_batch(
    systems: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[LPResult]:
    """:func:`chebyshev_center` of every ``(a_ub, b_ub)`` pair, in order."""
    return [chebyshev_center(a_ub, b_ub) for a_ub, b_ub in systems]
