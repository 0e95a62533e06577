"""Eq. 19 through its two-row dual: stacked lanes of 2 x 2 bases.

The relaxation LP

    minimize  w . t   s.t.  A z - t <= b,  t >= 0      (z in R^2, free)

has only two free variables.  Its Lagrangian dual, written as a
minimization,

    minimize  b . y   s.t.  A^T y = 0,  0 <= y <= w

has two equality rows and box bounds, so a bounded-variable simplex on
it keeps a 2 x 2 basis, solved directly by elimination with partial
pivoting, and every iteration costs O(m) instead of the O(m^2) of a
tableau pivot.

* **Start.** ``y = 0`` is feasible, so two artificial columns ``e_x``,
  ``e_y`` fixed at zero form the first basis; they leave on the first
  degenerate pivots and can never re-enter.
* **Pricing.** The reduced cost of ``y_j`` is ``d_j = b_j - a_j . pi``
  with ``pi`` the basis multipliers.  Dantzig's rule enters the largest
  violation; after a degenerate step (nothing moved) Bland's rule enters
  the lowest eligible index instead, so the method cannot cycle.
* **Ratio test.** Only the two basic variables can block; the entering
  variable's own box (``0 <= y_j <= w_j``) gives a bound flip, which
  changes no basis and wins ties.  Tied basic variables leave by lowest
  index, artificials first.
* **Primal recovery.** At the optimum ``z = pi`` (with this sign
  convention): rows at ``y_j = 0`` are satisfied, rows at ``y_j = w_j``
  are violated, and ``t = max(A z - b, 0)``.  Violations inside the
  pricing tolerance, such as the rounding residue of the basic rows
  through ``z``, read as 0, so a feasible system costs exactly 0.

Lanes are stacked: every iteration prices all lanes in one NumPy pass
over a ``(lanes, rows)`` array, then each still-running lane updates its
own 2 x 2 basis in scalar arithmetic.  Lanes shorter than the
longest are padded with rows fixed at ``y = 0`` (``w = 0``) that can
never enter, and every decision reads only the lane's own entries, so a
lane's answer is bit-identical whatever else shares the batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import add_counter

__all__ = ["relaxation_dual_batch"]

#: Pricing tolerance: a reduced cost must beat this, times
#: ``1 + |pi|_1``, to enter.  Reduced costs are metres of violation
#: (constraint rows have unit normals), so this bounds how far the
#: optimum may leave a row unpaid, well below the 1e-9 m the primal is
#: checked to; the ``|pi|`` factor follows the rounding of ``a_j . pi``.
_TOL = 1e-12
#: Entries of ``B^-1 a_j`` below this never block the ratio test: they
#: are rounding residue of exactly parallel rows.  Anything larger must
#: block, or an artificial basic column would drift off zero and pin a
#: coordinate of ``z`` (rows 4e-10 rad off parallel are real geometry).
_PIVOT_TOL = 1e-12
#: A step no longer than this counts as degenerate (Bland's rule next).
_DEGENERATE = 1e-12
#: Iteration budget per lane; the dual is bounded, so hitting it means
#: the arithmetic broke down, not that the LP is hard.
_MAX_ITERATIONS = 10_000

#: Basis slots for the artificial columns ``e_x`` and ``e_y``: below
#: every row index, so Bland's tie-break drives them out first.
_ART_X, _ART_Y = -2, -1


def _solve(m00: float, m01: float, m10: float, m11: float, v0: float, v1: float):
    """``x`` with ``[[m00, m01], [m10, m11]] x = v``, by partial pivoting.

    Backward stable, unlike an explicit inverse: with near-parallel basis
    rows the residual stays at rounding level, so a row identical to a
    basic one prices at zero instead of at an amplified error that would
    let the two swap forever.
    """
    if abs(m10) > abs(m00):
        m00, m01, m10, m11, v0, v1 = m10, m11, m00, m01, v1, v0
    f = m10 / m00
    x1 = (v1 - f * v0) / (m11 - f * m01)
    return (v0 - m01 * x1) / m00, x1


class _Lane:
    """One LP's basis: two indices, their 2 x 2 matrix, the upper-bound sum.

    ``sign``, ``pi`` and ``tol`` are this lane's rows of the stacked
    pricing arrays, updated in place: ``sign[j]`` is -1 for a row at
    ``y_j = 0``, +1 at ``y_j = w_j`` and 0 for basic or fixed rows; ``pi``
    holds the multipliers and ``tol`` the pricing tolerance.
    """

    __slots__ = "ax ay b w basis mat rx ry bland sign pi tol".split()

    def __init__(self, a, b, w, sign, pi, tol) -> None:
        self.ax = a[:, 0].tolist()
        self.ay = a[:, 1].tolist()
        self.b = b.tolist()
        self.w = w.tolist()
        self.basis = [_ART_X, _ART_Y]
        self.mat = (1.0, 0.0, 0.0, 1.0)  # row-major, basic columns side by side
        # r = sum of a_j w_j over the rows at their upper bound, so the
        # basic values solve  mat @ y_B = -r.
        self.rx = self.ry = 0.0
        self.bland = False
        self.sign, self.pi, self.tol = sign, pi, tol

    def column(self, j: int) -> tuple[float, float, float]:
        """``(a_x, a_y, b)`` of basis slot value ``j``."""
        if j == _ART_X:
            return 1.0, 0.0, 0.0
        if j == _ART_Y:
            return 0.0, 1.0, 0.0
        return self.ax[j], self.ay[j], self.b[j]

    def step(self, j: int) -> None:
        """Enter row ``j``: a bound flip, or a pivot that swaps the basis."""
        sign = self.sign
        at = float(sign[j])
        qx, qy, wq = self.ax[j], self.ay[j], self.w[j]
        # y_j moves by -at * theta; the basic pair by at * theta * u.
        u0, u1 = _solve(*self.mat, qx, qy)
        u0, u1 = -at * u0, -at * u1
        y0, y1 = _solve(*self.mat, -self.rx, -self.ry)
        theta, leave = wq, -1
        for slot, alpha, y in ((0, u0, y0), (1, u1, y1)):
            var = self.basis[slot]
            if alpha > _PIVOT_TOL:  # falls to 0
                ratio = y / alpha
            elif alpha < -_PIVOT_TOL:  # rises to its upper bound
                ratio = ((0.0 if var < 0 else self.w[var]) - y) / -alpha
            else:
                continue
            ratio = max(ratio, 0.0)
            if ratio < theta or (
                ratio == theta and leave >= 0 and var < self.basis[leave]
            ):
                theta, leave = ratio, slot
        self.bland = theta <= _DEGENERATE
        if leave < 0:  # bound flip: same basis, same multipliers
            sign[j] = -at
            self.rx -= at * wq * qx
            self.ry -= at * wq * qy
            return
        out = self.basis[leave]
        if out >= 0:
            if (u0, u1)[leave] > 0:
                sign[out] = -1.0
            else:
                sign[out] = 1.0
                self.rx += self.w[out] * self.ax[out]
                self.ry += self.w[out] * self.ay[out]
        if at > 0:  # entering from its upper bound leaves the sum
            self.rx -= wq * qx
            self.ry -= wq * qy
        sign[j] = 0.0
        self.basis[leave] = j
        m00, m10, c0 = self.column(self.basis[0])
        m01, m11, c1 = self.column(self.basis[1])
        self.mat = (m00, m01, m10, m11)
        px, py = _solve(m00, m10, m01, m11, c0, c1)  # mat^T pi = c_B
        self.pi[0], self.pi[1] = px, py
        self.tol[0] = _TOL * (1.0 + abs(px) + abs(py))


def relaxation_dual_batch(
    problems: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Solve Eq. 19 for every ``(A, b, w)`` in one stacked dual simplex.

    ``A`` is ``(m, 2)`` and ``b``, ``w`` are ``(m,)``; row counts may
    differ between problems.  Returns ``(z, t, cost)`` per problem, in
    input order, with ``cost = w . t``.  The iterations of every lane are
    added to the ``simplex.pivots`` counter of the enclosing span.

    Raises
    ------
    RuntimeError
        If a lane exceeds the iteration budget (numerical breakdown).
    """
    if not problems:
        return []
    rows = [b.size for _, b, _ in problems]
    width = max(rows)
    ax = np.zeros((len(problems), width))
    ay = np.zeros_like(ax)
    bb = np.zeros_like(ax)
    # Padding rows keep sign 0: they price to a zero score and never enter.
    sign = np.zeros_like(ax)
    pi = np.zeros((len(problems), 2))
    tol = np.full((len(problems), 1), _TOL)
    lanes = []
    for k, (a, b, w) in enumerate(problems):
        m = rows[k]
        ax[k, :m] = a[:, 0]
        ay[k, :m] = a[:, 1]
        bb[k, :m] = b
        sign[k, :m] = np.where(w > 0, -1.0, 0.0)
        lanes.append(_Lane(a, b, w, sign[k], pi[k], tol[k]))

    pi_x, pi_y = pi[:, :1], pi[:, 1:]  # views: lanes update pi in place
    running = list(range(len(problems)))
    iterations = rounds = 0
    while running:
        rounds += 1
        if rounds > _MAX_ITERATIONS:
            raise RuntimeError("relaxation dual simplex exceeded its budget")
        score = (bb - ax * pi_x - ay * pi_y) * sign
        eligible = score > tol
        open_lanes = eligible.any(axis=1).tolist()
        running = [k for k in running if open_lanes[k]]
        dantzig = score.argmax(axis=1).tolist()
        first = None
        if any(lanes[k].bland for k in running):
            first = eligible.argmax(axis=1).tolist()
        for k in running:
            lane = lanes[k]
            lane.step(first[k] if lane.bland else dantzig[k])
        iterations += len(running)
    add_counter("simplex.pivots", iterations)

    out = []
    for pik, tolk, (a, b, w) in zip(pi, tol, problems):
        z = pik.copy()
        # Violations inside the pricing tolerance are rounding (the basic
        # rows pass through z exactly in exact arithmetic) and read as 0.
        t = a @ z - b
        t[t <= tolk[0]] = 0.0
        out.append((z, t, float(w @ t)))
    return out
