"""Log-barrier analytic centre.

The paper (Sec. IV-B4) solves its LPs with CVX's interior-point method and
notes that it "can return the center of the feasible region by using
logarithmic barrier functions".  :func:`analytic_center` reproduces that
centre from scratch: the minimizer of the log-barrier
``phi(x) = -sum_i log(b_i - a_i . x)`` over ``{A x < b}``, by damped
Newton with backtracking from a strictly interior start.
"""

from __future__ import annotations

import numpy as np

from .types import LPResult, LPStatus

__all__ = ["analytic_center"]


def _newton_centering(
    a: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> tuple[np.ndarray, int, bool]:
    """Damped Newton for ``min phi(x)`` from interior x0.

    Returns ``(x, iterations, converged)``.
    """
    x = x0.astype(float).copy()
    n = x.size
    for it in range(max_iterations):
        slack = b - a @ x
        if np.any(slack <= 0):  # pragma: no cover - guarded by line search
            raise RuntimeError("Newton iterate left the interior")
        inv_s = 1.0 / slack
        grad = a.T @ inv_s
        hess = (a * inv_s[:, None] ** 2).T @ a
        # Tikhonov fallback keeps the step defined when constraints are
        # rank-deficient (e.g. all normals parallel).
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = -np.linalg.solve(hess + 1e-10 * np.eye(n), grad)
        decrement_sq = float(-grad @ step)
        if decrement_sq / 2.0 <= tol:
            return x, it, True
        # Backtracking line search: stay strictly interior, Armijo on the
        # barrier objective.
        t = 1.0
        fx = _barrier_value(a, b, x)
        alpha, beta = 0.25, 0.5
        for _ in range(60):
            cand = x + t * step
            if np.all(b - a @ cand > 0):
                f_cand = _barrier_value(a, b, cand)
                if f_cand <= fx + alpha * t * float(grad @ step):
                    break
            t *= beta
        else:
            return x, it, False
        x = x + t * step
    return x, max_iterations, False


def _barrier_value(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    return -float(np.sum(np.log(b - a @ x)))


def analytic_center(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    x0: np.ndarray,
    tol: float = 1e-10,
) -> LPResult:
    """Analytic centre of the polyhedron ``{x : a_ub x <= b_ub}``.

    The polyhedron must be bounded with non-empty interior, and ``x0``
    must be strictly inside it; otherwise the result is ``INFEASIBLE``.
    """
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.shape[0] != b.size:
        raise ValueError("a_ub and b_ub row counts differ")
    x0 = np.asarray(x0, dtype=float).ravel()
    if np.any(b - a @ x0 <= 0):
        return LPResult(
            LPStatus.INFEASIBLE, message="supplied x0 is not strictly interior"
        )
    x, iters, converged = _newton_centering(a, b, x0, tol)
    if not converged:
        return LPResult(
            LPStatus.ITERATION_LIMIT,
            x,
            _barrier_value(a, b, x),
            iters,
            "Newton centering did not converge",
        )
    return LPResult(LPStatus.OPTIMAL, x, _barrier_value(a, b, x), iters)
