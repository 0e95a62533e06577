"""Two-phase dense tableau simplex, written from scratch.

The paper solves its location-estimation LPs with CVX; this module is the
self-contained replacement.  It solves the standard form

    minimize    c . x
    subject to  A x = b,   x >= 0

with a Phase-I artificial-variable start and Bland's anti-cycling rule.
Problems in inequality form (including free variables) are converted by
:func:`tests.oracles.linprog.solve_lp`.

Nothing in ``src/`` calls it: the relaxation LP (Eq. 19) has its own
solver in :mod:`repro.optimize.dual`.  This general tableau is kept as
the independent reference that solver is checked against
(:mod:`tests.oracles.relaxation`).
"""

from __future__ import annotations

import numpy as np

from repro.obs import add_counter
from repro.optimize import LPResult, LPStatus

__all__ = ["simplex_standard_form"]

_TOL = 1e-9

#: Phase-I optimum above this is declared infeasible (sum of artificials).
_PHASE1_TOL = 1e-7


def simplex_standard_form(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int = 10_000,
) -> LPResult:
    """Solve ``min c.x  s.t.  a_eq x = b_eq, x >= 0``.

    Parameters
    ----------
    c, a_eq, b_eq:
        Problem data; ``a_eq`` is ``(m, n)``.
    max_iterations:
        Combined pivot budget across both phases.

    Returns
    -------
    LPResult
        With ``x`` of length ``n`` on success.
    """
    c = np.asarray(c, dtype=float).ravel()
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("a_eq must be a 2-D matrix")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")

    if m == 0:
        # No constraints: optimum is 0 if c >= 0 (at x = 0), else unbounded.
        if np.all(c >= -_TOL):
            return LPResult(LPStatus.OPTIMAL, np.zeros(n), 0.0, 0)
        return LPResult(LPStatus.UNBOUNDED, message="no constraints, negative cost")

    tableau, basis = _phase1_tableau(a, b)

    status, iters1 = _run_pivots(
        tableau, basis, tableau.shape[1] - 1, max_iterations
    )
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, iterations=iters1, message="phase 1 failed")
    if tableau[m, -1] < -_PHASE1_TOL:
        return LPResult(
            LPStatus.INFEASIBLE,
            iterations=iters1,
            message=f"phase-1 objective {-tableau[m, -1]:.3e} > 0",
        )

    _drive_out_artificials(tableau, basis, n)
    _install_phase2_objective(tableau, basis, c, n)
    # Artificial columns are forbidden from re-entering by restricting the
    # entering-column scan to the first ``n`` columns below.
    status, iters2 = _run_pivots(
        tableau, basis, n, max_iterations - iters1, allowed_cols=n
    )
    iterations = iters1 + iters2
    # Volume counter for the enclosing obs span: pivots are the simplex's
    # unit of work, the per-stage analogue of queries served.
    add_counter("simplex.pivots", iterations)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, iterations=iterations, message="phase 2 failed")
    return _extract_solution(tableau, basis, c, n, m, iterations)


def _crash_basis(a: np.ndarray) -> np.ndarray:
    """Starting-basis columns readable off the (sign-normalized) matrix.

    A column that is exactly a unit vector ``e_i`` can serve as row
    ``i``'s initial basic variable, so that row needs no artificial.
    Inequality-form conversions always append a slack identity block, and
    sign normalization turns ``-I`` blocks (e.g. the relaxation LP's
    ``-t`` columns) into unit columns on their negated rows — so typical
    NomLoc problems start fully crashed and skip Phase I outright.

    Returns the chosen column per row (the lowest-index candidate), or
    ``-1`` where no unit column exists and an artificial is required.
    """
    m, _ = a.shape
    basis_col = np.full(m, -1, dtype=np.int64)
    counts = np.count_nonzero(a, axis=0)
    for j in np.flatnonzero(counts == 1):
        i = int(np.argmax(a[:, j] != 0.0))
        if a[i, j] == 1.0 and basis_col[i] < 0:
            basis_col[i] = j
    return basis_col


def _phase1_tableau(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Build the Phase-I tableau and its crash/artificial starting basis."""
    m, n = a.shape
    # Normalize to b >= 0 so the starting basis is feasible.
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase I: minimize the sum of the artificial variables, one per row
    # the crash scan could not cover.  Rows covered by a unit column start
    # from that column instead; when every row is covered the Phase-I
    # objective is identically zero and the phase ends without a pivot.
    basis_col = _crash_basis(a)
    art_rows = np.flatnonzero(basis_col < 0)
    n_art = art_rows.size
    tableau = np.zeros((m + 1, n + n_art + 1))
    tableau[:m, :n] = a
    tableau[art_rows, n + np.arange(n_art)] = 1.0
    tableau[:m, -1] = b
    # Phase-I objective row: reduced costs in the starting basis — only
    # the artificial (uncovered) rows contribute.
    tableau[m, :n] = -a[art_rows].sum(axis=0)
    tableau[m, -1] = -b[art_rows].sum()

    basis = [int(v) for v in basis_col]
    for k, row in enumerate(art_rows):
        basis[row] = n + k
    return tableau, basis


def _drive_out_artificials(
    tableau: np.ndarray, basis: list[int], n: int
) -> None:
    """Pivot leftover basic artificial variables out after Phase I.

    Membership tests run once per (row, column) pair, so keep a set view
    of the basis in step with the list instead of scanning it per
    candidate column.
    """
    in_basis = set(basis)
    for row, var in enumerate(basis):
        if var < n:
            continue
        pivot_col = next(
            (
                j
                for j in range(n)
                if abs(tableau[row, j]) > _TOL and j not in in_basis
            ),
            None,
        )
        if pivot_col is None:
            # Redundant constraint row; the artificial stays basic at 0,
            # which is harmless as long as its column is never re-entered.
            continue
        _pivot(tableau, row, pivot_col)
        in_basis.discard(basis[row])
        in_basis.add(pivot_col)
        basis[row] = pivot_col


def _install_phase2_objective(
    tableau: np.ndarray, basis: list[int], c: np.ndarray, n: int
) -> None:
    """Install the real objective expressed in the current basis."""
    m = tableau.shape[0] - 1
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for row, var in enumerate(basis):
        if var < n and abs(c[var]) > 0:
            tableau[m, :] -= c[var] * tableau[row, :]


def _extract_solution(
    tableau: np.ndarray,
    basis: list[int],
    c: np.ndarray,
    n: int,
    m: int,
    iterations: int,
) -> LPResult:
    """Read the optimal point off the final tableau."""
    x = np.zeros(n + m)
    for row, var in enumerate(basis):
        x[var] = tableau[row, -1]
    solution = x[:n]
    return LPResult(
        LPStatus.OPTIMAL, solution, float(c @ solution), iterations
    )


def _run_pivots(
    tableau: np.ndarray,
    basis: list[int],
    num_cols: int,
    budget: int,
    allowed_cols: int | None = None,
) -> tuple[LPStatus, int]:
    """Run simplex pivots in place until optimal/unbounded/budget."""
    m = tableau.shape[0] - 1
    limit = allowed_cols if allowed_cols is not None else num_cols
    iterations = 0
    while True:
        if iterations >= budget:
            return LPStatus.ITERATION_LIMIT, iterations
        # Bland's rule: first improving column.
        improving = np.flatnonzero(tableau[m, :limit] < -_TOL)
        if improving.size == 0:
            return LPStatus.OPTIMAL, iterations
        entering = int(improving[0])
        col = tableau[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > _TOL
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        if not np.isfinite(ratios).any():
            return LPStatus.UNBOUNDED, iterations
        best = ratios.min()
        # Bland's rule on ties: leave the row whose basic variable has the
        # smallest index (argmin returns the first minimum, matching the
        # candidate scan order).
        candidates = np.flatnonzero(ratios <= best + _TOL)
        leaving = int(candidates[np.argmin([basis[i] for i in candidates])])
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gaussian pivot on ``tableau[row, col]`` in place.

    Vectorized over rows; each updated element sees the exact operation
    sequence (one multiply, one subtract) of the natural per-row loop,
    so solutions are bit-identical to the scalar formulation — only the
    Python-level loop overhead is gone.
    """
    pivot_val = tableau[row, col]
    tableau[row, :] /= pivot_val
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    update = (factors != 0) & np.isfinite(factors)
    if update.any():
        tableau[update, :] -= factors[update, None] * tableau[row, :]
