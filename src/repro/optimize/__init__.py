"""From-scratch linear-programming substrate.

Replaces the CVX solver the paper uses:

* :func:`relaxation_dual_batch` solves the weighted relaxation LP
  (Eq. 19) through its two-row dual, a bounded-variable simplex on
  stacked lanes of 2 x 2 bases;
* :func:`solve_lp` / :func:`simplex_standard_form`, a two-phase tableau
  simplex, solves the Chebyshev-centre LP;
* a log-barrier Newton solver gives the analytic "centre of the feasible
  region" the paper extracts from CVX's interior-point method.
"""

from .chebyshev import chebyshev_center, chebyshev_center_batch
from .dual import relaxation_dual_batch
from .interior_point import analytic_center, barrier_solve_lp
from .linprog import InequalityLP, solve_lp
from .simplex import simplex_standard_form
from .types import LPResult, LPStatus

__all__ = [
    "LPResult",
    "LPStatus",
    "InequalityLP",
    "solve_lp",
    "simplex_standard_form",
    "relaxation_dual_batch",
    "chebyshev_center",
    "chebyshev_center_batch",
    "analytic_center",
    "barrier_solve_lp",
]
