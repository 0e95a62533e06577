"""From-scratch optimization substrate.

Replaces the CVX solver the paper uses:

* :func:`relaxation_dual_batch` solves the weighted relaxation LP
  (Eq. 19) through its two-row dual, a bounded-variable simplex on
  stacked lanes of 2 x 2 bases;
* :func:`analytic_center`, a log-barrier Newton solve, gives the
  "centre of the feasible region" the paper extracts from CVX's
  interior-point method.
"""

from .dual import relaxation_dual_batch
from .interior_point import analytic_center
from .types import LPResult, LPStatus

__all__ = [
    "LPResult",
    "LPStatus",
    "relaxation_dual_batch",
    "analytic_center",
]
