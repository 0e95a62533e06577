"""The relaxation LP (Eq. 19) as one ``m x (m+2)`` tableau simplex.

``src/`` solves Eq. 19 through its two-row dual
(:mod:`repro.optimize.dual`).  This is the construction it replaced —
``[A | -I]`` handed to the general two-phase tableau simplex of
:mod:`tests.oracles.simplex` — kept as the reference the dual solver's
answers are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ConstraintSystem, RelaxationResult
from repro.optimize import LPStatus

from .linprog import solve_lp


def solve_relaxation(system: ConstraintSystem) -> RelaxationResult:
    """Solve ``min w.t  s.t.  A z - t <= b, t >= 0`` on the full tableau."""
    if len(system) == 0:
        raise ValueError("cannot relax an empty constraint system")
    a, b, w = system.matrices()
    m = len(system)
    # Variables: [z_x, z_y (free), t_1..t_m (nonneg)].
    c = np.concatenate([[0.0, 0.0], w])
    a_lp = np.hstack([a, -np.eye(m)])
    nonneg = np.array([False, False] + [True] * m)
    result = solve_lp(c, a_lp, b, nonneg)
    if result.status is not LPStatus.OPTIMAL:
        raise RuntimeError(
            f"relaxation LP unexpectedly failed: {result.status} "
            f"({result.message})"
        )
    z = result.x[:2]
    t = np.maximum(result.x[2:], 0.0)
    return RelaxationResult(z, t, float(result.objective), system)


def costs_agree(got: float, ref: float) -> bool:
    """Relaxation costs equal to 1e-12 relative (1e-12 absolute at 0).

    The dual solver computes ``w . t`` from its own ``t``, so its cost may
    differ from the tableau's in the last bits; positions, regions and
    satisfied sets stay bit-identical.
    """
    return math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12)
