"""The weighted constraint-relaxation LP (Eq. 19).

Erroneous proximity judgements can make the raw constraint stack
infeasible, so NomLoc solves

    minimize   w . t
    subject to A z - t <= b,   t >= 0

retaining high-weight constraints and sacrificing cheap ones.  When the
stack is feasible the optimum has ``t = 0`` and the problem reduces to the
pure feasibility LP of Eq. 16.  The relaxed slacks then define the final
*feasible region* ``{z : A z <= b + t*}``, whose centre becomes the
location estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import HalfSpace
from ..optimize import relaxation_dual_batch
from .constraints import ConstraintSystem

__all__ = ["RelaxationResult", "solve_relaxation", "solve_relaxation_batch"]

#: Slacks below this are treated as exactly satisfied constraints.
_SLACK_TOL = 1e-7


@dataclass(frozen=True)
class RelaxationResult:
    """Solution of the relaxation LP over one constraint system.

    Attributes
    ----------
    feasible_point:
        The LP's ``z`` — some point inside the relaxed region.
    slacks:
        Optimal ``t`` per constraint (0 for satisfied rows).
    cost:
        ``w . t``; 0 iff the original stack was feasible.
    system:
        The constraint system the LP was built from.
    """

    feasible_point: np.ndarray
    slacks: np.ndarray
    cost: float
    system: ConstraintSystem

    @property
    def was_feasible(self) -> bool:
        """True when no constraint needed relaxing (Eq. 16 had a solution)."""
        return self.cost <= _SLACK_TOL

    def violated_labels(self) -> list[str]:
        """Labels of constraints the optimum had to break."""
        return [
            c.label
            for c, t in zip(self.system.constraints, self.slacks)
            if t > _SLACK_TOL
        ]

    def relaxed_halfspaces(self) -> list[HalfSpace]:
        """Every row loosened by its slack.

        Note that this region is often *degenerate*: two directly
        conflicting rows relaxed minimally just touch, leaving a region of
        zero width.  Centering should normally use
        :meth:`satisfied_halfspaces` instead.
        """
        return [
            c.halfspace.relaxed(float(max(t, 0.0)))
            for c, t in zip(self.system.constraints, self.slacks)
        ]

    def satisfied_halfspaces(self) -> list[HalfSpace]:
        """The rows the optimum kept (``t_i = 0``), unrelaxed.

        Sacrificed rows (``t_i > 0``) correspond to proximity judgements
        the LP decided were erroneous; dropping them leaves the consistent
        sub-system whose feasible region has proper interior, which is
        what the location estimate should be the centre of.
        """
        return [
            c.halfspace
            for c, t in zip(self.system.constraints, self.slacks)
            if t <= _SLACK_TOL
        ]


def solve_relaxation(system: ConstraintSystem) -> RelaxationResult:
    """Solve Eq. 19 for one constraint system: a batch of one.

    Raises
    ------
    ValueError
        If the system is empty.
    RuntimeError
        If the solver breaks down numerically — it should not, since the
        relaxed problem is always feasible (any ``z`` works with big
        enough ``t``) and bounded below by 0.
    """
    return solve_relaxation_batch([system])[0]


def solve_relaxation_batch(
    systems: Sequence[ConstraintSystem],
) -> list[RelaxationResult]:
    """Solve Eq. 19 for many constraint systems in one stacked pass.

    Every system's LP is solved through its two-row dual
    (:func:`~repro.optimize.relaxation_dual_batch`), whatever its row
    count: lanes of different lengths share one padded stack, and each
    lane's answer is bit-identical to solving its system alone.
    """
    problems = []
    for system in systems:
        if len(system) == 0:
            raise ValueError("cannot relax an empty constraint system")
        problems.append(system.matrices())
    return [
        RelaxationResult(z, t, cost, system)
        for system, (z, t, cost) in zip(systems, relaxation_dual_batch(problems))
    ]
