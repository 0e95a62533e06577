"""The dual relaxation solver cross-checked against scipy's HiGHS.

scipy is a test-only dependency: it is the independent reference here,
never a backend of ``src/``.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.core import ConstraintSystem, solve_relaxation
from repro.core.constraints import ConstraintKind, WeightedConstraint
from repro.geometry import HalfSpace


def scipy_relaxation_cost(system: ConstraintSystem) -> float:
    """Optimal ``w . t`` of Eq. 19 from HiGHS on the sparse ``[A | -I]``."""
    a, b, w = system.matrices()
    m = len(system)
    a_ub = sparse.hstack(
        [sparse.csr_matrix(a), -sparse.eye(m, format="csr")], format="csr"
    )
    c = np.concatenate([[0.0, 0.0], w])
    bounds = [(None, None), (None, None)] + [(0, None)] * m
    result = linprog(c, A_ub=a_ub, b_ub=b, bounds=bounds, method="highs")
    assert result.status == 0, result.message
    return float(result.fun)


def random_system(seed: int, rows: int) -> ConstraintSystem:
    rng = np.random.default_rng(seed)
    constraints = []
    for k in range(rows):
        theta = rng.uniform(0, 2 * np.pi)
        constraints.append(
            WeightedConstraint(
                HalfSpace(
                    float(np.cos(theta)),
                    float(np.sin(theta)),
                    float(rng.uniform(-3, 5)),
                ),
                float(rng.uniform(0.5, 2.0)),
                ConstraintKind.PAIRWISE,
                label=f"r{k}",
            )
        )
    # Bound the problem.
    constraints += [
        WeightedConstraint(HalfSpace(1, 0, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(-1, 0, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(0, 1, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(0, -1, 50), 100.0, ConstraintKind.BOUNDARY),
    ]
    return ConstraintSystem(tuple(constraints))


class TestBackendConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_optimal_cost(self, seed):
        """The dual solver and HiGHS reach the same optimum."""
        system = random_system(seed, rows=20)
        a, b, w = system.matrices()
        result = solve_relaxation(system)
        assert result.cost == pytest.approx(scipy_relaxation_cost(system), abs=1e-6)
        assert np.all(a @ result.feasible_point - result.slacks <= b + 1e-6)

    def test_large_system_is_fast(self):
        # The dual keeps a 2 x 2 basis at any row count: hundreds of rows
        # cost O(m) per iteration, where a full tableau pays O(m^2).
        import time

        system = random_system(99, rows=400)
        start = time.perf_counter()
        result = solve_relaxation(system)
        elapsed = time.perf_counter() - start
        assert result.slacks.shape == (len(system),)
        assert result.cost == pytest.approx(scipy_relaxation_cost(system), rel=1e-9)
        assert elapsed < 2.0

    def test_feasible_large_system_zero_cost(self):
        rng = np.random.default_rng(5)
        constraints = []
        # All halfspaces contain the origin: jointly feasible.
        for k in range(200):
            theta = rng.uniform(0, 2 * np.pi)
            constraints.append(
                WeightedConstraint(
                    HalfSpace(
                        float(np.cos(theta)),
                        float(np.sin(theta)),
                        float(rng.uniform(0.5, 5.0)),
                    ),
                    1.0,
                    ConstraintKind.PAIRWISE,
                )
            )
        result = solve_relaxation(ConstraintSystem(tuple(constraints)))
        assert result.was_feasible
