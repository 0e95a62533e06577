"""Tests for the tableau oracle's inequality-form LP facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from repro.optimize import LPStatus
from tests.oracles.linprog import InequalityLP, solve_lp


class TestSolveLP:
    def test_free_variable_negative_optimum(self):
        # min x s.t. -x <= 5  (x >= -5, free) -> x = -5.
        res = solve_lp([1.0], [[-1.0]], [5.0])
        assert res.ok
        assert res.x[0] == pytest.approx(-5.0)

    def test_box_in_2d(self):
        # min x + y over the box [-1, 1]^2 -> (-1, -1).
        a = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [1, 1, 1, 1]
        res = solve_lp([1.0, 1.0], a, b)
        assert res.ok
        np.testing.assert_allclose(res.x, [-1, -1], atol=1e-8)

    def test_nonneg_mask(self):
        # Same box but y >= 0 -> (-1, 0).
        a = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [1, 1, 1, 1]
        res = solve_lp([1.0, 1.0], a, b, nonneg=[False, True])
        assert res.ok
        np.testing.assert_allclose(res.x, [-1, 0], atol=1e-8)

    def test_infeasible(self):
        res = solve_lp([0.0], [[1.0], [-1.0]], [0.0, -1.0])  # x<=0 and x>=1
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp([1.0], [[1.0]], [0.0])  # min x, x <= 0, x free
        assert res.status is LPStatus.UNBOUNDED

    def test_zero_objective_feasibility_mode(self):
        """The paper's Eq. 12 uses 'minimize 0' as a pure feasibility LP."""
        a = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        res = solve_lp([0.0, 0.0], a, [2, 2, 2, 2])
        assert res.ok
        assert res.objective == pytest.approx(0.0)
        assert np.all(np.asarray(a) @ res.x <= np.array([2, 2, 2, 2]) + 1e-9)

    def test_relaxation_structure(self):
        """Eq. 19 shape: min w.t s.t. A z - t <= b, t >= 0."""
        # One contradictory pair of constraints on scalar z: z <= 0, -z <= -2.
        # Optimal relaxation breaks the cheaper constraint by 2.
        w = np.array([1.0, 10.0])
        a = np.array(
            [
                [1.0, -1.0, 0.0],  # z - t1 <= 0
                [-1.0, 0.0, -1.0],  # -z - t2 <= -2
            ]
        )
        b = np.array([0.0, -2.0])
        c = np.concatenate([[0.0], w])
        res = solve_lp(c, a, b, nonneg=[False, True, True])
        assert res.ok
        z, t1, t2 = res.x
        assert t2 == pytest.approx(0.0, abs=1e-8)  # expensive constraint kept
        assert t1 == pytest.approx(2.0, abs=1e-8)  # cheap one relaxed by 2
        assert z == pytest.approx(2.0, abs=1e-8)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            solve_lp([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            InequalityLP(
                np.array([1.0]),
                np.array([[1.0]]),
                np.array([1.0]),
                np.array([True, False]),
            )


@st.composite
def random_inequality_lp(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    n = int(rng.integers(1, 4))
    a = rng.uniform(-2, 2, size=(m, n))
    interior = rng.uniform(-2, 2, size=n)
    b = a @ interior + rng.uniform(0.1, 2.0, size=m)  # strictly feasible
    c = rng.uniform(-1, 1, size=n)
    nonneg = rng.random(n) < 0.3
    if np.any(nonneg):
        # Keep the certified interior point feasible for the sign constraint.
        interior = np.where(nonneg, np.abs(interior), interior)
        b = a @ interior + rng.uniform(0.1, 2.0, size=m)
    return c, a, b, nonneg


class TestAgainstScipy:
    @given(random_inequality_lp())
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, problem):
        c, a, b, nonneg = problem
        ours = solve_lp(c, a, b, nonneg)
        bounds = [(0, None) if nn else (None, None) for nn in nonneg]
        ref = scipy_linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if ref.status == 0:
            assert ours.ok, ours.message
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 3:
            assert ours.status is LPStatus.UNBOUNDED

    @given(random_inequality_lp())
    @settings(max_examples=80, deadline=None)
    def test_feasibility_of_solution(self, problem):
        c, a, b, nonneg = problem
        res = solve_lp(c, a, b, nonneg)
        if res.ok:
            assert np.all(a @ res.x <= b + 1e-6)
            assert np.all(res.x[nonneg] >= -1e-9)
