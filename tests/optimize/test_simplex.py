"""Tests for the tableau simplex oracle, cross-checked against scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from repro.optimize import LPStatus
from tests.oracles.simplex import simplex_standard_form


class TestStandardForm:
    def test_basic_optimum(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + s = 4 (i.e. x1 + x2 <= 4)
        c = np.array([-1.0, -2.0, 0.0])
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([4.0])
        res = simplex_standard_form(c, a, b)
        assert res.ok
        assert res.objective == pytest.approx(-8.0)
        assert res.x[1] == pytest.approx(4.0)

    def test_equality_system(self):
        # min x1 + x2 s.t. x1 + x2 = 3, x1 - x2 = 1 -> x = (2, 1)
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([3.0, 1.0])
        res = simplex_standard_form(c, a, b)
        assert res.ok
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-8)

    def test_infeasible(self):
        # x1 = 1 and x1 = 2 simultaneously.
        c = np.zeros(1)
        a = np.array([[1.0], [1.0]])
        b = np.array([1.0, 2.0])
        res = simplex_standard_form(c, a, b)
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        # min -x1 with only x1 - x2 = 0: x1 = x2 -> -inf.
        c = np.array([-1.0, 0.0])
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        res = simplex_standard_form(c, a, b)
        assert res.status is LPStatus.UNBOUNDED

    def test_negative_rhs_normalization(self):
        # -x1 = -3 (i.e. x1 = 3).
        c = np.array([1.0])
        a = np.array([[-1.0]])
        b = np.array([-3.0])
        res = simplex_standard_form(c, a, b)
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)

    def test_redundant_constraints(self):
        # Duplicated row should not break phase 1 cleanup.
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        b = np.array([3.0, 3.0, 1.0])
        res = simplex_standard_form(c, a, b)
        assert res.ok
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-8)

    def test_no_constraints(self):
        res = simplex_standard_form(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
        assert res.ok and res.objective == 0.0
        res = simplex_standard_form(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0))
        assert res.status is LPStatus.UNBOUNDED

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            simplex_standard_form(np.zeros(2), np.zeros((1, 3)), np.zeros(1))

    def test_degenerate_cycling_guard(self):
        """Beale's classic cycling example must terminate (Bland's rule)."""
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        a = np.array(
            [
                [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        res = simplex_standard_form(c, a, b)
        assert res.ok
        assert res.objective == pytest.approx(-0.05)


@st.composite
def random_lp(draw):
    """Random bounded standard-form LPs with a known feasible point."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=m, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10**6)))
    a = rng.uniform(-2, 2, size=(m, n))
    x_feas = rng.uniform(0, 3, size=n)
    b = a @ x_feas
    c = rng.uniform(-1, 1, size=n)
    return c, a, b


class TestAgainstScipy:
    @given(random_lp())
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_linprog(self, problem):
        c, a, b = problem
        ours = simplex_standard_form(c, a, b)
        ref = scipy_linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 0:
            assert ours.ok, f"scipy optimal but ours {ours.status}: {ours.message}"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 2:
            assert ours.status is LPStatus.INFEASIBLE
        elif ref.status == 3:
            assert ours.status is LPStatus.UNBOUNDED

    @given(random_lp())
    @settings(max_examples=80, deadline=None)
    def test_solution_is_feasible(self, problem):
        c, a, b = problem
        res = simplex_standard_form(c, a, b)
        if res.ok:
            np.testing.assert_allclose(a @ res.x, b, atol=1e-6)
            assert np.all(res.x >= -1e-9)


class TestCrashBasis:
    """The Phase-I start reads unit columns off the matrix when it can."""

    def test_slack_identity_skips_phase1(self):
        from tests.oracles.simplex import _phase1_tableau

        # [A | I] with b >= 0: every row is covered by its slack column,
        # so no artificial columns are allocated at all.
        a = np.hstack([np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)])
        b = np.array([5.0, 6.0])
        tableau, basis = _phase1_tableau(a, b)
        assert tableau.shape == (3, a.shape[1] + 1)  # no artificial block
        assert basis == [2, 3]
        # Phase-I objective row is identically zero: no pivots needed.
        assert not (tableau[2, :] < -1e-9).any()

    def test_negated_row_uses_minus_identity_column(self):
        from tests.oracles.simplex import _phase1_tableau

        # The relaxation LP shape: [A | -I].  A negative RHS flips its
        # row, turning that row's -1 into a usable +1 unit column.
        a = np.hstack([np.array([[1.0, 2.0], [3.0, 4.0]]), -np.eye(2)])
        b = np.array([5.0, -6.0])
        tableau, basis = _phase1_tableau(a, b)
        assert basis[1] == 3  # row 1 crashed onto its flipped -t column
        assert basis[0] == a.shape[1]  # row 0 still needs an artificial
        assert tableau.shape[1] == a.shape[1] + 1 + 1

    def test_uncovered_rows_get_artificials(self):
        from tests.oracles.simplex import _phase1_tableau

        a = np.array([[1.0, 1.0], [1.0, -1.0]])  # no unit columns
        b = np.array([3.0, 1.0])
        tableau, basis = _phase1_tableau(a, b)
        assert tableau.shape == (3, 2 + 2 + 1)
        assert basis == [2, 3]

    def test_lowest_index_candidate_wins(self):
        from tests.oracles.simplex import _crash_basis

        # Columns 0 and 2 are both unit columns for row 0.
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        cols = _crash_basis(a)
        assert list(cols) == [0, 1]

    def test_non_unit_coefficient_rejected(self):
        from tests.oracles.simplex import _crash_basis

        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        cols = _crash_basis(a)
        assert list(cols) == [-1, 1]

    def test_crash_start_solves_relaxation_shape(self):
        # End to end on the actual hot-path structure: z free, t >= 0,
        # minimize w.t with mixed-sign RHS.
        rng = np.random.default_rng(3)
        m = 12
        a = rng.normal(size=(m, 2))
        b = rng.normal(size=m)
        from tests.oracles.linprog import solve_lp

        c = np.concatenate([[0.0, 0.0], rng.uniform(0.1, 1.0, size=m)])
        a_lp = np.hstack([a, -np.eye(m)])
        nonneg = np.array([False, False] + [True] * m)
        res = solve_lp(c, a_lp, b, nonneg)
        assert res.ok
        t = np.maximum(res.x[2:], 0.0)
        slack = a @ res.x[:2] - t - b
        assert (slack <= 1e-7).all()
