"""Bit-exactness tests for the batched lockstep simplex.

The batched solver's whole contract is that stacking never changes a
single bit of any problem's answer, so every test here compares against
the scalar :func:`~repro.optimize.simplex.simplex_standard_form` (or the
scalar relaxation / localizer built on it) with ``==`` / ``tobytes()``,
never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
from repro.core.constraints import (
    ConstraintKind,
    ConstraintSystem,
    WeightedConstraint,
)
from repro.core.relaxation import (
    _LARGE_SYSTEM_ROWS,
    solve_relaxation,
    solve_relaxation_batch,
)
from repro.environment import SCENARIOS, get_scenario
from repro.geometry import HalfSpace
from repro.optimize import simplex_standard_form
from repro.optimize.batched import _phase1_tableau_batch, simplex_standard_form_batch
from repro.optimize.linprog import InequalityLP, solve_lp, solve_lp_batch
from repro.optimize.simplex import _phase1_tableau


def assert_bit_identical(scalar, batched):
    """LPResult equality down to the last float bit (NaN-aware)."""
    assert scalar.status == batched.status
    assert scalar.iterations == batched.iterations
    assert scalar.x.tobytes() == batched.x.tobytes()
    if np.isnan(scalar.objective):
        assert np.isnan(batched.objective)
    else:
        assert scalar.objective == batched.objective


def random_problems(rng, batch, m, n, degenerate=False):
    """Same-shape standard-form problems, optionally with zero rows."""
    out = []
    for _ in range(batch):
        a = rng.normal(size=(m, n)).round(2)
        b = rng.normal(size=m).round(2)
        c = rng.normal(size=n).round(2)
        if degenerate and rng.random() < 0.5:
            a[0] = 0.0  # forces either redundancy or infeasibility
        out.append((c, a, b))
    return out


class TestStackedStandardForm:
    def test_mixed_statuses_match_scalar(self):
        # Degenerate rows steer individual problems into INFEASIBLE /
        # redundant-constraint territory while their batch mates stay
        # OPTIMAL — each lane must still match its own scalar run.
        rng = np.random.default_rng(3)
        for trial in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, m + 6))
            problems = random_problems(
                rng, int(rng.integers(2, 8)), m, n, degenerate=True
            )
            batched = simplex_standard_form_batch(problems)
            statuses = set()
            for (c, a, b), res in zip(problems, batched):
                assert_bit_identical(simplex_standard_form(c, a, b), res)
                statuses.add(res.status)

    def test_unbounded_lane_among_optimal(self):
        c_opt = np.array([1.0, 1.0, 0.0])
        a = np.array([[1.0, -1.0, 1.0]])
        b = np.array([1.0])
        c_unb = np.array([-1.0, 0.0, 0.0])  # x0 can grow along a ray
        a_unb = np.array([[0.0, 1.0, 1.0]])
        problems = [(c_opt, a, b), (c_unb, a_unb, b), (c_opt, a, b)]
        batched = simplex_standard_form_batch(problems)
        for (c, a_eq, b_eq), res in zip(problems, batched):
            assert_bit_identical(simplex_standard_form(c, a_eq, b_eq), res)

    def test_shape_mismatch_rejected(self):
        p1 = (np.zeros(3), np.ones((2, 3)), np.ones(2))
        p2 = (np.zeros(4), np.ones((2, 4)), np.ones(2))
        with pytest.raises(ValueError, match="same-shape"):
            simplex_standard_form_batch([p1, p2])

    def test_empty_batch(self):
        assert simplex_standard_form_batch([]) == []

    def test_singleton_batch_is_scalar_path(self):
        rng = np.random.default_rng(11)
        (problem,) = random_problems(rng, 1, 3, 5)
        c, a, b = problem
        assert_bit_identical(
            simplex_standard_form(c, a, b),
            simplex_standard_form_batch([problem])[0],
        )

    def test_budget_exhaustion_matches_scalar(self):
        rng = np.random.default_rng(5)
        problems = random_problems(rng, 4, 4, 6)
        for budget in (1, 2, 5):
            batched = simplex_standard_form_batch(problems, budget)
            for (c, a, b), res in zip(problems, batched):
                assert_bit_identical(
                    simplex_standard_form(c, a, b, budget), res
                )

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        order=st.permutations(list(range(5))),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_order_never_changes_results(self, seed, order):
        # Lockstep lanes are independent: shuffling the batch must give
        # each problem the exact same bits in its new position.
        rng = np.random.default_rng(seed)
        problems = random_problems(rng, 5, 3, 5, degenerate=True)
        baseline = simplex_standard_form_batch(problems)
        shuffled = simplex_standard_form_batch([problems[i] for i in order])
        for pos, i in enumerate(order):
            assert_bit_identical(baseline[i], shuffled[pos])


class TestStackedInequalityLP:
    def test_matches_scalar_solve(self):
        rng = np.random.default_rng(7)
        m, nv = 5, 3
        problems = []
        for _ in range(6):
            a = rng.normal(size=(m, nv)).round(2)
            x_feas = rng.uniform(0, 2, size=nv)
            b = a @ x_feas + rng.uniform(0.1, 1.0, size=m)
            c = rng.normal(size=nv).round(2)
            nonneg = np.array([True, False, True])
            problems.append(InequalityLP(c, a, b, nonneg))
        batched = solve_lp_batch(problems)
        for lp, res in zip(problems, batched):
            assert_bit_identical(solve_lp(lp.c, lp.a_ub, lp.b_ub, lp.nonneg), res)

    def test_mismatched_masks_rejected(self):
        a = np.ones((2, 2))
        b = np.ones(2)
        c = np.zeros(2)
        p1 = InequalityLP(c, a, b, np.array([True, False]))
        p2 = InequalityLP(c, a, b, np.array([False, True]))
        with pytest.raises(ValueError):
            solve_lp_batch([p1, p2])


class TestCrashBasisBatch:
    """The stacked Phase-I builder vs the scalar one, lane by lane.

    The scalar ``_phase1_tableau`` is the reference; the batched builder
    must reproduce every lane's tableau and starting basis exactly, modulo
    all-zero padding columns for lanes needing fewer artificials than the
    batch maximum.
    """

    @staticmethod
    def assert_lane_matches_scalar(tab_k, basis_k, a, b, n):
        scalar_tab, scalar_basis = _phase1_tableau(a, b)
        assert list(basis_k) == scalar_basis
        n_art = scalar_tab.shape[1] - n - 1
        trimmed = np.concatenate([tab_k[:, : n + n_art], tab_k[:, -1:]], axis=1)
        # Constraint rows are byte-identical (incl. signed zeros).
        assert trimmed[:-1].tobytes() == scalar_tab[:-1].tobytes()
        if n_art:
            # Same per-lane subset sums -> same bytes in the objective row.
            assert trimmed[-1].tobytes() == scalar_tab[-1].tobytes()
        else:
            # Fully-crashed lanes: the scalar path negates an empty sum
            # (-0.0) where the batched builder leaves +0.0.  Only the zero
            # sign differs, and the Phase-I driver reads the row solely
            # through ``< -_TOL`` before Phase II overwrites it.
            assert np.array_equal(trimmed[-1], scalar_tab[-1])
            assert not (trimmed[-1] != 0.0).any()
        # Padding columns for shorter lanes must be identically zero so
        # they can never enter the basis or perturb a pivot.
        assert not tab_k[:, n + n_art : -1].any()

    def test_random_mixed_sign_rhs(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, m + 5))
            a_stack = rng.normal(size=(6, m, n)).round(2)
            b_stack = rng.normal(size=(6, m)).round(2)
            tabs, basis = _phase1_tableau_batch(a_stack.copy(), b_stack.copy())
            for k in range(6):
                self.assert_lane_matches_scalar(
                    tabs[k], basis[k], a_stack[k], b_stack[k], n
                )

    def test_relaxation_shape_is_fully_crashed(self):
        # The relaxation LP's standard form is [A | -I | I-slacks]: rows
        # with b >= 0 crash onto their +1 slack column, and negating a
        # b < 0 row flips its -t column to +1 — so every row is covered
        # and no artificial block exists regardless of RHS signs.
        rng = np.random.default_rng(31)
        m = 7
        a_stack = np.stack(
            [
                np.hstack([rng.normal(size=(m, 2)), -np.eye(m), np.eye(m)])
                for _ in range(5)
            ]
        )
        b_stack = rng.normal(size=(5, m))
        tabs, basis = _phase1_tableau_batch(a_stack.copy(), b_stack.copy())
        n = 2 + m + m
        assert tabs.shape == (5, m + 1, n + 1)  # no artificial columns
        assert (basis < n).all()
        # Phase-I objective rows are zero: the phase ends pivot-free.
        assert not (tabs[:, m, :] != 0.0).any()
        for k in range(5):
            self.assert_lane_matches_scalar(
                tabs[k], basis[k], a_stack[k], b_stack[k], n
            )

    def test_mixed_artificial_counts_pad_with_zero_columns(self):
        # Lane 0: [A | I] with b >= 0 -> fully crashed (0 artificials).
        # Lane 1: random normals -> no exact unit columns (3 artificials).
        # Lane 2: [A | I] with one negative RHS -> 1 artificial.
        rng = np.random.default_rng(37)
        base = rng.normal(size=(3, 2)).round(2)
        lane0 = np.hstack([base, np.eye(3)])
        lane1 = rng.normal(size=(3, 5)).round(2)
        lane2 = np.hstack([base, np.eye(3)])
        a_stack = np.stack([lane0, lane1, lane2])
        b_stack = np.array([[1.0, 2.0, 3.0], [1.5, -0.5, 2.0], [1.0, -2.0, 3.0]])
        tabs, basis = _phase1_tableau_batch(a_stack.copy(), b_stack.copy())
        assert tabs.shape[2] == 5 + 3 + 1  # widest lane sets the padding
        for k in range(3):
            self.assert_lane_matches_scalar(
                tabs[k], basis[k], a_stack[k], b_stack[k], 5
            )


def scenario_systems(name, queries=6, seed=17):
    """Per-query constraint systems gathered from one scenario."""
    scenario = get_scenario(name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=6))
    localizer = NomLocLocalizer(scenario.plan.boundary)
    sites = scenario.test_sites
    out = []
    for i in range(queries):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        anchors = system.gather_anchors(sites[i % len(sites)], rng)
        [(shared, mats)] = localizer.build_shared_constraints_batch([anchors])
        for index in range(len(localizer.pieces)):
            out.append(localizer.assemble_piece_system(index, shared, mats))
    return out


class TestBatchedRelaxation:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_scenario_topologies_bit_identical(self, name):
        systems = scenario_systems(name)
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            scalar = solve_relaxation(system)
            assert scalar.feasible_point.tobytes() == res.feasible_point.tobytes()
            assert scalar.slacks.tobytes() == res.slacks.tobytes()
            assert scalar.cost == res.cost

    def test_mixed_sizes_grouped(self):
        # Systems from different scenarios have different row counts;
        # the batch API must regroup internally and still match.
        systems = scenario_systems("lab", queries=3) + scenario_systems(
            "lobby", queries=3
        )
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            scalar = solve_relaxation(system)
            assert scalar.feasible_point.tobytes() == res.feasible_point.tobytes()
            assert scalar.slacks.tobytes() == res.slacks.tobytes()


def synthetic_system(rng, rows):
    """A feasible hand-built constraint system with an exact row count."""
    target = rng.uniform(2.0, 8.0, size=2)
    constraints = []
    for j in range(rows):
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        offset = float(normal @ target + rng.uniform(0.1, 3.0))
        constraints.append(
            WeightedConstraint(
                HalfSpace(float(normal[0]), float(normal[1]), offset),
                weight=float(rng.uniform(0.1, 1.0)),
                kind=ConstraintKind.PAIRWISE,
                label=f"syn-{rows}-{j}",
            )
        )
    return ConstraintSystem(tuple(constraints))


class TestRelaxationBatchEdgeLanes:
    """Grouping edges: the sparse-backend cutoff and singleton groups."""

    def test_large_systems_route_to_sparse_backend_in_place(self):
        # Systems above _LARGE_SYSTEM_ROWS bypass the stacked simplex for
        # the sparse interior-point path; their batch mates still stack.
        # Results land in input order either way and every lane matches
        # its own scalar solve bitwise.
        rng = np.random.default_rng(41)
        small = [synthetic_system(rng, 12) for _ in range(3)]
        large = [
            synthetic_system(rng, _LARGE_SYSTEM_ROWS + 15) for _ in range(2)
        ]
        systems = [small[0], large[0], small[1], large[1], small[2]]
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            scalar = solve_relaxation(system)
            assert scalar.feasible_point.tobytes() == res.feasible_point.tobytes()
            assert scalar.slacks.tobytes() == res.slacks.tobytes()
            assert scalar.cost == res.cost
            assert res.system is system

    def test_boundary_row_count_stays_on_dense_path(self):
        # Exactly _LARGE_SYSTEM_ROWS rows is NOT "large": the scalar
        # gate is strict (m > cutoff), and the batch must agree or the
        # two paths would diverge bitwise at the boundary.
        rng = np.random.default_rng(43)
        systems = [synthetic_system(rng, _LARGE_SYSTEM_ROWS) for _ in range(2)]
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            scalar = solve_relaxation(system)
            assert scalar.feasible_point.tobytes() == res.feasible_point.tobytes()
            assert scalar.slacks.tobytes() == res.slacks.tobytes()

    def test_singleton_groups_fall_back_to_scalar(self):
        # Every system has a unique row count, so no group ever stacks;
        # the batch API must quietly become a loop over solve_relaxation.
        rng = np.random.default_rng(47)
        systems = [synthetic_system(rng, rows) for rows in (5, 9, 14, 23)]
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            scalar = solve_relaxation(system)
            assert scalar.feasible_point.tobytes() == res.feasible_point.tobytes()
            assert scalar.slacks.tobytes() == res.slacks.tobytes()
            assert scalar.cost == res.cost

    def test_empty_system_rejected_before_any_solve(self):
        rng = np.random.default_rng(53)
        systems = [synthetic_system(rng, 4), ConstraintSystem(())]
        with pytest.raises(ValueError, match="empty constraint system"):
            solve_relaxation_batch(systems)


class TestLocalizerBatch:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_locate_batch_matches_locate(self, name):
        scenario = get_scenario(name)
        system = NomLocSystem(scenario, SystemConfig(packets_per_link=6))
        localizer = NomLocLocalizer(scenario.plan.boundary)
        sites = scenario.test_sites
        queries = []
        for i in range(8):
            rng = np.random.default_rng(np.random.SeedSequence([23, i]))
            queries.append(system.gather_anchors(sites[i % len(sites)], rng))
        batched = localizer.locate_batch(queries)
        for anchors, est in zip(queries, batched):
            scalar = localizer.locate(anchors)
            assert scalar.position == est.position
            assert scalar.relaxation_cost == est.relaxation_cost
            assert scalar.num_constraints == est.num_constraints
