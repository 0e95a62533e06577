"""Bit-exactness tests for the stacked relaxation solver.

Lanes of the stacked dual simplex (:mod:`repro.optimize.dual`) share
one padded array, so the contract is that stacking never changes a
single bit of any lane's answer: every test here compares a batch
against each system solved alone (:func:`solve_relaxation`, a batch of
one) with ``==`` / ``tobytes()``, never ``approx``.
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
from repro.core.relaxation import solve_relaxation, solve_relaxation_batch
from repro.environment import SCENARIOS, get_scenario
from repro.geometry import HalfSpace
from repro.optimize import relaxation_dual_batch


def assert_bit_identical(alone, stacked):
    """Relaxation results equal down to the last float bit."""
    assert alone.feasible_point.tobytes() == stacked.feasible_point.tobytes()
    assert alone.slacks.tobytes() == stacked.slacks.tobytes()
    assert alone.cost == stacked.cost


class TestStackedStandardForm:
    """The kernel's lanes: each a bounded standard-form dual, stacked."""

    def test_empty_batch(self):
        assert relaxation_dual_batch([]) == []
        assert solve_relaxation_batch([]) == []

    def test_singleton_batch_is_scalar_path(self):
        rng = np.random.default_rng(11)
        system = synthetic_system(rng, 9)
        [stacked] = solve_relaxation_batch([system])
        assert_bit_identical(solve_relaxation(system), stacked)
        [(z, t, cost)] = relaxation_dual_batch([system.matrices()])
        assert z.tobytes() == stacked.feasible_point.tobytes()
        assert t.tobytes() == stacked.slacks.tobytes()
        assert cost == stacked.cost

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        order=st.permutations(list(range(5))),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_order_never_changes_results(self, seed, order):
        # Lanes are independent: shuffling the batch (and so the padding
        # each lane sits next to) must give each system the exact same
        # bits in its new position.
        rng = np.random.default_rng(seed)
        systems = [
            synthetic_system(rng, int(rng.integers(1, 30)), conflict=True)
            for _ in range(5)
        ]
        baseline = solve_relaxation_batch(systems)
        shuffled = solve_relaxation_batch([systems[i] for i in order])
        for pos, i in enumerate(order):
            assert_bit_identical(baseline[i], shuffled[pos])


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
            assert_bit_identical(solve_relaxation(system), res)

    def test_mixed_sizes_grouped(self):
        # Systems from different scenarios have different row counts;
        # they share one padded stack and must still match.
        systems = scenario_systems("lab", queries=3) + scenario_systems(
            "lobby", queries=3
        )
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            assert_bit_identical(solve_relaxation(system), res)


def synthetic_system(rng, rows, conflict=False):
    """A hand-built constraint system with an exact row count.

    Feasible by construction (every row keeps a common target point)
    unless ``conflict``, which turns about a third of the rows around.
    """
    target = rng.uniform(2.0, 8.0, size=2)
    constraints = []
    for j in range(rows):
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        offset = float(normal @ target + rng.uniform(0.1, 3.0))
        if conflict and rng.random() < 0.3:
            normal, offset = -normal, -offset + 0.5
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
    """Padding edges: lanes of every length share one stack."""

    def test_singleton_groups_fall_back_to_scalar(self):
        # Every system has a unique row count, one of them far above the
        # rest, so every lane but the longest is padded; results land in
        # input order and each matches its own solve bitwise.
        rng = np.random.default_rng(47)
        systems = [
            synthetic_system(rng, rows, conflict=True) for rows in (5, 95, 9, 14, 23)
        ]
        batched = solve_relaxation_batch(systems)
        for system, res in zip(systems, batched):
            assert_bit_identical(solve_relaxation(system), res)
            assert res.system is system

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
