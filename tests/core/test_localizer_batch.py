"""Winner-only lazy geometry in the batched localizer.

``locate_batch`` only clips/centres the co-optimal winner pieces; losing
pieces get :class:`_LazyPieceSolution` stand-ins whose geometry
materializes on first access.  These tests pin the laziness itself
(losers really do skip the geometry), the materialized values
(bit-identical to the scalar oracle's eager pieces), the pickle escape
hatch (process pools must receive plain eager solutions), and the
query-order validation of a batch.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Anchor,
    LocalizerConfig,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from repro.core.center import CenterMethod
from repro.core.localizer import PieceSolution, _LazyPieceSolution
from repro.environment import SCENARIOS, get_scenario
from repro.geometry import Point
from tests.oracles import localizer as oracle
from tests.oracles.relaxation import costs_agree


def gather_queries(name, count, seed=23, packets=6):
    """A scenario plus ``count`` deterministic anchor sets."""
    scenario = get_scenario(name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=packets))
    sites = scenario.test_sites
    queries = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        queries.append(system.gather_anchors(sites[i % len(sites)], rng))
    return scenario, queries


def split_lazy(estimates):
    """(lazy, eager) piece solutions across a batch of estimates."""
    lazy, eager = [], []
    for est in estimates:
        for sol in est.pieces:
            (lazy if isinstance(sol, _LazyPieceSolution) else eager).append(sol)
    return lazy, eager


class TestWinnerOnlyLaziness:
    """Losers stay lazy until read; winners come back eager."""

    def test_losers_lazy_winners_eager(self):
        # "lobby" is the non-convex scenario (2 pieces), so queries where
        # one piece clearly wins leave the other as a lazy loser.
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        lazy, eager = split_lazy(estimates)
        assert lazy, "expected at least one losing piece across 6 queries"
        assert eager, "every query must have an eager winner"
        tol = localizer.config.cost_merge_tolerance
        for est in estimates:
            best = min(sol.cost for sol in est.pieces)
            for sol in est.pieces:
                is_winner = sol.cost <= best + tol
                assert isinstance(sol, _LazyPieceSolution) == (not is_winner)
        # Losers have not run any geometry yet.
        for sol in lazy:
            assert sol._geometry is None

    def test_lazy_materialization_matches_scalar(self):
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        for anchors, est in zip(queries, estimates):
            shared = oracle.build_shared_constraints(localizer, anchors)
            for sol in est.pieces:
                ref = oracle.solve_piece(localizer, sol.piece_index, shared)
                # First access triggers materialization for lazy losers.
                assert sol.center == ref.center
                if ref.region is None:
                    assert sol.region is None
                else:
                    assert [(p.x, p.y) for p in sol.region.vertices] == [
                        (p.x, p.y) for p in ref.region.vertices
                    ]
                if isinstance(sol, _LazyPieceSolution):
                    assert sol._geometry is not None  # cached after read

    def test_pickle_materializes_to_eager_solution(self):
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        lazy, _ = split_lazy(estimates)
        assert lazy
        for sol in lazy:
            clone = pickle.loads(pickle.dumps(sol))
            assert type(clone) is PieceSolution  # the thunk never ships
            assert clone.piece_index == sol.piece_index
            assert clone.cost == sol.cost
            assert clone.center == sol.center
            if sol.region is None:
                assert clone.region is None
            else:
                assert [(p.x, p.y) for p in clone.region.vertices] == [
                    (p.x, p.y) for p in sol.region.vertices
                ]


class TestLazyVsEagerEstimates:
    """locate_batch must be bit-identical to the scalar oracle, always.

    The relaxation cost is the exception: it agrees to 1e-12 relative.
    """

    @given(
        name=st.sampled_from(sorted(SCENARIOS)),
        method=st.sampled_from(list(CenterMethod)),
        seed=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=12, deadline=None)
    def test_positions_bit_identical(self, name, method, seed):
        scenario, queries = gather_queries(name, 2, seed=seed)
        localizer = NomLocLocalizer(
            scenario.plan.boundary, LocalizerConfig(center_method=method)
        )
        batched = localizer.locate_batch(queries)
        for anchors, est in zip(queries, batched):
            scalar = oracle.locate(localizer, anchors)
            assert scalar.position == est.position
            assert costs_agree(est.relaxation_cost, scalar.relaxation_cost)
            assert scalar.num_constraints == est.num_constraints
            if scalar.region is None:
                assert est.region is None
            else:
                assert [(p.x, p.y) for p in scalar.region.vertices] == [
                    (p.x, p.y) for p in est.region.vertices
                ]

    def test_empty_batch(self):
        scenario, _ = gather_queries("lab", 0)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        assert localizer.locate_batch([]) == []

    def test_quality_weights_length_mismatch_rejected(self):
        scenario, queries = gather_queries("lab", 2)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with pytest.raises(ValueError, match="length must match"):
            localizer.locate_batch(queries, quality_weights=[None])


class TestQueryOrderValidation:
    """The first offending query raises its own error, whatever follows."""

    def test_first_offending_query_wins(self):
        scenario, [q] = gather_queries("lab", 1)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        bad = {a.name: 2.0 for a in q}
        here = Point(3.0, 3.0)
        coincident = tuple(Anchor(a.name, here, a.pdp) for a in q[:3])
        for queries, weights, match in [
            ([q[:1], q], [None, bad], "at least two anchors"),
            ([coincident, q], [None, bad], "no usable anchor pairs"),
            ([q, q[:1]], [bad, None], "must be in \\(0, 1\\]"),
            ([coincident], None, "no usable anchor pairs"),
        ]:
            with pytest.raises(ValueError, match=match):
                localizer.locate_batch(queries, weights)
