"""``locate`` and ``locate_batch`` against the scalar oracle chain.

:func:`tests.oracles.localizer.locate` is the scalar chain ``src/`` no
longer carries, with the relaxation LP on the full tableau.  Both entry
points must match it bit for bit, gated and ungated, for the default and
the analytic centre; so must every losing piece's lazily materialized
geometry, before and after pickling.  Relaxation costs agree to 1e-12
relative (the dual solver recovers ``t`` itself).
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    LocalizerConfig,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from repro.core.center import CenterMethod
from repro.core.localizer import PieceSolution, _LazyPieceSolution
from repro.environment import get_scenario
from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records
from tests.oracles import localizer as oracle
from tests.oracles.relaxation import costs_agree


def vertices(region):
    return None if region is None else [(p.x, p.y) for p in region.vertices]


def assert_estimates_identical(ref, est):
    assert est.position == ref.position
    assert costs_agree(est.relaxation_cost, ref.relaxation_cost)
    assert est.num_constraints == ref.num_constraints
    assert vertices(est.region) == vertices(ref.region)
    assert len(est.pieces) == len(ref.pieces)


def venue_queries(venue, gated, count=4):
    """``(anchors, quality_weights)`` per query; gated queries carry the
    guard layer's weights after light subcarrier dropout."""
    scenario = get_scenario(venue)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=4))
    metric = system.config.resolve_metric()
    injector = LinkFaultInjector(LinkFaultPlan.subcarrier_dropout(0.2), seed=3)
    queries = []
    for i in range(count):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([31, i]))
        records = system.gather_link_records(site, rng)
        if gated:
            gate = gate_records(injector.corrupt_batch(records), 4)
            queries.append((gate.anchors, gate.quality_weights))
        else:
            queries.append((tuple(r.to_anchor(metric) for r in records), None))
    return scenario, queries


@pytest.mark.parametrize("method", [CenterMethod.CENTROID, CenterMethod.ANALYTIC])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
@pytest.mark.parametrize("venue", ["lab", "lobby"])
def test_locate_and_batch_match_scalar_oracle(venue, gated, method):
    scenario, queries = venue_queries(venue, gated)
    if gated:
        assert any(min(qw.values()) < 1.0 for _, qw in queries)
    localizer = NomLocLocalizer(
        scenario.plan.boundary, LocalizerConfig(center_method=method)
    )
    batched = localizer.locate_batch(
        [anchors for anchors, _ in queries], [qw for _, qw in queries]
    )
    for (anchors, qw), est in zip(queries, batched):
        ref = oracle.locate(localizer, anchors, quality_weights=qw)
        assert_estimates_identical(ref, est)
        assert_estimates_identical(
            ref, localizer.locate(anchors, quality_weights=qw)
        )


@pytest.mark.parametrize("method", [CenterMethod.CENTROID, CenterMethod.ANALYTIC])
def test_lazy_losers_and_pickles_match_oracle_eager_pieces(method):
    # The lobby has two convex pieces, so some queries leave a loser.
    scenario, queries = venue_queries("lobby", gated=False, count=6)
    localizer = NomLocLocalizer(
        scenario.plan.boundary, LocalizerConfig(center_method=method)
    )
    estimates = localizer.locate_batch([anchors for anchors, _ in queries])
    losers = 0
    for (anchors, _), est in zip(queries, estimates):
        ref = oracle.locate(localizer, anchors)
        for sol, eager in zip(est.pieces, ref.pieces):
            if not isinstance(sol, _LazyPieceSolution):
                continue
            losers += 1
            assert sol._geometry is None  # nothing ran before the read
            clone = pickle.loads(pickle.dumps(sol))
            assert type(clone) is PieceSolution
            for got in (sol, clone):
                assert got.piece_index == eager.piece_index
                assert costs_agree(got.cost, eager.cost)
                assert got.center == eager.center
                assert vertices(got.region) == vertices(eager.region)
    assert losers, "expected at least one losing piece across 6 queries"
