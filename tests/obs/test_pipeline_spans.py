"""Span names emitted by the locate pipeline.

The per-stage aggregation in benchmarks and the profiler groups spans by
name.  There is one pipeline — ``locate`` is ``locate_batch`` on a batch
of one — so both entry points emit the same stage names
(``constraints.build_batch``, ``lp.solve_batch``, ``geometry.batch``,
``merge``) and never the retired scalar names ``lp.solve`` /
``constraints.build_shared``.  These tests pin the names and the
counters each stage reports.
"""

import numpy as np

from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.obs import capture, span
from repro.optimize import relaxation_dual_batch


def lobby_queries(count=3, seed=23):
    scenario = get_scenario("lobby")
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=6))
    sites = scenario.test_sites
    queries = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        queries.append(system.gather_anchors(sites[i % len(sites)], rng))
    return scenario, queries


class TestPipelineSpanNames:
    def test_locate_batch_stage_names(self):
        scenario, queries = lobby_queries()
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with capture() as tracer:
            localizer.locate_batch(queries)
        names = {s.name for s in tracer.finished()}
        assert {
            "constraints.build_batch",
            "lp.solve_batch",
            "geometry.batch",
            "merge",
        } <= names
        # The retired scalar stage names never appear.
        assert "lp.solve" not in names
        assert "constraints.build_shared" not in names

    def test_locate_emits_batch_stage_names(self):
        scenario, queries = lobby_queries(count=1)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with capture() as tracer:
            localizer.locate(queries[0])
        names = {s.name for s in tracer.finished()}
        assert {
            "constraints.build_batch",
            "lp.solve_batch",
            "geometry.batch",
            "merge",
        } <= names
        assert "lp.solve" not in names
        assert "constraints.build_shared" not in names

    def test_batch_span_counters(self):
        scenario, queries = lobby_queries()
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with capture() as tracer:
            estimates = localizer.locate_batch(queries)
        by_name = {}
        for s in tracer.finished():
            by_name.setdefault(s.name, []).append(s)
        [solve] = by_name["lp.solve_batch"]
        assert solve.attributes["queries"] == len(queries)
        assert solve.attributes["pieces"] == len(localizer.pieces)
        assert solve.counters["rows"] > 0
        [geom] = by_name["geometry.batch"]
        winners = geom.counters["winners"]
        lazy = geom.counters.get("lazy", 0.0)
        total_pieces = sum(len(est.pieces) for est in estimates)
        assert winners + lazy == total_pieces
        assert winners >= len(queries)  # every query has >= 1 winner


class TestLpCounters:
    """What the wire benchmark reads off the LP stage.

    ``perfbench`` charges every ``lp.*`` span's self time to ``lp.ms``,
    sums ``simplex.pivots`` over all spans into ``lp.pivots_per_fix`` and
    ``rows`` over ``lp.*`` spans into ``lp.rows_per_fix``.  The dual
    relaxation solver runs inside the one ``lp.solve_batch`` span, opens
    none of its own, and counts its iterations (bound flips and pivots)
    as ``simplex.pivots`` — not comparable with the tableau pivots that
    counter held before the dual solver.
    """

    def test_solver_iterations_land_on_the_lp_span(self):
        scenario, queries = lobby_queries()
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with capture() as tracer:
            localizer.locate_batch(queries)
        spans = tracer.finished()
        lp = [s for s in spans if s.name.startswith("lp.")]
        assert [s.name for s in lp] == ["lp.solve_batch"]
        [solve] = lp
        pivoting = [s.name for s in spans if "simplex.pivots" in s.counters]
        assert pivoting == ["lp.solve_batch"]

        shareds = localizer.build_shared_constraints_batch(queries)
        systems = [
            localizer.assemble_piece_system(index, shared, mats)
            for shared, mats in shareds
            for index in range(len(localizer.pieces))
        ]
        assert solve.counters["rows"] == sum(len(s) for s in systems)
        with capture() as tracer, span("lp.solve_batch"):
            relaxation_dual_batch([s.matrices() for s in systems])
        [alone] = tracer.finished()
        assert solve.counters["simplex.pivots"] == alone.counters["simplex.pivots"]
        assert solve.counters["simplex.pivots"] >= len(systems)
