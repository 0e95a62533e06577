"""Tests for the LocalizationService façade.

Covers the serving subsystem's contract: cached-vs-uncached and
concurrent-vs-sequential answers are bit-identical to the direct
localizer, a batch past capacity waits for slots, and LP
failures/timeouts degrade gracefully to the flagged weighted-centroid
fallback.

Inline services (``max_workers=0``) serve on the submitting thread, so
the drain drill holds a slot from a submitter thread blocked inside the
stacked solve.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.localizer as localizer_module
from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import run_campaign, run_campaign_via_service
from repro.geometry import Polygon
from repro.serving import (
    LocalizationRequest,
    LocalizationService,
    ServiceClosedError,
    ServingConfig,
)


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    return NomLocSystem(lab, SystemConfig(packets_per_link=4))


def block_stacked_solves(monkeypatch):
    """Make every stacked solve wait for the returned ``gate`` event.

    Returns ``(gate, solving)``: ``solving`` is set once a solve has
    entered (its request already holds an admission slot).
    """
    gate = threading.Event()
    solving = threading.Event()
    inner = NomLocLocalizer.locate_batch

    def blocking_batch(self, *args, **kwargs):
        solving.set()
        assert gate.wait(timeout=10)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(NomLocLocalizer, "locate_batch", blocking_batch)
    return gate, solving


@pytest.fixture(scope="module")
def anchor_sets(lab, lab_system):
    """Six seeded queries across the lab's test sites."""
    sets = []
    for i in range(6):
        site = lab.test_sites[i % len(lab.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([42, i]))
        sets.append((site, tuple(lab_system.gather_anchors(site, rng))))
    return sets


class TestBitExactness:
    def test_cached_equals_uncached_for_same_seed(self, lab, anchor_sets):
        cached = LocalizationService(lab.plan.boundary)
        uncached = LocalizationService(
            lab.plan.boundary,
            config=ServingConfig(
                cache_topologies=False, cache_bisectors=False
            ),
        )
        with cached, uncached:
            # Two passes so the second one is served fully from cache.
            anchors = [a for _, a in anchor_sets]
            cached.batch(anchors)
            warm = cached.batch(anchors)
            cold = uncached.batch(anchors)
        assert cached.metrics_snapshot()["topology_cache"]["hits"] > 0
        for w, c in zip(warm, cold):
            assert w.position == c.position
            assert w.estimate.relaxation_cost == c.estimate.relaxation_cost
            assert w.estimate.num_constraints == c.estimate.num_constraints

    def test_concurrent_batch_equals_sequential_batch(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        with LocalizationService(lab.plan.boundary) as seq_svc:
            sequential = seq_svc.batch(anchors)
        with LocalizationService(
            lab.plan.boundary, config=ServingConfig(max_workers=2)
        ) as conc_svc:
            concurrent = conc_svc.batch(anchors)
        for s, c in zip(sequential, concurrent):
            assert s.position == c.position
            assert s.estimate.relaxation_cost == c.estimate.relaxation_cost

    def test_service_matches_direct_localizer(self, lab, anchor_sets):
        localizer = NomLocLocalizer(lab.plan.boundary)
        with LocalizationService(lab.plan.boundary) as service:
            for _, anchors in anchor_sets:
                resp = service.locate(anchors)
                direct = localizer.locate(anchors)
                assert resp.position == direct.position
                assert resp.estimate.relaxation_cost == direct.relaxation_cost
                assert not resp.degraded

    @pytest.mark.parametrize("venue", ["lab", "lobby"])
    def test_gated_and_ungated_match_direct_localizer(self, venue):
        from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records

        scenario = get_scenario(venue)
        system = NomLocSystem(scenario, SystemConfig(packets_per_link=4))
        metric = system.config.resolve_metric()
        # Light dropout leaves a mix of full- and down-weighted links.
        plan = LinkFaultPlan.subcarrier_dropout(0.2)
        injector = LinkFaultInjector(plan, seed=3)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with LocalizationService(scenario.plan.boundary) as service:
            for i, site in enumerate(scenario.test_sites[:3]):
                rng = np.random.default_rng(np.random.SeedSequence([9, i]))
                records = system.gather_link_records(site, rng)
                anchors = tuple(r.to_anchor(metric) for r in records)
                gate = gate_records(injector.corrupt_batch(records), 4)
                assert min(gate.quality_weights.values()) < 1.0
                ungated = service.locate_request(
                    LocalizationRequest(anchors, query_id=f"u{i}")
                )
                gated = service.locate_request(
                    LocalizationRequest(gate.anchors, query_id=f"g{i}", gate=gate)
                )
                direct = localizer.locate(anchors)
                direct_gated = localizer.locate(
                    gate.anchors, quality_weights=gate.quality_weights
                )
                assert ungated.position == direct.position
                assert ungated.estimate.relaxation_cost == direct.relaxation_cost
                assert gated.position == direct_gated.position
                assert (
                    gated.estimate.relaxation_cost
                    == direct_gated.relaxation_cost
                )
                assert gated.confidence == gate.confidence


class TestNoRowObjectsOnTheServedPath:
    def test_served_queries_build_no_pairwise_rows(self, lab, anchor_sets, monkeypatch):
        from repro.core import ConstraintKind, WeightedConstraint
        from tests.oracles import localizer as oracle

        service = LocalizationService(lab.plan.boundary)
        service.locate(anchor_sets[0][1])  # warm topology + pair tables
        built = []
        inner = WeightedConstraint.__post_init__

        def counting(self):
            inner(self)
            if self.kind is not ConstraintKind.BOUNDARY:
                built.append(self)

        monkeypatch.setattr(WeightedConstraint, "__post_init__", counting)
        responses = [service.locate(anchors) for _, anchors in anchor_sets]
        service.batch([LocalizationRequest(a) for _, a in anchor_sets])
        assert built == []

        # Reading the rows still yields the reference builder's rows.
        localizer, _ = service.topology_cache.get(lab.plan.boundary)
        for (_, anchors), response in zip(anchor_sets, responses):
            shared = oracle.build_shared_constraints(localizer, anchors)
            for piece in response.estimate.pieces:
                boundary = localizer.piece_boundary(piece.piece_index)
                rows = shared + boundary.constraints
                assert piece.relaxation.system.constraints == rows


class TestBackpressure:
    def test_batch_blocks_instead_of_rejecting(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(max_workers=2, queue_capacity=2)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            responses = service.batch(anchors)
            snap = service.metrics_snapshot()
        assert len(responses) == len(anchors)
        assert snap["queue_depth"] == 0  # all slots returned


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": -1},
            {"queue_capacity": 0},
            {"timeout_s": 0.0},
            {"max_cached_topologies": 0},
            {"max_cached_bisectors": 0},
            {"latency_window": 0},
        ],
    )
    def test_bad_knobs_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestLifecycle:
    def test_drain_stops_admissions_and_flushes_metrics(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        service = LocalizationService(lab.plan.boundary)
        service.locate(anchors)
        assert not service.closed
        snapshot = service.drain()
        assert service.closed
        assert snapshot["completed"] == 1
        with pytest.raises(ServiceClosedError):
            service.batch([anchors])
        service.close()  # idempotent

    def test_drain_waits_for_in_flight_queries(
        self, lab, anchor_sets, monkeypatch
    ):
        _, anchors = anchor_sets[0]
        gate, solving = block_stacked_solves(monkeypatch)
        service = LocalizationService(lab.plan.boundary)
        with ThreadPoolExecutor(1) as submitter:
            future = submitter.submit(service.batch, [anchors])
            assert solving.wait(timeout=10)
            # The in-flight query is stuck; a bounded drain times out
            # but leaves the service able to finish it.
            with pytest.raises(TimeoutError):
                service.drain(timeout_s=0.05)
            assert service.closed
            gate.set()
            assert future.result(timeout=10)[0].position is not None
        snapshot = service.drain()
        assert snapshot["completed"] == 1
        assert snapshot["queue_depth"] == 0


class TestGracefulDegradation:
    def test_injected_lp_failure_degrades(self, lab, anchor_sets, monkeypatch):
        truth, anchors = anchor_sets[0]

        def broken_relaxation(systems):
            raise RuntimeError("injected LP failure")

        monkeypatch.setattr(
            localizer_module, "solve_relaxation_batch", broken_relaxation
        )
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors)
            snap = service.metrics_snapshot()
        assert resp.degraded and not resp.ok
        assert resp.reason == "lp-failure"
        assert resp.estimate is None
        # The fallback still answers inside the venue, near the truth-ish.
        assert lab.plan.boundary.contains(resp.position)
        assert snap["degraded"] == 1
        assert snap["lp_failures"] == 1

    def test_lp_failure_propagates_when_degradation_off(
        self, lab, anchor_sets, monkeypatch
    ):
        _, anchors = anchor_sets[0]

        def broken_relaxation(systems):
            raise RuntimeError("injected LP failure")

        monkeypatch.setattr(
            localizer_module, "solve_relaxation_batch", broken_relaxation
        )
        config = ServingConfig(degrade_on_failure=False)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            with pytest.raises(RuntimeError, match="injected"):
                service.locate(anchors)

    def test_expired_deadline_degrades_with_timeout_reason(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors, timeout_s=1e-9)
            snap = service.metrics_snapshot()
        assert resp.degraded
        assert resp.reason == "timeout"
        assert snap["timeouts"] == 1

    def test_fallback_is_pdp_weighted_centroid(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors, timeout_s=1e-9)
        total = sum(a.pdp for a in anchors)
        expected_x = sum(a.pdp * a.position.x for a in anchors) / total
        expected_y = sum(a.pdp * a.position.y for a in anchors) / total
        localizer = NomLocLocalizer(lab.plan.boundary)
        projected = localizer.project_into_area(
            type(resp.position)(expected_x, expected_y)
        )
        assert resp.position.almost_equals(projected)


class TestStreaming:
    def test_requests_accept_query_ids(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        request = LocalizationRequest(anchors, query_id="q-7")
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.batch([request])[0]
        assert resp.query_id == "q-7"

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            LocalizationRequest(())


class TestMicroBatching:
    def test_lp_batch_bit_identical_to_sequential(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        with LocalizationService(lab.plan.boundary) as reference:
            expected = reference.batch(anchors)
        for chunk_size in (2, 3, 64):
            config = ServingConfig(lp_batch=chunk_size)
            with LocalizationService(
                lab.plan.boundary, config=config
            ) as service:
                served = service.batch(anchors)
            for seq, chunked in zip(expected, served):
                assert chunked.position == seq.position
                assert (
                    chunked.estimate.relaxation_cost
                    == seq.estimate.relaxation_cost
                )
                assert (
                    chunked.estimate.num_constraints
                    == seq.estimate.num_constraints
                )

    def test_chunks_larger_than_queue_capacity_complete(
        self, lab, anchor_sets
    ):
        # A chunk is admitted whole before it is served, so chunks are
        # capped at the queue capacity instead of waiting forever for
        # slots only their own completion would free.
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(lp_batch=8, queue_capacity=2)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(anchors)
            snap = service.metrics_snapshot()
        localizer = NomLocLocalizer(lab.plan.boundary)
        assert [r.position for r in served] == [
            localizer.locate(a).position for a in anchors
        ]
        assert snap["queue_depth"] == 0

    def test_chunk_mixes_expired_and_live_deadlines(self, lab, anchor_sets):
        # Deadlines are checked before and after the stacked pass, per
        # request: an expired one degrades alone, in order, while its
        # live chunk mates (with or without deadlines) are answered
        # bit-identically.
        requests = [
            LocalizationRequest(a, query_id=f"q{i}")
            for i, (_, a) in enumerate(anchor_sets)
        ]
        requests[1] = LocalizationRequest(
            anchor_sets[1][1], query_id="q1", timeout_s=1e-9
        )
        requests[2] = LocalizationRequest(
            anchor_sets[2][1], query_id="q2", timeout_s=30.0
        )
        config = ServingConfig(lp_batch=3)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(requests)
            snap = service.metrics_snapshot()
        localizer = NomLocLocalizer(lab.plan.boundary)
        assert [r.query_id for r in served] == [f"q{i}" for i in range(6)]
        assert served[1].degraded and served[1].reason == "timeout"
        for response, request in zip(served, requests):
            if response.query_id == "q1":
                continue
            assert not response.degraded
            assert (
                response.position == localizer.locate(request.anchors).position
            )
        assert snap["timeouts"] == 1
        assert snap["completed"] == len(requests)

    def test_poisoned_group_degrades_per_request(
        self, lab, anchor_sets, monkeypatch
    ):
        # When a stacked pass over several queries blows up, the group is
        # re-solved one query at a time so only genuinely-failing
        # queries degrade.
        inner = localizer_module.NomLocLocalizer.locate_batch

        def broken_batch(self, queries, *args, **kwargs):
            if len(queries) > 1:
                raise RuntimeError("stacked solve corrupted")
            return inner(self, queries, *args, **kwargs)

        monkeypatch.setattr(
            localizer_module.NomLocLocalizer, "locate_batch", broken_batch
        )
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(lp_batch=3)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(anchors)
        localizer = NomLocLocalizer(lab.plan.boundary)
        expected = [localizer.locate(a) for a in anchors]
        assert [r.position for r in served] == [r.position for r in expected]
        assert all(not r.degraded for r in served)


class TestMultiTenant:
    def test_request_area_override(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        other = Polygon.rectangle(0, 0, 50, 40)
        with LocalizationService(lab.plan.boundary) as service:
            service.locate(anchors)
            service.locate(anchors, area=other)
            snap = service.metrics_snapshot()
        assert snap["topology_cache"]["size"] == 2


class TestCampaignViaService:
    def test_matches_direct_campaign(self, lab, lab_system):
        sites = lab.test_sites[:3]
        direct = run_campaign(lab_system, sites, repetitions=2, seed=11)
        with LocalizationService(lab.plan.boundary) as service:
            served = run_campaign_via_service(
                service,
                lab_system.gather_anchors,
                sites,
                repetitions=2,
                seed=11,
            )
        assert served.per_site_means() == pytest.approx(
            direct.per_site_means(), abs=1e-12
        )
