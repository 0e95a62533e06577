"""Tests for the LocalizationCluster router.

The cluster's contract: any shard count answers bit-identically to one
sequential LocalizationService, gated or not, because routing only
chooses which shard's service computes, never what it computes.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    LocalizationCluster,
    ShardRouter,
    route_key,
)
from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import run_campaign, run_campaign_via_service
from repro.serving import LocalizationRequest, LocalizationService, ServingConfig


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    return NomLocSystem(lab, SystemConfig(packets_per_link=4))


@pytest.fixture(scope="module")
def anchor_sets(lab, lab_system):
    """Six seeded queries across the lab's test sites."""
    sets = []
    for i in range(6):
        site = lab.test_sites[i % len(lab.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([42, i]))
        sets.append((site, tuple(lab_system.gather_anchors(site, rng))))
    return sets


@pytest.fixture(scope="module")
def reference(lab, anchor_sets):
    """The bit-exactness baseline: one sequential service."""
    with LocalizationService(lab.plan.boundary) as service:
        return service.batch([a for _, a in anchor_sets])


@pytest.fixture(scope="module")
def gated_requests(lab, lab_system):
    """Ungated and guard-gated requests, interleaved."""
    from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records

    metric = lab_system.config.resolve_metric()
    injector = LinkFaultInjector(LinkFaultPlan.subcarrier_dropout(0.2), seed=3)
    requests = []
    for i, site in enumerate(lab.test_sites[:3]):
        rng = np.random.default_rng(np.random.SeedSequence([9, i]))
        records = lab_system.gather_link_records(site, rng)
        anchors = tuple(r.to_anchor(metric) for r in records)
        gate = gate_records(injector.corrupt_batch(records), 4)
        requests.append(LocalizationRequest(anchors, query_id=f"u{i}"))
        requests.append(
            LocalizationRequest(gate.anchors, query_id=f"g{i}", gate=gate)
        )
    return requests


def assert_bit_identical(responses, references):
    assert len(responses) == len(references)
    for resp, ref in zip(responses, references):
        assert resp.query_id == ref.query_id
        assert resp.degraded == ref.degraded
        assert resp.position == ref.position
        assert resp.confidence == ref.confidence
        assert resp.estimate.relaxation_cost == ref.estimate.relaxation_cost
        assert resp.estimate.num_constraints == ref.estimate.num_constraints


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"num_shards": -1},
            {"latency_window": -1},
            {"latency_window": 0},
        ],
    )
    def test_bad_knobs_rejected(self, lab, kwargs):
        with pytest.raises(ValueError):
            LocalizationCluster(
                lab.plan.boundary, config=ClusterConfig(**kwargs)
            )


class TestBitExactness:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_single_sequential_service(
        self, lab, anchor_sets, reference, shards
    ):
        config = ClusterConfig(num_shards=shards)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        assert_bit_identical(responses, reference)

    def test_one_venue_routes_to_one_shard(self, lab, anchor_sets):
        config = ClusterConfig(num_shards=3)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
            expected = cluster.router.shard_for(route_key(lab.plan.boundary))
        assert {r.shard for r in responses} == {expected}

    def test_requests_carry_query_ids_and_accept_bare_anchors(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        with LocalizationCluster(lab.plan.boundary) as cluster:
            tagged = cluster.batch(
                [LocalizationRequest(anchors, query_id="q-9"), anchors]
            )
        assert tagged[0].query_id == "q-9"
        assert tagged[1].position == tagged[0].position


class TestGated:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_gated_and_ungated_match_single_service(
        self, lab, gated_requests, shards
    ):
        with LocalizationService(lab.plan.boundary) as service:
            references = [service.locate_request(r) for r in gated_requests]
        config = ClusterConfig(
            num_shards=shards, serving=ServingConfig(lp_batch=4)
        )
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            batched = cluster.batch(gated_requests)
            one_by_one = [cluster.locate_request(r) for r in gated_requests]
        assert_bit_identical(batched, references)
        assert_bit_identical(one_by_one, references)
        assert any(r.confidence < 1.0 for r in batched)


class TestShardRuns:
    def test_same_shard_runs_go_to_that_shards_batch(self, lab, lab_system):
        lobby = get_scenario("lobby")
        lobby_system = NomLocSystem(lobby, SystemConfig(packets_per_link=4))
        # The smallest shard count that puts the two venues apart.
        shards = next(
            n
            for n in range(2, 9)
            if _shard(n, lab.plan.boundary) != _shard(n, lobby.plan.boundary)
        )
        venues = [
            (lab, lab_system),
            (lab, lab_system),
            (lobby, lobby_system),
            (lab, lab_system),
        ]
        requests = []
        for i, (venue, system) in enumerate(venues):
            rng = np.random.default_rng(np.random.SeedSequence([5, i]))
            anchors = system.gather_anchors(venue.test_sites[0], rng)
            requests.append(
                LocalizationRequest(
                    anchors, query_id=f"q{i}", area=venue.plan.boundary
                )
            )
        config = ClusterConfig(num_shards=shards)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            calls = []
            for shard_id, (holder,) in enumerate(cluster.shards):
                batch = holder.service.batch

                def counted(run, _batch=batch, _shard=shard_id):
                    calls.append((_shard, len(run)))
                    return _batch(run)

                holder.service.batch = counted
            responses = cluster.batch(requests)
        lab_shard = _shard(shards, lab.plan.boundary)
        lobby_shard = _shard(shards, lobby.plan.boundary)
        assert calls == [(lab_shard, 2), (lobby_shard, 1), (lab_shard, 1)]
        assert [r.shard for r in responses] == [
            lab_shard,
            lab_shard,
            lobby_shard,
            lab_shard,
        ]
        with LocalizationService(lab.plan.boundary) as service:
            references = [service.locate_request(r) for r in requests]
        assert_bit_identical(responses, references)


def _shard(num_shards, area):
    return ShardRouter(num_shards).shard_for(route_key(area))


class TestMicroBatching:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_coalesced_batch_matches_reference(
        self, lab, anchor_sets, reference, shards
    ):
        config = ClusterConfig(
            num_shards=shards, serving=ServingConfig(lp_batch=4)
        )
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        assert_bit_identical(responses, reference)


class TestLifecycle:
    def test_closed_cluster_refuses_queries(self, lab, anchor_sets):
        cluster = LocalizationCluster(lab.plan.boundary)
        cluster.locate(anchor_sets[0][1])
        snapshot = cluster.drain()
        assert snapshot["routed"] == 1
        with pytest.raises(RuntimeError):
            cluster.locate(anchor_sets[0][1])
        with pytest.raises(RuntimeError):
            cluster.batch([anchor_sets[0][1]])
        cluster.close()  # idempotent


class TestMetricsSnapshot:
    def test_layout_covers_fleet_and_shards(self, lab, anchor_sets):
        config = ClusterConfig(num_shards=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            cluster.batch([a for _, a in anchor_sets])
            snap = cluster.metrics_snapshot()
        assert snap["routed"] == len(anchor_sets)
        assert snap["degraded"] == 0
        assert snap["services"]["shard_count"] == 2
        assert snap["services"]["completed"] == len(anchor_sets)
        assert set(snap["shards"]) == {"shard0", "shard1"}


class TestCampaignViaCluster:
    def test_matches_direct_campaign(self, lab, lab_system):
        sites = lab.test_sites[:3]
        direct = run_campaign(lab_system, sites, repetitions=2, seed=11)
        config = ClusterConfig(num_shards=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            served = run_campaign_via_service(
                cluster,
                lab_system.gather_anchors,
                sites,
                repetitions=2,
                seed=11,
            )
        assert served.per_site_means() == pytest.approx(
            direct.per_site_means(), abs=1e-12
        )
