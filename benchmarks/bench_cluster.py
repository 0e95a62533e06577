"""CLUSTER — topology-sharded serving: bit-exactness across shard counts.

The claim of the ``repro.cluster`` subsystem, benchmarked: a
:class:`repro.cluster.LocalizationCluster` with 1 or 2 shards answers
*bit-identically* to one sequential
:class:`repro.serving.LocalizationService`, for ungated queries and for
guard-gated ones (routing chooses *which* shard's service computes,
never *what*).

Throughput and per-request latency per shard count are persisted to
``benchmarks/results/BENCH_cluster.json`` (and ``CLUSTER.txt``).  Each
ledger number is the median of :data:`REGIONS` timed regions of at least
:data:`REGION_S` seconds, each on a fresh cluster, interleaved across the
configurations; the ledger keeps each number's spread (max - min over the
regions, as a percentage of the median) next to it.
"""

import statistics
import time

import numpy as np

from repro.cluster import ClusterConfig, LocalizationCluster
from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import format_table
from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records
from repro.serving import LocalizationRequest, LocalizationService

from conftest import run_once

QUERIES = 40
PACKETS = 6
SHARD_COUNTS = (1, 2)
#: Timed regions per configuration; the ledger reports their median.
REGIONS = 5
#: Minimum wall time of one region: whole batches run until it passes.
REGION_S = 0.5
#: Ledger key -> the name its spread is stored under.
SPREAD_KEYS = {
    "qps": "throughput_range_pct",
    "latency_p50_ms": "median_latency_range_pct",
    "latency_p95_ms": "tail_latency_range_pct",
}


def _gather_queries():
    """Ungated and guard-gated requests for the same seeded lab sites."""
    scenario = get_scenario("lab")
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
    metric = system.config.resolve_metric()
    injector = LinkFaultInjector(LinkFaultPlan.subcarrier_dropout(0.2), seed=3)
    ungated, gated = [], []
    for i in range(QUERIES):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        records = system.gather_link_records(site, rng)
        anchors = tuple(r.to_anchor(metric) for r in records)
        ungated.append(LocalizationRequest(anchors, query_id=f"u{i}"))
        gate = gate_records(injector.corrupt_batch(records), PACKETS)
        gated.append(
            LocalizationRequest(gate.anchors, query_id=f"g{i}", gate=gate)
        )
    return scenario, {"ungated": ungated, "gated": gated}


def _fingerprint(responses):
    """Everything an answer carries that must match bit for bit."""
    return [
        (
            r.query_id,
            r.position,
            r.degraded,
            r.confidence,
            r.estimate.relaxation_cost,
            r.estimate.num_constraints,
        )
        for r in responses
    ]


def _answer(scenario, requests, shards):
    """One batch on a fresh cluster: the answers the invariant checks."""
    config = ClusterConfig(num_shards=shards)
    with LocalizationCluster(scenario.plan.boundary, config=config) as cluster:
        return cluster.batch(requests)


def _time_region(scenario, requests, shards):
    """Throughput and latency of one region on a fresh cluster."""
    config = ClusterConfig(num_shards=shards)
    with LocalizationCluster(scenario.plan.boundary, config=config) as cluster:
        served = 0
        started = time.perf_counter()
        while True:
            cluster.batch(requests)
            served += len(requests)
            elapsed = time.perf_counter() - started
            if elapsed >= REGION_S:
                break
        snap = cluster.metrics_snapshot()
    return {
        "qps": served / elapsed,
        "latency_p50_ms": snap["latency_p50_s"] * 1e3,
        "latency_p95_ms": snap["latency_p95_s"] * 1e3,
    }


def _summarize(regions):
    """Median of each ledger key over the regions, plus its spread."""
    out = {"spread": {}}
    for key, spread_key in SPREAD_KEYS.items():
        values = [r[key] for r in regions]
        median = statistics.median(values)
        out[key] = median
        out["spread"][spread_key] = 100.0 * (max(values) - min(values)) / median
    return out


def _cluster_campaign():
    scenario, kinds = _gather_queries()
    with LocalizationService(scenario.plan.boundary) as service:
        reference = {kind: service.batch(reqs) for kind, reqs in kinds.items()}
    configs = [(shards, kind) for shards in SHARD_COUNTS for kind in kinds]
    regions = {config: [] for config in configs}
    for _ in range(REGIONS):  # interleaved, so drift hits every config alike
        for shards, kind in configs:
            regions[shards, kind].append(_time_region(scenario, kinds[kind], shards))
    runs = {shards: {} for shards in SHARD_COUNTS}
    for shards, kind in configs:
        runs[shards][kind] = _summarize(regions[shards, kind])
        runs[shards][kind]["responses"] = _answer(scenario, kinds[kind], shards)
    return reference, runs


def test_cluster_bit_exactness(benchmark, save_result, save_json):
    reference, runs = run_once(benchmark, _cluster_campaign)

    rows = []
    ledger = {}
    for shards, by_kind in runs.items():
        entry = {}
        for kind, r in by_kind.items():
            # The invariant: bit-identical to one sequential service,
            # whatever the shard count, gated or not.
            assert _fingerprint(r["responses"]) == _fingerprint(
                reference[kind]
            ), f"{shards} shard(s), {kind}: diverged from the reference"
            entry[kind] = {
                "qps": r["qps"],
                "latency_p50_ms": r["latency_p50_ms"],
                "latency_p95_ms": r["latency_p95_ms"],
                "spread": r["spread"],
                "bit_exact": True,
            }
            rows.append(
                [
                    shards,
                    kind,
                    round(r["qps"], 1),
                    round(r["spread"]["throughput_range_pct"], 1),
                    round(r["latency_p50_ms"], 2),
                    round(r["latency_p95_ms"], 2),
                    "yes",
                ]
            )
        ledger[str(shards)] = entry

    table = format_table(
        ["shards", "queries", "qps", "qps range%", "p50(ms)", "p95(ms)", "bit-exact"],
        rows,
    )
    save_result("CLUSTER", table)
    save_json(
        "cluster",
        {
            "queries": QUERIES,
            "regions": REGIONS,
            "region_s": REGION_S,
            "shards": ledger,
        },
    )
    print()
    print(table)
