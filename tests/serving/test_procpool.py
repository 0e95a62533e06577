"""Tests for the process-based serving workers.

The process pool's contract: real parallelism is an implementation
detail, the served bits are not.  Every test here
compares process-worker output against the sequential reference service
with ``==`` on positions and LP diagnostics, never ``approx``.

Worker processes are expensive on a small CI box, so the pools stay at
1-2 workers and the query counts small.
"""

import numpy as np
import pytest

import repro.serving.procpool as procpool_module
from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.serving import (
    LocalizationRequest,
    LocalizationService,
    ServingConfig,
)
from repro.serving.procpool import ProcessPool


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    return NomLocSystem(lab, SystemConfig(packets_per_link=4))


@pytest.fixture(scope="module")
def requests(lab, lab_system):
    """Four seeded queries across the lab's test sites."""
    out = []
    for i in range(4):
        site = lab.test_sites[i % len(lab.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([42, i]))
        out.append(
            LocalizationRequest(
                tuple(lab_system.gather_anchors(site, rng)), query_id=f"q{i}"
            )
        )
    return out


@pytest.fixture(scope="module")
def reference(lab, requests):
    """The bit-exactness baseline: one sequential service."""
    with LocalizationService(lab.plan.boundary) as service:
        return service.batch(requests)


def assert_same_answer(seq, proc):
    assert proc.query_id == seq.query_id
    assert proc.position == seq.position
    assert proc.estimate.relaxation_cost == seq.estimate.relaxation_cost
    assert proc.estimate.num_constraints == seq.estimate.num_constraints
    assert not proc.degraded


class TestPoolLifecycle:
    def test_chunks_of_one_match_sequential(self, lab, requests, reference):
        with ProcessPool(
            lab.plan.boundary, None, ServingConfig(), max_workers=1
        ) as pool:
            for req, seq in zip(requests, reference):
                [proc] = pool.submit_chunk([req]).result()
                assert_same_answer(seq, proc)

    def test_submit_chunk_runs_stacked_path(self, lab, requests, reference):
        with ProcessPool(
            lab.plan.boundary, None, ServingConfig(), max_workers=1
        ) as pool:
            responses = pool.submit_chunk(requests).result()
        assert len(responses) == len(requests)
        for seq, proc in zip(reference, responses):
            assert_same_answer(seq, proc)

    def test_fork_parent_prewarms_template(self, lab):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork start method only")
        with ProcessPool(
            lab.plan.boundary, None, ServingConfig(), max_workers=1
        ):
            # The parent builds + warms the template before the executor
            # forks so workers inherit the caches copy-on-write.
            template = procpool_module._WORKER_SERVICE
            assert template is not None
            assert template.config.max_workers == 0  # never nests pools
            assert template.proc_pool is None

    def test_worker_count_validated(self, lab):
        with pytest.raises(ValueError):
            ProcessPool(
                lab.plan.boundary, None, ServingConfig(), max_workers=-2
            )

    def test_shutdown_idempotent(self, lab):
        pool = ProcessPool(
            lab.plan.boundary, None, ServingConfig(), max_workers=1
        )
        pool.shutdown()
        pool.shutdown()


class TestProcessModeService:
    def test_batch_bit_identical_to_sequential(self, lab, requests, reference):
        config = ServingConfig(max_workers=2)
        with LocalizationService(lab.plan.boundary, config=config) as svc:
            served = svc.batch(requests)
            snapshot = svc.metrics_snapshot()
        for seq, proc in zip(reference, served):
            assert_same_answer(seq, proc)
        # Workers record metrics into their own discarded service; the
        # parent must re-record every completion on the visible side.
        assert snapshot["completed"] == len(requests)
        assert snapshot["queue_depth"] == 0

    def test_chunked_batch_bit_identical(self, lab, requests, reference):
        config = ServingConfig(max_workers=1, lp_batch=3)
        with LocalizationService(lab.plan.boundary, config=config) as svc:
            served = svc.batch(requests)
            snapshot = svc.metrics_snapshot()
        for seq, proc in zip(reference, served):
            assert_same_answer(seq, proc)
        assert snapshot["completed"] == len(requests)
