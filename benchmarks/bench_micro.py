"""Micro-benchmarks of the substrates (ours).

Times the hot paths that bound experiment throughput: multipath tracing,
CSI synthesis, PDP extraction, the relaxation LP, and a full localization
query.  These use pytest-benchmark's statistical timing (many rounds),
unlike the one-shot figure benches.
"""

import numpy as np
import pytest

from repro.channel import CSISynthesizer, LinkSimulator, delay_profile, trace_paths
from repro.core import (
    Anchor,
    ConstraintSystem,
    NomLocSystem,
    SystemConfig,
    boundary_constraints,
    pairwise_constraints_batch,
    solve_relaxation,
)
from repro.environment import get_scenario
from repro.geometry import Point, Polygon


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    system = NomLocSystem(lab, SystemConfig(packets_per_link=15))
    # Warm the trace cache so the locate benchmark measures steady state.
    system.locate(lab.test_sites[0], np.random.default_rng(0))
    return system


def test_trace_paths_lab_link(benchmark, lab):
    tx, rx = lab.test_sites[0], lab.aps[1].position
    paths = benchmark(trace_paths, lab.plan, tx, rx)
    assert len(paths) > 5


def test_csi_synthesis_per_packet(benchmark, lab):
    sim = LinkSimulator(lab.plan)
    paths = sim.paths(lab.test_sites[0], lab.aps[1].position)
    synth = CSISynthesizer()
    rng = np.random.default_rng(0)
    m = benchmark(synth.synthesize, paths, rng)
    assert m.csi.shape == (56,)


def test_pdp_extraction(benchmark, lab):
    sim = LinkSimulator(lab.plan)
    rng = np.random.default_rng(0)
    m = sim.measure(lab.test_sites[0], lab.aps[1].position, rng)
    profile = benchmark(delay_profile, m)
    assert profile.max_power() > 0


def test_relaxation_lp(benchmark):
    """A representative 19-row relaxation LP (7 anchors + boundary)."""
    rng = np.random.default_rng(0)
    area = Polygon.rectangle(0, 0, 12, 8)
    anchors = [
        Anchor(f"A{i}", Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))), float(pdp))
        for i, pdp in enumerate(rng.uniform(1e-6, 1e-4, 7))
    ]
    [(pairwise, _)] = pairwise_constraints_batch(
        [anchors], include_nomadic_pairs=True
    )
    system = ConstraintSystem(pairwise + tuple(boundary_constraints(area)))
    result = benchmark(solve_relaxation, system)
    assert result.slacks.shape == (len(system),)


def test_full_locate_query(benchmark, lab, lab_system):
    rng = np.random.default_rng(3)
    est = benchmark(lab_system.locate, lab.test_sites[2], rng)
    assert lab.plan.contains(est.position)


def test_localizer_only(benchmark, lab, lab_system):
    """SP stage alone (anchors pre-gathered)."""
    anchors = lab_system.gather_anchors(
        lab.test_sites[1], np.random.default_rng(4)
    )
    est = benchmark(lab_system.locate_from_anchors, anchors)
    assert lab.plan.contains(est.position)
