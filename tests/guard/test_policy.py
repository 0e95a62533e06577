"""Tests for gating policy and GuardedSystem."""

import numpy as np
import pytest

from repro.guard import (
    GateResult,
    GuardedSystem,
    InsufficientLinksError,
    LinkFaultInjector,
    LinkFaultPlan,
    LinkStatus,
    gate_records,
)
from tests.guard.conftest import PACKETS


class TestGateRecords:
    def test_all_clean_keeps_weights_none(self, lab_records):
        result = gate_records(lab_records, PACKETS)
        assert result.quality_weights is None
        assert len(result.anchors) == len(lab_records)
        assert all(v.status is LinkStatus.OK for v in result.verdicts)
        assert result.confidence == 1.0
        assert result.reasons == ()
        assert result.degraded == () and result.rejected == ()

    def test_degraded_link_gets_scaled_weight(self, lab_records):
        injector = LinkFaultInjector(
            LinkFaultPlan.nan_burst(0.5, ap="AP2"), seed=5
        )
        result = gate_records(injector.corrupt_batch(lab_records), PACKETS)
        assert result.quality_weights is not None
        assert "AP2" in result.degraded
        assert 0.0 < result.quality_weights["AP2"] < 1.0
        # Untouched links keep full weight.
        assert result.quality_weights["AP3"] == 1.0
        assert 0.0 < result.confidence < 1.0

    def test_rejected_link_drops_anchor(self, lab_records):
        injector = LinkFaultInjector(
            LinkFaultPlan.outage(1.0, ap="AP3"), seed=5
        )
        result = gate_records(injector.corrupt_batch(lab_records), PACKETS)
        assert "AP3" in result.rejected
        assert all(a.name != "AP3" for a in result.anchors)
        assert len(result.anchors) == len(lab_records) - 1

    def test_reasons_union_is_sorted_and_deduped(self, lab_records):
        injector = LinkFaultInjector(LinkFaultPlan.nan_burst(0.5), seed=5)
        result = gate_records(injector.corrupt_batch(lab_records), PACKETS)
        assert result.reasons == tuple(sorted(set(result.reasons)))
        assert "non-finite-csi" in result.reasons

    def test_empty_gate(self):
        result = GateResult((), None, ())
        assert result.confidence == 0.0


class TestGuardedSystem:
    def test_zero_fault_bit_identical(self, lab_system):
        site = lab_system.scenario.test_sites[0]
        ungated = lab_system.locate(site, np.random.default_rng(11))
        guarded = GuardedSystem(lab_system, injector=LinkFaultInjector())
        gated = guarded.locate(site, np.random.default_rng(11))
        assert gated.position.x == ungated.position.x
        assert gated.position.y == ungated.position.y
        assert gated.confidence == 1.0
        assert gated.degradation_reasons == ()

    def test_estimate_carries_degradation(self, lab_system):
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(
                LinkFaultPlan.nan_burst(0.5, ap="AP2"), seed=5
            ),
        )
        site = lab_system.scenario.test_sites[1]
        estimate, gate = guarded.locate_with_result(
            site, np.random.default_rng(11)
        )
        assert estimate.confidence == pytest.approx(gate.confidence)
        assert estimate.confidence < 1.0
        assert "non-finite-csi" in estimate.degradation_reasons
        assert np.isfinite(estimate.position.x)

    def test_outage_rejected_while_localization_answers(self, lab_system):
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(
                LinkFaultPlan.outage(1.0, ap="AP3"), seed=7
            ),
        )
        site = lab_system.scenario.test_sites[2]
        estimate, gate = guarded.locate_with_result(
            site, np.random.default_rng(7)
        )
        assert "AP3" in gate.rejected
        assert np.isfinite(estimate.position.x)

    def test_phase_smear_salvaged(self, lab_system):
        # An oscillator phase smear disperses CIR energy: the link is
        # salvaged at reduced quality, neither trusted nor dropped.
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(
                LinkFaultPlan.phase_offset(1.0, ap="AP4"), seed=7
            ),
        )
        site = lab_system.scenario.test_sites[3]
        estimate, gate = guarded.locate_with_result(
            site, np.random.default_rng(7)
        )
        (verdict,) = [v for v in gate.verdicts if v.name == "AP4"]
        assert verdict.status is LinkStatus.DEGRADED
        assert "dispersed-cir-energy" in verdict.reasons
        assert verdict.quality < 1.0
        assert np.isfinite(estimate.position.x)

    def test_all_links_rejected_raises(self, lab_system):
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(LinkFaultPlan.outage(1.0), seed=5),
        )
        site = lab_system.scenario.test_sites[0]
        with pytest.raises(InsufficientLinksError, match="empty-batch"):
            guarded.locate(site, np.random.default_rng(11))

    def test_gating_off_believes_corrupted_links(self, lab_system):
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(
                LinkFaultPlan.nan_burst(0.5, ap="AP2"), seed=5
            ),
            gate=False,
        )
        site = lab_system.scenario.test_sites[0]
        estimate, gate = guarded.locate_with_result(
            site, np.random.default_rng(11)
        )
        # The OFF arm trusts everything it can estimate at full weight.
        assert gate.quality_weights is None
        assert estimate.confidence == 1.0
        assert np.isfinite(estimate.position.x)

    def test_gating_off_drops_unestimable_links(self, lab_system):
        guarded = GuardedSystem(
            lab_system,
            injector=LinkFaultInjector(
                LinkFaultPlan.outage(1.0, ap="AP3"), seed=5
            ),
            gate=False,
        )
        site = lab_system.scenario.test_sites[0]
        _, gate = guarded.locate_with_result(site, np.random.default_rng(11))
        assert any(
            v.name == "AP3" and v.reasons == ("unestimable-batch",)
            for v in gate.verdicts
        )
