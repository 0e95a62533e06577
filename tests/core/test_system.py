"""Integration tests for the end-to-end NomLoc system."""

import numpy as np
import pytest

from repro.core import LocalizerConfig, NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.mobility import PositionErrorModel, StaticPattern, SweepPattern


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    return NomLocSystem(lab, SystemConfig(packets_per_link=10, trace_steps=8))


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(packets_per_link=0)
        with pytest.raises(ValueError):
            SystemConfig(trace_steps=0)

    def test_with_error_range(self):
        cfg = SystemConfig().with_error_range(2.0)
        assert cfg.position_error.error_range_m == 2.0
        # Other fields preserved.
        assert cfg.packets_per_link == SystemConfig().packets_per_link

    def test_device_offsets_validation(self, lab):
        with pytest.raises(ValueError):
            NomLocSystem(lab, device_offsets_db={"AP9": 3.0})

    def test_device_offsets_scale_pdps(self, lab):
        nominal = NomLocSystem(lab, SystemConfig(packets_per_link=5))
        hot = NomLocSystem(
            lab,
            SystemConfig(packets_per_link=5),
            device_offsets_db={"AP2": 10.0},
        )
        site = lab.test_sites[0]
        a_nom = {
            a.name: a.pdp
            for a in nominal.gather_anchors(site, np.random.default_rng(3))
        }
        a_hot = {
            a.name: a.pdp
            for a in hot.gather_anchors(site, np.random.default_rng(3))
        }
        assert a_hot["AP2"] == pytest.approx(10.0 * a_nom["AP2"])
        assert a_hot["AP3"] == pytest.approx(a_nom["AP3"])

    def test_nomadic_offset_follows_device(self, lab):
        system = NomLocSystem(
            lab,
            SystemConfig(packets_per_link=5),
            device_offsets_db={"AP1": 6.0},
        )
        base = NomLocSystem(lab, SystemConfig(packets_per_link=5))
        site = lab.test_sites[0]
        hot = {
            a.name: a.pdp
            for a in system.gather_anchors(site, np.random.default_rng(4))
        }
        nom = {
            a.name: a.pdp
            for a in base.gather_anchors(site, np.random.default_rng(4))
        }
        gain = 10 ** 0.6
        for name in hot:
            if name.startswith("AP1@"):
                assert hot[name] == pytest.approx(gain * nom[name])

    def test_proximity_metric_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(proximity_metric="snr")
        from repro.core import estimate_rss

        assert SystemConfig(proximity_metric="rss").resolve_metric() is estimate_rss


class TestGatherAnchors:
    def test_nomadic_mode_anchor_set(self, lab, lab_system):
        rng = np.random.default_rng(0)
        anchors = lab_system.gather_anchors(lab.test_sites[0], rng)
        static_names = {a.name for a in anchors if not a.nomadic}
        assert static_names == {"AP2", "AP3", "AP4"}
        nomadic = [a for a in anchors if a.nomadic]
        assert 1 <= len(nomadic) <= 4
        assert all(a.name.startswith("AP1@s") for a in nomadic)
        assert all(a.pdp > 0 for a in anchors)

    def test_static_mode_anchor_set(self, lab):
        system = NomLocSystem(
            lab, SystemConfig(packets_per_link=5, use_nomadic=False)
        )
        rng = np.random.default_rng(0)
        anchors = system.gather_anchors(lab.test_sites[0], rng)
        assert len(anchors) == 4
        assert not any(a.nomadic for a in anchors)
        assert {a.name for a in anchors} == {"AP1", "AP2", "AP3", "AP4"}

    def test_position_error_applied_to_reports(self, lab):
        system = NomLocSystem(
            lab,
            SystemConfig(
                packets_per_link=5,
                position_error=PositionErrorModel(2.0),
            ),
        )
        rng = np.random.default_rng(3)
        anchors = system.gather_anchors(lab.test_sites[0], rng)
        nomadic = [a for a in anchors if a.nomadic]
        sites = set(lab.nomadic_aps[0].sites)
        # With ER = 2 m, reported positions differ from every true site.
        assert any(a.position not in sites for a in nomadic)

    def test_pattern_override(self, lab):
        system = NomLocSystem(lab, SystemConfig(packets_per_link=5, trace_steps=4))
        rng = np.random.default_rng(0)
        pattern = StaticPattern(4, home=0)
        anchors = system.gather_anchors(lab.test_sites[0], rng, pattern)
        nomadic = [a for a in anchors if a.nomadic]
        assert len(nomadic) == 1  # never left home
        sweep = SweepPattern(4)
        anchors = system.gather_anchors(lab.test_sites[0], rng, sweep)
        assert len([a for a in anchors if a.nomadic]) == 4  # visited all


class TestLocate:
    def test_estimate_inside_venue(self, lab, lab_system):
        rng = np.random.default_rng(1)
        for site in lab.test_sites[:3]:
            est = lab_system.locate(site, rng)
            assert lab.plan.contains(est.position)

    def test_error_reasonable(self, lab, lab_system):
        rng = np.random.default_rng(2)
        errors = [
            lab_system.localization_error(site, rng)
            for site in lab.test_sites[:5]
        ]
        # Meter-scale accuracy, venue diagonal is ~14.4 m.
        assert np.mean(errors) < 5.0

    def test_reproducible(self, lab):
        system = NomLocSystem(lab, SystemConfig(packets_per_link=5))
        site = lab.test_sites[0]
        e1 = system.locate(site, np.random.default_rng(7))
        e2 = system.locate(site, np.random.default_rng(7))
        assert e1.position == e2.position

    def test_locate_from_anchors(self, lab, lab_system):
        rng = np.random.default_rng(4)
        anchors = lab_system.gather_anchors(lab.test_sites[1], rng)
        est = lab_system.locate_from_anchors(anchors)
        assert lab.plan.contains(est.position)


class TestLobbyIntegration:
    def test_l_shape_estimates_inside(self):
        lobby = get_scenario("lobby")
        system = NomLocSystem(lobby, SystemConfig(packets_per_link=8, trace_steps=8))
        rng = np.random.default_rng(5)
        for site in lobby.test_sites[::3]:
            est = system.locate(site, rng)
            assert lobby.plan.contains(est.position)

    def test_custom_localizer_config(self):
        lobby = get_scenario("lobby")
        from repro.core import CenterMethod

        system = NomLocSystem(
            lobby,
            SystemConfig(packets_per_link=5),
            LocalizerConfig(center_method=CenterMethod.ANALYTIC),
        )
        rng = np.random.default_rng(6)
        est = system.locate(lobby.test_sites[0], rng)
        assert lobby.plan.contains(est.position)
