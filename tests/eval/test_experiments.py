"""Integration tests for the paper-experiment suite (small workloads).

These check plumbing and the paper's qualitative shape at reduced sizes;
the benchmark harness runs the full-size versions.
"""

import pytest

from repro.eval import (
    EXTRA_LAB_SITES,
    ExperimentConfig,
    ablation_center_methods,
    ablation_nomadic_pairs,
    ablation_site_count,
    baseline_comparison,
    ext_mobility_patterns,
    ext_multi_nomadic,
    fig3_delay_profiles,
    fig7_pdp_accuracy,
    fig8_slv,
    fig9_error_cdf,
    fig10_position_error,
)

TINY = ExperimentConfig(repetitions=1, packets_per_link=6, trace_steps=8, seed=0)


class TestFig3:
    def test_los_nlos_dichotomy(self):
        result = fig3_delay_profiles(TINY, packets=20)
        # The paper's observation: blocked direct path => weak first tap.
        assert result.first_tap_ratio() < 0.7
        assert result.los_profile.delays_s.max() <= 1.5e-6 + 1e-12
        assert len(result.los_profile.delays_s) == len(
            result.nlos_profile.delays_s
        )

    def test_links_really_are_los_nlos(self):
        from repro.environment import get_scenario

        result = fig3_delay_profiles(TINY, packets=5)
        plan = get_scenario("lab").plan
        assert plan.is_los(*result.los_link)
        assert not plan.is_los(*result.nlos_link)


class TestFig7:
    def test_site_counts(self):
        lab = fig7_pdp_accuracy("lab", TINY, rounds=3)
        lobby = fig7_pdp_accuracy("lobby", TINY, rounds=3)
        assert len(lab.site_accuracies) == 10
        assert len(lobby.site_accuracies) == 12
        assert all(0 <= a <= 1 for a in lab.site_accuracies)

    def test_accuracy_well_above_chance(self):
        result = fig7_pdp_accuracy("lobby", TINY, rounds=3)
        assert result.mean_accuracy > 0.7

    def test_fraction_above(self):
        result = fig7_pdp_accuracy("lab", TINY, rounds=2)
        assert 0 <= result.fraction_above(0.85) <= 1


class TestFig8:
    def test_structure(self):
        result = fig8_slv(TINY, scenario_names=("lab",))
        assert set(result.slv) == {"lab"}
        assert set(result.slv["lab"]) == {"static", "nomadic"}
        assert result.slv["lab"]["static"] >= 0
        assert isinstance(result.reduction("lab"), float)


class TestFig9:
    def test_structure(self):
        result = fig9_error_cdf("lab", TINY)
        assert result.scenario == "lab"
        assert result.static_cdf.samples.shape == (10,)
        assert result.nomadic_cdf.samples.shape == (10,)


class TestFig10:
    def test_er_sweep(self):
        result = fig10_position_error("lab", TINY, error_ranges=(0.0, 2.0))
        assert set(result.cdfs) == {0.0, 2.0}
        assert result.mean_at(0.0) > 0
        assert isinstance(result.degradation(2.0), float)


class TestAblations:
    def test_center_methods(self):
        out = ablation_center_methods("lab", TINY)
        assert set(out) == {"centroid", "analytic"}
        assert all(s.mean > 0 for s in out.values())

    def test_site_count(self):
        out = ablation_site_count(TINY, site_counts=(0, 2, 4))
        assert set(out) == {0, 2, 4}

    def test_site_count_validation(self):
        with pytest.raises(ValueError):
            ablation_site_count(TINY, site_counts=(99,))
        assert len(EXTRA_LAB_SITES) == 3

    def test_nomadic_pairs(self):
        out = ablation_nomadic_pairs(TINY, scenario_names=("lab",))
        assert set(out["lab"]) == {"paper-literal", "generalized"}

    def test_proximity_metric(self):
        from repro.eval import ablation_proximity_metric

        out = ablation_proximity_metric("lab", TINY)
        assert set(out) == {"pdp", "pdp_median", "rss", "first_tap"}

    def test_bandwidth(self):
        from repro.eval import ablation_bandwidth

        out = ablation_bandwidth("lab", TINY, bandwidths_mhz=(10.0, 20.0))
        assert set(out) == {10.0, 20.0}

    def test_confidence_functions(self):
        from repro.eval import ablation_confidence_functions

        out = ablation_confidence_functions("lab", TINY)
        assert set(out) == {"paper", "rational", "power2"}

    def test_shadowing(self):
        from repro.eval import ablation_shadowing

        out = ablation_shadowing("lab", TINY, sigmas_db=(0.0, 4.0))
        assert set(out) == {0.0, 4.0}

    def test_antennas(self):
        from repro.eval import ablation_antennas

        out = ablation_antennas("lab", TINY)
        assert set(out) == {"omni", "sector-inward", "sector-outward"}

    def test_device_heterogeneity(self):
        from repro.eval import ablation_device_heterogeneity

        out = ablation_device_heterogeneity(
            "lab", TINY, offset_sigmas_db=(0.0, 3.0)
        )
        assert set(out) == {0.0, 3.0}
        assert set(out[0.0]) == {"paper-literal", "generalized"}


class TestExtensions:
    def test_multi_nomadic(self):
        out = ext_multi_nomadic(TINY, counts=(1, 2))
        assert set(out) == {1, 2}

    def test_patterns(self):
        out = ext_mobility_patterns("lab", TINY)
        assert set(out) == {"markov", "patrol", "sweep", "hotspot"}


class TestBaselineComparison:
    def test_all_baselines_run(self):
        out = baseline_comparison("lab", TINY)
        assert set(out) == {
            "nomloc",
            "static-sp",
            "trilateration",
            "fingerprint",
            "weighted-centroid",
            "sequence",
        }
        for name, stats in out.items():
            assert 0 < stats.mean < 12.0, name
