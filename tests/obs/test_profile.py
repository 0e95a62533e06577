"""The ``profile_scenario`` engine behind ``repro profile``."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _tracing_off():
    obs.disable()
    yield
    obs.disable()


class TestProfileScenario:
    def test_covers_every_pipeline_stage(self):
        result = obs.profile_scenario("lab", queries=3, packets=4)
        names = {s.name for s in result.spans}
        for required in (
            "csi.synthesize",
            "cir.delay_profile",
            "constraints.build_batch",
            "constraints.pairwise_batch",
            "lp.solve_batch",
            "merge",
            "serve.query",
        ):
            assert required in names, f"missing stage span {required}"

    def test_reproducible_and_bounded(self):
        first = obs.profile_scenario("lab", queries=2, packets=4, seed=5)
        second = obs.profile_scenario("lab", queries=2, packets=4, seed=5)
        assert first.errors_m == second.errors_m
        assert len(first.errors_m) == 2
        assert all(e >= 0.0 for e in first.errors_m)

    def test_metrics_include_span_aggregates(self):
        result = obs.profile_scenario("lab", queries=2, packets=4)
        assert result.metrics["completed"] == 2
        assert "lp.solve_batch" in result.metrics["spans"]
        stages = result.stages()
        assert stages["serve.query"]["count"] == 2

    def test_leaves_tracing_disabled(self):
        obs.profile_scenario("lab", queries=1, packets=4)
        assert not obs.is_enabled()

    def test_rejects_bad_query_count(self):
        with pytest.raises(ValueError):
            obs.profile_scenario("lab", queries=0)
