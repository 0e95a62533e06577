"""Tests for dataset recording, persistence, and replay."""

import numpy as np
import pytest

from repro.core import (
    CenterMethod,
    LocalizerConfig,
    NomLocSystem,
    SystemConfig,
)
from repro.data import (
    AnchorRecord,
    Dataset,
    QueryRecord,
    record_dataset,
    replay_dataset,
)
from repro.environment import get_scenario
from repro.geometry import Point


@pytest.fixture(scope="module")
def small_dataset():
    scen = get_scenario("lab")
    system = NomLocSystem(scen, SystemConfig(packets_per_link=6, trace_steps=8))
    return record_dataset(system, repetitions=1, seed=3, sites=scen.test_sites[:4])


class TestRecords:
    def test_anchor_roundtrip(self):
        from repro.core import Anchor

        a = Anchor("AP1@s2", Point(1.5, 2.5), 3.5e-5, nomadic=True)
        rec = AnchorRecord.from_anchor(a)
        back = rec.to_anchor()
        assert back.name == a.name
        assert back.position == a.position
        assert back.pdp == a.pdp
        assert back.nomadic == a.nomadic

    def test_query_needs_anchors(self):
        with pytest.raises(ValueError):
            QueryRecord(1.0, 2.0, (AnchorRecord("A", 0, 0, 1.0, False),))


class TestDataset:
    def test_record_shape(self, small_dataset):
        assert small_dataset.scenario_name == "lab"
        assert len(small_dataset) == 4
        for q in small_dataset.queries:
            assert len(q.anchors) >= 4
            assert any(a.nomadic for a in q.anchors)

    def test_needs_queries(self):
        with pytest.raises(ValueError):
            Dataset("lab", ())

    def test_json_roundtrip(self, small_dataset):
        text = small_dataset.to_json()
        back = Dataset.from_json(text)
        assert back.scenario_name == small_dataset.scenario_name
        assert len(back) == len(small_dataset)
        assert back.queries == small_dataset.queries
        assert back.metadata["seed"] == 3

    def test_file_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "campaign.json"
        small_dataset.save(path)
        back = Dataset.load(path)
        assert back.queries == small_dataset.queries

    def test_version_check(self):
        with pytest.raises(ValueError):
            Dataset.from_json('{"format_version": 99, "queries": []}')

    def test_record_validation(self):
        scen = get_scenario("lab")
        system = NomLocSystem(scen, SystemConfig(packets_per_link=5))
        with pytest.raises(ValueError):
            record_dataset(system, repetitions=0)

    def test_record_reproducible(self):
        scen = get_scenario("lab")
        system = NomLocSystem(scen, SystemConfig(packets_per_link=5))
        d1 = record_dataset(system, seed=9, sites=scen.test_sites[:2])
        d2 = record_dataset(system, seed=9, sites=scen.test_sites[:2])
        assert d1.queries == d2.queries


class TestReplay:
    def test_replay_errors(self, small_dataset):
        errors = replay_dataset(small_dataset)
        assert len(errors) == len(small_dataset)
        assert all(e >= 0 for e in errors)
        assert np.mean(errors) < 6.0

    def test_replay_is_deterministic(self, small_dataset):
        assert replay_dataset(small_dataset) == replay_dataset(small_dataset)

    def test_replay_with_different_config(self, small_dataset):
        """The whole point: iterate the solver offline on fixed traces."""
        default = replay_dataset(small_dataset)
        analytic = replay_dataset(
            small_dataset,
            LocalizerConfig(center_method=CenterMethod.ANALYTIC),
        )
        paper_literal = replay_dataset(
            small_dataset, LocalizerConfig(include_nomadic_pairs=False)
        )
        assert len(default) == len(analytic) == len(paper_literal)
        # Each config genuinely changes behaviour on at least one query.
        assert default != analytic
        assert default != paper_literal

    def test_replay_matches_online(self):
        """Replaying a recording reproduces the online estimates."""
        scen = get_scenario("lab")
        system = NomLocSystem(scen, SystemConfig(packets_per_link=6))
        site = scen.test_sites[1]
        rng = np.random.default_rng(np.random.SeedSequence([5, 0, 0]))
        anchors = system.gather_anchors(site, rng)
        online = system.locate_from_anchors(anchors).error_to(site)
        dataset = record_dataset(system, seed=5, sites=(site,))
        offline = replay_dataset(dataset)[0]
        assert offline == pytest.approx(online, abs=1e-9)
