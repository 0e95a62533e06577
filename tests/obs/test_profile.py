"""Profiling a scenario end to end: ``repro serve --trace``.

The command traces measurement (CSI synthesis, IFFT/CIR) as well as the
served solve, so one run splits a query's latency over every pipeline
stage, the way the paper's SLV analysis splits its error.
"""

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _tracing_off():
    obs.disable()
    yield
    obs.disable()


def serve(capsys, *flags):
    argv = ["serve", "lab", "--packets", "4", *flags]
    assert main(argv) == 0
    return capsys.readouterr().out


def answers(out):
    """Per-query ``truth -> estimate  err`` text, latency cut off."""
    return [line.split(" m ")[0] for line in out.splitlines() if " -> " in line]


class TestProfileScenario:
    def test_covers_every_pipeline_stage(self, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        out = serve(capsys, "-n", "3", "--trace-out", str(path))
        assert f"-> {path}" in out
        names = {s.name for s in obs.load_jsonl(path)}
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
            assert required in out, f"stage {required} missing from table"
        assert "simplex.pivots" in out  # pivot counter surfaced

    def test_reproducible_and_bounded(self, capsys):
        first = answers(serve(capsys, "-n", "2", "--seed", "5", "--trace"))
        second = answers(serve(capsys, "-n", "2", "--seed", "5", "--trace"))
        assert len(first) == 2
        assert first == second

    def test_metrics_include_span_aggregates(self, capsys):
        out = serve(capsys, "-n", "2", "--trace")
        assert "completed 2" in out
        table = out.split("stage breakdown:", 1)[1].splitlines()
        rows = {line.split()[0]: line.split()[1] for line in table if line.strip()}
        assert "lp.solve_batch" in rows
        assert rows["serve.query"] == "2"

    def test_leaves_tracing_disabled(self, capsys):
        serve(capsys, "-n", "1", "--trace")
        assert not obs.is_enabled()

    def test_rejects_bad_query_count(self, capsys):
        assert main(["serve", "lab", "-n", "0"]) == 2
        assert "error:" in capsys.readouterr().err
