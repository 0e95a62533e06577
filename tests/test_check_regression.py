"""The bench regression gate classifies ledger leaves by their key path."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


@pytest.mark.parametrize(
    "path, kind",
    [
        ("bit_identical", "bit"),
        ("kill_drill.recovered_bit_identical", "bit"),
        ("shards.1.gated.bit_exact", "bit"),
        # Per-method flags nested under a bit_exact key are gated too.
        ("lab.bit_exact.centroid", "bit"),
        ("lobby.bit_exact.analytic", "bit"),
        ("lab.qps", "qps"),
        ("lab.cached-batched.p50_ms", "p50"),
        ("lab.stage_ms.merge", None),
    ],
)
def test_classify(path, kind):
    assert check_regression.classify(path) == kind


def test_nested_flag_that_flips_false_is_a_violation():
    base = {"results": {"lab": {"bit_exact": {"centroid": True}}}}
    fresh = {"results": {"lab": {"bit_exact": {"centroid": False}}}}
    violations, _notes, _rows = check_regression.compare(
        "locate_pipeline", base, fresh, 0.2, 1.0
    )
    assert violations == [
        "locate_pipeline: lab.bit_exact.centroid lost bit-exactness "
        "(baseline True -> fresh False)"
    ]
