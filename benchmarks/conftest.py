"""Shared helpers for the benchmark harness.

Each ``bench_*`` module reproduces one figure/table of the paper (see
DESIGN.md's experiment index): it times the experiment via
pytest-benchmark, asserts the paper's qualitative *shape*, and persists the
rendered rows/series under ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# The bit-exactness references live in ``tests/oracles``; make the repo
# root importable so benches can compare against them.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Persist one experiment's formatted output as results/<id>.txt."""

    def _save(experiment_id: str, text: str) -> None:
        path = results_dir / f"{experiment_id}.txt"
        path.write_text(text + "\n")

    return _save


def write_bench_json(
    results_dir: pathlib.Path, bench_id: str, payload: dict
) -> pathlib.Path:
    """Write one benchmark's machine-readable ledger entry.

    Produces ``results/BENCH_<id>.json`` with the benchmark's metrics under
    ``"results"`` plus enough environment context (python, platform,
    timestamp) to compare entries across runs — the JSON twin of the
    human-readable ``results/<id>.txt`` tables.
    """
    path = results_dir / f"BENCH_{bench_id}.json"
    record = {
        "bench_id": bench_id,
        "unix_time_s": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": payload,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def save_json(results_dir):
    """Persist one benchmark's metrics as results/BENCH_<id>.json."""

    def _save(bench_id: str, payload: dict) -> pathlib.Path:
        return write_bench_json(results_dir, bench_id, payload)

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (experiments are seconds-long)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
