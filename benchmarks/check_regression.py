#!/usr/bin/env python
"""CI bench-regression gate: diff fresh ``BENCH_*.json`` against baselines.

The bench suite writes machine-readable ledgers to
``benchmarks/results/BENCH_<id>.json`` (see ``conftest.write_bench_json``),
and those files are committed — they *are* the performance baseline.  A CI
run re-executes the benches (overwriting the working tree copies) and then
runs this script, which compares every fresh ledger against the committed
one and fails the job when:

* a throughput metric (``qps``-keyed leaf) dropped more than
  ``--threshold`` (default 20%);
* a median-latency metric (``p50``-keyed leaf) rose more than
  ``--threshold``, beyond an absolute ``--p50-grace-ms`` slack that keeps
  micro-latencies (a 2 ms p50 jittering to 2.5 ms) from flaking the gate;
* a bit-exactness flag (``bit_exact`` / ``bit_identical`` style boolean
  leaf) that was true in the baseline is false in the fresh run — this is
  never tolerated, at any threshold.

Baselines come from ``git show <ref>:<path>`` by default (``--baseline-ref
HEAD``: the committed ledger of the checked-out commit) or from a plain
directory (``--baseline-dir``) when diffing two run outputs.  Metrics
present only on one side are reported but never fail the gate — new
benches and retired modes must not require lockstep commits.

Exit codes: 0 pass, 1 regression found, 2 no comparable baselines.

Usage::

    python benchmarks/check_regression.py                 # gate vs HEAD
    python benchmarks/check_regression.py --threshold 0.3
    python benchmarks/check_regression.py --baseline-dir /tmp/prev-results
    python benchmarks/check_regression.py --markdown summary.md
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Substrings classifying a numeric leaf key. Throughput is
#: higher-is-better, median latency lower-is-better; everything else is
#: informational and never gated (p95/p99 tails are too noisy to gate).
_THROUGHPUT_MARKERS = ("qps",)
_LATENCY_MARKERS = ("p50",)
_BIT_MARKERS = ("bit_exact", "bit_identical")


def walk_leaves(node, prefix=""):
    """Yield ``(dotted.path, value)`` for every scalar leaf of a ledger."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from walk_leaves(node[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            yield from walk_leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, node


def classify(path: str) -> str | None:
    """``"qps"``, ``"p50"``, ``"bit"`` or None for an ungated leaf.

    A bit-exactness marker on any key of the path makes a bit flag, so
    per-method flags nested under one (``lab.bit_exact.centroid``) are
    gated like a ``bit_exact`` leaf.
    """
    keys = path.lower().split(".")
    if any(m in key for key in keys for m in _BIT_MARKERS):
        return "bit"
    leaf = keys[-1]
    if any(m in leaf for m in _THROUGHPUT_MARKERS):
        return "qps"
    if any(m in leaf for m in _LATENCY_MARKERS):
        return "p50"
    return None


def load_baseline_git(ref: str, fresh_path: pathlib.Path) -> dict | None:
    """The committed ledger at ``ref`` for one fresh results file."""
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        check=True,
        cwd=fresh_path.parent,
    ).stdout.strip()
    rel = fresh_path.resolve().relative_to(pathlib.Path(top))
    shown = subprocess.run(
        ["git", "show", f"{ref}:{rel.as_posix()}"],
        capture_output=True,
        text=True,
        cwd=top,
    )
    if shown.returncode != 0:  # new bench: no baseline yet
        return None
    return json.loads(shown.stdout)


def compare(
    bench_id: str,
    baseline: dict,
    fresh: dict,
    threshold: float,
    p50_grace_ms: float,
):
    """``(violations, notes, rows)`` for one ledger pair."""
    base_leaves = dict(walk_leaves(baseline.get("results", {})))
    fresh_leaves = dict(walk_leaves(fresh.get("results", {})))
    violations, notes, rows = [], [], []
    for path in sorted(base_leaves.keys() | fresh_leaves.keys()):
        kind = classify(path)
        if kind is None:
            continue
        if path not in fresh_leaves:
            notes.append(f"{bench_id}: {path} gone from fresh run (ungated)")
            continue
        if path not in base_leaves:
            notes.append(f"{bench_id}: {path} has no baseline yet (ungated)")
            continue
        base, new = base_leaves[path], fresh_leaves[path]
        if kind == "bit":
            rows.append((bench_id, path, base, new, "ok" if new else "FAIL"))
            if base and not new:
                violations.append(
                    f"{bench_id}: {path} lost bit-exactness "
                    f"(baseline {base!r} -> fresh {new!r})"
                )
            continue
        if not isinstance(base, (int, float)) or not isinstance(
            new, (int, float)
        ):
            continue
        if kind == "qps":
            floor = base * (1.0 - threshold)
            verdict = "ok" if new >= floor else "FAIL"
            if verdict == "FAIL":
                violations.append(
                    f"{bench_id}: {path} dropped "
                    f"{(1 - new / base) * 100:.1f}% "
                    f"({base:.1f} -> {new:.1f}, floor {floor:.1f})"
                )
        else:  # p50: lower is better, with absolute grace for micro-latencies
            ceiling = base * (1.0 + threshold) + p50_grace_ms
            verdict = "ok" if new <= ceiling else "FAIL"
            if verdict == "FAIL":
                violations.append(
                    f"{bench_id}: {path} rose "
                    f"{(new / base - 1) * 100:.1f}% "
                    f"({base:.2f} -> {new:.2f}, ceiling {ceiling:.2f})"
                )
        rows.append((bench_id, path, round(base, 3), round(new, 3), verdict))
    return violations, notes, rows


def render_markdown(rows, violations, notes, threshold) -> str:
    """A summary table for CI artifacts / job summaries."""
    lines = [
        "# Bench regression report",
        "",
        f"Gate: qps -{threshold:.0%} / p50 +{threshold:.0%}; "
        "bit-exactness must hold.",
        "",
        "| bench | metric | baseline | fresh | verdict |",
        "|---|---|---:|---:|---|",
    ]
    for bench_id, path, base, new, verdict in rows:
        mark = "✅" if verdict == "ok" else "❌"
        lines.append(f"| {bench_id} | `{path}` | {base} | {new} | {mark} |")
    if violations:
        lines += ["", "## Regressions", ""]
        lines += [f"- {v}" for v in violations]
    if notes:
        lines += ["", "## Notes", ""]
        lines += [f"- {n}" for n in notes]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail CI when a fresh bench ledger regresses vs baseline."
    )
    parser.add_argument(
        "bench_ids",
        nargs="*",
        help="ledger ids to gate (default: every BENCH_*.json present)",
    )
    parser.add_argument(
        "--results-dir",
        type=pathlib.Path,
        default=RESULTS_DIR,
        help="directory holding the fresh BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref providing the committed baselines (default HEAD)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=None,
        help="read baselines from this directory instead of git",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative regression tolerance (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--p50-grace-ms",
        type=float,
        default=1.0,
        help="absolute p50 slack in ms on top of the threshold",
    )
    parser.add_argument(
        "--markdown",
        type=pathlib.Path,
        default=None,
        help="also write a markdown summary to this path",
    )
    args = parser.parse_args(argv)

    fresh_paths = sorted(args.results_dir.glob("BENCH_*.json"))
    if args.bench_ids:
        wanted = {f"BENCH_{b}.json" for b in args.bench_ids}
        fresh_paths = [p for p in fresh_paths if p.name in wanted]
        missing = wanted - {p.name for p in fresh_paths}
        if missing:
            print(f"error: no fresh ledger for {sorted(missing)}")
            return 2

    all_violations, all_notes, all_rows = [], [], []
    compared = 0
    for fresh_path in fresh_paths:
        fresh = json.loads(fresh_path.read_text())
        if args.baseline_dir is not None:
            base_path = args.baseline_dir / fresh_path.name
            baseline = (
                json.loads(base_path.read_text())
                if base_path.exists()
                else None
            )
        else:
            baseline = load_baseline_git(args.baseline_ref, fresh_path)
        bench_id = fresh.get("bench_id", fresh_path.stem)
        if baseline is None:
            all_notes.append(f"{bench_id}: no baseline (new bench, ungated)")
            continue
        compared += 1
        violations, notes, rows = compare(
            bench_id, baseline, fresh, args.threshold, args.p50_grace_ms
        )
        all_violations += violations
        all_notes += notes
        all_rows += rows

    for row in all_rows:
        print("{:<22} {:<55} base={:<12} fresh={:<12} {}".format(*row))
    for note in all_notes:
        print(f"note: {note}")
    if args.markdown is not None:
        args.markdown.write_text(
            render_markdown(all_rows, all_violations, all_notes, args.threshold)
        )
        print(f"markdown summary -> {args.markdown}")

    if not compared:
        print("error: no ledgers with baselines to compare")
        return 2
    if all_violations:
        print(f"\nREGRESSIONS ({len(all_violations)}):")
        for violation in all_violations:
            print(f"  {violation}")
        return 1
    gated = sum(1 for r in all_rows if r[4] == "ok")
    print(f"\nOK: {gated} gated metrics across {compared} ledgers, no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
