"""Trace sinks: JSONL files and an in-memory per-stage aggregator.

Two consumption modes for the spans a :class:`~repro.obs.Tracer`
collects:

* **JSONL export** — one span per line, loadable by any tooling (or by
  :func:`load_jsonl` for a lossless round-trip).  This is the raw-trace
  path behind ``repro serve --trace-out``.
* **Aggregation** — :class:`SpanAggregator` folds spans into per-name
  count / total / mean / p50 / p95 rows plus summed counters.  Its
  :meth:`~SpanAggregator.snapshot` dict merges into
  :meth:`repro.serving.LocalizationService.metrics_snapshot`, and
  :func:`format_stage_table` renders it as the CLI's stage-latency
  breakdown.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Sequence

from .trace import Span

__all__ = [
    "SpanAggregator",
    "aggregate",
    "dump_jsonl",
    "format_stage_table",
    "load_jsonl",
    "write_jsonl",
]


def write_jsonl(spans: Iterable[Span], stream: IO[str]) -> int:
    """Write one JSON record per span to ``stream``; returns the count."""
    count = 0
    for span in spans:
        stream.write(json.dumps(span.to_dict(), sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def dump_jsonl(spans: Iterable[Span], path) -> int:
    """Write spans to a JSONL file; returns the number written."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_jsonl(spans, stream)


def load_jsonl(path) -> list[Span]:
    """Rebuild spans from a JSONL trace file (blank lines ignored)."""
    spans = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


class SpanAggregator:
    """Folds spans into per-span-name latency/counter statistics.

    Not thread-safe by itself — feed it a finished-span snapshot
    (:meth:`Tracer.finished` already copies under the tracer lock).
    """

    def __init__(self) -> None:
        self._durations: dict[str, list[float]] = {}
        self._counters: dict[str, dict[str, float]] = {}

    def add(self, span: Span) -> None:
        """Fold one finished span into the aggregate."""
        self._durations.setdefault(span.name, []).append(span.duration_s)
        if span.counters:
            sums = self._counters.setdefault(span.name, {})
            for key, value in span.counters.items():
                sums[key] = sums.get(key, 0.0) + value

    def add_all(self, spans: Iterable[Span]) -> "SpanAggregator":
        """Fold every span in; returns self for chaining."""
        for span in spans:
            self.add(span)
        return self

    def __len__(self) -> int:
        return sum(len(d) for d in self._durations.values())

    def snapshot(self) -> dict:
        """``{span_name: {count, total_s, mean_s, p50_s, p95_s, counters}}``.

        The same plain-dict discipline as
        :meth:`repro.serving.metrics.ServiceMetrics.snapshot`, so the two
        merge into one observable service state.
        """
        out: dict = {}
        for name, durations in self._durations.items():
            data = sorted(durations)
            total = float(sum(data))
            row = {
                "count": len(data),
                "total_s": total,
                "mean_s": total / len(data),
                "p50_s": _percentile(data, 50.0),
                "p95_s": _percentile(data, 95.0),
            }
            counters = self._counters.get(name)
            if counters:
                row["counters"] = dict(counters)
            out[name] = row
        return out


def aggregate(spans: Iterable[Span]) -> dict:
    """One-shot aggregation: spans in, snapshot dict out."""
    return SpanAggregator().add_all(spans).snapshot()


def format_stage_table(stages: dict) -> str:
    """Render an aggregator snapshot as the per-stage latency table.

    Stages are ordered by total time spent (descending) — the profile
    reader's first question is "where did the time go".
    """
    header = [
        "stage",
        "count",
        "total(ms)",
        "mean(ms)",
        "p50(ms)",
        "p95(ms)",
        "counters",
    ]
    rows = []
    for name, row in sorted(
        stages.items(), key=lambda item: item[1]["total_s"], reverse=True
    ):
        counters = row.get("counters") or {}
        rows.append(
            [
                name,
                row["count"],
                f"{row['total_s'] * 1e3:.2f}",
                f"{row['mean_s'] * 1e3:.3f}",
                f"{row['p50_s'] * 1e3:.3f}",
                f"{row['p95_s'] * 1e3:.3f}",
                ", ".join(f"{k}={v:g}" for k, v in sorted(counters.items())) or "-",
            ]
        )
    widths = [
        max(len(str(header[col])), *(len(str(r[col])) for r in rows))
        if rows
        else len(header[col])
        for col in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for r in rows:
        lines.append(
            "  ".join(str(v).ljust(widths[i]) for i, v in enumerate(r)).rstrip()
        )
    return "\n".join(lines)
