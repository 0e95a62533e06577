"""The benchmark's arithmetic, free of I/O so it can be unit tested.

Four jobs, each a pure function of recorded numbers:

* percentiles that carry their sample count (``summarize``);
* open-loop latency accounting from the time an operation was *due*,
  not the time the generator got round to sending it (``due_latencies``);
* matching a batch's ``track`` frame on the WebSocket stream to the
  batch itself (``match_frames``): the gateway publishes a batch's
  ``position`` frame (which names the batch) and its ``track`` frame
  (which does not) back to back on the object's stream, so the track
  frame is the one whose ``stream_seq`` directly follows the position's;
* span self time and the per-fix layer split, with the remainder of
  the fix latency reported as ``unattributed`` (``self_times``,
  ``layer_split``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (an actual sample, never interpolated)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> dict:
    """``{"n", "p50", "p95", "mean"}`` of one sample.

    ``n`` travels with the quantiles so a p95 is never read without
    knowing how many samples lie beyond it.
    """
    if not values:
        return {"n": 0, "p50": math.nan, "p95": math.nan, "mean": math.nan}
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "mean": sum(values) / len(values),
    }


def due_latencies(
    due: Mapping[str, float], arrived: Mapping[str, float]
) -> dict[str, float]:
    """Latency of every operation that arrived, measured from its due time.

    Timing from the due time charges a generator or server stall to
    every operation queued behind it, which is what an open loop must
    report.  Operations that never arrived have no entry.
    """
    return {
        op_id: arrived[op_id] - due_s
        for op_id, due_s in due.items()
        if op_id in arrived
    }


def match_frames(frames: Iterable[Mapping]) -> tuple[dict, dict]:
    """Match stream frames to batches.

    ``frames`` are the received WebSocket frames in arrival order, each
    with ``type``, ``object_id``, ``stream_seq``, ``t`` (arrival time)
    and, for ``position`` frames, ``batch_id``.

    Returns ``(counts, track_arrival)``: ``counts[batch_id]`` is
    ``[positions, tracks]`` seen for the batch, and
    ``track_arrival[batch_id]`` the arrival time of its (first) track
    frame.  A track frame that does not directly follow a position frame
    of the same object is counted under the key ``None``.
    """
    last_position: dict[str, tuple[str, int]] = {}
    counts: dict = {}
    track_arrival: dict[str, float] = {}
    for frame in frames:
        kind = frame.get("type")
        object_id = frame.get("object_id")
        if kind == "position":
            batch_id = frame["batch_id"]
            last_position[object_id] = (batch_id, frame["stream_seq"])
            counts.setdefault(batch_id, [0, 0])[0] += 1
        elif kind == "track":
            prior = last_position.get(object_id)
            if prior is not None and prior[1] + 1 == frame["stream_seq"]:
                batch_id = prior[0]
                tally = counts.setdefault(batch_id, [0, 0])
                tally[1] += 1
                track_arrival.setdefault(batch_id, frame["t"])
            else:
                counts.setdefault(None, [0, 0])[1] += 1
    return counts, track_arrival


def self_times(spans: Sequence[Mapping]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so a parent's self time never goes negative
    and concurrent children are not double-counted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        parent = sp.get("parent_id")
        if parent is not None:
            start = sp["start_s"]
            children.setdefault(parent, []).append(
                (start, start + sp["duration_s"])
            )
    out: dict[int, float] = {}
    for sp in spans:
        lo = sp["start_s"]
        hi = lo + sp["duration_s"]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(sp["span_id"], ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[sp["span_id"]] = max(0.0, sp["duration_s"] - covered)
    return out


def span_keys(
    spans: Sequence[Mapping], key_attrs: Sequence[str] = ("key",)
) -> dict[int, object]:
    """Each span's key: the first of its ``key_attrs`` attributes that is
    set or, failing that, its nearest keyed ancestor's (None if none)."""
    by_id = {sp["span_id"]: sp for sp in spans}
    out: dict[int, object] = {}
    for sp in spans:
        path: list[int] = []
        key = None
        node = sp
        while node is not None:
            span_id = node["span_id"]
            if span_id in out:
                key = out[span_id]
                break
            if span_id in path:
                raise ValueError("span parent links form a cycle")
            path.append(span_id)
            attrs = node.get("attributes") or {}
            key = next((attrs[a] for a in key_attrs if attrs.get(a)), None)
            if key is not None:
                break
            node = by_id.get(node.get("parent_id"))
        for span_id in path:
            out[span_id] = key
    return out


def layer_split(
    spans: Sequence[Mapping],
    layer_of: Mapping[str, str],
    key_attrs: Sequence[str] = ("key",),
) -> tuple[dict[str, dict[str, float]], dict[str, float], dict[str, float]]:
    """Per-key (per-fix) self time by layer.

    A span's key comes from :func:`span_keys`; its layer is
    ``layer_of[name]`` or its nearest mapped ancestor's.  Spans with no
    key or no layer anywhere up the tree are left out.  Waits recorded
    on a span as the ``wait_s`` attribute (time queued before the span
    could start) are credited to the layer ``<layer>.wait``.

    Returns ``(split, total, first)``: ``split[key][layer]`` in
    seconds, ``total[key]`` the sum over layers (the attributed part of
    that fix's latency), and ``first[key]`` the earliest start of any
    span of the key — when the server first touched the fix.
    """
    by_id = {sp["span_id"]: sp for sp in spans}
    selfs = self_times(spans)
    keys = span_keys(spans, key_attrs)

    def layer(sp: Mapping):
        node = sp
        while node is not None:
            found = layer_of.get(node["name"])
            if found is not None:
                return found
            node = by_id.get(node.get("parent_id"))
        return None

    split: dict[str, dict[str, float]] = {}
    first: dict[str, float] = {}
    for sp in spans:
        key = keys[sp["span_id"]]
        if key is None:
            continue
        first[key] = min(first.get(key, sp["start_s"]), sp["start_s"])
        name = layer(sp)
        if name is None:
            continue
        row = split.setdefault(key, {})
        row[name] = row.get(name, 0.0) + selfs[sp["span_id"]]
        wait = (sp.get("attributes") or {}).get("wait_s")
        if wait:
            row[f"{name}.wait"] = row.get(f"{name}.wait", 0.0) + wait
    total = {key: sum(row.values()) for key, row in split.items()}
    return split, total, first


def interpolate(samples: Sequence[tuple[float, float]], t: float) -> float:
    """Linear interpolation in time-ordered ``(t, value)`` samples.

    Clamped to the first and last sample outside their range.
    """
    if not samples:
        raise ValueError("no samples to interpolate")
    if t <= samples[0][0]:
        return samples[0][1]
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if t <= t1:
            if t1 == t0:
                return v1
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return samples[-1][1]


def windows(
    fixes: Sequence[tuple],
    cpu: Sequence[tuple[float, float]],
    width: float,
    span: float,
) -> list[dict]:
    """Split a run into consecutive windows of ``width`` seconds.

    ``fixes`` are ``(time, fix latency, ack latency, ...)`` tuples whose
    time (due or send time) places them in a window; ``cpu`` are
    ``(time, cumulative CPU seconds)`` samples.  Windows tile
    ``[0, span)``; a tail shorter than half a window joins the window
    before it.  Each window reports its fix and ack latencies and the
    CPU spent over it.
    """
    count = max(1, int(span / width + 0.5))
    edges = [i * width for i in range(count)] + [max(span, count * width)]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        chosen = [f for f in fixes if lo <= f[0] < hi]
        out.append(
            {
                "t0": lo,
                "t1": hi,
                "fix": [f[1] for f in chosen],
                "ack": [f[2] for f in chosen],
                "cpu_s": interpolate(cpu, hi) - interpolate(cpu, lo),
            }
        )
    return out


def unattributed(
    latency: Mapping[str, float], attributed: Mapping[str, float]
) -> list[float]:
    """Fix latency minus its attributed self times, per fix with both."""
    return [latency[k] - attributed[k] for k in latency if k in attributed]
