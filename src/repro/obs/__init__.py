"""Observability: tracing + profiling for the whole NomLoc pipeline.

The pipeline's accuracy *and* latency are stage-dominated (CSI synthesis
→ IFFT/CIR → PDP proximity → weighted relaxation LP → feasible-region
merge), so this package attributes wall time to stages the way the
paper's SLV analysis attributes error to them:

* :mod:`~repro.obs.trace` — nested, attributed, counted spans with
  per-thread active stacks (safe under the serving worker pool);
* :mod:`~repro.obs.instrument` — the process-global switch; ``span()``
  is a shared no-op while disabled, so always-on instrumentation in the
  hot path costs ~nothing (benchmark-guarded);
* :mod:`~repro.obs.exporters` — JSONL trace files and the per-stage
  count/total/p50/p95 aggregator that merges into serving metrics
  snapshots (``repro serve --trace`` prints its table).

Instrumented call sites only ever do::

    from ..obs import span, add_counter

and stay bit-identical with tracing on or off.
"""

from .exporters import (
    SpanAggregator,
    aggregate,
    dump_jsonl,
    format_stage_table,
    load_jsonl,
    write_jsonl,
)
from .instrument import (
    NULL_SPAN,
    add_counter,
    capture,
    current_span,
    disable,
    enable,
    get_tracer,
    is_enabled,
    span,
)
from .trace import Span, Tracer

__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanAggregator",
    "Tracer",
    "add_counter",
    "aggregate",
    "capture",
    "current_span",
    "disable",
    "dump_jsonl",
    "enable",
    "format_stage_table",
    "get_tracer",
    "is_enabled",
    "load_jsonl",
    "span",
    "write_jsonl",
]
