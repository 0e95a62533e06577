"""Measurement-layer robustness: fault injection, sanity, gating.

The layers beneath :mod:`repro.serving` assume every CSI batch is
trustworthy; this package drops that assumption.  It injects the
corruption real radios produce (:mod:`~repro.guard.faults`), detects it
structurally and statistically (:mod:`~repro.guard.sanity`,
:mod:`~repro.guard.quality`), and feeds the verdicts into the SP
pipeline as dropped rows and scaled weights
(:mod:`~repro.guard.policy`).  With nothing scheduled and nothing
flagged the guarded pipeline is bit-identical to the clean one —
``benchmarks/bench_guard.py`` enforces both that and the accuracy win
under corruption.
"""

from .faults import (
    LinkFault,
    LinkFaultInjector,
    LinkFaultKind,
    LinkFaultPlan,
    parse_fault_spec,
)
from .policy import (
    GateResult,
    GuardError,
    GuardedSystem,
    InsufficientLinksError,
    gate_records,
)
from .quality import GuardConfig, LinkStatus, LinkVerdict, assess_link
from .sanity import StructuralReport, inspect_batch

__all__ = [
    "LinkFaultKind",
    "LinkFault",
    "LinkFaultPlan",
    "LinkFaultInjector",
    "parse_fault_spec",
    "StructuralReport",
    "inspect_batch",
    "GuardConfig",
    "LinkStatus",
    "LinkVerdict",
    "assess_link",
    "GuardError",
    "InsufficientLinksError",
    "GateResult",
    "gate_records",
    "GuardedSystem",
]
