"""Degradation-aware localization: wiring verdicts into the SP pipeline.

The guard layer's decision rule (the "policy") is deliberately simple:

* ``REJECTED`` links contribute **no** anchor — every constraint row
  they would have generated is dropped before the relaxation LP;
* ``DEGRADED`` links keep their anchor, but every pairwise row touching
  them has its confidence weight scaled by the link's quality score
  (see :func:`~repro.core.constraints.pairwise_constraints_batch`) — a noisy
  witness still testifies, just more quietly;
* ``OK`` links pass through untouched: with nothing degraded the gated
  pipeline is bit-identical to the ungated one.

:class:`GuardedSystem` composes a :class:`~repro.core.NomLocSystem`
with an optional :class:`~repro.guard.faults.LinkFaultInjector` and a
:class:`~repro.guard.quality.GuardConfig`, producing estimates that
carry ``confidence`` and ``degradation_reasons``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..core.constraints import Anchor
from ..core.localizer import LocationEstimate
from ..core.system import LinkRecord, NomLocSystem
from ..geometry import Point
from ..mobility import MobilityPattern
from ..obs import span
from .faults import LinkFaultInjector
from .quality import GuardConfig, LinkStatus, LinkVerdict, assess_link

__all__ = [
    "GuardError",
    "InsufficientLinksError",
    "GateResult",
    "gate_records",
    "GuardedSystem",
]


class GuardError(RuntimeError):
    """Base error of the guard layer's gating decisions."""


class InsufficientLinksError(GuardError):
    """Too few links survived gating to partition space at all.

    Localization needs at least two usable anchors (one bisector); when
    gating rejects everything the caller must know *why* rather than get
    a cryptic LP failure, so the message lists each rejection.
    """


@dataclass(frozen=True)
class GateResult:
    """Everything the gate decided about one query's links.

    Attributes
    ----------
    anchors:
        Anchors of the usable (ok + degraded) links, in link order.
    quality_weights:
        Per-anchor quality scores for the relaxation LP, or ``None``
        when every link passed at full quality (which keeps the LP's
        weight arithmetic bit-identical to the ungated path).
    verdicts:
        Every link's ruling, in link order — including rejected ones.
    """

    anchors: tuple[Anchor, ...]
    quality_weights: dict[str, float] | None
    verdicts: tuple[LinkVerdict, ...]

    @property
    def degraded(self) -> tuple[str, ...]:
        """Names of links kept with reduced weight."""
        return tuple(
            v.name for v in self.verdicts if v.status is LinkStatus.DEGRADED
        )

    @property
    def rejected(self) -> tuple[str, ...]:
        """Names of links whose constraint rows were dropped."""
        return tuple(
            v.name for v in self.verdicts if v.status is LinkStatus.REJECTED
        )

    @property
    def confidence(self) -> float:
        """Mean per-link quality, rejected links counting as zero."""
        if not self.verdicts:
            return 0.0
        total = sum(v.quality if v.usable else 0.0 for v in self.verdicts)
        return total / len(self.verdicts)

    @property
    def reasons(self) -> tuple[str, ...]:
        """Sorted, deduplicated union of every link's gating reasons."""
        out: set[str] = set()
        for v in self.verdicts:
            out.update(v.reasons)
        return tuple(sorted(out))

    def to_dict(self) -> dict:
        """Plain-dict wire form of the whole gate outcome.

        Everything the serving layer needs to reproduce the gated query
        exactly survives: anchors (positions + PDPs, floats round-trip
        bit-exactly through JSON), quality weights, and every link's
        :meth:`~repro.guard.quality.LinkVerdict.to_dict` record.  This
        is what the gateway protocol carries in a request's optional
        ``gate`` section and what the verdict ledger persists.
        """
        return {
            "anchors": [
                {
                    "name": a.name,
                    "x": a.position.x,
                    "y": a.position.y,
                    "pdp": a.pdp,
                    "nomadic": a.nomadic,
                }
                for a in self.anchors
            ],
            "quality_weights": (
                None
                if self.quality_weights is None
                else dict(self.quality_weights)
            ),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GateResult":
        """Rebuild a gate outcome from its :meth:`to_dict` record."""
        anchors = tuple(
            Anchor(
                name=a["name"],
                position=Point(float(a["x"]), float(a["y"])),
                pdp=float(a["pdp"]),
                nomadic=bool(a.get("nomadic", False)),
            )
            for a in record.get("anchors") or ()
        )
        weights = record.get("quality_weights")
        return cls(
            anchors=anchors,
            quality_weights=None if weights is None else dict(weights),
            verdicts=tuple(
                LinkVerdict.from_dict(v) for v in record.get("verdicts") or ()
            ),
        )


def gate_records(
    records: Sequence[LinkRecord],
    expected_packets: int | None = None,
    config: GuardConfig | None = None,
) -> GateResult:
    """Assess every link of one query and assemble the gated anchor set.

    Links salvaged for ``dispersed-cir-energy`` get one extra repair
    here that a single link cannot do for itself: the *clean* links of
    the same gate set measure the channel's current max-tap-to-energy
    ratio directly, so the salvaged link's PDP is rebuilt as
    ``mean(clean pdp/energy) * energy`` — a per-query calibration that
    is far tighter than the global concentration prior (and entirely in
    the spirit of a calibration-free system: the prior comes from the
    same query, not from offline profiling).  A recalibrated link's
    residual error is comparable to ordinary packet noise, so its rows
    keep a full LP vote; the capped :attr:`LinkVerdict.quality` still
    flows into the estimate's reported confidence.  When no clean link
    exists to calibrate against, the verdict's global-prior PDP and
    capped weight are used as-is.  All of this fires only once a fault
    is detected — the zero-fault path stays bit-identical to the
    ungated pipeline.
    """
    cfg = config or GuardConfig()
    with span("guard.gate", links=len(records)) as sp:
        verdicts = tuple(
            assess_link(r, expected_packets, cfg) for r in records
        )
        clean_ratios = [
            v.pdp / v.energy
            for v in verdicts
            if v.status is LinkStatus.OK and v.energy
        ]
        query_prior = (
            sum(clean_ratios) / len(clean_ratios) if clean_ratios else None
        )
        anchors = []
        weights: dict[str, float] = {}
        all_clean = True
        recalibrated = 0
        for record, verdict in zip(records, verdicts):
            if not verdict.usable:
                all_clean = False
                continue
            proximity = verdict.pdp
            weight = verdict.quality
            if (
                "dispersed-cir-energy" in verdict.reasons
                and query_prior is not None
            ):
                proximity = query_prior * verdict.energy
                weight = 1.0
                recalibrated += 1
            anchors.append(
                Anchor(
                    record.name, record.position, proximity, record.nomadic
                )
            )
            weights[record.name] = weight
            if verdict.status is not LinkStatus.OK:
                all_clean = False
        sp.incr("rejected", len(records) - len(anchors))
        sp.incr("recalibrated", recalibrated)
        return GateResult(
            tuple(anchors), None if all_clean else weights, verdicts
        )


class GuardedSystem:
    """A :class:`~repro.core.NomLocSystem` behind the guard layer.

    Parameters
    ----------
    system:
        The clean NomLoc stack to protect.
    injector:
        Optional scripted corruption applied to every gathered batch
        (drills and benchmarks; production runs without one).
    config:
        Gating thresholds.
    gate:
        ``False`` runs the injector but **not** the gate — the
        "gating OFF" arm of ``bench_guard``, where corrupted links flow
        into the localizer at full confidence (NaN-poisoned links are
        salvaged with the skip-invalid estimator to keep the arm
        runnable at all).
    """

    def __init__(
        self,
        system: NomLocSystem,
        injector: LinkFaultInjector | None = None,
        config: GuardConfig | None = None,
        gate: bool = True,
    ) -> None:
        self.system = system
        self.injector = injector
        self.config = config or GuardConfig()
        self.gate = gate

    def gather(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> list[LinkRecord]:
        """One query's link records, after any scripted corruption."""
        records = self.system.gather_link_records(
            object_position, rng, pattern
        )
        if self.injector is not None:
            records = self.injector.corrupt_batch(records)
        return records

    def locate(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> LocationEstimate:
        """One guarded localization query."""
        estimate, _ = self.locate_with_result(object_position, rng, pattern)
        return estimate

    def locate_with_result(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> tuple[LocationEstimate, GateResult]:
        """One guarded query plus the gate's full per-link rulings."""
        records = self.gather(object_position, rng, pattern)
        if self.gate:
            result = gate_records(
                records, self.system.config.packets_per_link, self.config
            )
        else:
            result = self._ungated_result(records)
        if len(result.anchors) < 2:
            details = "; ".join(
                f"{v.name}: {', '.join(v.reasons) or v.status.value}"
                for v in result.verdicts
            )
            raise InsufficientLinksError(
                f"only {len(result.anchors)} of {len(records)} links "
                f"survived gating, need at least 2 ({details})"
            )
        estimate = self.system.localizer.locate(
            result.anchors, quality_weights=result.quality_weights
        )
        return (
            replace(
                estimate,
                confidence=result.confidence,
                degradation_reasons=result.reasons,
            ),
            result,
        )

    def _ungated_result(self, records: Sequence[LinkRecord]) -> GateResult:
        """The gating-OFF arm: believe every link at full confidence.

        Mirrors the historical pipeline (estimate, gains, anchor), with
        one necessary concession: NaN-poisoned or empty batches would
        crash the estimator outright, so they fall back to the
        skip-invalid estimator or — when nothing is salvageable — drop
        the link.  No quality weighting, no verdicts beyond bookkeeping.
        """
        from ..core.pdp import (
            InvalidMeasurementError,
            estimate_pdp_batch,
            estimate_pdp_skip_invalid,
        )

        anchors = []
        verdicts = []
        expected = self.system.config.packets_per_link
        for record in records:
            pdp = None
            try:
                pdp = record.estimate(estimate_pdp_batch)
            except InvalidMeasurementError:
                try:
                    pdp = record.estimate(estimate_pdp_skip_invalid)
                except (InvalidMeasurementError, ValueError):
                    pdp = None
            except ValueError:
                pdp = None
            if pdp is None or not pdp > 0.0:
                verdicts.append(
                    LinkVerdict(
                        record.name,
                        LinkStatus.REJECTED,
                        0.0,
                        ("unestimable-batch",),
                        0,
                        expected,
                        None,
                    )
                )
                continue
            anchors.append(
                Anchor(record.name, record.position, pdp, record.nomadic)
            )
            verdicts.append(
                LinkVerdict(
                    record.name,
                    LinkStatus.OK,
                    1.0,
                    (),
                    len(record.measurements),
                    expected,
                    pdp,
                )
            )
        return GateResult(tuple(anchors), None, tuple(verdicts))
