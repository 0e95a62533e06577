"""Measurement-layer fault injection: corrupting CSI where radios fail.

This module drills the measurements themselves, the layer below
serving.  A :class:`LinkFaultPlan` scripts the corruption modes a real
CSI pipeline sees, and a seeded
:class:`LinkFaultInjector` applies them to
:class:`~repro.core.LinkRecord` batches at the channel boundary, before
any PDP estimation:

* ``SUBCARRIER_DROPOUT`` — the NIC reports exact-zero gains on a random
  subset of subcarriers (firmware drops, pilot failures);
* ``PACKET_LOSS`` — packets silently missing from the batch (the link's
  sample count falls short of the campaign's budget);
* ``NAN_BURST`` — a contiguous run of subcarriers comes back NaN
  (driver glitch mid-report);
* ``RSSI_SATURATION`` — front-end clipping: subcarrier amplitudes are
  hard-limited, flattening the channel's structure;
* ``PHASE_OFFSET`` — an unsynchronized oscillator smears per-subcarrier
  phase, dispersing CIR energy across taps and destroying the max-tap
  PDP estimate;
* ``AP_OUTAGE`` — the whole link vanishes (AP powered off mid-query).

Determinism contract: corruption for a link is a pure function of
``(seed, link name, per-link call index)``, so a drill replays
bit-identically regardless of AP iteration order or how other links are
faulted.  A link matched by **no** fault is returned untouched with
**zero** RNG consumption — composing an empty plan with the clean
pipeline is bit-identical to not composing it at all (enforced by
``benchmarks/bench_guard.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from ..channel.csi import CSIMeasurement
from ..core.system import LinkRecord

__all__ = [
    "LinkFaultKind",
    "LinkFault",
    "LinkFaultPlan",
    "LinkFaultInjector",
    "parse_fault_spec",
]


class LinkFaultKind(Enum):
    """The injectable measurement corruption modes."""

    SUBCARRIER_DROPOUT = "subcarrier-dropout"
    PACKET_LOSS = "packet-loss"
    NAN_BURST = "nan-burst"
    RSSI_SATURATION = "rssi-saturation"
    PHASE_OFFSET = "phase-offset"
    AP_OUTAGE = "ap-outage"


#: Fault kinds drawn once per ``corrupt()`` call for the whole link
#: (the failure is a property of the radio, not of single packets).
_LINK_LEVEL = frozenset(
    {
        LinkFaultKind.RSSI_SATURATION,
        LinkFaultKind.PHASE_OFFSET,
        LinkFaultKind.AP_OUTAGE,
    }
)


@dataclass(frozen=True)
class LinkFault:
    """One scripted corruption mode.

    Attributes
    ----------
    kind:
        Which corruption to apply.
    rate:
        Bernoulli probability in ``[0, 1]``: per *packet* for the
        packet-level kinds (dropout, loss, NaN burst), per ``corrupt()``
        *call* for the link-level kinds (saturation, phase, outage).
    ap:
        Restrict to one AP by name (a nomadic AP's per-site links
        ``"AP1@s2"`` match both their full name and the bare ``"AP1"``);
        ``None`` targets every link.
    dropout_fraction:
        Fraction of subcarriers zeroed per dropout-hit packet.
    burst_width:
        Length of the NaN subcarrier run per burst-hit packet.
    saturation_level:
        Clip ceiling as a fraction of each packet's peak subcarrier
        amplitude (lower = harsher clipping).
    phase_sigma_rad:
        Std of the per-subcarrier phase jitter (applied on top of a
        random constant offset) when a phase fault strikes.
    """

    kind: LinkFaultKind
    rate: float
    ap: str | None = None
    dropout_fraction: float = 0.25
    burst_width: int = 8
    saturation_level: float = 0.35
    phase_sigma_rad: float = 2.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        if not 0.0 < self.dropout_fraction <= 1.0:
            raise ValueError("dropout_fraction must be in (0, 1]")
        if self.burst_width < 1:
            raise ValueError("burst_width must be at least 1")
        if not 0.0 < self.saturation_level <= 1.0:
            raise ValueError("saturation_level must be in (0, 1]")
        if self.phase_sigma_rad < 0:
            raise ValueError("phase_sigma_rad must be non-negative")

    def matches(self, link_name: str) -> bool:
        """True when this fault targets the named link."""
        if self.ap is None:
            return True
        return link_name == self.ap or link_name.split("@", 1)[0] == self.ap


@dataclass(frozen=True)
class LinkFaultPlan:
    """An immutable script of measurement faults; empty by default.

    Constructors read like the drill they describe::

        plan = LinkFaultPlan.nan_burst(0.3, ap="AP2")
        plan = plan.plus(LinkFaultPlan.outage(1.0, ap="AP4"))
    """

    faults: tuple[LinkFault, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- constructors ---------------------------------------------------
    @classmethod
    def subcarrier_dropout(
        cls, rate: float, ap: str | None = None, fraction: float = 0.25
    ) -> "LinkFaultPlan":
        """Packets with a random subset of subcarriers zeroed."""
        return cls(
            (
                LinkFault(
                    LinkFaultKind.SUBCARRIER_DROPOUT,
                    rate,
                    ap,
                    dropout_fraction=fraction,
                ),
            )
        )

    @classmethod
    def packet_loss(cls, rate: float, ap: str | None = None) -> "LinkFaultPlan":
        """Packets silently missing from the batch."""
        return cls((LinkFault(LinkFaultKind.PACKET_LOSS, rate, ap),))

    @classmethod
    def nan_burst(
        cls, rate: float, ap: str | None = None, width: int = 8
    ) -> "LinkFaultPlan":
        """Packets with a contiguous NaN subcarrier run."""
        return cls(
            (LinkFault(LinkFaultKind.NAN_BURST, rate, ap, burst_width=width),)
        )

    @classmethod
    def rssi_saturation(
        cls, rate: float, ap: str | None = None, level: float = 0.35
    ) -> "LinkFaultPlan":
        """Front-end clipping across the whole batch."""
        return cls(
            (
                LinkFault(
                    LinkFaultKind.RSSI_SATURATION,
                    rate,
                    ap,
                    saturation_level=level,
                ),
            )
        )

    @classmethod
    def phase_offset(
        cls, rate: float, ap: str | None = None, sigma_rad: float = 2.5
    ) -> "LinkFaultPlan":
        """Oscillator phase smear dispersing the CIR."""
        return cls(
            (
                LinkFault(
                    LinkFaultKind.PHASE_OFFSET,
                    rate,
                    ap,
                    phase_sigma_rad=sigma_rad,
                ),
            )
        )

    @classmethod
    def outage(cls, rate: float, ap: str | None = None) -> "LinkFaultPlan":
        """The whole link vanishing mid-query."""
        return cls((LinkFault(LinkFaultKind.AP_OUTAGE, rate, ap),))

    def plus(self, other: "LinkFaultPlan") -> "LinkFaultPlan":
        """Union of two plans (applied in concatenation order)."""
        return LinkFaultPlan(self.faults + other.faults)

    def faults_for(self, link_name: str) -> list[LinkFault]:
        """Faults targeting the named link, in plan order."""
        return [f for f in self.faults if f.matches(link_name)]


def parse_fault_spec(spec: str) -> LinkFault:
    """Parse one ``TYPE:RATE[:AP]`` CLI fault spec into a fault.

    ``TYPE`` is a :class:`LinkFaultKind` value (e.g. ``nan-burst``),
    ``RATE`` a probability in ``[0, 1]``, and the optional ``AP`` an AP
    name — ``repro guard --faults nan-burst:0.3:AP2``.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"fault spec {spec!r} must look like TYPE:RATE or TYPE:RATE:AP"
        )
    try:
        kind = LinkFaultKind(parts[0])
    except ValueError:
        known = ", ".join(k.value for k in LinkFaultKind)
        raise ValueError(
            f"unknown fault type {parts[0]!r}; known types: {known}"
        ) from None
    try:
        rate = float(parts[1])
    except ValueError:
        raise ValueError(f"fault rate {parts[1]!r} is not a number") from None
    ap = parts[2] if len(parts) == 3 else None
    return LinkFault(kind, rate, ap)


def _link_entropy(name: str) -> int:
    """A stable 64-bit integer derived from the link name.

    Feeds the per-link seed sequence, so corruption is independent of AP
    iteration order; Python's ``hash`` is salted per process and cannot
    be used here.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class LinkFaultInjector:
    """Applies a :class:`LinkFaultPlan` to link records, deterministically.

    Each ``corrupt()`` call on a link draws from a dedicated generator
    seeded by ``(seed, blake2b(link name), per-link call index)`` — the
    shared measurement RNG is never touched, so the clean pipeline's
    draws are unchanged no matter what is injected, and links with no
    matching faults consume nothing at all.
    """

    def __init__(self, plan: LinkFaultPlan | None = None, seed: int = 0) -> None:
        self.plan = plan or LinkFaultPlan()
        self.seed = seed
        self._calls: dict[str, int] = {}

    def corrupt(self, record: LinkRecord) -> LinkRecord:
        """One link's batch after this call's scripted corruption."""
        faults = self.plan.faults_for(record.name)
        if not faults:
            return record
        index = self._calls.get(record.name, 0)
        self._calls[record.name] = index + 1
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.seed, _link_entropy(record.name), index]
            )
        )
        measurements = list(record.measurements)
        for fault in faults:
            measurements = self._apply(fault, measurements, rng)
        return replace(record, measurements=tuple(measurements))

    def corrupt_batch(
        self, records: Sequence[LinkRecord]
    ) -> list[LinkRecord]:
        """Corrupt every record of one query (one ``corrupt()`` each)."""
        return [self.corrupt(r) for r in records]

    # ------------------------------------------------------------------
    # Per-kind corruption
    # ------------------------------------------------------------------
    def _apply(
        self,
        fault: LinkFault,
        measurements: list[CSIMeasurement],
        rng: np.random.Generator,
    ) -> list[CSIMeasurement]:
        """Apply one fault; RNG draw order is fixed per (kind, batch)."""
        if fault.kind in _LINK_LEVEL:
            if rng.random() >= fault.rate:
                return measurements
            if fault.kind is LinkFaultKind.AP_OUTAGE:
                return []
            if fault.kind is LinkFaultKind.RSSI_SATURATION:
                return [self._saturate(m, fault) for m in measurements]
            return self._phase_smear(measurements, fault, rng)
        out: list[CSIMeasurement] = []
        for m in measurements:
            if rng.random() >= fault.rate:
                out.append(m)
                continue
            if fault.kind is LinkFaultKind.PACKET_LOSS:
                continue
            if fault.kind is LinkFaultKind.SUBCARRIER_DROPOUT:
                out.append(self._drop_subcarriers(m, fault, rng))
            else:
                out.append(self._nan_burst(m, fault, rng))
        return out

    @staticmethod
    def _drop_subcarriers(
        m: CSIMeasurement, fault: LinkFault, rng: np.random.Generator
    ) -> CSIMeasurement:
        """Zero a random subset of subcarriers (exact zeros, like firmware)."""
        n = len(m.csi)
        count = max(1, int(round(fault.dropout_fraction * n)))
        picks = rng.choice(n, size=count, replace=False)
        csi = m.csi.copy()
        csi[picks] = 0.0
        return CSIMeasurement(csi, m.config, m.rssi_dbm)

    @staticmethod
    def _nan_burst(
        m: CSIMeasurement, fault: LinkFault, rng: np.random.Generator
    ) -> CSIMeasurement:
        """NaN out a contiguous subcarrier window."""
        n = len(m.csi)
        width = min(fault.burst_width, n)
        start = int(rng.integers(0, n - width + 1))
        csi = m.csi.copy()
        csi[start : start + width] = complex(np.nan, np.nan)
        return CSIMeasurement(csi, m.config, m.rssi_dbm)

    @staticmethod
    def _saturate(m: CSIMeasurement, fault: LinkFault) -> CSIMeasurement:
        """Clip subcarrier amplitudes at a fraction of the packet peak."""
        amps = np.abs(m.csi)
        peak = float(amps.max())
        if peak <= 0.0:
            return m
        ceiling = fault.saturation_level * peak
        over = amps > ceiling
        if not over.any():
            return m
        csi = m.csi.copy()
        csi[over] = csi[over] / amps[over] * ceiling
        return CSIMeasurement(csi, m.config, m.rssi_dbm)

    @staticmethod
    def _phase_smear(
        measurements: list[CSIMeasurement],
        fault: LinkFault,
        rng: np.random.Generator,
    ) -> list[CSIMeasurement]:
        """One oscillator fault for the whole batch: constant offset plus
        per-subcarrier jitter, identical across packets (the LO is broken,
        not the packets)."""
        if not measurements:
            return measurements
        n = len(measurements[0].csi)
        offset = rng.uniform(0.0, 2.0 * np.pi)
        jitter = rng.normal(0.0, fault.phase_sigma_rad, size=n)
        rotation = np.exp(1j * (offset + jitter))
        out = []
        for m in measurements:
            if len(m.csi) != n:
                raise ValueError(
                    "phase fault requires a uniform subcarrier layout"
                )
            out.append(CSIMeasurement(m.csi * rotation, m.config, m.rssi_dbm))
        return out
