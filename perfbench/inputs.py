"""Seeded input synthesis: the radio stand-in, built before timing starts.

Every workload's load is drawn from a *pool* of measurement batches
made here from ``--seed`` alone.  CSI synthesis (``repro.channel`` via
``NomLocSystem``), PDP estimation (``repro.core.pdp``) and AP-side
gating (``repro.guard``) play the part of the radio hardware and the
APs: they run once, outside any timed region, and are deliberately not
measured.  Their cost (~6-12 ms per batch) would otherwise swamp the
served path the benchmark exists to measure, and none of it runs in
the server.

Each pool entry also carries the in-process reference answer of
:class:`repro.serving.LocalizationService` for the same anchors (and
gate), which the correctness gate compares every wire answer against,
bit for bit.  Pools are cached per (venue, seed, source digest) under
the benchmark's work directory, so repeated runs on one seed reuse them;
building one takes about 7-8 s.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

#: Distinct batches per pool; loads cycle through it.
POOL_SIZE = 256
#: CSI packets per AP-object link (the radio stand-in's budget).
PACKETS_PER_LINK = 4
#: One batch in this many carries a guard ``gate`` section.
GATE_EVERY = 5
#: Per-link probability of an injected oscillator phase fault on a
#: gated batch (salvaged, not rejected, by the guard layer).
PHASE_FAULT_RATE = 0.5
#: Ground-truth positions are spread evenly over the venue's
#: obstacle-free grid and are the same for every seed, so the error
#: figures of two seeds differ only by radio noise.
SITE_SPACING_M = 0.5

VENUES = ("lab", "lobby3")


def scenario_for(venue: str):
    """The venue's scenario: the lab, or the lobby with three nomadic APs."""
    from repro.environment import get_scenario
    from repro.extensions import lobby_with_nomadic_count

    if venue == "lab":
        return get_scenario("lab")
    if venue == "lobby3":
        return lobby_with_nomadic_count(get_scenario("lobby"), 3)
    raise ValueError(f"unknown venue {venue!r}")


def source_digest(src_dir: Path) -> str:
    """Digest of the package sources, so a cached pool never outlives them."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(src_dir.rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


def build_pool(venue: str, seed: int) -> list[dict]:
    """``POOL_SIZE`` entries of ``{"truth", "anchors", "gate", "ref"}``.

    ``anchors`` are wire dicts (floats survive JSON bit-exactly), ``gate``
    is a :meth:`repro.guard.GateResult.to_dict` record or ``None``, and
    ``ref`` the reference position ``[x, y]``.
    """
    import numpy as np

    from repro.core import NomLocSystem, SystemConfig
    from repro.gateway.protocol import anchor_to_dict
    from repro.guard import LinkFaultInjector, LinkFaultPlan, gate_records
    from repro.serving import LocalizationRequest, LocalizationService

    scenario = scenario_for(venue)
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=PACKETS_PER_LINK)
    )
    metric = system.config.resolve_metric()
    sites = scenario.dense_sites(SITE_SPACING_M)
    venue_key = VENUES.index(venue)
    injector = LinkFaultInjector(
        LinkFaultPlan.phase_offset(PHASE_FAULT_RATE), seed=seed
    )
    pool = []
    with LocalizationService(scenario.plan.boundary) as service:
        for i in range(POOL_SIZE):
            truth = sites[(i * len(sites)) // POOL_SIZE]
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, venue_key, i])
            )
            records = system.gather_link_records(truth, rng)
            gate = None
            if i % GATE_EVERY == 0:
                gate = gate_records(
                    injector.corrupt_batch(records), PACKETS_PER_LINK
                )
                if len(gate.anchors) < 2:  # nothing left to locate with
                    gate = None
            anchors = (
                gate.anchors
                if gate is not None
                else tuple(r.to_anchor(metric) for r in records)
            )
            ref = service.locate_request(
                LocalizationRequest(anchors, query_id=f"ref-{i}", gate=gate)
            )
            if ref.degraded:
                raise RuntimeError(
                    f"reference answer {i} degraded ({ref.reason}); the "
                    "pool must hold only solvable inputs"
                )
            pool.append(
                {
                    "truth": [truth.x, truth.y],
                    "anchors": [anchor_to_dict(a) for a in anchors],
                    "gate": None if gate is None else gate.to_dict(),
                    "ref": [ref.position.x, ref.position.y],
                }
            )
    return pool


def load_pool(venue: str, seed: int, cache_dir: Path, src_dir: Path) -> list[dict]:
    """The pool for (venue, seed), from the cache or freshly built."""
    digest = source_digest(src_dir)
    path = cache_dir / f"{venue}-{seed}-{POOL_SIZE}-{digest}.json"
    if path.exists():
        return json.loads(path.read_text())
    pool = build_pool(venue, seed)
    write_atomic(path, json.dumps(pool))
    return pool
