"""The scalar localizer chain: one query, one piece, one row at a time.

The reference ``NomLocLocalizer.locate_batch`` (and so ``locate``) must
reproduce bit for bit: rows built pair by pair, one relaxation LP per
piece solved on the full tableau (:mod:`tests.oracles.relaxation`),
region candidates clipped as :class:`HalfSpace` lists.  Only the final
merge (``estimate_from_solutions``) is shared with ``src/``.  The one
exception is the relaxation cost: ``src/`` recovers ``t`` from its dual
solution, so ``w . t`` may differ from the tableau's in the last bits.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core import (
    Anchor,
    ConstraintKind,
    ConstraintSystem,
    LocationEstimate,
    NomLocLocalizer,
    PieceSolution,
    WeightedConstraint,
    confidence_factor,
    proximity_confidence,
    region_center,
)
from repro.geometry import bisector_halfspace

from .geometry import clip_halfspaces
from .relaxation import solve_relaxation

#: Inflation (metres) of the second and fourth region candidates.
EPSILON_M = 0.05


def pairwise_constraints(
    anchors: Sequence[Anchor],
    include_nomadic_pairs: bool = False,
    normalize: bool = True,
    confidence_fn=confidence_factor,
    quality_weights: Mapping[str, float] | None = None,
) -> list[WeightedConstraint]:
    """Bisector rows for every usable anchor pair (Eq. 8 and 13)."""
    out = []
    for i, a_i in enumerate(anchors):
        for a_j in anchors[i + 1 :]:
            if a_i.nomadic and a_j.nomadic and not include_nomadic_pairs:
                continue
            if a_i.position.almost_equals(a_j.position):
                continue
            near, far = (a_i, a_j) if a_i.pdp >= a_j.pdp else (a_j, a_i)
            hs = bisector_halfspace(near.position, far.position)
            if normalize:
                hs = hs.normalized()
            weight = proximity_confidence(a_i.pdp, a_j.pdp, confidence_fn)
            if quality_weights is not None:
                quality = min(
                    quality_weights.get(a_i.name, 1.0),
                    quality_weights.get(a_j.name, 1.0),
                )
                if not 0.0 < quality <= 1.0:
                    raise ValueError(
                        f"quality weight for pair {a_i.name}/{a_j.name} "
                        f"must be in (0, 1], got {quality}"
                    )
                weight = weight * quality
            kind = (
                ConstraintKind.NOMADIC
                if a_i.nomadic or a_j.nomadic
                else ConstraintKind.PAIRWISE
            )
            out.append(
                WeightedConstraint(hs, weight, kind, f"{near.name}<{far.name}")
            )
    return out


def build_shared_constraints(
    localizer: NomLocLocalizer,
    anchors: Sequence[Anchor],
    quality_weights: Mapping[str, float] | None = None,
) -> tuple[WeightedConstraint, ...]:
    """The pairwise rows every piece shares, validated like ``src/``."""
    if len(anchors) < 2:
        raise ValueError("need at least two anchors to partition space")
    shared = pairwise_constraints(
        anchors,
        include_nomadic_pairs=localizer.config.include_nomadic_pairs,
        confidence_fn=localizer.config.resolve_confidence_fn(),
        quality_weights=quality_weights,
    )
    if not shared:
        raise ValueError(
            "no usable anchor pairs (all anchors coincident or filtered)"
        )
    return tuple(shared)


def solve_piece(
    localizer: NomLocLocalizer,
    index: int,
    shared: Sequence[WeightedConstraint],
) -> PieceSolution:
    """Solve one piece's relaxation LP and centre its region, eagerly."""
    rows = tuple(shared) + localizer.piece_boundary_rows(index)
    relaxation = solve_relaxation(ConstraintSystem(rows))
    satisfied = relaxation.satisfied_halfspaces()
    relaxed = relaxation.relaxed_halfspaces()
    region = None
    for candidate in (
        satisfied,
        [h.relaxed(EPSILON_M) for h in satisfied],
        relaxed,
        [h.relaxed(EPSILON_M) for h in relaxed],
    ):
        region = clip_halfspaces(candidate, localizer._bound)
        if region is not None:
            break
    center = region_center(
        (),
        localizer._bound,
        localizer.config.center_method,
        fallback=relaxation.feasible_point,
        region=region,
    )
    return PieceSolution(index, localizer.pieces[index], relaxation, region, center)


def locate(
    localizer: NomLocLocalizer,
    anchors: Sequence[Anchor],
    quality_weights: Mapping[str, float] | None = None,
) -> LocationEstimate:
    """One query through the scalar chain, every piece solved eagerly."""
    shared = build_shared_constraints(localizer, anchors, quality_weights)
    pieces = range(len(localizer.pieces))
    return localizer.estimate_from_solutions(
        [solve_piece(localizer, index, shared) for index in pieces]
    )
