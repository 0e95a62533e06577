"""Constraint construction for SP-based location estimation (Sec. IV-B).

Three constraint families, each a weighted halfspace on the unknown
position ``z``:

* **pairwise** (Eq. 8): one perpendicular-bisector constraint per anchor
  pair, oriented by the PDP proximity judgement, weighted by its
  confidence factor;
* **boundary** (Eq. 9–11): the area-of-interest edges via virtual APs,
  with a large preset weight so they are satisfied "with high priority";
* **nomadic** (Eq. 13–15): for each site the nomadic AP measured from,
  one constraint against every static AP — ``S x (n - 1)`` extra rows.

In the paper's formulation the nomadic constraints assume the object is
closer to the nomadic AP; here the direction of every pairwise row is
decided by the actual PDP comparison, which reduces to the paper's form
when the nomadic AP wins all comparisons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..geometry import (
    EPS,
    HalfSpace,
    Point,
    Polygon,
    bisector_halfspace,
    boundary_halfspaces,
)
from ..obs import span
from .pdp import confidence_factor

__all__ = [
    "ConstraintKind",
    "WeightedConstraint",
    "ConstraintSystem",
    "Anchor",
    "BOUNDARY_WEIGHT",
    "pairwise_constraints_batch",
    "boundary_constraints",
]

#: Preset weight for area-boundary constraints (Sec. IV-B4: "a large
#: weight to guarantee the corresponding constraint satisfied with high
#: priority").
BOUNDARY_WEIGHT = 100.0


class ConstraintKind(enum.Enum):
    """Which family a constraint row belongs to."""

    PAIRWISE = "pairwise"
    BOUNDARY = "boundary"
    NOMADIC = "nomadic"


@dataclass(frozen=True, slots=True)
class Anchor:
    """A position the object's PDP was measured against.

    Static APs contribute one anchor each; a nomadic AP contributes one
    anchor per visited site (with the coordinates it *reported*, which may
    be wrong — Sec. V-E).
    """

    name: str
    position: Point
    pdp: float
    nomadic: bool = False

    def __post_init__(self) -> None:
        if self.pdp <= 0:
            raise ValueError("anchor PDP must be positive")


@dataclass(frozen=True, slots=True)
class WeightedConstraint:
    """One weighted halfspace row of the relaxation LP."""

    halfspace: HalfSpace
    weight: float
    kind: ConstraintKind
    label: str = ""

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("constraint weight must be positive")


@dataclass(frozen=True)
class ConstraintSystem:
    """An ordered stack of weighted constraints (the LP's ``A z <= b``)."""

    constraints: tuple[WeightedConstraint, ...]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A, b, w)`` with rows in constraint order.

        Memoized: the system is frozen, so the matrices are built once and
        the same arrays are returned on every call (the LP setup and the
        geometry rounds both read them).  Callers must treat them as
        read-only.
        """
        cached = self.__dict__.get("_matrices")
        if cached is not None:
            return cached
        if not self.constraints:
            mats = (np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        else:
            a = np.array(
                [[c.halfspace.ax, c.halfspace.ay] for c in self.constraints]
            )
            b = np.array([c.halfspace.b for c in self.constraints])
            w = np.array([c.weight for c in self.constraints])
            mats = (a, b, w)
        object.__setattr__(self, "_matrices", mats)
        return mats

    @classmethod
    def with_matrices(
        cls,
        constraints: tuple[WeightedConstraint, ...],
        a: np.ndarray,
        b: np.ndarray,
        w: np.ndarray,
    ) -> "ConstraintSystem":
        """A system with its :meth:`matrices` cache preseeded.

        The batched assembly path already holds the stacked ``(A, b, w)``
        arrays, so rebuilding them from the row objects would be pure
        waste.  The caller guarantees the arrays match the rows exactly
        (same values, same order) — the preseed is then bit-identical to
        what :meth:`matrices` would build.
        """
        system = cls(constraints)
        object.__setattr__(system, "_matrices", (a, b, w))
        return system

    def of_kind(self, kind: ConstraintKind) -> list[WeightedConstraint]:
        """Constraints from one family, preserving order."""
        return [c for c in self.constraints if c.kind is kind]

    def extended(self, extra: Sequence[WeightedConstraint]) -> "ConstraintSystem":
        """A new system with ``extra`` appended."""
        return ConstraintSystem(self.constraints + tuple(extra))


def pairwise_constraints_batch(
    queries: Sequence[Sequence[Anchor]],
    include_nomadic_pairs: bool = False,
    normalize: bool = True,
    confidence_fn=confidence_factor,
    bisector_cache=None,
    quality_weights: Sequence[Mapping[str, float] | None] | None = None,
) -> list[
    tuple[tuple[WeightedConstraint, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]
]:
    """Bisector constraints for every anchor pair of every query.

    Per query, one row per anchor pair ``i < j`` in index order, oriented
    by PDP (the larger PDP is the nearer anchor; ties go to the lower
    index) and weighted by the proximity confidence
    ``confidence_fn(min(P) / max(P))``.  Pairs are skipped when both
    anchors are nomadic sites (unless ``include_nomadic_pairs``; the
    paper's Eq. 13 compares nomadic sites against static APs only) or
    when the anchors coincide.  Queries with fewer than two anchors get
    no rows; the caller owns that error.

    Returns, per query, ``(rows, (a, b, w))``: the
    :class:`WeightedConstraint` rows plus their stacked LP matrices,
    ready to preseed :meth:`ConstraintSystem.matrices`.

    Parameters
    ----------
    normalize:
        Scale each halfspace to a unit normal so LP slack variables are
        measured in metres for every row; without this, rows from
        far-apart anchor pairs get numerically larger coefficients and the
        relaxation trades them off inconsistently.
    confidence_fn:
        Which Eq. 2-3-satisfying ``f`` weights the rows (the paper's
        Eq. 4 by default; see :data:`repro.core.pdp.CONFIDENCE_FUNCTIONS`).
    bisector_cache:
        Optional mapping (``get``/``__setitem__``) memoizing the
        normalized bisector halfspace by ``(near.x, near.y, far.x, far.y,
        normalize)``.  Anchor geometries recur across serving queries
        while the PDPs (and hence orientations/weights) change, so only
        the geometric part is cached.  Each distinct pair is looked up
        once per call, however many rows share it.
    quality_weights:
        Optional per-query mappings of per-anchor link-quality scores in
        ``(0, 1]`` (see :mod:`repro.guard`).  A judgement is only as
        trustworthy as its *weaker* measurement, so each row's weight is
        scaled by ``min(q_i, q_j)``; anchors missing from a mapping score
        1.0.  A score outside ``(0, 1]`` raises ``ValueError``.
    """
    nq = len(queries)
    qw_list: Sequence[Mapping[str, float] | None]
    qw_list = quality_weights if quality_weights is not None else [None] * nq
    if len(qw_list) != nq:
        raise ValueError("quality_weights length must match queries")
    with span("constraints.pairwise_batch", queries=nq) as sp:
        # One halfspace per distinct (near, far) position pair per call,
        # keyed like ``bisector_cache``.
        halfspaces: dict[tuple, HalfSpace] = {}
        out = []
        total = 0
        for anchors, qw in zip(queries, qw_list):
            rows: list[WeightedConstraint] = []
            # Flat row-major (ax, ay) pairs, b and w: one cheap array
            # build each instead of one per row.
            a_flat: list[float] = []
            b_list: list[float] = []
            w_list: list[float] = []
            info = [
                (a.position, a.position.x, a.position.y, a.pdp, a.nomadic, a.name)
                for a in anchors
            ]
            for i, (pos_i, xi, yi, p_i, nom_i, name_i) in enumerate(info):
                for pos_j, xj, yj, p_j, nom_j, name_j in info[i + 1 :]:
                    if nom_i and nom_j and not include_nomadic_pairs:
                        continue
                    if abs(xi - xj) <= EPS and abs(yi - yj) <= EPS:
                        continue  # coincident anchors give no information
                    if p_i >= p_j:
                        near, far = pos_i, pos_j
                        key = (xi, yi, xj, yj, normalize)
                        ratio = p_j / p_i
                        label = f"{name_i}<{name_j}"
                    else:
                        near, far = pos_j, pos_i
                        key = (xj, yj, xi, yi, normalize)
                        ratio = p_i / p_j
                        label = f"{name_j}<{name_i}"
                    hs = halfspaces.get(key)
                    if hs is None:
                        if bisector_cache is not None:
                            hs = bisector_cache.get(key)
                        if hs is None:
                            hs = bisector_halfspace(near, far)
                            if normalize:
                                hs = hs.normalized()
                            if bisector_cache is not None:
                                bisector_cache[key] = hs
                        halfspaces[key] = hs
                    # float(): the confidence function's ``**`` must run
                    # on Python floats, not NumPy scalars.
                    weight = confidence_fn(float(ratio))
                    if qw is not None:
                        quality = min(qw.get(name_i, 1.0), qw.get(name_j, 1.0))
                        if not 0.0 < quality <= 1.0:
                            raise ValueError(
                                f"quality weight for pair {name_i}/{name_j} "
                                f"must be in (0, 1], got {quality}"
                            )
                        weight = weight * quality
                    kind = (
                        ConstraintKind.NOMADIC
                        if nom_i or nom_j
                        else ConstraintKind.PAIRWISE
                    )
                    rows.append(WeightedConstraint(hs, weight, kind, label))
                    a_flat.append(hs.ax)
                    a_flat.append(hs.ay)
                    b_list.append(hs.b)
                    w_list.append(weight)
            mats = (
                np.array(a_flat, dtype=float).reshape(-1, 2),
                np.array(b_list, dtype=float),
                np.array(w_list, dtype=float),
            )
            out.append((tuple(rows), mats))
            total += len(rows)
        sp.incr("rows", total)
        return out


def boundary_constraints(
    area: Polygon,
    anchor_position: Point | None = None,
    weight: float = BOUNDARY_WEIGHT,
    normalize: bool = True,
) -> list[WeightedConstraint]:
    """Area-boundary constraints via virtual APs (Eq. 9-11).

    ``area`` must be convex (non-convex areas are decomposed first by the
    localizer).  ``anchor_position`` defaults to the area centroid — the
    paper notes any interior site works.
    """
    if not area.is_convex():
        raise ValueError("boundary constraints require a convex area")
    anchor = anchor_position or area.centroid()
    out = []
    for edge_idx, hs in enumerate(boundary_halfspaces(anchor, area)):
        if normalize:
            hs = hs.normalized()
        out.append(
            WeightedConstraint(
                hs, weight, ConstraintKind.BOUNDARY, label=f"edge{edge_idx}"
            )
        )
    return out
