"""Differential fuzz of the dual relaxation solver.

Every generated relaxation LP (Eq. 19) is solved three ways: by the
stacked dual simplex ``src/`` runs (:func:`solve_relaxation`), by the
full-tableau oracle (:mod:`tests.oracles.relaxation`) and by scipy's
HiGHS.  The optimal costs must agree to 1e-9 relative, and the dual
solver's ``(z, t)`` must be feasible: ``t >= 0`` and
``A z - t <= b + 1e-9`` on every row.

The generators aim at the inputs a two-row basis finds hardest:
near-parallel bisectors, duplicate and co-located anchors,
``BOUNDARY_WEIGHT`` rows next to sub-unit weights, many rows through one
vertex, rank-deficient systems (one row, or every normal parallel) and
systems above 80 rows.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core import Anchor, ConstraintSystem, solve_relaxation
from repro.core.constraints import (
    BOUNDARY_WEIGHT,
    ConstraintKind,
    WeightedConstraint,
    boundary_constraints,
    pairwise_constraints_batch,
)
from repro.geometry import HalfSpace, Point, Polygon
from repro.obs import capture, span
from tests.oracles.relaxation import solve_relaxation as tableau_relaxation

PIECE = Polygon.rectangle(0.0, 0.0, 12.0, 9.0)
CASES = Path(__file__).with_name("dual_cases.json")


def rows_system(normals, offsets, weights) -> ConstraintSystem:
    """A system straight from row data (unit normals expected)."""
    return ConstraintSystem(
        tuple(
            WeightedConstraint(
                HalfSpace(float(n[0]), float(n[1]), float(b)),
                float(w),
                ConstraintKind.PAIRWISE,
                label=f"r{k}",
            )
            for k, (n, b, w) in enumerate(zip(normals, offsets, weights))
        )
    )


#: HiGHS feasibility tolerance.  At its default (1e-7) HiGHS can stop
#: 2e-8 short of the optimum (``test_highs_default_tolerance_case``).
HIGHS_TOL = 1e-10


def priced(system: ConstraintSystem, z: np.ndarray) -> float:
    """The exact cost of a point: ``w . max(A z - b, 0)``."""
    a, b, w = system.matrices()
    return float(w @ np.maximum(a @ z - b, 0.0))


def references(system: ConstraintSystem) -> list[np.ndarray]:
    """The ``z`` of the tableau oracle and of HiGHS.

    HiGHS runs its dual simplex and its interior-point method, each at
    1e-10 tolerances and, if that fails, at its defaults: the IPM
    reports an unknown status on some degenerate feasible systems, and
    both call ``test_tableau_reports_unbounded`` unbounded at 1e-10.
    The tableau may fail outright too, but at least one must answer.
    """
    a, b, w = system.matrices()
    m = len(system)
    out = []
    try:
        out.append(tableau_relaxation(system).feasible_point)
    except RuntimeError:
        pass
    c = np.concatenate([[0.0, 0.0], w])
    a_ub = np.hstack([a, -np.eye(m)])
    bounds = [(None, None), (None, None)] + [(0, None)] * m
    tight = {
        "primal_feasibility_tolerance": HIGHS_TOL,
        "dual_feasibility_tolerance": HIGHS_TOL,
    }
    for method in ("highs-ds", "highs-ipm"):
        for options in (tight, {}):
            result = linprog(
                c, A_ub=a_ub, b_ub=b, bounds=bounds, method=method, options=options
            )
            if result.status == 0:
                out.append(result.x[:2])
                break
    assert out, "no reference solver answered"
    return out


def assert_solvers_agree(system: ConstraintSystem) -> None:
    """The dual's ``(z, t)`` is feasible and its cost matches the references.

    Every solver's cost is taken as its ``z`` priced exactly: reported
    costs carry each solver's own slack (HiGHS can report a ``t`` above
    what its ``z`` needs, or below zero).  The dual may never cost more
    than any reference, and must agree with the best of them to 1e-9
    relative.
    """
    a, b, w = system.matrices()
    dual = solve_relaxation(system)
    z, t = dual.feasible_point, dual.slacks
    assert z.shape == (2,) and np.all(np.isfinite(z))
    assert t.shape == (len(system),) and np.all(t >= 0.0)
    assert np.all(a @ z - t <= b + 1e-9)
    assert dual.cost == float(w @ t)
    costs = [priced(system, z_ref) for z_ref in references(system)]
    for cost in costs:
        assert dual.cost <= cost * (1 + 1e-9) + 1e-9, (dual.cost, cost)
    assert math.isclose(dual.cost, min(costs), rel_tol=1e-9, abs_tol=1e-9), (
        dual.cost,
        costs,
    )


coords = st.floats(min_value=-2.0, max_value=14.0, allow_nan=False)


@st.composite
def anchor_systems(draw):
    """Bisector rows of random anchors, some duplicated or co-located,
    stacked on a rectangle piece's boundary rows."""
    count = draw(st.integers(min_value=2, max_value=16))
    points = [Point(draw(coords), draw(coords)) for _ in range(count)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        src = points[draw(st.integers(min_value=0, max_value=count - 1))]
        jitter = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
        points.append(Point(src.x + jitter, src.y - jitter))
    pdps = [draw(st.floats(min_value=1e-3, max_value=1.0)) for _ in points]
    anchors = tuple(
        Anchor(f"a{k}", p, pdp, nomadic=k % 3 == 2)
        for k, (p, pdp) in enumerate(zip(points, pdps))
    )
    [(rows, _)] = pairwise_constraints_batch(
        [anchors], include_nomadic_pairs=draw(st.booleans())
    )
    boundary = tuple(boundary_constraints(PIECE, weight=BOUNDARY_WEIGHT))
    return ConstraintSystem(tuple(rows) + boundary)


@st.composite
def row_systems(draw):
    """Direct rows: near-parallel fans, all-parallel stacks, rows through
    one vertex, single rows, up to 150 rows.

    Full-rank shapes sit in a 100 m box of ``BOUNDARY_WEIGHT`` rows, as
    every piece's system does: without it, bisectors 1e-9 rad apart can
    meet 1e9 m away.  Parallel stacks are exactly parallel (``+-n``), so
    they stay rank-deficient in floating point too.
    """
    shape = draw(st.sampled_from(["random", "fan", "parallel", "vertex", "single"]))
    m = 1 if shape == "single" else draw(st.integers(min_value=2, max_value=150))
    base = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if shape == "fan":
        angles = base + rng.integers(-3, 4, size=m) * draw(
            st.sampled_from([1e-9, 1e-7, 1e-4])
        )
    else:
        angles = rng.uniform(0.0, 2 * math.pi, size=m)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    if shape == "parallel":
        normals = np.outer(rng.choice([-1.0, 1.0], size=m), normals[0])
    if shape == "vertex":
        vertex = rng.integers(-5, 6, size=2).astype(float)
        offsets = normals @ vertex
        offsets[rng.random(m) < 0.3] -= rng.uniform(0.1, 2.0)
    else:
        offsets = rng.uniform(-5.0, 5.0, size=m)
    w = rng.choice([rng.uniform(1e-3, 1.0), 1.0, BOUNDARY_WEIGHT], size=m)
    if shape in ("random", "fan", "vertex"):
        normals = np.vstack([normals, [[1, 0], [-1, 0], [0, 1], [0, -1]]])
        offsets = np.concatenate([offsets, [50.0] * 4])
        w = np.concatenate([w, [BOUNDARY_WEIGHT] * 4])
    return rows_system(normals, offsets, w)


class TestDifferentialFuzz:
    @given(anchor_systems())
    @settings(max_examples=120, deadline=None)
    def test_anchor_systems(self, system):
        assert_solvers_agree(system)

    @given(row_systems())
    @settings(max_examples=120, deadline=None)
    def test_row_systems(self, system):
        assert_solvers_agree(system)


class TestRankDeficient:
    def test_single_row(self):
        system = rows_system([[1.0, 0.0]], [-3.0], [0.4])
        result = solve_relaxation(system)
        assert result.cost == 0.0
        assert result.feasible_point[0] <= -3.0
        assert_solvers_agree(system)

    def test_opposed_parallel_rows_sacrifice_the_cheaper(self):
        # x <= 0 (weight 1) against x >= 2 (weight 3): only x matters,
        # so an artificial column stays basic for y.
        system = rows_system([[1.0, 0.0], [-1.0, 0.0]], [0.0, -2.0], [1.0, 3.0])
        result = solve_relaxation(system)
        assert result.cost == 2.0
        assert result.violated_labels() == ["r0"]
        assert_solvers_agree(system)

    def test_duplicate_rows(self):
        normals = [[0.6, 0.8]] * 4 + [[-0.6, -0.8]] * 2
        system = rows_system(normals, [1.0] * 4 + [-3.0] * 2, [0.5] * 6)
        assert_solvers_agree(system)


def pinned_case(name: str) -> ConstraintSystem:
    """A system from ``dual_cases.json``: rows of ``[a_x, a_y, b, w]``."""
    rows = np.array(json.loads(CASES.read_text())[name])
    return rows_system(rows[:, :2], rows[:, 2], rows[:, 3])


class TestPinnedCases:
    """Disagreements the fuzz found, kept as regression tests."""

    def test_highs_default_tolerance_case(self):
        # Co-located anchors 3e-8 m apart: two opposed row pairs whose
        # optimum sits at y = 0.50000003.  HiGHS at default tolerances
        # reports 0.3535534117; the dual and the tableau both find
        # 0.3535534327, which HiGHS confirms at 1e-10 tolerances.
        normals = [[0, -1], [0, -1], [0, -1], [0, 1], [0, 1]]
        normals += [[0, -1], [1, 0], [0, 1], [-1, 0]]
        offsets = [-0.5000000298023224, -1.0000000298023224, -0.5000000298023224]
        offsets += [0.5, 0.5, 0.0, 12.0, 9.0, 0.0]
        half = 0.7071067811865476
        w = [0.5, half, 0.5, half, half] + [BOUNDARY_WEIGHT] * 4
        system = rows_system(normals, offsets, w)
        result = solve_relaxation(system)
        assert result.feasible_point[1] == 0.5000000298023224
        assert_solvers_agree(system)

    def test_duplicate_rows_on_ill_conditioned_basis(self):
        # Duplicate rows next to a near-antiparallel basic pair (det ~
        # 1e-7).  With an explicit basis inverse the duplicate of a basic
        # row priced at -1e-9 instead of 0, so the two swapped forever;
        # the pivoting solve keeps the residual at rounding level.
        system = pinned_case("duplicate_rows_on_ill_conditioned_basis")
        with capture() as tracer, span("lp.solve_batch"):
            solve_relaxation(system)
        [solve] = tracer.finished()
        assert solve.counters["simplex.pivots"] < 50
        assert_solvers_agree(system)

    def test_highs_simplex_stops_short(self):
        # Anchors 6e-8 m apart give rows with normals (1, -4e-8): HiGHS's
        # dual simplex stops 3e-9 above the optimum even at 1e-10
        # tolerances; the dual solver, the tableau and HiGHS's IPM agree.
        system = pinned_case("highs_simplex_stops_short")
        assert_solvers_agree(system)

    def test_tableau_suboptimal(self):
        # The old tableau simplex returns a point 3.6e-8 (relative) above
        # the optimum the dual solver and HiGHS agree on.
        system = pinned_case("tableau_suboptimal")
        dual = solve_relaxation(system).cost
        tableau = priced(system, tableau_relaxation(system).feasible_point)
        assert tableau > dual * (1 + 1e-8)
        assert_solvers_agree(system)

    def test_near_antiparallel_gap(self):
        # One row against a near-antiparallel twin 6.7e-10 m away: the
        # zero-cost point lies along their 4e-10 rad wedge.  The tableau
        # stops at a 2.8e-10 cost (the pivot is below its tolerance); the
        # dual follows the wedge.
        system = pinned_case("near_antiparallel_gap")
        assert solve_relaxation(system).cost == 0.0
        assert priced(system, tableau_relaxation(system).feasible_point) > 0.0
        assert_solvers_agree(system)

    def test_artificial_never_drifts(self):
        # y >= 9.5 - 4.3e-10 x (weight 0.5) in the 12 x 9 box: the optimum
        # is the corner (12, 9).  With a 1e-9 pivot tolerance the 4.3e-10
        # entry did not block, the artificial e_x stayed basic off zero
        # and pinned z_x = 0, costing 2.6e-9 more.
        tilt = -4.3055562349715604e-10
        normals = [[tilt, -1.0], [0, -1], [1, 0], [0, 1], [-1, 0]]
        offsets = [-9.5, 0.0, 12.0, 9.0, 0.0]
        w = [0.5] + [BOUNDARY_WEIGHT] * 4
        system = rows_system(normals, offsets, w)
        result = solve_relaxation(system)
        assert list(result.feasible_point) == [12.0, 9.0]
        assert_solvers_agree(system)

    def test_tableau_reports_unbounded(self):
        # Opposed rows whose normals are negations only up to rounding:
        # the tableau's Phase II reports the (bounded) LP unbounded.
        system = pinned_case("tableau_reports_unbounded")
        with pytest.raises(RuntimeError, match="UNBOUNDED"):
            tableau_relaxation(system)
        assert_solvers_agree(system)
