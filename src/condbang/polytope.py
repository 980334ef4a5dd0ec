"""Finite V-represented convex geometry.

Extreme points of a finite point set, convex decomposition of a hull point
over at most dim+1 extreme vertices (the Phase-I LP's basic solution), and
the cell-wise decomposition of a selection of a polytope-valued map into
extreme-point branches with weight functions.

A point is extreme when the Phase-I LP writing it as a convex combination of
the other distinct points ends above the tolerance.  A separating direction
y = (d, -m) bounds that LP's l1 objective from below by
g / max(||d||_inf, |m|), g = y.(p, 1); a bound above the tolerance (plus
1e-10 (1 + max |coordinate|) of float round-off allowance) settles the point
without the LP, so the verdicts stay the LP's.  Exact point sets are
scaled to integers once, P = L p with L the lcm of their denominators, and
the bound is tested as g' > tol max(L ||d'||_inf, |m'|) on the scaled
d' = L d, m' = L^2 m, g' = L^2 g, at tol's exact ratio (a float tol's too):
the same test multiplied through by L^2 and by tol's denominator, so no
Fraction arithmetic and the same verdicts.

The bound runs on arrays, one computation per group of point sets with the
same regime, distinct point count n and dimension, over all the sets of a
``decompose_selection`` call (a lone set is a group of one): float64 for
floats, object arrays of Python ints for exact sets.  A group is cut into
slices of at most ``_SEPARATION_ENTRIES`` entries of its (sets, n, n) array
of products, so memory does not grow with the cell count.  No verdict can
move with the summation order: the bound only picks the points that skip
their LP, a float point it settles clears the tolerance by the round-off
allowance, far beyond the ~1e-16 relative shift another order makes, and
sums of ints are exact in any order.

The LPs, each carrying its regime, are submitted in batches to
``linalg.convex_combinations``, which runs float LPs of one shape in
lockstep.  ``decompose_selection`` makes one filter plan per distinct vertex
set, runs the plans' LPs in batches of at least ``_FILTER_BATCH``, then
every cell's decomposition LP in one batch, each batch one call however its
regimes mix; a failing cell is raised after the cells before it, as in a
cell-by-cell loop.  A nonempty set whose points all lie within the tolerance
of the hull of the others (a set too small for the tolerance) raises
``NoExtremePointError``, never an empty answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .condexp import SimpleFunction
from .linalg import LPProblem, LPResult, convex_combinations, integer_scaled
from .numeric import Scalar, all_exact, check_finite, fold, resolve_tol
from .spaces import Grid

Point = tuple[Scalar, ...]

#: relative round-off allowance of the separation bound in the float regime,
#: scaled by 1 + the largest |coordinate| (see ``extreme_point_indices``)
_FLOAT_SEPARATION_SLACK = 1e-10

#: filter LPs per batch of ``decompose_selection``: four lockstep chunks.  On
#: a 1000-cell float pointset instance (12 points in dim 3, about 5700 filter
#: LPs), one batch for all of them held every result at once and raised the
#: traced peak of ``decompose_selection`` from 1.9 to 3.0 MB at equal speed.
_FILTER_BATCH = 1024

#: entries of the (plans, n, n) array of d.q products that ``_separate``
#: forms at once; a larger group of plans is cut into slices, so memory does
#: not grow with the cell count.  On a 2-vCPU VM, 1000 float sets of 12
#: points in dim 3 (2000 of 6 in dim 2) took 5.5 ms (5.8 ms) at 2^14, with a
#: traced peak of 0.42 MB (0.51 MB); one slice for all took 10 ms (5.7 ms)
#: at 2.9 MB (1.6 MB), and slices of 2^11 7.6 ms (6.5 ms) at 0.12 MB.
_SEPARATION_ENTRIES = 1 << 14


class HullMembershipError(ValueError):
    """A point failed convex-hull membership (certified by LP infeasibility)."""

    def __init__(self, point: Point, cell: int | None = None,
                 direction: tuple[Scalar, ...] | None = None):
        self.point = point
        self.cell = cell
        self.direction = direction
        where = f" at cell {cell}" if cell is not None else ""
        super().__init__(f"point {tuple(point)!r}{where} lies outside the convex hull")


class NoExtremePointError(ValueError):
    """No point of a nonempty set came out extreme: at the tolerance, every
    distinct point lies within it of the hull of the others."""

    def __init__(self, tol: Scalar, cell: int | None = None):
        self.cell = cell
        where = f" at cell {cell}" if cell is not None else ""
        super().__init__(f"no point{where} is extreme at tolerance {tol!r}: each distinct "
                         "point lies within it of the hull of the others")


@dataclass(frozen=True)
class PolytopeMap:
    """Per-cell finite vertex sets in R^dim (V-representation)."""

    dim: int
    vertices: tuple[tuple[Point, ...], ...]


def polytope_map(vertex_sets: Sequence[Sequence[Sequence[Scalar]]]) -> PolytopeMap:
    cells = []
    dim = None
    for k, vs in enumerate(vertex_sets):
        if not vs:
            raise ValueError(f"cell {k}: vertex set must be nonempty")
        pts = []
        for v in vs:
            pt = tuple(check_finite(c, f"cell {k} vertex") for c in v)
            if dim is None:
                dim = len(pt)
            elif len(pt) != dim:
                raise ValueError(f"cell {k}: vertex dimension mismatch")
            pts.append(pt)
        cells.append(tuple(pts))
    return PolytopeMap(dim=dim, vertices=tuple(cells))


def _points_exact(points: Sequence[Point]) -> bool:
    return all(all_exact(p) for p in points)


def _dedupe(points: Sequence[Point]) -> tuple[list[Point], list[int]]:
    """The distinct points and the index of each one's first occurrence."""
    first: dict[Point, int] = {}
    for i, p in enumerate(points):
        first.setdefault(p, i)
    return list(first), list(first.values())


class _FilterPlan:
    """The extreme-point filter of one point set, split around its LPs.

    Construction dedupes the points (first occurrences, in order);
    ``_separate`` then leaves in ``pending`` the deduped points that the
    separation bound does not settle (see ``extreme_point_indices``), for
    many plans at once.  ``lps`` lists the Phase-I LPs of those points, and
    ``settle`` takes their results, in that order, and leaves in ``extreme``
    the input indices of the extreme points, which is empty only when the set
    is too small for the tolerance.  Callers submit the LPs of many plans to
    ``convex_combinations`` together.
    """

    __slots__ = ("exact", "tol", "kept", "idx", "pending", "extreme")

    def __init__(self, pts: Sequence[Point], tol: Scalar | None):
        self.exact = exact = _points_exact(pts)
        self.tol = resolve_tol(exact, tol)
        self.kept, self.idx = _dedupe(pts)
        self.pending: list[int] = []
        self.extreme: list[int] = []

    def lps(self) -> Iterator[LPProblem]:
        """The Phase-I LP of each unsettled point against the other distinct points."""
        kept, exact = self.kept, self.exact
        return ((kept[:i] + kept[i + 1:], kept[i], exact) for i in self.pending)

    def settle(self, results: Iterator[LPResult]) -> None:
        """Read the results of ``lps``; the points are let go after."""
        inside = {i for i in self.pending if next(results)[0] is not None}
        self.extreme = [j for i, j in enumerate(self.idx) if i not in inside]
        self.kept = self.idx = self.pending = None


def _separate(plans: Sequence[_FilterPlan]) -> None:
    """Set each plan's ``pending`` to the points its separation bound leaves
    to an LP, the plans of one regime, distinct point count n and dimension
    run together as arrays, at most ``_SEPARATION_ENTRIES`` // n**2 plans at
    a time (``extreme_point_indices`` has the bound).  The plans were made
    with one tol, so the plans of a regime share their resolved tol.

    The points of g plans are stacked as ``pts`` (g, n, dim); ``d`` = n pts
    minus each plan's sum of points holds every d = n (p - c), and
    ``dq`` = d pts^T (g, n, n) every d.q: row i's diagonal entry is d.p and
    its largest other entry the m of point i.  Floats run on float64, exact
    points on object arrays of Python ints scaled by each plan's L.  A point
    is settled when g' > tol max(L ||d'||_inf, |m'|), with L = 1 and tol
    plus the round-off allowance on floats, and on exact points tol's exact
    ratio, a Fraction's or a float's, its denominator multiplied over to the
    left.  A float gap or width that is not finite (a NaN, or an overflow of
    the products beyond about 1e150) settles nothing, so its point runs the
    LP; the products run under a local ``np.errstate``, so no overflow
    warning leaves the library.
    """
    groups: dict[tuple[bool, int, int], list[_FilterPlan]] = {}
    for plan in plans:
        n = len(plan.kept)
        if n > 1:
            groups.setdefault((plan.exact, n, len(plan.kept[0])), []).append(plan)
    for (exact, n, _), group in groups.items():
        step = max(1, _SEPARATION_ENTRIES // (n * n))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            tol, scale, den = chunk[0].tol, 1, 1
            if exact:
                scales, scaled = zip(*(integer_scaled(plan.kept) for plan in chunk))
                pts = np.array(scaled, dtype=object)
                scale = np.array(scales, dtype=object)[:, None]
                # a float tol's ratio is as exact as a Fraction's; a tol that
                # is not finite settles nothing (den = 0), as on floats
                tol, den = tol.as_integer_ratio() if abs(tol) < math.inf else (1, 0)
            else:
                pts = np.array([plan.kept for plan in chunk], dtype=float)
                # the tolerance plus the round-off allowance, per plan
                tol = float(tol) + _FLOAT_SEPARATION_SLACK * (
                    1 + np.abs(pts).max(axis=(1, 2))[:, None])
            with np.errstate(over="ignore", invalid="ignore"):
                d = n * pts - pts.sum(axis=1, keepdims=True)
                dq = d @ pts.transpose(0, 2, 1)
                m = dq[:, ~np.eye(n, dtype=bool)].reshape(len(chunk), n, n - 1).max(axis=2)
                gap = np.diagonal(dq, axis1=1, axis2=2) - m
                width = np.maximum(scale * np.abs(d).max(axis=2), np.abs(m))
                # exact values are finite; a float overflow or NaN settles nothing
                settled = (np.abs(gap) < np.inf) & (width < np.inf) & (den * gap > tol * width)
            for plan, row in zip(chunk, settled.tolist()):
                plan.pending = [i for i, done in enumerate(row) if not done]


def _settle(plans: Sequence[_FilterPlan], tol: Scalar) -> None:
    """Separate the plans, then run their LPs, a run of plans with at least
    ``_FILTER_BATCH`` LPs at a time (one ``convex_combinations`` call each,
    whatever the plans' regimes), so that only that run's results are held."""
    _separate(plans)
    start = 0
    while start < len(plans):
        stop, count = start, 0
        while stop < len(plans) and count < _FILTER_BATCH:
            count += len(plans[stop].pending)
            stop += 1
        batch = plans[start:stop]
        results = iter(convex_combinations((lp for plan in batch for lp in plan.lps()), tol))
        for plan in batch:
            plan.settle(results)
        start = stop


def extreme_point_indices(points: Sequence[Point], tol: Scalar | None = None) -> list[int]:
    """Indices (into the input, first occurrence) of the extreme points.

    A point stays iff expressing it as a convex combination of the other
    distinct points is infeasible: the Phase-I LP (``convex_combination``)
    ends with its objective, the l1 residual ||(p, 1) - sum_q lam_q (q, 1)||_1,
    above ``tol``.  A nonempty set has an extreme point, so when every point
    comes out within ``tol`` of the hull of the others (the set is too small
    for ``tol``) this raises ``NoExtremePointError``.

    Most points are settled without that LP, by a separating direction.
    With c the centroid of the n distinct points, take d = n (p - c), let m
    be the largest d.q over the other distinct points q, and g = d.p - m.
    Then y = (d, -m) has y.(q, 1) <= 0 for every other q and y.(p, 1) = g,
    so every lam >= 0 leaves a residual r with y.r >= g, hence
    ||r||_1 >= g / max(||d||_inf, |m|), a lower bound on the LP's objective.
    The point is extreme without an LP when that bound exceeds ``tol`` in
    the exact regime, or ``tol`` plus a round-off allowance of
    1e-10 (1 + max |coordinate|) on floats.  Every other point runs the LP,
    so each verdict is the LP's.  The LPs go to ``convex_combinations``
    together.

    Exact points are scaled to integers first, by L the lcm of all their
    denominators, which makes d' = L d, m' = L^2 m and g' = L^2 g; the test
    g > tol max(||d||_inf, |m|) is then run multiplied through by L^2, as
    g' > tol max(L ||d'||_inf, |m'|), on ints, at ``tol``'s exact ratio, a
    float ``tol``'s included (``tol`` = 0 leaves g' > 0).  Floats run the
    same expression with L = 1.  The LPs get the points as given.

    The set is separated as a group of one of ``_separate``, the code that
    separates every set of a ``decompose_selection`` call: float64 arrays
    for floats, object arrays of Python ints otherwise.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points differ in dimension")
    plan = _FilterPlan(pts, tol)
    _settle([plan], plan.tol)
    if not plan.extreme:
        raise NoExtremePointError(plan.tol)
    return plan.extreme


def caratheodory_decompose(point: Sequence[Scalar], vertices: Sequence[Point], *,
                           tol: Scalar | None = None) -> tuple[list[Scalar], list[int]]:
    """Write a hull point as a convex combination of at most dim+1 extreme vertices.

    The dimension is the point's.  This is the solver's one hull-membership
    test and its one extreme-point filter: the vertices are filtered by
    ``extreme_point_indices``, where a vertex whose separating direction
    bounds the Phase-I residual above tol (plus 1e-10 (1 + max |coordinate|)
    on floats) is extreme without an LP and every other vertex runs the LP.
    The Phase-I LP writing the point over the extreme vertices is the
    decomposition: its solution is basic, positive only on basis columns,
    whose (vertex, 1) columns are linearly independent, hence at most dim+1
    of them, which is Carathéodory's representation.
    Returns (weights, vertex indices into the input sequence); raises
    HullMembershipError with a separating direction when the point is outside.
    """
    point = tuple(point)
    pts = [tuple(v) for v in vertices]
    if any(len(v) != len(point) for v in pts):
        raise ValueError("vertex dimension disagrees with point")
    exact = _points_exact(pts) and all_exact(point)
    tol = resolve_tol(exact, tol)
    ext_idx = extreme_point_indices(pts, tol)
    result = convex_combinations([([pts[i] for i in ext_idx], point, exact)], tol)[0]
    return _decompose_over(point, pts, ext_idx, result)


def _decompose_over(point: Point, pts: Sequence[Point], ext_idx: list[int],
                    result: LPResult) -> tuple[list[Scalar], list[int]]:
    """``caratheodory_decompose`` given the extreme indices of ``pts`` and the
    result of the LP writing ``point`` over those vertices."""
    n = len(point)
    lam, certificate, _ = result
    if lam is None:
        d = tuple(certificate[:n])
        margin = min(fold(dc * pc for dc, pc in zip(d, point)) -
                     fold(dc * vc for dc, vc in zip(d, v)) for v in pts)
        raise HullMembershipError(point, direction=d if margin > 0 else None)
    support = [j for j, w in enumerate(lam) if w > 0]
    if len(support) > n + 1:
        raise RuntimeError("the Phase-I LP left more than dim+1 positive weights, "
                           "but a basic solution has at most dim+1")
    return [lam[j] for j in support], [ext_idx[j] for j in support]


@dataclass(frozen=True)
class CaratheodoryDecomposition:
    """Cell-wise convex decomposition padded to a uniform dim+1 branches.

    Branch i of cell k carries vertex ``points[k][i]`` with weight
    ``weights[k][i]``; padding branches repeat the first support vertex with
    weight zero, so weights are nonnegative and sum to one per cell and the
    weighted branches reconstruct the decomposed selection.
    """

    dim: int
    weights: tuple[tuple[Scalar, ...], ...]
    points: tuple[tuple[Point, ...], ...]

    @property
    def branch_count(self) -> int:
        return self.dim + 1

    def weight_function(self) -> SimpleFunction:
        return SimpleFunction(dim=self.branch_count, values=self.weights)

    def branch_function(self, i: int) -> SimpleFunction:
        return SimpleFunction(dim=self.dim, values=tuple(row[i] for row in self.points))

    def branch_functions(self) -> list[SimpleFunction]:
        return [self.branch_function(i) for i in range(self.branch_count)]

    def reconstruct(self, k: int) -> Point:
        return tuple(fold(w * pt[j] for w, pt in zip(self.weights[k], self.points[k]))
                     for j in range(self.dim))


def decompose_selection(T: PolytopeMap, s: SimpleFunction, grid: Grid,
                        tol: Scalar | None = None) -> CaratheodoryDecomposition:
    """Decompose a selection of T cell by cell (branch count is dim+1 everywhere)."""
    if s.dim != T.dim:
        raise ValueError("selection and polytope dimensions differ")
    if len(T.vertices) != grid.cell_count or len(s.values) != grid.cell_count:
        raise ValueError("cell counts differ")
    tol = grid.tol(tol)
    slots = T.dim + 1
    # Cells are taken up to the first one that fails, which is raised after
    # the cells before it, as a cell-by-cell loop would.  One filter plan per
    # distinct vertex set (purify's player types share their support
    # polytopes); the plans' LPs run in batches, then every cell's
    # decomposition LP in one.
    failure: ValueError | None = None
    plans: dict[tuple[bool, tuple[Point, ...]], _FilterPlan] = {}
    cells = []
    for k in range(grid.cell_count):
        point, verts = tuple(s.values[k]), tuple(tuple(v) for v in T.vertices[k])
        if any(len(v) != len(point) for v in verts):
            failure = ValueError("vertex dimension disagrees with point")
            break
        exact = _points_exact(verts)
        plan = plans.get((exact, verts))
        if plan is None:
            plan = plans[exact, verts] = _FilterPlan(verts, tol)
        cells.append((point, verts, plan, exact and all_exact(point)))
    _settle(list(plans.values()), tol)
    for k, (_, _, plan, _) in enumerate(cells):
        if not plan.extreme:
            failure = NoExtremePointError(plan.tol, k)
            del cells[k:]
            break
    results = iter(convex_combinations([([verts[i] for i in plan.extreme], point, exact)
                                        for point, verts, plan, exact in cells], tol))
    weights = []
    points = []
    for k, (point, verts, plan, _) in enumerate(cells):
        try:
            w, sup = _decompose_over(point, verts, plan.extreme, next(results))
        except HullMembershipError as err:
            raise HullMembershipError(err.point, cell=k, direction=err.direction) from None
        pad = slots - len(sup)
        sup = sup + [sup[0]] * pad
        w = w + [grid.zero] * pad
        weights.append(tuple(w))
        points.append(tuple(verts[i] for i in sup))
    if failure is not None:
        raise failure
    return CaratheodoryDecomposition(dim=T.dim, weights=tuple(weights), points=tuple(points))
