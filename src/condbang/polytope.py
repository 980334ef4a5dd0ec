"""Finite V-represented convex geometry.

Extreme points of a finite point set, convex decomposition of a hull point
over at most dim+1 extreme vertices (kernel-pivot support reduction), and
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
d' = L d, m' = L^2 m, g' = L^2 g: the same test multiplied through by L^2,
so no Fraction arithmetic and the same verdicts.  ``decompose_selection``
filters each distinct vertex set once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .condexp import SimpleFunction
from .linalg import convex_combination, integer_scaled, reduce_support
from .numeric import Scalar, all_exact, check_finite, is_exact, max_abs, resolve_tol
from .spaces import Grid

Point = tuple[Scalar, ...]

#: relative round-off allowance of the separation bound in the float regime,
#: scaled by 1 + the largest |coordinate| (see ``extreme_point_indices``)
_FLOAT_SEPARATION_SLACK = 1e-10


class HullMembershipError(ValueError):
    """A point failed convex-hull membership (certified by LP infeasibility)."""

    def __init__(self, point: Point, cell: int | None = None,
                 direction: tuple[Scalar, ...] | None = None):
        self.point = point
        self.cell = cell
        self.direction = direction
        where = f" at cell {cell}" if cell is not None else ""
        super().__init__(f"point {tuple(point)!r}{where} lies outside the convex hull")


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
    seen: dict[Point, int] = {}
    kept: list[Point] = []
    idx: list[int] = []
    for i, p in enumerate(points):
        if p not in seen:
            seen[p] = i
            kept.append(p)
            idx.append(i)
    return kept, idx


def extreme_point_indices(points: Sequence[Point], tol: Scalar | None = None) -> list[int]:
    """Indices (into the input, first occurrence) of the extreme points.

    A point stays iff expressing it as a convex combination of the other
    distinct points is infeasible: the Phase-I LP (``convex_combination``)
    ends with its objective, the l1 residual ||(p, 1) - sum_q lam_q (q, 1)||_1,
    above ``tol``.

    Most points are settled without that LP, by a separating direction.
    With c the centroid of the n distinct points, take d = n (p - c), let m
    be the largest d.q over the other distinct points q, and g = d.p - m.
    Then y = (d, -m) has y.(q, 1) <= 0 for every other q and y.(p, 1) = g,
    so every lam >= 0 leaves a residual r with y.r >= g, hence
    ||r||_1 >= g / max(||d||_inf, |m|), a lower bound on the LP's objective.
    The point is extreme without an LP when that bound exceeds ``tol`` in
    the exact regime, or ``tol`` plus a round-off allowance of
    1e-10 (1 + max |coordinate|) on floats.  Every other point runs the LP,
    so each verdict is the LP's.

    Exact points are scaled to integers first, by L the lcm of all their
    denominators, which makes d' = L d, m' = L^2 m and g' = L^2 g; the test
    g > tol max(||d||_inf, |m|) is then run multiplied through by L^2, as
    g' > tol max(L ||d'||_inf, |m'|), on ints (``tol`` = 0 leaves g' > 0).
    Floats run the same expression with L = 1, and so do exact points under
    a float ``tol``, whose products would round differently once scaled.
    The LPs get the points as given.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    exact = _points_exact(pts)
    tol = resolve_tol(exact, tol)
    kept, idx = _dedupe(pts)
    n = len(kept)
    if n == 1:
        return [idx[0]]
    bound = tol if exact else tol + _FLOAT_SEPARATION_SLACK * (
        1 + max_abs(c for p in kept for c in p))
    if exact and is_exact(tol):
        scale, scaled = integer_scaled(kept)
    else:
        # floats, and exact points under a float tol: its products would
        # round differently once scaled by L^2
        scale, scaled = 1, kept
    total = [sum(coords) for coords in zip(*scaled)]
    out = []
    for i, p in enumerate(scaled):
        d = [n * pc - tc for pc, tc in zip(p, total)]
        m = max(sum(dc * qc for dc, qc in zip(d, q)) for q in scaled[:i] + scaled[i + 1:])
        gap = sum(dc * pc for dc, pc in zip(d, p)) - m
        if gap > bound * max(scale * max_abs(d), abs(m)):
            out.append(idx[i])
            continue
        lam, _, _ = convex_combination(kept[:i] + kept[i + 1:], kept[i], exact, tol)
        if lam is None:
            out.append(idx[i])
    return out


def caratheodory_decompose(point: Sequence[Scalar], vertices: Sequence[Point], *,
                           tol: Scalar | None = None) -> tuple[list[Scalar], list[int]]:
    """Write a hull point as a convex combination of at most dim+1 extreme vertices.

    The dimension is the point's.  This is the solver's one hull-membership
    test and its one extreme-point filter: the vertices are filtered by
    ``extreme_point_indices``, where a vertex whose separating direction
    bounds the Phase-I residual above tol (plus 1e-10 (1 + max |coordinate|)
    on floats) is extreme without an LP and every other vertex runs the LP.
    It then starts from any feasible combination over the extreme vertices
    and pivots weights along nullspace directions of the stacked (vertex, 1)
    columns until the support is independent, hence of size <= dim+1.
    Returns (weights, vertex indices into the input sequence); raises
    HullMembershipError with a separating direction when the point is outside.
    """
    point = tuple(point)
    pts = [tuple(v) for v in vertices]
    if any(len(v) != len(point) for v in pts):
        raise ValueError("vertex dimension disagrees with point")
    exact = _points_exact(pts) and all_exact(point)
    tol = resolve_tol(exact, tol)
    return _decompose_over(point, pts, extreme_point_indices(pts, tol), exact, tol)


def _decompose_over(point: Point, pts: Sequence[Point], ext_idx: list[int], exact: bool,
                    tol: Scalar) -> tuple[list[Scalar], list[int]]:
    """``caratheodory_decompose`` given the extreme indices of ``pts``."""
    n = len(point)
    candidates = [pts[i] for i in ext_idx]
    lam, certificate, _ = convex_combination(candidates, point, exact, tol)
    if lam is None:
        direction = None
        if certificate is not None:
            d = tuple(certificate[:n])
            margin = min(sum(dc * pc for dc, pc in zip(d, point)) -
                         sum(dc * vc for dc, vc in zip(d, v)) for v in pts)
            if margin > 0:
                direction = d
        raise HullMembershipError(point, direction=direction)
    columns = [list(v) + [Fraction(1) if exact else 1.0] for v in candidates]
    lam = reduce_support(columns, lam, exact)
    weights: list[Scalar] = []
    support: list[int] = []
    for j, w in enumerate(lam):
        if w > 0:
            weights.append(w)
            support.append(ext_idx[j])
    if len(support) > n + 1:
        raise RuntimeError("support reduction left more than dim+1 vertices")
    return weights, support


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
        acc = [0] * self.dim
        for w, pt in zip(self.weights[k], self.points[k]):
            for j in range(self.dim):
                acc[j] = acc[j] + w * pt[j]
        return tuple(acc)


def decompose_selection(T: PolytopeMap, s: SimpleFunction, grid: Grid,
                        tol: Scalar | None = None) -> CaratheodoryDecomposition:
    """Decompose a selection of T cell by cell (branch count is dim+1 everywhere)."""
    if s.dim != T.dim:
        raise ValueError("selection and polytope dimensions differ")
    if len(T.vertices) != grid.cell_count or len(s.values) != grid.cell_count:
        raise ValueError("cell counts differ")
    tol = grid.tol(tol)
    zero: Scalar = Fraction(0) if grid.is_exact else 0.0
    slots = T.dim + 1
    # one filter per distinct vertex set: cells often share one (purify's
    # player types share their support polytopes)
    filtered: dict[tuple[bool, tuple[Point, ...]], list[int]] = {}
    weights = []
    points = []
    for k in range(grid.cell_count):
        point, verts = tuple(s.values[k]), tuple(tuple(v) for v in T.vertices[k])
        if any(len(v) != len(point) for v in verts):
            raise ValueError("vertex dimension disagrees with point")
        exact = _points_exact(verts)
        ext_idx = filtered.get((exact, verts))
        if ext_idx is None:
            ext_idx = filtered[exact, verts] = extreme_point_indices(verts, tol)
        try:
            w, sup = _decompose_over(point, verts, ext_idx, exact and all_exact(point), tol)
        except HullMembershipError as err:
            raise HullMembershipError(err.point, cell=k, direction=err.direction) from None
        pad = slots - len(sup)
        sup = sup + [sup[0]] * pad
        w = w + [zero] * pad
        weights.append(tuple(w))
        points.append(tuple(verts[i] for i in sup))
    return CaratheodoryDecomposition(dim=T.dim, weights=tuple(weights), points=tuple(points))
