"""Purification of mixed strategies over finite action sets.

A Young measure assigns each cell a probability vector over actions; with a
vector of payoff integrands it induces a barycenter selection of the per-cell
support polytope.  Running the bang-bang pipeline on that selection and
matching the resulting extreme values back to supported actions yields a pure
strategy with the same conditional payoffs, supported where the mixture was.
The match cannot fail: every extreme value is a vertex of the support
polytope, which is one of the supported actions' payoff vectors itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .bangbang import bang_bang
from .condexp import BlockFunction, SimpleFunction, bf_sub, block_average
from .numeric import Scalar, check_finite, fold
from .polytope import PolytopeMap
from .spaces import BlockPartition, Grid, block_masses


@dataclass(frozen=True)
class ActionSet:
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)


def action_set(labels: Sequence[str]) -> ActionSet:
    labels = tuple(str(a) for a in labels)
    if not labels:
        raise ValueError("action set must be nonempty")
    if len(set(labels)) != len(labels):
        raise ValueError("action labels must be distinct")
    return ActionSet(labels=labels)


@dataclass(frozen=True)
class YoungMeasure:
    """Per-cell probability vector over the action set (a mixed strategy)."""

    rows: tuple[tuple[Scalar, ...], ...]

    def support(self, k: int) -> tuple[int, ...]:
        return tuple(a for a, w in enumerate(self.rows[k]) if w > 0)


def young_measure(rows: Sequence[Sequence[Scalar]], actions: ActionSet, grid: Grid,
                  tol: Scalar | None = None) -> YoungMeasure:
    tol = grid.tol(tol)
    if len(rows) != grid.cell_count:
        raise ValueError("mixture and grid cell counts differ")
    out = []
    for k, row in enumerate(rows):
        row = tuple(check_finite(v, f"cell {k}") for v in row)
        if len(row) != actions.size:
            raise ValueError(f"cell {k}: expected {actions.size} action weights")
        if any(v < 0 for v in row):
            raise ValueError(f"cell {k}: negative action weight")
        if abs(fold(row) - 1) > tol:
            raise ValueError(f"cell {k}: action weights sum to {fold(row)!r}")
        if not any(v > 0 for v in row):
            raise ValueError(f"cell {k}: empty support")
        out.append(row)
    return YoungMeasure(rows=tuple(out))


def dirac_measure(choices: Sequence[int], actions: ActionSet, grid: Grid) -> YoungMeasure:
    rows = []
    for k, a in enumerate(choices):
        if not 0 <= a < actions.size:
            raise ValueError(f"cell {k}: action index {a} out of range")
        rows.append(tuple(grid.one if i == a else grid.zero for i in range(actions.size)))
    return YoungMeasure(rows=tuple(rows))


@dataclass(frozen=True)
class IntegrandFamily:
    """Payoff vectors V(cell, action) in R^dim."""

    dim: int
    values: tuple[tuple[tuple[Scalar, ...], ...], ...]  # [cell][action] -> vector


def integrand_family(values: Sequence[Sequence[Sequence[Scalar] | Scalar]]) -> IntegrandFamily:
    cells = []
    dim = None
    for k, per_action in enumerate(values):
        rows = []
        for a, v in enumerate(per_action):
            row = tuple(v) if isinstance(v, (tuple, list)) else (v,)
            for x in row:
                check_finite(x, f"cell {k} action {a}")
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise ValueError("integrand dimension mismatch")
            rows.append(row)
        cells.append(tuple(rows))
    if dim is None:
        raise ValueError("integrand family needs at least one cell")
    return IntegrandFamily(dim=dim, values=tuple(cells))


def stack_integrands(families: Sequence[IntegrandFamily]) -> IntegrandFamily:
    if not families:
        raise ValueError("nothing to stack")
    cells = len(families[0].values)
    if any(len(f.values) != cells for f in families):
        raise ValueError("cell count mismatch")
    actions = len(families[0].values[0])
    out = []
    for k in range(cells):
        rows = []
        for a in range(actions):
            row: list[Scalar] = []
            for f in families:
                row.extend(f.values[k][a])
            rows.append(tuple(row))
        out.append(tuple(rows))
    return IntegrandFamily(dim=fold(f.dim for f in families), values=tuple(out))


@dataclass(frozen=True)
class PureStrategy:
    """Refined partition of the space with one action per piece.

    ``chunks[k]`` lists (offset, mass, action index) sub-intervals exhausting
    cell k; every action chosen in a cell has positive mixture weight there.
    """

    actions: ActionSet
    chunks: tuple[tuple[tuple[Scalar, Scalar, int], ...], ...]

    def payoff(self, V: IntegrandFamily, C: BlockPartition, grid: Grid) -> BlockFunction:
        """E(strategy payoff | C): chunk-weighted payoff averages per block."""
        # first, so that a partition of another cell count is refused
        dens = block_masses(C, grid)
        # one term per chunk, in cell order: cell k's are first[k] to first[k + 1] - 1
        first = list(itertools.accumulate(map(len, self.chunks), initial=0))
        return block_average([m for chunks in self.chunks for _, m, _ in chunks],
                             [V.values[k][a] for k, chunks in enumerate(self.chunks)
                              for _, _, a in chunks], V.dim,
                             [[t for k in cells for t in range(first[k], first[k + 1])]
                              for cells in C.blocks], dens)

    def cell_action(self, k: int) -> int | None:
        """The single action of a cell-pure cell, else None."""
        acts = {a for _, m, a in self.chunks[k] if m > 0}
        return acts.pop() if len(acts) == 1 else None


@dataclass(frozen=True)
class PurifyReport:
    lhs: BlockFunction           # E(mixture payoff | C)
    rhs: BlockFunction           # E(pure strategy payoff | C)
    max_deviation: Scalar
    residual_bound: Scalar


def barycenter(delta: YoungMeasure, V: IntegrandFamily, grid: Grid) -> SimpleFunction:
    """Mixture-average payoff per cell: sum_a delta(k, a) V(k, a).

    The mean value lies in the convex hull of the supported payoff vectors;
    that containment is decided where the mean is decomposed over them
    (``caratheodory_decompose``, through ``bang_bang`` in ``purify``).
    """
    if len(delta.rows) != grid.cell_count or len(V.values) != grid.cell_count:
        raise ValueError("cell counts differ")
    rows = []
    for k in range(grid.cell_count):
        if len(V.values[k]) != len(delta.rows[k]):
            raise ValueError(f"cell {k}: mixture and integrand action counts differ")
        rows.append(tuple(fold(w * V.values[k][a][j] for a, w in enumerate(delta.rows[k]))
                          for j in range(V.dim)))
    return SimpleFunction(dim=V.dim, values=tuple(rows))


def support_polytope(delta: YoungMeasure, V: IntegrandFamily, grid: Grid) -> PolytopeMap:
    """Per-cell vertex set {V(k, a) : delta(k, a) > 0} (strict positivity)."""
    if len(delta.rows) != grid.cell_count or len(V.values) != grid.cell_count:
        raise ValueError("cell counts differ")
    cells = []
    for k in range(grid.cell_count):
        pts = tuple(V.values[k][a] for a in delta.support(k))
        if not pts:
            raise ValueError(f"cell {k}: empty support")
        cells.append(pts)
    return PolytopeMap(dim=V.dim, vertices=tuple(cells))


def purify(delta: YoungMeasure, V: IntegrandFamily, C: BlockPartition, grid: Grid, *,
           tol: Scalar | None = None, diagonal_only: bool = False,
           actions: ActionSet | None = None
           ) -> tuple[PureStrategy, PurifyReport]:
    """Replace a mixed strategy by a supported pure one with the same
    conditional payoffs (exact on splittable grids, bounded on atomic ones).

    The strategy carries ``actions`` as its action set; without one, the
    actions are labelled ``a0, a1, ...``.  On an exact grid, float mixture
    weights or payoffs raise ``ValueError`` (see ``bang_bang``).
    """
    tol = grid.tol(tol)
    mean = barycenter(delta, V, grid)
    T = support_polytope(delta, V, grid)
    selection, bb_report = bang_bang(T, mean, C, grid, tol=tol,
                                     diagonal_only=diagonal_only)
    chunks = []
    for k in range(grid.cell_count):
        cell_chunks = []
        for off, m, point, _ in selection.chunks(k):
            # the branch value is one of the supported payoff vectors (see the
            # module docstring), so some action matches at distance 0; the
            # first within tol is taken
            action = next(a for a in delta.support(k)
                          if all(abs(V.values[k][a][j] - point[j]) <= tol
                                 for j in range(V.dim)))
            cell_chunks.append((off, m, action))
        chunks.append(tuple(cell_chunks))
    if actions is None:
        actions = action_set([f"a{i}" for i in range(len(V.values[0]))])
    strategy = PureStrategy(actions=actions, chunks=tuple(chunks))
    lhs = bb_report.rhs  # E(mean | C), which bang_bang has just computed
    rhs = strategy.payoff(V, C, grid)
    report = PurifyReport(lhs=lhs, rhs=rhs,
                          max_deviation=bf_sub(lhs, rhs).max_abs(),
                          residual_bound=bb_report.residual_bound)
    return strategy, report


def density_step(delta: YoungMeasure, phis: Sequence[IntegrandFamily],
                 C: BlockPartition, grid: Grid, *, tol: Scalar | None = None
                 ) -> tuple[PureStrategy, PurifyReport]:
    """One exact step of the density of pure strategies: a Dirac mixture whose
    conditional payoffs match the given mixture's on every integrand of a
    finite scalar family."""
    if not phis:
        raise ValueError("integrand family must be nonempty")
    for f in phis:
        if f.dim != 1:
            raise ValueError("density step expects scalar integrands")
    return purify(delta, stack_integrands(phis), C, grid, tol=tol)
