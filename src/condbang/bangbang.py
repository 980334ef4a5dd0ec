"""Extreme-point selections with matching conditional expectations.

Pipeline: decompose the given selection of a polytope-valued map into at
most dim+1 extreme branches with weight functions, stack the branch values
into one moment function, solve the partition problem for the weights, and
glue branch i on piece i.  The glued selection takes extreme values only and
has the same conditional expectation as the input, exactly on splittable
grids and within the certified bound on atomic ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .condexp import (BlockFunction, SimpleFunction, bf_add, bf_sub, cond_exp,
                      sf_stack, weighted_ce_measure)
from .lyapunov import DEFAULT_POLISH_BUDGET, PartitionResult, partition_with_moments
from .numeric import Scalar
from .polytope import PolytopeMap, decompose_selection, extreme_points, polytope_map
from .spaces import BlockPartition, Grid, RefinedSet, is_cell_aligned, trivial_partition


@dataclass(frozen=True)
class ExtremeSelection:
    """Pieces of a refined partition, each carrying one extreme branch.

    Piece i holds branch value function ``values[i]``; on every cell a piece
    meets, its value there is an extreme point of that cell's polytope.
    Empty pieces from padded decomposition slots are retained so piece labels
    stay aligned with branch slots.
    """

    pieces: tuple[RefinedSet, ...]
    values: tuple[SimpleFunction, ...]

    @property
    def dim(self) -> int:
        return self.values[0].dim

    def conditional_expectation(self, C: BlockPartition, grid: Grid) -> BlockFunction:
        acc = weighted_ce_measure(self.values[0], self.pieces[0], C, grid)
        for i in range(1, len(self.pieces)):
            acc = bf_add(acc, weighted_ce_measure(self.values[i], self.pieces[i], C, grid))
        return acc

    def chunks(self, k: int) -> list[tuple[Scalar, Scalar, tuple[Scalar, ...], int]]:
        """Per-cell (offset, mass, point, piece) chunks with positive mass."""
        out = []
        for i, piece in enumerate(self.pieces):
            if piece.masses[k] > 0:
                out.append((piece.offsets[k], piece.masses[k], self.values[i].values[k], i))
        return out

    def as_simple_function(self, grid: Grid, tol: Scalar | None = None) -> SimpleFunction:
        """The selection as a plain function; requires cell-aligned pieces."""
        tol = grid.tol(tol)
        rows = []
        for k in range(grid.cell_count):
            winner = None
            for i, piece in enumerate(self.pieces):
                if piece.masses[k] > grid.weights[k] / 2:
                    winner = i
                    break
            if winner is None or not is_cell_aligned(self.pieces[winner], grid, tol):
                raise ValueError("selection cuts cells; no plain function view exists")
            rows.append(self.values[winner].values[k])
        return SimpleFunction(dim=self.dim, values=tuple(rows))


@dataclass(frozen=True)
class BangBangReport:
    """Both sides of the conditional-expectation equality plus solver evidence."""

    lhs: BlockFunction           # E(glued extreme selection | C)
    rhs: BlockFunction           # E(input selection | C)
    max_deviation: Scalar
    residual_bound: Scalar
    partition: PartitionResult


def bang_bang(T: PolytopeMap, h: SimpleFunction, C: BlockPartition, grid: Grid, *,
              tol: Scalar | None = None, diagonal_only: bool = False,
              polish_budget: int = DEFAULT_POLISH_BUDGET
              ) -> tuple[ExtremeSelection, BangBangReport]:
    """Replace a selection of T by an extreme-point selection with the same
    conditional expectation.

    ``diagonal_only`` constrains each piece only by its own branch values
    (moment dimension dim instead of dim*(dim+1)), which shrinks the atomic
    residual bound but gives up the off-diagonal matching equalities.
    """
    decomposition = decompose_selection(T, h, grid, tol)
    branches = decomposition.branch_functions()
    p = decomposition.branch_count
    if diagonal_only:
        moments: Sequence[SimpleFunction] = branches
    else:
        stacked = sf_stack(branches)
        moments = [stacked] * p
    part = partition_with_moments(moments, decomposition.weight_function(), C, grid,
                                  tol=tol, polish_budget=polish_budget)
    selection = ExtremeSelection(pieces=part.pieces, values=tuple(branches))
    lhs = selection.conditional_expectation(C, grid)
    rhs = cond_exp(h, C, grid)
    report = BangBangReport(lhs=lhs, rhs=rhs,
                            max_deviation=bf_sub(lhs, rhs).max_abs(),
                            residual_bound=part.residual_bound, partition=part)
    return selection, report


def pointset_bang_bang(P: PolytopeMap, s: SimpleFunction, C: BlockPartition,
                       grid: Grid, *, tol: Scalar | None = None,
                       diagonal_only: bool = False,
                       polish_budget: int = DEFAULT_POLISH_BUDGET
                       ) -> tuple[ExtremeSelection, BangBangReport]:
    """Bang-bang over the convex hulls of raw point sets.

    The hull's extreme points are a subset of the given points, so the output
    selection lands in the point sets themselves; interior points never appear.
    """
    hulls = polytope_map([extreme_points(cell, grid.tol(tol)) for cell in P.vertices])
    return bang_bang(hulls, s, C, grid, tol=tol, diagonal_only=diagonal_only,
                     polish_budget=polish_budget)


def integral_bang_bang(T: PolytopeMap, h: SimpleFunction, grid: Grid, *,
                       tol: Scalar | None = None, diagonal_only: bool = False,
                       polish_budget: int = DEFAULT_POLISH_BUDGET
                       ) -> tuple[ExtremeSelection, BangBangReport]:
    """Bang-bang against the trivial partition: the report's single block
    compares the plain integrals of the two selections."""
    return bang_bang(T, h, trivial_partition(grid), grid, tol=tol,
                     diagonal_only=diagonal_only, polish_budget=polish_budget)
