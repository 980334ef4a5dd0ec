"""Conditional expectation on simple functions and the induced vector measures.

Simple functions live on cells, conditional expectations live on blocks; the
two are distinct value spaces on purpose, with ``lift_to_cells`` as the
explicit bridge.  The measure of a set under the conditional-expectation
vector measure is its per-block conditional mass, optionally weighted by a
simple function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .numeric import Scalar, check_finite, fold, max_abs
from .spaces import BlockPartition, CellRefinement, Grid, RefinedSet, block_masses


@dataclass(frozen=True)
class SimpleFunction:
    """Cell-wise constant function with values in R^dim."""

    dim: int
    values: tuple[tuple[Scalar, ...], ...]

    def max_abs(self) -> Scalar:
        return max_abs(v for row in self.values for v in row)


@dataclass(frozen=True)
class BlockFunction:
    """Block-wise constant function, i.e. a value of the coarse algebra."""

    dim: int
    values: tuple[tuple[Scalar, ...], ...]

    def max_abs(self) -> Scalar:
        return max_abs(v for row in self.values for v in row)


def simple_function(values: Sequence[Sequence[Scalar] | Scalar]) -> SimpleFunction:
    """Build a simple function from per-cell vectors (bare scalars mean dim 1)."""
    rows = []
    for k, v in enumerate(values):
        row = tuple(v) if isinstance(v, (tuple, list)) else (v,)
        for x in row:
            check_finite(x, f"cell {k}")
        rows.append(row)
    if not rows:
        raise ValueError("simple function needs at least one cell")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ValueError("all cells must share one value dimension")
    return SimpleFunction(dim=dim, values=tuple(rows))


def constant_function(grid: Grid, vector: Sequence[Scalar] | Scalar) -> SimpleFunction:
    row = tuple(vector) if isinstance(vector, (tuple, list)) else (vector,)
    return SimpleFunction(dim=len(row), values=(row,) * grid.cell_count)


def sf_add(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    if f.dim != g.dim or len(f.values) != len(g.values):
        raise ValueError("dimension mismatch")
    return SimpleFunction(f.dim, tuple(tuple(a + b for a, b in zip(fr, gr))
                                       for fr, gr in zip(f.values, g.values)))


def sf_scale(a: Scalar, f: SimpleFunction) -> SimpleFunction:
    return SimpleFunction(f.dim, tuple(tuple(a * v for v in row) for row in f.values))


def sf_mul(g: SimpleFunction, f: SimpleFunction) -> SimpleFunction:
    """Pointwise product of a scalar simple function with a vector one."""
    if g.dim != 1:
        raise ValueError("multiplier must be scalar (dim 1)")
    if len(g.values) != len(f.values):
        raise ValueError("cell count mismatch")
    return SimpleFunction(f.dim, tuple(tuple(gr[0] * v for v in row)
                                       for gr, row in zip(g.values, f.values)))


def sf_stack(fs: Sequence[SimpleFunction]) -> SimpleFunction:
    if not fs:
        raise ValueError("nothing to stack")
    m = len(fs[0].values)
    if any(len(f.values) != m for f in fs):
        raise ValueError("cell count mismatch")
    rows = []
    for k in range(m):
        row: list[Scalar] = []
        for f in fs:
            row.extend(f.values[k])
        rows.append(tuple(row))
    return SimpleFunction(dim=fold(f.dim for f in fs), values=tuple(rows))


def bf_sub(a: BlockFunction, b: BlockFunction) -> BlockFunction:
    if a.dim != b.dim or len(a.values) != len(b.values):
        raise ValueError("dimension mismatch")
    return BlockFunction(a.dim, tuple(tuple(x - y for x, y in zip(ar, br))
                                      for ar, br in zip(a.values, b.values)))


def bf_add(a: BlockFunction, b: BlockFunction) -> BlockFunction:
    if a.dim != b.dim or len(a.values) != len(b.values):
        raise ValueError("dimension mismatch")
    return BlockFunction(a.dim, tuple(tuple(x + y for x, y in zip(ar, br))
                                      for ar, br in zip(a.values, b.values)))


def _check_shapes(f: SimpleFunction | None, E: RefinedSet | None,
                  C: BlockPartition, grid: Grid) -> None:
    if len(C.block_of) != grid.cell_count:
        raise ValueError("partition and grid cell counts differ")
    if f is not None and len(f.values) != grid.cell_count:
        raise ValueError("function and grid cell counts differ")
    if E is not None and len(E.masses) != grid.cell_count:
        raise ValueError("set references unknown cells")


def block_average(masses: Sequence[Scalar], vectors: Sequence[Sequence[Scalar]], dim: int,
                  blocks: Sequence[Sequence[int]], dens: Sequence[Scalar]) -> BlockFunction:
    """Per block b and coordinate j: the sum of masses[t] * vectors[t][j] over
    the terms t of ``blocks[b]``, divided by ``dens[b]``.

    The sum is ``numeric.fold``: a left fold from the int 0 over b's terms in
    their order, so its bits are the same on every supported Python.  A term
    is a cell for every caller but ``PureStrategy.payoff``, whose terms are
    the chunks of b's cells; the denominators are ``block_masses``.
    """
    return BlockFunction(dim=dim, values=tuple(
        tuple(fold(masses[t] * vectors[t][j] for t in terms) / den for j in range(dim))
        for terms, den in zip(blocks, dens)))


def cond_exp(f: SimpleFunction, C: BlockPartition, grid: Grid) -> BlockFunction:
    """Block-wise weighted mean: value on block b is sum_k w_k f(k) / mass(b)."""
    _check_shapes(f, None, C, grid)
    return block_average(grid.weights, f.values, f.dim, C.blocks, block_masses(C, grid))


def ce_measure(E: RefinedSet, C: BlockPartition, grid: Grid) -> BlockFunction:
    """Conditional mass of a set per block: mass(E within b) / mass(b)."""
    _check_shapes(None, E, C, grid)
    return block_average(E.masses, ((1,),) * len(E.masses), 1, C.blocks, block_masses(C, grid))


def weighted_ce_measure(f: SimpleFunction, E: RefinedSet, C: BlockPartition,
                        grid: Grid) -> BlockFunction:
    """Measure of E weighted by f: per block, sum_k f(k) mass_E(k) / mass(b)."""
    _check_shapes(f, E, C, grid)
    return block_average(E.masses, f.values, f.dim, C.blocks, block_masses(C, grid))


def integrate_against(g: SimpleFunction, f: SimpleFunction, E: RefinedSet,
                      C: BlockPartition, grid: Grid) -> BlockFunction:
    """Integral of a bounded scalar g against the f-weighted measure on E:
    ``weighted_ce_measure(sf_mul(g, f), E, C, grid)``, multiplying g*f per
    cell first."""
    return weighted_ce_measure(sf_mul(g, f), E, C, grid)


def lift_to_cells(bf: BlockFunction, C: BlockPartition, grid: Grid) -> SimpleFunction:
    """View a block function as a (coarse) simple function on the cells."""
    if len(bf.values) != C.block_count:
        raise ValueError("block function and partition block counts differ")
    _check_shapes(None, None, C, grid)
    return SimpleFunction(dim=bf.dim,
                          values=tuple(bf.values[C.block_of[k]] for k in range(grid.cell_count)))


def lift_function(f: SimpleFunction, refinement: CellRefinement) -> SimpleFunction:
    """Copy cell values onto the children of a split grid."""
    return SimpleFunction(dim=f.dim, values=tuple(f.values[p] for p in refinement.parent))


def indicator(E: RefinedSet, grid: Grid, tol: Scalar | None = None) -> SimpleFunction:
    """Indicator of a cell-aligned set as a scalar simple function."""
    tol = grid.tol(tol)
    rows = []
    for k, (m, w) in enumerate(zip(E.masses, grid.weights)):
        if m > tol and abs(m - w) > tol:
            raise ValueError(f"cell {k}: indicator needs a cell-aligned set")
        rows.append((grid.one,) if m > tol else (grid.zero,))
    return SimpleFunction(dim=1, values=tuple(rows))

