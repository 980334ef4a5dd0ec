"""Independent brute-force recomputations.

These deliberately avoid the main code paths.  Every block average goes
through one loop, ``_block_means``, over per-(cell, coordinate) terms,
summed with ``math.fsum`` in the float regime and right to left in the exact
one, never through the solvers' summation.  The atomic partition quality is
established by exhaustive enumeration of whole-cell assignments, against
block masses and targets summed by the same rule.  ``verify``
recomputes every block-level sum of a report through the ``direct_*``
functions, and the test suite checks the solvers against them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .bangbang import ExtremeSelection
from .condexp import BlockFunction, SimpleFunction
from .numeric import Scalar, all_exact
from .purify import IntegrandFamily, PureStrategy
from .spaces import BlockPartition, Grid, RefinedSet, full_set


def _sum_right_to_left(terms: list[Scalar]) -> Scalar:
    acc = 0
    for t in reversed(terms):
        acc = t + acc
    return acc


def _block_means(dim: int, C: BlockPartition, grid: Grid,
                 terms: Callable[[Sequence[int]], list[list[Scalar]]]) -> BlockFunction:
    """Per block b and coordinate j: the combined terms over mass(b).

    ``terms(cells)[j]`` lists the terms of coordinate j on the given cells,
    cell by cell and in cell order.  Exact terms are summed right to left,
    float terms with ``math.fsum``.
    """
    combine = _sum_right_to_left if grid.is_exact else math.fsum
    rows = []
    for cells in C.blocks:
        den = combine([grid.weights[k] for k in cells])
        rows.append(tuple([combine(column) / den for column in terms(cells)]))
    return BlockFunction(dim=dim, values=tuple(rows))


def direct_integrate(f: SimpleFunction | ExtremeSelection, E: RefinedSet | None,
                     C: BlockPartition, grid: Grid) -> BlockFunction:
    """Recompute E(f 1_E | C) from raw masses, different summation order.

    For an extreme selection the per-cell value is its chunk-weighted value
    and E must be None (the selection carries its own partition).
    """
    if isinstance(f, ExtremeSelection):
        if E is not None:
            raise ValueError("a selection carries its own masses; pass E=None")
        dim = f.dim

        def chunk_terms(cells: Sequence[int]) -> list[list[Scalar]]:
            chunks = [chunk for k in cells for chunk in f.chunks(k)]
            return [[m * point[j] for (_, m, point, _) in chunks] for j in range(dim)]

        return _block_means(dim, C, grid, chunk_terms)
    masses = (full_set(grid) if E is None else E).masses
    return _block_means(f.dim, C, grid, lambda cells: [
        [f.values[k][j] * masses[k] for k in cells] for j in range(f.dim)])


def direct_payoff(strategy: PureStrategy, V: IntegrandFamily, C: BlockPartition,
                  grid: Grid) -> BlockFunction:
    """Recompute a pure strategy's conditional payoff from its chunks."""
    return _block_means(V.dim, C, grid, lambda cells: [
        [m * V.values[k][a][j] for k in cells for (_, m, a) in strategy.chunks[k]]
        for j in range(V.dim)])


def direct_mixture_payoff(rows_delta: Sequence[Sequence[Scalar]], V: IntegrandFamily,
                          C: BlockPartition, grid: Grid) -> BlockFunction:
    """Recompute E(mixture payoff | C) without going through the barycenter."""
    return _block_means(V.dim, C, grid, lambda cells: [
        [grid.weights[k] * rows_delta[k][a] * V.values[k][a][j]
         for k in cells for a in range(len(rows_delta[k]))]
        for j in range(V.dim)])


class EnumerationBudgetError(ValueError):
    """The assignment space exceeds the enumeration budget."""


def enumerate_atomic_partitions(grid: Grid, p: int, h: SimpleFunction,
                                alpha: SimpleFunction, C: BlockPartition, *,
                                budget: int = 2 ** 24
                                ) -> tuple[tuple[int, ...], Scalar]:
    """Exhaustive minimizer of the partition residual over whole-cell assignments.

    Residuals decompose over blocks, so the search enumerates each block's
    assignments independently (equivalent to the global product space).
    Returns the assignment (piece index per cell) and its max residual.
    """
    if alpha.dim != p:
        raise ValueError("weight function disagrees with the piece count")
    exact = grid.is_exact and all(all_exact(row) for row in h.values)
    total_work = sum(p ** len(cells) for cells in C.blocks)
    if total_work > budget:
        raise EnumerationBudgetError(
            f"enumeration needs {total_work} assignments, budget is {budget}")
    assignment = [0] * grid.cell_count
    worst: Scalar = 0
    combine = _sum_right_to_left if grid.is_exact else math.fsum
    for cells in C.blocks:
        mu_b = combine([grid.weights[k] for k in cells])
        targets = [[combine([alpha.values[k][i] * grid.weights[k] * h.values[k][j]
                             for k in cells]) for j in range(h.dim)] for i in range(p)]
        if exact:
            best_assign, best_val = _enumerate_block_exact(
                [grid.weights[k] for k in cells],
                [h.values[k] for k in cells], targets, p)
        else:
            best_assign, best_val = _enumerate_block_float(
                [float(grid.weights[k]) for k in cells],
                [[float(v) for v in h.values[k]] for k in cells],
                [[float(t) for t in row] for row in targets], p)
        for kk, k in enumerate(cells):
            assignment[k] = best_assign[kk]
        val = best_val / mu_b
        if val > worst:
            worst = val
    return tuple(assignment), worst


def _enumerate_block_exact(weights, values, targets, p):
    q = len(weights)
    dim = len(values[0]) if q else len(targets[0])
    best_assign = None
    best_val = None
    assign = [0] * q
    while True:
        worst = 0
        for i in range(p):
            for j in range(dim):
                acc = 0
                for k in range(q):
                    if assign[k] == i:
                        acc += weights[k] * values[k][j]
                dev = abs(acc - targets[i][j])
                if dev > worst:
                    worst = dev
        if best_val is None or worst < best_val:
            best_val = worst
            best_assign = tuple(assign)
        # increment in lexicographic order (cell 0 most significant)
        pos = q - 1
        while pos >= 0 and assign[pos] == p - 1:
            assign[pos] = 0
            pos -= 1
        if pos < 0:
            break
        assign[pos] += 1
    return best_assign, best_val


def _enumerate_block_float(weights, values, targets, p):
    q = len(weights)
    dim = len(values[0]) if q else len(targets[0])
    total = p ** q
    w = np.asarray(weights, dtype=float)
    cols = [w * np.asarray([values[k][j] for k in range(q)]) for j in range(dim)]
    pows = np.array([p ** (q - 1 - c) for c in range(q)], dtype=np.int64)
    best_val = None
    best_idx = 0
    chunk = 1 << 15
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // pows[None, :]) % p
        worst = np.zeros(len(idx))
        for i in range(p):
            mask = digits == i
            for j in range(dim):
                np.maximum(worst, np.abs(mask @ cols[j] - targets[i][j]), out=worst)
        a = int(np.argmin(worst))
        if best_val is None or worst[a] < best_val:
            best_val = float(worst[a])
            best_idx = start + a
    assign = []
    rem = best_idx
    for c in range(q):
        d = rem // int(pows[c])
        rem -= d * int(pows[c])
        assign.append(int(d))
    return tuple(assign), best_val
