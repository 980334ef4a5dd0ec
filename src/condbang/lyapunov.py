"""Constructive convexity layer for the conditional-expectation measures.

Given block-wise moment targets, the partition solver distributes every
cell's mass over p pieces so that each piece's conditional moments match the
weight-function targets: exactly on splittable grids (the proportional seed
is realized as stacked sub-intervals), and within a certified residual bound
on atomic grids.  There, a small block is decided by an exhaustive search
alone: one numpy search over the whole-cell assignments, run on float64
arrays for float blocks and on integer-scaled object arrays for exact ones,
so both regimes return the first best assignment in the same order.  Every
other block is pivoted by kernel steps to a basic solution, which leaves
few fractional cells, and those are rounded.  The pivoting folds each
cell's sum row into that cell's columns (generalized upper bounding), so
its kernel solves run on the independent moment rows only: the last piece's
rows are dropped when every piece has the same moments, since the cell
totals imply them.  Each solve reuses the elimination of the window's
unchanged leading columns.

Each block is read through one block form, built once in both regimes: its
masses and seed over one scale, and one (unit, column) pair per coordinate
of each distinct moment function.  Exact grids hold ints over their lcms;
float grids hold the values over 1, where every product and quotient by a
scale or unit is exact, so no float bit moves.  The targets, the a-priori
bound and the residuals are sums over that form, whose one regime choice
is the quotient (a Fraction, or a float division); the search's rows and
the walk's values are built from it too.  So an exact block stays on ints
from the seed to the residual, each entry divided back into a Fraction
once.  Half-sets, the annihilator witness of non-injectivity, and the
multi-measure variant, one partition whose moments are each measure's
density against the grid's own weights, are built on top.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .condexp import (BlockFunction, SimpleFunction, bf_sub, cond_exp, indicator,
                      lift_function, lift_to_cells, sf_mul, weighted_ce_measure)
from .linalg import Echelon, integer_scaled, nullspace_vector
from .numeric import PIVOT_TOL, Scalar, all_exact, check_finite, fold, max_abs
from .spaces import (BlockPartition, CellRefinement, Grid, Mode, RefinedSet,
                     block_masses, full_set, refine_partition, split_cells,
                     validate_set)

#: blocks with at most this many whole-cell assignments are decided by the
#: exhaustive search instead of the transport reduction (atomic mode)
DEFAULT_POLISH_BUDGET = 4096


@dataclass(frozen=True)
class PartitionResult:
    """Pieces plus the per-(piece, block, coordinate) conditional-moment residual.

    ``residual_bound`` is the certified a-priori bound the residuals are
    guaranteed to respect: the comparison tolerance on splittable grids, and
    rows * max relative cell weight * max moment entry on atomic grids,
    where rows is the total number of moment equations per block.

    ``fractional_per_block`` counts, per block, the cells that the basic
    solution left fractional before it was rounded: 0 on splittable grids and
    on blocks the exhaustive search decided, which are never reduced.  The
    search decides an atomic block when p > 1 and its p**q whole-cell
    assignments are within the polish budget, q counting only the cells with
    a nonzero moment entry; the other cells, which move no moment, take
    piece 0.
    """

    pieces: tuple[RefinedSet, ...]
    residual: tuple[tuple[tuple[Scalar, ...], ...], ...]
    residual_bound: Scalar
    fractional_per_block: tuple[int, ...]

    @property
    def max_residual(self) -> Scalar:
        return max_abs(v for per_block in self.residual for row in per_block for v in row)


def _validate_alpha(alpha: SimpleFunction, grid: Grid, tol: Scalar) -> None:
    if len(alpha.values) != grid.cell_count:
        raise ValueError("weight function and grid cell counts differ")
    check_tol = tol if tol > 0 else 0
    for k, row in enumerate(alpha.values):
        if grid.is_exact and not all_exact(row):
            raise ValueError(f"cell {k}: an exact grid needs exact piece weights")
        for a in row:
            if a < -check_tol:
                raise ValueError(f"cell {k}: negative piece weight {a!r}")
        s = fold(row)
        if abs(s - 1) > check_tol:
            raise ValueError(f"cell {k}: piece weights sum to {s!r}, expected 1")


def _reduce_transport(seed: list[list[Scalar]], scale: int,
                      coords: list[list[tuple[int, list[Scalar]]]], p: int,
                      exact: bool) -> list[list[Scalar]]:
    """Pivot the proportional seed to a basic solution of the block system.

    Reads the block form of ``partition_with_moments``: cell k's seed is
    seed[k][i] / scale on piece i, and coords[i] holds one (unit, column)
    pair per moment coordinate of piece i, the column's entries over unit.
    Exact forms hold ints, float forms the values over 1.

    Works through the cells with a sliding window of fractional cells.  The
    variables are the positive entries (k, i) of the window cells, in
    cell-major order; the equations are one sum row per window cell (its
    entries keep their total) and all moment rows.  A kernel direction
    exists as soon as the window holds enough fractional cells, and each
    pivot zeroes at least one variable, so a cell keeps leaving the window
    integral.  Window size is bounded by the kept moment row count (below),
    which keeps every kernel solve small regardless of block size.  The
    final solution has at most (kept moment rows) fractional cells and still
    satisfies every equation exactly.

    The sum rows are convexity constraints, so they are substituted out
    (generalized upper bounding; Dantzig and Van Slyke, J. Comput. Syst.
    Sci. 1, 1967): in a cell with positive pieces i0 < i1 < ..., variable
    (k, i0) carries minus the sum of the others.  The kernel is sought on
    the moment rows only, over the reduced columns (k, i), i != i0: piece
    i's moment entries of cell k on piece i's rows, and the negated entries
    of piece i0 on piece i0's rows.  It maps back with z[(k, i0)] equal to
    minus the sum of z[(k, i)] in piece order.  This is the kernel the full
    system gives, entry for entry on exact data.  A cell's i0 column is the
    first with a one on that cell's sum row, so it never depends on the
    columns before it, and a dependency among the full columns up to any
    other column is one among the reduced columns up to it and back.  So
    the first dependent column is the same column in both systems, a kernel
    exists exactly when it did (variables > window + moment rows is reduced
    columns > moment rows), and the kernel vector with z[free] = 1 and zeros
    after ``free`` is unique in both.

    When every piece has the same moment rows h (every caller but the
    diagonal bang-bang), the last piece's rows are implied: a reduced
    column (k, i) carries h_k on piece i's rows and -h_k on piece i0's, so
    the rows of all pieces sum to zero on every column, as the cell totals
    make the p-th of the equations E(1_{B_i} h | C) = E(alpha_i h | C)
    follow from the others.  The check compares the (unit, column) pairs,
    so it is one by value: two exact columns with equal ints over different
    units differ.  Then only the rows of pieces 0..p-2 are kept, and a
    column (k, p-1) carries just -h_k on piece i0's rows (i0 is never p-1,
    since a window cell has at least two pieces): (p-1)·d rows instead of
    p·d.  Dropping implied rows leaves every window's null space as it was,
    so the first dependent column and the kernel with z[free] = 1 are the
    same.  Moment rows below mean the kept ones.

    The cells join in order, each fractional one as it is reached.  After
    each, the window pivots while it has more reduced columns than moment
    rows, where a kernel always exists; past the last cell, it pivots while
    any column is left and a kernel exists.  A pivot reads only the columns
    through the free one, and a joining cell only appends behind them, so
    with implied rows dropped the window pivots earlier but runs the same
    pivots, in the same order and with the same number of kernel solves,
    as with every row kept.  Each window cell keeps the list of its
    positive pieces; after a pivot only the cells whose variables moved are
    looked at again.

    A pivot runs on the window as it stands.  Each window cell's direction
    lists its pieces in order: minus the sum of its kernel tail, then the
    tail.  The threshold is ``PIVOT_TOL`` on floats and 0 on exact data.
    The kernel's free entry, 1.0 on floats and |det| >= 1 on ints, is a
    direction entry above it, so no direction needs negating.  The ratio
    test runs over the entries above the threshold, cell by cell in window
    order and piece by piece within a cell; the step theta is the least
    ratio rows[k][i] / d, and a strict ``<`` lets the first minimizer leave.
    Only entries with a nonzero direction move, to rows[k][i] - theta·d.  On
    floats a value driven below zero by round-off is clamped to 0.0, and the
    leaving entry is set to 0.0; on exact data it reaches 0 by itself, as
    do its ties.

    On exact data the walk runs on ints alone.  The kernels are solved on
    the columns' ints, one positive factor per moment row, which moves no
    kernel, and each comes back as the integral |det|·z, a positive
    multiple of the z above (see ``nullspace_vector``); the lift and the
    pivot run on it as they are.  For any c > 0, replacing z by c·z changes
    no sign and divides every ratio by c, so the least ratio and its ties
    stay where they were, and it leaves theta·d as it was.  Each cell's
    values are held as int numerators over one positive denominator per
    cell, in lowest terms: the cell starts from its seed over ``scale``,
    divided by the gcd of the scale and its seed.  The ratio num / (den·d)
    is compared with the least one so far, top / bottom, by
    cross-multiplying, num·bottom < top·den·d, so the first minimizer still
    leaves.  A moved cell's values become (num·bottom - top·den·d) /
    (den·bottom), entries with a zero direction scaled alike, and one gcd
    over its denominator and numerators brings them back to lowest terms.
    When the walk ends, every entry becomes the Fraction num / den, once.
    The values are those of the walk run on Fractions, entry for entry.

    One ``Echelon`` carries the kernel elimination between solves.  The
    window's column list changes only where a cell joins at the end or
    leaves, or where a cell loses a piece.  A reduced column (k, i) depends
    on the cell, its first piece i0 and i alone, so a cell that loses a
    piece other than i0 keeps the list objects of its remaining columns,
    and only a cell that loses i0 gets its columns rebuilt over its new
    first piece; every other column is the same list object as before.
    The elimination is left-looking, so its state after column k depends
    on columns 0..k alone: each solve keeps the longest unchanged leading
    run and eliminates only the columns after it, and the kernels stay bit
    for bit those of a solve from scratch (see ``nullspace_vector``).
    """
    q = len(seed)
    # the pieces whose moment rows are kept: the last piece's rows are implied
    # when every piece has the same moment rows
    row_pieces = p - 1 if all(cols == coords[0] for cols in coords[1:]) else p
    mom_cols = [[col for _, col in cols] for cols in coords[:row_pieces]]
    if exact:
        # cell k's values are rows[k][i] / dens[k], in lowest terms
        dens: list[int] = []
        rows = []
        for row in seed:
            g = math.gcd(scale, *row)
            dens.append(scale // g)
            rows.append([v // g for v in row])
    else:
        rows = [list(row) for row in seed]
    nil = 0 if exact else 0.0
    rows_of = []  # the moment rows of each piece, as a slice
    mom_rows = 0
    for cols in mom_cols:
        rows_of.append(slice(mom_rows, mom_rows + len(cols)))
        mom_rows += len(cols)

    def reduced_columns(kk: int, pieces: list[int]) -> list[list[Scalar]]:
        i0 = pieces[0]
        negated = [-mom_row[kk] for mom_row in mom_cols[i0]]
        columns = []
        for i in pieces[1:]:
            column = [nil] * mom_rows
            column[rows_of[i0]] = negated
            if i < row_pieces:
                column[rows_of[i]] = [mom_row[kk] for mom_row in mom_cols[i]]
            columns.append(column)
        return columns

    # window cells in joining order: (cell, its positive pieces, its columns)
    window: list[tuple[int, list[int], list[list[Scalar]]]] = []
    echelon = Echelon()
    # cell q stands for the end of the block: past the last fractional cell,
    # pivot until no kernel is left
    for kk in range(q + 1):
        if kk < q:
            pieces = [i for i in range(p) if rows[kk][i] > 0]
            if len(pieces) < 2:
                continue
            window.append((kk, pieces, reduced_columns(kk, pieces)))
        while True:
            columns = [column for _, _, cols in window for column in cols]
            if len(columns) <= (mom_rows if kk < q else 0):
                break
            z = nullspace_vector(columns, len(columns), exact, echelon=echelon)
            if z is None:
                break
            # each cell's direction in piece order: minus the sum of its tail,
            # then the tail; the ratio test runs over it as it is built
            directions = []
            # on exact data theta = top / bottom, each ratio num / (den·d)
            # compared with it by cross-multiplying (both bottoms are positive)
            theta = leave = top = bottom = None
            col = 0
            for cell, pieces, cols in window:
                tail = z[col:col + len(cols)]
                col += len(cols)
                dirn = [-fold(tail), *tail]
                directions.append(dirn)
                values = rows[cell]
                if exact:
                    den = dens[cell]
                    for i, d in zip(pieces, dirn):
                        if d > 0 and (top is None or values[i] * bottom < top * den * d):
                            top, bottom = values[i], den * d
                else:
                    for i, d in zip(pieces, dirn):
                        if d > PIVOT_TOL:
                            ratio = values[i] / d
                            if theta is None or ratio < theta:
                                theta, leave = ratio, (cell, i)
            kept = []
            for entry, dirn in zip(window, directions):
                cell, pieces, cols = entry
                if any(dirn):
                    values = rows[cell]
                    if exact:
                        # num/den - (top/bottom)·d over the denominator
                        # den·bottom, then back to lowest terms; the leaving
                        # entry and its ties reach 0 exactly
                        den = dens[cell]
                        step = top * den
                        for i, d in zip(pieces, dirn):
                            values[i] = values[i] * bottom - step * d
                        g = math.gcd(den * bottom, *(values[i] for i in pieces))
                        dens[cell] = den * bottom // g
                        for i in pieces:
                            values[i] //= g
                    else:
                        for i, d in zip(pieces, dirn):
                            if d:
                                v = values[i] - theta * d
                                values[i] = 0.0 if v < 0 else v
                        if cell == leave[0]:
                            values[leave[1]] = 0.0
                    left = [i for i in pieces if values[i] > 0]
                    if len(left) < 2:
                        continue
                    if left[0] != pieces[0]:
                        entry = (cell, left, reduced_columns(cell, left))
                    elif len(left) < len(pieces):
                        # column (k, i) depends on the cell, i0 and i alone
                        entry = (cell, left, [column for i, column in zip(pieces[1:], cols)
                                              if values[i] > 0])
                kept.append(entry)
            window = kept
    if exact:
        return [[Fraction(v, den) for v in row] for row, den in zip(rows, dens)]
    return rows


def _digit_masks(p: int, q: int, start: int, stop: int, exact: bool) -> list[np.ndarray]:
    """Per piece i, which cells the assignments start..stop-1 put in piece i:
    booleans for exact searches, float64 zeros and ones for float ones, so
    that ``mask @ coef`` casts nothing (a 0/1 mask multiplies as the boolean
    one does, bit for bit)."""
    idx = np.arange(start, stop, dtype=np.int64)
    pows = np.array([p ** (q - 1 - c) for c in range(q)], dtype=np.int64)
    digits = (idx[:, None] // pows[None, :]) % p
    return [digits == i if exact else (digits == i).astype(float) for i in range(p)]


def _polish(rows: list[tuple[int, np.ndarray, Scalar]], p: int, q: int, exact: bool,
            masks: dict[int, list[np.ndarray]]) -> list[int]:
    """The whole-cell assignment of a block with the least worst moment deviation.

    Each of ``rows`` is one moment equation (piece i, coef, goal): piece i
    achieves the moment ``coef`` summed over its cells, against ``goal``.
    Enumerates all p**q assignments of the q cells to pieces in chunks, each
    assignment the base-p digits of its index (cell 0 the most significant),
    so index order is ``itertools.product(range(p), repeat=q)``'s order.  Per
    chunk, a mask per piece (``_digit_masks``) and ``mask @ coef`` give every
    achieved moment, a running ``np.maximum`` the worst deviation;
    ``np.argmin`` takes the first minimizer within a chunk and a strict ``<``
    keeps the earlier chunk's on ties, so the result is the first minimizer
    in index order.  The masks depend only on p, q and the chunk, so a search
    that fits one chunk takes them from ``masks``, keyed by q, which the
    caller keeps for the blocks of one call with one p and one regime.

    Float rows hold float64 arrays and the float goals.  Exact rows hold
    object arrays of Python ints and int goals, every coefficient and goal
    being one common L > 0 times the rational one.  Each achieved moment and
    each deviation is then L times the rational one, so the worst deviations
    compare as the rational ones do, and the first minimizer is the rational
    search's.
    """
    total = p ** q
    best_val = None
    best_idx = None
    chunk = 1 << 15
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        if total > chunk:
            bits = _digit_masks(p, q, start, stop, exact)
        elif q in masks:
            bits = masks[q]
        else:
            bits = masks[q] = _digit_masks(p, q, start, stop, exact)
        worst = np.zeros(stop - start, dtype=object if exact else float)
        for i, coef, goal in rows:
            np.maximum(worst, np.abs(bits[i] @ coef - goal), out=worst)
        a = int(np.argmin(worst))
        if best_val is None or worst[a] < best_val:
            best_val = worst[a]
            best_idx = start + a
    return [int(d) for d in np.unravel_index(best_idx, (p,) * q)]


def partition_with_moments(moments: Sequence[SimpleFunction], alpha: SimpleFunction,
                           C: BlockPartition, grid: Grid, *,
                           tol: Scalar | None = None,
                           polish_budget: int = DEFAULT_POLISH_BUDGET,
                           within: RefinedSet | None = None) -> PartitionResult:
    """Partition solver with one moment function per piece (see lyapunov_partition)."""
    tol = grid.tol(tol)
    exact = grid.is_exact
    p = alpha.dim
    if len(moments) != p:
        raise ValueError("need one moment function per piece")
    for mom in moments:
        if len(mom.values) != grid.cell_count:
            raise ValueError("moment function and grid cell counts differ")
        if exact and not all_exact(v for row in mom.values for v in row):
            raise ValueError("an exact grid needs exact moment values")
    _validate_alpha(alpha, grid, tol)
    if within is None:
        within = full_set(grid)
    else:
        validate_set(within, grid, tol)
        if exact and not all_exact((*within.offsets, *within.masses)):
            raise ValueError("an exact grid needs an exact set")
    avail = within.masses
    mu = block_masses(C, grid)
    # the one regime choice of the block form's sums: the quotient, which on
    # float grids divides by scales and units of 1 and so moves no bit
    quotient = Fraction if exact else operator.truediv
    # the block form's one scaling: ints over their lcm on exact grids, the
    # values over 1 on float ones
    scaled = integer_scaled if exact else lambda vectors: (1, vectors)
    distinct = {id(mom): mom for mom in moments}

    mass: list[list[Scalar]] = [[grid.zero] * grid.cell_count for _ in range(p)]
    residual: list[list[tuple[Scalar, ...]]] = [[] for _ in range(p)]
    fractional: list[int] = []
    # the exhaustive search's digit masks, by cell count (see _polish)
    masks: dict[int, list[np.ndarray]] = {}
    w_rel_max: Scalar = grid.zero
    h_max: Scalar = grid.zero

    for b, cells in enumerate(C.blocks):
        active = [k for k in cells if avail[k] > 0]
        seed_rows = [[alpha.values[k][i] * avail[k] for i in range(p)] for k in active]
        # the block form: the masses and the seed over one scale, and one
        # (unit, column) pair per coordinate of each distinct moment function,
        # shared by the pieces that share it
        scale, (held, *seed) = scaled([[avail[k] for k in active], *seed_rows])
        form = {key: [(unit, col) for unit, (col,) in
                      (scaled([[mom.values[k][j] for k in active]]) for j in range(mom.dim))]
                for key, mom in distinct.items()}
        coords = [form[id(mom)] for mom in moments]
        # each piece's masses on the block's scale: the seed's, until an
        # atomic block's assignment replaces them
        by_piece = [[s[i] for s in seed] for i in range(p)]
        sums = [[fold(map(operator.mul, by_piece[i], col)) for _, col in coords[i]]
                for i in range(p)]

        frac_count = 0
        if active:
            rel = quotient(max(held), scale * mu[b])
            if rel > w_rel_max:
                w_rel_max = rel
            h_max = max(h_max, max((quotient(max(map(abs, col)), unit)
                                    for coord in form.values() for unit, col in coord),
                                   default=0))

        if grid.mode is Mode.ATOMIC and active:
            q = len(active)
            moving = range(q)
            if p ** q > polish_budget:
                # a cell whose moment entries are all zero moves no moment:
                # the search's first minimizer puts it in piece 0, so only the
                # other cells count toward the budget and are searched
                entries = zip(*(col for coord in form.values() for _, col in coord))
                moving = [kk for kk, cell in enumerate(entries) if any(cell)]
            # the search enumerates every whole-cell assignment, the rounded
            # basic solution among them, so it alone decides a small block;
            # with one piece the rounding's assignment is the only one
            if p > 1 and p ** len(moving) <= polish_budget:
                assign = [0] * q
                if moving:
                    # one coefficient array per distinct column; every row is
                    # over scale times the lcm of the units
                    lcm = math.lcm(*(unit for coord in form.values() for unit, _ in coord))
                    dtype = object if exact else float
                    weights = np.array([held[kk] for kk in moving], dtype=dtype)
                    arrays = {id(col): weights * np.array([col[kk] * (lcm // unit)
                                                           for kk in moving], dtype=dtype)
                              for coord in form.values() for unit, col in coord}
                    search = [(i, arrays[id(col)], t * (lcm // unit)) for i in range(p)
                              for t, (unit, col) in zip(sums[i], coords[i])]
                    for kk, piece in zip(moving, _polish(search, p, len(moving), exact, masks)):
                        assign[kk] = piece
            else:
                rows = _reduce_transport(seed, scale, coords, p, exact)
                frac_count = len([row for row in rows if len([v for v in row if v > 0]) >= 2])
                # the largest share of each cell, the first on ties
                assign = [max(range(p), key=row.__getitem__) for row in rows]
            for kk, k in enumerate(active):
                mass[assign[kk]][k] = avail[k]
            by_piece = [[a if piece == i else 0 for a, piece in zip(held, assign)]
                        for i in range(p)]
        else:
            for kk, k in enumerate(active):
                for i in range(p):
                    mass[i][k] = seed_rows[kk][i]
        fractional.append(frac_count)
        for i in range(p):
            residual[i].append(tuple(
                quotient(fold(map(operator.mul, by_piece[i], col)) - t, scale * unit * mu[b])
                for t, (unit, col) in zip(sums[i], coords[i])))

    # piece i starts where pieces 0..i-1 end, summed in piece order
    pieces = []
    offsets = within.offsets
    for i in range(p):
        pieces.append(RefinedSet(offsets=tuple(offsets), masses=tuple(mass[i])))
        offsets = [off + m for off, m in zip(offsets, mass[i])]

    if grid.mode is Mode.ATOMIC:
        mom_rows = fold(m.dim for m in moments)
        bound = mom_rows * w_rel_max * h_max
    else:
        bound = Fraction(0) if exact else tol
    return PartitionResult(pieces=tuple(pieces),
                           residual=tuple(tuple(r) for r in residual),
                           residual_bound=bound,
                           fractional_per_block=tuple(fractional))


def lyapunov_partition(h: SimpleFunction, alpha: SimpleFunction, C: BlockPartition,
                       grid: Grid, *, tol: Scalar | None = None,
                       polish_budget: int = DEFAULT_POLISH_BUDGET) -> PartitionResult:
    """Split the space into alpha.dim pieces matching the h-moment targets.

    Per block b and piece i the result satisfies, up to the reported bound,

        E(1_{B_i} h | C)(b) = E(alpha_i h | C)(b),

    with all pieces together exhausting every cell's mass.  Splittable grids
    realize the proportional seed directly as stacked sub-intervals; atomic
    grids decide each block with at most ``polish_budget`` whole-cell
    assignments by an exhaustive search alone, with no reduction, counting
    only the cells where h has a nonzero entry (every other cell takes piece
    0, as the search's first minimizer would put it); every other
    block pivots the seed to a basic solution (at most rows-many fractional
    cells per block) and rounds fractional cells to their largest piece (ties
    to the smallest piece index).  The grid fixes the regime: on an exact
    grid, a float value of h or alpha raises ``ValueError``.
    """
    return partition_with_moments([h] * alpha.dim, alpha, C, grid, tol=tol,
                                  polish_budget=polish_budget)


# ---------------------------------------------------------------------------
# half-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfSetResult:
    """A subset F of E with the h-weighted measure of F equal to half of E's."""

    half: RefinedSet
    achieved: BlockFunction
    target: BlockFunction
    residual: BlockFunction
    residual_bound: Scalar

    @property
    def max_residual(self) -> Scalar:
        return self.residual.max_abs()


def half_set(h: SimpleFunction, E: RefinedSet, C: BlockPartition, grid: Grid, *,
             tol: Scalar | None = None) -> HalfSetResult:
    alpha = SimpleFunction(dim=2, values=((grid.half, grid.half),) * grid.cell_count)
    part = partition_with_moments([h, h], alpha, C, grid, tol=tol, within=E)
    F = part.pieces[0]
    achieved = weighted_ce_measure(h, F, C, grid)
    whole = weighted_ce_measure(h, E, C, grid)
    target = BlockFunction(dim=whole.dim,
                           values=tuple(tuple(v / 2 for v in row) for row in whole.values))
    return HalfSetResult(half=F, achieved=achieved, target=target,
                         residual=bf_sub(achieved, target),
                         residual_bound=part.residual_bound)


# ---------------------------------------------------------------------------
# annihilator witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorWitness:
    """Nonzero bounded g supported inside E with E(f g 1_E | C) = 0 on every block.

    Built on a split grid where the retained part of E is cell-aligned: take
    the left half of that part, subtract its conditional expectation with
    respect to C refined by the part, and divide by f.  The refined carrier
    and lifted data ship along so the vanishing can be re-verified directly.
    """

    grid: Grid
    refinement: CellRefinement
    g: SimpleFunction
    support: RefinedSet
    set_on_refined: RefinedSet
    partition_on_refined: BlockPartition
    function_on_refined: SimpleFunction
    norm_inf: Scalar


def annihilator_witness(f: SimpleFunction, E: RefinedSet, C: BlockPartition,
                        grid: Grid, *, tol: Scalar | None = None) -> AnnihilatorWitness:
    if grid.mode is Mode.ATOMIC:
        raise ValueError("atomic grids admit no annihilator witness in general: "
                         "single cells are atoms and the vanishing system has no "
                         "nonzero bounded solution")
    if f.dim != 1:
        raise ValueError("witness construction needs a scalar function")
    tol = grid.tol(tol)
    zero, one, half = grid.zero, grid.one, grid.half
    mu_E = E.total_mass()
    if not mu_E > tol:
        raise ValueError(f"witness needs a set whose mass exceeds the tolerance {tol!r}; "
                         f"its mass is {mu_E!r}")

    vanish = [k for k in range(grid.cell_count)
              if E.masses[k] > 0 and abs(f.values[k][0]) <= tol]
    if vanish:
        # f vanishes on part of E: the indicator of that part annihilates f.
        keep = set(vanish)
        cuts = [[E.offsets[k], E.offsets[k] + E.masses[k]] if k in keep else []
                for k in range(grid.cell_count)]
    else:
        # Keep the half of E's mass where |f| is largest: the threshold is the
        # largest attained |f| value whose strict super-level set still
        # carries at least half the mass.  That mass only grows as the level
        # falls (nonnegative terms added in cell order, and rounding is
        # monotone), so the first such level is found by bisection.
        levels = sorted({abs(f.values[k][0]) for k in range(grid.cell_count)
                         if E.masses[k] > 0}, reverse=True)
        i = bisect.bisect_left(range(len(levels)), True, key=lambda j: 2 * fold(
            E.masses[k] for k in range(grid.cell_count)
            if E.masses[k] > 0 and abs(f.values[k][0]) > levels[j]) >= mu_E)
        eps = levels[i] if i < len(levels) else zero
        keep = {k for k in range(grid.cell_count)
                if E.masses[k] > 0 and abs(f.values[k][0]) > eps}
        # Split every retained cell at the part boundaries and at its midpoint
        # so both the part and its left half are cell-aligned after the split.
        cuts = [[E.offsets[k], E.offsets[k] + E.masses[k] * half, E.offsets[k] + E.masses[k]]
                if k in keep else [] for k in range(grid.cell_count)]

    rgrid, ref = split_cells(grid, cuts)
    E_part = RefinedSet(
        offsets=tuple(E.offsets[k] if k in keep else zero for k in range(grid.cell_count)),
        masses=tuple(E.masses[k] if k in keep else zero for k in range(grid.cell_count)))
    support = ref.lift_set(E_part, rgrid)
    C_r = ref.lift_partition(C)
    f_r = lift_function(f, ref)
    if vanish:
        g_vals = [(one,) if support.masses[j] > 0 else (zero,)
                  for j in range(rgrid.cell_count)]
    else:
        left_r = ref.lift_set(
            RefinedSet(offsets=E_part.offsets,
                       masses=tuple(m * half for m in E_part.masses)), rgrid)
        D = refine_partition(C_r, support, rgrid)
        chi_left = indicator(left_r, rgrid)
        g0_proj = lift_to_cells(cond_exp(chi_left, D, rgrid), D, rgrid)
        g_vals = []
        for j in range(rgrid.cell_count):
            if support.masses[j] > 0:
                g0 = chi_left.values[j][0] - g0_proj.values[j][0]
                g_vals.append((g0 / f_r.values[j][0],))
            else:
                g_vals.append((zero,))
    g = SimpleFunction(dim=1, values=tuple(g_vals))
    norm = g.max_abs()
    if not norm > 0:
        raise RuntimeError("annihilator witness degenerated to zero")
    return AnnihilatorWitness(grid=rgrid, refinement=ref, g=g, support=support,
                              set_on_refined=ref.lift_set(E, rgrid),
                              partition_on_refined=C_r,
                              function_on_refined=f_r, norm_inf=norm)


def witness_block_integrals(witness: AnnihilatorWitness) -> BlockFunction:
    """E(f g 1_E | C) on the refined carrier; zero on every block by construction."""
    return weighted_ce_measure(sf_mul(witness.g, witness.function_on_refined),
                               witness.set_on_refined,
                               witness.partition_on_refined, witness.grid)


# ---------------------------------------------------------------------------
# several measures at once (densities against the grid's own weights)
# ---------------------------------------------------------------------------


def lyapunov_partition_multi(measures: Sequence[Sequence[Scalar]],
                             fs: Sequence[SimpleFunction], alpha: SimpleFunction,
                             C: BlockPartition, grid: Grid, *,
                             tol: Scalar | None = None) -> PartitionResult:
    """Partition matching the alpha-targets under d measures simultaneously.

    Every cell weight w_k is positive, so measure i has the density
    mu_i(k) / w_k against the grid's own weights, and one partition on the
    grid itself matches all d measures.  Its moment function has entry

        f_i(k) * (mu_i(k) / mu_i(b)) * (w(b) / w_k)

    in coordinate i on a cell k of block b (0 where mu_i(b) = 0), so a
    piece's moment on b is E_i(f_i 1_{B_j} | C)(b) and the partition's
    residual is the defect of

        E_i(f_i 1_{B_j} | C)(b) = E_i(f_i alpha_j | C)(b)

    under measure i itself, indexed [piece][block][measure] (blocks that are
    null for measure i contribute zero).  The density is normalized per
    block, so the result does not change when a measure is scaled, and the
    atomic search weighs every measure's defect alike: atomic grids certify
    p * d * max mu_i(k) / mu_i(b) * max |f_i|.  The grid fixes the regime:
    an exact grid needs exact measures and functions.  A cell where, for
    every i, mu_i is null or f_i is zero has zero moments: on splittable
    grids it is split like any other, on atomic ones it takes piece 0 and
    does not count toward the p**q assignments that decide whether the
    search takes its block.  A block null under every measure is rejected.
    """
    d = len(measures)
    if d == 0 or len(fs) != d:
        raise ValueError("need one scalar function per measure")
    for f in fs:
        if f.dim != 1:
            raise ValueError("per-measure functions must be scalar")
        if len(f.values) != grid.cell_count:
            raise ValueError("function and grid cell counts differ")
    for mu_i in measures:
        if len(mu_i) != grid.cell_count:
            raise ValueError("measure and grid cell counts differ")
        for k, v in enumerate(mu_i):
            check_finite(v, f"cell {k}: measure mass")
            if v < 0:
                raise ValueError(f"cell {k}: negative measure mass {v!r}")
    # summed from the grid's zero, int masses divide as Fractions on exact grids
    mu_blocks = [[fold((mu_i[k] for k in cells), grid.zero) for cells in C.blocks]
                 for mu_i in measures]
    missing = [b for b in range(C.block_count) if not any(mb[b] > 0 for mb in mu_blocks)]
    if missing:
        raise ValueError(f"blocks {missing} are null under every measure")

    w_blocks = block_masses(C, grid)
    H = SimpleFunction(dim=d, values=tuple(
        tuple(f.values[k][0] * mu_i[k] / mb[b] * w_blocks[b] / w if mb[b] > 0 else grid.zero
              for f, mu_i, mb in zip(fs, measures, mu_blocks))
        for k, (b, w) in enumerate(zip(C.block_of, grid.weights))))
    part = partition_with_moments([H] * alpha.dim, alpha, C, grid, tol=tol)
    if grid.mode is Mode.SPLITTABLE:
        return part
    w_rel = max(mu_i[k] / mb[b] for mu_i, mb in zip(measures, mu_blocks)
                for k, b in enumerate(C.block_of) if mb[b] > 0)
    return replace(part, residual_bound=alpha.dim * d * w_rel * max(f.max_abs() for f in fs))
