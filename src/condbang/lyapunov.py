"""Constructive convexity layer for the conditional-expectation measures.

Given block-wise moment targets, the partition solver distributes every
cell's mass over p pieces so that each piece's conditional moments match the
weight-function targets: exactly on splittable grids (the proportional seed
is realized as stacked sub-intervals), and within a certified residual bound
on atomic grids (kernel pivoting to a basic solution leaves few fractional
cells, which are then rounded, with optional exhaustive finishing on small
blocks).  Half-sets, the annihilator witness of non-injectivity, and the
multi-measure variant via density reweighting are built on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .condexp import (BlockFunction, SimpleFunction, bf_sub, cond_exp, indicator,
                      lift_function, lift_to_cells, sf_mul, weighted_ce_measure)
from .linalg import integer_row, nullspace_vector
from .numeric import PIVOT_TOL, Scalar, max_abs
from .spaces import (BlockPartition, CellRefinement, Grid, Mode, RefinedSet,
                     block_masses, build_grid, full_set, make_partition,
                     refine_partition, split_cells, validate_set)

#: blocks with at most this many whole-cell assignments get exhaustively
#: re-rounded after the certified rounding step (atomic mode)
DEFAULT_POLISH_BUDGET = 4096


@dataclass(frozen=True)
class PartitionResult:
    """Pieces plus the per-(piece, block, coordinate) conditional-moment residual.

    ``residual_bound`` is the certified a-priori bound the residuals are
    guaranteed to respect: the comparison tolerance on splittable grids, and
    rows * max relative cell weight * max moment entry on atomic grids,
    where rows is the total number of moment equations per block.
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
        for a in row:
            if a < -check_tol:
                raise ValueError(f"cell {k}: negative piece weight {a!r}")
        s = sum(row)
        if abs(s - 1) > check_tol:
            raise ValueError(f"cell {k}: piece weights sum to {s!r}, expected 1")


def _assert_seed_feasible(seed_rows: list[list[Scalar]], moments: Sequence[SimpleFunction],
                          active: list[int], targets: list[list[Scalar]],
                          exact: bool) -> None:
    # The proportional seed satisfies every moment equation by construction;
    # this guards the solver against shape or regime mix-ups before pivoting.
    slack = 0 if exact else PIVOT_TOL
    for i, mom in enumerate(moments):
        for j in range(mom.dim):
            got = sum(seed_rows[kk][i] * mom.values[k][j] for kk, k in enumerate(active))
            scale = abs(targets[i][j]) + 1
            if abs(got - targets[i][j]) > slack * scale:
                raise RuntimeError("proportional seed violates its own moment equations")


def _reduce_transport(rows: list[list[Scalar]], avail: list[Scalar],
                      mom_cols: list[list[list[Scalar]]], p: int,
                      exact: bool) -> list[list[Scalar]]:
    """Pivot the proportional seed to a basic solution of the block system.

    Works through the cells with a sliding window of fractional cells: a
    kernel direction of the window's columns (window cell sums plus all
    moment rows) exists as soon as the window holds enough fractional cells,
    and each ratio-test move zeroes at least one variable, so a cell keeps
    leaving the window integral.  Window size is bounded by the moment row
    count, which keeps every kernel solve small regardless of block size.
    The final solution has at most (moment rows) fractional cells and still
    satisfies every equation exactly.
    """
    q = len(avail)
    rows = [list(r) for r in rows]
    mom_rows = sum(len(cols) for cols in mom_cols)
    zero: Scalar = Fraction(0) if exact else 0.0
    zero_thresh = 0 if exact else PIVOT_TOL
    if exact:
        # a positive factor per moment row leaves every window's kernel as it
        # is and lets the windows be built from ints
        mom_cols = [[integer_row(col) for col in cols] for cols in mom_cols]
        one, nil = 1, 0
    else:
        one, nil = 1.0, 0.0

    def fractional(kk: int) -> bool:
        return sum(1 for v in rows[kk] if v > 0) >= 2

    window: list[int] = []
    stream = (kk for kk in range(q) if fractional(kk))
    exhausted = False
    while True:
        # variables: positive entries of window cells, cell-major order
        variables = [(kk, i) for kk in window for i in range(p) if rows[kk][i] > 0]
        z = None
        if len(variables) > len(window) + mom_rows or (exhausted and len(variables) > 1):
            cell_row_of = {kk: r for r, kk in enumerate(window)}
            matrix = [[nil] * len(variables) for _ in range(len(window) + mom_rows)]
            for col, (kk, i) in enumerate(variables):
                matrix[cell_row_of[kk]][col] = one
                base = len(window)
                for ii in range(p):
                    for j in range(len(mom_cols[ii])):
                        if ii == i:
                            matrix[base + j][col] = mom_cols[ii][j][kk]
                    base += len(mom_cols[ii])
            z = nullspace_vector(matrix, len(variables), exact)
        if z is None:
            nxt = next(stream, None)
            if nxt is None:
                if exhausted:
                    return rows
                exhausted = True
                continue
            window.append(nxt)
            continue
        if not any(zv > zero_thresh for zv in z):
            z = [-zv for zv in z]
        theta = None
        leave = None
        for idx, zv in enumerate(z):
            if zv > zero_thresh:
                kk, i = variables[idx]
                ratio = rows[kk][i] / zv
                if theta is None or ratio < theta:
                    theta = ratio
                    leave = idx
        for idx, (kk, i) in enumerate(variables):
            rows[kk][i] = rows[kk][i] - theta * z[idx]
            if not exact and rows[kk][i] < 0:
                rows[kk][i] = 0.0
        lk, li = variables[leave]
        rows[lk][li] = zero
        window = [kk for kk in window if fractional(kk)]


def _round_largest(t_row: list[Scalar], avail: Scalar, zero: Scalar) -> tuple[list[Scalar], int]:
    winner = 0
    best = t_row[0]
    for i in range(1, len(t_row)):
        if t_row[i] > best:
            best = t_row[i]
            winner = i
    out = [zero] * len(t_row)
    out[winner] = avail
    return out, winner


def _polish_exact(avail: list[Scalar], mom_cols: list[list[list[Scalar]]],
                  targets: list[list[Scalar]], p: int) -> list[int] | None:
    q = len(avail)
    best_assign = None
    best_val = None
    for assign in itertools.product(range(p), repeat=q):
        worst = 0
        for i in range(p):
            for j, col in enumerate(mom_cols[i]):
                acc = 0
                for k in range(q):
                    if assign[k] == i:
                        acc += avail[k] * col[k]
                dev = abs(acc - targets[i][j])
                if dev > worst:
                    worst = dev
        if best_val is None or worst < best_val:
            best_val = worst
            best_assign = assign
    return list(best_assign) if best_assign is not None else None


def _polish_float(avail: list[float], mom_cols: list[list[list[float]]],
                  targets: list[list[float]], p: int) -> list[int]:
    q = len(avail)
    total = p ** q
    w = np.asarray(avail, dtype=float)
    coefs = [[w * np.asarray(col, dtype=float) for col in mom_cols[i]] for i in range(p)]
    pows = np.array([p ** (q - 1 - c) for c in range(q)], dtype=np.int64)
    best_val = None
    best_idx = None
    chunk = 1 << 15
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // pows[None, :]) % p
        worst = np.zeros(len(idx))
        for i in range(p):
            mask = digits == i
            for j, coef in enumerate(coefs[i]):
                achieved = mask @ coef
                np.maximum(worst, np.abs(achieved - targets[i][j]), out=worst)
        a = int(np.argmin(worst))
        if best_val is None or worst[a] < best_val:
            best_val = float(worst[a])
            best_idx = start + a
    out = []
    rem = best_idx
    for c in range(q):
        d = rem // int(pows[c])
        rem -= d * int(pows[c])
        out.append(int(d))
    return out


def partition_with_moments(moments: Sequence[SimpleFunction], alpha: SimpleFunction,
                           C: BlockPartition, grid: Grid, *,
                           tol: Scalar | None = None,
                           polish_budget: int = DEFAULT_POLISH_BUDGET,
                           within: RefinedSet | None = None) -> PartitionResult:
    """Partition solver with one moment function per piece (see lyapunov_partition)."""
    tol = grid.tol(tol)
    exact = grid.is_exact
    zero: Scalar = Fraction(0) if exact else 0.0
    p = alpha.dim
    if len(moments) != p:
        raise ValueError("need one moment function per piece")
    for mom in moments:
        if len(mom.values) != grid.cell_count:
            raise ValueError("moment function and grid cell counts differ")
    _validate_alpha(alpha, grid, tol)
    if within is None:
        within = full_set(grid)
    else:
        validate_set(within, grid, tol)
    avail = within.masses
    mu = block_masses(C, grid)

    mass: list[list[Scalar]] = [[zero] * grid.cell_count for _ in range(p)]
    residual: list[list[tuple[Scalar, ...]]] = [[] for _ in range(p)]
    fractional: list[int] = []
    w_rel_max: Scalar = zero
    h_max: Scalar = zero

    for b, cells in enumerate(C.blocks):
        active = [k for k in cells if avail[k] > 0]
        seed_rows = [[alpha.values[k][i] * avail[k] for i in range(p)] for k in active]
        targets = [[sum(seed_rows[kk][i] * moments[i].values[k][j]
                        for kk, k in enumerate(active))
                    for j in range(moments[i].dim)] for i in range(p)]
        _assert_seed_feasible(seed_rows, moments, active, targets, exact)

        frac_count = 0
        if active:
            rel = max(avail[k] for k in active) / mu[b]
            if rel > w_rel_max:
                w_rel_max = rel
            h_max = max(h_max, max_abs(v for i in range(p) for k in active
                                       for v in moments[i].values[k]))

        if grid.mode is Mode.ATOMIC and active:
            q = len(active)
            mom_cols = [[[moments[i].values[k][j] for k in active]
                         for j in range(moments[i].dim)] for i in range(p)]
            avail_active = [avail[k] for k in active]
            rows = _reduce_transport(seed_rows, avail_active, mom_cols, p, exact)
            frac_count = sum(1 for row in rows if sum(1 for v in row if v > 0) >= 2)
            assign = None
            if 0 < p ** q <= polish_budget:
                if exact:
                    assign = _polish_exact(avail_active, mom_cols, targets, p)
                else:
                    assign = _polish_float(avail_active, mom_cols, targets, p)
            for kk, k in enumerate(active):
                if assign is not None:
                    row = [zero] * p
                    row[assign[kk]] = avail[k]
                else:
                    row, _ = _round_largest(rows[kk], avail[k], zero)
                for i in range(p):
                    mass[i][k] = row[i]
        else:
            for kk, k in enumerate(active):
                for i in range(p):
                    mass[i][k] = seed_rows[kk][i]
        fractional.append(frac_count)

        for i in range(p):
            vals = tuple(
                (sum(mass[i][k] * moments[i].values[k][j] for k in active)
                 - targets[i][j]) / mu[b]
                for j in range(moments[i].dim))
            residual[i].append(vals)

    pieces = []
    for i in range(p):
        offsets = []
        for k in range(grid.cell_count):
            off = within.offsets[k]
            for j in range(i):
                off = off + mass[j][k]
            offsets.append(off)
        pieces.append(RefinedSet(offsets=tuple(offsets), masses=tuple(mass[i])))

    if grid.mode is Mode.ATOMIC:
        mom_rows = sum(m.dim for m in moments)
        bound = mom_rows * w_rel_max * h_max
    else:
        bound = Fraction(0) if exact else tol
    return PartitionResult(pieces=tuple(pieces),
                           residual=tuple(tuple(r) for r in residual),
                           residual_bound=bound,
                           fractional_per_block=tuple(fractional))


def lyapunov_partition(h: SimpleFunction, alpha: SimpleFunction, C: BlockPartition,
                       grid: Grid, *, tol: Scalar | None = None,
                       polish_budget: int = DEFAULT_POLISH_BUDGET,
                       within: RefinedSet | None = None) -> PartitionResult:
    """Split the space into alpha.dim pieces matching the h-moment targets.

    Per block b and piece i the result satisfies, up to the reported bound,

        E(1_{B_i} h | C)(b) = E(alpha_i h | C)(b),

    with all pieces together exhausting every cell's mass.  Splittable grids
    realize the proportional seed directly as stacked sub-intervals; atomic
    grids pivot the seed to a basic solution (at most rows-many fractional
    cells per block), round fractional cells to their largest piece (ties to
    the smallest piece index), and optionally finish small blocks exhaustively.
    """
    return partition_with_moments([h] * alpha.dim, alpha, C, grid, tol=tol,
                                  polish_budget=polish_budget, within=within)


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
             tol: Scalar | None = None,
             polish_budget: int = DEFAULT_POLISH_BUDGET) -> HalfSetResult:
    exact = grid.is_exact
    half_w: Scalar = Fraction(1, 2) if exact else 0.5
    alpha = SimpleFunction(dim=2, values=((half_w, half_w),) * grid.cell_count)
    part = partition_with_moments([h, h], alpha, C, grid, tol=tol,
                                  polish_budget=polish_budget, within=E)
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
    exact = grid.is_exact
    zero: Scalar = Fraction(0) if exact else 0.0
    one: Scalar = Fraction(1) if exact else 1.0
    mu_E = E.total_mass()
    if not mu_E > tol:
        raise ValueError("witness needs a set of positive mass")

    vanish = [k for k in range(grid.cell_count)
              if E.masses[k] > 0 and abs(f.values[k][0]) <= tol]
    if vanish:
        # f vanishes on part of E: the indicator of that part annihilates f.
        keep = set(vanish)
        cuts = [[E.offsets[k], E.offsets[k] + E.masses[k]] if k in keep else []
                for k in range(grid.cell_count)]
        rgrid, ref = split_cells(grid, cuts)
        E_part = RefinedSet(
            offsets=tuple(E.offsets[k] if k in keep else zero
                          for k in range(grid.cell_count)),
            masses=tuple(E.masses[k] if k in keep else zero
                         for k in range(grid.cell_count)))
        support = ref.lift_set(E_part, rgrid)
        g_vals = tuple((one,) if support.masses[j] > 0 else (zero,)
                       for j in range(rgrid.cell_count))
        return AnnihilatorWitness(
            grid=rgrid, refinement=ref, g=SimpleFunction(dim=1, values=g_vals),
            support=support, set_on_refined=ref.lift_set(E, rgrid),
            partition_on_refined=ref.lift_partition(C),
            function_on_refined=lift_function(f, ref), norm_inf=one)

    # Keep the half of E's mass where |f| is largest: the threshold is the
    # largest attained |f| value whose strict super-level set still carries
    # at least half the mass.
    levels = sorted({abs(f.values[k][0]) for k in range(grid.cell_count)
                     if E.masses[k] > 0}, reverse=True)
    eps = zero
    for level in levels:
        kept_mass = sum(E.masses[k] for k in range(grid.cell_count)
                        if E.masses[k] > 0 and abs(f.values[k][0]) > level)
        if 2 * kept_mass >= mu_E:
            eps = level
            break
    keep = {k for k in range(grid.cell_count)
            if E.masses[k] > 0 and abs(f.values[k][0]) > eps}

    # Split every retained cell at the part boundaries and at its midpoint so
    # both the part and its left half are cell-aligned after the split.
    cuts = []
    for k in range(grid.cell_count):
        if k in keep:
            o, m = E.offsets[k], E.masses[k]
            cuts.append([o, o + m / 2, o + m])
        else:
            cuts.append([])
    rgrid, ref = split_cells(grid, cuts)
    E_part = RefinedSet(
        offsets=tuple(E.offsets[k] if k in keep else zero for k in range(grid.cell_count)),
        masses=tuple(E.masses[k] if k in keep else zero for k in range(grid.cell_count)))
    part_r = ref.lift_set(E_part, rgrid)
    left_r = ref.lift_set(
        RefinedSet(offsets=E_part.offsets,
                   masses=tuple(m / 2 for m in E_part.masses)), rgrid)
    C_r = ref.lift_partition(C)
    D = refine_partition(C_r, part_r, rgrid)
    chi_left = indicator(left_r, rgrid)
    g0_proj = lift_to_cells(cond_exp(chi_left, D, rgrid), D, rgrid)
    f_r = lift_function(f, ref)
    g_vals = []
    for j in range(rgrid.cell_count):
        if part_r.masses[j] > 0:
            g0 = chi_left.values[j][0] - g0_proj.values[j][0]
            g_vals.append((g0 / f_r.values[j][0],))
        else:
            g_vals.append((zero,))
    g = SimpleFunction(dim=1, values=tuple(g_vals))
    norm = g.max_abs()
    if not norm > 0:
        raise RuntimeError("annihilator witness degenerated to zero")
    return AnnihilatorWitness(grid=rgrid, refinement=ref, g=g, support=part_r,
                              set_on_refined=ref.lift_set(E, rgrid),
                              partition_on_refined=C_r,
                              function_on_refined=f_r, norm_inf=norm)


def witness_block_integrals(witness: AnnihilatorWitness) -> BlockFunction:
    """E(f g 1_E | C) on the refined carrier; zero on every block by construction."""
    return weighted_ce_measure(sf_mul(witness.g, witness.function_on_refined),
                               witness.set_on_refined,
                               witness.partition_on_refined, witness.grid)


# ---------------------------------------------------------------------------
# several measures at once (density reweighting)
# ---------------------------------------------------------------------------


def lyapunov_partition_multi(measures: Sequence[Sequence[Scalar]],
                             fs: Sequence[SimpleFunction], alpha: SimpleFunction,
                             C: BlockPartition, grid: Grid, *,
                             tol: Scalar | None = None,
                             polish_budget: int = DEFAULT_POLISH_BUDGET) -> PartitionResult:
    """Partition matching the alpha-targets under d measures simultaneously.

    Works under the averaged measure with the per-measure densities folded
    into the moment function; the residual tensor is indexed
    [piece][block][measure] with each entry the defect of

        E_i(f_i 1_{B_j} | C)(b) = E_i(f_i alpha_j | C)(b)

    under measure i (blocks that are null for measure i contribute zero).
    Cells that are null for the averaged measure go wholly to piece 0.
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
            if v < 0:
                raise ValueError(f"cell {k}: negative measure mass {v!r}")
    exact = grid.is_exact and all(all(isinstance(v, (int, Fraction)) for v in mu_i)
                                  for mu_i in measures)
    zero: Scalar = Fraction(0) if exact else 0.0
    avg = [sum(mu_i[k] for mu_i in measures) / d for k in range(grid.cell_count)]
    positive = [k for k in range(grid.cell_count) if avg[k] > 0]
    if not positive:
        raise ValueError("all measures vanish everywhere")
    present = {C.block_of[k] for k in positive}
    if len(present) != C.block_count:
        missing = sorted(set(range(C.block_count)) - present)
        raise ValueError(f"blocks {missing} are null under the averaged measure")

    sub_grid = build_grid([avg[k] for k in positive], grid.mode)
    sub_C = make_partition([C.block_of[k] for k in positive], C.block_count)
    density = [[mu_i[k] / avg[k] for k in positive] for mu_i in measures]
    H = SimpleFunction(dim=d, values=tuple(
        tuple(fs[i].values[k][0] * density[i][kk] for i in range(d))
        for kk, k in enumerate(positive)))
    sub_alpha = SimpleFunction(dim=alpha.dim,
                               values=tuple(alpha.values[k] for k in positive))
    part = partition_with_moments([H] * alpha.dim, sub_alpha, sub_C, sub_grid,
                                  tol=tol, polish_budget=polish_budget)

    p = alpha.dim
    masses: list[list[Scalar]] = [[zero] * grid.cell_count for _ in range(p)]
    offsets: list[list[Scalar]] = [[zero] * grid.cell_count for _ in range(p)]
    for kk, k in enumerate(positive):
        w_sub = sub_grid.weights[kk]
        w_orig = grid.weights[k]
        for i in range(p):
            piece = part.pieces[i]
            masses[i][k] = piece.masses[kk] / w_sub * w_orig
            offsets[i][k] = piece.offsets[kk] / w_sub * w_orig
    for k in range(grid.cell_count):
        if avg[k] > 0:
            continue
        masses[0][k] = grid.weights[k]
        for i in range(1, p):
            offsets[i][k] = grid.weights[k]
    pieces = tuple(RefinedSet(offsets=tuple(offsets[i]), masses=tuple(masses[i]))
                   for i in range(p))

    mu_blocks = [[sum(mu_i[k] for k in cells) for cells in C.blocks] for mu_i in measures]
    residual = []
    for j in range(p):
        per_block = []
        for b, cells in enumerate(C.blocks):
            row = []
            for i in range(d):
                if mu_blocks[i][b] > 0:
                    lhs = sum((pieces[j].masses[k] / grid.weights[k]) * measures[i][k]
                              * fs[i].values[k][0] for k in cells)
                    rhs = sum(alpha.values[k][j] * measures[i][k] * fs[i].values[k][0]
                              for k in cells)
                    row.append((lhs - rhs) / mu_blocks[i][b])
                else:
                    row.append(zero)
            per_block.append(tuple(row))
        residual.append(tuple(per_block))

    if grid.mode is Mode.ATOMIC:
        mom_rows = p * d
        w_rel = zero
        for i in range(d):
            for k in range(grid.cell_count):
                mb = mu_blocks[i][C.block_of[k]]
                if mb > 0 and measures[i][k] / mb > w_rel:
                    w_rel = measures[i][k] / mb
        f_max = max(f.max_abs() for f in fs)
        bound = mom_rows * w_rel * f_max
    else:
        bound = part.residual_bound
    return PartitionResult(pieces=pieces, residual=tuple(residual),
                           residual_bound=bound,
                           fractional_per_block=part.fractional_per_block)
