"""Small dense linear-algebra kernels used by the decomposition and
partition solvers.

Two primitives: a nullspace vector of a column set, which serves the
partition solver's transport reduction (that walk runs its own ratio test
on the window it pivots), and a Phase-I simplex deciding
convex-combination feasibility with a Farkas certificate on failure, also
run on many LPs at once.  The simplex's lam is a basic solution: positive
only on basis columns, which are linearly independent, so at most dim+1 of
its entries are positive and it is a Carathéodory representation as it
stands.  The simplex pivots floats with 1e-12 thresholds, and exact input on
a tableau of Python ints scaled by one common denominator (Edmonds'
integer-preserving pivots); its pivots and results are those of the same
simplex on Fractions.
It enters by Bland's rule over the variable columns alone: an artificial
column starts basic and, once it leaves, is dropped for good, as usual in
Phase I, so it never enters.  A basic variable column is an exact unit
column: on floats the pivot row is divided by its own pivot (x/x is exactly
1.0), every other row gets f - f·1.0 = 0.0 or is skipped, and later pivots
keep those entries at 1.0 and ±0.0; on ints it is ``den`` times a unit
column.  So its reduced cost is ±0, never eligible, and the scan needs no
record of which columns are basic or have left.
The nullspace vector eliminates floats with partial pivoting, and exact
integer columns fraction-free (Bareiss), returning the integral kernel
|det|·z of the Fraction elimination's z, a positive multiple along which the
transport reduction moves every value as along z.  It eliminates
left-looking, and an ``Echelon`` carries the elimination between solves, so
a solve that starts with the previous solve's leading pivot columns
eliminates only the columns after them; the floats stay bit for bit those of
a solve from scratch.  A float pivot keeps only its nonzero factors, which
are all the elimination ever applies, a step whose entry on the pivot row is
±0.0 is skipped (it could change only the sign of a zero, which no pivot,
factor or back-substitution sum reads), and back substitution sums only the
nonzero entries of the solution, so the float work follows the nonzeros
while every update of a nonzero entry keeps its operands and order.  One
solve is tens of rows, so plain lists beat array machinery for it.

Many float LPs at once are another matter: ``convex_combinations`` runs
float LPs of one shape side by side, one pivot of each per step of a numpy
loop, and returns for each exactly what ``convex_combination`` returns.  Each
LP sees the same IEEE operations on the same operands in the same order:
numpy's elementwise float64 ``+ - * /`` round each result correctly, as
CPython's do, with no fused multiply-add; reduced costs are subtracted row
by row in row order; the entering column is the first eligible variable
column and the leaving row the lexicographic minimum of (ratio, basis
index), which is the scalar running rule; and zero-factor rows are skipped.
The scalar loop reads its result from its final tableau with
``_phase_one_result``; the lockstep loop reads every result of a batch at
once, with whole-array operations in that reader's order.  Each LP carries
its regime, so one call takes a stream of exact and float LPs.  Below about
32 LPs of one shape the array loop's fixed cost outweighs what it saves, so
smaller groups, and every exact LP, run the scalar loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .numeric import PIVOT_TOL, Scalar, fold

_MAX_SIMPLEX_ITERATIONS = 100000

#: float LPs of one shape run in lockstep only from this many on; fewer run
#: one at a time (measurements in ``convex_combinations``)
_LOCKSTEP_CROSSOVER = 32
#: float LPs per lockstep batch (see ``convex_combinations``)
_LOCKSTEP_CHUNK = 256


def integer_scaled(vectors: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """L, the lcm of every denominator of the exact vectors, and the vectors times L."""
    scale = math.lcm(*(v.denominator for vec in vectors for v in vec))
    return scale, [[v.numerator * (scale // v.denominator) for v in vec] for vec in vectors]


class Echelon:
    """The elimination of a column list, kept between kernel solves.

    Holds the pivot columns of the last solve, then the dependent column it
    stopped at.  ``columns[j]`` is the very list passed in and ``reduced[j]``
    what elimination made of it: entries k < j are column j of the upper
    factor (on floats the signs of its zeros are free; see
    ``nullspace_vector``), and entry j of a pivot column is its pivot (the
    entries below it are not read again).  ``steps[k]`` is what pivot k
    does to every later column: (k, the row swapped with row k, the pivot,
    the pivot before it, the factors).  On floats the factors are the
    (row, multiplier) pairs of the rows below the pivot whose multiplier is
    nonzero, in row order: a zero multiplier's row is skipped by every
    elimination, so it is dropped once, when the pivot is formed.  On ints
    they are Bareiss's raw entries of rows k+1.., every one, zeros
    included, since each step rescales every entry below the pivot.  The
    columns must not be changed in place while they are held.
    """

    __slots__ = ("columns", "reduced", "steps")

    def __init__(self) -> None:
        self.columns: list[Sequence[Scalar]] = []
        self.reduced: list[list[Scalar]] = []
        self.steps: list[tuple[int, int, Scalar, Scalar,
                               list[tuple[int, float]] | list[int]]] = []


def nullspace_vector(columns: Sequence[Sequence[Scalar]], ncols: int, exact: bool,
                     echelon: Echelon | None = None) -> list[Scalar] | None:
    """A nonzero z with (matrix given by its ncols columns) @ z = 0, or None at
    full column rank.

    Deterministic: elimination sweeps columns left to right, the first
    pivotless column becomes the free direction, with coefficient one on
    floats and |det| on ints (below).  Floats take the largest entry above
    ``PIVOT_TOL`` as pivot, ints the first nonzero one.

    The elimination is left-looking: each column in turn receives the row
    swaps and eliminations of the pivots before it, then picks its own
    pivot.  Pivots sit on the leading columns, so a column's state after
    pivot k depends on columns 0..k and on itself only.  An ``echelon``
    carried from the previous solve therefore keeps the longest run of its
    pivot columns that are, by identity, the leading columns here, and only
    the columns after that run are eliminated.  Every nonzero entry
    receives the same ``a - f * b`` updates, in the same order, as in a
    row-by-row sweep of the whole matrix (same swaps, same pivots, rows
    with a zero factor skipped alike: a float pivot stores only its nonzero
    factors, -0.0 and factors that underflow to zero dropped as the sweep's
    ``f == 0`` drops them), so floats come out bit for bit those of a sweep
    from scratch, whatever was reused.  Back substitution sums, row by row,
    the products with the nonzero solution entries after the row, in column
    order from 0.0, as the sweep does.  Without ``echelon`` the solve
    starts from scratch.

    A float step whose entry ``b`` on the pivot row is ±0.0 is skipped
    whole.  On finite columns partial pivoting keeps every factor within
    [-1, 1], so ``f * b`` is ±0.0 and ``a - f * b`` is ``a`` again, except
    that a zero ``a`` may change sign.  The signs of the zeros in eliminated
    columns are therefore free, and none reaches the kernel: a zero is
    never a pivot (a pivot exceeds ``PIVOT_TOL``, chosen by absolute value)
    nor a kept factor (its quotient is ±0.0), and back substitution's sums
    start from +0.0, to which a ±0.0 product adds nothing and a nonzero one
    never gives -0.0, so z is bit for bit the sweep's.

    Exact columns hold Python ints: the caller scales its rows to integers
    once, which moves no kernel.  An eliminated column holding anything else
    raises ``TypeError``, since Bareiss's ``//`` on Fractions would give a
    wrong kernel without an error.  They are eliminated fraction-free
    (Bareiss 1968: each step divides exactly by the previous pivot, which
    keeps every entry a minor of the input).  Column c gets a pivot exactly
    when it is not in the span of the columns before it, which no row
    scaling, row order or elimination scheme changes.  So the free column is
    the first dependent column, and the kernel vector z with ``z[free] = 1``
    and zeros after ``free``, the one Fraction elimination gives, is unique.
    The last pivot is the determinant ``det`` of the leading free x free
    block up to sign, so |det|·z is integral (Cramer): it comes back as ints,
    ``|det|`` at ``free`` and zeros after it, back substitution staying on
    ints.
    """
    if echelon is None:
        echelon = Echelon()
    steps = echelon.steps
    kept = 0
    while kept < len(steps) and kept < ncols and columns[kept] is echelon.columns[kept]:
        kept += 1
    del steps[kept:], echelon.columns[kept:], echelon.reduced[kept:]
    reduced = echelon.reduced
    nrows = len(columns[0]) if ncols else 0
    free = None
    for c in range(kept, ncols):
        col = list(columns[c])
        if exact:
            if any(type(v) is not int for v in col):
                raise TypeError(f"exact column {c} holds a non-int entry")
            for k, swap, piv, prev, factors in steps:
                if swap != k:
                    col[k], col[swap] = col[swap], col[k]
                b = col[k]
                for i, f in enumerate(factors, k + 1):
                    col[i] = (piv * col[i] - f * b) // prev
        else:
            for k, swap, _, _, factors in steps:
                if swap != k:
                    col[k], col[swap] = col[swap], col[k]
                b = col[k]
                # a ±0.0 entry can only change the sign of a zero below it
                if b:
                    for i, f in factors:
                        col[i] -= f * b
        echelon.columns.append(columns[c])
        reduced.append(col)
        rank = len(steps)
        pivot_row = None
        if exact:
            for i in range(rank, nrows):
                if col[i]:
                    pivot_row = i
                    break
        else:
            best = PIVOT_TOL
            for i in range(rank, nrows):
                a = abs(col[i])
                if a > best:
                    best = a
                    pivot_row = i
        if pivot_row is None:
            free = c
            break
        if pivot_row != rank:
            col[rank], col[pivot_row] = col[pivot_row], col[rank]
        piv = col[rank]
        if exact:
            factors = col[rank + 1:]
        else:
            factors = [(i, f) for i in range(rank + 1, nrows) if (f := col[i] / piv)]
        steps.append((rank, pivot_row, piv, steps[-1][2] if steps else 1, factors))
    if free is None:
        return None
    # reduced[cc][c] is row c, column cc of the upper factor, for cc <= free;
    # floats solve for z on columns 0..free, ints for the integral |det| * z.
    # ``nonzero`` holds (reduced[cc], x[cc]) for the nonzero x[cc], cc > c, last
    # column first, so each row sums, read backwards, the same terms in the
    # same order as a sweep over every cc that skips the zero ones
    nil = 0 if exact else 0.0
    x = [nil] * free + [(abs(reduced[free - 1][free - 1]) if free else 1) if exact else 1.0]
    nonzero = [(reduced[free], x[free])]
    for c in range(free - 1, -1, -1):
        s = nil
        for u, xc in reversed(nonzero):
            s += u[c] * xc
        xc = x[c] = -s // reduced[c][c] if exact else -s / reduced[c][c]
        if xc:
            nonzero.append((reduced[c], xc))
    return x + [nil] * (ncols - free - 1)


def convex_combination(points: Sequence[Sequence[Scalar]], target: Sequence[Scalar],
                       exact: bool, feas_tol: Scalar
                       ) -> tuple[list[Scalar] | None, list[Scalar] | None, Scalar]:
    """Phase-I simplex for: target = sum lam_j * points_j, lam >= 0, sum lam = 1.

    Returns (lam, None, objective) when the residual objective reaches
    ``feas_tol``, else (None, certificate, objective) where the certificate y
    satisfies y·(v, 1) <= 0 for every point v and y·(target, 1) = objective.
    Bland's rule keeps the pivoting finite and deterministic: the first of
    the n variable columns whose reduced cost, zero minus its entries on the
    rows of artificial basis columns, is below the threshold enters.  The
    artificial columns are not scanned, since each starts basic and none may
    re-enter once it leaves, and a basic variable column is not skipped,
    since it is an exact unit column (``den`` times one on ints) whose
    reduced cost is ±0 (see the module docstring).

    Floats pivot on the tableau [A | I | b] of the sign-flipped rows, with
    ``PIVOT_TOL`` thresholds.  Exact input pivots on integers (Edmonds 1967):
    the tableau is [L·A | I | L·b] with L the lcm of every denominator of the
    points and the target, and it is kept as ``den`` times the rational
    tableau, ``den`` being the determinant of the basis, so each pivot
    ``T[i] = (p·T[i] - T[i][e]·T[r]) // den`` divides exactly and every
    entry stays a minor of the input.  ``den`` is positive, so signs and
    ratios (compared by cross-multiplying) are the rational tableau's.  One
    common L multiplies the Phase-I objective and the reduced costs of the
    lam columns by L and leaves the artificial columns' reduced costs and
    every ratio as they were, so the pivots, lam, the certificate and the
    objective are those of the same simplex run on Fractions, entry for
    entry; the objective is the int 0 when no artificial is left in the
    basis.  Scaling each row by its own factor instead would reweight the
    objective and change the pivots.
    """
    dim = len(target)
    n = len(points)
    nrows = dim + 1
    if exact:
        scale, scaled = integer_scaled([target, *points])
        b, *cols = [v + [scale] for v in scaled]
        one, zero = 1, 0
        eps = 0
    else:
        b = [float(t) for t in target] + [1.0]
        cols = [[float(c) for c in pt] + [1.0] for pt in points]
        one, zero = 1.0, 0.0
        eps = PIVOT_TOL
    sign = [one if bi >= 0 else -one for bi in b]
    # tableau rows, sign-flipped so the artificial basis is the identity:
    # [var columns | artificial columns | rhs]
    tab = []
    for i in range(nrows):
        row = [sign[i] * cols[j][i] for j in range(n)]
        row.extend(one if a == i else zero for a in range(nrows))
        row.append(b[i] * sign[i])
        tab.append(row)
    basis = [n + i for i in range(nrows)]
    den = one  # the tableau is den times the rational one; floats keep den = 1.0
    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        # Bland: the first variable column whose reduced cost, zero minus its
        # entries on the artificial rows, is negative
        artificial = [tab[i] for i in range(nrows) if basis[i] >= n]
        for enter in range(n):
            rc = zero
            for row in artificial:
                rc -= row[enter]
            if rc < -eps:
                break
        else:  # no column enters: the tableau is final
            break
        leave = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > eps:
                if leave is None:
                    leave = i
                    continue
                if exact:  # cross-multiplied, both pivot entries being positive
                    ratio, best = tab[i][-1] * tab[leave][enter], tab[leave][-1] * a
                else:
                    ratio, best = tab[i][-1] / a, tab[leave][-1] / tab[leave][enter]
                if ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one simplex became unbounded")
        piv = tab[leave][enter]
        if exact:
            row_l = tab[leave]
            for i in range(nrows):
                if i != leave:
                    f = tab[i][enter]
                    tab[i] = [(piv * v - f * w) // den for v, w in zip(tab[i], row_l)]
            den = piv
        else:
            tab[leave] = [v / piv for v in tab[leave]]
            for i in range(nrows):
                if i == leave:
                    continue
                f = tab[i][enter]
                if f == 0:
                    continue
                row_i, row_l = tab[i], tab[leave]
                for cc in range(n + nrows + 1):
                    row_i[cc] -= f * row_l[cc]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-one simplex exceeded the iteration cap")

    return _phase_one_result([row[n:] for row in tab], basis, sign, n, feas_tol, exact,
                             den, scale if exact else 1)


def _phase_one_result(tail: Sequence[Sequence[Scalar]], basis: Sequence[int],
                      sign: Sequence[Scalar], n: int, feas_tol: Scalar, exact: bool,
                      den: Scalar, scale: int) -> LPResult:
    """``convex_combination``'s (lam, certificate, objective) from its final
    tableau: ``tail`` holds each row's columns n onward (the artificial
    columns, then the right-hand side), ``den`` is the tableau's common
    denominator (1.0 on floats) and ``scale`` the lcm the exact input was
    multiplied by.  ``_lockstep`` reads a batch's results with the same
    operations in the same order.
    """
    nrows = len(basis)
    artificial = [i for i in range(nrows) if basis[i] >= n]
    objective = fold(tail[i][-1] for i in artificial)
    if exact and artificial:
        objective = Fraction(objective, den * scale)
    if objective <= feas_tol:
        lam = [Fraction(0) if exact else 0.0] * n
        for i in range(nrows):
            if basis[i] < n:
                v = tail[i][-1]
                if exact:
                    v = Fraction(v, den)
                elif v < 0:
                    v = 0.0
                lam[basis[i]] = v
        return lam, None, objective
    # Farkas certificate from the final multipliers: the reduced cost of
    # artificial column i is den minus its entries on the artificial rows
    certificate = []
    for i in range(nrows):
        rc = den
        for r in artificial:
            rc -= tail[r][i]
        y = sign[i] * (den - rc)
        certificate.append(Fraction(y, den) if exact else y)
    return None, certificate, objective


LPProblem = tuple[Sequence[Sequence[Scalar]], Sequence[Scalar], bool]
LPResult = tuple[list[Scalar] | None, list[Scalar] | None, Scalar]


def convex_combinations(problems: Iterable[LPProblem], feas_tol: Scalar) -> list[LPResult]:
    """``[convex_combination(points, target, exact, feas_tol) for points, target,
    exact in problems]``, equal by ``repr``.

    Each problem carries its regime.  Exact problems run one at a time, in
    place, as they are read.  Float problems are grouped by shape (number of
    points, dimension), and every ``_LOCKSTEP_CHUNK`` problems of one shape
    run as one lockstep simplex on numpy arrays (``_lockstep``); a group's
    remainder does too when it holds at least ``_LOCKSTEP_CROSSOVER``
    problems, else it runs one at a time.  So at most one chunk per shape is
    held, and ``problems`` may be a generator.  Both loops enter by the same
    rule (module docstring), so where an LP runs moves none of its bits.

    The constants come from timing filter-shaped LPs (a Gaussian point
    against 11 others in dim 3, and against 5 in dim 2) on a 2-vCPU Xeon VM.
    One at a time they cost 50-56 us (22-24 us) each; in lockstep 200-220 us
    (125-135 us) in a batch of one, 42-48 us (21-22 us) at 16, 26-29 us
    (12-13 us) at 32, 10-12 us (4.5-5 us) at 256 and 8.6-9.2 us (3.8-4.1 us)
    at 1024.  Groups of 16 to 31 LPs are too rare for a lower crossover to
    show: 87 of the 33306 float LPs of the first 6 ``splittable-geometry``
    instances.  Chunks of 512 or 1024 ran that benchmark's solve about 9%
    faster than chunks of 256, but its verify about 12% slower, in every
    alternating pair (2 pairs at 512, 4 at 1024; ``atomic-bangbang`` did
    not move at 1024), so the chunk stays at 256.
    """
    results: list = []
    groups: dict[tuple[int, int], list[tuple[int, LPProblem]]] = {}
    for points, target, exact in problems:
        if exact:
            results.append(convex_combination(points, target, True, feas_tol))
            continue
        group = groups.setdefault((len(points), len(target)), [])
        group.append((len(results), (points, target, exact)))
        results.append(None)
        if len(group) == _LOCKSTEP_CHUNK:
            _lockstep(group, feas_tol, results)
            group.clear()
    for group in groups.values():
        if len(group) >= _LOCKSTEP_CROSSOVER:
            _lockstep(group, feas_tol, results)
        else:
            for index, (points, target, _) in group:
                results[index] = convex_combination(points, target, False, feas_tol)
    return results


def _lockstep(group: list[tuple[int, LPProblem]], feas_tol: Scalar, results: list) -> None:
    """Run ``convex_combination``'s float simplex on every problem of one
    shape at once, one pivot of each per step, writing ``results[index]``.

    The targets and points enter as one flat stream through ``np.fromiter``,
    which converts each coordinate by its ``__float__``, as ``float()`` does
    (an int beyond binary64 raises the same ``OverflowError``).  Each problem
    sees the scalar loop's operations on the same operands, so its pivots are
    the scalar loop's bit for bit.  numpy's elementwise float64 ``+ - * /``
    round each result correctly, as CPython's do, and no ufunc fuses a
    multiply into an add.  Reduced costs are formed over the n variable
    columns only, from 0.0, subtracting one artificial row at a time in row
    order.  The entering column is the first one below ``-PIVOT_TOL``
    (Bland); a basic column's cost is ±0.0 and never is (see the module
    docstring).  The leaving row is the lexicographic minimum of (ratio,
    basis index) over the rows with an entry above ``PIVOT_TOL``, which is
    what the scalar running rule "smaller ratio, or equal ratio and smaller
    basis index" keeps.  A row whose factor is zero, of either sign, is not
    touched, as the scalar loop skips it, so signed zeros agree.

    A problem leaves the arrays once no column enters, its final tableau's
    columns n onward and its basis copied aside.  After the last pivot every
    result is read at once, in ``_phase_one_result``'s operations and order:
    the objective adds the artificial rows' right-hand sides in row order
    from 0.0 (as ``0 + x`` is ``0.0 + x``), and is the int 0 when no
    artificial is left; lam holds the basic rows' right-hand sides, a
    negative one set to 0.0; the certificate is sign·(1.0 - rc), rc starting
    at 1.0 and losing the artificial rows in row order.
    """
    count = len(group)
    n, dim = len(group[0][1][0]), len(group[0][1][1])
    nrows = dim + 1
    width = n + nrows
    flat = np.fromiter(chain.from_iterable(chain(target, *points)
                                           for _, (points, target, _) in group),
                       dtype=float, count=count * (n + 1) * dim).reshape(count, n + 1, dim)
    b = np.ones((count, nrows))
    b[:, :dim] = flat[:, 0]
    sign = np.where(b >= 0, 1.0, -1.0)
    tab = np.zeros((count, nrows, width + 1))
    tab[:, :dim, :n] = flat[:, 1:].transpose(0, 2, 1)
    tab[:, dim, :n] = 1.0
    tab[:, :, :n] *= sign[:, :, None]
    tab[:, :, n:width] = np.eye(nrows)
    tab[:, :, width] = b * sign
    basis = np.tile(np.arange(n, width), (count, 1))
    final_tail = np.empty((count, nrows, nrows + 1))
    final_basis = np.empty((count, nrows), dtype=basis.dtype)
    live = np.arange(count)  # group position of each problem still pivoting
    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        cost = np.zeros((len(live), n))
        artificial = basis >= n
        for i in range(nrows):
            np.subtract(cost, tab[:, i, :n], out=cost, where=artificial[:, i, None])
        eligible = cost < -PIVOT_TOL
        entering = eligible.any(axis=1)
        if not entering.all():
            done = ~entering
            final_tail[live[done]] = tab[done, :, n:]
            final_basis[live[done]] = basis[done]
            if not entering.any():
                break
            tab, basis, live, eligible = (tab[entering], basis[entering], live[entering],
                                          eligible[entering])
        rows = np.arange(len(live))
        enter = eligible.argmax(axis=1)
        column = tab[rows, :, enter]
        candidate = column > PIVOT_TOL
        if not candidate.any(axis=1).all():
            raise RuntimeError("phase-one simplex became unbounded")
        ratio = np.full(column.shape, np.inf)
        np.divide(tab[:, :, width], column, out=ratio, where=candidate)
        tied = candidate & (ratio == ratio.min(axis=1, keepdims=True))
        leave = np.where(tied, basis, width).argmin(axis=1)
        pivot_row = tab[rows, leave] / column[rows, leave][:, None]
        column[rows, leave] = 0.0
        np.subtract(tab, column[:, :, None] * pivot_row[:, None, :], out=tab,
                    where=(column != 0)[:, :, None])
        tab[rows, leave] = pivot_row
        basis[rows, leave] = enter
    else:
        raise RuntimeError("phase-one simplex exceeded the iteration cap")
    rhs = final_tail[:, :, nrows]
    artificial = final_basis >= n
    objective = np.zeros(count)
    rc = np.ones((count, nrows))
    for i in range(nrows):
        np.add(objective, rhs[:, i], out=objective, where=artificial[:, i])
        np.subtract(rc, final_tail[:, i, :nrows], out=rc, where=artificial[:, i, None])
    lam = np.zeros((count, n))
    at, row = np.nonzero(~artificial)
    lam[at, final_basis[at, row]] = np.where(rhs[at, row] < 0, 0.0, rhs[at, row])
    certificate = sign * (1.0 - rc)
    for (index, _), lam_p, cert_p, obj, any_artificial in zip(
            group, lam.tolist(), certificate.tolist(), objective.tolist(),
            artificial.any(axis=1).tolist()):
        obj = obj if any_artificial else 0
        results[index] = (lam_p, None, obj) if obj <= feas_tol else (None, cert_p, obj)
