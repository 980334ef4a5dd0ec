"""Small dense linear-algebra kernels used by the decomposition and
partition solvers.

Four primitives: a nullspace vector of a column set, the pivot step along a
kernel direction (ratio test, smallest index leaves on ties, float
round-off clamped), support reduction of a nonnegative solution by repeated
pivot steps, and a Phase-I simplex deciding convex-combination feasibility
with a Farkas certificate on failure, also run on many LPs at once.  The pivot step is the one the
partition solver's transport reduction takes too; it moves only the entries
on the support of the kernel direction.  It runs verbatim on floats (1e-12
thresholds) and on Fractions (zero thresholds).  The simplex pivots floats
with 1e-12 thresholds, and exact input on a tableau of Python ints scaled by
one common denominator (Edmonds' integer-preserving pivots); its pivots and
results are those of the same simplex on Fractions.
The nullspace vector eliminates floats with partial pivoting, and exact rows
fraction-free on Python ints (Bareiss), returning the Fractions exact
elimination gives.  It eliminates left-looking, and an ``Echelon`` carries
the elimination between solves, so a solve that starts with the previous
solve's leading pivot columns eliminates only the columns after them; the
floats stay bit for bit those of a solve from scratch.  One solve is tens of
rows, so plain lists beat array machinery for it.

Many float LPs at once are another matter: ``convex_combinations`` runs
float LPs of one shape side by side, one pivot of each per step of a numpy
loop, and returns for each exactly what ``convex_combination`` returns.  Each
LP sees the same IEEE operations on the same operands in the same order:
numpy's elementwise float64 ``+ - * /`` round each result correctly, as
CPython's do, with no fused multiply-add; reduced costs are subtracted row
by row in row order; the entering column is the first eligible one and the
leaving row the lexicographic minimum of (ratio, basis index), which is the
scalar running rule; zero-factor rows are skipped; and the results are
assembled in Python from the final tableau in the scalar order.  Below about
32 LPs of one shape the array loop's fixed cost outweighs what it saves, so
smaller groups, and every exact LP, run the scalar loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .numeric import PIVOT_TOL, Scalar

_MAX_SIMPLEX_ITERATIONS = 100000

#: float LPs of one shape run in lockstep only from this many on; fewer run
#: one at a time (measurements in ``convex_combinations``)
_LOCKSTEP_CROSSOVER = 32
#: float LPs per lockstep batch (see ``convex_combinations``)
_LOCKSTEP_CHUNK = 256


def _zero(exact: bool) -> Scalar:
    return Fraction(0) if exact else 0.0


def integer_scaled(vectors: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]]]:
    """L, the lcm of every denominator of the exact vectors, and the vectors times L."""
    scale = math.lcm(*(v.denominator for vec in vectors for v in vec))
    return scale, [[v.numerator * (scale // v.denominator) for v in vec] for vec in vectors]


def integer_row(row: Sequence[Scalar]) -> list[int]:
    """The exact row times the lcm of its denominators; int rows come back as is."""
    if all(type(v) is int for v in row):
        return list(row)
    return integer_scaled([row])[1][0]


class Echelon:
    """The elimination of a column list, kept between kernel solves.

    Holds the pivot columns of the last solve, then the dependent column it
    stopped at.  ``columns[j]`` is the very list passed in and ``reduced[j]``
    what elimination made of it: entries k < j are column j of the upper
    factor, and entry j of a pivot column is its pivot.  ``steps[k]`` is
    what pivot k does to every later column: (k, the row swapped with row
    k, the pivot, the pivot before it, the factors of rows k+1..), the
    factors being the float multipliers, or on ints Bareiss's raw entries
    below the pivot.  The columns must not be changed in place while they
    are held.
    """

    __slots__ = ("columns", "reduced", "steps")

    def __init__(self) -> None:
        self.columns: list[Sequence[Scalar]] = []
        self.reduced: list[list[Scalar]] = []
        self.steps: list[tuple[int, int, Scalar, Scalar, list[Scalar]]] = []


def _integer_columns(columns: Sequence[Sequence[Scalar]]) -> Sequence[Sequence[Scalar]]:
    """Exact columns with each row scaled by the lcm of its denominators.

    All-int columns come back as they are, the same list objects, so an
    ``Echelon`` can recognize them on the next solve.
    """
    if all(type(v) is int for col in columns for v in col):
        return columns
    return [list(col) for col in zip(*(integer_row(r) for r in zip(*columns)))]


def nullspace_vector(columns: Sequence[Sequence[Scalar]], ncols: int, exact: bool,
                     echelon: Echelon | None = None) -> list[Scalar] | None:
    """A nonzero z with (matrix given by its ncols columns) @ z = 0, or None at
    full column rank.

    Deterministic: elimination sweeps columns left to right, the first
    pivotless column becomes the free direction with coefficient one.
    Floats take the largest entry above ``PIVOT_TOL`` as pivot, ints the
    first nonzero one.

    The elimination is left-looking: each column in turn receives the row
    swaps and eliminations of the pivots before it, then picks its own
    pivot.  Pivots sit on the leading columns, so a column's state after
    pivot k depends on columns 0..k and on itself only.  An ``echelon``
    carried from the previous solve therefore keeps the longest run of its
    pivot columns that are, by identity, the leading columns here, and only
    the columns after that run are eliminated.  Every entry receives the
    same ``a - f * b`` updates, in the same order, as in a row-by-row sweep
    of the whole matrix (same swaps, same pivots, rows with a zero factor
    skipped alike), so floats come out bit for bit those of a sweep from
    scratch, whatever was reused.  Without ``echelon`` the solve starts from
    scratch.

    Exact rows are scaled to integers and eliminated fraction-free (Bareiss
    1968: each step divides exactly by the previous pivot, which keeps every
    entry a minor of the input).  The result is still the one the Fraction
    elimination gives, entry for entry: column c gets a pivot exactly when
    it is not in the span of the columns before it, which no row scaling,
    row order or elimination scheme changes.  So the free column is the
    first dependent column, and the kernel vector with ``z[free] = 1`` and
    zeros after ``free`` is unique.  The last pivot is the determinant
    ``det`` of the leading free x free block, so ``det * z`` is integral
    (Cramer) and back substitution stays on ints.
    """
    if exact:
        columns = _integer_columns(columns)
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
        for k, swap, piv, prev, factors in steps:
            if swap != k:
                col[k], col[swap] = col[swap], col[k]
            b = col[k]
            if exact:
                for i, f in enumerate(factors, k + 1):
                    col[i] = (piv * col[i] - f * b) // prev
            else:
                for i, f in enumerate(factors, k + 1):
                    if f:
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
        if not exact:
            for i in range(rank + 1, nrows):
                col[i] /= piv
        steps.append((rank, pivot_row, piv, steps[-1][2] if steps else 1, col[rank + 1:]))
    if free is None:
        return None
    # reduced[cc][c] is row c, column cc of the upper factor, for cc <= free;
    # floats solve for z on columns 0..free, ints for the integral det * z
    det = (reduced[free - 1][free - 1] if free else 1) if exact else 1.0
    x = [0 if exact else 0.0] * free + [det]
    for c in range(free - 1, -1, -1):
        s = 0 if exact else 0.0
        for u, xc in zip(reduced[c + 1:], x[c + 1:]):
            if xc:
                s += u[c] * xc
        x[c] = -s // reduced[c][c] if exact else -s / reduced[c][c]
    if exact:
        return [Fraction(xc, det) for xc in x] + [Fraction(0)] * (ncols - free - 1)
    return x + [0.0] * (ncols - free - 1)


def pivot_step(x: Sequence[Scalar], z: Sequence[Scalar], exact: bool) -> list[Scalar]:
    """Move the nonnegative values x along the kernel direction z until one hits zero.

    z is negated when no entry exceeds the threshold (zero on Fractions,
    ``PIVOT_TOL`` on floats).  The step is the least ratio x[i] / z[i] over
    the entries above it, the smallest index among the tied minimizers
    leaves and is set to exactly zero, and on floats the round-off that
    drove any other value below zero is clamped to 0.0.

    Only the support of z is touched: an entry with ``z[i] == 0`` comes back
    as it went in, which is what ``x[i] - theta * 0`` gives anyway for the
    positive values x holds, bit for bit.
    """
    zero_thresh = 0 if exact else PIVOT_TOL
    if not any(zv > zero_thresh for zv in z):
        z = [-zv for zv in z]
    theta = None
    leave = None
    for idx, zv in enumerate(z):
        if zv > zero_thresh:
            ratio = x[idx] / zv
            if theta is None or ratio < theta:
                theta = ratio
                leave = idx
    moved = list(x)
    for idx, zv in enumerate(z):
        if zv:
            v = x[idx] - theta * zv
            moved[idx] = 0.0 if not exact and v < 0 else v
    moved[leave] = _zero(exact)
    return moved


def reduce_support(columns: Sequence[Sequence[Scalar]], x: Sequence[Scalar],
                   exact: bool) -> list[Scalar]:
    """Shrink the support of a nonnegative solution of (columns)·x = b.

    While the supported columns are dependent, take a ``pivot_step`` along
    a kernel vector.  Feasibility and nonnegativity are preserved; the
    result has linearly independent support.
    """
    x = list(x)
    for _ in range(len(x) + 1):
        support = [v for v, xv in enumerate(x) if xv > 0]
        if len(support) <= 1:
            return x
        z = nullspace_vector([columns[v] for v in support], len(support), exact)
        if z is None:
            return x
        moved = pivot_step([x[v] for v in support], z, exact)
        for v, xv in zip(support, moved):
            x[v] = xv
    raise RuntimeError("support reduction failed to terminate")


def convex_combination(points: Sequence[Sequence[Scalar]], target: Sequence[Scalar],
                       exact: bool, feas_tol: Scalar
                       ) -> tuple[list[Scalar] | None, list[Scalar] | None, Scalar]:
    """Phase-I simplex for: target = sum lam_j * points_j, lam >= 0, sum lam = 1.

    Returns (lam, None, objective) when the residual objective reaches
    ``feas_tol``, else (None, certificate, objective) where the certificate y
    satisfies y·(v, 1) <= 0 for every point v and y·(target, 1) = objective.
    Bland's rule keeps the pivoting finite and deterministic.

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
    dead = [False] * (n + nrows)  # artificials may not re-enter once they leave
    den = one  # the tableau is den times the rational one; floats keep den = 1.0

    def reduced_cost(j: int) -> Scalar:
        rc = den if j >= n else zero
        for i in range(nrows):
            if basis[i] >= n:
                rc -= tab[i][j]
        return rc

    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        enter = None
        for j in range(n + nrows):
            if dead[j] or j in basis:
                continue
            if reduced_cost(j) < -eps:
                enter = j
                break
        if enter is None:
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
        if basis[leave] >= n:
            dead[basis[leave]] = True
        basis[leave] = enter
    else:
        raise RuntimeError("phase-one simplex exceeded the iteration cap")

    artificial = [i for i in range(nrows) if basis[i] >= n]
    objective = sum(tab[i][-1] for i in artificial)
    if exact and artificial:
        objective = Fraction(objective, den * scale)
    if objective <= feas_tol:
        lam = [_zero(exact)] * n
        for i in range(nrows):
            if basis[i] < n:
                v = tab[i][-1]
                if exact:
                    v = Fraction(v, den)
                elif v < 0:
                    v = 0.0
                lam[basis[i]] = v
        return lam, None, objective
    # Farkas certificate from the final multipliers.
    certificate = []
    for i in range(nrows):
        y = sign[i] * (den - reduced_cost(n + i))
        certificate.append(Fraction(y, den) if exact else y)
    return None, certificate, objective


LPProblem = tuple[Sequence[Sequence[Scalar]], Sequence[Scalar]]
LPResult = tuple[list[Scalar] | None, list[Scalar] | None, Scalar]


def convex_combinations(problems: Iterable[LPProblem], exact: bool,
                        feas_tol: Scalar) -> list[LPResult]:
    """``[convex_combination(points, target, exact, feas_tol) for points, target
    in problems]``, equal by ``repr``.

    Exact problems run one at a time.  Float problems are grouped by shape
    (number of points, dimension) as they are read, and every
    ``_LOCKSTEP_CHUNK`` problems of one shape run as one lockstep simplex on
    numpy arrays (``_lockstep``); a group's remainder does too when it holds
    at least ``_LOCKSTEP_CROSSOVER`` problems, else it runs one at a time.
    So at most one chunk per shape is held, and ``problems`` may be a
    generator.

    The constants come from timing filter-shaped LPs (a Gaussian point
    against 11 others in dim 3, and against 5 in dim 2) on a 2-vCPU VM.  One
    at a time they cost 84-92 us (41-44 us) each; in lockstep 570 us (290 us)
    in a batch of one, 74-91 us (52-59 us) at 16, 46-62 us (34-40 us) at 32,
    19-27 us (13-14 us) at 256 and 17-21 us (12 us) at 1024.  Chunks of 1024
    ran the float pointset benchmark (``splittable-geometry``) 4-7%
    faster than chunks of 256, but its peak RSS rose 0.7 MB more, to 4.5%
    above the one-at-a-time code.
    """
    if exact:
        return [convex_combination(points, target, True, feas_tol)
                for points, target in problems]
    results: list = []
    groups: dict[tuple[int, int], list[tuple[int, LPProblem]]] = {}
    for problem in problems:
        group = groups.setdefault((len(problem[0]), len(problem[1])), [])
        group.append((len(results), problem))
        results.append(None)
        if len(group) == _LOCKSTEP_CHUNK:
            _lockstep(group, feas_tol, results)
            group.clear()
    for group in groups.values():
        if len(group) >= _LOCKSTEP_CROSSOVER:
            _lockstep(group, feas_tol, results)
        else:
            for index, (points, target) in group:
                results[index] = convex_combination(points, target, False, feas_tol)
    return results


def _lockstep(group: list[tuple[int, LPProblem]], feas_tol: Scalar, results: list) -> None:
    """Run ``convex_combination``'s float simplex on every problem of one
    shape at once, one pivot of each per step, writing ``results[index]``.

    Each problem sees the scalar loop's operations on the same operands, so
    its results are the scalar loop's bit for bit.  numpy's elementwise
    float64 ``+ - * /`` round each result correctly, as CPython's do, and no
    ufunc fuses a multiply into an add.  Reduced costs are subtracted one
    artificial row at a time, in row order.  The entering column is the first
    eligible one (Bland).  The leaving row is the lexicographic minimum of
    (ratio, basis index) over the rows with an entry above ``PIVOT_TOL``,
    which is what the scalar running rule "smaller ratio, or equal ratio and
    smaller basis index" keeps.  A row whose factor is zero, of either sign,
    is not touched, as the scalar loop skips it, so signed zeros agree.  A
    problem leaves the arrays once no column enters, and its lam, certificate
    and objective are assembled in Python from its final tableau in the
    scalar loop's order (so the objective is the int 0 when no artificial is
    left).
    """
    count = len(group)
    n, dim = len(group[0][1][0]), len(group[0][1][1])
    nrows = dim + 1
    width = n + nrows
    b = np.ones((count, nrows))
    b[:, :dim] = np.array([target for _, (_, target) in group], dtype=float).reshape(count, dim)
    sign = np.where(b >= 0, 1.0, -1.0)
    tab = np.zeros((count, nrows, width + 1))
    tab[:, :dim, :n] = np.array([points for _, (points, _) in group],
                                dtype=float).reshape(count, n, dim).transpose(0, 2, 1)
    tab[:, dim, :n] = 1.0
    tab[:, :, :n] *= sign[:, :, None]
    tab[:, :, n:width] = np.eye(nrows)
    tab[:, :, width] = b * sign
    basis = np.tile(np.arange(n, width), (count, 1))
    dead = np.zeros((count, width), dtype=bool)  # artificials that left
    held = np.zeros((count, width), dtype=bool)  # columns in the basis
    held[:, n:] = True
    start_cost = np.zeros(width)
    start_cost[n:] = 1.0
    live = np.arange(count)  # group position of each problem still pivoting
    for _ in range(_MAX_SIMPLEX_ITERATIONS):
        cost = np.tile(start_cost, (len(live), 1))
        artificial = basis >= n
        for i in range(nrows):
            np.subtract(cost, tab[:, i, :width], out=cost, where=artificial[:, i, None])
        eligible = (cost < -PIVOT_TOL) & ~dead & ~held
        entering = eligible.any(axis=1)
        if not entering.all():
            done = ~entering
            _lockstep_results(group, live[done], tab[done], basis[done], sign[done],
                              n, feas_tol, results)
            if not entering.any():
                return
            tab, basis, dead, held, sign, live, eligible = (
                tab[entering], basis[entering], dead[entering], held[entering],
                sign[entering], live[entering], eligible[entering])
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
        left = basis[rows, leave]
        dead[rows, left] = left >= n
        held[rows, left] = False
        held[rows, enter] = True
        basis[rows, leave] = enter
    raise RuntimeError("phase-one simplex exceeded the iteration cap")


def _lockstep_results(group: list[tuple[int, LPProblem]], positions: np.ndarray,
                      tab: np.ndarray, basis: np.ndarray, sign: np.ndarray, n: int,
                      feas_tol: Scalar, results: list) -> None:
    """``convex_combination``'s float results from final tableaus, in its order."""
    nrows = basis.shape[1]
    rhs = tab[:, :, -1].tolist()
    for p, (pos, rhs_p, basis_p) in enumerate(zip(positions.tolist(), rhs, basis.tolist())):
        artificial = [i for i in range(nrows) if basis_p[i] >= n]
        objective = sum(rhs_p[i] for i in artificial)
        if objective <= feas_tol:
            lam = [0.0] * n
            for i in range(nrows):
                if basis_p[i] < n:
                    v = rhs_p[i]
                    if v < 0:
                        v = 0.0
                    lam[basis_p[i]] = v
            results[group[pos][0]] = (lam, None, objective)
            continue
        art_cols = tab[p, :, n:n + nrows].tolist()
        certificate = []
        for i, s in enumerate(sign[p].tolist()):
            rc = 1.0
            for r in artificial:
                rc -= art_cols[r][i]
            certificate.append(s * (1.0 - rc))
        results[group[pos][0]] = (None, certificate, objective)
