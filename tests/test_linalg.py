"""The kernel solves against the row-by-row Fraction elimination they
replaced, the reuse of an elimination between solves, and the Phase-I
simplex against the Fraction simplex it replaced.  ``test_polytope`` keeps
the support reduction that used the kernel and the pivot step before the
simplex's basic solution replaced it.

``pivot_step`` is ``linalg.pivot_step`` as it was before the transport
reduction took its ratio test onto the window it pivots, kept verbatim: the
reference walks of ``test_transport`` and ``reference_reduce_support`` in
``test_polytope`` call it.

``reference_nullspace_vector`` is the elimination ``linalg.nullspace_vector``
ran on both regimes before exact solves moved to integers and before the
sweep became left-looking, kept verbatim: it takes the matrix by rows, where
``nullspace_vector`` takes it by columns.  Exact solves take integer columns
(``_integer_columns`` scales ``Fraction`` input, row by row) and return the
kernel as ints, a positive multiple of the reference's: positive at the
free column and zero after it.  Divided by that entry, it must match the
reference entry for entry.  Float results must match it bit for bit, with
or without an ``Echelon`` carried over from earlier solves, and the upper
factor the ``Echelon`` holds must be the reference sweep's, zeros matched
as zeros of either sign.  The reference
gets its exact input as ``Fraction``s, because on two ``int``s its ``/``
leaves the exact regime.

``reference_convex_combination`` is ``linalg.convex_combination`` as it ran
before exact input moved to an integer tableau, kept verbatim: Fractions
throughout.  On exact input the live simplex must return equal values of
equal types (lam, certificate and objective, including the int 0 objective
when no artificial is left in the basis); on floats, equal ``repr``.
``test_polytope`` takes its extreme-point arbiter from it too.  Every result
of ``convex_combinations`` on floats, batched in lockstep or not, must equal
it by ``repr`` as well.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condbang import linalg
from condbang.linalg import (Echelon, convex_combination, convex_combinations,
                             integer_scaled, nullspace_vector)
from condbang.numeric import PIVOT_TOL, Scalar


def _zero(exact: bool) -> Scalar:
    return Fraction(0) if exact else 0.0


def reference_nullspace_vector(rows: Sequence[Sequence[Scalar]], ncols: int,
                               exact: bool) -> list[Scalar] | None:
    """A nonzero z with (matrix given by rows) @ z = 0, or None at full column rank.

    Deterministic: elimination sweeps columns left to right, the first
    pivotless column becomes the free direction with coefficient one.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots: list[tuple[int, int]] = []  # (column, row in echelon order)
    rank = 0
    free = None
    for c in range(ncols):
        pivot_row = None
        if exact:
            for i in range(rank, nrows):
                if work[i][c] != 0:
                    pivot_row = i
                    break
        else:
            best = PIVOT_TOL
            for i in range(rank, nrows):
                a = abs(work[i][c])
                if a > best:
                    best = a
                    pivot_row = i
        if pivot_row is None:
            free = c
            break
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][c]
        for i in range(rank + 1, nrows):
            f = work[i][c] / piv
            if f == 0:
                continue
            row_i, row_p = work[i], work[rank]
            for cc in range(c, ncols):
                row_i[cc] -= f * row_p[cc]
        pivots.append((c, rank))
        rank += 1
        if rank == nrows and c + 1 < ncols:
            free = c + 1
            break
    if free is None:
        return None
    z: list[Scalar] = [_zero(exact)] * ncols
    z[free] = Fraction(1) if exact else 1.0
    for c, r in reversed(pivots):
        s = _zero(exact)
        for cc in range(c + 1, free + 1):
            if z[cc] != 0:
                s += work[r][cc] * z[cc]
        z[c] = -s / work[r][c]
    return z


def _integer_columns(columns: Sequence[Sequence[Scalar]]) -> Sequence[Sequence[Scalar]]:
    """Exact columns with each row scaled by the lcm of its denominators.

    All-int columns come back as they are, the same list objects, so an
    ``Echelon`` can recognize them on the next solve.
    """
    if all(type(v) is int for col in columns for v in col):
        return columns
    return [list(col) for col in zip(*(integer_scaled([r])[1][0] for r in zip(*columns)))]


def assert_scaled_kernel(got, want):
    """The exact kernel ``got`` is the reference kernel ``want`` times a
    positive int: all ints, positive at ``want``'s free column (its last
    nonzero entry, a one) and zero after it."""
    if want is None:
        assert got is None
        return
    free = max(c for c, v in enumerate(want) if v)
    assert all(type(v) is int for v in got)
    assert got[free] > 0 and not any(got[free + 1:])
    assert [Fraction(v, got[free]) for v in got] == want


def columns_of(rows, ncols):
    return [[r[c] for r in rows] for c in range(ncols)]


def rows_of(columns):
    return [list(r) for r in zip(*columns)]


def assert_exact_matches_reference(rows, ncols):
    want = reference_nullspace_vector([[Fraction(v) for v in r] for r in rows],
                                      ncols, True)
    got = nullspace_vector(_integer_columns(columns_of(rows, ncols)), ncols, True)
    assert_scaled_kernel(got, want)
    return want


def same_bits(got, want) -> bool:
    """Float results equal bit for bit: ``repr`` tells -0.0 from 0.0."""
    return repr(got) == repr(want)


def reference_sweep(rows: Sequence[Sequence[float]], ncols: int
                    ) -> tuple[list[float] | None, list[list[float]], int]:
    """``reference_nullspace_vector`` on floats, with the rows its sweep left
    and its rank, read from its frame as it returns."""
    final = {}
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is reference_nullspace_vector.__code__:
            final.update(frame.f_locals)

    sys.setprofile(profile)
    try:
        z = reference_nullspace_vector(rows, ncols, False)
    finally:
        sys.setprofile(previous)
    return z, final["work"], final["rank"]


def assert_same_upper_factor(echelon: Echelon, work: list[list[float]], rank: int) -> None:
    """The upper factor the carried ``echelon`` holds is the sweep's: entry
    k <= j of column j, for every pivot row k, is ``work[k][j]``, nonzero
    entries bit for bit and zeros as zeros, of either sign (the signs of
    zeros in eliminated columns are free; see ``nullspace_vector``)."""
    for j, col in enumerate(echelon.reduced):
        for k in range(min(j + 1, rank)):
            a, b = col[k], work[k][j]
            assert (a == 0 and b == 0) or same_bits(a, b), (j, k, a, b)


F = Fraction
BIG = 2 ** 64


def test_zero_rows():
    assert assert_exact_matches_reference([], 3) == [1, 0, 0]


def test_leading_all_zero_column():
    rows = [[0, F(1, 2), 3], [0, -2, F(5, 7)]]
    assert assert_exact_matches_reference(rows, 3) == [1, 0, 0]


def test_rank_reaches_row_count_before_last_column():
    rows = [[2, F(-1, 3), 4, 1, 0], [F(1, 5), 1, -1, 0, 7]]
    z = assert_exact_matches_reference(rows, 5)
    assert z[2] == 1 and z[3:] == [0, 0]


def test_full_column_rank_returns_none():
    rows = [[1, F(2, 3)], [F(-1, 4), 5], [0, 1]]
    assert assert_exact_matches_reference(rows, 2) is None


def test_single_column():
    assert assert_exact_matches_reference([[F(3, 7)], [0]], 1) is None
    assert assert_exact_matches_reference([[0], [F(0, 5)]], 1) == [1]


def test_mixed_int_and_fraction_entries_with_a_later_dependent_column():
    rows = [[1, F(1, 2), 2, F(3, 2)], [0, 3, F(-1, 3), F(8, 3)], [4, -1, 7, 3]]
    assert assert_exact_matches_reference(rows, 4) is not None


def test_negative_entries():
    rows = [[-3, -1, -4], [-1, F(-5, 9), -2], [-6, -2, -8]]
    assert assert_exact_matches_reference(rows, 3) is not None


def test_denominators_near_two_to_the_64():
    rng = random.Random(64)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 7)
        rows = [[F(rng.randint(-BIG, BIG), BIG - rng.randint(0, 1000)) for _ in range(ncols)]
                for _ in range(nrows)]
        if ncols > 1 and rng.random() < 0.5:  # a dependent last column
            a, b = F(rng.randint(1, BIG), BIG + 1), F(-rng.randint(1, BIG), BIG - 3)
            for r in rows:
                r[-1] = a * r[0] + b * r[ncols // 2]
        assert_exact_matches_reference(rows, ncols)


_entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.just(0),
)


#: float entries the exact ones cannot give: a signed zero, subnormals, and
#: magnitudes whose quotients by a pivot of another scale underflow to ±0.0,
#: which a float pivot must drop from its factors as the sweep's ``f == 0``
#: skips them
_FLOAT_EDGES = (-0.0, 5e-324, -5e-324, 3e-320, -1e-310, 2.2250738585072014e-308,
                1e-300, -1e-300, 1e200, -1e200)
_float_entries = st.one_of(_entries, st.sampled_from(_FLOAT_EDGES))


@st.composite
def matrices(draw, floats=False):
    """A row list and a column count; with ``floats`` the entries are floats,
    edge values among them."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 8))
    entries = _float_entries if floats else _entries
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    # make some columns zero or combinations of earlier ones, so that the
    # first dependent column lands anywhere
    for c in range(ncols):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combine")))
        if kind == "zero":
            for r in rows:
                r[c] = 0
        elif kind == "combine" and c > 0:
            coefs = [draw(_entries) for _ in range(c)]
            for r in rows:
                r[c] = sum((k * v for k, v in zip(coefs, r[:c])), Fraction(0))
    if floats:
        rows = [[float(v) for v in r] for r in rows]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_exact_kernel_matches_reference(case):
    rows, ncols = case
    assert_exact_matches_reference(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(matrices(floats=True))
def test_float_kernel_matches_reference_bit_for_bit(case):
    rows, ncols = case
    echelon = Echelon()
    z, work, rank = reference_sweep(rows, ncols)
    assert same_bits(nullspace_vector(columns_of(rows, ncols), ncols, False, echelon=echelon), z)
    assert len(echelon.steps) == rank
    assert_same_upper_factor(echelon, work, rank)


def _draw_column(data, nrows: int, exact: bool, held: list) -> list:
    """A fresh column list: random, zero, a copy of a held one, or a
    combination of two held ones (so dependent columns turn up anywhere)."""
    kinds = ["random", "random", "zero"] + (["duplicate", "combine"] if held else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "zero":
        return [0 if exact else 0.0] * nrows
    if kind == "duplicate":
        return list(data.draw(st.sampled_from(held)))
    if kind == "combine":
        a, b = data.draw(st.sampled_from(held)), data.draw(st.sampled_from(held))
        s, t = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        return [s * x + t * y for x, y in zip(a, b)]
    if exact:
        return [data.draw(st.sampled_from((0, data.draw(st.integers(-9, 9)))))
                for _ in range(nrows)]
    return [data.draw(st.sampled_from((0.0, data.draw(st.floats(-2, 2)),
                                       data.draw(st.sampled_from(_FLOAT_EDGES)))))
            for _ in range(nrows)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_with_a_carried_echelon_matches_a_fresh_sweep(exact, data):
    # a window of cells, each a list of column objects, edited the ways the
    # transport reduction edits its window between two solves
    nrows = data.draw(st.integers(0, 6))
    window: list[list[list]] = []
    echelon = Echelon()
    for _ in range(data.draw(st.integers(1, 12))):
        held = [column for cell in window for column in cell]
        edit = data.draw(st.sampled_from(("append", "append", "drop", "rebuild", "shrink"))
                         if window else st.just("append"))
        if edit == "append":
            window.append([_draw_column(data, nrows, exact, held)
                           for _ in range(data.draw(st.integers(1, 3)))])
        elif edit == "drop":
            del window[data.draw(st.integers(0, len(window) - 1))]
        elif edit == "rebuild":
            at = data.draw(st.integers(0, len(window) - 1))
            cell = window[at]
            if len(cell) > 1 and data.draw(st.booleans()):
                # the cell lost a piece: its other columns come back as new lists
                lost = data.draw(st.integers(0, len(cell) - 1))
                window[at] = [list(column) for j, column in enumerate(cell) if j != lost]
            else:
                window[at] = [_draw_column(data, nrows, exact, held) for _ in cell]
        else:
            window = [window[0][:1]]
        columns = [column for cell in window for column in cell]
        if not columns:
            continue
        ncols = len(columns)
        got = nullspace_vector(_integer_columns(columns) if exact else columns, ncols, exact,
                               echelon=echelon)
        rows = [[F(v) if exact else v for v in r] for r in rows_of(columns)]
        if exact:
            assert_scaled_kernel(got, reference_nullspace_vector(rows, ncols, exact))
        else:
            want, work, rank = reference_sweep(rows, ncols)
            assert same_bits(got, want)
            assert_same_upper_factor(echelon, work, rank)
        # the echelon holds a leading run of this window's columns, as passed
        assert all(a is b for a, b in zip(echelon.columns, columns))


def test_echelon_keeps_the_elimination_of_unchanged_leading_columns():
    columns = [[1.0, 0.0, 2.0], [0.5, 3.0, -1.0], [0.0, 1.0, 4.0]]
    echelon = Echelon()
    assert nullspace_vector(columns, 3, False, echelon=echelon) is None
    eliminated = list(echelon.reduced)
    # a dependent column joins: the three held columns are not eliminated again
    grown = columns + [[v + w for v, w in zip(columns[0], columns[2])]]
    z = nullspace_vector(grown, 4, False, echelon=echelon)
    assert same_bits(z, reference_nullspace_vector(rows_of(grown), 4, False))
    assert all(a is b for a, b in zip(echelon.reduced, eliminated))
    # the middle column is rebuilt: only the first elimination survives
    rebuilt = [grown[0], list(grown[1]), grown[2], grown[3]]
    z = nullspace_vector(rebuilt, 4, False, echelon=echelon)
    assert same_bits(z, reference_nullspace_vector(rows_of(rebuilt), 4, False))
    assert echelon.reduced[0] is eliminated[0]
    assert echelon.reduced[1] is not eliminated[1]
    # the same solve without an echelon, and exact data on a fresh one
    assert same_bits(nullspace_vector(rebuilt, 4, False), z)
    ints = [[1, 0, 2], [0, 3, -1], [1, 3, 1]]
    assert nullspace_vector(ints, 3, True, echelon=Echelon()) == [-3, -3, 3]


def test_float_pivot_keeps_only_its_nonzero_factors():
    # below the pivot 2.0: -0.0, and 5e-324 and -5e-324, whose halves round to
    # 0.0 and -0.0; only row 4's factor 0.5 is kept, and the later columns
    # get no update on the other rows, as in the row-by-row sweep
    assert 5e-324 / 2.0 == 0.0 and repr(-5e-324 / 2.0) == "-0.0"
    columns = [[2.0, -0.0, 5e-324, -5e-324, 1.0], [1.0, -0.0, 3e-320, 1.0, -0.0],
               [0.0, 1.0, -0.0, 4.0, 2.0], [1.0, 0.5, 1e-300, -0.0, 2.0],
               [-0.0, 2.0, 1.0, 1.0, 1.0], [5e-324, -0.0, 2.0, 0.5, 1.0]]
    echelon = Echelon()
    z = nullspace_vector(columns, 6, False, echelon=echelon)
    assert same_bits(z, reference_nullspace_vector(rows_of(columns), 6, False))
    assert echelon.steps[0] == (0, 0, 2.0, 1, [(4, 0.5)])
    assert all(f for *_, factors in echelon.steps for _, f in factors)


def test_float_step_on_a_zero_pivot_row_entry_is_skipped_and_on_a_subnormal_one_applied():
    # pivot 2.0 on row 0, factors 0.5 and -0.5 on rows 1 and 2.  Column 1 holds
    # -0.0 on the pivot row, column 2 holds 0.0: the full update a - f * b
    # would turn their -0.0 on rows 1 and 2 into 0.0 and leave every other
    # entry as it is; the skipped step leaves the -0.0 too
    columns = [[2.0, 1.0, -1.0], [-0.0, -0.0, 3.0], [0.0, 5.0, -0.0], [1.0, 1.0, 1.0]]
    full = [[col[0]] + [a - f * col[0] for a, f in zip(col[1:], (0.5, -0.5))]
            for col in columns[1:3]]
    assert repr(full) == "[[-0.0, 0.0, 3.0], [0.0, 5.0, 0.0]]"
    echelon = Echelon()
    z, work, rank = reference_sweep(rows_of(columns), 4)
    assert same_bits(nullspace_vector(columns, 4, False, echelon=echelon), z)
    assert echelon.steps[0] == (0, 0, 2.0, 1, [(1, 0.5), (2, -0.5)])
    # column 1 after step 0 and its own pivot swap (rows 1 and 2), column 2
    # after both steps: the -0.0 kept, every nonzero entry the full update's
    assert repr(echelon.reduced[1]) == "[-0.0, 3.0, -0.0]"
    assert repr(echelon.reduced[2][:2]) == "[0.0, -0.0]"
    assert echelon.reduced[1][1] == full[0][2] and echelon.reduced[2][2] == full[1][1]
    assert_same_upper_factor(echelon, work, rank)
    # a subnormal entry on the pivot row is no zero: its step is applied, and
    # moves the upper factor's entry 1e-323 on row 1 by 5e-324
    columns = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [5e-324, 1e-323, 1.0], [1.0, 1.0, 1.0]]
    echelon = Echelon()
    z, work, rank = reference_sweep(rows_of(columns), 4)
    assert same_bits(nullspace_vector(columns, 4, False, echelon=echelon), z)
    assert echelon.reduced[2] == [5e-324, 1e-323 - 5e-324, 1.0] == [5e-324, 5e-324, 1.0]
    assert_same_upper_factor(echelon, work, rank)


def test_exact_kernel_is_integral_positive_at_free_and_zero_after():
    # the last pivot is -2: the kernel is |det| z = 2 (3/2, 1, 0), not det z
    assert nullspace_vector([[-2], [3], [5]], 3, True) == [3, 2, 0]
    # a row swap, then pivots 4 and 12: column 2 is column 0 plus twice column 1
    z = nullspace_vector([[0, 4], [3, 1], [6, 6], [9, 9]], 4, True)
    assert z == [-12, -24, 12, 0] and all(type(v) is int for v in z)


@pytest.mark.parametrize("entry", [F(1, 2), 0.5, F(4)], ids=["fraction", "float", "whole"])
def test_exact_kernel_rejects_a_column_that_is_not_all_ints(entry):
    with pytest.raises(TypeError):
        nullspace_vector([[1, 2], [entry, 1]], 2, True)
    # a column joining a carried elimination is checked as it is eliminated
    echelon = Echelon()
    columns = [[1, 0], [0, 1]]
    assert nullspace_vector(columns, 2, True, echelon=echelon) is None
    with pytest.raises(TypeError):
        nullspace_vector(columns + [[entry, 3]], 3, True, echelon=echelon)


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


def reference_convex_combination(points: Sequence[Sequence[Scalar]], target: Sequence[Scalar],
                                 exact: bool, feas_tol: Scalar
                                 ) -> tuple[list[Scalar] | None, list[Scalar] | None, Scalar]:
    """Phase-I simplex for: target = sum lam_j * points_j, lam >= 0, sum lam = 1.

    Returns (lam, None, objective) when the residual objective reaches
    ``feas_tol``, else (None, certificate, objective) where the certificate y
    satisfies y·(v, 1) <= 0 for every point v and y·(target, 1) = objective.
    Bland's rule keeps the pivoting finite and deterministic.
    """
    dim = len(target)
    n = len(points)
    nrows = dim + 1
    if exact:
        b = [Fraction(t) for t in target] + [Fraction(1)]
        cols = [[Fraction(c) for c in pt] + [Fraction(1)] for pt in points]
        one, zero = Fraction(1), Fraction(0)
        eps = zero
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

    def reduced_cost(j: int) -> Scalar:
        rc = one if j >= n else zero
        for i in range(nrows):
            if basis[i] >= n:
                rc -= tab[i][j]
        return rc

    for _ in range(linalg._MAX_SIMPLEX_ITERATIONS):
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
        best_ratio = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > eps:
                ratio = tab[i][-1] / a
                if best_ratio is None or ratio < best_ratio or \
                        (ratio == best_ratio and basis[i] < basis[leave]):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one simplex became unbounded")
        piv = tab[leave][enter]
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

    objective = sum(tab[i][-1] for i in range(nrows) if basis[i] >= n)
    if objective <= feas_tol:
        lam = [zero] * n
        for i in range(nrows):
            if basis[i] < n:
                v = tab[i][-1]
                if not exact and v < 0:
                    v = 0.0
                lam[basis[i]] = v
        return lam, None, objective
    # Farkas certificate from the final multipliers.
    certificate = []
    for i in range(nrows):
        rc_art = reduced_cost(n + i)
        certificate.append(sign[i] * (one - rc_art))
    return None, certificate, objective


def assert_lp_matches_reference(points, target, exact, feas_tol):
    """The live simplex against the Fraction one: equal values of equal types
    on exact input, equal ``repr`` on floats."""
    got = convex_combination(points, target, exact, feas_tol)
    want = reference_convex_combination(points, target, exact, feas_tol)
    if exact:
        assert got == want
        assert type(got[2]) is type(want[2])
        for g, w in zip(got[:2], want[:2]):
            assert g is None or [type(v) for v in g] == [type(v) for v in w]
    else:
        assert same_bits(got, want)
    return got


def test_lp_objective_is_int_zero_with_no_artificial_left():
    # both rows get a lam column into the basis, so the objective sums nothing
    got = assert_lp_matches_reference([(F(0),), (F(1),)], (F(1, 2),), True, 0)
    assert got[0] == [F(1, 2), F(1, 2)] and got[2] == 0 and type(got[2]) is int
    # here the second pivot's column is zero in the first row, which must be
    # rescaled all the same
    assert assert_lp_matches_reference([(1,), (0,)], (F(1, 2),), True, 0)[0] == \
        [F(1, 2), F(1, 2)]
    got = assert_lp_matches_reference([(0.0,), (1.0,)], (0.5,), False, 1e-9)
    assert got[2] == 0 and type(got[2]) is int


def test_lp_keeps_an_artificial_at_zero_as_a_fraction():
    # a target equal to a repeated point: one lam column enters, and the
    # artificial left in the basis sits at zero
    got = assert_lp_matches_reference([(F(2), 3), (F(2), 3)], (2, F(3)), True, 0)
    assert got[2] == 0 and type(got[2]) is Fraction


def test_lp_certificate_on_an_outside_target():
    points = [(F(-1, 3), 2), (F(5, 7), F(-1, 2)), (0, 0)]
    lam, cert, objective = assert_lp_matches_reference(points, (4, 4), True, F(1, 10))
    assert lam is None and objective > F(1, 10)
    assert all(sum(y * c for y, c in zip(cert, list(p) + [1])) <= 0 for p in points)
    assert sum(y * c for y, c in zip(cert, [4, 4, 1])) == objective


def test_lp_denominators_near_two_to_the_64():
    rng = random.Random(65)
    for _ in range(60):
        dim = rng.randint(1, 4)
        points = [tuple(F(rng.randint(-BIG, BIG), BIG - rng.randint(0, 1000))
                        for _ in range(dim)) for _ in range(rng.randint(1, 8))]
        w = [rng.randint(0, 3) for _ in points]
        if rng.random() < 0.5 and sum(w):
            target = tuple(sum(F(wi, sum(w)) * p[j] for wi, p in zip(w, points))
                           for j in range(dim))
        else:
            target = tuple(F(rng.randint(-BIG, BIG), BIG + rng.randint(0, 1000))
                           for _ in range(dim))
        assert_lp_matches_reference(points, target, True, rng.choice((0, F(1, BIG))))


_lp_exact = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(lambda a, b: F(a, BIG - b), st.integers(-BIG, BIG), st.integers(0, 1000)),
)
_lp_float = st.one_of(st.integers(-4, 4).map(float),
                      st.floats(-4, 4, allow_nan=False, allow_infinity=False))


@st.composite
def lp_cases(draw, exact):
    """1-14 points in dims 1-4 on an affine flat of any dimension (so
    collinear and coplanar sets come up), with repeats, and a target inside
    their hull, on a face of it (a combination of the points maximizing a
    random direction), beyond that face, or anywhere."""
    entry = _lp_exact if exact else _lp_float
    dim = draw(st.integers(1, 4))
    flat = draw(st.integers(0, dim))
    base = [draw(entry) for _ in range(dim)]
    dirs = [[draw(entry) for _ in range(dim)] for _ in range(flat)]
    points = []
    for _ in range(draw(st.integers(1, 14))):
        if points and draw(st.integers(0, 4)) == 0:
            points.append(points[draw(st.integers(0, len(points) - 1))])
            continue
        cs = [draw(st.integers(-3, 3)) for _ in range(flat)]
        points.append(tuple(base[j] + sum(c * d[j] for c, d in zip(cs, dirs))
                            for j in range(dim)))
    kind = draw(st.sampled_from(("inside", "face", "beyond", "anywhere")))
    y = [draw(st.integers(-2, 2)) for _ in range(dim)]
    if kind == "inside":
        chosen = points
    else:
        top = max(sum(a * c for a, c in zip(y, p)) for p in points)
        chosen = [p for p in points if sum(a * c for a, c in zip(y, p)) == top]
    w = [draw(st.integers(1, 4)) for _ in chosen]
    share = [F(wi, sum(w)) if exact else wi / sum(w) for wi in w]
    target = [sum(s * p[j] for s, p in zip(share, chosen)) for j in range(dim)]
    if kind == "beyond":
        target = [t + draw(st.integers(1, 3)) * a for t, a in zip(target, y)]
    elif kind == "anywhere":
        target = [draw(entry) for _ in range(dim)]
    if exact:
        feas_tol = draw(st.sampled_from((0, F(0), F(1, 10 ** 9), F(1, 3))))
    else:
        feas_tol = draw(st.sampled_from((0.0, 1e-9)))
    return points, tuple(target), feas_tol


@settings(max_examples=400, deadline=None)
@given(lp_cases(exact=True))
def test_exact_lp_matches_the_fraction_simplex(case):
    points, target, feas_tol = case
    assert_lp_matches_reference(points, target, True, feas_tol)


@settings(max_examples=200, deadline=None)
@given(lp_cases(exact=False))
def test_float_lp_matches_the_reference_bit_for_bit(case):
    points, target, feas_tol = case
    assert_lp_matches_reference(points, target, False, feas_tol)


CROSSOVER, CHUNK = linalg._LOCKSTEP_CROSSOVER, linalg._LOCKSTEP_CHUNK


def assert_batch_matches_reference(problems, feas_tol):
    """``convex_combinations`` on floats against the reference, by ``repr``."""
    got = convex_combinations([(points, target, False) for points, target in problems],
                              feas_tol)
    assert len(got) == len(problems)
    for (points, target), result in zip(problems, got):
        assert same_bits(result, reference_convex_combination(points, target, False, feas_tol)), \
            (points, target)
    return got


def in_a_batch(points, target, feas_tol):
    """The LP's result from a group of its shape above the crossover, the
    rest of the group being the LP with its points rotated."""
    n = len(points)
    problems = [(points[k % n:] + points[:k % n], target) for k in range(CROSSOVER)]
    return assert_batch_matches_reference(problems, feas_tol)[0]


def _coordinate_as(rng: random.Random, v: float) -> Scalar:
    """v as a float, an int, an exact Fraction, or a nearby Fraction that
    does not round to a short float."""
    kind = rng.randrange(4)
    if kind == 1 and v.is_integer():
        return int(v)
    if kind == 2:
        return F(v)
    if kind == 3:
        return F(round(v * 3), 3)
    return v


@st.composite
def lp_batches(draw):
    """Float LPs of one to three shapes, interleaved.  Each shape's group
    varies one ``lp_cases`` draw (points rotated, the target kept, moved to a
    point, a midpoint or anywhere, coordinates made ints and Fractions), and
    holds one LP, just below the crossover, at it, between it and a chunk,
    or more than a chunk."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    problems = []
    for _ in range(draw(st.integers(1, 3))):
        points, target, _ = draw(lp_cases(exact=False))
        n = len(points)
        for _ in range(draw(st.sampled_from((1, CROSSOVER - 1, CROSSOVER, 70, CHUNK + 5)))):
            k = rng.randrange(n)
            pts = points[k:] + points[:k]
            kind = rng.randrange(4)
            if kind == 1:
                tgt = rng.choice(pts)
            elif kind == 2:
                a, b = rng.choice(pts), rng.choice(pts)
                tgt = tuple((x + y) / 2 for x, y in zip(a, b))
            elif kind == 3:
                tgt = tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0, 4) for _ in target)
            else:
                tgt = target
            if rng.random() < 0.3:
                pts = [tuple(_coordinate_as(rng, c) for c in p) for p in pts]
                tgt = tuple(_coordinate_as(rng, c) for c in tgt)
            problems.append((pts, tgt))
    rng.shuffle(problems)
    return problems, draw(st.sampled_from((0.0, 1e-9)))


@settings(max_examples=40, deadline=None)
@given(lp_batches())
def test_batched_float_lps_match_the_reference_bit_for_bit(case):
    problems, feas_tol = case
    assert_batch_matches_reference(problems, feas_tol)


def test_only_groups_from_the_crossover_on_run_in_lockstep():
    small = [([(float(i),), (1.0,)], (0.5,)) for i in range(CROSSOVER - 1)]
    large = [([(float(i), 0.0), (0.0, 1.0)], (0.25, 0.25)) for i in range(CHUNK + 1)]
    with mock.patch.object(linalg, "convex_combination", wraps=convex_combination) as scalar:
        assert_batch_matches_reference(small + large, 1e-9)
    # the small group, and the large group's remainder after one chunk
    assert scalar.call_count == len(small) + 1


@st.composite
def mixed_streams(draw):
    """Float groups of one LP, of the crossover and of a chunk and five, each
    of its own shape and varying one ``lp_cases`` draw by rotating its
    points, shuffled together with one to four exact ``lp_cases`` draws."""
    problems, shapes = [], set()
    for size in (1, CROSSOVER, CHUNK + 5):
        points, target, _ = draw(lp_cases(exact=False))
        assume((len(points), len(target)) not in shapes)
        shapes.add((len(points), len(target)))
        n = len(points)
        problems += [(points[k % n:] + points[:k % n], target, False) for k in range(size)]
    for _ in range(draw(st.integers(1, 4))):
        points, target, _ = draw(lp_cases(exact=True))
        problems.append((points, target, True))
    random.Random(draw(st.integers(0, 2 ** 32 - 1))).shuffle(problems)
    return problems, draw(st.sampled_from((0, 1e-9)))


@settings(max_examples=20, deadline=None)
@given(mixed_streams())
def test_a_mixed_stream_returns_each_lp_its_own_regime_result_in_input_order(case):
    problems, feas_tol = case
    got = convex_combinations(iter(problems), feas_tol)
    want = [convex_combination(p, t, e, feas_tol) for p, t, e in problems]
    assert repr(got) == repr(want)


def test_exact_problems_run_the_integer_simplex_one_at_a_time():
    problems = [([(F(1, 3), 2), (0, F(-1, 2))], (F(1, 6), F(3, 4)))] * CROSSOVER
    got = convex_combinations([(points, target, True) for points, target in problems], 0)
    assert got == [convex_combination(points, target, True, 0) for points, target in problems]
    assert all(type(v) is Fraction for v in got[0][0])


def test_batched_lp_breaks_a_ratio_tie_by_the_smaller_basis_index():
    # the first pivot ties both rows at ratio 1: row 0, whose artificial has
    # the smaller index, leaves, and the objective sums no artificial
    got = in_a_batch([(1.0,), (-0.5,), (0.0,)], (1.0,), 1e-9)
    assert got == ([1.0, 0.0, 0.0], None, 0) and type(got[2]) is int
    # the second pivot ties row 0 (an artificial, index 2) with row 1 (point
    # 0): point 0 leaves, and the artificial stays in the basis at 0.0
    got = in_a_batch([(-1.0,), (-2.0,)], (-2.0,), 1e-9)
    assert got == ([0.0, 1.0], None, 0.0) and type(got[2]) is float


def test_batched_lp_leaves_a_zero_factor_row_alone():
    # the target's -0.0 rows hold -0.0 where a pivot's factor is zero; an
    # update there would leave 0.0
    lam, _, _ = in_a_batch([(0.0, 1.0), (0.0, 0.0), (1.0, -1.0)], (-0.0, -0.0), 0.0)
    assert repr(lam) == "[-0.0, 1.0, -0.0]"


def test_batched_lp_flips_the_rows_of_negative_target_coordinates():
    lam, _, _ = in_a_batch([(-3.0, 1.0), (-1.0, -2.0), (0.0, 2.0)], (-1.0, 0.25), 1e-9)
    assert lam is not None and abs(sum(lam) - 1) < 1e-12


def test_batched_lp_objective_is_int_zero_with_no_artificial_left():
    got = in_a_batch([(0.0,), (1.0,)], (0.5,), 1e-9)
    assert got == ([0.5, 0.5], None, 0) and type(got[2]) is int


def test_batched_lp_certificate_on_an_outside_target():
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    lam, cert, objective = in_a_batch(points, (2.0, 2.0), 1e-9)
    assert lam is None and objective > 1e-9
    assert all(sum(y * c for y, c in zip(cert, list(p) + [1.0])) <= 1e-12 for p in points)


def test_batched_lp_with_duplicate_points():
    lam, _, _ = in_a_batch([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                           (0.25, 0.25), 1e-9)
    assert lam is not None


@pytest.mark.parametrize("target", [(1.0, 2.0), (1.0, 2.5)])
def test_batched_lp_with_one_point(target):
    lam, cert, _ = in_a_batch([(1.0, 2.0)], target, 1e-9)
    assert (lam is None) == (target != (1.0, 2.0))


def test_batched_lp_converts_int_and_fraction_coordinates():
    in_a_batch([(1, F(1, 3)), (F(-2, 7), 0.5), (0, 2)], (F(1, 10), 1), 1e-9)
    in_a_batch([(1, F(1, 3)), (F(-2, 7), 0.5), (0, 2)], (F(5, 1), -1), 1e-9)


def phase_one_pivots(points, target) -> int:
    """The pivots the scalar float simplex makes on the LP: the smallest
    iteration cap it finishes under, less one."""
    cap = 1
    while True:
        with mock.patch.object(linalg, "_MAX_SIMPLEX_ITERATIONS", cap):
            try:
                convex_combination(points, target, False, 1e-9)
            except RuntimeError:
                cap += 1
                continue
        return cap - 1


def one_shape_chunk():
    """52 LPs of 4 points in dim 2, integer coordinates: targets at a
    vertex, on an edge and inside a square, with its points rotated (all
    artificials leave); on collinear points, whose dependent rows keep an
    artificial basic at zero; outside both; and seeded points with targets
    on an edge, inside or anywhere, whose sevenths round."""
    square = [(0, 0), (6, 0), (0, 6), (6, 6)]
    line = [(0, 0), (2, 2), (4, 4), (6, 6)]
    problems = []
    for k in range(4):
        sq, ln = square[k:] + square[:k], line[k:] + line[:k]
        problems += [(sq, (6, 0)), (sq, (3, 0)), (sq, (2, 3)), (sq, (5, 1)),
                     (ln, (2, 2)), (ln, (3, 3)), (ln, (6, 6)),
                     (sq, (7, 7)), (sq, (-3, 2)), (ln, (2, 3))]
    rng = random.Random(68)
    for _ in range(4):
        points = [(6 * rng.randint(-9, 9), 6 * rng.randint(-9, 9)) for _ in range(4)]
        problems += [(points, tuple((a + b) // 2 for a, b in zip(*points[:2]))),
                     (points, tuple(sum(c) // 3 for c in zip(*points[1:]))),
                     (points, (rng.randint(-60, 60), rng.randint(-60, 60)))]
    return problems


def test_one_shape_chunk_mixes_the_four_kinds_of_lp():
    kinds, pivots = set(), set()
    for points, target in one_shape_chunk():
        lam, _, objective = reference_convex_combination(points, target, False, 1e-9)
        kinds.add("infeasible" if lam is None else type(objective).__name__)
        pivots.add(phase_one_pivots(points, target))
    # int: no artificial left; float: one kept at zero
    assert kinds == {"int", "float", "infeasible"}
    assert len(pivots) >= 3


@pytest.mark.parametrize("convert", [int, lambda v: v / 7, lambda v: F(v, 7)],
                         ids=["int", "float", "fraction"])
@pytest.mark.parametrize("feas_tol", [0, 1e-9, -1e-9])
def test_a_lockstep_chunk_reads_each_result_as_the_reference(convert, feas_tol):
    problems = [([tuple(map(convert, p)) for p in points], tuple(map(convert, target)))
                for points, target in one_shape_chunk()]
    with mock.patch.object(linalg, "_lockstep", wraps=linalg._lockstep) as lockstep:
        assert_batch_matches_reference(problems, feas_tol)
    assert [len(call.args[0]) for call in lockstep.call_args_list] == [len(problems)]


@pytest.mark.parametrize("huge", ["point", "target"])
def test_a_huge_int_coordinate_overflows_in_a_batch_as_one_at_a_time(huge):
    points, target = [(0, 0), (1, 0), (0, 1)], (0.25, 0.25)
    if huge == "point":
        points = points[:2] + [(10 ** 400, 1)]
    else:
        target = (1, 10 ** 400)
    with pytest.raises(OverflowError) as one:
        convex_combination(points, target, False, 1e-9)
    problems = [([(0, 0), (1, 0), (0, 1)], (0.25, 0.25), False)] * CROSSOVER
    with mock.patch.object(linalg, "_lockstep", wraps=linalg._lockstep) as lockstep, \
            pytest.raises(OverflowError) as batch:
        convex_combinations(problems + [(points, target, False)], 1e-9)
    assert lockstep.call_count == 1
    assert str(batch.value) == str(one.value)
