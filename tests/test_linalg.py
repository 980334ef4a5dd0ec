"""The kernel solves against the row-by-row Fraction elimination they
replaced, the reuse of an elimination between solves, and the pivot step
shared by support reduction and transport reduction.

``reference_nullspace_vector`` is the elimination ``linalg.nullspace_vector``
ran on both regimes before exact solves moved to integers and before the
sweep became left-looking, kept verbatim: it takes the matrix by rows, where
``nullspace_vector`` takes it by columns.  Exact results must match it entry
for entry, every entry a ``Fraction``; float results must match it bit for
bit, with or without an ``Echelon`` carried over from earlier solves.  The
reference gets its exact input as ``Fraction``s, because on two ``int``s its
``/`` leaves the exact regime.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condbang import linalg
from condbang.linalg import Echelon, nullspace_vector, pivot_step, reduce_support
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


def columns_of(rows, ncols):
    return [[r[c] for r in rows] for c in range(ncols)]


def rows_of(columns):
    return [list(r) for r in zip(*columns)]


def assert_exact_matches_reference(rows, ncols):
    want = reference_nullspace_vector([[Fraction(v) for v in r] for r in rows],
                                      ncols, True)
    got = nullspace_vector(columns_of(rows, ncols), ncols, True)
    assert got == want
    if got is not None:
        assert all(type(v) is Fraction for v in got)
    return got


def same_bits(got, want) -> bool:
    """Float results equal bit for bit: ``repr`` tells -0.0 from 0.0."""
    return repr(got) == repr(want)


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


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 8))
    rows = [[draw(_entries) for _ in range(ncols)] for _ in range(nrows)]
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
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_exact_kernel_matches_reference(case):
    rows, ncols = case
    assert_exact_matches_reference(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_float_kernel_matches_reference_bit_for_bit(case):
    rows, ncols = case
    rows = [[float(v) for v in r] for r in rows]
    assert same_bits(nullspace_vector(columns_of(rows, ncols), ncols, False),
                     reference_nullspace_vector(rows, ncols, False))


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
    return [data.draw(st.sampled_from((0.0, data.draw(st.floats(-2, 2)))))
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
        got = nullspace_vector(columns, ncols, exact, echelon=echelon)
        rows = [[F(v) if exact else v for v in r] for r in rows_of(columns)]
        want = reference_nullspace_vector(rows, ncols, exact)
        if exact:
            assert got == want
            assert got is None or all(type(v) is Fraction for v in got)
        else:
            assert same_bits(got, want)
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
    assert nullspace_vector(ints, 3, True, echelon=Echelon()) == [-1, -1, 1]


def test_exact_support_reduction_unchanged_on_dependent_columns():
    rng = random.Random(2024)
    for _ in range(60):
        dim = rng.randint(1, 4)
        n = rng.randint(dim + 2, dim + 6)
        columns = [[F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(dim)]
                   for _ in range(n)]
        if rng.random() < 0.3:
            columns[rng.randrange(n)] = list(columns[0])  # a repeated column
        x = [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
        got = reduce_support(columns, x, True)
        with mock.patch.object(linalg, "nullspace_vector",
                               lambda columns, ncols, exact: reference_nullspace_vector(
                                   [[F(v) for v in r] for r in rows_of(columns)], ncols,
                                   exact)):
            want = reduce_support(columns, x, True)
        assert got == want
        assert all(type(v) is Fraction for v in got)


def test_pivot_step_smallest_index_leaves_a_tie():
    # both ratios are 9.0 in binary64, but 9.0 * 0.1 rounds below the second
    # value: only the first entry leaves, the second keeps its round-off
    assert 1.8 / 0.2 == 0.9000000000000001 / 0.1
    moved = pivot_step([1.8, 0.9000000000000001, 5.0], [0.2, 0.1, 0.0], False)
    assert moved[0] == 0.0 and moved[2] == 5.0
    assert moved[1] == 0.9000000000000001 - 9.0 * 0.1 > 0
    # exact ties all reach zero; the result stays in Fractions
    moved = pivot_step([F(1), F(2), F(3)], [F(1), F(2), F(1)], True)
    assert moved == [0, 0, 2] and all(type(v) is Fraction for v in moved)


def test_pivot_step_negates_a_direction_with_no_positive_entry():
    assert pivot_step([3.0, 2.0, 1.0], [-1.0, -2.0, 0.0], False) == [2.0, 0.0, 1.0]
    assert pivot_step([F(3), F(2)], [F(-1), F(-2)], True) == [2, 0]


def test_pivot_step_clamps_float_round_off_only():
    # z's second entry is below PIVOT_TOL, so the ratio test skips it and the
    # step drives it below zero: floats clamp it, Fractions take it into the test
    assert 0 < 1e-13 < PIVOT_TOL
    assert pivot_step([1.0, 1e-14], [1.0, 1e-13], False) == [0.0, 0.0]
    assert pivot_step([F(1), F(1, 10 ** 14)], [F(1), F(1, 10 ** 13)], True) == \
        [F(9, 10), 0]


def test_pivot_step_leaves_entries_off_the_support_of_z_as_they_are():
    # floats: entry 0 leaves, entry 2 is driven below zero by round-off and
    # clamped, entries 1, 3 and 4 (z zero, one of them -0.0) come back as is
    x = [1.0, 0.3, 1e-14, 7.25, 0.1]
    z = [1.0, 0.0, 1e-13, -0.0, 0.0]
    moved = pivot_step(x, z, False)
    assert moved == [0.0, 0.3, 0.0, 7.25, 0.1]
    assert all(moved[i] is x[i] for i in (1, 3, 4))
    # the same with every z entry negated: the step flips z back
    assert pivot_step(x, [-v for v in z], False) == moved
    # Fractions: entry 2 has the least ratio and leaves, entry 0 moves,
    # entries 1 and 3 (z zero) stay the very objects passed in
    x = [F(3), F(2, 7), F(1), F(5, 3)]
    z = [F(1), F(0), F(2), 0]
    moved = pivot_step(x, z, True)
    assert moved == [F(5, 2), F(2, 7), 0, F(5, 3)]
    assert moved[1] is x[1] and moved[3] is x[3]
    assert all(type(v) is Fraction for v in moved)
