"""Transport reduction against the full-window elimination it replaced, and
against itself with every kernel solved from scratch.

``reference_reduce_transport`` is ``lyapunov._reduce_transport`` as it was
before the window cells' sum rows were folded into their columns, kept
verbatim apart from handing its kernel solves their matrix by columns: every
kernel solve there runs on the window cell sums plus all moment rows.  Exact
results must match it entry for entry, with the same number of kernel
solves.  Float results need not match ``reference_reduce_transport`` bit for
bit (the folded kernels round differently); they must satisfy every block
equation within a tolerance scaled to the data and leave at most (moment
rows) fractional cells.  Float results must match ``_reduce_transport`` run
with the row-by-row reference kernel of ``test_linalg``, which ignores the
elimination carried between solves, bit for bit and with the same number of
kernel solves.  On blocks where every piece has the same moment rows
(``make_block(shared=True)``), ``_reduce_transport`` drops the last piece's
rows, which the others and the cell sums imply, and pivots as soon as more
than (p-1)·d columns are held; ``reference_reduce_transport`` keeps every
row and waits for more than p·d, and exact results must still match it.

``reference_window_walk`` is ``lyapunov._reduce_transport`` as it was
before its pivot moved onto the window: every pivot copies the window into
flat value and direction lists for ``pivot_step`` (kept in ``test_linalg``),
and the fractional cells come from a generator.  The live walk must match
it on both regimes, floats by ``repr`` and exact values entry for entry,
with the same number of kernel solves; there the live walk's kernel runs
behind ``window_checked``, which asserts at every solve that the columns
passed are the window's, flattened.  The kernel solves, and the columns
each eliminates, are counted and pinned on blocks of the benchmark's shape.
"""

from __future__ import annotations

import itertools
import math
import pathlib
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condbang import linalg, lyapunov
from condbang.cli import run
from condbang.condexp import simple_function
from condbang.documents import parse_problem
from condbang.linalg import Echelon, integer_scaled, nullspace_vector
from condbang.numeric import PIVOT_TOL, Scalar, fold
from condbang.spaces import Mode, build_grid, make_partition

from gen import coprime_denominators
from test_linalg import pivot_step, reference_nullspace_vector, rows_of, same_bits

F = Fraction


def block_form(rows: list[list[Scalar]], mom_cols: list[list[list[Scalar]]], exact: bool):
    """The block form that ``lyapunov._reduce_transport`` reads, (seed,
    scale, coords), of seed rows and per-piece moment columns: on exact data
    the rows over their lcm and each column over its own, as
    ``partition_with_moments`` builds it; floats over 1."""
    if exact:
        scale, seed = integer_scaled(rows)
        return seed, scale, [[(unit, ints) for unit, (ints,) in
                              (integer_scaled([col]) for col in cols)] for cols in mom_cols]
    return rows, 1, [[(1, col) for col in cols] for cols in mom_cols]


def reduce_block(rows: list[list[Scalar]], mom_cols: list[list[list[Scalar]]], p: int,
                 exact: bool) -> list[list[Scalar]]:
    """``lyapunov._reduce_transport`` on the block form of ``rows`` and
    ``mom_cols``."""
    return lyapunov._reduce_transport(*block_form(rows, mom_cols, exact), p, exact)


def reference_reduce_transport(rows: list[list[Scalar]], avail: list[Scalar],
                               mom_cols: list[list[list[Scalar]]], p: int,
                               exact: bool) -> list[list[Scalar]]:
    """Pivot the proportional seed to a basic solution of the block system.

    Works through the cells with a sliding window of fractional cells: a
    kernel direction of the window's columns (window cell sums plus all
    moment rows) exists as soon as the window holds enough fractional cells,
    and each ``pivot_step`` zeroes at least one variable, so a cell keeps
    leaving the window integral.  Window size is bounded by the moment row
    count, which keeps every kernel solve small regardless of block size.
    The final solution has at most (moment rows) fractional cells and still
    satisfies every equation exactly.
    """
    q = len(avail)
    rows = [list(r) for r in rows]
    mom_rows = sum(len(cols) for cols in mom_cols)
    if exact:
        # a positive factor per moment row leaves every window's kernel as it
        # is and lets the windows be built from ints
        mom_cols = [[integer_scaled([col])[1][0] for col in cols] for cols in mom_cols]
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
            columns = [[nil] * (len(window) + mom_rows) for _ in variables]
            for col, (kk, i) in enumerate(variables):
                columns[col][cell_row_of[kk]] = one
                base = len(window)
                for ii in range(p):
                    for j in range(len(mom_cols[ii])):
                        if ii == i:
                            columns[col][base + j] = mom_cols[ii][j][kk]
                    base += len(mom_cols[ii])
            z = nullspace_vector(columns, len(variables), exact)
        if z is None:
            nxt = next(stream, None)
            if nxt is None:
                if exhausted:
                    return rows
                exhausted = True
                continue
            window.append(nxt)
            continue
        moved = pivot_step([rows[kk][i] for kk, i in variables], z, exact)
        for (kk, i), v in zip(variables, moved):
            rows[kk][i] = v
        window = [kk for kk in window if fractional(kk)]


def reference_window_walk(rows: list[list[Scalar]], avail: list[Scalar],
                          mom_cols: list[list[list[Scalar]]], p: int,
                          exact: bool) -> list[list[Scalar]]:
    """The folded window walk with a flat ``pivot_step`` per pivot (see the
    module docstring and ``lyapunov._reduce_transport``)."""
    q = len(avail)
    rows = [list(r) for r in rows]
    if exact:
        # a positive factor per moment row leaves every window's kernel as it
        # is and lets the windows be built from ints; folding only negates
        # entries within a row, so the scaling still holds
        mom_cols = [[integer_scaled([col])[1][0] for col in cols] for cols in mom_cols]
        nil = 0
    else:
        nil = 0.0
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
            column[rows_of[i]] = [mom_row[kk] for mom_row in mom_cols[i]]
            columns.append(column)
        return columns

    def fractional_cells():
        for kk in range(q):
            pieces = [i for i in range(p) if rows[kk][i] > 0]
            if len(pieces) >= 2:
                yield kk, pieces, reduced_columns(kk, pieces)

    # window cells in joining order: (cell, its positive pieces, its columns)
    window: list[tuple[int, list[int], list[list[Scalar]]]] = []
    echelon = Echelon()
    stream = fractional_cells()
    while True:
        joining = next(stream, None)
        if joining is not None:
            window.append(joining)
        # past the last fractional cell, pivot until no kernel is left
        while sum(len(cols) for _, _, cols in window) > (mom_rows if joining else 0):
            columns = [column for _, _, cols in window for column in cols]
            z = nullspace_vector(columns, len(columns), exact, echelon=echelon)
            if z is None:
                break
            x: list[Scalar] = []
            direction: list[Scalar] = []
            col = 0
            for kk, pieces, cols in window:
                tail = z[col:col + len(cols)]
                col += len(cols)
                direction.append(-sum(tail))
                direction.extend(tail)
                x.extend(rows[kk][i] for i in pieces)
            moved = pivot_step(x, direction, exact)
            kept = []
            at = 0
            for cell in window:
                kk, pieces, _ = cell
                start, at = at, at + len(pieces)
                if any(direction[start:at]):
                    row = rows[kk]
                    for i, v in zip(pieces, moved[start:at]):
                        row[i] = v
                    left = [i for i in pieces if row[i] > 0]
                    if len(left) < 2:
                        continue
                    if len(left) < len(pieces):
                        cell = (kk, left, reduced_columns(kk, left))
                kept.append(cell)
            window = kept
        if joining is None:
            return rows


def make_block(rng: random.Random, p: int, dims: list[int], q: int, exact: bool, *,
               zero_share: float = 0.3, duplicate_share: float = 0.0, shared: bool = False):
    """Seed rows (some entries zero), cell masses and per-piece moment rows.

    With ``duplicate_share`` a cell copies the seed row and moment entries of
    an earlier cell, which makes dependent columns turn up early.  With
    ``shared`` every piece gets the same moment rows (equal lists, not the
    same ones), as every partition but the diagonal bang-bang gives them;
    ``dims`` must then be equal.
    """
    if exact:
        avail = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(q)]
    else:
        avail = [rng.uniform(0.1, 1.0) for _ in range(q)]
    raw = []
    for _ in range(q):
        r = [0 if rng.random() < zero_share else rng.randint(1, 6) for _ in range(p)]
        if not any(r):
            r[rng.randrange(p)] = 1
        raw.append(r)

    def entry():
        if exact:
            return rng.choice((0, rng.randint(-6, 6), F(rng.randint(-9, 9), rng.randint(1, 4))))
        return rng.uniform(-2.0, 2.0)

    if shared:
        assert len(set(dims)) == 1
        cell_moments = [[row] * p for row in ([entry() for _ in range(dims[0])]
                                               for _ in range(q))]
    else:
        cell_moments = [[[entry() for _ in range(dims[i])] for i in range(p)] for _ in range(q)]
    for k in range(1, q):
        if rng.random() < duplicate_share:
            src = rng.randrange(k)
            raw[k] = list(raw[src])
            cell_moments[k] = cell_moments[src]
            avail[k] = avail[src]
    rows = []
    for k in range(q):
        s = sum(raw[k])
        rows.append([F(r, s) * avail[k] if exact else r / s * avail[k] for r in raw[k]])
    mom_cols = [[[cell_moments[k][i][j] for k in range(q)] for j in range(dims[i])]
                for i in range(p)]
    return rows, avail, mom_cols


def count_fractional(rows) -> int:
    return sum(1 for row in rows if sum(1 for v in row if v > 0) >= 2)


def run_both(rows, avail, mom_cols, p, exact):
    """(new result, its kernel solves, reference result, its kernel solves)."""
    with mock.patch.object(lyapunov, "nullspace_vector",
                           wraps=lyapunov.nullspace_vector) as new_calls:
        got = reduce_block(rows, mom_cols, p, exact)
    with mock.patch.object(sys.modules[__name__], "nullspace_vector",
                           wraps=nullspace_vector) as ref_calls:
        want = reference_reduce_transport(rows, avail, mom_cols, p, exact)
    return got, new_calls.call_count, want, ref_calls.call_count


@st.composite
def exact_blocks(draw, shared=False):
    p = draw(st.integers(2, 4))
    if shared:
        dims = [draw(st.integers(1, 3))] * p
    else:
        dims = [draw(st.integers(1, 3)) for _ in range(p)]
    q = draw(st.integers(1, 40))
    zero_share = draw(st.sampled_from((0.0, 0.3, 0.6)))
    duplicate_share = draw(st.sampled_from((0.0, 0.0, 0.3, 0.8)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows, avail, mom_cols = make_block(rng, p, dims, q, True, zero_share=zero_share,
                                       duplicate_share=duplicate_share, shared=shared)
    return rows, avail, mom_cols, p


@settings(max_examples=150, deadline=None)
@given(exact_blocks())
def test_exact_reduction_matches_the_full_window_entry_for_entry(case):
    rows, avail, mom_cols, p = case
    got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, p, True)
    assert got == want
    assert all(type(v) is Fraction for row in got for v in row)
    assert got_calls == want_calls
    assert count_fractional(got) <= sum(len(cols) for cols in mom_cols)


@settings(max_examples=150, deadline=None)
@given(exact_blocks(shared=True))
def test_exact_reduction_on_implied_rows_matches_the_full_window_entry_for_entry(case):
    # the reference keeps every piece's rows and the sum rows, and pivots
    # only past p·d reduced columns: the same pivots, kernels and solves
    rows, avail, mom_cols, p = case
    got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, p, True)
    assert got == want
    assert all(type(v) is Fraction for row in got for v in row)
    assert got_calls == want_calls
    assert count_fractional(got) <= (p - 1) * len(mom_cols[0])


def kernel_heights(solver, *args, **kwargs) -> list[int]:
    """The row count of every kernel solve that ``solver(*args, **kwargs)``
    makes."""
    heights = []

    def solve(columns, ncols, exact, echelon=None):
        heights.extend({len(column) for column in columns})
        return nullspace_vector(columns, ncols, exact, echelon=echelon)

    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=solve):
        solver(*args, **kwargs)
    return heights


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_kernels_drop_the_last_piece_rows_only_when_every_piece_shares_them(exact):
    for seed in range(20):
        rng = random.Random(f"implied-{exact}-{seed}")
        p, d = rng.randint(2, 4), rng.randint(1, 3)
        rows, avail, mom_cols = make_block(rng, p, [d] * p, rng.randint(8, 30), exact,
                                           zero_share=0.0, shared=True)
        heights = kernel_heights(reduce_block, rows, mom_cols, p, exact)
        assert heights and set(heights) == {(p - 1) * d}
        # one entry of one piece differs: every piece's rows are kept
        i, j, k = rng.randrange(p), rng.randrange(d), rng.randrange(len(avail))
        mom_cols[i] = [list(col) for col in mom_cols[i]]
        mom_cols[i][j][k] += 1
        heights = kernel_heights(reduce_block, rows, mom_cols, p, exact)
        assert heights and set(heights) == {p * d}


def test_partition_keeps_every_row_only_for_per_piece_moments():
    # lyapunov_partition gives every piece h, the diagonal bang-bang gives
    # each piece its own moments
    rng = random.Random(20)
    q, p = 30, 3
    grid = build_grid([rng.randint(1, 9) / 8 for _ in range(q)], Mode.ATOMIC)
    C = make_partition([0] * q)
    h = simple_function([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)])
    alpha = simple_function([(0.25, 0.25, 0.5)] * q)
    others = [simple_function([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)])
              for _ in range(p - 1)]
    for moments, height in (([h] * p, (p - 1) * 2), ([h, *others], p * 2)):
        heights = kernel_heights(lyapunov.partition_with_moments, moments, alpha, C, grid,
                                 polish_budget=1)
        assert heights and set(heights) == {height}


def test_implied_rows_are_decided_on_values_not_on_scaled_ints():
    # piece 0's row [1/2, 1] and piece 1's [1, 2] scale to the same ints, [1, 2],
    # over the units 2 and 1: their values differ, so every row is kept
    grid = build_grid([F(1), F(1)], Mode.ATOMIC)
    C = make_partition([0, 0])
    alpha = simple_function([(F(1, 2), F(1, 2))] * 2)
    h0 = simple_function([F(1, 2), F(1)])
    h1 = simple_function([F(1), F(2)])
    p, d = 2, 1
    for moments, height in (([h0, h1], p * d), ([h0] * p, (p - 1) * d)):
        heights = kernel_heights(lyapunov.partition_with_moments, moments, alpha, C, grid,
                                 polish_budget=1)
        assert heights and set(heights) == {height}


def test_exact_window_exhausted_before_any_kernel():
    # two fractional cells give 4 variables against 2 sum rows and 4 moment
    # rows: no kernel until the stream runs dry, then full column rank
    rows = [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)], [F(1), F(0)]]
    avail = [F(1), F(1), F(1)]
    mom_cols = [[[1, 2, 5], [0, 1, 7]], [[3, -1, 2], [1, 1, 1]]]
    got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, 2, True)
    assert got == want == rows
    assert got_calls == want_calls == 1


def test_exact_duplicated_cells_reduce_to_one_fractional_cell():
    # identical cells give identical reduced columns of rank one, so all but
    # one cell end up whole
    rows = [[F(1, 4), F(3, 4)]] * 6
    avail = [F(1)] * 6
    mom_cols = [[[F(2, 3)] * 6], [[F(-5, 2)] * 6]]
    got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, 2, True)
    assert got == want
    assert got_calls == want_calls
    assert count_fractional(got) == 1


def hard_block(rng: random.Random, p: int, dims: list[int], q: int, *, shared: bool = False):
    """Exact seed rows over pairwise coprime per-cell denominators near 2**64,
    some cells empty (zero ``avail``, as a ``within`` set leaves a cell) and
    some copies of an earlier cell, moments included; the moment rows are
    ``make_block``'s."""
    _, _, mom_cols = make_block(rng, p, dims, q, True, shared=shared)
    dens = coprime_denominators(rng, q)
    rows = []
    for k in range(q):
        u = rng.random()
        if k and u < 0.25:
            src = rng.randrange(k)
            rows.append(list(rows[src]))
            for cols in mom_cols:
                for col in cols:
                    col[k] = col[src]
        elif u < 0.4:
            rows.append([F(0)] * p)
        else:
            rows.append([F(0 if rng.random() < 0.3 else rng.randrange(1, 2 ** 62), dens[k])
                         for _ in range(p)])
    return rows, [sum(row) for row in rows], mom_cols


def assert_matches_both_references(rows, avail, mom_cols, p) -> int:
    """``_reduce_transport`` against ``reference_reduce_transport`` and
    ``reference_window_walk`` on exact data: equal entry for entry, with the
    same number of kernel solves, which it returns."""
    got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, p, True)
    with mock.patch.object(sys.modules[__name__], "nullspace_vector",
                           wraps=nullspace_vector) as walk_calls:
        walked = reference_window_walk(rows, avail, mom_cols, p, True)
    assert got == want == walked
    assert got_calls == want_calls == walk_calls.call_count
    assert all(type(v) is Fraction for row in got for v in row)
    return got_calls


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 30), st.booleans(),
       st.integers(0, 2 ** 32))
def test_exact_reduction_on_hard_denominators_matches_both_references(p, d, q, shared, seed):
    rng = random.Random(seed)
    dims = [d] * p if shared else [rng.randint(1, 3) for _ in range(p)]
    rows, avail, mom_cols = hard_block(rng, p, dims, q, shared=shared)
    assert_matches_both_references(rows, avail, mom_cols, p)


def test_exact_reduction_on_hard_denominators_fixed_block():
    rng = random.Random("hard-fixed")
    p, d, q = 3, 2, 28
    rows, avail, mom_cols = hard_block(rng, p, [d] * p, q, shared=True)
    # the block holds every hard feature: empty cells, copied cells, and
    # fractional cells over distinct coprime denominators near 2**64
    assert any(a == 0 for a in avail)
    assert any(rows[k] == rows[j] and avail[k] for j in range(q) for k in range(j))
    dens = {v.denominator for row in rows for v in row if v}
    assert len(dens) > 4 and all(2 ** 63 < den < 2 ** 64 for den in dens)
    assert assert_matches_both_references(rows, avail, mom_cols, p) > 0


def assert_float_block_equations(rows, avail, mom_cols, p, got):
    """Every cell keeps its total and every piece's moment rows keep their
    seeded values, within a tolerance scaled to the data."""
    q = len(avail)
    h_max = max(abs(v) for cols in mom_cols for col in cols for v in col)
    scale = sum(avail) * max(h_max, 1.0)
    tol = 1e-12 * scale * (q + p)
    for k in range(q):
        assert all(v >= 0 for v in got[k])
        assert abs(math.fsum(got[k]) - avail[k]) <= tol
    for i in range(p):
        for col in mom_cols[i]:
            achieved = math.fsum(got[k][i] * col[k] for k in range(q))
            seeded = math.fsum(rows[k][i] * col[k] for k in range(q))
            assert abs(achieved - seeded) <= tol


def test_float_reduction_satisfies_the_block_equations():
    for seed in range(40):
        rng = random.Random(seed)
        p = rng.randint(2, 4)
        dims = [rng.randint(1, 3) for _ in range(p)]
        q = rng.randint(1, 40)
        rows, avail, mom_cols = make_block(rng, p, dims, q, False,
                                           duplicate_share=rng.choice((0.0, 0.3)))
        got, got_calls, want, want_calls = run_both(rows, avail, mom_cols, p, False)
        mom_rows = sum(dims)
        assert count_fractional(got) <= mom_rows
        assert count_fractional(want) <= mom_rows
        assert_float_block_equations(rows, avail, mom_cols, p, got)


def test_float_reduction_on_implied_rows_satisfies_every_piece_equations():
    # the last piece's rows are left out of every kernel solve, and its
    # equations still hold, as the cell totals and the others imply them
    for seed in range(40):
        rng = random.Random(f"implied-{seed}")
        p, d = rng.randint(2, 4), rng.randint(1, 3)
        q = rng.randint(1, 40)
        rows, avail, mom_cols = make_block(rng, p, [d] * p, q, False,
                                           duplicate_share=rng.choice((0.0, 0.3)),
                                           shared=True)
        got = reduce_block(rows, mom_cols, p, False)
        assert count_fractional(got) <= (p - 1) * d
        assert_float_block_equations(rows, avail, mom_cols, p, got)


def test_float_reduction_is_bit_identical_with_kernels_solved_from_scratch():
    # the carried elimination changes no bit: every kernel solve again through
    # the row-by-row reference, which ignores the echelon
    def from_scratch(columns, ncols, exact, echelon=None):
        return reference_nullspace_vector(rows_of(columns), ncols, exact)

    for seed, shared in itertools.product(range(60), (False, True)):
        rng = random.Random(f"scratch-shared-{seed}" if shared else f"scratch-{seed}")
        p = rng.randint(2, 5)
        dims = [rng.randint(1, 3)] * p if shared else [rng.randint(1, 3) for _ in range(p)]
        q = rng.randint(1, 60)
        rows, avail, mom_cols = make_block(rng, p, dims, q, False,
                                           zero_share=rng.choice((0.0, 0.3, 0.6)),
                                           duplicate_share=rng.choice((0.0, 0.3, 0.8)),
                                           shared=shared)
        with mock.patch.object(lyapunov, "nullspace_vector",
                               wraps=lyapunov.nullspace_vector) as carried:
            got = reduce_block(rows, mom_cols, p, False)
        with mock.patch.object(lyapunov, "nullspace_vector",
                               side_effect=from_scratch) as scratch:
            want = reduce_block(rows, mom_cols, p, False)
        assert same_bits(got, want)
        assert carried.call_count == scratch.call_count


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_reduction_matches_the_flat_window_walk_it_replaced(exact):
    for seed in range(120):
        rng = random.Random(f"walk-{exact}-{seed}")
        p = rng.randint(2, 5)
        dims = [rng.randint(1, 3) for _ in range(p)]
        q = rng.randint(1, 24 if exact else 60)
        rows, avail, mom_cols = make_block(rng, p, dims, q, exact,
                                           zero_share=rng.choice((0.0, 0.3, 0.6)),
                                           duplicate_share=rng.choice((0.0, 0.3, 0.8)))
        with mock.patch.object(lyapunov, "nullspace_vector",
                               side_effect=window_checked(nullspace_vector)) as new_calls:
            got = reduce_block(rows, mom_cols, p, exact)
        with mock.patch.object(sys.modules[__name__], "nullspace_vector",
                               wraps=nullspace_vector) as ref_calls:
            want = reference_window_walk(rows, avail, mom_cols, p, exact)
        if exact:
            assert got == want
            assert [type(v) for row in got for v in row] == \
                [type(v) for row in want for v in row]
        else:
            assert repr(got) == repr(want)
        assert new_calls.call_count == ref_calls.call_count


@settings(max_examples=100, deadline=None)
@given(exact_blocks(), st.randoms(use_true_random=False))
def test_exact_reduction_moves_alike_along_any_positive_multiple_of_each_kernel(case, rng):
    # c·z for an int c > 0 changes no sign and divides every ratio by c, so
    # the same entries leave and every moved value is the same Fraction
    rows, avail, mom_cols, p = case

    def scaled(columns, ncols, exact, echelon=None):
        z = nullspace_vector(columns, ncols, exact, echelon=echelon)
        if z is None:
            return None
        c = rng.randint(1, 10 ** 9)
        return [c * v for v in z]

    want = reduce_block(rows, mom_cols, p, True)
    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=scaled):
        got = reduce_block(rows, mom_cols, p, True)
    assert got == want
    assert all(type(v) is Fraction for row in got for v in row)


def window_checked(solver):
    """``solver`` behind a check, at every solve, that the columns
    ``_reduce_transport`` passes are its window's columns flattened in
    window order, object for object."""
    walk = lyapunov._reduce_transport.__code__

    def solve(columns, ncols, exact, echelon=None):
        frame = sys._getframe(1)
        while frame.f_code is not walk:
            frame = frame.f_back
        flat = [column for _, _, cols in frame.f_locals["window"] for column in cols]
        assert ncols == len(columns) == len(flat)
        assert all(a is b for a, b in zip(columns, flat))
        return solver(columns, ncols, exact, echelon=echelon)
    return solve


def both_walks(rows, mom_cols, p, exact, kernels):
    """``_reduce_transport`` and ``reference_window_walk`` with every kernel
    solve replaced by ``kernels()``, a fresh solver for each walk; the live
    walk's columns are checked against its window at every solve."""
    avail = [sum(row) for row in rows]
    with mock.patch.object(lyapunov, "nullspace_vector",
                           side_effect=window_checked(kernels())):
        got = reduce_block(rows, mom_cols, p, exact)
    with mock.patch.object(sys.modules[__name__], "nullspace_vector", side_effect=kernels()):
        want = reference_window_walk(rows, avail, mom_cols, p, exact)
    return got, want


def scripted(*kernels):
    """A kernel solver returning the given kernels in turn, then None."""
    def solver():
        it = iter(kernels)
        return lambda columns, ncols, exact, echelon=None: next(it, None)
    return solver


def test_walk_lets_the_first_of_tied_minimizers_leave():
    # both cells' piece 1 have the ratio 9.0 in binary64, but 9.0 * 0.1
    # rounds below the second value: only the first cell's entry leaves, the
    # second keeps its round-off and stays fractional
    assert 1.8 / 0.2 == 0.9000000000000001 / 0.1
    rows = [[1.0, 1.8], [1.0, 0.9000000000000001]]
    mom_cols = [[[1.0, 2.0]], [[3.0, 4.0]]]
    got, want = both_walks(rows, mom_cols, 2, False, scripted([0.2, 0.1]))
    assert repr(got) == repr(want)
    assert got == [[1.0 + 9.0 * 0.2, 0.0], [1.0 + 9.0 * 0.1, 0.9000000000000001 - 9.0 * 0.1]]
    assert got[1][1] > 0
    # exact ties all reach zero, as Fractions
    rows = [[F(1), F(1)], [F(1), F(2)], [F(1), F(3)]]
    mom_cols = [[[1, 2, 3]], [[4, 5, 6], [7, 8, 9]]]
    got, want = both_walks(rows, mom_cols, 2, True, scripted([1, 2, 1]))
    assert got == want == [[2, 0], [3, 0], [2, 2]]
    assert all(type(v) is Fraction for row in got for v in row)


def test_walk_clamps_float_round_off_and_leaves_unmoved_cells_as_they_are():
    # cell 1's direction is below PIVOT_TOL, so the ratio test skips it and
    # the step drives it below zero: floats clamp it to 0.0, exact data take
    # it into the test.  Cell 2's direction is zero (-0.0 on floats), and it
    # does not move
    assert 0 < 1e-13 < PIVOT_TOL
    rows = [[1.0, 1.0], [1.0, 1e-14], [0.5, 0.25]]
    mom_cols = [[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]]
    got, want = both_walks(rows, mom_cols, 2, False, scripted([1.0, 1e-13, -0.0]))
    assert repr(got) == repr(want)
    assert got == [[2.0, 0.0], [1.0 + 1e-13, 0.0], [0.5, 0.25]]
    rows = [[F(1), F(1)], [F(1), F(1, 10 ** 14)], [F(1, 2), F(1, 4)]]
    mom_cols = [[[1, 2, 3]], [[4, 5, 6]]]
    got, want = both_walks(rows, mom_cols, 2, True, scripted([10 ** 13, 1, 0]))
    assert got == want
    assert got[:2] == [[F(11, 10), F(9, 10)], [F(1) + F(1, 10 ** 14), 0]]
    assert all(type(v) is Fraction for row in got for v in row)
    # only entries with a nonzero direction move: cell 0's piece 2 and all of
    # cell 1 keep their values, on floats the very objects passed in (exact
    # entries all come back as new Fractions)
    mom_cols = [[[1, 2]], [[3, 4]], [[5, 6]]]
    for exact, rows in ((False, [[1.0, 1.0, 0.5], [0.5, 0.25, 0.125]]),
                        (True, [[F(1), F(1), F(1, 2)], [F(1, 2), F(1, 4), F(1, 8)]])):
        one = 1 if exact else 1.0
        with mock.patch.object(lyapunov, "nullspace_vector",
                               side_effect=scripted([one, 0 * one, 0 * one, 0 * one])()):
            got = reduce_block(rows, mom_cols, 3, exact)
        assert got[0] == [2, 0, F(1, 2)]
        assert got[1] == rows[1]
        if not exact:
            assert got[0][2] is rows[0][2]
            assert all(g is r for g, r in zip(got[1], rows[1]))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_every_kernel_of_the_walk_has_an_entry_above_the_threshold(exact):
    # the free entry, its last nonzero one: 1.0 on floats and |det| >= 1 on
    # ints, so the walk needs no negation of a direction without such an entry
    kernels = []

    def solve(*args, **kwargs):
        kernels.append(linalg.nullspace_vector(*args, **kwargs))
        return kernels[-1]

    for seed in range(30):
        rng = random.Random(f"free-{exact}-{seed}")
        p = rng.randint(2, 4)
        rows, avail, mom_cols = make_block(rng, p, [rng.randint(1, 3) for _ in range(p)],
                                           rng.randint(1, 24), exact,
                                           duplicate_share=rng.choice((0.0, 0.3)))
        with mock.patch.object(lyapunov, "nullspace_vector", side_effect=solve):
            reduce_block(rows, mom_cols, p, exact)
    found = [z for z in kernels if z is not None]
    assert found
    for z in found:
        free = z[max(c for c, v in enumerate(z) if v)]
        assert (type(free) is int and free >= 1) if exact else free == 1.0


def test_float_reduction_at_the_benchmark_window_size_matches_kernels_from_scratch():
    # an atomic-bangbang block: 3 pieces share one 6-coordinate moment
    # function, so 12 rows are kept and the windows reach 13-14 columns
    def from_scratch(columns, ncols, exact, echelon=None):
        return reference_nullspace_vector(rows_of(columns), ncols, exact)

    for seed in range(2):
        rng = random.Random(f"bench-window-{seed}")
        p, d, q = 3, 6, 250
        rows, avail, mom_cols = make_block(rng, p, [d] * p, q, False, zero_share=0.2,
                                           shared=True)
        shapes = []

        def carried(columns, ncols, exact, echelon=None):
            shapes.append((len(columns[0]), ncols))
            return nullspace_vector(columns, ncols, exact, echelon=echelon)

        with mock.patch.object(lyapunov, "nullspace_vector", side_effect=carried):
            got = reduce_block(rows, mom_cols, p, False)
        with mock.patch.object(lyapunov, "nullspace_vector",
                               side_effect=from_scratch) as scratch:
            want = reduce_block(rows, mom_cols, p, False)
        assert repr(got) == repr(want)
        assert len(shapes) == scratch.call_count
        assert {height for height, _ in shapes} == {(p - 1) * d}
        assert max(ncols for _, ncols in shapes) in (13, 14)
        assert count_fractional(got) <= (p - 1) * d
        assert_float_block_equations(rows, avail, mom_cols, p, got)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_cell_keeps_its_column_objects_unless_it_loses_its_first_piece(exact):
    # one cell on five pieces, each piece its own moment row, so no kernel is
    # sought before the end of the block.  The scripted kernels, over the
    # columns of pieces 1.., make piece 2 leave, then piece 4, then piece 0
    one = 1 if exact else 1.0
    rows = [[F(1) if exact else 1.0] * 5]
    mom_cols = [[[one * (i + 1)]] for i in range(5)]
    kernels = iter([[0 * one, one, 0 * one, 0 * one],   # piece 2, a middle one
                    [0 * one, 0 * one, one],             # piece 4, the last one
                    [-one, 0 * one]])                    # piece 0, the first one
    seen = []

    def solve(columns, ncols, exact, echelon=None):
        seen.append(list(columns))
        return next(kernels, None)

    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=window_checked(solve)):
        got = reduce_block(rows, mom_cols, 5, exact)
    assert [len(columns) for columns in seen] == [4, 3, 2, 1]
    c1, c2, c3, c4 = seen[0]
    # losing a middle or the last piece keeps the other columns, as objects
    assert all(a is b for a, b in zip(seen[1], (c1, c3, c4)))
    assert all(a is b for a, b in zip(seen[2], (c1, c3)))
    # losing the first piece rebuilds the columns over the new first piece, 1
    (rebuilt,) = seen[3]
    assert rebuilt is not c3
    assert rebuilt == [0 * one, -2 * one, 0 * one, 4 * one, 0 * one]
    # the values are those of the walk that rebuilds every column of a cell
    # that loses a piece
    _, want = both_walks(rows, mom_cols, 5, exact,
                         scripted([0 * one, one, 0 * one, 0 * one], [0 * one, 0 * one, one],
                                  [-one, 0 * one]))
    assert repr(got) == repr(want)
    assert [v > 0 for v in got[0]] == [False, True, False, True, False]


def test_a_moved_entry_that_lands_on_zero_leaves_its_cell_like_the_leaving_one():
    # three pieces, each its own 3 moment rows, so no kernel is sought before
    # the end of the block.  The first kernel makes cell 0's piece 1 leave at
    # theta 1.0; cell 1's piece 1 ties it and lands on 0.0 exactly; cell 2's
    # and cell 3's piece 1 move along 1e-13, below PIVOT_TOL, outside the
    # ratio test: cell 2's lands on 0.0 exactly, cell 3's goes below zero and
    # is clamped.  Every cell keeps pieces 0 and 2, and its piece-2 column
    rows = [[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1e-13, 1.0], [1.0, 1e-14, 1.0]]
    mom_cols = [[[float(3 * i + j + 1)] * 4 for j in range(3)] for i in range(3)]
    assert 1e-13 - 1.0 * 1e-13 == 0.0 and 1e-14 - 1.0 * 1e-13 < 0
    first = [1.0, 0.0, 2.0, 0.0, 1e-13, 0.0, 1e-13, 0.0]
    got, want = both_walks(rows, mom_cols, 3, False, scripted(first))
    assert repr(got) == repr(want)
    assert got == [[2.0, 0.0, 1.0], [3.0, 0.0, 1.0], [1.0 + 1e-13, 0.0, 1.0],
                   [1.0 + 1e-13, 0.0, 1.0]]
    seen = []

    def solve(columns, ncols, exact, echelon=None):
        seen.append(list(columns))
        return first if len(seen) == 1 else None

    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=window_checked(solve)):
        reduce_block(rows, mom_cols, 3, False)
    assert [len(columns) for columns in seen] == [8, 4]
    assert all(a is b for a, b in zip(seen[1], seen[0][1::2]))
    # exact data: the tie reaches 0 by itself, and both cells stay fractional
    rows = [[F(1), F(1), F(1)], [F(1), F(2), F(1)]]
    mom_cols = [[[3 * i + j + 1] * 2 for j in range(3)] for i in range(3)]
    got, want = both_walks(rows, mom_cols, 3, True, scripted([1, 0, 2, 0]))
    assert got == want == [[2, 0, 1], [3, 0, 1]]
    assert all(type(v) is Fraction for row in got for v in row)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_three_piece_cell_that_loses_its_middle_then_its_first_piece(exact):
    # cell 0 holds pieces 0 and 1, cell 1 all three, each piece its own two
    # moment rows.  The first pivot takes cell 1's middle piece, the second
    # its first piece, which leaves the cell whole on piece 2
    one = 1 if exact else 1.0
    value = F(1) if exact else 1.0
    rows = [[value, value, 0 * value], [value, value, value]]
    mom_cols = [[[one * (2 * i + j + 1)] * 2 for j in range(2)] for i in range(3)]
    kernels = ([0 * one, one, 0 * one], [0 * one, -one])
    seen = []

    def solve(columns, ncols, exact, echelon=None):
        seen.append(list(columns))
        return list(kernels[len(seen) - 1]) if len(seen) <= len(kernels) else None

    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=window_checked(solve)):
        got = reduce_block(rows, mom_cols, 3, exact)
    _, want = both_walks(rows, mom_cols, 3, exact, scripted(*kernels))
    assert repr(got) == repr(want)
    assert got == [[1, 1, 0], [0, 0, 3]]
    assert [type(v) for row in got for v in row] == [type(value)] * 6
    # cell 0's column and cell 1's piece-2 column are kept as objects until
    # cell 1 leaves the window
    assert [len(columns) for columns in seen] == [3, 2, 1]
    assert seen[1][0] is seen[2][0] is seen[0][0]
    assert seen[1][1] is seen[0][2]


def eliminated_per_solve(solver, *args) -> list[int]:
    """The columns each kernel solve of ``solver(*args)`` eliminates: those
    after the leading run of its carried elimination that it kept."""
    eliminated = []

    def solve(columns, ncols, exact, echelon=None):
        before = list(echelon.reduced)
        z = nullspace_vector(columns, ncols, exact, echelon=echelon)
        after = echelon.reduced
        kept = 0
        while kept < min(len(before), len(after)) and before[kept] is after[kept]:
            kept += 1
        eliminated.append(len(after) - kept)
        return z

    with mock.patch.object(lyapunov, "nullspace_vector", side_effect=window_checked(solve)):
        solver(*args)
    return eliminated


@pytest.mark.parametrize("seed, solves, columns", [(0, 348, 1429), (1, 350, 1330)])
def test_benchmark_window_block_solves_and_eliminates_a_pinned_count(seed, solves, columns):
    # the blocks of the test above: a walk that adds a pivot or eliminates a
    # column again that its carried elimination kept moves these counts
    rng = random.Random(f"bench-window-{seed}")
    p, d, q = 3, 6, 250
    rows, _, mom_cols = make_block(rng, p, [d] * p, q, False, zero_share=0.2, shared=True)
    eliminated = eliminated_per_solve(reduce_block, rows, mom_cols, p, False)
    assert (len(eliminated), sum(eliminated)) == (solves, columns)


def test_first_atomic_bangbang_instance_solves_and_eliminates_a_pinned_count(monkeypatch):
    # the first instance of the benchmark workload at seed 17, as its
    # generator builds it on Python 3.10 and 3.11
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    monkeypatch.setattr(workloads, "sum", fold, raising=False)
    inst = next(workloads.instances("atomic-bangbang", 17))
    eliminated = eliminated_per_solve(run, inst.command, parse_problem(inst.document))
    assert (len(eliminated), sum(eliminated), max(eliminated)) == (3912, 16555, 13)
