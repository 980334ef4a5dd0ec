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
kernel solves.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from condbang import lyapunov
from condbang.linalg import integer_row, nullspace_vector, pivot_step
from condbang.numeric import Scalar

from test_linalg import reference_nullspace_vector, rows_of, same_bits

F = Fraction


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


def make_block(rng: random.Random, p: int, dims: list[int], q: int, exact: bool, *,
               zero_share: float = 0.3, duplicate_share: float = 0.0):
    """Seed rows (some entries zero), cell masses and per-piece moment rows.

    With ``duplicate_share`` a cell copies the seed row and moment entries of
    an earlier cell, which makes dependent columns turn up early.
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
        got = lyapunov._reduce_transport(rows, avail, mom_cols, p, exact)
    with mock.patch.object(sys.modules[__name__], "nullspace_vector",
                           wraps=nullspace_vector) as ref_calls:
        want = reference_reduce_transport(rows, avail, mom_cols, p, exact)
    return got, new_calls.call_count, want, ref_calls.call_count


@st.composite
def exact_blocks(draw):
    p = draw(st.integers(2, 4))
    dims = [draw(st.integers(1, 3)) for _ in range(p)]
    q = draw(st.integers(1, 40))
    zero_share = draw(st.sampled_from((0.0, 0.3, 0.6)))
    duplicate_share = draw(st.sampled_from((0.0, 0.0, 0.3, 0.8)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows, avail, mom_cols = make_block(rng, p, dims, q, True, zero_share=zero_share,
                                       duplicate_share=duplicate_share)
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


def test_float_reduction_is_bit_identical_with_kernels_solved_from_scratch():
    # the carried elimination changes no bit: every kernel solve again through
    # the row-by-row reference, which ignores the echelon
    def from_scratch(columns, ncols, exact, echelon=None):
        return reference_nullspace_vector(rows_of(columns), ncols, exact)

    for seed in range(60):
        rng = random.Random(f"scratch-{seed}")
        p = rng.randint(2, 5)
        dims = [rng.randint(1, 3) for _ in range(p)]
        q = rng.randint(1, 60)
        rows, avail, mom_cols = make_block(rng, p, dims, q, False,
                                           zero_share=rng.choice((0.0, 0.3, 0.6)),
                                           duplicate_share=rng.choice((0.0, 0.3, 0.8)))
        with mock.patch.object(lyapunov, "nullspace_vector",
                               wraps=lyapunov.nullspace_vector) as carried:
            got = lyapunov._reduce_transport(rows, avail, mom_cols, p, False)
        with mock.patch.object(lyapunov, "nullspace_vector",
                               side_effect=from_scratch) as scratch:
            want = lyapunov._reduce_transport(rows, avail, mom_cols, p, False)
        assert same_bits(got, want)
        assert carried.call_count == scratch.call_count
