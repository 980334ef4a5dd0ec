import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condbang import (Mode, RefinedSet, SimpleFunction, annihilator_witness, bang_bang,
                      build_grid, constant_function, full_set, half_set,
                      lyapunov_partition, lyapunov_partition_multi,
                      make_partition, polytope_map, set_from_cells, set_from_triples,
                      sf_stack, simple_function, trivial_partition,
                      weighted_ce_measure, witness_block_integrals)
from condbang import lyapunov
from condbang.linalg import integer_scaled
from condbang.lyapunov import (_digit_masks, _polish, _reduce_transport,
                               partition_with_moments)
from condbang.numeric import fold, max_abs
from condbang.spaces import block_masses

from gen import (coprime_denominators, random_alpha, random_atomic_instance,
                 random_exact_alpha, random_exact_function, random_exact_grid,
                 random_function, random_grid, random_partition, random_refined_set)
from test_transport import reduce_block

TOL = 1e-9


def seed_moments_check(h, alpha, C, grid):
    """Independent check that the proportional seed hits every moment target."""
    for cells in C.blocks:
        for i in range(alpha.dim):
            for j in range(h.dim):
                seed = math.fsum(alpha.values[k][i] * grid.weights[k] * h.values[k][j]
                                 for k in cells)
                target = math.fsum(alpha.values[k][i] * grid.weights[k] * h.values[k][j]
                                   for k in reversed(cells))
                assert abs(seed - target) <= 1e-12 * (1 + abs(target))


def test_partition_symmetric_split():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    h = simple_function([1, 2, 3, 4])
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 4)
    res = lyapunov_partition(h, alpha, C, g)
    assert res.pieces[0].masses == (0.125,) * 4
    assert res.pieces[1].offsets == (0.125,) * 4
    assert res.max_residual <= TOL


def test_partition_degenerate_weights():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    h = simple_function([1, 2, 3, 4])
    alpha = SimpleFunction(dim=2, values=((1.0, 0.0),) * 4)
    res = lyapunov_partition(h, alpha, trivial_partition(g), g)
    assert res.pieces[0].masses == tuple(g.weights)
    assert res.pieces[1].total_mass() == 0


def test_partition_atomic_two_cells_matches_enumeration():
    g = build_grid([0.6, 0.4], Mode.ATOMIC)
    h = constant_function(g, 1.0)
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 2)
    res = lyapunov_partition(h, alpha, trivial_partition(g), g)
    # brute force over the 4 whole-cell assignments: optimum is 0.1
    best = min(max(abs(sum(w for w, a in zip([0.6, 0.4], assign) if a == i) - 0.5)
                   for i in range(2))
               for assign in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert best == pytest.approx(0.1)
    assert res.max_residual == pytest.approx(best, abs=1e-12)
    assert res.max_residual <= res.residual_bound


def test_partition_rejects_bad_alpha():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    h = constant_function(g, 1.0)
    bad_sum = SimpleFunction(dim=2, values=((0.6, 0.6),) * 2)
    with pytest.raises(ValueError):
        lyapunov_partition(h, bad_sum, trivial_partition(g), g)
    negative = SimpleFunction(dim=2, values=((1.5, -0.5),) * 2)
    with pytest.raises(ValueError):
        lyapunov_partition(h, negative, trivial_partition(g), g)


def reference_validate_alpha(alpha, grid, tol):
    """``_validate_alpha`` as it was before exact rows were checked on ints."""
    if len(alpha.values) != grid.cell_count:
        raise ValueError("weight function and grid cell counts differ")
    check_tol = tol if tol > 0 else 0
    for k, row in enumerate(alpha.values):
        if grid.is_exact and not all(isinstance(a, (int, Fraction)) for a in row):
            raise ValueError(f"cell {k}: an exact grid needs exact piece weights")
        for a in row:
            if a < -check_tol:
                raise ValueError(f"cell {k}: negative piece weight {a!r}")
        s = sum(row)
        if abs(s - 1) > check_tol:
            raise ValueError(f"cell {k}: piece weights sum to {s!r}, expected 1")


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("tol", [None, 0, Fraction(1, 7), Fraction(1, 10 ** 30), 1e-9,
                                 0.25, -1.0, math.inf, math.nan])
def test_exact_weight_rows_checked_on_ints_keep_every_verdict_and_message(tol):
    rng = random.Random(83)
    grid = build_grid([Fraction(1, 4)] * 4, Mode.SPLITTABLE)
    failing = 0
    for _ in range(400):
        rows = []
        for _ in range(grid.cell_count):
            row = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
            total = sum(row)
            row = [a / total for a in row]
            # off by a little, negative, or ints in place of Fractions
            tweak = rng.random()
            if tweak < 0.2:
                row[rng.randrange(len(row))] += rng.choice((1, -1)) * Fraction(1, rng.choice(
                    (7, 10 ** 9, 10 ** 30)))
            elif tweak < 0.3:
                row[0] -= rng.randint(1, 3)
                row[-1] += rng.randint(1, 3)
            elif tweak < 0.35:
                row = [1] + [0] * (len(row) - 1)
            rows.append(tuple(row))
        width = max(map(len, rows))
        rows = [row + (Fraction(0),) * (width - len(row)) for row in rows]
        alpha = SimpleFunction(dim=width, values=tuple(rows))
        want = _outcome(reference_validate_alpha, alpha, grid, grid.tol(tol))
        assert _outcome(lyapunov._validate_alpha, alpha, grid, grid.tol(tol)) == want
        failing += want is not None
    # an infinite tol passes every row
    assert failing == 0 if tol == math.inf else failing > 40


def test_partition_validity_and_exactness_random_splittable():
    rng = random.Random(47)
    for _ in range(60):
        m = rng.randint(2, 64)
        g = random_grid(rng, m, Mode.SPLITTABLE)
        C = random_partition(rng, g, 8)
        D = rng.randint(1, 12)
        p = rng.randint(2, 5)
        h = random_function(rng, g, D)
        alpha = random_alpha(rng, g, p)
        seed_moments_check(h, alpha, C, g)
        res = lyapunov_partition(h, alpha, C, g)
        assert res.max_residual <= TOL
        for k in range(m):
            total = sum(piece.masses[k] for piece in res.pieces)
            assert abs(total - g.weights[k]) <= TOL
            # canonical stacking: pieces are consecutive sub-intervals
            cursor = 0.0
            for piece in res.pieces:
                assert piece.offsets[k] == pytest.approx(cursor, abs=TOL)
                cursor += piece.masses[k]


def test_partition_exact_regime_is_exact():
    rng = random.Random(53)
    for _ in range(20):
        g = random_exact_grid(rng, rng.randint(2, 12), Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        h = random_exact_function(rng, g, rng.randint(1, 4))
        alpha = random_exact_alpha(rng, g, rng.randint(2, 4))
        res = lyapunov_partition(h, alpha, C, g)
        assert res.max_residual == 0
        for k in range(g.cell_count):
            assert sum(piece.masses[k] for piece in res.pieces) == g.weights[k]


def test_partition_atomic_bound_and_fractional_counts():
    rng = random.Random(59)
    for _ in range(60):
        g, C, h, alpha, p = random_atomic_instance(rng)
        res = lyapunov_partition(h, alpha, C, g, polish_budget=0)
        assert res.max_residual <= res.residual_bound + 1e-12
        rows = p * h.dim
        assert all(c <= rows for c in res.fractional_per_block)


def test_half_set_splittable_exact():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    res = half_set(constant_function(g, 1.0), full_set(g), trivial_partition(g), g)
    assert res.half.masses == (0.125,) * 4
    assert res.achieved.values[0][0] == pytest.approx(0.5)
    assert res.max_residual <= 1e-9


def test_half_set_quarter_composition():
    rng = random.Random(61)
    for _ in range(40):
        g = random_grid(rng, rng.randint(2, 16), Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        h = random_function(rng, g, rng.randint(1, 3))
        E = random_refined_set(rng, g)
        first = half_set(h, E, C, g)
        second = half_set(h, first.half, C, g)
        whole = weighted_ce_measure(h, E, C, g)
        quarter = weighted_ce_measure(h, second.half, C, g)
        for b in range(C.block_count):
            for j in range(h.dim):
                assert abs(quarter.values[b][j] - whole.values[b][j] / 4) <= 2 * TOL


def test_half_set_atomic_even_and_uneven():
    g_even = build_grid([0.5, 0.5], Mode.ATOMIC)
    res = half_set(constant_function(g_even, 1.0), full_set(g_even),
                   trivial_partition(g_even), g_even)
    live = [k for k, m in enumerate(res.half.masses) if m > 0]
    assert len(live) == 1 and res.max_residual <= 1e-12
    g_odd = build_grid([0.6, 0.4], Mode.ATOMIC)
    res = half_set(constant_function(g_odd, 1.0), full_set(g_odd),
                   trivial_partition(g_odd), g_odd)
    assert res.max_residual == pytest.approx(0.1, abs=1e-12)
    assert res.max_residual <= res.residual_bound


def test_annihilator_uniform_block():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    E = set_from_cells(g, [0, 1])
    w = annihilator_witness(constant_function(g, 1.0), E, C, g)
    values = [row[0] for row in w.g.values]
    assert sorted(values) == pytest.approx([-0.5, -0.5, 0.0, 0.0, 0.5, 0.5])
    assert w.norm_inf == pytest.approx(0.5)
    assert witness_block_integrals(w).max_abs() <= TOL
    w2 = annihilator_witness(constant_function(g, 2.0), E, C, g)
    assert sorted(row[0] for row in w2.g.values) == \
        pytest.approx([-0.25, -0.25, 0.0, 0.0, 0.25, 0.25])


def test_annihilator_zero_branch():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    E = set_from_cells(g, [0, 1])
    f = simple_function([0.0, 0.0, 1.0, 1.0])
    w = annihilator_witness(f, E, C, g)
    assert w.norm_inf == 1.0
    support_mass = w.support.total_mass()
    assert support_mass == pytest.approx(E.total_mass())
    assert witness_block_integrals(w).max_abs() == 0


def test_annihilator_duality_random():
    rng = random.Random(67)
    for _ in range(60):
        g = random_grid(rng, rng.randint(2, 24), Mode.SPLITTABLE)
        C = random_partition(rng, g, 6)
        f = random_function(rng, g, 1, lo=-3, hi=3)
        if rng.random() < 0.3:  # sprinkle exact zeros to hit both branches
            vals = list(f.values)
            for k in range(g.cell_count):
                if rng.random() < 0.3:
                    vals[k] = (0.0,)
            f = SimpleFunction(dim=1, values=tuple(vals))
        E = random_refined_set(rng, g)
        w = annihilator_witness(f, E, C, g)
        assert w.norm_inf > 0
        # support inside E on the refined carrier
        for j in range(w.grid.cell_count):
            assert w.support.masses[j] <= w.set_on_refined.masses[j] + TOL
            if w.support.masses[j] == 0:
                assert w.g.values[j][0] == 0
        assert witness_block_integrals(w).max_abs() <= TOL


def test_annihilator_stays_exact_on_int_masses():
    g = build_grid([1], "splittable")
    E = RefinedSet(offsets=(0,), masses=(1,))
    w = annihilator_witness(constant_function(g, 3), E, trivial_partition(g), g)
    assert w.grid.weights == (Fraction(1, 2), Fraction(1, 2))
    assert all(type(x) is Fraction for x in w.grid.weights)
    assert all(type(row[0]) is Fraction for row in w.g.values)
    assert sorted(row[0] for row in w.g.values) == [Fraction(-1, 6), Fraction(1, 6)]


class _LinearScan:
    """``bisect.bisect_left`` as the loop the threshold search ran before it
    bisected: the first level, from the largest |f| down, whose strict
    super-level set carries at least half of E's mass."""

    @staticmethod
    def bisect_left(levels, x, *, key):
        for i in levels:
            if key(i) >= x:
                return i
        return len(levels)


def _annihilator_instance(rng, exact):
    """A splittable instance whose |f| ties across cells, with zeros of f in
    and out of E: float sets with sub-cell pieces, exact sets of whole cells."""
    m = rng.randint(2, 40)
    g = (random_exact_grid if exact else random_grid)(rng, m, Mode.SPLITTABLE)
    pool = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
    values = [rng.choice(pool) for _ in range(m)]
    if rng.random() < 0.5:  # most zeros of f go, so the threshold search runs
        values = [v if v or rng.random() < 0.1 else Fraction(1) for v in values]
    f = simple_function([v if exact else float(v) for v in values])
    if exact:
        cells = [k for k in range(m) if rng.random() < 0.7] or [rng.randrange(m)]
        E = full_set(g) if rng.random() < 0.3 else set_from_cells(g, cells)
    else:
        E = full_set(g) if rng.random() < 0.3 else random_refined_set(rng, g)
    return f, E, random_partition(rng, g, 8), g


@pytest.mark.parametrize("exact", [False, True])
def test_annihilator_threshold_bisection_finds_the_levels_loop_witness(monkeypatch, exact):
    rng = random.Random(331 + exact)
    witnesses = []
    for _ in range(150):
        f, E, C, g = _annihilator_instance(rng, exact)
        try:
            witnesses.append((f, E, C, g, repr(annihilator_witness(f, E, C, g))))
        except (ValueError, RuntimeError) as err:
            witnesses.append((f, E, C, g, repr(err)))
    monkeypatch.setattr(lyapunov, "bisect", _LinearScan)
    for f, E, C, g, got in witnesses:
        try:
            want = repr(annihilator_witness(f, E, C, g))
        except (ValueError, RuntimeError) as err:
            want = repr(err)
        assert got == want


def test_annihilator_threshold_search_folds_logarithmically_many_masses(monkeypatch):
    levels = 256
    rng = random.Random(337)
    g = random_grid(rng, levels, Mode.SPLITTABLE)
    f = simple_function([float(k + 1) for k in range(levels)])
    folds = []

    def counting_fold(terms):
        folds.append(1)
        return fold(terms)

    monkeypatch.setattr(lyapunov, "fold", counting_fold)
    annihilator_witness(f, full_set(g), random_partition(rng, g, 8), g)
    assert 0 < len(folds) <= math.ceil(math.log2(levels)) + 1


def test_annihilator_atomic_mode_rejected():
    g = build_grid([0.5, 0.5], Mode.ATOMIC)
    with pytest.raises(ValueError):
        annihilator_witness(constant_function(g, 1.0), full_set(g),
                            trivial_partition(g), g)
    g2 = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    with pytest.raises(ValueError):
        annihilator_witness(constant_function(g2, 1.0),
                            set_from_triples(g2, []), trivial_partition(g2), g2)


def test_multi_measure_equal_reduces_to_single():
    rng = random.Random(71)
    g = random_exact_grid(rng, 6, Mode.SPLITTABLE)
    C = random_partition(rng, g, 3)
    f1 = random_exact_function(rng, g, 1)
    f2 = random_exact_function(rng, g, 1)
    alpha = random_exact_alpha(rng, g, 3)
    multi = lyapunov_partition_multi([g.weights, g.weights], [f1, f2], alpha, C, g)
    single = lyapunov_partition(sf_stack([f1, f2]), alpha, C, g)
    assert multi.pieces == single.pieces
    assert multi.max_residual == 0


def test_multi_measure_proportional_measures():
    rng = random.Random(73)
    g = random_exact_grid(rng, 5, Mode.SPLITTABLE)
    C = random_partition(rng, g, 2)
    f = random_exact_function(rng, g, 1)
    alpha = random_exact_alpha(rng, g, 2)
    doubled = [w * 2 for w in g.weights]
    multi = lyapunov_partition_multi([list(g.weights), doubled], [f, f], alpha, C, g)
    single = lyapunov_partition(sf_stack([f, f]), alpha, C, g)
    assert multi.pieces == single.pieces


def test_multi_measure_genuinely_different():
    rng = random.Random(79)
    for _ in range(30):
        m = rng.randint(3, 10)
        g = random_grid(rng, m, Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        measures = [[rng.uniform(0.1, 1.0) for _ in range(m)] for _ in range(2)]
        fs = [random_function(rng, g, 1) for _ in range(2)]
        alpha = random_alpha(rng, g, rng.randint(2, 4))
        res = lyapunov_partition_multi(measures, fs, alpha, C, g)
        assert res.max_residual <= TOL
        for k in range(m):
            assert abs(sum(p.masses[k] for p in res.pieces) - g.weights[k]) <= TOL


def test_multi_measure_null_block_rejected():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    C = make_partition([0, 1])
    f = constant_function(g, 1.0)
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 2)
    with pytest.raises(ValueError):
        lyapunov_partition_multi([[1.0, 0.0], [2.0, 0.0]], [f, f], alpha, C, g)


@pytest.mark.parametrize("mode", [Mode.SPLITTABLE, Mode.ATOMIC])
def test_partition_on_an_exact_grid_rejects_float_data(mode):
    g = build_grid([1, 2, 3, 2], mode)
    C = make_partition([0, 0, 1, 1])
    exact_h = simple_function([1, -2, 3, 1])
    exact_alpha = SimpleFunction(dim=2, values=((Fraction(1, 2), Fraction(1, 2)),) * 4)
    float_h = simple_function([1.0, -2.0, 3.0, 1.0])
    float_alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 4)
    for h, alpha in [(float_h, exact_alpha), (exact_h, float_alpha)]:
        with pytest.raises(ValueError, match="exact"):
            lyapunov_partition(h, alpha, C, g)
    exact_mu = [Fraction(1), Fraction(2), Fraction(1), Fraction(3)]
    float_mu = [1.0, 2.0, 1.0, 3.0]
    for measures, fs in [([exact_mu, exact_mu], [exact_h, float_h]),
                         ([exact_mu, float_mu], [exact_h, exact_h])]:
        with pytest.raises(ValueError, match="exact"):
            lyapunov_partition_multi(measures, fs, exact_alpha, C, g)
    float_set = RefinedSet(offsets=(0.0,) * 4, masses=tuple(float(w) for w in g.weights))
    with pytest.raises(ValueError, match="exact"):
        partition_with_moments([exact_h, exact_h], exact_alpha, C, g, within=float_set)
    # float vertices decompose into float branches and weights
    T = polytope_map([[(0.0,), (4.0,)]] * 4)
    with pytest.raises(ValueError, match="exact"):
        bang_bang(T, simple_function([1, 2, 3, 1]), C, g)


@pytest.mark.parametrize("mode", [Mode.SPLITTABLE, Mode.ATOMIC])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_multi_measure_non_finite_mass_rejected(mode, bad):
    g = build_grid([0.25] * 4, mode)
    C = make_partition([0, 0, 1, 1])
    f = constant_function(g, 1.0)
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 4)
    with pytest.raises(ValueError, match="non-finite"):
        lyapunov_partition_multi([[1.0] * 4, [1.0, bad, 1.0, 1.0]], [f, f], alpha, C, g)


def _multi_measure_instances(rng, exact):
    """Small atomic instances, then two blocks of 14-20 cells with p = d = 2 in both modes.

    Every instance with a block of two or more cells has a cell that is null
    under both measures; the large blocks have more than ``polish_budget``
    whole-cell assignments, so the transport reduction decides them.  Each
    large atomic instance comes again with its measures scaled by 1e-14 and
    by 1e14.
    """
    zero = Fraction(0) if exact else 0.0
    if exact:
        draw = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4))
    else:
        draw = lambda: rng.uniform(0.1, 1.0)
    grid_of = random_exact_grid if exact else random_grid
    function_of = random_exact_function if exact else random_function
    alpha_of = random_exact_alpha if exact else random_alpha

    def measures_with_a_dead_cell(C):
        # measure 1 is null on about a third of the cells; both measures are
        # null on one cell of a block that keeps another cell
        measures = [[draw() for _ in C.block_of],
                    [zero if rng.random() < 0.35 else draw() for _ in C.block_of]]
        shared = [cells for cells in C.blocks if len(cells) > 1]
        if shared:
            dead = rng.choice(rng.choice(shared))
            measures[0][dead] = measures[1][dead] = zero
        return measures

    for _ in range(20):
        m = rng.randint(4, 8)
        g = grid_of(rng, m, Mode.ATOMIC)
        fs = [function_of(rng, g, 1) for _ in range(2)]
        alpha = alpha_of(rng, g, rng.randint(2, 3))
        C = random_partition(rng, g, 3)
        yield g, C, fs, alpha, measures_with_a_dead_cell(C)
    for _ in range(3):
        sizes = [rng.randint(14, 20) for _ in range(2)]
        C = make_partition([b for b, n in enumerate(sizes) for _ in range(n)])
        g = grid_of(rng, sum(sizes), Mode.ATOMIC)
        fs = [function_of(rng, g, 1) for _ in range(2)]
        alpha = alpha_of(rng, g, 2)
        measures = measures_with_a_dead_cell(C)
        yield g, C, fs, alpha, measures
        yield build_grid(g.weights, Mode.SPLITTABLE), C, fs, alpha, measures
        # measures of very small and very large total mass
        for scale in ((Fraction(1, 10**14), 10**14) if exact else (1e-14, 1e14)):
            yield g, C, fs, alpha, [[v * scale for v in mu_i] for mu_i in measures]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_multi_measure_atomic_residual_matches_a_direct_recomputation(exact):
    rng = random.Random(89)
    fractional = []
    for g, C, fs, alpha, measures in _multi_measure_instances(rng, exact):
        res = lyapunov_partition_multi(measures, fs, alpha, C, g)
        assert res.max_residual <= res.residual_bound
        rows = alpha.dim * len(measures)
        assert all(c <= rows for c in res.fractional_per_block)
        if g.mode is Mode.ATOMIC:
            fractional.extend(res.fractional_per_block)
        for k in range(g.cell_count):
            if all(mu_i[k] == 0 for mu_i in measures):
                total = sum(piece.masses[k] for piece in res.pieces)
                if exact:
                    assert total == g.weights[k]
                else:
                    assert abs(total - g.weights[k]) <= 1e-12
        for i, (mu_i, f) in enumerate(zip(measures, fs)):
            for b, cells in enumerate(C.blocks):
                mu_b = sum(mu_i[k] for k in cells)
                for j, piece in enumerate(res.pieces):
                    got = res.residual[j][b][i]
                    if mu_b == 0:
                        assert got == 0
                        continue
                    # E_i(f_i 1_{B_j} | C)(b) - E_i(f_i alpha_j | C)(b), times mu_i(b)
                    terms = [piece.masses[k] / g.weights[k] * mu_i[k] * f.values[k][0]
                             for k in cells]
                    terms += [-alpha.values[k][j] * mu_i[k] * f.values[k][0] for k in cells]
                    if exact:
                        assert got == sum(terms) / mu_b
                    else:
                        scale = math.fsum(abs(t) for t in terms) / mu_b
                        assert abs(got - math.fsum(terms) / mu_b) <= 1e-12 * scale
    assert any(c > 0 for c in fractional)


def test_multi_measure_bound_holds_for_measures_of_any_mass():
    # one block decided by the exhaustive search: measure 2 carries a
    # millionth of measure 1's mass, and its defect counts all the same
    g = build_grid([Fraction(1)] * 12, Mode.ATOMIC)
    C = make_partition([0] * 12)
    f1 = simple_function([Fraction(1, 11)] * 11 + [1])
    f2 = simple_function([1] * 12)
    alpha = SimpleFunction(dim=2, values=((Fraction(1, 2), Fraction(1, 2)),) * 12)
    res = lyapunov_partition_multi([[1] * 12, [Fraction(1, 10**6)] * 12], [f1, f2],
                                   alpha, C, g)
    assert res.residual_bound == Fraction(1, 3)
    assert res.max_residual <= res.residual_bound
    # one block reduced by kernel steps, measures of mass far below the
    # kernel's pivot tolerance
    g = build_grid([0.05] * 20, Mode.ATOMIC)
    C = make_partition([0] * 20)
    f = constant_function(g, 1.0)
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 20)
    res = lyapunov_partition_multi([[1e-14] * 20, [2e-14] * 20], [f, f], alpha, C, g)
    assert res.max_residual <= res.residual_bound
    # scaling a measure by a power of two is exact in floats and changes nothing
    rng = random.Random(4)
    for mode in (Mode.ATOMIC, Mode.SPLITTABLE):
        g = random_grid(rng, 16, mode)
        C = make_partition([0] * 9 + [1] * 7)
        fs = [random_function(rng, g, 1) for _ in range(2)]
        alpha = random_alpha(rng, g, 2)
        measures = [[rng.uniform(0.1, 1.0) for _ in range(16)] for _ in range(2)]
        base = lyapunov_partition_multi(measures, fs, alpha, C, g)
        for scale in (2.0 ** -60, 2.0 ** 60):
            scaled = [[v * scale for v in measures[0]], measures[1]]
            res = lyapunov_partition_multi(scaled, fs, alpha, C, g)
            assert res.pieces == base.pieces
            assert res.residual == base.residual


# ---------------------------------------------------------------------------
# the exhaustive rounding search against the Fraction loop it replaced
# ---------------------------------------------------------------------------


def reference_polish(avail, mom_cols, targets, p):
    """The exact polish as it ran before the numpy search served both regimes.

    Plain Python arithmetic, so it runs on floats as well as on Fractions.
    """
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
    return list(best_assign)


def random_polish_block(rng, q, p, rows, exact):
    """avail, mom_cols and targets of a block; rows[i] moment rows for piece i."""
    if exact:
        draw = lambda lo, hi: Fraction(rng.randint(lo * 12, hi * 12), rng.randint(1, 12))
    else:
        draw = rng.uniform
    avail = [draw(1, 3) for _ in range(q)]
    mom_cols = [[[draw(-2, 2) for _ in range(q)] for _ in range(rows[i])] for i in range(p)]
    targets = [[draw(-2, 2) for _ in range(rows[i])] for i in range(p)]
    return avail, mom_cols, targets


def polish_rows(avail, mom_cols, targets, exact):
    """``_polish``'s (piece, coefficient array, goal) rows of a block: floats
    as float64 arrays; on exact data every coefficient avail[k] * col[k] and
    every target times the lcm of their denominators, as object arrays."""
    owner = [i for i, cols in enumerate(mom_cols) for _ in cols]
    goals = [t for row in targets for t in row]
    coefs = [[a * c for a, c in zip(avail, col)] for cols in mom_cols for col in cols]
    if exact:
        _, (goals, *coefs) = integer_scaled([goals, *coefs])
        coefs = [np.array(coef, dtype=object) for coef in coefs]
    else:
        w = np.asarray(avail, dtype=float)
        coefs = [w * np.asarray(col, dtype=float) for cols in mom_cols for col in cols]
    return list(zip(owner, coefs, goals))


def assert_polish_matches_reference(avail, mom_cols, targets, p, exact, masks=None):
    got = _polish(polish_rows(avail, mom_cols, targets, exact), p, len(avail), exact,
                  {} if masks is None else masks)
    assert got == reference_polish(avail, mom_cols, targets, p)
    assert all(type(d) is int for d in got)
    return got


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_polish_matches_the_reference_loop_on_random_blocks(exact):
    # the digit masks are shared by every search of one p, as within one
    # partition call: blocks of the same cell count reuse them
    shared = {2: {}, 3: {}}
    rng = random.Random(131)
    for _ in range(40):
        p = rng.randint(2, 3)
        q = rng.randint(1, 7 if p == 2 else 5)
        # one-row pieces, multi-row pieces, and pieces of different row counts
        rows = rng.choice([[1] * p, [2] * p, [rng.randint(1, 3) for _ in range(p)]])
        avail, mom_cols, targets = random_polish_block(rng, q, p, rows, exact)
        assert_polish_matches_reference(avail, mom_cols, targets, p, exact, shared[p])
    for p, masks in shared.items():
        for q, bits in masks.items():
            assert len(bits) == p
            assert all(m.shape == (p ** q, q) for m in bits)
            assert all(m.dtype == (bool if exact else float) for m in bits)


def test_float_digit_masks_multiply_as_the_boolean_masks_bit_for_bit():
    rng = np.random.default_rng(39)
    for p, q in [(2, 9), (3, 6), (4, 4), (5, 2)]:
        bits = _digit_masks(p, q, 0, p ** q, False)
        for _ in range(20):
            coef = rng.uniform(-2, 2, q) * rng.uniform(0.1, 3, q)
            for m in bits:
                assert (m.astype(bool) @ coef).tobytes() == (m @ coef).tobytes()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_polish_takes_the_first_of_tied_optima(exact):
    # dyadic data: every float sum is exact, so the float deviations tie
    # exactly where the rational ones do
    num = (lambda v: Fraction(v)) if exact else float
    # symmetric blocks: equal cells, the targets at half the total
    for q, rows in [(4, 1), (5, 2), (6, 1)]:
        avail = [num(0.25)] * q
        mom_cols = [[[num(1.0)] * q for _ in range(rows)] for _ in range(2)]
        half = num(q * 0.125)
        targets = [[half] * rows] * 2
        got = assert_polish_matches_reference(avail, mom_cols, targets, 2, exact)
        assert got == sorted(got)
    # mirror cells: swapping the two halves of the block gives equal deviations
    avail = [num(v) for v in (0.5, 0.25, 0.5, 0.25)]
    mom_cols = [[[num(v) for v in (1.0, -2.0, 1.0, -2.0)]],
                [[num(v) for v in (0.5, 0.5, 0.5, 0.5)], [num(v) for v in (1, 1, 1, 1)]],
                [[num(v) for v in (-1.0, 3.0, -1.0, 3.0)]]]
    targets = [[num(0.25)], [num(0.375), num(0.75)], [num(0.25)]]
    assert_polish_matches_reference(avail, mom_cols, targets, 3, exact)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_polish_runs_more_than_one_chunk(exact):
    # 2**16 assignments: two chunks of 2**15
    rng = random.Random(7)
    q, p = 16, 2
    if exact:
        # int coefficients keep the Fraction loop fast; the third added to
        # every target makes the search scale by 3, and leaves the assignment
        # below the only one that misses each target by just 1/3
        draw = lambda: rng.randint(-1000, 1000)
        offset = Fraction(1, 3)
    else:
        draw = lambda: rng.uniform(-2, 2)
        offset = 0.0
    avail = [abs(draw()) + 1 for _ in range(q)]
    mom_cols = [[[draw() for _ in range(q)] for _ in range(rows)] for rows in (1, 2)]
    # cell 0 on piece 1 puts the optimum in the second chunk
    want = [1] + [rng.randint(0, 1) for _ in range(q - 1)]
    targets = [[sum(avail[k] * col[k] for k in range(q) if want[k] == i) + offset
                for col in mom_cols[i]] for i in range(p)]
    masks = {}
    assert assert_polish_matches_reference(avail, mom_cols, targets, p, exact, masks) == want
    # a search of more than one chunk keeps no masks
    assert masks == {}
    # equal cells tie within and across the chunks: the first minimizer wins
    num = int if exact else float
    avail = [num(1)] * q
    mom_cols = [[[num(1)] * q] for _ in range(p)]
    targets = [[num(4)], [num(12)]]
    got = assert_polish_matches_reference(avail, mom_cols, targets, p, exact)
    assert got == [0] * 4 + [1] * 12


# ---------------------------------------------------------------------------
# blocks the search decides are never reduced
# ---------------------------------------------------------------------------


def reference_partition_atomic(moments, alpha, C, grid, polish_budget, within):
    """Pieces, residuals and fractional counts of an atomic partition in the
    order it ran before small blocks skipped the reduction: every block is
    reduced and rounded, then one with 1 < p**q <= polish_budget takes the
    search's assignment instead.  The fractional counts are the reduction's,
    on every block."""
    exact = grid.is_exact
    zero = Fraction(0) if exact else 0.0
    p = alpha.dim
    avail = within.masses
    mu = block_masses(C, grid)
    mass = [[zero] * grid.cell_count for _ in range(p)]
    residual = [[] for _ in range(p)]
    fractional = []
    for b, cells in enumerate(C.blocks):
        active = [k for k in cells if avail[k] > 0]
        seed_rows = [[alpha.values[k][i] * avail[k] for i in range(p)] for k in active]
        targets = [[sum(seed_rows[kk][i] * moments[i].values[k][j]
                        for kk, k in enumerate(active))
                    for j in range(moments[i].dim)] for i in range(p)]
        frac_count = 0
        if active:
            q = len(active)
            mom_cols = [[[moments[i].values[k][j] for k in active]
                         for j in range(moments[i].dim)] for i in range(p)]
            avail_active = [avail[k] for k in active]
            rows = reduce_block(seed_rows, mom_cols, p, exact)
            frac_count = sum(1 for row in rows if sum(1 for v in row if v > 0) >= 2)
            assign = [max(range(p), key=row.__getitem__) for row in rows]
            if 1 < p ** q <= polish_budget:
                assign = _polish(polish_rows(avail_active, mom_cols, targets, exact), p, q,
                                 exact, {})
            for kk, k in enumerate(active):
                mass[assign[kk]][k] = avail[k]
        fractional.append(frac_count)
        for i in range(p):
            residual[i].append(tuple(
                (sum(mass[i][k] * moments[i].values[k][j] for k in active)
                 - targets[i][j]) / mu[b]
                for j in range(moments[i].dim)))
    pieces = []
    offsets = within.offsets
    for i in range(p):
        pieces.append(RefinedSet(offsets=tuple(offsets), masses=tuple(mass[i])))
        offsets = [off + m for off, m in zip(offsets, mass[i])]
    return tuple(pieces), tuple(tuple(r) for r in residual), fractional


def test_partition_reduces_only_the_blocks_the_search_does_not_decide(monkeypatch):
    sizes = []

    def counting(seed, scale, coords, p, exact):
        sizes.append(len(seed))
        return _reduce_transport(seed, scale, coords, p, exact)

    monkeypatch.setattr(lyapunov, "_reduce_transport", counting)
    rng = random.Random(137)
    g = random_grid(rng, 20, Mode.ATOMIC)
    h = random_function(rng, g, 2)
    alpha = random_alpha(rng, g, 2)
    # blocks of at most 5 cells have at most 2**5 whole-cell assignments,
    # one of 13 cells has 2**13, against the default budget
    assert 2 ** 5 <= lyapunov.DEFAULT_POLISH_BUDGET < 2 ** 13
    small = make_partition([b for b, n in enumerate([4, 3, 4, 4, 5]) for _ in range(n)])
    res = lyapunov_partition(h, alpha, small, g)
    assert sizes == []
    assert res.fractional_per_block == (0,) * 5
    mixed = make_partition([0] * 4 + [1] * 3 + [2] * 13)
    res = lyapunov_partition(h, alpha, mixed, g)
    assert sizes == [13]
    assert res.fractional_per_block[:2] == (0, 0)
    assert res.fractional_per_block[2] <= 2 * h.dim
    # with h zero on one of its cells, the 13-cell block has 2**12 assignments
    # of the cells that move a moment, and the search decides it
    null = SimpleFunction(dim=h.dim, values=tuple(
        (0.0,) * h.dim if k == 7 else row for k, row in enumerate(h.values)))
    sizes.clear()
    res = lyapunov_partition(null, alpha, mixed, g)
    assert sizes == []
    assert res.fractional_per_block == (0,) * 3
    assert res.pieces[0].masses[7] == g.weights[7]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_partition_matches_the_reduce_then_polish_order(exact):
    rng = random.Random(139 + exact)
    polished = reduced = 0
    for _ in range(40):
        g, C, h, alpha, p = random_atomic_instance(rng, max_cells=14, enumerable=False,
                                                   exact=exact)
        if rng.random() < 0.5:
            moments = [h] * p
        else:
            draw = random_exact_function if exact else random_function
            moments = [draw(rng, g, rng.randint(1, 2)) for _ in range(p)]
        within = full_set(g) if rng.random() < 0.5 else set_from_cells(
            g, [k for k in range(g.cell_count) if rng.random() < 0.7])
        budget = rng.choice([0, 16, 4096])
        res = partition_with_moments(moments, alpha, C, g, polish_budget=budget,
                                     within=within)
        pieces, residual, fractional = reference_partition_atomic(
            moments, alpha, C, g, budget, within)
        if exact:
            assert res.pieces == pieces
            assert res.residual == residual
        else:
            assert repr(res.pieces) == repr(pieces)
            assert repr(res.residual) == repr(residual)
        rows = sum(m.dim for m in moments)
        for cells, got, old in zip(C.blocks, res.fractional_per_block, fractional):
            q = sum(1 for k in cells if within.masses[k] > 0)
            if q and 1 < p ** q <= budget:
                polished += 1
                assert got == 0
            else:
                reduced += 1
                assert got == old <= rows
    assert polished and reduced


# ---------------------------------------------------------------------------
# float blocks: the block form moves no bit
# ---------------------------------------------------------------------------


def plain_float_partition(moments, alpha, C, grid, within, pieces):
    """Per block the targets, the residuals of ``pieces`` and the atomic
    bound, by the float formulas the block form replaced: targets
    sum(seed·h), residuals (sum(mass·h) - target) / mu[b], and the bound's
    max avail / mu[b] and max_abs."""
    mu = block_masses(C, grid)
    avail = within.masses
    p = alpha.dim
    targets, residual = [], [[] for _ in range(p)]
    w_rel_max = h_max = 0.0
    for b, cells in enumerate(C.blocks):
        active = [k for k in cells if avail[k] > 0]
        block = [[sum(alpha.values[k][i] * avail[k] * moments[i].values[k][j] for k in active)
                  for j in range(moments[i].dim)] for i in range(p)]
        targets.append(block)
        if active:
            rel = max(avail[k] for k in active) / mu[b]
            if rel > w_rel_max:
                w_rel_max = rel
            h_max = max(h_max, max_abs(v for i in range(p) for k in active
                                       for v in moments[i].values[k]))
        for i in range(p):
            residual[i].append(tuple(
                (sum(pieces[i].masses[k] * moments[i].values[k][j] for k in active)
                 - block[i][j]) / mu[b]
                for j in range(moments[i].dim)))
    bound = sum(m.dim for m in moments) * w_rel_max * h_max
    return targets, tuple(tuple(r) for r in residual), bound


@pytest.mark.parametrize("mode", [Mode.SPLITTABLE, Mode.ATOMIC], ids=["splittable", "atomic"])
def test_float_partition_matches_the_plain_float_formulas_by_repr(mode):
    # on float grids every scale and unit of the block form is 1, so the
    # targets, residuals and bound are those of the plain formulas, bit for bit
    rng = random.Random(f"float-parity-{mode.value}")
    seen = set()
    for trial in range(60):
        m = rng.randint(3, 14)
        grid = random_grid(rng, m, mode)
        blocks = rng.randint(2, 3)
        C = make_partition([k if k < blocks else rng.randrange(blocks) for k in range(m)],
                           blocks)
        p = rng.randint(1, 3)
        alpha = random_alpha(rng, grid, p)
        if trial % 3 == 2:
            # int moment values on a float grid
            h = SimpleFunction(dim=2, values=tuple((rng.randint(-3, 3), rng.randint(-3, 3))
                                                   for _ in range(m)))
        else:
            h = random_function(rng, grid, rng.randint(1, 2))
        shared = trial % 2 == 0
        moments = [h] * p if shared else [h, *(random_function(rng, grid, rng.randint(1, 2))
                                                for _ in range(p - 1))]
        # the cells of one block get no mass
        empty = rng.randrange(blocks)
        within = set_from_cells(grid, [k for k in range(m)
                                       if C.block_of[k] != empty and rng.random() < 0.8])
        budget = rng.choice([0, 16, 4096])
        searched = []

        def spy(rows, p, q, exact, masks):
            searched.append(repr([goal for _, _, goal in rows]))
            return _polish(rows, p, q, exact, masks)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lyapunov, "_polish", spy)
            res = partition_with_moments(moments, alpha, C, grid, polish_budget=budget,
                                         within=within)
        targets, residual, bound = plain_float_partition(moments, alpha, C, grid, within,
                                                         res.pieces)
        assert repr(res.residual) == repr(residual)
        # the searched blocks' targets, in block order
        flat = iter(repr([t for row in block for t in row]) for block in targets)
        assert all(any(goals == block for block in flat) for goals in searched)
        if mode is Mode.ATOMIC:
            assert repr(res.residual_bound) == repr(bound)
            seen.add(("searched", bool(searched)))
            seen.add(("reduced", any(res.fractional_per_block)))
        seen.add(("shared", shared))
        seen.add(("int", trial % 3 == 2))
    assert all(("shared", v) in seen and ("int", v) in seen for v in (True, False))
    if mode is Mode.ATOMIC:
        assert {("searched", True), ("reduced", True)} <= seen


# ---------------------------------------------------------------------------
# exact blocks on hard denominators
# ---------------------------------------------------------------------------


def hard_partition_instance(rng, mode):
    """An exact grid whose piece weights have pairwise coprime per-cell
    denominators near 2**64, some of them zero; some cells copy an earlier
    cell's weight, piece weights and moments, and a ``within`` set leaves
    some cells out (zero available mass)."""
    m, p, d = rng.randint(4, 24), rng.randint(2, 4), rng.randint(1, 3)
    dens = coprime_denominators(rng, m)
    weights, h_rows, alpha_rows = [], [], []
    for k in range(m):
        if k and rng.random() < 0.25:
            src = rng.randrange(k)
            for column in (weights, h_rows, alpha_rows):
                column.append(column[src])
            continue
        weights.append(Fraction(rng.randint(1, 24)))
        h_rows.append(tuple(Fraction(rng.randint(-32, 32), 4) for _ in range(d)))
        cuts = sorted(0 if rng.random() < 0.2 else rng.randrange(dens[k] + 1)
                      for _ in range(p - 1))
        alpha_rows.append(tuple(Fraction(hi - lo, dens[k])
                                for lo, hi in zip([0, *cuts], [*cuts, dens[k]])))
    grid = build_grid(weights, mode)
    C = random_partition(rng, grid, 3)
    h = SimpleFunction(dim=d, values=tuple(h_rows))
    alpha = SimpleFunction(dim=p, values=tuple(alpha_rows))
    if rng.random() < 0.5:
        moments = [h] * p
    else:
        moments = [random_exact_function(rng, grid, rng.randint(1, 2)) for _ in range(p)]
    within = set_from_cells(grid, [k for k in range(m) if rng.random() < 0.7] or [0])
    return grid, C, moments, alpha, within


def plain_targets_and_residuals(moments, alpha, C, grid, within, pieces):
    """Per block the targets, and the residuals of ``pieces``, by plain
    Fraction sums over the cells with available mass."""
    mu = block_masses(C, grid)
    p = alpha.dim
    targets, residual = [], [[] for _ in range(p)]
    for b, cells in enumerate(C.blocks):
        active = [k for k in cells if within.masses[k] > 0]
        block = [[sum((alpha.values[k][i] * within.masses[k] * moments[i].values[k][j]
                       for k in active), Fraction(0))
                  for j in range(moments[i].dim)] for i in range(p)]
        targets.append(block)
        for i in range(p):
            residual[i].append(tuple(
                (sum((pieces[i].masses[k] * moments[i].values[k][j] for k in active),
                     Fraction(0)) - block[i][j]) / mu[b]
                for j in range(moments[i].dim)))
    return targets, tuple(tuple(r) for r in residual)


def scaled_targets(goals, targets):
    """Whether the search goals are the block's targets, piece by piece and
    coordinate by coordinate, times one L > 0."""
    flat = [t for row in targets for t in row]
    c = next((Fraction(g) / t for g, t in zip(goals, flat) if t), Fraction(1))
    return len(goals) == len(flat) and c > 0 and all(g == c * t for g, t in zip(goals, flat))


def plain_atomic_bound(moments, C, grid, within):
    """rows * max relative available mass * max |moment entry|, over the cells
    with available mass."""
    mu = block_masses(C, grid)
    active = [(k, b) for b, cells in enumerate(C.blocks) for k in cells if within.masses[k] > 0]
    rel = max(within.masses[k] / mu[b] for k, b in active)
    h = max(abs(v) for mom in moments for k, _ in active for v in mom.values[k])
    return sum(mom.dim for mom in moments) * rel * h


def assert_hard_partition_matches_plain_sums(grid, C, moments, alpha, within, budget):
    searched = []

    def spy(rows, p, q, exact, masks):
        searched.append([goal for _, _, goal in rows])
        return _polish(rows, p, q, exact, masks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lyapunov, "_polish", spy)
        res = partition_with_moments(moments, alpha, C, grid, polish_budget=budget,
                                     within=within)
    targets, residual = plain_targets_and_residuals(moments, alpha, C, grid, within,
                                                    res.pieces)
    assert res.residual == residual
    assert all(type(v) is Fraction for per_block in res.residual for row in per_block
               for v in row)
    # the searched blocks' targets, in block order, each block's over one
    # common positive scale
    blocks = iter(targets)
    assert all(any(scaled_targets(goals, block) for block in blocks) for goals in searched)
    if grid.mode is Mode.ATOMIC:
        pieces, residual, _ = reference_partition_atomic(moments, alpha, C, grid, budget,
                                                         within)
        assert res.pieces == pieces
        assert res.residual == residual
        assert res.residual_bound == plain_atomic_bound(moments, C, grid, within)
    else:
        assert all(v == 0 for per_block in res.residual for row in per_block for v in row)
    return len(searched)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(list(Mode)), st.sampled_from([0, 64, 4096]))
def test_exact_partition_on_hard_denominators_matches_plain_fraction_sums(seed, mode, budget):
    grid, C, moments, alpha, within = hard_partition_instance(random.Random(seed), mode)
    assert_hard_partition_matches_plain_sums(grid, C, moments, alpha, within, budget)


def test_exact_partition_on_hard_denominators_fixed_instances():
    searched = 0
    for seed in range(6):
        for budget in (0, 4096):
            grid, C, moments, alpha, within = hard_partition_instance(
                random.Random(f"hard-partition-{seed}"), Mode.ATOMIC)
            searched += assert_hard_partition_matches_plain_sums(grid, C, moments, alpha,
                                                                 within, budget)
    assert searched
