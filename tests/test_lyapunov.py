import math
import random

import pytest

from condbang import (Mode, SimpleFunction, annihilator_witness, build_grid,
                      constant_function, full_set, half_set,
                      lyapunov_partition, lyapunov_partition_multi,
                      make_partition, set_from_cells, set_from_triples,
                      sf_stack, simple_function, trivial_partition,
                      weighted_ce_measure, witness_block_integrals)

from gen import (random_alpha, random_atomic_instance, random_exact_alpha,
                 random_exact_function, random_exact_grid, random_function,
                 random_grid, random_partition, random_refined_set)

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
