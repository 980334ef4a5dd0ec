import random
from fractions import Fraction as F

import pytest

from condbang import (Mode, action_set, bang_bang, barycenter, bf_sub, build_grid,
                      caratheodory_decompose,
                      dirac_measure, density_step, direct_mixture_payoff,
                      direct_payoff, integrand_family, make_partition, purify,
                      stack_integrands, support_polytope,
                      trivial_partition, young_measure)
from condbang.purify import IntegrandFamily

from gen import random_grid, random_partition, random_young_instance

TOL = 1e-9


def test_barycenter_dirac_and_dot_product():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    acts = action_set(["a", "b"])
    V = integrand_family([[(0.0,), (1.0,)]] * 4)
    dirac = dirac_measure([1] * 4, acts, g)
    assert barycenter(dirac, V, g).values == ((1.0,),) * 4
    mixed = young_measure([[0.3, 0.7]] * 4, acts, g)
    got = barycenter(mixed, V, g)
    assert all(row[0] == pytest.approx(0.3 * 0.0 + 0.7 * 1.0) for row in got.values)


def test_barycenter_symmetric_cancellation():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    acts = action_set(["plus", "minus"])
    V = integrand_family([[(1.0, -2.0), (-1.0, 2.0)]] * 2)
    uniform = young_measure([[0.5, 0.5]] * 2, acts, g)
    assert barycenter(uniform, V, g).values == ((0.0, 0.0),) * 2


def test_support_polytope_strict_positivity():
    g = build_grid([1.0], Mode.SPLITTABLE)
    acts = action_set(["a", "b", "c"])
    V = integrand_family([[(0.0,), (1.0,), (5.0,)]])
    full = young_measure([[0.2, 0.3, 0.5]], acts, g)
    assert len(support_polytope(full, V, g).vertices[0]) == 3
    dirac = dirac_measure([1], acts, g)
    assert support_polytope(dirac, V, g).vertices[0] == ((1.0,),)
    partial = young_measure([[0.5, 0.5, 0.0]], acts, g)
    assert len(support_polytope(partial, V, g).vertices[0]) == 2


def test_purify_dirac_returns_unchanged():
    g = build_grid([0.1, 0.2, 0.3, 0.4], Mode.SPLITTABLE)
    C = make_partition([0, 1, 0, 1])
    acts = action_set(["a", "b", "c"])
    V = integrand_family([[(0.0, 1.0), (1.0, 0.0), (2.0, -1.0)]] * 4)
    choices = [2, 0, 1, 2]
    delta = dirac_measure(choices, acts, g)
    strategy, report = purify(delta, V, C, g, actions=acts)
    assert report.max_deviation == 0
    assert [strategy.cell_action(k) for k in range(4)] == choices
    # read back as a Young measure, the pure strategy is the input
    as_young = dirac_measure([strategy.cell_action(k) for k in range(4)], acts, g)
    assert as_young.rows == delta.rows


def test_payoff_is_the_chunk_weighted_fold_and_refuses_another_cell_count():
    g = build_grid([1, 2, 3, 4], Mode.SPLITTABLE)
    C = make_partition([0, 1, 0, 1])
    acts = action_set(["a", "b", "c"])
    V = integrand_family([[(0, 1), (1, 0), (2, -1)]] * 4)
    delta = young_measure([[F(1, 5), F(3, 10), F(1, 2)]] * 4, acts, g)
    strategy, _ = purify(delta, V, C, g, actions=acts)
    # the per-block loop the payoff ran before it became a block_average
    want = []
    for cells in C.blocks:
        row = []
        for j in range(V.dim):
            acc = 0
            for k in cells:
                for _, m, a in strategy.chunks[k]:
                    acc = acc + m * V.values[k][a][j]
            row.append(acc / sum(g.weights[k] for k in cells))
        want.append(tuple(row))
    assert strategy.payoff(V, C, g).values == tuple(want)
    with pytest.raises(ValueError, match="partition and grid cell counts differ"):
        strategy.payoff(V, make_partition([0, 1, 0]), g)


def test_purify_two_action_example():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    acts = action_set(["a", "b"])
    V = integrand_family([[(0.0,), (1.0,)]] * 4)
    delta = young_measure([[0.3, 0.7]] * 4, acts, g)
    strategy, report = purify(delta, V, trivial_partition(g), g, actions=acts)
    assert report.lhs.values[0][0] == pytest.approx(0.7)
    assert report.max_deviation <= TOL
    mass_b = sum(m for k in range(4) for _, m, a in strategy.chunks[k] if a == 1)
    assert mass_b == pytest.approx(0.7, abs=TOL)


def test_purify_ignores_zero_weight_extreme_action():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    acts = action_set(["a", "b", "huge"])
    V = integrand_family([[(0.0,), (1.0,), (50.0,)]] * 2)
    delta = young_measure([[0.4, 0.6, 0.0]] * 2, acts, g)
    strategy, report = purify(delta, V, trivial_partition(g), g, actions=acts)
    assert report.max_deviation <= TOL
    chosen = {a for k in range(2) for _, m, a in strategy.chunks[k] if m > 0}
    assert 2 not in chosen


def test_purify_support_soundness_random():
    rng = random.Random(103)
    for _ in range(40):
        g, C, delta, V = random_young_instance(rng)
        strategy, report = purify(delta, V, C, g)
        assert report.max_deviation <= 1e-8
        for k in range(g.cell_count):
            total = 0
            for _, m, a in strategy.chunks[k]:
                assert delta.rows[k][a] > 0
                total += m
            assert total == pytest.approx(float(g.weights[k]), abs=1e-9)
        oracle_lhs = direct_mixture_payoff(delta.rows, V, C, g)
        oracle_rhs = direct_payoff(strategy, V, C, g)
        assert bf_sub(oracle_lhs, oracle_rhs).max_abs() <= 1e-8


def test_purify_barycenter_containment():
    rng = random.Random(107)
    for _ in range(30):
        g, C, delta, V = random_young_instance(rng)
        mean = barycenter(delta, V, g)
        support = support_polytope(delta, V, g)
        for k in range(g.cell_count):
            # raises HullMembershipError on containment failure
            caratheodory_decompose(mean.values[k], support.vertices[k])


def test_purify_exact_zero_error():
    rng = random.Random(109)
    for _ in range(10):
        g, C, delta, V = random_young_instance(rng, exact=True)
        strategy, report = purify(delta, V, C, g)
        assert report.max_deviation == 0
        assert direct_payoff(strategy, V, C, g).values == \
            direct_mixture_payoff(delta.rows, V, C, g).values


def test_purify_atomic_within_bound():
    rng = random.Random(113)
    for _ in range(20):
        g, C, delta, V = random_young_instance(rng, max_cells=8)
        g = build_grid([float(w) for w in g.weights], Mode.ATOMIC)
        strategy, report = purify(delta, V, C, g)
        assert report.max_deviation <= report.residual_bound + 1e-12
        for k in range(g.cell_count):
            assert strategy.cell_action(k) is not None  # atomic cells stay whole


def test_density_step_constant_family():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    acts = action_set(["a", "b"])
    ones = IntegrandFamily(dim=1, values=(((1.0,), (1.0,)),) * 4)
    delta = young_measure([[0.5, 0.5]] * 4, acts, g)
    strategy, report = density_step(delta, [ones], trivial_partition(g), g)
    assert report.max_deviation == 0


def test_density_step_indicator_reduces_to_purify():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    acts = action_set(["a", "b"])
    phi = integrand_family([[(0.0,), (1.0,)]] * 4)
    delta = young_measure([[0.3, 0.7]] * 4, acts, g)
    s1, r1 = density_step(delta, [phi], trivial_partition(g), g)
    s2, r2 = purify(delta, phi, trivial_partition(g), g)
    assert r1.lhs.values == r2.lhs.values
    assert r1.max_deviation <= TOL and r2.max_deviation <= TOL


def test_density_step_three_integrands():
    rng = random.Random(127)
    g = random_grid(rng, 8, Mode.SPLITTABLE)
    C = random_partition(rng, g, 3)
    acts = action_set([f"a{i}" for i in range(4)])
    rows = []
    for _ in range(8):
        raw = [rng.uniform(0, 1) for _ in range(4)]
        s = sum(raw)
        rows.append([v / s for v in raw])
    delta = young_measure(rows, acts, g)
    phis = [integrand_family([[(rng.uniform(-2, 2),) for _ in range(4)]
                              for _ in range(8)]) for _ in range(3)]
    strategy, report = density_step(delta, phis, C, g)
    assert report.max_deviation <= 1e-8
    # each family member separately matches in conditional expectation
    stacked = stack_integrands(phis)
    lhs = direct_mixture_payoff(delta.rows, stacked, C, g)
    rhs = direct_payoff(strategy, stacked, C, g)
    assert bf_sub(lhs, rhs).max_abs() <= 1e-8


def test_purify_single_cell_mixture_uses_both_actions():
    g = build_grid([1.0], Mode.SPLITTABLE)
    acts = action_set(["a", "b"])
    V = integrand_family([[(0.0,), (1.0,)]])
    delta = young_measure([[0.5, 0.5]], acts, g)
    strategy, _ = purify(delta, V, trivial_partition(g), g, actions=acts)
    assert {a for _, _, a in strategy.chunks[0]} == {0, 1}


def test_purify_plays_the_action_whose_payoff_is_the_branch_value():
    # a0 = (0, 0) lies within tol of the hull of a1, a2 and a3, so the
    # extreme-point filter drops it and the decomposition runs over a1, a2
    # and a3; a match within tol would play a0 on a1's chunk and spend
    # 4.5e-10 of the 1e-9 bound
    g = build_grid([1.0], Mode.SPLITTABLE)
    C = trivial_partition(g)
    V = integrand_family([[(0.0, 0.0), (-0.9e-9, -0.9e-9), (1.0, 0.0), (0.0, 1.0)]])
    delta = young_measure([[0.25] * 4], action_set(["a0", "a1", "a2", "a3"]), g)
    strategy, report = purify(delta, V, C, g)
    selection, _ = bang_bang(support_polytope(delta, V, g), barycenter(delta, V, g), C, g)
    chunks = selection.chunks(0)
    assert [(off, m) for off, m, _ in strategy.chunks[0]] == [(off, m) for off, m, _, _ in chunks]
    assert [V.values[0][a] for _, _, a in strategy.chunks[0]] == [v for _, _, v, _ in chunks]
    assert [a for _, _, a in strategy.chunks[0]] == [1, 2, 3]
    assert report.max_deviation < 1e-15
