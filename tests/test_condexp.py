import math
import random

import pytest

from condbang import (Mode, bf_sub, build_grid, ce_measure, cond_exp,
                      constant_function, full_set, integrate_against, lift_to_cells,
                      make_partition, set_from_cells, set_from_triples, sf_add, sf_mul,
                      sf_scale, simple_function, trivial_partition, weighted_ce_measure)
from condbang.spaces import RefinedSet

from gen import (random_function, random_grid, random_partition,
                 random_refined_set, refine_randomly)

TOL = 1e-9


def test_cond_exp_equal_weight_average():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    f = simple_function([1, 2, 3, 4])
    assert cond_exp(f, C, g).values == ((1.5,), (3.5,))


def test_cond_exp_preserves_constants():
    g = build_grid([0.1, 0.2, 0.7], Mode.ATOMIC)
    C = make_partition([0, 1, 0])
    f = constant_function(g, 7.0)
    for row in cond_exp(f, C, g).values:
        assert row[0] == pytest.approx(7.0)


def test_cond_exp_weighted_mean_oracle():
    weights = [0.1, 0.4, 0.3, 0.2]
    g = build_grid(weights, Mode.SPLITTABLE)
    f = simple_function([1, 2, 3, 4])
    got = cond_exp(f, trivial_partition(g), g).values[0][0]
    oracle = math.fsum(w * v for w, v in zip(weights, [1, 2, 3, 4]))
    assert oracle == pytest.approx(2.6, abs=1e-12)
    assert got == pytest.approx(oracle, abs=TOL)


def test_ce_measure_basic_cases():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    assert ce_measure(full_set(g), C, g).values == ((1.0,), (1.0,))
    assert ce_measure(set_from_cells(g, []), C, g).values == ((0.0,), (0.0,))
    assert ce_measure(set_from_cells(g, [0]), C, g).values == ((0.5,), (0.0,))


def test_weighted_ce_measure_reductions():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    f = simple_function([1, 2, 3, 4])
    E = random_refined_set(random.Random(3), g)
    ones = constant_function(g, 1.0)
    assert weighted_ce_measure(ones, E, C, g).values == ce_measure(E, C, g).values
    full = full_set(g)
    assert weighted_ce_measure(f, full, C, g).values == cond_exp(f, C, g).values


def test_weighted_ce_measure_left_halves():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    f = simple_function([1, 2, 3, 4])
    halves = RefinedSet(offsets=(0.0,) * 4, masses=(0.125,) * 4)
    got = weighted_ce_measure(f, halves, trivial_partition(g), g).values[0][0]
    assert got == pytest.approx(0.125 * (1 + 2 + 3 + 4), abs=TOL)  # 1.25


def test_integrate_against_examples():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = trivial_partition(g)
    f = constant_function(g, 1.0)
    g2 = simple_function([2.0, 0.0, 0.0, 0.0])
    got = integrate_against(g2, f, full_set(g), C, g)
    assert got.values[0][0] == pytest.approx(0.5, abs=TOL)  # 2 * 0.25
    zero = constant_function(g, 0.0)
    assert integrate_against(zero, f, full_set(g), C, g).values[0][0] == 0.0
    ones = constant_function(g, 1.0)
    E = set_from_triples(g, [(1, 0.05, 0.1)])
    assert integrate_against(ones, f, E, C, g).values == \
        weighted_ce_measure(sf_mul(ones, f), E, C, g).values


def test_integrate_against_requires_scalar_g():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    f = constant_function(g, (1.0, 2.0))
    with pytest.raises(ValueError):
        integrate_against(f, f, full_set(g), trivial_partition(g), g)


def test_linearity_random():
    rng = random.Random(11)
    for _ in range(300):
        g = random_grid(rng, rng.randint(1, 8), Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        f1 = random_function(rng, g, 2)
        f2 = random_function(rng, g, 2)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = cond_exp(sf_add(sf_scale(a, f1), sf_scale(b, f2)), C, g)
        rhs_f1 = cond_exp(f1, C, g)
        rhs_f2 = cond_exp(f2, C, g)
        for bi in range(C.block_count):
            for j in range(2):
                want = a * rhs_f1.values[bi][j] + b * rhs_f2.values[bi][j]
                assert abs(lhs.values[bi][j] - want) <= TOL


def test_tower_property_random():
    rng = random.Random(13)
    for _ in range(300):
        g = random_grid(rng, rng.randint(2, 10), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        D = refine_randomly(rng, C)
        f = random_function(rng, g, 2)
        inner = lift_to_cells(cond_exp(f, D, g), D, g)
        lhs = cond_exp(inner, C, g)
        rhs = cond_exp(f, C, g)
        assert bf_sub(lhs, rhs).max_abs() <= TOL


def test_l1_contraction_random():
    rng = random.Random(17)
    for _ in range(300):
        g = random_grid(rng, rng.randint(1, 8), Mode.ATOMIC)
        C = random_partition(rng, g, 4)
        f = random_function(rng, g, 3)
        ce = cond_exp(f, C, g)
        masses = [sum(g.weights[k] for k in cells) for cells in C.blocks]
        for j in range(3):
            lhs = sum(m * abs(ce.values[b][j]) for b, m in enumerate(masses))
            rhs = sum(w * abs(f.values[k][j]) for k, w in enumerate(g.weights))
            assert lhs <= rhs + TOL


def test_ce_measure_additivity_random():
    rng = random.Random(19)
    for _ in range(300):
        g = random_grid(rng, rng.randint(1, 8), Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        # two disjoint left-stacked sets in every cell
        t1, t2 = [], []
        for k, w in enumerate(g.weights):
            a = rng.uniform(0, 0.5) * w
            b = rng.uniform(0, 0.9) * (w - a)
            t1.append((k, 0.0, a))
            t2.append((k, a, b))
        E1 = set_from_triples(g, [t for t in t1 if t[2] > 0])
        E2 = set_from_triples(g, [t for t in t2 if t[2] > 0])
        union = set_from_triples(
            g, [(k, 0.0, E1.masses[k] + E2.masses[k]) for k in range(g.cell_count)
                if E1.masses[k] + E2.masses[k] > 0])
        lhs = ce_measure(union, C, g)
        r1 = ce_measure(E1, C, g)
        r2 = ce_measure(E2, C, g)
        for b in range(C.block_count):
            assert abs(lhs.values[b][0] - r1.values[b][0] - r2.values[b][0]) <= TOL


def test_ce_measure_l1_norm_is_total_mass():
    rng = random.Random(23)
    for _ in range(200):
        g = random_grid(rng, rng.randint(1, 8), Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        E = random_refined_set(rng, g)
        ce = ce_measure(E, C, g)
        masses = [sum(g.weights[k] for k in cells) for cells in C.blocks]
        total = sum(m * abs(ce.values[b][0]) for b, m in enumerate(masses))
        assert total == pytest.approx(E.total_mass(), abs=TOL)
