import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from condbang import spaces
from condbang import (Mode, RefinedSet, build_grid, coarseness_check, full_set,
                      make_partition, refine_partition, set_from_cells, set_from_triples,
                      split_cells, subdivide, trivial_partition)

from gen import random_grid, random_partition


@pytest.mark.parametrize("exact, mass", [(False, 0.0), (False, 5e-10), (False, 1e-9),
                                         (True, Fraction(0))],
                         ids=["float-zero", "float-below-tol", "float-at-tol", "exact-zero"])
def test_coarseness_refuses_a_set_whose_mass_does_not_exceed_the_tolerance(exact, mass):
    # the message names the condition and both numbers, whether the mass is
    # zero or positive but not above the tolerance
    g = build_grid([1, 1] if exact else [0.5, 0.5], Mode.SPLITTABLE)
    tol = Fraction(0) if exact else 1e-9
    E = set_from_triples(g, [(0, g.zero, mass)] if mass else [])
    assert E.total_mass() == mass
    with pytest.raises(ValueError) as err:
        coarseness_check(g, trivial_partition(g), E, tol=tol)
    assert str(err.value) == ("coarseness check needs a set whose mass exceeds the tolerance "
                              f"{tol!r}; its mass is {E.total_mass()!r}")


def test_build_grid_uniform_anchors():
    g = build_grid([0.25, 0.25, 0.25, 0.25], Mode.SPLITTABLE)
    assert g.weights == (0.25, 0.25, 0.25, 0.25)


def test_build_grid_normalizes_symmetric():
    g = build_grid([2, 2], Mode.ATOMIC)
    assert [float(w) for w in g.weights] == [0.5, 0.5]


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid([], Mode.ATOMIC)
    with pytest.raises(ValueError):
        build_grid([0.3, 0.0], Mode.ATOMIC)
    with pytest.raises(ValueError):
        build_grid([0.3, float("nan")], Mode.ATOMIC)


@pytest.mark.parametrize("weights, mode", [([1e308, 1e308], "splittable"),
                                           ([1e-300, 1e300], "atomic")])
def test_build_grid_refuses_weights_that_do_not_normalize_to_positive_floats(weights, mode):
    # the float total overflows to inf, where every weight divides to 0.0; or
    # 1e-300 / 1e300 underflows to 0.0, an atom of no mass
    with pytest.raises(ValueError, match="not all positive"):
        build_grid(weights, mode)


def test_build_grid_refuses_a_weight_that_normalizes_to_a_subnormal_float():
    # products of a subnormal weight keep too few bits to be accurate
    # relative to it, so a float grid stops at the smallest normal float
    tiny = sys.float_info.min
    for weights in ([1.0, 1e-320], [0.7, math.nextafter(tiny, 0.0), 0.3], [1e300, 1e-10]):
        with pytest.raises(ValueError, match="not all positive normal floats"):
            build_grid(weights, "atomic")
    assert build_grid([1.0, tiny], "splittable").weights == (1.0, tiny)
    assert build_grid([2.0, 2e-300], "atomic").weights == (1.0, 1e-300)
    # exact weights have no floor
    tiny_exact = Fraction(1, 10 ** 400)
    assert build_grid([1, tiny_exact], "atomic").weights == (1 / (1 + tiny_exact),
                                                             tiny_exact / (1 + tiny_exact))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_grid_from_weights_rejects_a_non_finite_weight(weight):
    with pytest.raises(ValueError, match=r"cell 1: non-finite weight"):
        spaces.grid_from_weights([0.5, weight], "splittable")


@pytest.mark.parametrize("label", [1.7, 1.0, "1", Fraction(1)])
def test_make_partition_refuses_a_label_that_is_not_an_integer(label):
    # int() would truncate 1.7 to block 1 without a word
    with pytest.raises(ValueError, match=r"cell 1: block label .* is not an integer"):
        make_partition([0, label, 1])
    # integers of other types pass as their index
    assert make_partition([0, np.int64(1), 1]).blocks == ((0,), (1, 2))


def test_make_partition_refuses_a_block_count_that_is_not_an_integer():
    # int() would truncate 2.7 to 2 blocks
    with pytest.raises(ValueError, match=r"block count 2\.7 is not an integer"):
        make_partition([0, 1], 2.7)
    assert make_partition([0, 1], np.int64(2)).block_count == 2


def test_set_from_triples_refuses_a_cell_that_is_not_an_integer():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    with pytest.raises(ValueError, match=r"set entry 1: cell 1\.9 is not an integer"):
        set_from_triples(g, [(0, 0.0, 0.25), (1.9, 0.0, 0.25)])
    assert set_from_triples(g, [(True, 0.0, 0.25)]).masses == (0.0, 0.25)


def test_make_partition_names_the_first_empty_block():
    with pytest.raises(ValueError, match="block 1 has no cells"):
        make_partition([0, 2, 2])
    with pytest.raises(ValueError, match="block 2 has no cells"):
        make_partition([1, 0], 3)
    with pytest.raises(ValueError, match=r"cell 1: block index -1 out of range 0\.\.4"):
        make_partition([0, -1], 5)
    assert make_partition([1, 0, 1]).blocks == ((1,), (0, 2))


@pytest.mark.parametrize("block_count", [None, 2 * 10 ** 6])
def test_make_partition_refuses_a_huge_label_without_allocating_per_block(block_count):
    # a label of 2e6 over two cells leaves block 1 empty; the refusal may not
    # cost memory in proportion to the label
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="block 1 has no cells"):
            make_partition([0, 2 * 10 ** 6 - 1], block_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_refine_partition_splits_blocks():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    E = set_from_cells(g, [1, 2])
    refined = refine_partition(C, E, g)
    assert refined.blocks == ((0,), (1,), (2,), (3,))


def test_refine_partition_idempotent_cases():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    assert refine_partition(C, set_from_cells(g, [0, 1]), g).blocks == C.blocks
    assert refine_partition(C, full_set(g), g).blocks == C.blocks
    E = set_from_cells(g, [1, 2])
    once = refine_partition(C, E, g)
    assert refine_partition(once, E, g).blocks == once.blocks


def test_refine_partition_rejects_subcell_sets():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = trivial_partition(g)
    E = set_from_triples(g, [(0, 0.0, 0.1)])
    with pytest.raises(ValueError):
        refine_partition(C, E, g)


def test_refine_partition_properties_random():
    rng = random.Random(101)
    for _ in range(200):
        g = random_grid(rng, rng.randint(2, 12), Mode.SPLITTABLE)
        C = random_partition(rng, g, 5)
        cells = [k for k in range(g.cell_count) if rng.random() < 0.5]
        E = set_from_cells(g, cells)
        refined = refine_partition(C, E, g)
        # every new block sits inside one block of C
        for block in refined.blocks:
            assert len({C.block_of[k] for k in block}) == 1
        member = set(cells)
        for block in refined.blocks:
            inside = {k in member for k in block}
            assert len(inside) == 1  # E is a union of new blocks


def test_coarseness_splittable_half_mass():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    verdict = coarseness_check(g, C)
    assert verdict.is_coarser
    for w, r in zip(verdict.witness_conditional, verdict.reference_conditional):
        assert w == pytest.approx(r / 2)
        assert 0 < w < r


def test_coarseness_finest_partition():
    g = build_grid([0.2, 0.3, 0.5], Mode.SPLITTABLE)
    verdict = coarseness_check(g, make_partition(range(g.cell_count)))
    assert verdict.is_coarser
    assert all(w == pytest.approx(0.5) for w in verdict.witness_conditional)


def test_coarseness_witness_of_an_exact_set_with_int_masses_stays_exact():
    g = build_grid([1, 1, 2], Mode.SPLITTABLE)
    E = RefinedSet(offsets=(0, 0, 0), masses=(Fraction(1, 4), 0, Fraction(1, 2)))
    verdict = coarseness_check(g, make_partition([0, 0, 1]), E)
    assert verdict.witness.masses == (Fraction(1, 8), 0, Fraction(1, 4))
    assert all(type(m) is Fraction for m in verdict.witness.masses)
    assert verdict.witness_conditional == (Fraction(1, 4), Fraction(1, 2))
    assert all(type(x) is Fraction for x in verdict.witness_conditional)


def test_coarseness_atomic_fails_with_atom():
    g = build_grid([2, 2], Mode.ATOMIC)
    verdict = coarseness_check(g, trivial_partition(g))
    assert not verdict.is_coarser
    live = [k for k, m in enumerate(verdict.witness.masses) if m > 0]
    assert len(live) == 1
    assert verdict.witness.masses[live[0]] == g.weights[live[0]]


def test_split_cells_preserves_mass_and_lifts():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    E = set_from_triples(g, [(0, 0.1, 0.2)])
    refined, ref = split_cells(g, [[0.1, 0.3], []])
    assert sum(refined.weights) == pytest.approx(1.0)
    children = [j for j, q in enumerate(ref.parent) if q == 0]
    assert [refined.weights[j] for j in children] == pytest.approx([0.1, 0.2, 0.2])
    lifted = ref.lift_set(E, refined)
    assert lifted.total_mass() == pytest.approx(E.total_mass())
    # the lifted set occupies exactly the middle child of cell 0
    mid = children[1]
    assert lifted.masses[mid] == pytest.approx(0.2)
    assert all(lifted.masses[j] <= 1e-12 for j in range(refined.cell_count) if j != mid)


def test_split_cells_reads_the_regime_of_an_exact_grid_once():
    g = build_grid([Fraction(k % 7 + 1) for k in range(300)], Mode.SPLITTABLE)
    cuts = [[w / 3, w / 2] for w in g.weights]
    with mock.patch.object(spaces, "all_exact", wraps=spaces.all_exact) as counted:
        refined, ref = split_cells(g, cuts)
    assert counted.call_count <= 1
    assert refined.cell_count == 900 and refined.is_exact
    assert sum(refined.weights) == 1


def test_subdivide_halves_exactly():
    g = build_grid([Fraction(3), Fraction(1)], Mode.ATOMIC)
    refined, ref = subdivide(g, 2)
    assert refined.cell_count == 4
    assert refined.weights == (Fraction(3, 8),) * 2 + (Fraction(1, 8),) * 2
    assert ref.parent == (0, 0, 1, 1)


def test_atomic_sets_are_all_or_nothing():
    g = build_grid([0.5, 0.5], Mode.ATOMIC)
    with pytest.raises(ValueError):
        set_from_triples(g, [(0, 0.0, 0.25)])
