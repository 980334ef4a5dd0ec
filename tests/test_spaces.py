import random
from fractions import Fraction

import pytest

from condbang import (Mode, build_grid, coarseness_check, complement, full_set,
                      left_part, make_partition, refine_partition, refines,
                      set_from_cells, set_from_triples, split_cells, subdivide,
                      trivial_partition, finest_partition, validate_witness)

from gen import random_grid, random_partition, random_refined_set


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
        assert refines(C, refined)
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
    verdict = coarseness_check(g, finest_partition(g))
    assert verdict.is_coarser
    assert all(w == pytest.approx(0.5) for w in verdict.witness_conditional)


def test_coarseness_atomic_fails_with_atom():
    g = build_grid([2, 2], Mode.ATOMIC)
    verdict = coarseness_check(g, trivial_partition(g))
    assert not verdict.is_coarser
    live = [k for k, m in enumerate(verdict.witness.masses) if m > 0]
    assert len(live) == 1
    assert verdict.witness.masses[live[0]] == g.weights[live[0]]


def test_validate_witness():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    E = full_set(g)
    assert validate_witness(g, C, E, left_part(E, g))
    # a block of C is matched by a trace set, so it is no witness
    assert not validate_witness(g, C, E, set_from_cells(g, [0, 1]))


def test_complement_partitions_mass():
    rng = random.Random(7)
    for _ in range(100):
        g = random_grid(rng, rng.randint(1, 10), Mode.SPLITTABLE)
        E = random_refined_set(rng, g)
        Ec = complement(E, g)
        assert E.total_mass() + Ec.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_split_cells_preserves_mass_and_lifts():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    E = set_from_triples(g, [(0, 0.1, 0.2)])
    refined, ref = split_cells(g, [[0.1, 0.3], []])
    assert sum(refined.weights) == pytest.approx(1.0)
    assert [refined.weights[j] for j in ref.children[0]] == pytest.approx([0.1, 0.2, 0.2])
    lifted = ref.lift_set(E, refined)
    assert lifted.total_mass() == pytest.approx(E.total_mass())
    # the lifted set occupies exactly the middle child of cell 0
    mid = ref.children[0][1]
    assert lifted.masses[mid] == pytest.approx(0.2)
    assert all(lifted.masses[j] <= 1e-12 for j in range(refined.cell_count) if j != mid)


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
