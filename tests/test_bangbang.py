import random

import pytest

from condbang import (Mode, bang_bang, bf_sub, build_grid, cond_exp,
                      constant_function, direct_integrate, extreme_point_indices,
                      make_partition, pointset_bang_bang, polytope_map,
                      simple_function, split_cells, trivial_partition)
from condbang.polytope import PolytopeMap

from gen import (interior_selection, random_bangbang_instance, random_grid,
                 random_partition, random_polytopes)

TOL = 1e-9


def assert_extreme_membership(sel, T, grid):
    for i, piece in enumerate(sel.pieces):
        for k in range(grid.cell_count):
            if piece.masses[k] > 0:
                ext = [T.vertices[k][j] for j in extreme_point_indices(T.vertices[k])]
                point = sel.values[i].values[k]
                assert any(max(abs(a - b) for a, b in zip(point, v)) <= TOL
                           for v in ext), f"cell {k} piece {i}"


def cell_values(sel, grid):
    """Per-cell values of a selection that puts each cell wholly in one piece."""
    rows = []
    for k, w in enumerate(grid.weights):
        owner = next(i for i, piece in enumerate(sel.pieces) if piece.masses[k] > w / 2)
        assert sel.pieces[owner].masses[k] == pytest.approx(w, abs=TOL), f"cell {k} is cut"
        rows.append(sel.values[owner].values[k])
    return tuple(rows)


def test_symmetric_two_point_case():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    sel, rep = bang_bang(T, constant_function(g, 0.5), C, g)
    assert rep.max_deviation <= TOL
    assert rep.lhs.values == ((0.5,), (0.5,))
    assert_extreme_membership(sel, T, g)


def test_extreme_input_is_identity():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    h = simple_function([0.0, 1.0, 1.0, 0.0])
    sel, rep = bang_bang(T, h, C, g)
    assert rep.max_deviation == 0
    assert cell_values(sel, g) == h.values
    # all pieces but one carry zero mass in every cell
    for k in range(4):
        live = [i for i, piece in enumerate(sel.pieces) if piece.masses[k] > 0]
        assert len(live) == 1


def test_two_block_example_with_direct_integration():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    T = polytope_map([[(0.0,), (2.0,)]] * 4)
    h = simple_function([0.5, 1.0, 1.5, 1.0])
    sel, rep = bang_bang(T, h, C, g)
    assert rep.rhs.values == ((0.75,), (1.25,))
    assert rep.max_deviation <= TOL
    # mass where the selection equals 2, per block, via direct integration
    mass_high = []
    for cells in C.blocks:
        mass = sum(piece.masses[k] for k in cells
                   for i, piece in enumerate(sel.pieces)
                   if sel.values[i].values[k][0] == 2.0)
        mass_high.append(mass / 0.5)
    assert mass_high == pytest.approx([0.375, 0.625], abs=TOL)
    oracle = direct_integrate(sel, None, C, g)
    assert bf_sub(oracle, rep.rhs).max_abs() <= TOL


def test_full_matrix_and_diagonal_identity_random():
    rng = random.Random(83)
    for _ in range(25):
        g, C, T, h = random_bangbang_instance(rng, max_cells=16, max_dim=3,
                                              max_vertices=6)
        sel, rep = bang_bang(T, h, C, g)
        assert rep.max_deviation <= TOL
        assert rep.partition.max_residual <= TOL  # all (i, j) pairs at once
        assert_extreme_membership(sel, T, g)
        n = T.dim
        # gluing identity: sum of diagonal terms reproduces E(h | C)
        glued = sel.conditional_expectation(C, g)
        assert bf_sub(glued, cond_exp(h, C, g)).max_abs() <= (n + 1) * TOL
        # round trip: the output selection's expectation is already verified;
        # feeding it back through the conditional expectation lands on E(h | C)
        assert bf_sub(direct_integrate(sel, None, C, g),
                      cond_exp(h, C, g)).max_abs() <= 10 * TOL


def test_idempotence_on_atomic_output():
    rng = random.Random(89)
    for _ in range(10):
        g = random_grid(rng, rng.randint(2, 8), Mode.ATOMIC)
        C = random_partition(rng, g, 3)
        T = random_polytopes(rng, g, 2, 5)
        h = interior_selection(rng, T)
        sel, _ = bang_bang(T, h, C, g)
        f = simple_function(cell_values(sel, g))
        sel2, rep2 = bang_bang(T, f, C, g)
        assert rep2.max_deviation == 0
        assert cell_values(sel2, g) == f.values


def test_idempotence_after_cell_splitting():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    sel, _ = bang_bang(T, constant_function(g, 0.5), C, g)
    # split each cell at the piece boundary: the output becomes cell-aligned
    cuts = [[sel.pieces[0].masses[k]] for k in range(4)]
    refined, ref = split_cells(g, cuts)
    C_r = ref.lift_partition(C)
    values = []
    for j in range(refined.cell_count):
        k = ref.parent[j]
        mid = ref.lo[j]
        i = 0 if mid < sel.pieces[0].masses[k] else 1
        values.append(sel.values[i].values[k])
    f_r = simple_function(values)
    T_r = PolytopeMap(dim=1, vertices=tuple(T.vertices[p] for p in ref.parent))
    sel2, rep2 = bang_bang(T_r, f_r, C_r, refined)
    assert rep2.max_deviation == 0
    assert cell_values(sel2, refined) == f_r.values


def test_pointset_drops_interior_points():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    C = make_partition([0, 0, 1, 1])
    P = polytope_map([[(0.0,), (1.0,), (0.5,)]] * 4)
    s = constant_function(g, 0.25)
    sel, rep = pointset_bang_bang(P, s, C, g)
    assert rep.max_deviation <= TOL
    for i, piece in enumerate(sel.pieces):
        for k in range(4):
            if piece.masses[k] > 0:
                assert sel.values[i].values[k][0] in (0.0, 1.0)


@pytest.mark.parametrize("mode", [Mode.SPLITTABLE, Mode.ATOMIC])
def test_pointset_is_bang_bang_over_the_extreme_points(mode):
    rng = random.Random(f"pointset-{mode.value}")
    for _ in range(12):
        g = random_grid(rng, rng.randint(2, 8), mode)
        C = random_partition(rng, g, 3)
        T = random_polytopes(rng, g, rng.randint(1, 3), 5)
        inside = interior_selection(rng, T)
        cells = []
        for verts, point in zip(T.vertices, inside.values):
            pts = list(verts)
            pts.insert(rng.randrange(len(pts) + 1), point)  # an interior point
            cells.append(pts)
        P = polytope_map(cells)
        s = interior_selection(rng, P)
        hulls = polytope_map([[cell[j] for j in extreme_point_indices(cell)]
                              for cell in P.vertices])
        assert pointset_bang_bang(P, s, C, g) == bang_bang(hulls, s, C, g)


def test_pointset_triangle_centroid():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    P = polytope_map([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]] * 4)
    s = constant_function(g, (1 / 3, 1 / 3))
    sel, rep = pointset_bang_bang(P, s, trivial_partition(g), g)
    assert rep.max_deviation <= TOL
    masses = sorted(piece.total_mass() for piece in sel.pieces)
    assert masses == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=TOL)


def test_integral_bang_bang_symmetric_case():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    _, rep = bang_bang(T, constant_function(g, 0.5), trivial_partition(g), g)
    assert rep.lhs.values == ((0.5,),)
    assert rep.max_deviation == 0


def test_integral_bang_bang_matches_integral():
    rng = random.Random(97)
    g = random_grid(rng, 8, Mode.SPLITTABLE)
    T = random_polytopes(rng, g, 2, 6)
    h = interior_selection(rng, T)
    sel, rep = bang_bang(T, h, trivial_partition(g), g)
    assert len(rep.lhs.values) == 1  # a single block: the whole space
    assert rep.max_deviation <= TOL
    for j in range(2):
        integral = sum(piece.masses[k] * sel.values[i].values[k][j]
                       for i, piece in enumerate(sel.pieces) for k in range(8))
        assert integral == pytest.approx(rep.rhs.values[0][j], abs=10 * TOL)


def test_diagonal_only_mode():
    rng = random.Random(101)
    g = random_grid(rng, 6, Mode.ATOMIC)
    C = random_partition(rng, g, 2)
    T = random_polytopes(rng, g, 2, 5)
    h = interior_selection(rng, T)
    _, full = bang_bang(T, h, C, g, polish_budget=0)
    _, diag = bang_bang(T, h, C, g, diagonal_only=True, polish_budget=0)
    assert diag.residual_bound < full.residual_bound
    assert diag.max_deviation <= diag.residual_bound + 1e-12
