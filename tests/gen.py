"""Random instance generators shared across the test suite.

Everything is driven by an explicit ``random.Random`` so failures reproduce;
exact-regime variants draw small rationals so denominators stay tame under
pivoting, except where ``coprime_denominators`` makes them hard on purpose.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from condbang import (BlockPartition, Grid, Mode, PolytopeMap, SimpleFunction,
                      build_grid, make_partition, polytope_map, set_from_triples)


def random_grid(rng: random.Random, m: int, mode: str | Mode) -> Grid:
    return build_grid([rng.uniform(0.2, 1.0) for _ in range(m)], mode)


def random_exact_grid(rng: random.Random, m: int, mode: str | Mode) -> Grid:
    return build_grid([Fraction(rng.randint(1, 24)) for _ in range(m)], mode)


def random_partition(rng: random.Random, grid: Grid, max_blocks: int) -> BlockPartition:
    m = grid.cell_count
    blocks = rng.randint(1, min(max_blocks, m))
    # one distinct cell per block keeps the partition surjective
    anchors = rng.sample(range(m), blocks)
    block_of = [0] * m
    for b, k in enumerate(anchors):
        block_of[k] = b
    for k in range(m):
        if k not in anchors:
            block_of[k] = rng.randrange(blocks)
    return make_partition(block_of, blocks)


def refine_randomly(rng: random.Random, C: BlockPartition) -> BlockPartition:
    """A random partition refining C (splits some blocks in two)."""
    block_of = list(C.block_of)
    next_label = C.block_count
    for cells in C.blocks:
        if len(cells) >= 2 and rng.random() < 0.7:
            moved = [k for k in cells if rng.random() < 0.5]
            if moved and len(moved) < len(cells):
                for k in moved:
                    block_of[k] = next_label
                next_label += 1
    # compact labels
    seen: dict[int, int] = {}
    for k, b in enumerate(block_of):
        block_of[k] = seen.setdefault(b, len(seen))
    return make_partition(block_of, len(seen))


def random_function(rng: random.Random, grid: Grid, dim: int,
                    lo: float = -2.0, hi: float = 2.0) -> SimpleFunction:
    return SimpleFunction(dim=dim, values=tuple(
        tuple(rng.uniform(lo, hi) for _ in range(dim))
        for _ in range(grid.cell_count)))


def random_exact_function(rng: random.Random, grid: Grid, dim: int,
                          span: int = 8, den: int = 4) -> SimpleFunction:
    return SimpleFunction(dim=dim, values=tuple(
        tuple(Fraction(rng.randint(-span * den, span * den), den) for _ in range(dim))
        for _ in range(grid.cell_count)))


def random_alpha(rng: random.Random, grid: Grid, p: int) -> SimpleFunction:
    rows = []
    for _ in range(grid.cell_count):
        raw = [rng.uniform(0.05, 1.0) for _ in range(p)]
        s = sum(raw)
        row = [v / s for v in raw]
        row[-1] = 1.0 - sum(row[:-1])  # row sums to one up to the last ulp
        rows.append(tuple(row))
    return SimpleFunction(dim=p, values=tuple(rows))


def random_exact_alpha(rng: random.Random, grid: Grid, p: int) -> SimpleFunction:
    rows = []
    for _ in range(grid.cell_count):
        raw = [Fraction(rng.randint(1, 9)) for _ in range(p)]
        s = sum(raw)
        rows.append(tuple(v / s for v in raw))
    return SimpleFunction(dim=p, values=tuple(rows))


def random_refined_set(rng: random.Random, grid: Grid, subcell: bool = True):
    """Random positive-mass set; sub-cell intervals only on splittable grids."""
    triples = []
    for k, w in enumerate(grid.weights):
        u = rng.random()
        if u < 0.3:
            continue
        if grid.splittable and subcell and u < 0.75:
            off = rng.uniform(0, 0.6) * w
            mass = rng.uniform(0.2, 1.0) * (w - off)
            triples.append((k, off, mass))
        else:
            triples.append((k, 0.0, w))
    if not triples:
        k = rng.randrange(grid.cell_count)
        triples.append((k, 0.0, grid.weights[k]))
    return set_from_triples(grid, triples)


def random_polytopes(rng: random.Random, grid: Grid, n: int,
                     max_vertices: int = 10) -> PolytopeMap:
    cells = []
    for _ in range(grid.cell_count):
        count = rng.randint(n + 1, max_vertices)
        cells.append([tuple(rng.uniform(-2, 2) for _ in range(n)) for _ in range(count)])
    return polytope_map(cells)


def random_exact_polytopes(rng: random.Random, grid: Grid, n: int,
                           max_vertices: int = 6) -> PolytopeMap:
    cells = []
    for _ in range(grid.cell_count):
        count = rng.randint(n + 1, max_vertices)
        cells.append([tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(n)) for _ in range(count)])
    return polytope_map(cells)


def interior_selection(rng: random.Random, T: PolytopeMap, exact: bool = False
                       ) -> SimpleFunction:
    """Per cell, a strictly positive convex combination of all vertices."""
    rows = []
    for verts in T.vertices:
        if exact:
            lam = [Fraction(rng.randint(1, 9)) for _ in verts]
        else:
            lam = [rng.uniform(0.05, 1.0) for _ in verts]
        s = sum(lam)
        lam = [v / s for v in lam]
        rows.append(tuple(sum(l * v[j] for l, v in zip(lam, verts))
                          for j in range(T.dim)))
    return SimpleFunction(dim=T.dim, values=tuple(rows))


def random_bangbang_instance(rng: random.Random, *, max_cells: int = 64,
                             max_blocks: int = 8, max_dim: int = 4,
                             max_vertices: int = 10, exact: bool = False):
    m = rng.randint(2, max_cells)
    n = rng.randint(1, max_dim)
    if exact:
        grid = random_exact_grid(rng, m, Mode.SPLITTABLE)
        T = random_exact_polytopes(rng, grid, n, min(max_vertices, 6))
    else:
        grid = random_grid(rng, m, Mode.SPLITTABLE)
        T = random_polytopes(rng, grid, n, max_vertices)
    C = random_partition(rng, grid, max_blocks)
    h = interior_selection(rng, T, exact=exact)
    return grid, C, T, h


def random_atomic_instance(rng: random.Random, *, max_cells: int = 16,
                           max_pieces: int = 5, max_dim: int = 3,
                           enumerable: bool = True, exact: bool = False):
    p = rng.randint(2, max_pieces)
    if enumerable:
        cap = {2: 16, 3: 12, 4: 10, 5: 8}[min(p, 5)]
        m = rng.randint(2, min(max_cells, cap))
    else:
        m = rng.randint(2, max_cells)
    d = rng.randint(1, max_dim)
    if exact:
        grid = random_exact_grid(rng, m, Mode.ATOMIC)
        h = random_exact_function(rng, grid, d)
        alpha = random_exact_alpha(rng, grid, p)
    else:
        grid = random_grid(rng, m, Mode.ATOMIC)
        h = random_function(rng, grid, d)
        alpha = random_alpha(rng, grid, p)
    C = random_partition(rng, grid, max_blocks=min(4, m))
    return grid, C, h, alpha, p


def random_young_instance(rng: random.Random, *, max_cells: int = 12,
                          max_actions: int = 6, max_dim: int = 3,
                          max_blocks: int = 4, exact: bool = False):
    m = rng.randint(2, max_cells)
    a = rng.randint(2, max_actions)
    n = rng.randint(1, max_dim)
    if exact:
        grid = random_exact_grid(rng, m, Mode.SPLITTABLE)
    else:
        grid = random_grid(rng, m, Mode.SPLITTABLE)
    C = random_partition(rng, grid, max_blocks)
    rows = []
    for _ in range(m):
        if exact:
            raw = [Fraction(rng.randint(0, 6)) for _ in range(a)]
            if not any(raw):
                raw[rng.randrange(a)] = Fraction(1)
        else:
            raw = [rng.uniform(0, 1) if rng.random() < 0.8 else 0.0 for _ in range(a)]
            if not any(v > 0 for v in raw):
                raw[rng.randrange(a)] = 1.0
        s = sum(raw)
        rows.append(tuple(v / s for v in raw))
    if exact:
        values = tuple(tuple(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                                   for _ in range(n)) for _ in range(a))
                       for _ in range(m))
    else:
        values = tuple(tuple(tuple(rng.uniform(-2, 2) for _ in range(n))
                             for _ in range(a)) for _ in range(m))
    from condbang import IntegrandFamily, YoungMeasure
    return grid, C, YoungMeasure(rows=tuple(rows)), IntegrandFamily(dim=n, values=values)


def coprime_denominators(rng: random.Random, count: int, bits: int = 64) -> list[int]:
    """``count`` pairwise coprime ints just below 2**bits."""
    dens: list[int] = []
    while len(dens) < count:
        d = 2 ** bits - rng.randrange(1, 2 ** 24)
        if all(math.gcd(d, e) == 1 for e in dens):
            dens.append(d)
    return dens
