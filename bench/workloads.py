"""Seeded problem-document generators for the benchmark workloads.

Every document is a plain JSON object, exactly what ``condbang <command>``
would read from a file; the program receives nothing else.  This module does
not import ``condbang`` or the test-suite generators, so editing a test never
changes the benchmark's inputs.

Each generator also returns the largest |target| entry of its instance,
computed here from the inputs (not from the program's report), which scales
the reported deviation into ``deviation_rel_max``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence


def _rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _normalized(weights: Sequence) -> list:
    # Same summation order and division as the program's grid normalization,
    # so whole-cell set masses written here equal the grid's cell weights.
    total = sum(weights)
    return [w / total for w in weights]


def _balanced_blocks(rng: random.Random, cells: int, blocks: int) -> list[int]:
    order = list(range(cells))
    rng.shuffle(order)
    block_of = [0] * cells
    for pos, k in enumerate(order):
        block_of[k] = pos % blocks
    return block_of


def _fine_blocks(rng: random.Random, cells: int, lo: int, hi: int) -> list[int]:
    """Blocks of lo..hi cells over a random permutation (a short tail merges)."""
    order = list(range(cells))
    rng.shuffle(order)
    block_of = [0] * cells
    label, pos = 0, 0
    while pos < cells:
        size = rng.randint(lo, hi)
        if cells - pos - size < lo:
            size = cells - pos
        for k in order[pos:pos + size]:
            block_of[k] = label
        label += 1
        pos += size
    return block_of


def _block_max_abs(weights: Sequence, block_of: Sequence[int], vectors: Sequence) -> float:
    """max |E(v | C)| over blocks and coordinates for per-cell vectors v."""
    blocks = max(block_of) + 1
    dim = len(vectors[0])
    mass = [0] * blocks
    acc = [[0] * dim for _ in range(blocks)]
    for w, b, vec in zip(weights, block_of, vectors):
        mass[b] += w
        for j, v in enumerate(vec):
            acc[b][j] += w * v
    return max(abs(float(a / mass[b])) for b in range(blocks) for a in acc[b])


def _mixture(rng: random.Random, points: Sequence[Sequence], exact: bool) -> list:
    """A strictly positive convex combination of the points."""
    if exact:
        lam = [rng.randint(1, 5) for _ in points]
        s = sum(lam)
        return [sum(Fraction(l, s) * p[j] for l, p in zip(lam, points))
                for j in range(len(points[0]))]
    lam = [rng.uniform(0.05, 1.0) for _ in points]
    s = sum(lam)
    return [sum(l / s * p[j] for l, p in zip(lam, points)) for j in range(len(points[0]))]


def bang_bang_doc(rng: random.Random, cells: int, *, dim: int, vertices: int,
                  blocks: int, exact: bool) -> tuple[dict, float]:
    """Atomic bang-bang over random vertex sets with a hull-interior selection."""
    if exact:
        weights = [Fraction(rng.randint(1, 9)) for _ in range(cells)]
    else:
        weights = [rng.uniform(0.2, 1.0) for _ in range(cells)]
    block_of = _balanced_blocks(rng, cells, blocks)
    polytopes, selection = [], []
    for _ in range(cells):
        verts: set = set()
        while len(verts) < vertices:
            if exact:
                verts.add(tuple(Fraction(rng.randint(0, 12), rng.randint(1, 3))
                                for _ in range(dim)))
            else:
                verts.add(tuple(rng.uniform(0.0, 4.0) for _ in range(dim)))
        pts = sorted(verts)
        rng.shuffle(pts)
        polytopes.append(pts)
        selection.append(_mixture(rng, pts, exact))
    enc = _rational if exact else float
    doc = {
        "space": {"weights": [enc(w) for w in weights], "mode": "atomic"},
        "partition": {"blocks": block_of},
        "payload": {
            "polytopes": {"dim": dim, "vertices": [[[enc(c) for c in p] for p in pts]
                                                   for pts in polytopes]},
            "selection": {"dim": dim, "values": [[enc(c) for c in s] for s in selection]},
        },
    }
    if exact:
        doc["parameters"] = {"exact": True}
    return doc, _block_max_abs(weights, block_of, selection)


def pointset_doc(rng: random.Random, cells: int, *, dim: int, points: int,
                 blocks: int) -> tuple[dict, float]:
    """Splittable bang-bang over Gaussian point clouds; many points are interior."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(cells)]
    block_of = _balanced_blocks(rng, cells, blocks)
    clouds, selection = [], []
    for _ in range(cells):
        pts = [[3.0 + rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(points)]
        clouds.append(pts)
        selection.append(_mixture(rng, pts, False))
    doc = {
        "space": {"weights": weights, "mode": "splittable"},
        "partition": {"blocks": block_of},
        "payload": {"points": {"dim": dim, "vertices": clouds},
                    "selection": {"dim": dim, "values": selection}},
    }
    return doc, _block_max_abs(weights, block_of, selection)


def purify_doc(rng: random.Random, cells: int, *, actions: int, dim: int, types: int,
               blocks: int) -> tuple[dict, float]:
    """Splittable purification; payoff tables and supports come from shared
    player types, so many cells share one support polytope."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(cells)]
    block_of = _balanced_blocks(rng, cells, blocks)
    tables = [[[rng.uniform(1.0, 3.0) for _ in range(dim)] for _ in range(actions)]
              for _ in range(types)]
    supports = [sorted(rng.sample(range(actions), rng.randint(3, actions)))
                for _ in range(types)]
    integrands, mixtures, means = [], [], []
    for _ in range(cells):
        t = rng.randrange(types)
        raw = [rng.uniform(0.05, 1.0) if a in supports[t] else 0.0 for a in range(actions)]
        s = sum(raw)
        row = [v / s for v in raw]
        integrands.append(tables[t])
        mixtures.append(row)
        means.append([sum(row[a] * tables[t][a][j] for a in range(actions))
                      for j in range(dim)])
    doc = {
        "space": {"weights": weights, "mode": "splittable"},
        "partition": {"blocks": block_of},
        "payload": {"actions": [f"a{a}" for a in range(actions)],
                    "young_measure": mixtures,
                    "integrands": {"dim": dim, "values": integrands}},
    }
    return doc, _block_max_abs(weights, block_of, means)


def partition_doc(rng: random.Random, cells: int, *, pieces: int, moment_dim: int,
                  block_sizes: tuple[int, int]) -> tuple[dict, float]:
    """Atomic partition into pieces with per-piece weight functions."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(cells)]
    block_of = _fine_blocks(rng, cells, *block_sizes)
    moments = [[rng.uniform(0.5, 2.0) for _ in range(moment_dim)] for _ in range(cells)]
    alpha = []
    for _ in range(cells):
        raw = [rng.uniform(0.05, 1.0) for _ in range(pieces)]
        s = sum(raw)
        row = [v / s for v in raw]
        row[-1] = 1.0 - sum(row[:-1])
        alpha.append(row)
    targets = [[a * h for a in row for h in mom] for row, mom in zip(alpha, moments)]
    doc = {
        "space": {"weights": weights, "mode": "atomic"},
        "partition": {"blocks": block_of},
        "payload": {"moments": {"dim": moment_dim, "values": moments},
                    "weights": {"dim": pieces, "values": alpha}},
    }
    return doc, _block_max_abs(weights, block_of, targets)


def half_set_doc(rng: random.Random, cells: int, *, moment_dim: int,
                 block_sizes: tuple[int, int]) -> tuple[dict, float]:
    """Atomic half-set of a random union of whole cells."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(cells)]
    norm = _normalized(weights)
    block_of = _fine_blocks(rng, cells, *block_sizes)
    moments = [[rng.uniform(0.5, 2.0) for _ in range(moment_dim)] for _ in range(cells)]
    inside = [rng.random() < 0.7 for _ in range(cells)]
    if not any(inside):
        inside[0] = True
    triples = [[k, 0.0, norm[k]] for k in range(cells) if inside[k]]
    halves = [[h / 2 if inside[k] else 0.0 for h in moments[k]] for k in range(cells)]
    doc = {
        "space": {"weights": weights, "mode": "atomic"},
        "partition": {"blocks": block_of},
        "payload": {"moments": {"dim": moment_dim, "values": moments},
                    "set": {"triples": triples}},
    }
    return doc, _block_max_abs(weights, block_of, halves)


@dataclass(frozen=True)
class Instance:
    command: str
    document: dict
    cells: int
    target_max: float


Maker = Callable[[random.Random, int, int], Instance]


def _atomic_bangbang(rng: random.Random, i: int, cells: int) -> Instance:
    doc, target = bang_bang_doc(rng, cells, dim=2, vertices=6, blocks=8, exact=False)
    return Instance("bang-bang", doc, cells, target)


# The mixed workloads run their slower command on two of every three
# instances, so the median and the tail fall on that command whatever the
# number of instances a run completes.


def _splittable_geometry(rng: random.Random, i: int, cells: int) -> Instance:
    if i % 3 != 2:
        doc, target = pointset_doc(rng, cells, dim=3, points=12, blocks=8)
        return Instance("pointset-bang-bang", doc, cells, target)
    doc, target = purify_doc(rng, cells, actions=8, dim=3, types=16, blocks=8)
    return Instance("purify", doc, cells, target)


def _exact_atomic(rng: random.Random, i: int, cells: int) -> Instance:
    doc, target = bang_bang_doc(rng, cells, dim=2, vertices=6, blocks=8, exact=True)
    return Instance("bang-bang", doc, cells, target)


def _atomic_fine_blocks(rng: random.Random, i: int, cells: int) -> Instance:
    # moment dims 2 and 3 alternate rather than being drawn, so that every
    # run holds the three kinds of instance in the same shares
    if i % 3 != 2:
        doc, target = partition_doc(rng, cells, pieces=3, moment_dim=2 + i % 3,
                                    block_sizes=(5, 6))
        return Instance("partition", doc, cells, target)
    doc, target = half_set_doc(rng, cells, moment_dim=2, block_sizes=(5, 6))
    return Instance("half-set", doc, cells, target)


@dataclass(frozen=True)
class Workload:
    make: Maker
    cells: int       # cells per instance at full size


WORKLOADS: dict[str, Workload] = {
    "atomic-bangbang": Workload(_atomic_bangbang, 2000),
    "splittable-geometry": Workload(_splittable_geometry, 1000),
    "exact-atomic": Workload(_exact_atomic, 160),
    "atomic-fine-blocks": Workload(_atomic_fine_blocks, 2000),
}


def instances(workload: str, seed: int, cells: int | None = None) -> Iterator[Instance]:
    """Endless stream of distinct instances, fixed by (workload, seed)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    i = 0
    while True:
        yield spec.make(rng, i, spec.cells if cells is None else cells)
        i += 1
