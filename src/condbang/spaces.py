"""Discretized probability spaces.

A grid is an ordered list of positive cell weights summing to one.  In
splittable mode cell ``k`` is the half-open interval ``[c_k, c_k + w_k)`` of
``[0, 1)`` and measurable sets may cut cells; in atomic mode cells are
indivisible mass points.  Sub-sigma-algebras are block partitions of the
cells, measurable sets are per-cell (offset, mass) pairs, and the coarseness
diagnostic decides whether the partition leaves room below every set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .numeric import Scalar, all_exact, resolve_tol


class Mode(str, Enum):
    SPLITTABLE = "splittable"
    ATOMIC = "atomic"


@dataclass(frozen=True)
class Grid:
    """Cell weights (normalized) and mode."""

    weights: tuple[Scalar, ...]
    mode: Mode

    @property
    def cell_count(self) -> int:
        return len(self.weights)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.weights)

    @property
    def splittable(self) -> bool:
        return self.mode is Mode.SPLITTABLE

    def total_mass(self) -> Scalar:
        return sum(self.weights)

    def tol(self, tol: Scalar | None = None) -> Scalar:
        return resolve_tol(self.is_exact, tol)


def grid_from_weights(weights: Sequence[Scalar], mode: Mode | str) -> Grid:
    """Grid over already-normalized weights (no rescaling)."""
    mode = Mode(mode)
    weights = tuple(weights)
    if not weights:
        raise ValueError("grid needs at least one cell")
    if any(w <= 0 for w in weights):
        raise ValueError("cell weights must be positive")
    return Grid(weights=weights, mode=mode)


def build_grid(weights: Sequence[Scalar], mode: Mode | str) -> Grid:
    """Normalize positive weights to total mass one.

    All-int/Fraction input selects the exact regime; any float demotes the
    whole grid to binary64.
    """
    mode = Mode(mode)
    if len(weights) == 0:
        raise ValueError("grid needs at least one cell")
    exact = all_exact(weights)
    cleaned: list[Scalar] = []
    for i, w in enumerate(weights):
        if exact:
            w = Fraction(w)
        else:
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"cell {i}: non-finite weight {w!r}")
        if w <= 0:
            raise ValueError(f"cell {i}: weight must be positive, got {w!r}")
        cleaned.append(w)
    total = sum(cleaned)
    return Grid(weights=tuple(w / total for w in cleaned), mode=mode)


# ---------------------------------------------------------------------------
# block partitions (finite sub-sigma-algebras)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPartition:
    """Surjection cell index -> block index; blocks generate the sub-algebra."""

    block_of: tuple[int, ...]
    block_count: int
    blocks: tuple[tuple[int, ...], ...]


def make_partition(block_of: Sequence[int], block_count: int | None = None) -> BlockPartition:
    labels = tuple(int(b) for b in block_of)
    if not labels:
        raise ValueError("partition needs at least one cell")
    count = (max(labels) + 1) if block_count is None else int(block_count)
    cells: list[list[int]] = [[] for _ in range(count)]
    for k, b in enumerate(labels):
        if not 0 <= b < count:
            raise ValueError(f"cell {k}: block index {b} out of range 0..{count - 1}")
        cells[b].append(k)
    for b, members in enumerate(cells):
        if not members:
            raise ValueError(f"block {b} has no cells")
    return BlockPartition(block_of=labels, block_count=count,
                          blocks=tuple(tuple(c) for c in cells))


def trivial_partition(grid: Grid) -> BlockPartition:
    return make_partition([0] * grid.cell_count, 1)


def finest_partition(grid: Grid) -> BlockPartition:
    return make_partition(list(range(grid.cell_count)))


def block_masses(partition: BlockPartition, grid: Grid) -> tuple[Scalar, ...]:
    if len(partition.block_of) != grid.cell_count:
        raise ValueError("partition and grid cell counts differ")
    return tuple(sum(grid.weights[k] for k in cells) for cells in partition.blocks)


def refines(coarse: BlockPartition, fine: BlockPartition) -> bool:
    """True when every block of ``fine`` sits inside one block of ``coarse``."""
    if len(coarse.block_of) != len(fine.block_of):
        return False
    seen: dict[int, int] = {}
    for k, b in enumerate(fine.block_of):
        target = coarse.block_of[k]
        if seen.setdefault(b, target) != target:
            return False
    return True


# ---------------------------------------------------------------------------
# refined (possibly sub-cell) measurable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinedSet:
    """Per-cell left-anchored sub-interval: cell k carries [offset_k, offset_k + mass_k).

    Atomic grids restrict masses to {0, w_k}.  Only masses carry measure
    semantics; offsets make solver-produced pieces disjoint as point sets.
    """

    offsets: tuple[Scalar, ...]
    masses: tuple[Scalar, ...]

    def total_mass(self) -> Scalar:
        return sum(self.masses)

    def cells(self) -> tuple[int, ...]:
        return tuple(k for k, m in enumerate(self.masses) if m > 0)

    def triples(self) -> list[tuple[int, Scalar, Scalar]]:
        return [(k, self.offsets[k], m) for k, m in enumerate(self.masses) if m > 0]


def empty_set(grid: Grid) -> RefinedSet:
    zero = Fraction(0) if grid.is_exact else 0.0
    return RefinedSet(offsets=(zero,) * grid.cell_count, masses=(zero,) * grid.cell_count)


def full_set(grid: Grid) -> RefinedSet:
    zero = Fraction(0) if grid.is_exact else 0.0
    return RefinedSet(offsets=(zero,) * grid.cell_count, masses=tuple(grid.weights))


def set_from_cells(grid: Grid, cells: Sequence[int]) -> RefinedSet:
    zero = Fraction(0) if grid.is_exact else 0.0
    masses = [zero] * grid.cell_count
    for k in cells:
        masses[k] = grid.weights[k]
    return RefinedSet(offsets=(zero,) * grid.cell_count, masses=tuple(masses))


def set_from_triples(grid: Grid, triples: Sequence[tuple[int, Scalar, Scalar]]) -> RefinedSet:
    zero = Fraction(0) if grid.is_exact else 0.0
    offsets = [zero] * grid.cell_count
    masses = [zero] * grid.cell_count
    for cell, offset, mass in triples:
        k = int(cell)
        if not 0 <= k < grid.cell_count:
            raise ValueError(f"set references unknown cell {k}")
        if masses[k] > 0:
            raise ValueError(f"duplicate entry for cell {k}")
        offsets[k] = offset
        masses[k] = mass
    out = RefinedSet(offsets=tuple(offsets), masses=tuple(masses))
    validate_set(out, grid)
    return out


def validate_set(E: RefinedSet, grid: Grid, tol: Scalar | None = None) -> None:
    tol = grid.tol(tol)
    if len(E.masses) != grid.cell_count or len(E.offsets) != grid.cell_count:
        raise ValueError("set and grid cell counts differ")
    for k, (o, m, w) in enumerate(zip(E.offsets, E.masses, grid.weights)):
        if m < -tol or m > w + tol:
            raise ValueError(f"cell {k}: mass {m!r} outside [0, {w!r}]")
        if o < -tol or o + m > w + tol:
            raise ValueError(f"cell {k}: sub-interval [{o!r}, {o!r}+{m!r}) leaves the cell")
        if grid.mode is Mode.ATOMIC and m > tol and abs(m - w) > tol:
            raise ValueError(f"cell {k}: atomic mode requires all-or-nothing mass, got {m!r}")


def is_cell_aligned(E: RefinedSet, grid: Grid, tol: Scalar | None = None) -> bool:
    tol = grid.tol(tol)
    for m, w in zip(E.masses, grid.weights):
        if m > tol and abs(m - w) > tol:
            return False
    return True


def complement(E: RefinedSet, grid: Grid) -> RefinedSet:
    """Mass complement.  The complement of a left-anchored interval is again
    an interval only when offset is 0; other placements fall back to the
    canonical left anchor (mass semantics are always exact)."""
    zero = Fraction(0) if grid.is_exact else 0.0
    offsets: list[Scalar] = []
    masses: list[Scalar] = []
    for o, m, w in zip(E.offsets, E.masses, grid.weights):
        masses.append(w - m)
        offsets.append(o + m if o == 0 else zero)
    return RefinedSet(offsets=tuple(offsets), masses=tuple(masses))


def left_part(E: RefinedSet, grid: Grid, fraction: Scalar | None = None) -> RefinedSet:
    """Left-aligned sub-part of each per-cell interval (default: half the mass)."""
    if fraction is None:
        fraction = Fraction(1, 2) if grid.is_exact else 0.5
    masses = tuple(m * fraction for m in E.masses)
    return RefinedSet(offsets=E.offsets, masses=masses)


# ---------------------------------------------------------------------------
# sigma-algebra refinement by a cell-aligned set
# ---------------------------------------------------------------------------


def refine_partition(C: BlockPartition, E: RefinedSet, grid: Grid,
                     tol: Scalar | None = None) -> BlockPartition:
    """Coarsest partition refining ``C`` whose blocks do not straddle ``E``.

    Each block splits into its part inside E and its part outside; empty
    parts are dropped.  New blocks keep the original block order and are
    ordered by smallest cell within a split, so refining by a set already
    generated by ``C`` returns ``C`` itself.
    """
    tol = grid.tol(tol)
    validate_set(E, grid, tol)
    if not is_cell_aligned(E, grid, tol):
        raise ValueError("refine_partition requires a cell-aligned set; split cells first")
    member = [m > tol for m in E.masses]
    new_blocks: list[list[int]] = []
    for cells in C.blocks:
        inside = [k for k in cells if member[k]]
        outside = [k for k in cells if not member[k]]
        parts = [p for p in (inside, outside) if p]
        parts.sort(key=lambda p: p[0])
        new_blocks.extend(parts)
    block_of = [0] * len(C.block_of)
    for b, cells in enumerate(new_blocks):
        for k in cells:
            block_of[k] = b
    return make_partition(block_of, len(new_blocks))


# ---------------------------------------------------------------------------
# coarseness diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarsenessVerdict:
    """Outcome of the coarseness check.

    Splittable grids always pass: the witness is the left half (half the
    mass) of the queried set and ``witness_conditional`` strictly separates
    0 from ``reference_conditional`` on every block the set meets.  Atomic
    grids always fail: the witness is a single minimal-weight cell, an atom
    no proper subset can split.
    """

    is_coarser: bool
    witness: RefinedSet
    witness_conditional: tuple[Scalar, ...] | None
    reference_conditional: tuple[Scalar, ...] | None


def _conditional_masses(E: RefinedSet, C: BlockPartition, grid: Grid) -> tuple[Scalar, ...]:
    from .condexp import ce_measure  # condexp builds on this module
    return tuple(row[0] for row in ce_measure(E, C, grid).values)


def coarseness_check(grid: Grid, C: BlockPartition, E: RefinedSet | None = None,
                     tol: Scalar | None = None) -> CoarsenessVerdict:
    tol = grid.tol(tol)
    if E is None:
        E = full_set(grid)
    validate_set(E, grid, tol)
    if len(C.block_of) != grid.cell_count:
        raise ValueError("partition and grid cell counts differ")
    if not E.total_mass() > tol:
        raise ValueError("coarseness check needs a set of positive mass")
    if grid.splittable:
        witness = left_part(E, grid)
        return CoarsenessVerdict(
            is_coarser=True,
            witness=witness,
            witness_conditional=_conditional_masses(witness, C, grid),
            reference_conditional=_conditional_masses(E, C, grid),
        )
    atom = min(range(grid.cell_count), key=lambda k: (grid.weights[k], k))
    return CoarsenessVerdict(
        is_coarser=False,
        witness=set_from_cells(grid, [atom]),
        witness_conditional=None,
        reference_conditional=_conditional_masses(E, C, grid),
    )


def validate_witness(grid: Grid, C: BlockPartition, E: RefinedSet, candidate: RefinedSet,
                     tol: Scalar | None = None) -> bool:
    """Check a user-supplied witness: contained in E (interval-wise) and its
    conditional mass strictly between 0 and E's on some positive block."""
    tol = grid.tol(tol)
    validate_set(E, grid, tol)
    validate_set(candidate, grid, tol)
    for o, m, eo, em in zip(candidate.offsets, candidate.masses, E.offsets, E.masses):
        if m <= tol:
            continue
        if o < eo - tol or o + m > eo + em + tol:
            return False
    cand_cond = _conditional_masses(candidate, C, grid)
    ref_cond = _conditional_masses(E, C, grid)
    return any(c > tol and c < r - tol for c, r in zip(cand_cond, ref_cond))


# ---------------------------------------------------------------------------
# cell splitting (grid refinement)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellRefinement:
    """Bookkeeping for a grid whose cells were subdivided.

    ``parent[j]`` is the original cell of new cell ``j`` and ``[lo[j], hi[j])``
    its sub-interval inside that cell (offsets relative to the cell start).
    """

    parent: tuple[int, ...]
    lo: tuple[Scalar, ...]
    hi: tuple[Scalar, ...]
    children: tuple[tuple[int, ...], ...]

    def lift_partition(self, C: BlockPartition) -> BlockPartition:
        return make_partition([C.block_of[p] for p in self.parent], C.block_count)

    def lift_set(self, E: RefinedSet, grid: Grid) -> RefinedSet:
        """Trace of a per-cell interval set on the refined cells."""
        zero = Fraction(0) if grid.is_exact else 0.0
        offsets: list[Scalar] = []
        masses: list[Scalar] = []
        for j, p in enumerate(self.parent):
            a, b = self.lo[j], self.hi[j]
            s = E.offsets[p]
            t = E.offsets[p] + E.masses[p]
            lo = s if s > a else a
            hi = t if t < b else b
            if hi > lo:
                offsets.append(lo - a)
                masses.append(hi - lo)
            else:
                offsets.append(zero)
                masses.append(zero)
        return RefinedSet(offsets=tuple(offsets), masses=tuple(masses))


def split_cells(grid: Grid, cuts: Sequence[Sequence[Scalar]]) -> tuple[Grid, CellRefinement]:
    """Split each cell at the given interior offsets (relative to cell start).

    Weights of the children telescope to the parent weight; no
    renormalization happens, so data attached per parent cell can be copied
    onto children verbatim.
    """
    if len(cuts) != grid.cell_count:
        raise ValueError("need one (possibly empty) cut list per cell")
    weights: list[Scalar] = []
    parent: list[int] = []
    lo: list[Scalar] = []
    hi: list[Scalar] = []
    children: list[tuple[int, ...]] = []
    for k, w in enumerate(grid.weights):
        zero = Fraction(0) if grid.is_exact else 0.0
        points: list[Scalar] = [zero]
        for c in sorted(set(cuts[k])):
            if c <= 0 or c >= w:
                continue
            if c > points[-1]:
                points.append(c)
        points.append(w)
        kids = []
        for a, b in zip(points, points[1:]):
            kids.append(len(weights))
            weights.append(b - a)
            parent.append(k)
            lo.append(a)
            hi.append(b)
        children.append(tuple(kids))
    refined = grid_from_weights(weights, grid.mode)
    return refined, CellRefinement(parent=tuple(parent), lo=tuple(lo), hi=tuple(hi),
                                   children=tuple(children))


def subdivide(grid: Grid, parts: int) -> tuple[Grid, CellRefinement]:
    """Split every cell into ``parts`` equal children."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    cuts = []
    for w in grid.weights:
        if grid.is_exact:
            cuts.append([w * Fraction(i, parts) for i in range(1, parts)])
        else:
            cuts.append([w * (i / parts) for i in range(1, parts)])
    return split_cells(grid, cuts)
