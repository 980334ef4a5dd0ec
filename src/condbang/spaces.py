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
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric import Scalar, all_exact, fold, resolve_tol


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

    @cached_property
    def is_exact(self) -> bool:
        # the weights never change, so the regime is read off them once
        return all_exact(self.weights)

    # the regime's numbers, so that no caller spells out a regime choice
    @cached_property
    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0.0

    @cached_property
    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1.0

    @cached_property
    def half(self) -> Scalar:
        return self.one / 2

    @property
    def splittable(self) -> bool:
        return self.mode is Mode.SPLITTABLE

    def tol(self, tol: Scalar | None = None) -> Scalar:
        return resolve_tol(self.is_exact, tol)


def grid_from_weights(weights: Sequence[Scalar], mode: Mode | str) -> Grid:
    """Grid over already-normalized weights (no rescaling)."""
    mode = Mode(mode)
    weights = tuple(weights)
    if not weights:
        raise ValueError("grid needs at least one cell")
    for i, w in enumerate(weights):
        if isinstance(w, float) and not math.isfinite(w):
            raise ValueError(f"cell {i}: non-finite weight {w!r}")
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
    total = fold(cleaned)
    normalized = tuple(w / total for w in cleaned)
    # a float total can overflow, or dwarf a weight until it divides to zero,
    # or to a subnormal, whose products (a piece's mass, a mixture's payoff)
    # keep too few bits to be accurate relative to the weight
    low = min(normalized)
    if not low > 0 or (not exact and low < sys.float_info.min):
        raise ValueError(f"cell weights over their float total {total!r} are not all "
                         f"positive normal floats: the smallest is {low!r}")
    return Grid(weights=normalized, mode=mode)


# ---------------------------------------------------------------------------
# block partitions (finite sub-sigma-algebras)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPartition:
    """Surjection cell index -> block index; blocks generate the sub-algebra."""

    block_of: tuple[int, ...]
    block_count: int
    blocks: tuple[tuple[int, ...], ...]


def _indices(values: Iterable[object], error: str) -> tuple[int, ...]:
    """The values as ints, by ``operator.index``: 1.7 or "1" is refused, not
    truncated, with ``ValueError(error.format(k=position, v=value))`` for
    the first value that is not an integer."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        k = next(k for k, v in enumerate(values) if not hasattr(type(v), "__index__"))
        raise ValueError(error.format(k=k, v=values[k])) from None


def make_partition(block_of: Sequence[int], block_count: int | None = None) -> BlockPartition:
    labels = _indices(block_of, "cell {k}: block label {v!r} is not an integer")
    if not labels:
        raise ValueError("partition needs at least one cell")
    count = (max(labels) + 1) if block_count is None else \
        _indices([block_count], "block count {v!r} is not an integer")[0]
    # keyed by label, so that nothing grows with the block count before every
    # block is known to hold a cell
    cells: dict[int, list[int]] = {}
    for k, b in enumerate(labels):
        if not 0 <= b < count:
            raise ValueError(f"cell {k}: block index {b} out of range 0..{count - 1}")
        cells.setdefault(b, []).append(k)
    if len(cells) < count:
        empty = next(b for b in range(count) if b not in cells)
        raise ValueError(f"block {empty} has no cells")
    return BlockPartition(block_of=labels, block_count=count,
                          blocks=tuple(tuple(cells[b]) for b in range(count)))


def trivial_partition(grid: Grid) -> BlockPartition:
    return make_partition([0] * grid.cell_count, 1)


def block_masses(partition: BlockPartition, grid: Grid) -> tuple[Scalar, ...]:
    if len(partition.block_of) != grid.cell_count:
        raise ValueError("partition and grid cell counts differ")
    return tuple(fold(grid.weights[k] for k in cells) for cells in partition.blocks)


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
        return fold(self.masses)

    def triples(self) -> list[tuple[int, Scalar, Scalar]]:
        return [(k, self.offsets[k], m) for k, m in enumerate(self.masses) if m > 0]


def full_set(grid: Grid) -> RefinedSet:
    return RefinedSet(offsets=(grid.zero,) * grid.cell_count, masses=tuple(grid.weights))


def set_from_cells(grid: Grid, cells: Sequence[int]) -> RefinedSet:
    masses = [grid.zero] * grid.cell_count
    for k in cells:
        masses[k] = grid.weights[k]
    return RefinedSet(offsets=(grid.zero,) * grid.cell_count, masses=tuple(masses))


def set_from_triples(grid: Grid, triples: Sequence[tuple[int, Scalar, Scalar]]) -> RefinedSet:
    offsets = [grid.zero] * grid.cell_count
    masses = [grid.zero] * grid.cell_count
    cells = _indices((t[0] for t in triples), "set entry {k}: cell {v!r} is not an integer")
    for k, (_, offset, mass) in zip(cells, triples):
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
    if any(m > tol and abs(m - w) > tol for m, w in zip(E.masses, grid.weights)):
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
        # the regime's half, not m / 2, which would turn an int 0 mass into 0.0
        witness = RefinedSet(offsets=E.offsets, masses=tuple(m * grid.half for m in E.masses))
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

    def lift_partition(self, C: BlockPartition) -> BlockPartition:
        return make_partition([C.block_of[p] for p in self.parent], C.block_count)

    def lift_set(self, E: RefinedSet, grid: Grid) -> RefinedSet:
        """Trace of a per-cell interval set on the refined cells."""
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
                offsets.append(grid.zero)
                masses.append(grid.zero)
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
    for k, w in enumerate(grid.weights):
        points: list[Scalar] = [grid.zero]
        for c in sorted(set(cuts[k])):
            if c <= 0 or c >= w:
                continue
            if c > points[-1]:
                points.append(c)
        points.append(w)
        for a, b in zip(points, points[1:]):
            weights.append(b - a)
            parent.append(k)
            lo.append(a)
            hi.append(b)
    refined = grid_from_weights(weights, grid.mode)
    return refined, CellRefinement(parent=tuple(parent), lo=tuple(lo), hi=tuple(hi))


def subdivide(grid: Grid, parts: int) -> tuple[Grid, CellRefinement]:
    """Split every cell into ``parts`` equal children."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    # i / parts as a Fraction on exact grids, the float quotient on float ones
    cuts = [[w * (grid.one * i / parts) for i in range(1, parts)] for w in grid.weights]
    return split_cells(grid, cuts)
