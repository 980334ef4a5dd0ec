"""JSON problem and report documents.

One UTF-8 JSON document per file.  Numbers are decimal floats in the default
regime and ``{"num": int, "den": int}`` objects in exact mode (which rejects
floating-point literals); a float must be finite, so ``NaN``, ``Infinity``,
overflowing literals, and integers or rationals beyond the float range in the
float regime are schema errors.  Refined sets travel as sorted
(cell, offset, mass) triples with offsets relative to the cell start.
Serialization is canonical (sorted keys, tight separators, trailing
newline), so parse-then-serialize is byte-stable and reports can be
digested.

A numeric table (function values, vertex sets, triples, mixture rows,
payoff vectors, weights, chunks) is read whole: one regime check per table,
made through iterators, with no per-number call in the float regime.  Only
a table that fails the check is read number by number, by ``parse_number``
under a label built for each list, so that the error names the offending
entry; a table's values, and every error message, label and exit code, are
those of that per-number path.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterator

from .condexp import BlockFunction, SimpleFunction
from .numeric import Scalar
from .polytope import PolytopeMap
from .purify import ActionSet, IntegrandFamily, YoungMeasure, action_set, young_measure
from .spaces import (BlockPartition, Grid, Mode, RefinedSet, build_grid,
                     make_partition, set_from_triples, trivial_partition)


class SchemaError(Exception):
    """The document does not follow the expected JSON schema."""


def canonical_dumps(obj: Any) -> str:
    """Sorted keys, no spaces, text as is, no NaN or infinity, one newline.
    Documents and reports are acyclic trees, so no circular check runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False, check_circular=False) + "\n"


_ECHO = reprlib.Repr()
# one level of nesting, two items per container and 24 characters per string
# or number: an echo stays under 120 characters whatever the value's size
_ECHO.maxlevel = 1
_ECHO.maxtuple = _ECHO.maxlist = _ECHO.maxdict = _ECHO.maxset = 2
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 24


def echo(v: Any) -> str:
    """``repr`` of an offending document value, cut to a bounded length, for
    an error message."""
    return _ECHO.repr(v)


def document_digest(obj: Any) -> str:
    return "sha256:" + hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------


def parse_number(v: Any, exact: bool, what: str) -> Scalar:
    if isinstance(v, bool):
        raise SchemaError(f"{what}: expected a number, got a boolean")
    if isinstance(v, dict):
        if set(v) != {"num", "den"}:
            raise SchemaError(f"{what}: rational object needs exactly num and den")
        num, den = v["num"], v["den"]
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) \
                or isinstance(den, bool) or den == 0:
            raise SchemaError(f"{what}: rational needs integer num and nonzero integer den")
        v = Fraction(num, den)
    elif isinstance(v, float):
        if exact:
            raise SchemaError(f"{what}: exact mode rejects floating-point literals")
        if not math.isfinite(v):
            raise SchemaError(f"{what}: non-finite number {v!r}")
        return v
    elif not isinstance(v, int):
        raise SchemaError(f"{what}: expected a number, got {type(v).__name__}")
    if exact:
        return v if isinstance(v, Fraction) else Fraction(v)
    try:  # rounded to a float; beyond the float range, as the literal 1e999 is
        return float(v)
    except OverflowError:
        raise SchemaError(f"{what}: number beyond the float range") from None


def encode_number(x: Scalar, exact: bool) -> Any:
    if exact:
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}
    return float(x)


def _tolerance(v: Any, what: str) -> float:
    """A finite, nonnegative, non-boolean tolerance, as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not 0 <= v <= sys.float_info.max:
        raise SchemaError(f"{what} must be a finite nonnegative number, got {echo(v)}")
    return float(v)


def _boolean(v: Any, what: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(f"{what} must be a boolean")
    return v


def _require(obj: Any, key: str, what: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object")
    if key not in obj:
        raise SchemaError(f"{what}: missing key {key!r}")
    return obj[key]


def as_object(v: Any, what: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError(f"{what} must be an object")
    return v


def _as_list(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{what}: expected an array")
    return v


def _built(build: Callable[..., Any], what: str, *args: Any) -> Any:
    """``build(*args)``, whose ``ValueError`` is a schema error about ``what``."""
    try:
        return build(*args)
    except ValueError as err:
        raise SchemaError(f"{what}: {err}") from None


# ---------------------------------------------------------------------------
# numeric tables
# ---------------------------------------------------------------------------
#
# A table is described by its levels, outermost first: one (index, width,
# problem) triple per level of lists below the table's own.  ``index``
# formats an item's position into its label (``"[{}]"``, or ``""`` where the
# label names the list above); each list there holds ``width`` items, or at
# least one where width is None; ``problem``, formatted with the width, is
# the error an item of the wrong length raises, or None where the per-number
# path leaves the length to a later check.


def _table(table: Any, exact: bool, levels: tuple, labels: tuple[int, ...] = ()) -> tuple | None:
    """A numeric table read whole, after one regime check; None when the
    check fails.

    Every list of every level must hold ``width`` items (at least one where
    width is None), and below the last level lie numbers, except at the
    ``labels`` columns of the innermost lists, which must hold ints and are
    kept.  In the float regime every number must be a ``float`` and their
    sum finite, so each one is, and comes back as it is.  In the exact
    regime every number must be an int or a ``{"num", "den"}`` object of an
    int num and a nonzero int den, and becomes the ``Fraction`` that
    ``parse_number`` makes of it.  The numbers come back in tuples nested as
    the lists are.  Levels are checked through iterators, so no flat copy of
    the table is made, and no label is built.

    None, or the empty tuple of an empty table, sends the caller to the
    per-number path (``_per_number``), which reads an empty table alike and
    names the first offending entry of any other.
    """
    def deep(depth: int) -> Iterator:  # a fresh iterator over the items depth lists down
        return chain.from_iterable(deep(depth - 1)) if depth else iter(table)

    def numbers() -> Iterator:  # column by column where labels are interleaved
        return chain.from_iterable(map(itemgetter(j), deep(len(levels) - 1)) for j in range(
            levels[-1][1]) if j not in labels) if labels else deep(len(levels))

    def nested(items: list, depth: int) -> tuple:  # leaf of each list depth levels down
        return leaf(items) if depth == 0 else tuple(
            map(leaf, items) if depth == 1 else (nested(x, depth - 1) for x in items))

    if (type(table) is not list
            # every list of every level, of the level's width
            or any(set(map(type, deep(d))) - {list} or not (
                all(deep(d)) if width is None else set(map(len, deep(d))) <= {width})
                   for d, (_, width, _) in enumerate(levels))
            # ints in the label columns
            or any(set(map(type, map(itemgetter(j), deep(len(levels) - 1)))) - {int}
                   for j in labels)
            # floats of a finite sum in a float table
            or not exact and (set(map(type, numbers())) - {float}
                              or not math.isfinite(sum(numbers())))):
        return None
    leaf = tuple if not exact else lambda row: tuple(
        v if j in labels else parse_number(v, True, "") for j, v in enumerate(row))
    try:
        return nested(table, len(levels))
    except SchemaError:  # an exact number that parse_number refuses
        return None


def _per_number(items: list, exact: bool, label: str, levels: tuple) -> tuple:
    """The per-number path of a table: level by level, item by item, each
    item must be a list, of the level's length where the level names a
    problem, and every number goes through ``parse_number`` under the label
    of its innermost list; the first offending entry raises."""
    if not levels:
        return tuple(parse_number(v, exact, label) for v in items)
    (index, width, problem), inner = levels[0], levels[1:]
    out = []
    for k, item in enumerate(items):
        where = label + index.format(k)
        item = _as_list(item, where)
        if problem is not None and (not item if width is None else len(item) != width):
            raise SchemaError(f"{where}: " + problem.format(width))
        out.append(_per_number(item, exact, where, inner))
    return tuple(out)


# ---------------------------------------------------------------------------
# library objects
# ---------------------------------------------------------------------------


def _dim_table(obj: Any, key: str, count: int, kind: str, what: str, exact: bool,
               *outer: tuple, index: str = "[{}]") -> tuple[int, tuple]:
    """The positive ``dim`` of a table and its ``key`` array of ``count``
    entries, read as ``dim``-vectors below the ``outer`` levels; a vector's
    label adds ``index`` to that of the list above it."""
    dim = _require(obj, "dim", what)
    table = _as_list(_require(obj, key, what), f"{what}.{key}")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{what}: dim must be a positive integer")
    if len(table) != count:
        raise SchemaError(f"{what}: expected {count} {kind}, got {len(table)}")
    levels = (*outer, (index, dim, "expected {} components"))
    return dim, _table(table, exact, levels) or _per_number(table, exact, f"{what}.{key}", levels)


def parse_simple_function(obj: Any, exact: bool, cells: int, what: str) -> SimpleFunction:
    return SimpleFunction(*_dim_table(obj, "values", cells, "cell values", what, exact))


def encode_simple_function(f: SimpleFunction | BlockFunction, exact: bool) -> dict:
    return {"dim": f.dim,
            "values": [[encode_number(v, exact) for v in row] for row in f.values]}


encode_block_function = encode_simple_function


def parse_block_function(obj: Any, exact: bool, blocks: int, what: str) -> BlockFunction:
    return BlockFunction(*_dim_table(obj, "values", blocks, "block values", what, exact))


def _triple(t: Any, exact: bool, what: str) -> tuple[int, Scalar, Scalar]:
    """The per-number path of one (cell, offset, mass) triple."""
    t = _as_list(t, f"{what}.triples entry")
    if len(t) != 3 or not isinstance(t[0], int) or isinstance(t[0], bool):
        raise SchemaError(f"{what}: each triple is [cell, offset, mass]")
    return t[0], parse_number(t[1], exact, f"{what} offset"), parse_number(t[2], exact,
                                                                          f"{what} mass")


def parse_refined_set(obj: Any, exact: bool, grid: Grid, what: str) -> RefinedSet:
    triples = _as_list(_require(obj, "triples", what), f"{what}.triples")
    parsed = _table(triples, exact, (("", 3, None),), (0,)) or [
        _triple(t, exact, what) for t in triples]
    return _built(set_from_triples, what, grid, parsed)


def encode_refined_set(E: RefinedSet, exact: bool) -> dict:
    return {"triples": [[k, encode_number(o, exact), encode_number(m, exact)]
                        for k, o, m in E.triples()]}


def parse_polytopes(obj: Any, exact: bool, cells: int, what: str) -> PolytopeMap:
    """The vertex sets, each nonempty, read as one table: the table's check
    covers every vertex's length and every coordinate, so no second pass by
    ``polytope_map`` is needed."""
    return PolytopeMap(*_dim_table(obj, "vertices", cells, "vertex sets", what, exact,
                                   ("[{}]", None, "vertex set must be nonempty"), index=""))


def parse_actions(obj: Any, what: str) -> ActionSet:
    labels = _as_list(obj, what)
    if not all(isinstance(a, str) for a in labels):
        raise SchemaError(f"{what}: action labels must be strings")
    return _built(action_set, what, labels)


def parse_young_measure(obj: Any, exact: bool, actions: ActionSet, grid: Grid,
                        tol: Scalar, what: str) -> YoungMeasure:
    rows = _as_list(obj, what)
    if len(rows) != grid.cell_count:
        raise SchemaError(f"{what}: expected {grid.cell_count} rows")
    levels = (("[{}]", actions.size, None),)  # young_measure checks the row lengths
    parsed = _table(rows, exact, levels) or _per_number(rows, exact, what, levels)
    return _built(young_measure, what, parsed, actions, grid, tol)


def parse_integrands(obj: Any, exact: bool, cells: int, actions: int, what: str
                     ) -> IntegrandFamily:
    return IntegrandFamily(*_dim_table(obj, "values", cells, "cells", what, exact,
                                       ("[{}]", actions, "expected {} action vectors")))


def parse_chunks(rows: Any, exact: bool, cells: int, actions: int
                 ) -> tuple[list[list[tuple[Scalar, Scalar, int]]], str | None]:
    """A pure strategy's [cell, offset, mass, action] rows, as each cell's
    list of (offset, mass, action), and the failure of the first row that
    is not such a row or names no cell below ``cells`` or no action below
    ``actions`` (None when every row reads; the rows after it are not
    read).  A bad offset or mass in a row before it is a schema error."""
    table = _table(rows, exact, (("", 4, None),), (0, 3))
    per_cell: list[list[tuple[Scalar, Scalar, int]]] = [[] for _ in range(cells)]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            return per_cell, "chunks must be [cell, offset, mass, action] rows"
        k, a = row[0], row[3]
        if type(k) is not int or not 0 <= k < cells:
            return per_cell, f"chunk references unknown cell {k!r}"
        if type(a) is not int or not 0 <= a < actions:
            return per_cell, f"chunk references unknown action {a!r}"
        per_cell[k].append(table[i][1:] if table else (parse_number(
            row[1], exact, "chunk offset"), parse_number(row[2], exact, "chunk mass"), a))
    return per_cell, None


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemDocument:
    raw: dict
    grid: Grid
    partition: BlockPartition
    payload: dict
    tolerance: Scalar
    exact: bool
    diagonal_only: bool

    @property
    def digest(self) -> str:
        return document_digest(self.raw)


def parse_problem(raw: Any, *, mode_override: str | None = None,
                  exact_override: bool | None = None,
                  tol_override: float | None = None,
                  diagonal_override: bool | None = None) -> ProblemDocument:
    if not isinstance(raw, dict):
        raise SchemaError("problem document must be a JSON object")
    params = as_object(raw.get("parameters", {}), "parameters")
    exact = _boolean(params.get("exact", False), "parameters.exact")
    if exact_override is not None:
        exact = _boolean(exact_override, "the exact override")
    diagonal = _boolean(params.get("diagonal_only", False), "parameters.diagonal_only")
    if diagonal_override is not None:
        diagonal = _boolean(diagonal_override, "the diagonal_only override")
    tolerance: Scalar = 1e-9
    if params.get("tolerance") is not None:
        tolerance = _tolerance(params["tolerance"], "parameters.tolerance")
    if tol_override is not None:
        tolerance = _tolerance(tol_override, "the tolerance override")
    if exact:
        tolerance = Fraction(0)

    space = _require(raw, "space", "problem")
    weights = _as_list(_require(space, "weights", "space"), "space.weights")
    mode = _require(space, "mode", "space") if mode_override is None else mode_override
    if mode not in (Mode.SPLITTABLE.value, Mode.ATOMIC.value):
        raise SchemaError(f"space.mode must be 'splittable' or 'atomic', got {echo(mode)}")
    weights = _table(weights, exact, ()) or _per_number(weights, exact, "space.weights", ())
    grid = _built(build_grid, "space", weights, mode)

    if raw.get("partition") is not None:
        blocks_raw = _as_list(_require(raw["partition"], "blocks", "partition"),
                              "partition.blocks")
        if len(blocks_raw) != grid.cell_count:
            raise SchemaError("partition.blocks length disagrees with the cell count")
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in blocks_raw):
            raise SchemaError("partition.blocks must be integers")
        partition = _built(make_partition, "partition", blocks_raw)
    else:
        partition = trivial_partition(grid)

    payload = as_object(raw.get("payload", {}), "payload")
    return ProblemDocument(raw=raw, grid=grid, partition=partition, payload=payload,
                           tolerance=tolerance, exact=exact, diagonal_only=diagonal)


def load_json(text: str, what: str) -> Any:
    """Parse a JSON document, rejecting the NaN and Infinity constants that
    ``json.loads`` would otherwise accept.

    Every ``ValueError`` of ``json.loads`` is a schema error: a syntax error,
    and also an integer literal longer than the interpreter's limit on
    integer string conversion (4300 digits by default).  So is the
    ``RecursionError`` of arrays or objects nested deeper than the
    interpreter's recursion limit allows (about a thousand levels).
    """
    def non_finite(name: str) -> Any:
        raise SchemaError(f"{what}: non-finite number {name} is not JSON")

    try:
        return json.loads(text, parse_constant=non_finite)
    except ValueError as err:
        raise SchemaError(f"{what}: invalid JSON ({err})") from None
    except RecursionError:
        raise SchemaError(f"{what}: JSON nested too deeply") from None
