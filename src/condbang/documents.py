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
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .condexp import BlockFunction, SimpleFunction
from .numeric import Scalar
from .polytope import PolytopeMap
from .purify import ActionSet, IntegrandFamily, YoungMeasure, action_set, young_measure
from .spaces import (BlockPartition, Grid, Mode, RefinedSet, build_grid,
                     make_partition, set_from_triples, trivial_partition)


class SchemaError(Exception):
    """The document does not follow the expected JSON schema."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False) + "\n"


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
        frac = Fraction(num, den)
        return frac if exact else _float(frac, what)
    if isinstance(v, int):
        return Fraction(v) if exact else _float(v, what)
    if isinstance(v, float):
        if exact:
            raise SchemaError(f"{what}: exact mode rejects floating-point literals")
        if not math.isfinite(v):
            raise SchemaError(f"{what}: non-finite number {v!r}")
        return v
    raise SchemaError(f"{what}: expected a number, got {type(v).__name__}")


def _float(x: int | Fraction, what: str) -> float:
    """x rounded to a float (a Fraction as numerator / denominator); beyond the
    float range it is a schema error, as the literal ``1e999`` is."""
    try:
        return float(x)
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


def _as_list(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{what}: expected an array")
    return v


# ---------------------------------------------------------------------------
# library objects
# ---------------------------------------------------------------------------


def _dim_table(obj: Any, key: str, count: int, kind: str, what: str) -> tuple[int, list]:
    """The positive ``dim`` of a table and its ``key`` array of ``count`` entries."""
    dim = _require(obj, "dim", what)
    table = _as_list(_require(obj, key, what), f"{what}.{key}")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{what}: dim must be a positive integer")
    if len(table) != count:
        raise SchemaError(f"{what}: expected {count} {kind}, got {len(table)}")
    return dim, table


def _vector(v: Any, dim: int, exact: bool, what: str) -> tuple[Scalar, ...]:
    v = _as_list(v, what)
    if len(v) != dim:
        raise SchemaError(f"{what}: expected {dim} components")
    return tuple(parse_number(c, exact, what) for c in v)


def parse_simple_function(obj: Any, exact: bool, cells: int, what: str) -> SimpleFunction:
    dim, table = _dim_table(obj, "values", cells, "cell values", what)
    return SimpleFunction(dim=dim, values=tuple(
        _vector(row, dim, exact, f"{what}.values[{k}]") for k, row in enumerate(table)))


def encode_simple_function(f: SimpleFunction, exact: bool) -> dict:
    return {"dim": f.dim,
            "values": [[encode_number(v, exact) for v in row] for row in f.values]}


def encode_block_function(bf: BlockFunction, exact: bool) -> dict:
    return {"dim": bf.dim,
            "values": [[encode_number(v, exact) for v in row] for row in bf.values]}


def parse_block_function(obj: Any, exact: bool, blocks: int, what: str) -> BlockFunction:
    dim, table = _dim_table(obj, "values", blocks, "block values", what)
    return BlockFunction(dim=dim, values=tuple(
        _vector(row, dim, exact, f"{what}.values[{b}]") for b, row in enumerate(table)))


def parse_refined_set(obj: Any, exact: bool, grid: Grid, what: str) -> RefinedSet:
    triples = _as_list(_require(obj, "triples", what), f"{what}.triples")
    parsed = []
    for t in triples:
        t = _as_list(t, f"{what}.triples entry")
        if len(t) != 3 or not isinstance(t[0], int) or isinstance(t[0], bool):
            raise SchemaError(f"{what}: each triple is [cell, offset, mass]")
        parsed.append((t[0], parse_number(t[1], exact, f"{what} offset"),
                       parse_number(t[2], exact, f"{what} mass")))
    try:
        return set_from_triples(grid, parsed)
    except ValueError as err:
        raise SchemaError(f"{what}: {err}") from None


def encode_refined_set(E: RefinedSet, exact: bool) -> dict:
    return {"triples": [[k, encode_number(o, exact), encode_number(m, exact)]
                        for k, o, m in E.triples()]}


def parse_polytopes(obj: Any, exact: bool, cells: int, what: str) -> PolytopeMap:
    """The vertex sets, each nonempty; ``_vector`` checks every vertex's length
    and ``parse_number`` every coordinate, so no second pass by
    ``polytope_map`` is needed."""
    dim, vertices = _dim_table(obj, "vertices", cells, "vertex sets", what)
    sets = []
    for k, vs in enumerate(vertices):
        vs = _as_list(vs, f"{what}.vertices[{k}]")
        if not vs:
            raise SchemaError(f"{what}.vertices[{k}]: vertex set must be nonempty")
        sets.append(tuple(_vector(v, dim, exact, f"{what}.vertices[{k}]") for v in vs))
    return PolytopeMap(dim=dim, vertices=tuple(sets))


def parse_actions(obj: Any, what: str) -> ActionSet:
    labels = _as_list(obj, what)
    if not all(isinstance(a, str) for a in labels):
        raise SchemaError(f"{what}: action labels must be strings")
    try:
        return action_set(labels)
    except ValueError as err:
        raise SchemaError(f"{what}: {err}") from None


def parse_young_measure(obj: Any, exact: bool, actions: ActionSet, grid: Grid,
                        tol: Scalar, what: str) -> YoungMeasure:
    rows = _as_list(obj, what)
    if len(rows) != grid.cell_count:
        raise SchemaError(f"{what}: expected {grid.cell_count} rows")
    parsed = []
    for k, row in enumerate(rows):
        row = _as_list(row, f"{what}[{k}]")
        parsed.append([parse_number(v, exact, f"{what}[{k}]") for v in row])
    try:
        return young_measure(parsed, actions, grid, tol)
    except ValueError as err:
        raise SchemaError(f"{what}: {err}") from None


def parse_integrands(obj: Any, exact: bool, cells: int, actions: int, what: str
                     ) -> IntegrandFamily:
    dim, values = _dim_table(obj, "values", cells, "cells", what)
    out = []
    for k, per_action in enumerate(values):
        per_action = _as_list(per_action, f"{what}.values[{k}]")
        if len(per_action) != actions:
            raise SchemaError(f"{what}.values[{k}]: expected {actions} action vectors")
        out.append(tuple(_vector(vec, dim, exact, f"{what}.values[{k}][{a}]")
                         for a, vec in enumerate(per_action)))
    return IntegrandFamily(dim=dim, values=tuple(out))


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
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise SchemaError("parameters must be an object")
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
    weights_raw = _as_list(_require(space, "weights", "space"), "space.weights")
    mode = _require(space, "mode", "space") if mode_override is None else mode_override
    if mode not in (Mode.SPLITTABLE.value, Mode.ATOMIC.value):
        raise SchemaError(f"space.mode must be 'splittable' or 'atomic', got {echo(mode)}")
    weights = [parse_number(w, exact, "space.weights") for w in weights_raw]
    try:
        grid = build_grid(weights, mode)
    except ValueError as err:
        raise SchemaError(f"space: {err}") from None

    if "partition" in raw and raw["partition"] is not None:
        blocks_raw = _as_list(_require(raw["partition"], "blocks", "partition"),
                              "partition.blocks")
        if len(blocks_raw) != grid.cell_count:
            raise SchemaError("partition.blocks length disagrees with the cell count")
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in blocks_raw):
            raise SchemaError("partition.blocks must be integers")
        try:
            partition = make_partition(blocks_raw)
        except ValueError as err:
            raise SchemaError(f"partition: {err}") from None
    else:
        partition = trivial_partition(grid)

    payload = raw.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
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
