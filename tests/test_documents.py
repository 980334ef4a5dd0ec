"""Number, table and tolerance parsing: documents never admit non-finite
numbers, a numeric table read whole gives the values and errors of the
per-number path, and a tolerance is a finite, nonnegative, non-boolean
number."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condbang import cli, documents
from condbang.cli import EXIT_OK, EXIT_SCHEMA, main, verify_report
from condbang.documents import (SchemaError, load_json, parse_block_function, parse_chunks,
                                parse_integrands, parse_number, parse_polytopes,
                                parse_problem, parse_refined_set, parse_simple_function,
                                parse_young_measure)
from condbang.purify import action_set


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "[1.0, NaN]",
                                  '{"tolerance": Infinity}'])
def test_load_json_rejects_the_non_finite_constants(text):
    with pytest.raises(SchemaError, match="non-finite"):
        load_json(text, "doc")


def test_load_json_still_reads_finite_numbers():
    assert load_json('[1.5, -2, 1e308, {"num": 1, "den": 3}]', "doc") == \
        [1.5, -2, 1e308, {"num": 1, "den": 3}]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, float("1e999")])
def test_parse_number_rejects_non_finite_floats(value):
    with pytest.raises(SchemaError, match="non-finite"):
        parse_number(value, False, "x")
    # an overflowing literal reaches it as inf
    assert load_json("1e999", "doc") == math.inf


def test_parse_number_keeps_finite_values():
    assert parse_number(0.25, False, "x") == 0.25
    assert parse_number(3, True, "x") == Fraction(3)
    assert parse_number({"num": 1, "den": 4}, False, "x") == 0.25


@pytest.mark.parametrize("big", [10 ** 400, -10 ** 400, {"num": 10 ** 400, "den": 3}],
                         ids=["int", "negative-int", "num-over-den"])
def test_numbers_beyond_binary64_are_schema_errors_in_float_documents(tmp_path, big):
    doc = {"space": {"weights": [1.0, big], "mode": "splittable"},
           "payload": {"function": {"dim": 1, "values": [[0.5], [1.5]]}}}
    with pytest.raises(SchemaError, match="space.weights: number beyond the float range"):
        parse_problem(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["cond-exp", str(path), "-o", "/dev/null"]) == EXIT_SCHEMA
    # exact documents read them as they are
    exact = {"space": {"weights": [1, 10 ** 400], "mode": "splittable"},
             "parameters": {"exact": True},
             "payload": {"function": {"dim": 1, "values": [[1], [2]]}}}
    assert parse_problem(exact).grid.cell_count == 2
    path.write_text(json.dumps(exact), encoding="utf-8")
    assert main(["cond-exp", str(path), "-o", "/dev/null"]) == EXIT_OK



#: an integer literal longer than CPython's default limit on integer string
#: conversion (4300 digits), which ``json.loads`` refuses with a ValueError
#: that is not a JSONDecodeError
HUGE_INT = "1" + "0" * 4400


@pytest.mark.parametrize("what", ["problem", "report"])
def test_integers_beyond_the_conversion_limit_are_schema_errors(tmp_path, what):
    marker = "9876543210123"
    doc = {"space": {"weights": [1.0, 3.0], "mode": "splittable"},
           "payload": {"function": {"dim": 1, "values": [[0.5], [1.5]]}}}
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    if what == "problem":
        doc["space"]["weights"][1] = int(marker)
        prob.write_text(json.dumps(doc).replace(marker, HUGE_INT), encoding="utf-8")
        assert main(["cond-exp", str(prob), "-o", "/dev/null"]) == EXIT_SCHEMA
    else:
        rep = tmp_path / "report.json"
        assert main(["cond-exp", str(prob), "-o", str(rep)]) == EXIT_OK
        report = json.loads(rep.read_text(encoding="utf-8"))
        report["outputs"]["expectation"]["values"][0][0] = int(marker)
        rep.write_text(json.dumps(report).replace(marker, HUGE_INT), encoding="utf-8")
        assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) == EXIT_SCHEMA


@pytest.mark.parametrize("what", ["problem", "report"])
@pytest.mark.parametrize("nested", ["[" * 100000 + "]" * 100000,
                                    '{"extra": ' + "[" * 3000 + "]" * 3000 + "}"],
                         ids=["bare", "under-a-key"])
def test_documents_nested_beyond_the_recursion_limit_are_schema_errors(tmp_path, what,
                                                                        nested):
    doc = {"space": {"weights": [1.0, 3.0], "mode": "splittable"},
           "payload": {"function": {"dim": 1, "values": [[0.5], [1.5]]}}}
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    if what == "problem":
        prob.write_text(nested, encoding="utf-8")
        assert main(["cond-exp", str(prob), "-o", "/dev/null"]) == EXIT_SCHEMA
    else:
        rep = tmp_path / "report.json"
        rep.write_text(nested, encoding="utf-8")
        assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) == EXIT_SCHEMA


def _doc(**params):
    return {"space": {"weights": [1.0, 3.0], "mode": "splittable"}, "parameters": params}


@pytest.mark.parametrize("tol", [True, False, math.nan, math.inf, -math.inf, -1e-9, -1,
                                 "1e-9", [1e-9],
                                 pytest.param(10 ** 400, id="int-beyond-binary64")])
def test_bad_tolerances_are_schema_errors(tol):
    with pytest.raises(SchemaError, match="tolerance"):
        parse_problem(_doc(tolerance=tol))
    with pytest.raises(SchemaError, match="tolerance"):
        parse_problem(_doc(), tol_override=tol)
    # exact documents compare at zero, but a bad tolerance is still refused
    with pytest.raises(SchemaError, match="tolerance"):
        parse_problem(_doc(exact=True, tolerance=tol))


def test_good_tolerances_parse_to_floats():
    assert parse_problem(_doc()).tolerance == 1e-9
    assert parse_problem(_doc(tolerance=None)).tolerance == 1e-9
    assert parse_problem(_doc(tolerance=0)).tolerance == 0.0
    assert type(parse_problem(_doc(tolerance=1)).tolerance) is float
    assert parse_problem(_doc(tolerance=1e-6), tol_override=1e-3).tolerance == 1e-3
    exact = {"space": {"weights": [1, 3], "mode": "splittable"},
             "parameters": {"exact": True, "tolerance": 1e-6}}
    assert parse_problem(exact, tol_override=0.5).tolerance == Fraction(0)


# ---------------------------------------------------------------------------
# numeric tables: the whole-table reader against the per-number loops
# ---------------------------------------------------------------------------
#
# The reference below is the per-number code that read every table before
# tables were read whole, kept verbatim: ``parse_number`` and its helpers,
# and each entry point's loop up to the parsed values (a refined set's,
# mixture's and grid's values are compared before ``set_from_triples``,
# ``young_measure`` and ``build_grid`` see them, which are patched out).


def ref_parse_number(v, exact, what):
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
        return frac if exact else ref_float(frac, what)
    if isinstance(v, int):
        return Fraction(v) if exact else ref_float(v, what)
    if isinstance(v, float):
        if exact:
            raise SchemaError(f"{what}: exact mode rejects floating-point literals")
        if not math.isfinite(v):
            raise SchemaError(f"{what}: non-finite number {v!r}")
        return v
    raise SchemaError(f"{what}: expected a number, got {type(v).__name__}")


def ref_float(x, what):
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(f"{what}: number beyond the float range") from None


def ref_require(obj, key, what):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected an object")
    if key not in obj:
        raise SchemaError(f"{what}: missing key {key!r}")
    return obj[key]


def ref_as_list(v, what):
    if not isinstance(v, list):
        raise SchemaError(f"{what}: expected an array")
    return v


def ref_dim_table(obj, key, count, kind, what):
    dim = ref_require(obj, "dim", what)
    table = ref_as_list(ref_require(obj, key, what), f"{what}.{key}")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{what}: dim must be a positive integer")
    if len(table) != count:
        raise SchemaError(f"{what}: expected {count} {kind}, got {len(table)}")
    return dim, table


def ref_vector(v, dim, exact, what):
    v = ref_as_list(v, what)
    if len(v) != dim:
        raise SchemaError(f"{what}: expected {dim} components")
    return tuple(ref_parse_number(c, exact, what) for c in v)


def ref_simple_function(obj, exact, cells, what):
    dim, table = ref_dim_table(obj, "values", cells, "cell values", what)
    return dim, tuple(
        ref_vector(row, dim, exact, f"{what}.values[{k}]") for k, row in enumerate(table))


def ref_block_function(obj, exact, blocks, what):
    dim, table = ref_dim_table(obj, "values", blocks, "block values", what)
    return dim, tuple(
        ref_vector(row, dim, exact, f"{what}.values[{b}]") for b, row in enumerate(table))


def ref_triples(obj, exact, what):
    triples = ref_as_list(ref_require(obj, "triples", what), f"{what}.triples")
    parsed = []
    for t in triples:
        t = ref_as_list(t, f"{what}.triples entry")
        if len(t) != 3 or not isinstance(t[0], int) or isinstance(t[0], bool):
            raise SchemaError(f"{what}: each triple is [cell, offset, mass]")
        parsed.append((t[0], ref_parse_number(t[1], exact, f"{what} offset"),
                       ref_parse_number(t[2], exact, f"{what} mass")))
    return parsed


def ref_polytopes(obj, exact, cells, what):
    dim, vertices = ref_dim_table(obj, "vertices", cells, "vertex sets", what)
    sets = []
    for k, vs in enumerate(vertices):
        vs = ref_as_list(vs, f"{what}.vertices[{k}]")
        if not vs:
            raise SchemaError(f"{what}.vertices[{k}]: vertex set must be nonempty")
        sets.append(tuple(ref_vector(v, dim, exact, f"{what}.vertices[{k}]") for v in vs))
    return dim, tuple(sets)


def ref_mixture_rows(obj, exact, cells, what):
    rows = ref_as_list(obj, what)
    if len(rows) != cells:
        raise SchemaError(f"{what}: expected {cells} rows")
    parsed = []
    for k, row in enumerate(rows):
        row = ref_as_list(row, f"{what}[{k}]")
        parsed.append([ref_parse_number(v, exact, f"{what}[{k}]") for v in row])
    return parsed


def ref_integrands(obj, exact, cells, actions, what):
    dim, values = ref_dim_table(obj, "values", cells, "cells", what)
    out = []
    for k, per_action in enumerate(values):
        per_action = ref_as_list(per_action, f"{what}.values[{k}]")
        if len(per_action) != actions:
            raise SchemaError(f"{what}.values[{k}]: expected {actions} action vectors")
        out.append(tuple(ref_vector(vec, dim, exact, f"{what}.values[{k}][{a}]")
                         for a, vec in enumerate(per_action)))
    return dim, tuple(out)


def ref_weights(weights_raw, exact):
    return [ref_parse_number(w, exact, "space.weights") for w in weights_raw]


def ref_chunks(rows, exact, cells, actions):
    """The chunk rows as ``verify`` read them: each cell's (offset, mass,
    action) list, and the verification failure of the first malformed row
    (None when there is none)."""
    per_cell = [[] for _ in range(cells)]
    for row in rows:
        if not isinstance(row, list) or len(row) != 4:
            return per_cell, "chunks must be [cell, offset, mass, action] rows"
        k, a = row[0], row[3]
        if type(k) is not int or not 0 <= k < cells:
            return per_cell, f"chunk references unknown cell {k!r}"
        if type(a) is not int or not 0 <= a < actions:
            return per_cell, f"chunk references unknown action {a!r}"
        per_cell[k].append((ref_parse_number(row[1], exact, "chunk offset"),
                            ref_parse_number(row[2], exact, "chunk mass"), a))
    return per_cell, None


def _leaves(v):
    """Containers as tuples, and each number as its type and ``repr``."""
    if isinstance(v, (list, tuple)):
        return tuple(_leaves(x) for x in v)
    return type(v).__name__, repr(v)


def _outcome(read, *args):
    try:
        return "values", _leaves(read(*args))
    except SchemaError as err:
        return "error", str(err)


_BIG = [10 ** 400, -10 ** 400, 2 ** 1024]
_INTS = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from(_BIG)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_RATIONALS = st.builds(lambda num, den: {"num": num, "den": den},
                       _INTS, _INTS.filter(lambda d: d != 0))
_ODD_RATIONALS = st.one_of(
    st.fixed_dictionaries({"num": _INTS, "den": st.just(0)}),
    st.fixed_dictionaries({"num": st.booleans(), "den": _INTS}),
    st.fixed_dictionaries({"num": _INTS, "den": st.booleans()}),
    st.fixed_dictionaries({"num": _INTS, "den": _INTS, "extra": st.integers()}),
    st.fixed_dictionaries({"num": _FLOATS, "den": _INTS}),
    st.fixed_dictionaries({"num": _INTS}))
_ANY = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), _INTS,
    st.booleans(), st.text(max_size=3), st.none(), st.lists(_FLOATS, max_size=3),
    _RATIONALS, _ODD_RATIONALS)
#: a table's entries are regular floats, regular exact numbers, or anything
_KINDS = {"float": _FLOATS, "exact": _INTS | _RATIONALS, "any": _ANY}


@st.composite
def tables(draw, widths, labels=()):
    """A list of lists ``len(widths) - 1`` deep, the lists at depth i of
    ``widths[i]`` items each (None: one to three); now and then a list below
    the table is a non-list, a list is short or long, or an entry is anything
    at all.  The ``labels`` columns of the innermost lists hold cell-like
    ints, most of the time.  With no widths, a flat list of entries."""
    kind = _KINDS[draw(st.sampled_from(sorted(_KINDS)))]
    odd = draw(st.sampled_from([0, 20, 60]))  # one in odd draws is irregular (0: none)

    def irregular() -> bool:
        return bool(odd) and draw(st.integers(0, odd - 1)) == 0

    def level(depth, width):  # the table itself is always a list
        if depth > 1 and irregular():
            return draw(_ANY)
        n = draw(st.integers(1, 3)) if width is None else width
        if irregular():
            n = max(0, n + draw(st.sampled_from([-1, 1])))
        if depth == len(widths):
            return [draw(st.integers(0, 3)) if j in labels and not irregular()
                    else draw(_ANY if irregular() else kind) for j in range(n)]
        return [level(depth + 1, widths[depth]) for _ in range(n)]

    return level(1, widths[0]) if widths else [draw(_ANY if irregular() else kind)
                                               for _ in range(draw(st.integers(0, 4)))]


_READ = settings(max_examples=150, deadline=None)


@_READ
@given(st.integers(1, 3), st.booleans(), st.data())
def test_functions_read_whole_as_number_by_number(dim, exact, data):
    table = data.draw(tables((None, dim)))
    obj = {"dim": dim, "values": table}
    cells = len(table) if data.draw(st.booleans()) else 2
    assert _outcome(lambda: (lambda f: (f.dim, f.values))(
        parse_simple_function(obj, exact, cells, "payload.f"))) == \
        _outcome(ref_simple_function, obj, exact, cells, "payload.f")
    assert _outcome(lambda: (lambda f: (f.dim, f.values))(
        parse_block_function(obj, exact, cells, "outputs.g"))) == \
        _outcome(ref_block_function, obj, exact, cells, "outputs.g")


@_READ
@given(st.integers(1, 3), st.booleans(), st.data())
def test_vertex_sets_read_whole_as_number_by_number(dim, exact, data):
    table = data.draw(tables((None, None, dim)))
    obj = {"dim": dim, "vertices": table}
    assert _outcome(lambda: (lambda T: (T.dim, T.vertices))(
        parse_polytopes(obj, exact, len(table), "payload.polytopes"))) == \
        _outcome(ref_polytopes, obj, exact, len(table), "payload.polytopes")


@_READ
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_payoff_vectors_read_whole_as_number_by_number(dim, actions, exact, data):
    table = data.draw(tables((None, actions, dim)))
    obj = {"dim": dim, "values": table}
    assert _outcome(lambda: (lambda V: (V.dim, V.values))(
        parse_integrands(obj, exact, len(table), actions, "payload.integrands"))) == \
        _outcome(ref_integrands, obj, exact, len(table), actions, "payload.integrands")


@_READ
@given(st.integers(1, 3), st.booleans(), st.data())
def test_mixture_rows_read_whole_as_number_by_number(actions, exact, data):
    rows = data.draw(tables((None, actions)))
    labels = [f"a{i}" for i in range(actions)]
    grid = SimpleNamespace(cell_count=len(rows))
    with mock.patch.object(documents, "young_measure", side_effect=lambda r, *_: r):
        new = _outcome(parse_young_measure, rows, exact, action_set(labels), grid, 0.0,
                       "payload.young_measure")
    assert new == _outcome(ref_mixture_rows, rows, exact, len(rows), "payload.young_measure")


@_READ
@given(st.booleans(), st.data())
def test_triples_read_whole_as_number_by_number(exact, data):
    obj = {"triples": data.draw(tables((None, 3), labels=(0,)))}
    with mock.patch.object(documents, "set_from_triples", side_effect=lambda _, t: t):
        new = _outcome(parse_refined_set, obj, exact, None, "outputs.pieces[1]")
    assert new == _outcome(ref_triples, obj, exact, "outputs.pieces[1]")


@_READ
@given(st.booleans(), st.data())
def test_weights_read_whole_as_number_by_number(exact, data):
    weights = data.draw(tables(()))
    doc = {"space": {"weights": weights, "mode": "splittable"},
           "parameters": {"exact": exact}}
    with mock.patch.object(documents, "build_grid", side_effect=lambda w, _: w), \
            mock.patch.object(documents, "trivial_partition"):
        new = _outcome(lambda: parse_problem(doc).grid)
    assert new == _outcome(ref_weights, weights, exact)


@_READ
@given(st.booleans(), st.data())
def test_chunks_read_whole_as_row_by_row(exact, data):
    rows = data.draw(tables((None, 4), labels=(0, 3)))
    assert _outcome(parse_chunks, rows, exact, 4, 3) == _outcome(ref_chunks, rows, exact, 4, 3)


# ---------------------------------------------------------------------------
# one bad entry deep in a large table: the message names it, exit code 2
# ---------------------------------------------------------------------------

CELLS = 1500
DEEP = 1234  # the cell of the bad entry
BLOCKS = 150


def _large_problem(exact=False):
    """A bang-bang, cond-exp and purify problem on CELLS cells in BLOCKS
    blocks, dim 2, three vertices per cell, two actions."""
    def num(x):
        return {"num": Fraction(x).numerator, "den": Fraction(x).denominator} if exact \
            else float(x)

    cells = range(CELLS)
    selection = [[num(Fraction(k % 5) + Fraction(1, 3)), num(Fraction(1, 3))] for k in cells]
    return {
        "space": {"weights": [num(1 + k % 7) for k in cells], "mode": "splittable"},
        "partition": {"blocks": [k % BLOCKS for k in cells]},
        "parameters": {"exact": exact},
        "payload": {
            "polytopes": {"dim": 2, "vertices": [
                [[num(k % 5), num(0)], [num(k % 5 + 1), num(0)], [num(k % 5), num(1)]]
                for k in cells]},
            "selection": {"dim": 2, "values": selection},
            "function": {"dim": 2, "values": selection},
            "actions": ["a0", "a1"],
            "young_measure": [[num(Fraction(1, 2)), num(Fraction(1, 2))] for _ in cells],
            "integrands": {"dim": 1, "values": [[[num(k % 3)], [num(1)]] for k in cells]},
        },
    }


def _report(doc, command, outputs):
    return {"command": command, "input_digest": documents.document_digest(doc),
            "parameters": {"exact": doc["parameters"]["exact"], "mode": "splittable",
                           "diagonal_only": False},
            "outputs": outputs, "residuals": {}, "certified_bound": 0.0}


def _pieces(doc):
    weights = parse_problem(doc).grid.weights
    return [{"triples": [[k, 0.0, w / 2] for k, w in enumerate(weights)]} for _ in "ab"]


def _bad_problem(where, value, exact=False):
    doc = _large_problem(exact)
    payload = doc["payload"]
    if where == "weights":
        doc["space"]["weights"][DEEP] = value
    elif where == "vertex set":
        payload["polytopes"]["vertices"][DEEP] = value
    elif where == "vertex":
        payload["polytopes"]["vertices"][DEEP][2] = value
    elif where == "coordinate":
        payload["polytopes"]["vertices"][DEEP][2][1] = value
    elif where == "selection":
        payload["selection"]["values"][DEEP][1] = value
    elif where == "mixture":
        payload["young_measure"][DEEP][1] = value
    elif where == "payoffs":
        payload["integrands"]["values"][DEEP] = value
    elif where == "payoff":
        payload["integrands"]["values"][DEEP][1][0] = value
    return doc


#: (command, where the bad entry goes, the entry, exact, the message at HEAD)
BAD_PROBLEMS = [
    ("bang-bang", "weights", {"num": 1, "den": 0}, False,
     "space.weights: rational needs integer num and nonzero integer den"),
    ("bang-bang", "weights", 2.5, True,
     "space.weights: exact mode rejects floating-point literals"),
    ("bang-bang", "vertex set", [], False,
     f"payload.polytopes.vertices[{DEEP}]: vertex set must be nonempty"),
    ("bang-bang", "vertex set", "abc", False,
     f"payload.polytopes.vertices[{DEEP}]: expected an array"),
    ("bang-bang", "vertex", [0.5], False,
     f"payload.polytopes.vertices[{DEEP}]: expected 2 components"),
    ("bang-bang", "coordinate", "x", False,
     f"payload.polytopes.vertices[{DEEP}]: expected a number, got str"),
    ("bang-bang", "coordinate", 0.5, True,
     f"payload.polytopes.vertices[{DEEP}]: exact mode rejects floating-point literals"),
    ("bang-bang", "coordinate", 10 ** 400, False,
     f"payload.polytopes.vertices[{DEEP}]: number beyond the float range"),
    ("bang-bang", "selection", True, False,
     f"payload.selection.values[{DEEP}]: expected a number, got a boolean"),
    ("bang-bang", "selection", {"num": 1, "den": 2, "x": 0}, True,
     f"payload.selection.values[{DEEP}]: rational object needs exactly num and den"),
    ("purify", "mixture", None, False,
     f"payload.young_measure[{DEEP}]: expected a number, got NoneType"),
    ("purify", "payoffs", [[0.5]], False,
     f"payload.integrands.values[{DEEP}]: expected 2 action vectors"),
    ("purify", "payoff", [], False,
     f"payload.integrands.values[{DEEP}][1]: expected a number, got list"),
]


@pytest.mark.parametrize("command, where, value, exact, message", BAD_PROBLEMS,
                         ids=[f"{w}-{'exact' if e else 'float'}-{i}"
                              for i, (_, w, _, e, _) in enumerate(BAD_PROBLEMS)])
def test_a_bad_entry_deep_in_a_problem_table_is_named(tmp_path, capsys, command, where,
                                                        value, exact, message):
    doc = _bad_problem(where, value, exact)
    with pytest.raises(SchemaError) as err:
        cli._COMMANDS[command].parse(parse_problem(doc), command)
    assert str(err.value) == message
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(path), "-o", str(tmp_path / "report.json")]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"


def _bad_report(where, value):
    doc = _large_problem()
    if where == "piece mass":
        pieces = _pieces(doc)
        pieces[1]["triples"][DEEP][2] = value
        return doc, _report(doc, "bang-bang", {"pieces": pieces, "branch_values": []})
    if where == "piece triple":
        pieces = _pieces(doc)
        pieces[1]["triples"][DEEP] = value
        return doc, _report(doc, "bang-bang", {"pieces": pieces, "branch_values": []})
    if where == "branch value":
        values = [list(map(list, doc["payload"]["selection"]["values"])) for _ in "ab"]
        values[1][DEEP] = value
        return doc, _report(doc, "bang-bang", {
            "pieces": _pieces(doc), "branch_values": [{"dim": 2, "values": v} for v in values]})
    if where == "expectation":
        values = [[0.5, 0.5] for _ in range(BLOCKS)]
        values[120] = value
        return doc, _report(doc, "cond-exp", {"expectation": {"dim": 2, "values": values}})
    chunks = [[k, 0.0, w, 0] for k, w in enumerate(parse_problem(doc).grid.weights)]
    chunks[DEEP][2] = value
    return doc, _report(doc, "purify", {"chunks": chunks})


#: (where the bad entry goes, the entry, the message at HEAD)
BAD_REPORTS = [
    ("piece mass", "m", "outputs.pieces[1] mass: expected a number, got str"),
    ("piece triple", [DEEP, 0.0], "outputs.pieces[1]: each triple is [cell, offset, mass]"),
    ("piece triple", 7, "outputs.pieces[1].triples entry: expected an array"),
    ("branch value", [0.5, "x"],
     f"outputs.branch_values[1].values[{DEEP}]: expected a number, got str"),
    ("expectation", [0.5, True], "outputs.expectation.values[120]: expected a number, "
                                 "got a boolean"),
    ("chunk mass", "m", "chunk mass: expected a number, got str"),
]


@pytest.mark.parametrize("where, value, message", BAD_REPORTS,
                         ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(BAD_REPORTS)])
def test_a_bad_entry_deep_in_a_report_table_is_named(tmp_path, capsys, where, value,
                                                       message):
    doc, report = _bad_report(where, value)
    with pytest.raises(SchemaError) as err:
        verify_report(doc, report)
    assert str(err.value) == message
    prob, rep = tmp_path / "problem.json", tmp_path / "report.json"
    prob.write_text(json.dumps(doc), encoding="utf-8")
    rep.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"
