"""Number and tolerance parsing: documents never admit non-finite numbers,
and a tolerance is a finite, nonnegative, non-boolean number."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from condbang.cli import EXIT_OK, EXIT_SCHEMA, main
from condbang.documents import SchemaError, load_json, parse_number, parse_problem


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
