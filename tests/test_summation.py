"""Float reports are the same bits on every supported Python.

CPython 3.12 made the builtin ``sum`` compensate float sums (Neumaier's
rule), so a float sum through it gives other bits there than on 3.10 and
3.11.  The solver adds through ``numeric.fold``, a left fold, instead.
These tests pin that: no solver module calls ``sum``, ``fold`` is a plain
left fold, the corpus reports do not move when ``sum`` compensates, and they
do not move when the exhaustive search's products are accumulated cell by
cell in order, an order that BLAS does not promise.
"""

import ast
import builtins
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from condbang import lyapunov
from condbang.cli import run
from condbang.documents import canonical_dumps, parse_problem
from condbang.numeric import fold

from report_digest import corpus_cells

SRC = Path(__file__).resolve().parent.parent / "src" / "condbang"
#: the modules that compute; cli and documents read and write, oracle judges
SOLVER_MODULES = ["bangbang", "condexp", "linalg", "lyapunov", "numeric", "polytope",
                  "purify", "spaces"]

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it when every item is a float:
    Neumaier's compensated sum, whose compensation is added at the end when
    it is finite and nonzero.  Any other sum goes to the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or not items or \
            any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.fixture(scope="module")
def documents():
    # built before any patch, since the corpus generators add floats too
    return [(command, doc) for _, command, doc in corpus_cells()]


def corpus_reports(documents) -> list[str]:
    out = []
    for command, doc in documents:
        report = run(command, parse_problem(doc))
        del report["wall_time"]
        out.append(canonical_dumps(report))
    return out


@pytest.fixture(scope="module")
def plain_reports(documents):
    return corpus_reports(documents)


def moved(before: list[str], after: list[str]) -> list[int]:
    assert len(before) == len(after)
    return [i for i, (a, b) in enumerate(zip(before, after)) if a != b]


@pytest.mark.parametrize("name", SOLVER_MODULES)
def test_no_solver_module_calls_the_builtin_sum(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert calls == []


def test_fold_is_a_plain_left_fold():
    # 1e16 + 1.0 rounds back to 1e16; compensation would recover the 1.0
    assert fold([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert fold([]) == 0 and type(fold([])) is int
    # start is the first left operand
    assert fold(["b", "c"], "a") == "abc"
    assert fold([0.5], 0.25) == 0.75
    third = fold([Fraction(1, 3)] * 3)
    assert third == 1 and type(third) is Fraction
    assert fold((Fraction(1, k) for k in range(1, 5)), Fraction(0)) == Fraction(25, 12)


def test_the_emulation_compensates_as_python_3_12_does():
    assert compensated_sum([0.1] * 10) == 1.0
    assert fold([0.1] * 10) == 0.9999999999999999
    # not all floats: the builtin, uncompensated
    assert compensated_sum([0.1] * 10, Fraction(0)) == _builtin_sum([0.1] * 10, Fraction(0))
    assert compensated_sum([1, 2]) == 3


def test_the_corpus_reports_do_not_move_when_sum_compensates(documents, plain_reports,
                                                             monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = corpus_reports(documents)
    monkeypatch.undo()
    assert len(plain_reports) == 304
    assert moved(plain_reports, compensated) == []


def _polish_in_order(calls: list):
    """``lyapunov._polish`` with each float ``mask @ coef`` replaced by a
    sum over the cell columns in order, one rounding per column; it appends
    to ``calls`` once per float search."""
    def polish(rows, p, q, exact, masks):
        calls.extend([] if exact else [q])
        total = p ** q
        best_val = best_idx = None
        chunk = 1 << 15
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            if total > chunk:
                bits = lyapunov._digit_masks(p, q, start, stop, exact)
            elif q in masks:
                bits = masks[q]
            else:
                bits = masks[q] = lyapunov._digit_masks(p, q, start, stop, exact)
            worst = np.zeros(stop - start, dtype=object if exact else float)
            for i, coef, goal in rows:
                if exact:
                    achieved = bits[i] @ coef
                else:
                    achieved = np.zeros(stop - start)
                    for c in range(q):
                        achieved = achieved + bits[i][:, c] * coef[c]
                np.maximum(worst, np.abs(achieved - goal), out=worst)
            a = int(np.argmin(worst))
            if best_val is None or worst[a] < best_val:
                best_val, best_idx = worst[a], start + a
        return [int(d) for d in np.unravel_index(best_idx, (p,) * q)]
    return polish


def test_the_corpus_reports_do_not_move_when_the_search_sums_in_order(documents,
                                                                       plain_reports,
                                                                       monkeypatch):
    calls: list = []
    monkeypatch.setattr(lyapunov, "_polish", _polish_in_order(calls))
    in_order = corpus_reports(documents)
    monkeypatch.undo()
    assert calls, "no float block went to the exhaustive search"
    assert moved(plain_reports, in_order) == []
