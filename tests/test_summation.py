"""Float reports are the same bits on every supported Python.

CPython 3.12 made the builtin ``sum`` compensate float sums (Neumaier's
rule), so a float sum through it gives other bits there than on 3.10 and
3.11.  The solver adds through ``numeric.fold``, a left fold, instead.
These tests pin that: no solver module calls ``sum``, ``fold`` is a plain
left fold, and the corpus reports do not move when ``sum`` compensates.  No
module but the oracle hands a sum of products to BLAS, which promises no
order, and the exhaustive search adds its subset sums in cell order.
"""

import ast
import builtins
import itertools
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
from test_lyapunov import polish_stack

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


#: numpy functions and methods whose sums of products BLAS may order as it likes
BLAS_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}


@pytest.mark.parametrize("name", sorted(path.stem for path in SRC.glob("*.py")
                                        if path.stem != "oracle"))
def test_no_module_but_the_oracle_hands_a_sum_of_products_to_blas(name):
    # the oracle judges with its own arithmetic; every other module adds
    # products in an order it states
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS]
    assert found == []


def in_order_search(avail, mom_cols, targets, p, order):
    """The first assignment, in ``itertools.product`` order, with the least
    worst deviation, each achieved moment a left fold over the piece's cells
    taken in ``order``."""
    q = len(avail)
    best = best_val = None
    for assign in itertools.product(range(p), repeat=q):
        worst = max(abs(fold(avail[k] * col[k] for k in order if assign[k] == i) - t)
                    for i in range(p) for col, t in zip(mom_cols[i], targets[i]))
        if best_val is None or worst < best_val:
            best, best_val = list(assign), worst
    return best


def search(blocks, p):
    """``lyapunov._polish`` on a stack of float blocks of one row layout."""
    return lyapunov._polish(*polish_stack(blocks, False), p)


def test_the_search_sums_in_cell_order_where_other_orders_differ():
    # piece 0 may take one of the cells 0 and 5 (a), one of 1 and 4 (b) and
    # one of 2 and 3 (c): in cell order that sums a, b, c or a, c, b, or
    # b, c, a and c, b, a, which add b and c first; the target is that last
    # sum, which differs from the others, and piece 1's moment is zero
    a, b, c = 0.1, 0.4, 0.7
    sums = [fold(order) for order in ((a, b, c), (a, c, b), (b, c, a))]
    assert sums[2] not in sums[:2]
    block = ([1.0] * 6, [[[a, b, c, c, b, a]], [[0.0] * 6]], [[sums[2]], [0.0]])
    want = in_order_search(*block, 2, range(6))
    # cells 1, 2 and 5 in piece 0; in reverse cell order, cells 0, 1 and 2
    assert want == [1, 0, 0, 1, 1, 0]
    assert in_order_search(*block, 2, range(5, -1, -1)) == [0, 0, 0, 1, 1, 1]
    assert search([block], 2) == [want]


def test_the_search_returns_the_in_order_assignment_where_blas_sums_differ():
    # random float blocks whose second half mirrors the first, so that an
    # assignment and its mirror image tie but for the order of their sums;
    # the targets are the in-order sums of a random assignment.  A block is
    # kept when numpy's ``mask @ coef`` gives any subset sum other bits than
    # the left fold in cell order (with OpenBLAS's Haswell kernel, a search
    # on those sums picks another assignment on about one kept block in four)
    rng = np.random.default_rng(62)
    kept = {}
    for trial in range(200):
        p, half = (2, int(rng.integers(3, 6))) if trial % 2 else (3, int(rng.integers(2, 4)))
        q = 2 * half
        avail = rng.uniform(0.2, 3.0, half).tolist()
        avail += avail[::-1]
        mom_cols = [[col + col[::-1]] for col in rng.uniform(-2.0, 2.0, (p, half)).tolist()]
        planted = rng.integers(0, p, q)
        targets = [[fold(avail[k] * col[k] for k in range(q) if planted[k] == i)
                    for col in mom_cols[i]] for i in range(p)]
        masks = np.array(list(itertools.product((0.0, 1.0), repeat=q)))
        for (col,) in mom_cols:
            coef = np.asarray(avail) * np.asarray(col)
            if (masks @ coef).tolist() != [fold(coef[k] for k in range(q) if mask[k])
                                           for mask in masks]:
                kept.setdefault((p, q), []).append((avail, mom_cols, targets))
                break
    for (p, q), blocks in kept.items():
        want = [in_order_search(*block, p, range(q)) for block in blocks]
        assert search(blocks, p) == want
        assert [search([block], p)[0] for block in blocks] == want
