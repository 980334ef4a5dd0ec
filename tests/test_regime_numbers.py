"""The grid decides the regime, and its numbers live on it.

``spaces.Grid`` carries the regime's zero, one and half: ``Fraction``s on
exact grids, floats on float ones.  Outside that class, no module that
computes or checks a result chooses between a ``Fraction`` of constants and
a float constant with a conditional expression of its own
(``Fraction(0) if grid.is_exact else 0.0``); it reads the grid instead.
The ``ast`` search below found 18 such expressions before the grid carried
its numbers: six in ``spaces``, six in ``lyapunov``, two each in
``condexp`` and ``purify``, one each in ``polytope`` and ``cli``.  Run as a
script, it prints the lines it finds in another checkout's package:

    python3 tests/test_regime_numbers.py [PACKAGE_DIR]
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from condbang import build_grid

SRC = Path(__file__).resolve().parent.parent / "src" / "condbang"
#: the modules that take a regime from a grid (documents and oracle read a
#: document's own exact flag, numeric holds the regime's tolerances)
MODULES = ["bangbang", "cli", "condexp", "lyapunov", "polytope", "purify", "spaces"]


def _kind(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "Fraction" and not node.keywords \
            and all(isinstance(a, ast.Constant) for a in node.args):
        return "fraction"
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return "float"
    return None


def regime_choices(source: str, module: str) -> list[int]:
    """Lines of the conditional expressions of ``source`` whose two branches
    are a ``Fraction`` of constants and a float constant, in either order,
    leaving out the body of ``spaces.Grid``."""
    tree = ast.parse(source)
    skip: set[int] = set()
    if module == "spaces":
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Grid":
                skip.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.IfExp) and id(node) not in skip
            and {_kind(node.body), _kind(node.orelse)} == {"fraction", "float"}]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_spells_out_a_regime_number(module):
    assert regime_choices((SRC / f"{module}.py").read_text(encoding="utf-8"), module) == []


@pytest.mark.parametrize("source, found", [
    ("zero = Fraction(0) if grid.is_exact else 0.0", 1),
    ("half: Scalar = Fraction(1, 2) if exact else 0.5", 1),
    ("f((0.0 if not exact else Fraction(0),), x)", 1),
    # a tolerance or an int is not a regime number
    ("bound = Fraction(0) if exact else tol", 0),
    ("check_tol = tol if tol > 0 else 0", 0),
    ("quotient = Fraction if exact else operator.truediv", 0),
    ("zero = grid.zero", 0),
])
def test_the_search_finds_the_choices_it_pins(source, found):
    assert len(regime_choices(source, "lyapunov")) == found


def test_the_search_leaves_the_grid_its_own_choices():
    source = (SRC / "spaces.py").read_text(encoding="utf-8")
    assert regime_choices(source, "spaces") == []
    assert len(regime_choices(source, "elsewhere")) == 2


def test_the_grid_carries_its_regime_numbers():
    exact, floats = build_grid([1, 2], "atomic"), build_grid([1.0, 2.0], "splittable")
    for grid, kind in ((exact, Fraction), (floats, float)):
        assert (grid.zero, grid.one, grid.half) == (0, 1, 0.5)
        assert all(type(x) is kind for x in (grid.zero, grid.one, grid.half))


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    found = {m: regime_choices((package / f"{m}.py").read_text(encoding="utf-8"), m)
             for m in MODULES}
    for module, lines in found.items():
        print(f"{len(lines):4d}  {module}.py  {lines}")
    print(f"{sum(map(len, found.values())):4d}  total")
