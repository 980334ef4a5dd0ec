"""Every import of a library module is used in that module.

No linter ships with the test dependencies, so this stdlib ``ast`` check
catches the imports a deletion leaves behind: from-imports, and plain
``import x`` / ``import x as y`` statements.  ``__init__`` is skipped: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "condbang"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str, kind: type) -> list[str]:
    """The names that ``kind`` statements (``ast.Import`` or ``ast.ImportFrom``)
    bind in ``source`` and that it never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, kind) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_from_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), ast.ImportFrom) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_plain_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), ast.Import) == []


def test_the_check_sees_an_unused_name():
    source = "from typing import Any, Sequence\n\nx: Sequence[int] = []\n"
    assert unused_imports(source, ast.ImportFrom) == ["Any (line 1)"]


def test_the_check_sees_an_unused_module():
    source = ("import itertools\nimport numpy as np\nimport os.path\nimport sys as system\n"
              "\nx = np.zeros(len(os.path.sep))\n")
    assert unused_imports(source, ast.Import) == ["itertools (line 1)", "system (line 4)"]
