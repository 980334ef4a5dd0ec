"""Every from-import of a library module is used in that module.

No linter ships with the test dependencies, so this stdlib ``ast`` check
catches the imports a deletion leaves behind.  ``__init__`` is skipped: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "condbang"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_from_import_is_used(path):
    assert unused_from_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_name():
    source = "from typing import Any, Sequence\n\nx: Sequence[int] = []\n"
    assert unused_from_imports(source) == ["Any (line 1)"]
