"""Count the code lines of the ``condbang`` package, module by module.

A line is a code line when it holds a token other than a comment, and that
token is not part of a docstring.  Docstrings are the leading string
statements of modules, classes and functions, found with ``ast``; comments
and blank lines are found with ``tokenize``.  A string literal that is not a
docstring counts on every line it spans.

    python3 tests/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to the ``src/condbang`` of the checkout this script
sits in; pass another checkout's to compare two trees.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "condbang"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
