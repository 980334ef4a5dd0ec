"""The README examples run as printed.

The library snippet is executed and every ``print(...)  # comment`` line must
print a value that its comment states.  The problem document of the
command-line section is solved with ``bang-bang`` and its report verified.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

from condbang.cli import run, verify_report
from condbang.documents import canonical_dumps, parse_problem

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _fenced(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.S)


def test_readme_library_snippet_prints_what_its_comments_say():
    (snippet,) = _fenced("python")
    comments = [line.split("#", 1)[1] for line in snippet.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 2
    for value, comment in zip(printed, comments):
        assert re.search(rf"(?<![\w.]){re.escape(value)}(?![\w.])", comment), \
            f"README comment {comment!r} does not state the printed {value!r}"


def test_readme_problem_document_runs_and_verifies():
    (document,) = _fenced("json")
    problem = json.loads(document)
    report = run("bang-bang", parse_problem(problem))
    assert report["residuals"]["max_deviation"] == 0.0
    assert verify_report(problem, json.loads(canonical_dumps(report))) == []
