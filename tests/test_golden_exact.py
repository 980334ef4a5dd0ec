"""Exact atomic reports pinned byte for byte.

Each hash is the sha256 of the canonical reports (``wall_time`` removed) of a
fixed seeded batch of problems, recorded while the exact kernel solves still
eliminated on ``Fraction``s.  Any change to the exact arithmetic that moves a
single bit of a report changes its hash.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from condbang import Mode
from condbang.cli import run
from condbang.documents import canonical_dumps, parse_problem

from cli_corpus import _enc, make_problem
from gen import (interior_selection, random_exact_grid, random_exact_polytopes,
                 random_partition)

CORPUS_TRIALS = 8

GOLDEN = {
    "partition":
        "4c1f6d6ba23a5c781c9156aa564559156ea934e2401f139f9320290728daa463",
    "half-set":
        "c38af6efe831e9af0416f05373f91c665699bd5993cdc6e736877c0ab664de3b",
    "bang-bang":
        "4d759c52c172514bd1d303be65b7bf461ed88d97d5cc62f50faf8d5e2ba0cc20",
    "pointset-bang-bang":
        "10e1f0039f90c7d2737d09f05e9e46db614801d8eae057918ae1fe28ac1d09f1",
    "purify":
        "ff0b9bafc3cbadb3897e8cdb977496f78f266337848ecd5361d67072cb117a1e",
    "gen-bang-bang-100":
        "14c8c084d8c42a99c7e36fb9d5a6d9c447439627569a37ee3746d43e2b24e470",
}


def _report_digest(commands_and_docs) -> str:
    digest = hashlib.sha256()
    for command, doc in commands_and_docs:
        report = run(command, parse_problem(doc))
        del report["wall_time"]
        digest.update(canonical_dumps(report).encode("utf-8"))
    return digest.hexdigest()


def _gen_bang_bang_doc(seed: int, cells: int) -> dict:
    rng = random.Random(seed)
    grid = random_exact_grid(rng, cells, Mode.ATOMIC)
    C = random_partition(rng, grid, max_blocks=2)
    T = random_exact_polytopes(rng, grid, 2, max_vertices=6)
    h = interior_selection(rng, T, exact=True)
    return {
        "space": {"weights": [_enc(w, True) for w in grid.weights], "mode": "atomic"},
        "partition": {"blocks": list(C.block_of)},
        "parameters": {"exact": True},
        "payload": {
            "polytopes": {"dim": T.dim, "vertices": [
                [[_enc(c, True) for c in v] for v in verts] for verts in T.vertices]},
            "selection": {"dim": h.dim, "values": [
                [_enc(c, True) for c in row] for row in h.values]},
        },
    }


@pytest.mark.parametrize("command", ["partition", "half-set", "bang-bang",
                                     "pointset-bang-bang", "purify"])
def test_exact_atomic_corpus_reports_are_pinned(command):
    rng = random.Random(f"golden-{command}")
    docs = [(command, make_problem(rng, command, exact=True, mode="atomic"))
            for _ in range(CORPUS_TRIALS)]
    assert _report_digest(docs) == GOLDEN[command]


def test_exact_atomic_bang_bang_with_wide_kernel_windows_is_pinned():
    doc = _gen_bang_bang_doc(seed=4099, cells=100)
    assert _report_digest([("bang-bang", doc)]) == GOLDEN["gen-bang-bang-100"]
