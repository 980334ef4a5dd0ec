"""Exact reports of every command pinned byte for byte.

Each hash is the sha256 of the canonical reports (``wall_time`` removed) of a
fixed seeded batch of exact problems, one batch per command and mode.  The
five atomic batches of the solver commands and the 100-cell bang-bang were
recorded while the exact kernel solves still eliminated on ``Fraction``s, the
others before the CLI moved to one command table.  Any change that moves a
single bit of an exact report changes its hash.  Float reports are not
pinned: from Python 3.12 on, ``sum`` of floats is compensated, so their bits
depend on the interpreter version.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from condbang import Mode
from condbang.cli import RUN_COMMANDS, run
from condbang.documents import canonical_dumps, parse_problem

from cli_corpus import _enc, make_problem
from gen import (interior_selection, random_exact_grid, random_exact_polytopes,
                 random_partition)

CORPUS_TRIALS = 8

#: sha256 per exact corpus batch, keyed "<mode>/<command>"
GOLDEN = {
    "atomic/cond-exp":
        "3f2fc4947e6a94fea275a95e28cbaf6f00cd921623e24a8c3f7aa173a4a72aff",
    "atomic/ce-measure":
        "f91cc1427ff433c0440c03d6902c8818847330b5bad82b9422ecd3d184172745",
    "atomic/partition":
        "4c1f6d6ba23a5c781c9156aa564559156ea934e2401f139f9320290728daa463",
    "atomic/half-set":
        "c38af6efe831e9af0416f05373f91c665699bd5993cdc6e736877c0ab664de3b",
    "atomic/bang-bang":
        "4d759c52c172514bd1d303be65b7bf461ed88d97d5cc62f50faf8d5e2ba0cc20",
    "atomic/pointset-bang-bang":
        "10e1f0039f90c7d2737d09f05e9e46db614801d8eae057918ae1fe28ac1d09f1",
    "atomic/purify":
        "ff0b9bafc3cbadb3897e8cdb977496f78f266337848ecd5361d67072cb117a1e",
    "atomic/density-step":
        "e7637e630bb3fc4fc4b727cedd8b47e97228375ef63308573ef884a7cd0a7068",
    "atomic/coarseness":
        "0be2e96ff329654b0a43daec13ed2897e629dc2a01ecb29e21fd92b995df369f",
    "splittable/cond-exp":
        "c6c978b108cf33caefef4ee75bcbfc32e8d89d52cf7993eb0593f012b89f9840",
    "splittable/ce-measure":
        "a811a22ef4b24a74067c8e4f61e0b83bb51b48bac9f866d9cb687b6c6342b258",
    "splittable/partition":
        "3821fb1f2ea051ec08536c513e0a7c55f20bf171d1b2610052e2dddbbc0d9a3c",
    "splittable/half-set":
        "195b84e5ce2e4965c78b7281328526ef32cd312cadca5c9ab50beb6e67f3bb31",
    "splittable/annihilator":
        "922e9a194753c747cd9b03f09ee8d7266d5905458679d6f106fe10bb7623e9bc",
    "splittable/bang-bang":
        "db7549a4f0f0e40c0446bfdb0774a596af50e835121562a7ad153e85abdd1820",
    "splittable/pointset-bang-bang":
        "34b153057f8fa5e1021b279fbf318c214d454673d543491746265c071fbefc7a",
    "splittable/purify":
        "5442fce5260d1edfb206a18e412c3008f535cb1d9c66c8d8e874d4babb5c0cfa",
    "splittable/density-step":
        "cea6578912cb78b47075fba23d638531138147dcd7dba2628534b3036daa39ef",
    "splittable/coarseness":
        "643c4b08605070c20fe022864513c79e7c7c03a2f53abb856f6bc9860bc9d74c",
    "gen-bang-bang-100":
        "14c8c084d8c42a99c7e36fb9d5a6d9c447439627569a37ee3746d43e2b24e470",
}

#: annihilator witnesses exist on splittable grids only
ATOMIC_COMMANDS = [c for c in RUN_COMMANDS if c != "annihilator"]


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


def _corpus_digest(command: str, mode: str) -> str:
    # both modes draw their batch from the same seed
    rng = random.Random(f"golden-{command}")
    return _report_digest([(command, make_problem(rng, command, exact=True, mode=mode))
                           for _ in range(CORPUS_TRIALS)])


@pytest.mark.parametrize("command", ATOMIC_COMMANDS)
def test_exact_atomic_corpus_reports_are_pinned(command):
    assert _corpus_digest(command, "atomic") == GOLDEN[f"atomic/{command}"]


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_exact_splittable_corpus_reports_are_pinned(command):
    assert _corpus_digest(command, "splittable") == GOLDEN[f"splittable/{command}"]


def test_exact_atomic_bang_bang_with_wide_kernel_windows_is_pinned():
    doc = _gen_bang_bang_doc(seed=4099, cells=100)
    assert _report_digest([("bang-bang", doc)]) == GOLDEN["gen-bang-bang-100"]
