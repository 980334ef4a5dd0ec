"""Exact reports of every command pinned byte for byte.

Each hash is the sha256 of the canonical reports (``wall_time`` removed) of a
fixed seeded batch of exact problems, one batch per command and mode
(``CHANGES.md`` tells at which commit each was recorded).  Any change that
moves a single bit of an exact report changes its hash.  Float
reports are not pinned: from Python 3.12 on, ``sum`` of floats is
compensated, so their bits depend on the interpreter version.
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
        "b04ee2e6631e1a35e68d6120b7b12b064b134be16d4ef76961193684d4b084de",
    "atomic/ce-measure":
        "c5e9acebd6ad69713a10093e421992da1ee4cde7958a8c1ca78e89fe41629a15",
    "atomic/partition":
        "de32aaed3408fb0cab2b5d4f21b87d7961da9f97858f62543d52f288ae0c7a81",
    "atomic/half-set":
        "0d526c209db81f749a179b1d3a074bf3815a2c519f35ed53ed845f02c1f21db3",
    "atomic/bang-bang":
        "e8a3899ce8b2929e62dbbd1025064a1e56acd82fe9b72ffd1e4afa660c65e7ca",
    "atomic/pointset-bang-bang":
        "0b937a25b8a6b640b2db921e5078634cd573d7a7415d8de0998e352a637c4858",
    "atomic/purify":
        "0eb247e2a1cb35719af4e5dcf4cd59bbfc0a560ea3ff0e9f36fb1038ab8c8d35",
    "atomic/density-step":
        "a5c9cb5e0262fad73728d5b0d230a98d9d1124fe8e3a729e7da2aabcab7041e2",
    "atomic/coarseness":
        "2fe8b5599b0d10f62834b81a5e105df14179aaa3bff52ea179a7543a76297ffb",
    "splittable/cond-exp":
        "bcdb80d240ac024aec7d986063a97deb701328f2111835de017fa6b98690c691",
    "splittable/ce-measure":
        "ace2d5d5ae1e432a657c016ef23f7dddd5949357d17152e71aee33bf5ddec263",
    "splittable/partition":
        "7abd13cb44baeb97f08c900983e155f61091476db9a433ccb474ac76541689d0",
    "splittable/half-set":
        "21f6bb2548ef8596090f6e52072fdb79cb424a601f0d7218c61acd92b22e492d",
    "splittable/annihilator":
        "281332f59b19688c9b982ff1c38aac3a61a4f83197e8e7c36bd38aa0b17e60ab",
    "splittable/bang-bang":
        "f34b57bec34bfec5def451f8b211092506c52b7884bc25c893cfe7a9a97b9f45",
    "splittable/pointset-bang-bang":
        "683467b3d9f8479a37896254b566bd48dc1cdc66be58aaeeabb9b8239193cdcb",
    "splittable/purify":
        "08ce0f363911590ae5f54ad3326ecde4d5bce000df2155b9ffa980631859e88e",
    "splittable/density-step":
        "c61e9c5367ffeea6b317d55c6501dfaee27529b654cdb8e4dbc7aa946b1a9d4c",
    "splittable/coarseness":
        "425a898e05c61180af537da0cf0167e1268136089eea46dab99996945d886f83",
    "gen-bang-bang-100":
        "6e5f07e3bb7016a845fa34b780cea3414f7f5a98b9c0f370c0d4e732352c5dea",
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
