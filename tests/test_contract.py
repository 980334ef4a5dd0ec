"""The CLI's outcome contract: ``run``, then ``verify``, through ``cli.main``.

A valid document ends in exit 0 with a report that ``verify`` accepts, or in
a named exit 2 (schema) or 3 (precondition); never in exit 0 with a report
that its own ``verify`` rejects, and never in a numpy warning, which is made
an error here.  The documents are those of ``tests/cli_corpus.make_problem``
with one change each:

- one cell weight multiplied by a tiny factor, for the seven commands that
  take no refined set (a refined set's masses name the normalized weights,
  which that change would move).  At 1e-320 the weight normalizes to a
  subnormal float, whose products (a piece's mass, a mixture's payoff) keep
  too few bits to be accurate relative to the weight: the solver and
  ``verify`` used to land about 1e-3 apart there, so some reports claimed a
  bound that ``verify`` refused.  ``build_grid`` now refuses such a weight,
  so every document ends in exit 2 naming ``space``.  At 1e-300 the weight
  is still a normal float: every document runs, and ``verify`` accepts
  every report;
- ``--tol 1e-3`` passed to ``run`` and to ``verify``, for every command in
  both regimes and both modes;
- each cell its own block, or one block for all cells;
- ``--diagonal-only`` on the four commands that run the bang-bang solver;
- ``bang-bang`` and ``pointset-bang-bang`` cells whose vertices are all
  equal, duplicated, or collinear;
- ``--tol 0`` on float documents.  Some of these end in exit 0 with a
  report that ``verify --tol 0`` rejects, since ``verify`` compares its own
  sums with the solver's at an absolute tolerance of 0 (ROADMAP item 2:
  absolute, not scale-aware, ``verify`` comparisons).  Each (command, mode)
  cell where that happens is a strict xfail naming item 2.
"""

import random
from fractions import Fraction

import pytest

from condbang.cli import (EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, RUN_COMMANDS,
                          main)

from cli_corpus import make_problem
from test_cli import write_doc

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: the commands whose payload names no refined set (coarseness's is optional
#: and dropped below)
COMMANDS = ("cond-exp", "partition", "bang-bang", "pointset-bang-bang", "purify",
            "density-step", "coarseness")
SEEDS = range(60)
MODES = ("splittable", "atomic")
#: the outcomes the contract allows: (run exit, verify exit or None)
ALLOWED = ((EXIT_OK, EXIT_OK), (EXIT_SCHEMA, None), (EXIT_PRECONDITION, None))
BANG_BANG = ("bang-bang", "pointset-bang-bang")


def _outcome(tmp_path, capsys, command, doc, flags=(), tol=None):
    """(run exit, verify exit or None, stderr) of one document; ``tol`` is
    passed to both ``run`` and ``verify``."""
    tol_flags = [] if tol is None else ["--tol", tol]
    prob = write_doc(tmp_path, "p.json", doc)
    rep = tmp_path / "r.json"
    rc = main([command, str(prob), "-o", str(rep), *flags, *tol_flags])
    checked = main(["verify", str(prob), str(rep), "-o", "/dev/null", *tol_flags]) \
        if rc == EXIT_OK else None
    return rc, checked, capsys.readouterr().err


def _broken(outcomes):
    """The (label, run exit, verify exit) of every outcome the contract forbids."""
    return [(label, rc, checked) for label, (rc, checked, _) in outcomes
            if (rc, checked) not in ALLOWED]


def _outcomes(tmp_path, capsys, factor):
    """(seed, command, mode, run exit, verify exit or None, stderr) per document."""
    out = []
    for seed in SEEDS:
        for command in COMMANDS:
            for mode in MODES:
                rng = random.Random(seed)
                doc = make_problem(rng, command, mode=mode)
                doc["payload"].pop("set", None)
                weights = doc["space"]["weights"]
                weights[rng.randrange(len(weights))] *= factor
                out.append((seed, command, mode,
                            *_outcome(tmp_path, capsys, command, doc)))
    return out


@pytest.mark.parametrize("factor, expected", [(1e-300, (EXIT_OK, EXIT_OK)),
                                              (1e-320, (EXIT_SCHEMA, None))])
def test_a_tiny_cell_weight_ends_in_a_schema_error_or_a_report_verify_accepts(
        tmp_path, capsys, factor, expected):
    outcomes = _outcomes(tmp_path, capsys, factor)
    assert len(outcomes) == len(SEEDS) * len(COMMANDS) * 2
    broken = [o[:5] for o in outcomes if o[3:5] not in ((EXIT_SCHEMA, None), (EXIT_OK, EXIT_OK))]
    assert broken == []
    assert [o[:5] for o in outcomes if o[3:5] != expected] == []
    if expected[0] == EXIT_SCHEMA:
        assert all("schema error: space: cell weights over their float total" in o[5]
                   for o in outcomes)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_every_command_keeps_the_contract_at_a_loose_tolerance(tmp_path, capsys, exact):
    outcomes = []
    for command in RUN_COMMANDS:
        for mode in MODES:
            for seed in range(20):
                doc = make_problem(random.Random(seed), command, exact=exact, mode=mode)
                outcomes.append(((command, mode, seed),
                                 _outcome(tmp_path, capsys, command, doc, tol="1e-3")))
    assert _broken(outcomes) == []
    # atomic grids admit no annihilator witness (exit 3); every other document runs
    assert [label for label, (rc, _, _) in outcomes if rc != EXIT_OK] == \
        [label for label, _ in outcomes if label[:2] == ("annihilator", "atomic")]


@pytest.mark.parametrize("blocks", ["per-cell", "one"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_every_command_keeps_the_contract_on_extreme_partitions(tmp_path, capsys, exact,
                                                                  blocks):
    outcomes = []
    for command in RUN_COMMANDS:
        for mode in MODES:
            for seed in range(10):
                doc = make_problem(random.Random(seed), command, exact=exact, mode=mode)
                m = len(doc["space"]["weights"])
                doc["partition"]["blocks"] = list(range(m)) if blocks == "per-cell" else [0] * m
                outcomes.append(((command, mode, seed),
                                 _outcome(tmp_path, capsys, command, doc)))
    assert _broken(outcomes) == []
    # atomic grids admit no annihilator witness (exit 3); every other document runs
    assert [label for label, (rc, _, _) in outcomes if rc != EXIT_OK] == \
        [label for label, _ in outcomes if label[:2] == ("annihilator", "atomic")]


@pytest.mark.parametrize("command", [*BANG_BANG, "purify", "density-step"])
def test_diagonal_only_keeps_the_contract(tmp_path, capsys, command):
    outcomes = []
    for exact in (False, True):
        for mode in MODES:
            for seed in range(20):
                doc = make_problem(random.Random(seed), command, exact=exact, mode=mode)
                outcomes.append(((exact, mode, seed), _outcome(
                    tmp_path, capsys, command, doc, flags=["--diagonal-only"])))
    assert _broken(outcomes) == []
    assert all(rc == EXIT_OK for _, (rc, _, _) in outcomes)


def _degenerate(rng, doc, kind, exact):
    """``doc``, a bang-bang problem, with every cell's vertex set made
    ``kind`` and its selection value moved into the new hull."""
    def read(x):
        return Fraction(x["num"], x["den"]) if exact else x

    def write(x):
        return {"num": x.numerator, "den": x.denominator} if exact else x

    payload = doc["payload"]
    vertex_sets = payload["points" if "points" in payload else "polytopes"]["vertices"]
    selection = payload["selection"]["values"]
    for k, raw in enumerate(vertex_sets):
        verts = [[read(x) for x in v] for v in raw]
        if kind == "equal":
            verts = [verts[0]] * len(verts)
            point = verts[0]
        elif kind == "duplicated":
            verts = verts + [verts[rng.randrange(len(verts))] for _ in verts]
            rng.shuffle(verts)
            point = [read(x) for x in selection[k]]
        else:  # collinear: v0 + t (v1 - v0) for a few t, the value between two of them
            ts = [Fraction(rng.randint(-4, 8), 4) for _ in verts]
            ts = ts if exact else [float(t) for t in ts]
            start, d = verts[0], [b - a for a, b in zip(verts[0], verts[1])]
            verts = [[a + t * dc for a, dc in zip(start, d)] for t in ts]
            t = (ts[0] + ts[-1]) / 2
            point = [a + t * dc for a, dc in zip(start, d)]
        vertex_sets[k] = [[write(x) for x in v] for v in verts]
        selection[k] = [write(x) for x in point]
    return doc


@pytest.mark.parametrize("kind", ["equal", "duplicated", "collinear"])
@pytest.mark.parametrize("command", BANG_BANG)
def test_degenerate_vertex_sets_keep_the_contract(tmp_path, capsys, command, kind):
    outcomes = []
    for exact in (False, True):
        for mode in MODES:
            for seed in range(20):
                rng = random.Random(seed)
                doc = _degenerate(rng, make_problem(rng, command, exact=exact, mode=mode),
                                  kind, exact)
                outcomes.append(((exact, mode, seed),
                                 _outcome(tmp_path, capsys, command, doc)))
    assert _broken(outcomes) == []
    assert all(rc == EXIT_OK for _, (rc, _, _) in outcomes)


#: at tolerance 0 every float (command, mode) cell but atomic ``annihilator``
#: (exit 3: atomic grids admit no witness) holds a report among its 20
#: documents that its own ``verify`` rejects
TOL_ZERO_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: verify compares its own float sums with the solver's "
           "at an absolute tolerance, here 0")


@pytest.mark.parametrize("command, mode", [
    (command, mode) if (command, mode) == ("annihilator", "atomic")
    else pytest.param(command, mode, marks=TOL_ZERO_XFAIL)
    for command in RUN_COMMANDS for mode in MODES])
def test_float_tol_zero_keeps_the_contract(tmp_path, capsys, command, mode):
    outcomes = []
    for seed in range(20):
        doc = make_problem(random.Random(seed), command, mode=mode)
        outcomes.append((seed, _outcome(tmp_path, capsys, command, doc, tol="0")))
    assert _broken(outcomes) == []
