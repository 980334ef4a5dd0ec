"""The CLI's outcome contract on cell weights near the floor of the float range.

A valid document ends in exit 0 with a report that ``verify`` accepts, or in
a named exit 2 (schema) or 3 (precondition); never in exit 0 with a report
that its own ``verify`` rejects.  Here every document of
``tests/cli_corpus.make_problem`` for the seven commands that take no
refined set has one cell weight multiplied by a tiny factor.  (A refined
set's masses name the normalized weights, which that change would move.)

- At 1e-320 the weight normalizes to a subnormal float, whose products (a
  piece's mass, a mixture's payoff) keep too few bits to be accurate
  relative to the weight: the solver and ``verify`` used to land about 1e-3
  apart there, so some reports claimed a bound that ``verify`` refused.
  ``build_grid`` now refuses such a weight, so every document ends in exit
  2 naming ``space``.
- At 1e-300 the weight is still a normal float: every document runs, and
  ``verify`` accepts every report.
"""

import random

import pytest

from condbang.cli import EXIT_OK, EXIT_SCHEMA, main

from cli_corpus import make_problem
from test_cli import write_doc

#: the commands whose payload names no refined set (coarseness's is optional
#: and dropped below)
COMMANDS = ("cond-exp", "partition", "bang-bang", "pointset-bang-bang", "purify",
            "density-step", "coarseness")
SEEDS = range(60)


def _outcomes(tmp_path, capsys, factor):
    """(seed, command, mode, run exit, verify exit or None, stderr) per document."""
    out = []
    for seed in SEEDS:
        for command in COMMANDS:
            for mode in ("splittable", "atomic"):
                rng = random.Random(seed)
                doc = make_problem(rng, command, mode=mode)
                doc["payload"].pop("set", None)
                weights = doc["space"]["weights"]
                weights[rng.randrange(len(weights))] *= factor
                prob = write_doc(tmp_path, "p.json", doc)
                rep = tmp_path / "r.json"
                rc = main([command, str(prob), "-o", str(rep)])
                checked = main(["verify", str(prob), str(rep), "-o", "/dev/null"]) \
                    if rc == EXIT_OK else None
                out.append((seed, command, mode, rc, checked, capsys.readouterr().err))
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
