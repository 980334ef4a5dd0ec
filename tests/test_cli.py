import copy
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from condbang import cli, linalg, polytope
from condbang.cli import (EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, EXIT_VERIFY,
                          RUN_COMMANDS, main, run, verify_report)
from condbang.documents import SchemaError, canonical_dumps, parse_problem

from cli_corpus import make_problem
from report_digest import certified_pairs, recording
from test_polytope import _near_degenerate, exact_sets, hull_feasible_lp


def run_cli(tmp_path, args):
    return main([str(a) for a in args])


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def emit(tmp_path, command, doc, extra=()):
    prob = write_doc(tmp_path, f"{command}-problem.json", doc)
    out = tmp_path / f"{command}-report.json"
    rc = main([command, str(prob), "-o", str(out), *extra])
    return rc, prob, out


def test_canonical_round_trip(tmp_path):
    rng = random.Random(211)
    doc = make_problem(rng, "bang-bang")
    rc, prob, out = emit(tmp_path, "bang-bang", doc)
    assert rc == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert canonical_dumps(json.loads(text)) == text
    # canonically formatted problems also round trip byte for byte
    canon = canonical_dumps(json.loads(prob.read_text()))
    assert canonical_dumps(json.loads(canon)) == canon


def test_every_command_emits_verifiable_reports(tmp_path):
    rng = random.Random(223)
    for command in RUN_COMMANDS:
        for trial in range(3):
            mode = "atomic" if (command not in ("annihilator",) and trial == 2) \
                else "splittable"
            doc = make_problem(rng, command, mode=mode)
            prob = write_doc(tmp_path, f"{command}-{trial}-p.json", doc)
            rep = tmp_path / f"{command}-{trial}-r.json"
            rc = main([command, str(prob), "-o", str(rep)])
            assert rc == EXIT_OK, f"{command} trial {trial} failed to run"
            rc = main(["verify", str(prob), str(rep), "-o", "/dev/null"])
            assert rc == EXIT_OK, f"{command} trial {trial} failed verification"


def test_exact_mode_round_trip(tmp_path):
    rng = random.Random(227)
    for command in ("cond-exp", "partition", "bang-bang", "purify", "half-set"):
        doc = make_problem(rng, command, exact=True)
        prob = write_doc(tmp_path, f"x-{command}-p.json", doc)
        rep = tmp_path / f"x-{command}-r.json"
        assert main([command, str(prob), "-o", str(rep)]) == EXIT_OK
        report = json.loads(rep.read_text())
        assert report["parameters"]["exact"] is True
        assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) == EXIT_OK


def test_exact_mode_rejects_floats(tmp_path):
    rng = random.Random(229)
    doc = make_problem(rng, "cond-exp")
    doc.setdefault("parameters", {})["exact"] = True
    prob = write_doc(tmp_path, "reject.json", doc)
    assert main(["cond-exp", str(prob), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_tampered_reports_fail_with_exit_4(tmp_path):
    rng = random.Random(233)
    cases = []
    for command in ("cond-exp", "partition", "bang-bang", "purify", "half-set"):
        doc = make_problem(rng, command)
        prob = write_doc(tmp_path, f"t-{command}-p.json", doc)
        rep = tmp_path / f"t-{command}-r.json"
        assert main([command, str(prob), "-o", str(rep)]) == EXIT_OK
        cases.append((command, prob, rep))
    for command, prob, rep in cases:
        report = json.loads(rep.read_text())
        bad = copy.deepcopy(report)
        # edit one numeric leaf of the outputs or residuals
        if command == "cond-exp":
            bad["outputs"]["expectation"]["values"][0][0] += 0.5
        elif command == "partition":
            bad["residuals"]["max_residual"] = 123.0
        elif command == "bang-bang":
            bad["outputs"]["lhs"]["values"][0][0] += 0.25
        elif command == "purify":
            bad["residuals"]["max_deviation"] = 7.0
        else:
            bad["outputs"]["half"]["triples"][0][2] = 0.0
        bad_path = write_doc(tmp_path, f"t-{command}-bad.json", bad)
        rc = main(["verify", str(prob), str(bad_path), "-o", "/dev/null"])
        assert rc == EXIT_VERIFY, f"tampered {command} report passed verification"


def test_foreign_report_digest_mismatch(tmp_path):
    rng = random.Random(239)
    doc1 = make_problem(rng, "cond-exp")
    doc2 = make_problem(rng, "cond-exp")
    p1 = write_doc(tmp_path, "d1.json", doc1)
    p2 = write_doc(tmp_path, "d2.json", doc2)
    rep = tmp_path / "d1-r.json"
    assert main(["cond-exp", str(p1), "-o", str(rep)]) == EXIT_OK
    assert main(["verify", str(p2), str(rep), "-o", "/dev/null"]) == EXIT_VERIFY


def test_exit_code_contract_on_error_corpus(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["cond-exp", str(bad_json), "-o", "/dev/null"]) == EXIT_SCHEMA

    missing_mode = write_doc(tmp_path, "m.json", {"space": {"weights": [1.0]}})
    assert main(["cond-exp", str(missing_mode), "-o", "/dev/null"]) == EXIT_SCHEMA

    wrong_shape = write_doc(tmp_path, "w.json", {
        "space": {"weights": [0.5, 0.5], "mode": "splittable"},
        "payload": {"function": {"dim": 1, "values": [[1.0]]}}})
    assert main(["cond-exp", str(wrong_shape), "-o", "/dev/null"]) == EXIT_SCHEMA

    outside_hull = write_doc(tmp_path, "h.json", {
        "space": {"weights": [0.5, 0.5], "mode": "splittable"},
        "payload": {"polytopes": {"dim": 1, "vertices": [[[0.0], [1.0]]] * 2},
                    "selection": {"dim": 1, "values": [[0.5], [9.0]]}}})
    assert main(["bang-bang", str(outside_hull), "-o", "/dev/null"]) == EXIT_PRECONDITION

    atomic_annihilator = write_doc(tmp_path, "a.json", {
        "space": {"weights": [0.5, 0.5], "mode": "atomic"},
        "payload": {"function": {"dim": 1, "values": [[1.0], [1.0]]},
                    "set": {"triples": [[0, 0.0, 0.5], [1, 0.0, 0.5]]}}})
    assert main(["annihilator", str(atomic_annihilator), "-o", "/dev/null"]) \
        == EXIT_PRECONDITION


@pytest.mark.parametrize("command, weights, mode, payload", [
    # the total overflows, so every weight would divide to 0.0
    ("cond-exp", [1e308, 1e308], "splittable", {"function": {"dim": 1, "values": [[1.0], [2.0]]}}),
    # cell 0 would normalize to 0.0, an atom of no mass
    ("coarseness", [1e-300, 1e300], "atomic",
     {"set": {"triples": [[0, 0.0, 0.0], [1, 0.0, 1.0]]}}),
])
def test_weights_that_do_not_normalize_to_positive_floats_are_a_schema_error(
        tmp_path, capsys, command, weights, mode, payload):
    doc = write_doc(tmp_path, "w.json", {"space": {"weights": weights, "mode": mode},
                                         "payload": payload})
    assert main([command, str(doc), "-o", "/dev/null"]) == EXIT_SCHEMA
    assert "schema error: space: cell weights over their float total" in capsys.readouterr().err


def test_a_point_set_too_small_for_the_tolerance_is_a_precondition_failure(tmp_path, capsys):
    # five planar points within 1e-10 of the origin: at tolerance 1e-9 each is
    # inside the hull of the others, which no longer reads as "outside the hull"
    rng = random.Random(3)
    tiny = [[rng.uniform(-1, 1) * 1e-10 for _ in range(2)] for _ in range(5)]
    doc = write_doc(tmp_path, "tiny.json", {
        "space": {"weights": [0.5, 0.5], "mode": "splittable"},
        "payload": {"points": {"dim": 2, "vertices": [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                                      tiny]},
                    "selection": {"dim": 2, "values": [[0.25, 0.25], tiny[0]]}}})
    assert main(["pointset-bang-bang", str(doc), "-o", "/dev/null"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "at cell 1 is extreme at tolerance 1e-09" in err
    assert "convex hull" not in err


def test_mode_and_tol_flags(tmp_path):
    rng = random.Random(241)
    doc = make_problem(rng, "coarseness", mode="splittable")
    prob = write_doc(tmp_path, "flags.json", doc)
    rep = tmp_path / "flags-r.json"
    assert main(["coarseness", str(prob), "--mode", "atomic", "--tol", "1e-7",
                 "-o", str(rep)]) == EXIT_OK
    report = json.loads(rep.read_text())
    assert report["parameters"]["mode"] == "atomic"
    assert report["parameters"]["tolerance"] == 1e-7
    assert report["outputs"]["is_coarser"] is False
    assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) == EXIT_OK


def test_stdin_and_stdout(tmp_path, capsys, monkeypatch):
    import io
    rng = random.Random(251)
    doc = make_problem(rng, "cond-exp")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["cond-exp", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["command"] == "cond-exp"


def test_verify_ignores_the_tolerance_a_report_states(tmp_path):
    rng = random.Random(257)
    tampers = {
        "partition": lambda r: r["residuals"].__setitem__("max_residual", 42.0),
        "cond-exp": lambda r: r["outputs"]["expectation"]["values"][0].__setitem__(0, 99.0),
        "purify": lambda r: r["residuals"].__setitem__("max_deviation", 9.0),
    }
    for command, tamper in tampers.items():
        doc = make_problem(rng, command)
        rc, prob, out = emit(tmp_path, command, doc)
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        tamper(report)
        report["parameters"]["tolerance"] = 1000.0
        assert verify_report(doc, report), f"tampered {command} report passed"
        bad = write_doc(tmp_path, f"{command}-loose.json", report)
        assert main(["verify", str(prob), str(bad), "-o", "/dev/null"]) == EXIT_VERIFY


def test_verify_compares_at_the_tol_flag(tmp_path):
    rng = random.Random(263)
    doc = make_problem(rng, "cond-exp")
    rc, prob, out = emit(tmp_path, "cond-exp", doc)
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    report["outputs"]["expectation"]["values"][0][0] += 1e-6
    off = write_doc(tmp_path, "off.json", report)
    assert main(["verify", str(prob), str(off), "-o", "/dev/null"]) == EXIT_VERIFY
    assert main(["verify", str(prob), str(off), "--tol", "1e-5", "-o", "/dev/null"]) \
        == EXIT_OK
    assert main(["verify", str(prob), str(off), "--tol", "1e-7", "-o", "/dev/null"]) \
        == EXIT_VERIFY


def test_verify_compares_the_atomic_reference_conditional():
    rng = random.Random(269)
    doc = make_problem(rng, "coarseness", mode="atomic")
    report = json.loads(canonical_dumps(run("coarseness", parse_problem(doc))))
    assert verify_report(doc, report) == []
    blocks = len(report["outputs"]["reference_conditional"])
    report["outputs"]["reference_conditional"] = [123.0] * blocks
    assert verify_report(doc, report)


@pytest.mark.parametrize("key, mode", [("reference_conditional", "atomic"),
                                       ("witness_conditional", "splittable")])
def test_verify_labels_a_claimed_conditional_by_its_place_in_the_outputs(tmp_path, key, mode):
    doc = make_problem(random.Random(269), "coarseness", mode=mode)
    report = json.loads(canonical_dumps(run("coarseness", parse_problem(doc))))
    report["outputs"][key][-1] = "x"
    last = len(report["outputs"][key]) - 1
    with pytest.raises(SchemaError, match=rf"^outputs\.{key}\[{last}\]: expected a number"):
        verify_report(doc, report)
    prob = write_doc(tmp_path, "label-p.json", doc)
    path = write_doc(tmp_path, "label-r.json", report)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_verify_rejects_a_splittable_witness_outside_the_set():
    doc = {"space": {"weights": [0.5, 0.5], "mode": "splittable"},
           "payload": {"set": {"triples": [[0, 0.0, 0.5]]}}}
    report = json.loads(canonical_dumps(run("coarseness", parse_problem(doc))))
    assert report["outputs"]["witness"] == {"triples": [[0, 0.0, 0.25]]}
    assert verify_report(doc, report) == []
    report["outputs"]["witness"] = {"triples": [[1, 0.0, 0.25]]}
    assert verify_report(doc, report)


def _annihilator_report():
    doc = make_problem(random.Random(5), "annihilator")
    report = json.loads(canonical_dumps(run("annihilator", parse_problem(doc))))
    assert verify_report(doc, report) == []
    return doc, report


def test_verify_rejects_annihilator_refined_weights_that_do_not_add_up():
    doc, report = _annihilator_report()
    space = report["outputs"]["space"]
    space["weights"] = [2 * w for w in space["weights"]]
    assert verify_report(doc, report)


def test_verify_labels_an_annihilator_refined_weight_by_its_index(tmp_path):
    doc, report = _annihilator_report()
    report["outputs"]["space"]["weights"][1] = "x"
    with pytest.raises(SchemaError,
                       match=r"^outputs\.space\.weights\[1\]: expected a number, got str"):
        verify_report(doc, report)
    prob = write_doc(tmp_path, "weight-p.json", doc)
    path = write_doc(tmp_path, "weight-r.json", report)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_verify_rejects_an_annihilator_set_other_than_the_lifted_problem_set():
    doc, report = _annihilator_report()
    assert report["outputs"]["set"] != report["outputs"]["support"]
    report["outputs"]["set"] = report["outputs"]["support"]
    assert verify_report(doc, report)


def test_verify_rejects_an_annihilator_partition_other_than_the_lifted_one():
    doc, report = _annihilator_report()
    blocks = report["outputs"]["partition"]["blocks"]
    assert len(set(blocks)) > 1
    report["outputs"]["partition"]["blocks"] = [0] * len(blocks)
    assert verify_report(doc, report)



@pytest.mark.parametrize("where", ["outputs", "residuals", "outputs.space",
                                   "outputs.partition"])
@pytest.mark.parametrize("value", [[], "x", 3], ids=["array", "string", "number"])
def test_verify_rejects_report_sections_that_are_not_objects(tmp_path, where, value):
    doc, report = _annihilator_report()
    if where.startswith("outputs."):
        report["outputs"][where.split(".")[1]] = value
    else:
        report[where] = value
    with pytest.raises(SchemaError, match=f"{where} must be an object"):
        verify_report(doc, report)
    prob = write_doc(tmp_path, "section-p.json", doc)
    path = write_doc(tmp_path, "section-r.json", report)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


@pytest.mark.parametrize("command", [[], {}, ["cond-exp"], 3, None])
def test_verify_rejects_a_report_command_that_is_no_command_name(tmp_path, command):
    doc = make_problem(random.Random(5), "cond-exp")
    report = json.loads(canonical_dumps(run("cond-exp", parse_problem(doc))))
    report["command"] = command
    with pytest.raises(SchemaError, match="unknown command"):
        verify_report(doc, report)
    prob = write_doc(tmp_path, "command-p.json", doc)
    path = write_doc(tmp_path, "command-r.json", report)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_verify_refuses_the_flags_it_reads_from_the_report(tmp_path):
    rng = random.Random(271)
    doc = make_problem(rng, "bang-bang")
    rc, prob, out = emit(tmp_path, "bang-bang", doc)
    assert rc == EXIT_OK
    assert main(["verify", str(prob), str(out), "-o", "/dev/null"]) == EXIT_OK
    for flag in (["--mode", "atomic"], ["--mode", "splittable"], ["--exact"],
                 ["--diagonal-only"]):
        assert main(["verify", str(prob), str(out), *flag, "-o", "/dev/null"]) \
            == EXIT_SCHEMA, flag


def test_seed_is_neither_a_flag_nor_a_report_parameter(tmp_path):
    rng = random.Random(277)
    doc = make_problem(rng, "cond-exp")
    doc["parameters"] = {"seed": "ignored like any unknown key"}
    rc, prob, out = emit(tmp_path, "cond-exp", doc)
    assert rc == EXIT_OK
    assert "seed" not in json.loads(out.read_text())["parameters"]
    with pytest.raises(SystemExit) as exit_info:
        main(["cond-exp", str(prob), "--seed", "3", "-o", "/dev/null"])
    assert exit_info.value.code == EXIT_SCHEMA


def _pointset_doc(cells, selection, exact, weights=None, blocks=None):
    """A ``pointset-bang-bang`` problem, of equal cell weights in one block
    unless ``weights`` and ``blocks`` are given, and its number encoder."""
    enc = (lambda x: {"num": Fraction(x).numerator, "den": Fraction(x).denominator}) \
        if exact else float
    doc = {"space": {"weights": [enc(w) for w in weights or [1] * len(cells)],
                     "mode": "splittable"},
           "partition": {"blocks": blocks or [0] * len(cells)},
           "payload": {"points": {"dim": len(selection[0]),
                                  "vertices": [[[enc(c) for c in pt] for pt in cell]
                                               for cell in cells]},
                       "selection": {"dim": len(selection[0]),
                                     "values": [[enc(c) for c in pt] for pt in selection]}}}
    if exact:
        doc["parameters"] = {"exact": True}
    return doc, enc


def _pointset_with_interior_points(exact, count=3):
    """``count`` cells, each a square with one interior point; shifted apart
    so no cell shares a point with another."""
    cells = [[(10 * k, 0), (10 * k + 4, 0), (10 * k, 4), (10 * k + 4, 4), (10 * k + 1, 1)]
             for k in range(count)]
    selection = [(10 * k + Fraction(3, 2), Fraction(5, 2)) for k in range(count)]
    doc, enc = _pointset_doc(cells, selection, exact, [1 + k % 3 for k in range(count)],
                             [2 * k // count for k in range(count)])
    return doc, cells, enc


@pytest.mark.parametrize("exact", [False, True])
def test_verify_rejects_a_branch_value_that_is_not_an_extreme_point(exact):
    # 3 cells and 80; verify's certificate settles the square corners without
    # LPs, so the lockstep LPs are covered by
    # test_verify_runs_the_lps_the_certificate_leaves_in_lockstep
    for count in (3, 80):
        doc, cells, enc = _pointset_with_interior_points(exact, count)
        report = json.loads(canonical_dumps(run("pointset-bang-bang", parse_problem(doc))))
        assert verify_report(doc, report) == []

        def positive(mass):
            return (mass["num"] if isinstance(mass, dict) else mass) > 0

        touched = [i for i, piece in enumerate(report["outputs"]["pieces"])
                   if any(k == 0 and positive(mass) for k, _, mass in piece["triples"])]
        assert touched
        interior, other_cells_vertex = cells[0][4], cells[1][0]
        for value in (interior, other_cells_vertex):
            bad = copy.deepcopy(report)
            bad["outputs"]["branch_values"][touched[0]]["values"][0] = [enc(c) for c in value]
            # the last cell too, which the first failure must not name
            bad["outputs"]["branch_values"][touched[0]]["values"][-1] = [enc(c) for c in value]
            violations = [v for v in verify_report(doc, bad) if "not an extreme point" in v]
            assert violations == [f"cell 0: branch {touched[0]} value is not an extreme point"], \
                (count, value, violations)


def _numbers_to(obj, value):
    """``obj`` with every float leaf replaced by ``value``."""
    if isinstance(obj, float):
        return value
    if isinstance(obj, dict):
        return {k: _numbers_to(v, value) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_numbers_to(v, value) for v in obj]
    return obj


@pytest.mark.parametrize("command", ["cond-exp", "partition", "bang-bang", "purify"])
def test_verify_rejects_non_finite_numbers_in_a_report_with_exit_2(tmp_path, command):
    doc = make_problem(random.Random(281), command)
    rc, prob, out = emit(tmp_path, command, doc)
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    for key in ("outputs", "residuals", "certified_bound"):
        if json.dumps(_numbers_to(report[key], 0)) == json.dumps(report[key]):
            continue  # no float to tamper with: cond-exp has no residuals
        for value in (math.nan, math.inf):
            bad = dict(report, **{key: _numbers_to(report[key], value)})
            # NaN and Infinity are not JSON, but json.dumps writes them
            path = tmp_path / f"{command}-{key}-{value}.json"
            path.write_text(json.dumps(bad), encoding="utf-8")
            assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA
            if key == "outputs" or command != "cond-exp":  # what verify reads
                with pytest.raises(SchemaError):
                    verify_report(doc, bad)
    # a literal too large for binary64 parses as inf
    marked = dict(report, outputs=_numbers_to(report["outputs"], 12345.5))
    text = json.dumps(marked).replace("12345.5", "1e999")
    path = tmp_path / f"{command}-overflow.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_bad_tolerances_are_schema_errors(tmp_path):
    doc = make_problem(random.Random(283), "cond-exp")
    rc, prob, out = emit(tmp_path, "cond-exp", doc)
    assert rc == EXIT_OK
    for tol in ("nan", "inf", "-inf", "-1"):
        assert main(["cond-exp", str(prob), f"--tol={tol}", "-o", "/dev/null"]) == EXIT_SCHEMA
        assert main(["verify", str(prob), str(out), f"--tol={tol}", "-o", "/dev/null"]) \
            == EXIT_SCHEMA
    for tol in (True, -1e-9, "1e-9", math.nan):
        bad = dict(doc, parameters={"tolerance": tol})
        path = tmp_path / "bad-tol.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["cond-exp", str(path), "-o", "/dev/null"]) == EXIT_SCHEMA, tol
    # zero is a tolerance, which float round-off may not meet
    assert main(["verify", str(prob), str(out), "--tol", "0", "-o", "/dev/null"]) \
        in (EXIT_OK, EXIT_VERIFY)
    assert main(["verify", str(prob), str(out), "--tol", "1e-6", "-o", "/dev/null"]) == EXIT_OK


def _purify_report(exact, mode, seed=293):
    doc = make_problem(random.Random(seed), "purify", exact=exact, mode=mode)
    report = json.loads(canonical_dumps(run("purify", parse_problem(doc))))
    assert verify_report(doc, report) == []
    return doc, report


def _enc(x, exact):
    return {"num": Fraction(x).numerator, "den": Fraction(x).denominator} if exact else x


def _dec(v):
    return Fraction(v["num"], v["den"]) if isinstance(v, dict) else v


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("mode", ["splittable", "atomic"])
def test_verify_rejects_purify_chunks_outside_their_cell_or_stacked(exact, mode):
    doc, report = _purify_report(exact, mode)
    # one chunk moved far out of its cell, or before its start
    for offset in (10 ** 9, -5):
        bad = copy.deepcopy(report)
        bad["outputs"]["chunks"][0][1] = _enc(offset, exact)
        assert any("leaves the cell" in v for v in verify_report(doc, bad)), offset
    # one chunk halved into two chunks stacked on its offset: masses, actions
    # and payoffs are unchanged (an atom is found split before the overlap)
    bad = copy.deepcopy(report)
    k, off, m, a = bad["outputs"]["chunks"][0]
    half = _enc(_dec(m) / 2, exact)
    bad["outputs"]["chunks"][0:1] = [[k, off, half, a], [k, off, half, a]]
    found = "fractional mass" if mode == "atomic" else "overlaps one ending at"
    assert any(found in v for v in verify_report(doc, bad))


@pytest.mark.parametrize("exact", [False, True])
def test_verify_rejects_atoms_split_across_actions(tmp_path, exact):
    """Each atom split across its supported actions in mixture proportions
    pays the mixture's payoff exactly: a mixed strategy passed off as pure."""
    doc, report = _purify_report(exact, "atomic", seed=307)
    problem = parse_problem(doc)
    mixture = doc["payload"]["young_measure"]
    chunks = []
    for k, w in enumerate(problem.grid.weights):
        offset = 0
        for a, share in enumerate(mixture[k]):
            if _dec(share) > 0:
                m = w * (Fraction(_dec(share)) if exact else _dec(share))
                chunks.append([k, _enc(offset, exact), _enc(m, exact), a])
                offset += m
    assert len(chunks) > len(problem.grid.weights)
    bad = copy.deepcopy(report)
    bad["outputs"]["chunks"] = chunks
    bad["outputs"]["rhs"] = bad["outputs"]["lhs"]
    bad["residuals"]["max_deviation"] = _enc(0, exact)
    violations = verify_report(doc, bad)
    assert violations and all("atomic chunk carries fractional mass" in v
                              for v in violations), violations
    prob = write_doc(tmp_path, "split-p.json", doc)
    path = write_doc(tmp_path, "split-r.json", bad)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_VERIFY


@pytest.mark.parametrize("exact", [False, True])
def test_verify_rejects_booleans_as_purify_chunk_indices(exact):
    doc, report = _purify_report(exact, "splittable")
    for column, what in ((0, "cell"), (3, "action")):
        bad = copy.deepcopy(report)
        rows = [row for row in bad["outputs"]["chunks"] if row[column] == 1]
        assert rows
        for row in rows:
            row[column] = True  # equal to 1 in Python, but not an index in JSON
        assert any(f"unknown {what} True" in v for v in verify_report(doc, bad)), what


@pytest.mark.parametrize("key, value", [("diagonal_only", "yes"), ("diagonal_only", 1),
                                        ("exact", 0), ("exact", [])])
def test_verify_rejects_report_flags_that_are_not_booleans(tmp_path, key, value):
    doc = make_problem(random.Random(311), "bang-bang")
    rc, prob, out = emit(tmp_path, "bang-bang", doc)
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    report["parameters"][key] = value
    with pytest.raises(SchemaError, match=f"the {key} override must be a boolean"):
        verify_report(doc, report)
    path = write_doc(tmp_path, "flag-r.json", report)
    assert main(["verify", str(prob), str(path), "-o", "/dev/null"]) == EXIT_SCHEMA


def test_verify_takes_the_problems_regime_where_the_report_leaves_it_out():
    doc = make_problem(random.Random(5), "cond-exp", exact=True)
    report = json.loads(canonical_dumps(run("cond-exp", parse_problem(doc))))
    cell = report["outputs"]["expectation"]["values"][0]
    moved = Fraction(cell[0]["num"], cell[0]["den"]) + Fraction(1, 10 ** 12)
    cell[0] = {"num": moved.numerator, "den": moved.denominator}
    assert verify_report(doc, report)
    # a report that leaves them out is checked in the problem's own regime,
    # exact here, so a move far below the float tolerance of 1e-9 still shows
    for key in ("exact", "diagonal_only", "mode"):
        del report["parameters"][key]
    assert verify_report(doc, report)


def _huge_values():
    """A string of 10**6 characters and a list nested 900 deep."""
    nested: list = []
    for _ in range(900):
        nested = [nested]
    return ["m" * 10 ** 6, nested]


@pytest.mark.parametrize("value", _huge_values(), ids=["string", "nested"])
@pytest.mark.parametrize("where", ["space.mode", "parameters.tolerance", "report.command"])
def test_schema_errors_echo_a_bounded_part_of_the_offending_value(tmp_path, capsys, where,
                                                                     value):
    doc = make_problem(random.Random(7), "cond-exp")
    rc, prob, out = emit(tmp_path, "cond-exp", doc)
    assert rc == EXIT_OK
    if where == "report.command":
        report = json.loads(out.read_text())
        report["command"] = value
        out.write_text(json.dumps(report), encoding="utf-8")
        args = ["verify", str(prob), str(out), "-o", "/dev/null"]
    else:
        if where == "space.mode":
            doc["space"]["mode"] = value
        else:
            doc["parameters"] = {"tolerance": value}
        args = ["cond-exp", str(write_doc(tmp_path, "huge.json", doc)), "-o", "/dev/null"]
    capsys.readouterr()
    assert main(args) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error: ")
    assert len(err) < 200, err[:300]


@pytest.mark.parametrize("batch", [1, 2, cli._MATCH_BATCH])
@pytest.mark.parametrize("exact", [False, True])
def test_verify_matches_a_branch_value_to_a_vertex_within_tol(monkeypatch, exact, batch):
    monkeypatch.setattr(cli, "_MATCH_BATCH", batch)
    doc, cells, enc = _pointset_with_interior_points(exact, 5)
    report = json.loads(canonical_dumps(run("pointset-bang-bang", parse_problem(doc))))
    values = report["outputs"]["branch_values"][0]["values"]
    if not exact:
        # a value within tol of its vertex still matches it; beyond, none;
        # at tol 0 only an equal value matches
        for shift, tol, ok in ((0.5e-9, None, True), (4e-9, None, False),
                               (0.0, 0.0, True), (0.5e-9, 0.0, False)):
            moved = copy.deepcopy(report)
            moved["outputs"]["branch_values"][0]["values"] = [
                [c + shift for c in value] for value in values]
            extremeness = [v for v in verify_report(doc, moved, tol=tol)
                           if "not an extreme point" in v]
            assert (extremeness == []) == ok, (shift, tol, extremeness)
    short = copy.deepcopy(report)
    short["outputs"]["branch_values"][0] = {"dim": 1, "values": [value[:1] for value in values]}
    assert verify_report(doc, short) == ["branch values and vertices differ in dimension"]


# ---------------------------------------------------------------------------
# verify's separating-direction certificate of extremeness
# ---------------------------------------------------------------------------


def _assert_settled_pairs_are_extreme(pairs, tol):
    """Every settled pair is extreme by the solver's Phase-I LP and by scipy's."""
    assert all(lam is None for lam, _, _ in linalg.convex_combinations(pairs, tol))
    for others, vertex, _ in pairs:
        # a settled float vertex may lie just above 1e-9 from the hull of the
        # others, below scipy's default feasibility tolerance
        assert not hull_feasible_lp(vertex, others, feasibility_tol=1e-10), (vertex, others)


def _record_point_sets(sets, tol, exact):
    """The tests ``cli._matching_vertices`` makes of every distinct point of
    every set as a branch value of that set's cell."""
    tests = []
    for dim in sorted({len(pts[0]) for pts in sets}):
        cells = {k: list(dict.fromkeys(pts)) for k, pts in enumerate(sets)
                 if len(pts[0]) == dim}
        keys = [(k, v) for k, distinct in cells.items() for v in distinct]
        list(recording(tests)(keys, cells, tol, exact, dim))
    return tests


@pytest.mark.parametrize("workload", ["atomic-bangbang", "splittable-geometry",
                                      "exact-atomic"])
def test_the_certificate_settles_only_extreme_vertices_of_the_workloads(
        monkeypatch, workload):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    inst = next(inst for inst in workloads.instances(workload, 1)
                if inst.command in ("bang-bang", "pointset-bang-bang"))
    report = json.loads(canonical_dumps(run(inst.command, parse_problem(inst.document))))
    tests = []
    monkeypatch.setattr(cli, "_matching_vertices", recording(tests))
    assert verify_report(inst.document, report) == []
    pairs = certified_pairs(tests)
    # most pairs need no LP
    assert len(pairs) > sum(len(matches) for _, matches, _, _, _ in tests) / 2
    _assert_settled_pairs_are_extreme(pairs, tests[0][3])


def test_the_certificate_settles_only_extreme_vertices_of_near_degenerate_sets():
    rng = random.Random(67)
    sets = [_near_degenerate(rng) for _ in range(300)]
    pairs = certified_pairs(_record_point_sets(sets, 1e-9, False))
    assert len(pairs) > 300
    _assert_settled_pairs_are_extreme(pairs, 1e-9)


def test_the_certificate_settles_only_extreme_vertices_of_exact_sets():
    rng = random.Random(71)
    # a midpoint of two int points has float coordinates, which are exact
    sets = [[tuple(map(Fraction, pt)) for pt in pts] for pts in exact_sets(rng, 300)]
    pairs = certified_pairs(_record_point_sets(sets, Fraction(0), True))
    assert len(pairs) > 300
    _assert_settled_pairs_are_extreme(pairs, Fraction(0))


def _gap_and_bound(pts, j, tol):
    """The certificate's g and (tol + round-off allowance) max(||d||_inf, |m|)
    for point j of the float set ``pts``, in exact arithmetic."""
    exact = [tuple(map(Fraction, pt)) for pt in pts]
    d = [len(pts) * c - sum(col) for c, col in zip(exact[j], zip(*exact))]
    dots = [sum(a * b for a, b in zip(d, pt)) for pt in exact]
    m = max(dots[:j] + dots[j + 1:])
    allowance = 1e-10 * (1 + max(abs(c) for pt in pts for c in pt))
    return dots[j] - m, Fraction(tol + allowance) * max(max(map(abs, d)), abs(m))


def test_the_float_certificate_keeps_the_round_off_allowance():
    # a probe 10**k tol off a square's edge or corner, on either side, at
    # scales where the allowance 1e-10 (1 + max |coordinate|) reaches past tol
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    probes = [(1 + side * 10.0 ** k * 1e-9, y) for k in range(5) for side in (-1, 1)
              for y in (0.5, 1.0)]
    sets = [[(x * s, y * s) for x, y in square + [probe]]
            for s in (1.0, 1e3, 1e6) for probe in probes]
    tests = _record_point_sets(sets, 1e-9, False)
    decided = 0
    for cell, matches, flags, _, _ in tests:
        for j, flag in zip(matches, flags):
            gap, bound = _gap_and_bound(cell, j, 1e-9)
            if abs(gap - bound) > 1e-6 * bound:
                assert flag == (gap > bound), (cell, j)
                decided += 1
    assert decided > len(tests) / 2


@pytest.mark.parametrize("exact", [False, True])
def test_the_certificate_settles_nothing_under_overflow_and_warns_nothing(exact):
    # beyond about 1e150 the float products overflow; the pairs go to the LP,
    # whose verdicts stand alone (tier-1 makes a RuntimeWarning an error)
    rng = random.Random(73)
    scale = 10 ** 200 if exact else 1e200
    unit = [[tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(8)] for _ in range(20)]
    if not exact:
        unit = [[tuple(map(float, pt)) for pt in pts] for pts in unit]
    tol = Fraction(0) if exact else 1e-9
    tests = _record_point_sets([[tuple(c * scale for c in pt) for pt in pts] for pts in unit],
                               tol, exact)
    # one point at 1e155 among small ones: its d.q alone overflows, so its gap
    # is infinite while the width, even times tol, is finite
    far = 10 ** 155 if exact else 1e155
    far_tests = _record_point_sets([[tuple(c * far for c in pts[0])] + pts[1:]
                                    for pts in unit], tol, exact)
    if exact:
        # ints do not overflow: the exact certificate still settles most pairs
        assert len(certified_pairs(tests)) > len(tests) / 2
        _assert_settled_pairs_are_extreme(certified_pairs(tests), tol)
        assert certified_pairs(far_tests)
    else:
        assert certified_pairs(tests) == []
        assert not any(flag for cell, matches, flags, _, _ in far_tests
                       for j, flag in zip(matches, flags) if max(map(abs, cell[j])) > 1e100)


@pytest.mark.parametrize("command", ["bang-bang", "pointset-bang-bang"])
@pytest.mark.parametrize("exact", [False, True])
def test_verify_uses_none_of_the_solvers_extreme_point_code(monkeypatch, command, exact):
    docs = [make_problem(random.Random(f"own-{command}-{trial}"), command, exact=exact)
            for trial in range(4)]
    reports = [json.loads(canonical_dumps(run(command, parse_problem(doc)))) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("verify called the solver's extreme-point code")

    monkeypatch.setattr(polytope, "_separate", refuse)
    monkeypatch.setattr(polytope, "extreme_point_indices", refuse)
    for doc, report in zip(docs, reports):
        assert verify_report(doc, report) == []


def _submitted_lps(monkeypatch):
    """The list that the LP problems ``verify`` submits are appended to."""
    submitted, convex_combinations = [], cli.convex_combinations

    def spy(problems, tol):
        problems = list(problems)
        submitted.extend(problems)
        return convex_combinations(problems, tol)

    monkeypatch.setattr(cli, "convex_combinations", spy)
    return submitted


def test_verify_runs_fewer_lps_than_it_matches_vertices(monkeypatch):
    # Gaussian clouds of 12 points in dim 3, each selecting its centroid
    rng = random.Random(307)
    cells = [[tuple(rng.gauss(0, 1) for _ in range(3)) for _ in range(12)] for _ in range(60)]
    selection = [tuple(sum(c) / len(cell) for c in zip(*cell)) for cell in cells]
    doc, _ = _pointset_doc(cells, selection, False)
    report = json.loads(canonical_dumps(run("pointset-bang-bang", parse_problem(doc))))
    tests, submitted = [], _submitted_lps(monkeypatch)
    monkeypatch.setattr(cli, "_matching_vertices", recording(tests))
    assert verify_report(doc, report) == []
    matched = sum(len(matches) for _, matches, _, _, _ in tests)
    assert 0 < len(submitted) < matched


@pytest.mark.parametrize("exact", [False, True])
def test_verify_runs_the_lps_the_certificate_leaves_in_lockstep(monkeypatch, exact):
    # (0, 0) is a vertex of each triangle, but the centroid direction does not
    # separate it: with c the centroid, d = 3 (p - c) has d.(1, 0) = 4 > 0 =
    # d.p.  So each cell's (0, 0) value runs an LP of the same shape, and 40
    # of them take the float ones past the crossover into one lockstep batch
    count = 40
    cells = [[(10 * k, 0), (10 * k + 1, 0), (10 * k - 5, 1)] for k in range(count)]
    selection = [(10 * k - Fraction(4, 3), Fraction(1, 3)) for k in range(count)]
    doc, _ = _pointset_doc(cells, selection, exact)
    report = json.loads(canonical_dumps(run("pointset-bang-bang", parse_problem(doc))))
    lockstep, submitted = [], _submitted_lps(monkeypatch)
    run_lockstep = linalg._lockstep

    def spy_lockstep(group, *args):
        lockstep.append(len(group))
        return run_lockstep(group, *args)

    monkeypatch.setattr(linalg, "_lockstep", spy_lockstep)
    assert verify_report(doc, report) == []
    assert len(submitted) >= count
    assert sum(1 for points, _, _ in submitted if len(points) == 2) >= count
    assert lockstep == ([] if exact else [len(submitted)])
