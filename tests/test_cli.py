import copy
import json
import random
from fractions import Fraction

import pytest

from condbang.cli import (EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, EXIT_VERIFY,
                          RUN_COMMANDS, main, run, verify_report)
from condbang.documents import canonical_dumps, parse_problem

from cli_corpus import make_problem


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


def _pointset_with_interior_points(exact, count=3):
    """``count`` cells, each a square with one interior point; shifted apart
    so no cell shares a point with another."""
    enc = (lambda x: {"num": Fraction(x).numerator, "den": Fraction(x).denominator}) \
        if exact else float
    cells = [[(10 * k, 0), (10 * k + 4, 0), (10 * k, 4), (10 * k + 4, 4), (10 * k + 1, 1)]
             for k in range(count)]
    selection = [(10 * k + Fraction(3, 2), Fraction(5, 2)) for k in range(count)]
    doc = {"space": {"weights": [enc(1 + k % 3) for k in range(count)], "mode": "splittable"},
           "partition": {"blocks": [2 * k // count for k in range(count)]},
           "payload": {"points": {"dim": 2, "vertices": [[[enc(c) for c in pt] for pt in cell]
                                                         for cell in cells]},
                       "selection": {"dim": 2, "values": [[enc(c) for c in pt]
                                                          for pt in selection]}}}
    if exact:
        doc["parameters"] = {"exact": True}
    return doc, cells, enc


@pytest.mark.parametrize("exact", [False, True])
def test_verify_rejects_a_branch_value_that_is_not_an_extreme_point(exact):
    # 80 cells take verify's float LPs past the crossover into lockstep batches
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
