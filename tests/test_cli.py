import copy
import json
import random

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
