"""The benchmark history diff: medians of the ``change`` runs, their ratio,
and a non-zero exit on a file that is not of the history layout; and the
pair check of one file's parent and change runs under the bounds of
``BENCHMARK.json``, with the runs' health and report hashes."""

from __future__ import annotations

import json
import pathlib

import pytest

from bench_diff import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(metrics: dict[str, float]) -> dict:
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


def _history(tmp_path, name: str, runs: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"end_to_end": {"runs": runs}}), encoding="utf-8")
    return str(path)


def test_medians_of_the_change_runs_and_their_ratio(tmp_path, capsys):
    old = _history(tmp_path, "old.json", {
        "w/seed1": {"parent": [_run({"solve_s": 99.0})],
                    "change": [_run({"solve_s": v}) for v in (1.0, 3.0, 2.0)]},
        "gone/seed1": {"change": [_run({"solve_s": 5.0})]}})
    new = _history(tmp_path, "new.json", {
        "w/seed1": {"change": [_run({"solve_s": v, "rss": 7.0}) for v in (0.5, 1.5)]}})
    assert main([old, new]) == 0
    rows = {tuple(line.split()[:2]): line.split()[2:]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows[("w/seed1", "solve_s")] == ["2", "1", "0.500"]
    assert rows[("w/seed1", "rss")] == ["-", "7", "-"]
    assert rows[("gone/seed1", "solve_s")] == ["5", "-", "-"]


def test_committed_history_files_diff_cleanly(capsys):
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert files
    assert main([str(files[0]), str(files[-1])]) == 0
    assert "cells_per_s" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    "not json",
    json.dumps({"trace": {}}),
    json.dumps({"end_to_end": {"runs": {"w/seed1": {"parent": [_run({"x": 1.0})]}}}}),
    json.dumps({"end_to_end": {"runs": {"w/seed1": {"change": [{"correct": True}]}}}}),
    json.dumps({"end_to_end": {"runs": {"w/seed1": {"change": [
        {"metrics": {"x": {"value": "1.0"}}}]}}}}),
], ids=["not-json", "no-runs", "no-change-runs", "no-metrics", "text-value"])
def test_a_malformed_file_exits_non_zero(tmp_path, capsys, content):
    good = _history(tmp_path, "good.json", {"w/seed1": {"change": [_run({"x": 1.0})]}})
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    assert main([good, str(bad)]) == 2
    assert main([str(bad), good]) == 2
    assert "malformed" in capsys.readouterr().err


E2E = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _pairs_file(tmp_path, parent, change, metric="cells_per_s") -> str:
    """Pairs that differ in ``metric`` only, every other metric at 1.0."""
    def run(value):
        return _run({name: value if name == metric else 1.0 for name in E2E})
    return _history(tmp_path, "pairs.json", {"w/seed1": {"parent": [run(v) for v in parent],
                                                         "change": [run(v) for v in change]}})


def _row(out: str, metric: str) -> list[str]:
    return next(line for line in out.splitlines() if line.split()[1:2] == [metric]).split()


@pytest.mark.parametrize("metric, parent, change, wins, word, code", [
    # ten pairs all won, medians 2x apart: a gain
    ("cells_per_s", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [200, 199, 201, 200, 202, 198, 200, 203, 197, 200], "10/10", "gain", 0),
    # 8 of 10 won is no gain, and 4% worse is within the 25% bound
    ("cells_per_s", [100] * 10, [101] * 8 + [50, 50], "8/10", "within", 0),
    ("solve_s_p50", [1.0, 1.01, 0.99], [0.97, 0.98, 1.02], "2/3", "within", 0),
    # 30% worse: a regression, whichever way the metric is better
    ("cells_per_s", [100, 101, 99], [70, 71, 69], "0/3", "regression", 1),
    ("solve_s_p50", [1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "0/3", "regression", 1),
    ("peak_rss_mb", [50.0, 50.1, 49.9], [56.0, 56.1, 55.9], "0/3", "regression", 1),
    # a spread wider than the bound leaves the medians unresolved...
    ("setup_s", [0.1, 0.2, 0.3], [0.1, 0.21, 0.3], "0/3", "unresolved", 0),
    # ...unless every change run beats every parent run
    ("setup_s", [0.5, 0.55, 0.9], [0.3, 0.45, 0.49], "3/3", "within", 0),
])
def test_pairs_verdicts(tmp_path, capsys, metric, parent, change, wins, word, code):
    assert main(["--pairs", _pairs_file(tmp_path, parent, change, metric)]) == code
    row = _row(capsys.readouterr().out, metric)
    # "within bound" is two words
    assert row[-2:] == [wins, word] or row[-3:-1] == [wins, word]


def test_pairs_print_medians_and_quartiles(tmp_path, capsys):
    assert main(["--pairs", _pairs_file(tmp_path, [1.0, 2.0, 3.0, 4.0, 5.0],
                                        [2.0, 3.0, 4.0, 5.0, 6.0])]) == 0
    row = " ".join(_row(capsys.readouterr().out, "cells_per_s"))
    assert "3 [2, 4] 4 [3, 5] 1.333 5/5" in row


def test_committed_newest_history_file_passes_the_pair_check(capsys):
    newest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert main(["--pairs", str(newest)]) == 0
    assert "cells_per_s" in capsys.readouterr().out


def _health_file(tmp_path, parent: list[dict], change: list[dict]) -> str:
    """Pairs with every end-to-end metric at 1.0, each run updated by the
    matching dict."""
    def runs(updates):
        return [{**_run(dict.fromkeys(E2E, 1.0)), **u} for u in updates]
    return _history(tmp_path, "health.json", {"w/seed1": {"parent": runs(parent),
                                                          "change": runs(change)}})


def _health(out: str) -> dict[str, str]:
    return {line.split()[1]: " ".join(line.split()[2:]) for line in out.splitlines()
            if line.split()[1:2] in (["runs"], ["report_sha256"])}


@pytest.mark.parametrize("parent, change, code, runs, hashes", [
    ([{"report_sha256": "a"}] * 3, [{"report_sha256": "a"}] * 3, 0,
     "all runs healthy", "equal in all 3 pairs"),
    # a differing hash is printed, but a change may declare new reports
    ([{"report_sha256": "a"}] * 3, [{"report_sha256": h} for h in "aba"], 0,
     "all runs healthy", "differs in pairs 1"),
    ([{}] * 2, [{"report_sha256": "a"}] * 2, 0, "all runs healthy", "not recorded"),
    ([{}, {"failed": 2}], [{}, {}], 1,
     "failed or incorrect: parent run 1", "not recorded"),
    ([{}, {}], [{"correct": False}, {"failed": 1}], 1,
     "failed or incorrect: change run 0, change run 1", "not recorded"),
], ids=["equal", "differs", "not-recorded", "parent-failed", "change-incorrect"])
def test_pairs_check_run_health_and_report_hashes(tmp_path, capsys, parent, change, code,
                                                  runs, hashes):
    assert main(["--pairs", _health_file(tmp_path, parent, change)]) == code
    assert _health(capsys.readouterr().out) == {"runs": runs, "report_sha256": hashes}


def test_committed_pair_file_of_equal_reports_reads_healthy(capsys):
    # every run of BENCH_19.json has failed 0, and its reports are equal in
    # every pair of every workload
    assert main(["--pairs", str(ROOT / "BENCH_19.json")]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    workloads = {line[0] for line in lines[1:]}
    assert len(workloads) == 4
    for workload in workloads:
        assert [workload, "runs", "all", "runs", "healthy"] in lines
        assert [workload, "report_sha256", "equal", "in", "all", "4", "pairs"] in lines


@pytest.mark.parametrize("runs", [
    {"w/seed1": {"change": [_run(dict.fromkeys(E2E, 1.0))]}},
    {"w/seed1": {"parent": [_run(dict.fromkeys(E2E, 1.0))] * 2,
                 "change": [_run(dict.fromkeys(E2E, 1.0))]}},
    {"w/seed1": {"parent": [_run({"setup_s": 1.0})], "change": [_run({"setup_s": 1.0})]}},
    {"w/seed1": []},
    {"w/seed1": {"parent": [{**_run(dict.fromkeys(E2E, 1.0)), "failed": "0"}],
                 "change": [_run(dict.fromkeys(E2E, 1.0))]}},
], ids=["no-parent-runs", "unpaired", "metric-missing", "not-an-object", "failed-text"])
def test_pairs_of_a_malformed_file_exit_2(tmp_path, capsys, runs):
    assert main(["--pairs", _history(tmp_path, "bad.json", runs)]) == 2
    assert "malformed" in capsys.readouterr().err


def _claim_file(tmp_path, claim, parent, change) -> str:
    """``_pairs_file``'s pairs in ``cells_per_s``, with a top-level claim."""
    path = pathlib.Path(_pairs_file(tmp_path, parent, change))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["claim"] = claim
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


GAIN = ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
        [200, 199, 201, 200, 202, 198, 200, 203, 197, 200])


@pytest.mark.parametrize("parent, change, code, word", [
    (*GAIN, 0, "gain"),
    # 8 of 10 pairs won: within the bound, but no gain, so the claim fails
    ([100] * 10, [101] * 8 + [50, 50], 1, "within bound"),
    ([100, 101, 99], [70, 71, 69], 1, "regression"),
], ids=["gain", "within", "regression"])
def test_pairs_check_the_claimed_metric_is_a_gain(tmp_path, capsys, parent, change, code,
                                                  word):
    claim = {"metric": "cells_per_s", "workload": "w/seed1"}
    assert main(["--pairs", _claim_file(tmp_path, claim, parent, change)]) == code
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"claim: cells_per_s on w/seed1: {word}"


@pytest.mark.parametrize("null", [False, True], ids=["absent", "null"])
def test_pairs_without_a_claim_print_no_claim_line(tmp_path, capsys, null):
    parent, change = [100] * 10, [101] * 8 + [50, 50]
    path = _claim_file(tmp_path, None, parent, change) if null else \
        _pairs_file(tmp_path, parent, change)
    assert main(["--pairs", path]) == 0
    assert "claim" not in capsys.readouterr().out


@pytest.mark.parametrize("claim", [
    "cells_per_s",
    {"metric": "cells_per_s"},
    {"metric": "cells_per_s", "workload": "w"},
    {"metric": "lyapunov.kernel_s", "workload": "w/seed1"},
    {"metric": "cells_per_s", "workload": ["w/seed1"]},
], ids=["not-an-object", "no-workload", "not-a-run-key", "not-end-to-end", "workload-list"])
def test_a_malformed_claim_exits_2(tmp_path, capsys, claim):
    assert main(["--pairs", _claim_file(tmp_path, claim, *GAIN)]) == 2
    assert "malformed" in capsys.readouterr().err
