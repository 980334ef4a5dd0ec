"""The benchmark history diff: medians of the ``change`` runs, their ratio,
and a non-zero exit on a file that is not of the history layout."""

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
