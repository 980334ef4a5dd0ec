"""Compare two benchmark history files (``BENCH_<n>.json``).

Each file lists, under ``end_to_end.runs``, the runs of ``bench/run.py`` per
workload (keyed ``<workload>/seed<seed>``) for the parent commit and for the
change, as the final JSON line ``bench/run.py`` prints.  For every workload
and metric found in either file, this prints the median of OLD's ``change``
runs, the median of NEW's ``change`` runs and NEW / OLD; a workload or metric
only one file has gets ``-`` for the other.

    python3 tests/bench_diff.py BENCH_7.json BENCH_8.json

Exits 2, naming the file and the place, when a file is not of that layout.
"""

from __future__ import annotations

import json
import statistics
import sys


class Malformed(Exception):
    pass


def _change_runs(path: str) -> dict[str, list[dict]]:
    """workload -> its ``change`` runs, each checked for the run layout."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise Malformed(f"{path}: {err}") from None
    runs = doc.get("end_to_end", {}).get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, dict) or not runs:
        raise Malformed(f"{path}: no end_to_end.runs object")
    out = {}
    for workload, sides in runs.items():
        change = sides.get("change") if isinstance(sides, dict) else None
        if not isinstance(change, list) or not change:
            raise Malformed(f"{path}: {workload}: no list of change runs")
        for i, run in enumerate(change):
            metrics = run.get("metrics") if isinstance(run, dict) else None
            if not isinstance(metrics, dict):
                raise Malformed(f"{path}: {workload}: change run {i} has no metrics")
            for name, metric in metrics.items():
                value = metric.get("value") if isinstance(metric, dict) else None
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise Malformed(f"{path}: {workload}: change run {i}: {name} has no number")
        out[workload] = change
    return out


def _medians(runs: list[dict]) -> dict[str, float]:
    names = sorted({name for run in runs for name in run["metrics"]})
    return {name: statistics.median(run["metrics"][name]["value"]
                                    for run in runs if name in run["metrics"])
            for name in names}


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def diff_lines(old_path: str, new_path: str) -> list[str]:
    old, new = _change_runs(old_path), _change_runs(new_path)
    lines = [f"{'workload':30s} {'metric':14s} {'old':>12s} {'new':>12s} {'new/old':>9s}"]
    for workload in sorted(set(old) | set(new)):
        old_m = _medians(old[workload]) if workload in old else {}
        new_m = _medians(new[workload]) if workload in new else {}
        for name in sorted(set(old_m) | set(new_m)):
            a, b = old_m.get(name), new_m.get(name)
            ratio = "-" if a is None or b is None or a == 0 else f"{b / a:.3f}"
            lines.append(f"{workload:30s} {name:14s} {_cell(a):>12s} {_cell(b):>12s} {ratio:>9s}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_diff.py OLD NEW", file=sys.stderr)
        return 2
    try:
        lines = diff_lines(*argv)
    except Malformed as err:
        print(f"bench_diff: malformed {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
