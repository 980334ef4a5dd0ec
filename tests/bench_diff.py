"""Compare benchmark history files (``BENCH_<n>.json``).

Each file lists, under ``end_to_end.runs``, the runs of ``bench/run.py`` per
workload (keyed ``<workload>/seed<seed>``) for the parent commit and for the
change, as the final JSON line ``bench/run.py`` prints.  For every workload
and metric found in either file, this prints the median of OLD's ``change``
runs, the median of NEW's ``change`` runs and NEW / OLD; a workload or metric
only one file has gets ``-`` for the other.

    python3 tests/bench_diff.py BENCH_7.json BENCH_8.json

With ``--pairs FILE`` it checks one file's parent and change runs instead,
run i of each side making pair i.  For each workload, seed and end-to-end
metric of ``BENCHMARK.json`` it prints both sides' medians with their
quartiles, the change / parent ratio, the pairs the change won (ties count
for neither) and a verdict under the metric's bound b and direction:

- ``regression``: the change's median is worse than the parent's by more
  than b of the parent's;
- ``gain``: the change won at least 9 in 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
- ``unresolved``: either side's interquartile range exceeds b of its median,
  and not every change run is better than every parent run;
- ``within bound`` otherwise.

    python3 tests/bench_diff.py --pairs BENCH_10.json

Exits 1 when a verdict is a regression, and 2, naming the file and the
place, when a file is not of that layout.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Malformed(Exception):
    pass


def _change_runs(path: str) -> dict[str, list[dict]]:
    """workload -> its ``change`` runs, each checked for the run layout."""
    runs = _load_runs(path)
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


def _load_runs(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise Malformed(f"{path}: {err}") from None
    runs = doc.get("end_to_end", {}).get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, dict) or not runs:
        raise Malformed(f"{path}: no end_to_end.runs object")
    return runs


def _bounds(path: pathlib.Path = BENCHMARK) -> list[tuple[str, str, float]]:
    """(name, better, bound) of every end-to-end metric of ``BENCHMARK.json``."""
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))["end_to_end"]
        return [(m["name"], m["better"], float(m["bound"])) for m in metrics]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise Malformed(f"{path}: {err}") from None


def _side(path: str, workload: str, sides: dict, side: str, names: list[str]) -> list[dict]:
    """One side's runs, each with a number for every metric in ``names``."""
    runs = sides.get(side)
    if not isinstance(runs, list) or not runs:
        raise Malformed(f"{path}: {workload}: no list of {side} runs")
    for i, run in enumerate(runs):
        metrics = run.get("metrics") if isinstance(run, dict) else None
        for name in names:
            entry = metrics.get(name) if isinstance(metrics, dict) else None
            value = entry.get("value") if isinstance(entry, dict) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise Malformed(f"{path}: {workload}: {side} run {i}: {name} has no number")
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float
            ) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric; see the module docstring."""
    sign = 1 if better == "higher" else -1  # sign * value grows as it gets better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    if sign * (pmed - cmed) > bound * abs(pmed):
        return wins, "regression"
    if wins >= 0.9 * len(parent) and sign * (cmed - pmed) > p3 - p1:
        return wins, "gain"
    spread = max(p3 - p1 - bound * abs(pmed), c3 - c1 - bound * abs(cmed))
    if spread > 0 and not min(sign * c for c in change) > max(sign * p for p in parent):
        return wins, "unresolved"
    return wins, "within bound"


def pair_lines(path: str) -> tuple[list[str], bool]:
    """The table of ``--pairs`` and whether any verdict is a regression."""
    runs, bounds = _load_runs(path), _bounds()
    names = [name for name, _, _ in bounds]
    lines = [f"{'workload':30s} {'metric':13s} {'parent [q1, q3]':>30s} "
             f"{'change [q1, q3]':>30s} {'chg/par':>8s} {'wins':>6s}  verdict"]
    regressed = False
    for workload, sides in runs.items():
        if not isinstance(sides, dict):
            raise Malformed(f"{path}: {workload}: not an object of runs")
        parent = _side(path, workload, sides, "parent", names)
        change = _side(path, workload, sides, "change", names)
        if len(parent) != len(change):
            raise Malformed(f"{path}: {workload}: {len(parent)} parent runs but "
                            f"{len(change)} change runs")
        for name, better, bound in bounds:
            p = [run["metrics"][name]["value"] for run in parent]
            c = [run["metrics"][name]["value"] for run in change]
            wins, word = verdict(p, c, better, bound)
            regressed |= word == "regression"
            cells = []
            for values in (p, c):
                q1, med, q3 = _quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            ratio = "-" if statistics.median(p) == 0 else \
                f"{statistics.median(c) / statistics.median(p):.3f}"
            lines.append(f"{workload:30s} {name:13s} {cells[0]:>30s} {cells[1]:>30s} "
                         f"{ratio:>8s} {f'{wins}/{len(p)}':>6s}  {word}")
    return lines, regressed


def main(argv: list[str]) -> int:
    pairs = len(argv) == 2 and argv[0] == "--pairs"
    if len(argv) != 2 or (not pairs and argv[0].startswith("-")):
        print("usage: bench_diff.py OLD NEW | bench_diff.py --pairs FILE", file=sys.stderr)
        return 2
    try:
        if pairs:
            lines, regressed = pair_lines(argv[1])
        else:
            lines, regressed = diff_lines(*argv), False
    except Malformed as err:
        print(f"bench_diff: malformed {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
