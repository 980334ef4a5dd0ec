"""condbang benchmark: a single-process, single-threaded, closed-loop driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each instance is a seeded problem document
(``bench/workloads.py``) sent through the public CLI pipeline in-process:
``documents.parse_problem`` -> ``cli.run`` -> ``documents.canonical_dumps``
(the solve), then ``cli.verify_report`` on the parsed report bytes (the
verify).  The next instance starts when the previous one has been verified.
Every report must pass ``verify_report``; a rejection or an exception counts
as a failure.

On a shared virtual machine the speed of the same Python code swings by a
factor of up to two within seconds, and drifts over minutes (measured on a
2-vCPU VM).  So while the program runs, a timer signal interrupts it every
``SAMPLE_INTERVAL_S`` and times a short fixed reference computation; the
mean of those samples over an instance, divided by ``REFERENCE_S``, is the
machine's pace during that instance, and the instance's times are divided by
it.  Timings are thus seconds at the machine's usual pace; the raw wall
times are printed beside them.  The time spent in the samples is not
counted in the program's times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
instance twice, untraced and traced (``bench/spans.py``) in alternating
order, and prints the per-layer metrics; the difference between the two is
the tracing overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import gzip
import hashlib
import itertools
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh processes started to time set-up; the median is reported
SETUP_REPEATS = 9
#: samples of the machine's pace taken just before and just after a set-up
SETUP_BURST = 20
#: reports hashed into the informational digest (the first ones of the seed)
DIGEST_INSTANCES = 3
#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10
#: seconds between two samples of the machine's pace
SAMPLE_INTERVAL_S = 0.025
#: fewest samples a pace is taken over
PACE_SAMPLES = 8
#: seconds reference_work() takes at the usual pace of the machine the
#: benchmark was tuned on (a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11)
REFERENCE_S = 0.00025
#: end-to-end metrics in the final JSON (see BENCHMARK.json); failed_ratio and
#: deviation_rel_max are printed above it, since they can be zero or depend
#: on the seed alone
BOUNDED = ("setup_s", "cells_per_s", "solve_s_p50", "solve_s_tail", "verify_s_p50",
           "peak_rss_mb")

# Time to import the package and CLI and parse one document in a new
# interpreter.  The document arrives on stdin; the path to import from is argv[1].
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import condbang, condbang.cli
from condbang.documents import load_json, parse_problem
parse_problem(load_json(sys.stdin.read(), "problem"))
elapsed = time.perf_counter() - t0
if not condbang.__file__.startswith(sys.argv[1]):
    sys.exit("condbang was imported from " + condbang.__file__)
print(repr(elapsed))
"""


class ProgramNotFound(Exception):
    """The checkout has no condbang sources next to the benchmark."""


def load_program() -> tuple[Any, Any]:
    """Import condbang from this checkout's ``src`` and nowhere else."""
    if not (SRC / "condbang" / "__init__.py").is_file():
        raise ProgramNotFound(f"no condbang package under {SRC}")
    sys.path.insert(0, str(SRC))
    import condbang
    from condbang import cli, documents
    if not Path(condbang.__file__).resolve().is_relative_to(SRC):
        raise ProgramNotFound(f"condbang was imported from {condbang.__file__}")
    return cli, documents


def machine() -> dict[str, Any]:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pinned": False,
            "isolated": False,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def reference_work() -> float:
    """Fixed work of the kinds the program does: float elimination on lists of
    lists, and Fraction arithmetic.  It touches no large working set: the
    speed of scattered reads depends on how much of the cache the program
    itself has just used, so it would measure the program, not the machine."""
    n = 14
    a = [[float((i * 7 + j * 13) % 17 + (i == j) * 60) for j in range(n)] for i in range(n)]
    for c in range(n):
        row_c = a[c]
        for r in range(c + 1, n):
            row_r = a[r]
            f = row_r[c] / row_c[c]
            for k in range(c, n):
                row_r[k] -= f * row_c[k]
    h = Fraction(0)
    for k in range(1, 30):
        h += Fraction(1, k)
    return a[-1][-1] + float(h)


class PaceSampler:
    """Samples the machine's pace while the program runs.

    Inside ``running()`` a SIGALRM handler times reference_work() every
    SAMPLE_INTERVAL_S.  The garbage collector is held off during a sample: a
    collection of the program's heap would be timed as machine slowness.
    ``clock()`` is ``perf_counter()`` less the time spent in samples, so
    intervals measured with it are the program's own.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum: int = 0, frame: Any = None) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()
        finally:
            if collecting:
                gc.enable()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def burst(self, count: int) -> None:
        """Take ``count`` samples now, back to back."""
        for _ in range(count):
            self._sample()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def pace(self, since: int) -> float:
        """Mean sample time since sample number ``since``, over REFERENCE_S
        (1 = the usual pace, 2 = half as fast; 1 if nothing was sampled).
        With fewer than PACE_SAMPLES samples since then, the latest
        PACE_SAMPLES are taken."""
        taken = self.samples[min(since, len(self.samples) - PACE_SAMPLES):]
        return statistics.fmean(taken) / REFERENCE_S if taken else 1.0

    @contextlib.contextmanager
    def running(self) -> Iterator["PaceSampler"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


def setup_seconds(document: dict) -> float:
    """One set-up measurement in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          input=json.dumps(document), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its label.

    With fewer than 2*TAIL_BEYOND samples no percentile above the median
    has that many beyond it; the maximum is reported instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], f"max of {n} samples (fewer than {2 * TAIL_BEYOND})"
    k = n - TAIL_BEYOND - 1
    return s[k], f"p{100 * (k + 1) / n:.1f} of {n} samples ({TAIL_BEYOND} beyond)"


def _number(v: Any) -> float:
    return v["num"] / v["den"] if isinstance(v, dict) else float(v)


def den_bits_max(obj: Any) -> int:
    """Largest denominator bit-length among the rationals of a report."""
    if isinstance(obj, dict):
        if set(obj) == {"num", "den"}:
            return int(obj["den"]).bit_length()
        return max((den_bits_max(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((den_bits_max(v) for v in obj), default=0)
    return 0


def without_timing(report: dict) -> bytes:
    rest = {k: v for k, v in report.items() if k != "wall_time"}
    return json.dumps(rest, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False).encode("utf-8")


@dataclass
class Outcome:
    solve_s: float
    verify_s: float
    report: dict | None = None
    error: str | None = None
    #: the machine's pace during the solve and during the verify
    solve_pace: float = 1.0
    verify_pace: float = 1.0


def run_instance(cli: Any, documents: Any, inst: workloads.Instance,
                 tracer: spans.Tracer | None = None,
                 sampler: PaceSampler | None = None) -> Outcome:
    """Solve and verify one instance; exceptions and rejections are failures.

    Times are taken with ``sampler.clock`` and paced by its samples; without
    a running sampler they are plain wall times at pace 1.
    """
    phase = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    sampler = sampler or PaceSampler()
    clock = sampler.clock
    since = len(sampler.samples)
    t0 = clock()
    t1 = t0
    try:
        with phase("bench.solve"):
            problem = documents.parse_problem(inst.document)
            report = cli.run(inst.command, problem)
            text = documents.canonical_dumps(report)
        t1 = clock()
        solve_pace = sampler.pace(since)
        since = len(sampler.samples)
        with phase("bench.verify"):
            report_raw = json.loads(text)
            violations = cli.verify_report(inst.document, report_raw)
        t2 = clock()
    except Exception as err:  # the loop must go on; the failure is counted
        return Outcome(t1 - t0, clock() - t1, error=f"{type(err).__name__}: {err}")
    if violations:
        return Outcome(t1 - t0, t2 - t1, error="verify rejected: " + "; ".join(violations))
    return Outcome(t1 - t0, t2 - t1, report=report_raw,
                   solve_pace=solve_pace, verify_pace=sampler.pace(since))


@dataclass
class Run:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    cells: int = 0
    # raw wall times of the verified instances, and the machine's pace during each
    solve_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    solve_paces: list[float] = field(default_factory=list)
    verify_paces: list[float] = field(default_factory=list)
    deviation_rel: list[float] = field(default_factory=list)
    report_bytes: list[int] = field(default_factory=list)
    den_bits: int = 0
    digest: Any = field(default_factory=hashlib.sha256)
    digested: int = 0
    setup_s: list[float] = field(default_factory=list)
    setup_paces: list[float] = field(default_factory=list)
    # trace mode: the same instances untraced and traced
    untraced_s: float = 0.0
    traced_s: float = 0.0
    tracer: spans.Tracer | None = None
    mismatched: int = 0

    def record(self, inst: workloads.Instance, out: Outcome) -> None:
        self.attempted += 1
        if out.report is None:
            self.failed += 1
            self.errors.append(out.error or "")
            return
        self.cells += inst.cells
        self.solve_s.append(out.solve_s)
        self.verify_s.append(out.verify_s)
        self.solve_paces.append(out.solve_pace)
        self.verify_paces.append(out.verify_pace)
        residuals = out.report["residuals"]
        dev = residuals.get("max_deviation", residuals.get("max_residual"))
        self.deviation_rel.append(_number(dev) / inst.target_max)
        body = without_timing(out.report)
        self.report_bytes.append(len(body))
        if out.report["parameters"]["exact"]:
            self.den_bits = max(self.den_bits, den_bits_max(out.report))
        if self.digested < DIGEST_INSTANCES:
            self.digest.update(body)
            self.digested += 1


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cells: int | None = None, setup_repeats: int = SETUP_REPEATS) -> Run:
    """Run one workload for about ``seconds`` of instance time.

    Untraced, the machine's pace is sampled throughout (see PaceSampler);
    traced, it is not, and every pace is 1.
    """
    cli, documents = load_program()
    stream = workloads.instances(workload, seed, cells)
    first = next(stream)
    run = Run(workload, seed)
    sampler = PaceSampler()
    if trace:
        run.tracer = spans.Tracer()
    else:
        # The set-up runs in another process, so its pace is sampled just
        # before and after it instead of during it.
        for _ in range(setup_repeats):
            since = len(sampler.samples)
            sampler.burst(SETUP_BURST)
            run.setup_s.append(setup_seconds(first.document))
            sampler.burst(SETUP_BURST)
            run.setup_paces.append(sampler.pace(since))
    with contextlib.nullcontext() if trace else sampler.running():
        clock = sampler.clock
        deadline = clock() + seconds
        per_instance: list[float] = []
        for index, inst in enumerate(itertools.chain([first], stream)):
            # every instance starts with the collector's counters at zero, so
            # that when collections fall depends on the instance alone
            gc.collect()
            started = clock()
            if run.tracer is None:
                out = run_instance(cli, documents, inst, sampler=sampler)
            else:
                # alternate which of the pair goes first, so that an order
                # effect does not bias the overhead
                if index % 2:
                    out = run_instance(cli, documents, inst, sampler=sampler)
                run.tracer.instance = index
                with run.tracer.installed():
                    traced = run_instance(cli, documents, inst, run.tracer, sampler)
                if not index % 2:
                    out = run_instance(cli, documents, inst, sampler=sampler)
                run.untraced_s += out.solve_s + out.verify_s
                run.traced_s += traced.solve_s + traced.verify_s
                if (out.report is None) != (traced.report is None) or (
                        out.report is not None
                        and without_timing(out.report) != without_timing(traced.report)):
                    run.mismatched += 1
            run.record(inst, out)
            now = clock()
            per_instance.append(now - started)
            # closed loop: start another instance only if it should end in time
            if now + statistics.median(per_instance) > deadline:
                break
    return run


def end_to_end(run: Run) -> tuple[dict[str, dict[str, Any]], dict[str, str]]:
    """The end-to-end metrics and a note per metric for the printed table.

    Times are scaled to the machine's usual pace; each note gives the raw value.
    """
    nan = [float("nan")]
    solve = [t / p for t, p in zip(run.solve_s, run.solve_paces)] or nan
    verify = [t / p for t, p in zip(run.verify_s, run.verify_paces)] or nan
    setup = [t / p for t, p in zip(run.setup_s, run.setup_paces)] or nan
    tail_s, tail_note = tail(solve)
    raw_tail, _ = tail(run.solve_s or nan)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(run.setup_s)} fresh processes; raw "
                    f"{statistics.median(run.setup_s or nan):.4g}"),
        "cells_per_s": (run.cells / sum(solve) if run.solve_s else 0.0, "cells/s",
                        f"{run.cells} cells over {len(run.solve_s)} instances; raw "
                        f"{run.cells / sum(run.solve_s or nan):.4g}"),
        "solve_s_p50": (statistics.median(solve), "s", f"{len(run.solve_s)} samples; raw "
                        f"{statistics.median(run.solve_s or nan):.4g}"),
        "solve_s_tail": (tail_s, "s", f"{tail_note}; raw {raw_tail:.4g}"),
        "verify_s_p50": (statistics.median(verify), "s", f"{len(run.verify_s)} samples; raw "
                         f"{statistics.median(run.verify_s or nan):.4g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of this process"),
        "failed_ratio": (run.failed / run.attempted, "ratio",
                         f"{run.failed} of {run.attempted}"),
        "deviation_rel_max": (max(run.deviation_rel, default=float("nan")), "ratio",
                              "max reported deviation / max |target|"),
    }
    values = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    notes = {k: n for k, (_, _, n) in metrics.items()}
    return values, notes


def per_layer(run: Run) -> dict[str, dict[str, Any]]:
    assert run.tracer is not None
    done = max(run.attempted - run.failed, 1)
    metrics = run.tracer.layer_metrics(run.attempted)
    metrics["documents.den_bits_max"] = {"value": run.den_bits, "unit": "bits"}
    metrics["documents.report_bytes"] = {
        "value": sum(run.report_bytes) / done, "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {
        "value": (run.traced_s - run.untraced_s) / run.untraced_s if run.untraced_s else 0.0,
        "unit": "ratio"}
    return metrics


def write_spans(run: Run, info: dict[str, Any]) -> Path:
    assert run.tracer is not None
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.workload}-seed{run.seed}.json.gz"
    doc = {"machine": info, "workload": run.workload, "seed": run.seed,
           "fields": ["name", "start", "end", "parent", "instance"],
           "names": run.tracer.names, "spans": run.tracer.closed_spans()}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def _report_lines(run: Run, info: dict[str, Any],
                  layers: dict[str, dict[str, Any]] | None) -> list[str]:
    lines = [f"machine: {json.dumps(info, sort_keys=True)}",
             f"workload: {run.workload}  seed: {run.seed}  "
             f"instances: {run.attempted}  failed: {run.failed}"]
    lines += [f"error: {e}" for e in run.errors[:5]]
    if run.tracer is None and run.solve_paces:
        paces = run.solve_paces
        lines.append(f"machine pace (1 = usual) over solves: median "
                     f"{statistics.median(paces):.3f}, range {min(paces):.3f}.."
                     f"{max(paces):.3f}; each time is divided by the pace during it")
    elif run.tracer is not None:
        lines.append("machine pace not sampled when tracing: times are raw")
    e2e, notes = end_to_end(run)
    for name, m in e2e.items():
        if run.setup_s or name != "setup_s":
            lines.append(f"  {name:<20} {m['value']:<14.6g} {m['unit']:<8} {notes[name]}")
    lines.append(f"report_sha256 (first {run.digested} reports, wall_time removed): "
                 f"{run.digest.hexdigest()}")
    if run.tracer is not None and layers is not None:
        n = max(run.attempted, 1)
        lines.append("per instance by span: calls, total s, self s")
        for name, row in sorted(run.tracer.summary().items(), key=lambda kv: -kv[1]["self"]):
            lines.append(f"  {name:<26} {row['calls'] / n:>10.1f} {row['total'] / n:>10.4f} "
                         f"{row['self'] / n:>10.4f}")
        for name, m in layers.items():
            flag = f"  missing: {', '.join(m['missing'])}" if "missing" in m else ""
            lines.append(f"  {name:<30} {m['value']:<14.6g} {m['unit']}{flag}")
        if run.mismatched:
            lines.append(f"traced and untraced reports differ on {run.mismatched} instances")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramNotFound as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    info = machine()
    if args.trace:
        metrics = per_layer(run)
        lines = _report_lines(run, info, metrics)
        lines.append(f"spans written to {write_spans(run, info).relative_to(ROOT)}")
    else:
        e2e, _ = end_to_end(run)
        metrics = {k: e2e[k] for k in BOUNDED}
        lines = _report_lines(run, info, None)
    print("\n".join(lines))
    correct = run.failed == 0 and run.mismatched == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
