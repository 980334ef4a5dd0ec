"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import pytest

import run
import spans
import workloads

TINY = {"atomic-bangbang": 16, "splittable-geometry": 12, "exact-atomic": 16,
        "atomic-fine-blocks": 24}
#: enough instances to cover every command of a mixed workload
MIX = 4


def _docs(workload: str, seed: int) -> list[str]:
    stream = workloads.instances(workload, seed, TINY[workload])
    return [json.dumps(inst.document, sort_keys=True) + inst.command
            for inst in itertools.islice(stream, MIX)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_fixed_by_the_seed(workload):
    assert _docs(workload, 5) == _docs(workload, 5)
    assert _docs(workload, 5) != _docs(workload, 6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_command_of_a_workload_verifies(workload):
    cli, documents = run.load_program()
    stream = workloads.instances(workload, 1, TINY[workload])
    for inst in itertools.islice(stream, MIX):
        out = run.run_instance(cli, documents, inst)
        assert out.error is None, (inst.command, out.error)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end_without_failures(workload):
    result = run.measure(workload, 2, 0.5, False, cells=TINY[workload], setup_repeats=1)
    metrics, _ = run.end_to_end(result)
    assert result.attempted >= 1
    assert metrics["failed_ratio"]["value"] == 0
    assert set(run.BOUNDED) <= set(metrics)
    assert all(metrics[name]["value"] > 0 for name in run.BOUNDED)


def test_self_times_add_up_to_the_traced_total():
    result = run.measure("atomic-fine-blocks", 3, 0.5, True, cells=TINY["atomic-fine-blocks"])
    tracer = result.tracer
    closed = tracer.closed_spans()
    roots = [s for s in closed if s[3] == -1]
    assert {tracer.names[s[0]] for s in roots} == {"bench.solve", "bench.verify"}
    traced_total = sum(end - start for _, start, end, _, _ in roots)
    assert 0 < traced_total <= result.traced_s
    summary = tracer.summary()
    gaps = summary["bench.solve"]["self"] + summary["bench.verify"]["self"]
    layers = sum(row["self"] for name, row in summary.items() if not name.startswith("bench."))
    assert layers + gaps == pytest.approx(traced_total, rel=1e-9)
    assert summary["lyapunov.kernel"]["calls"] > 0
    assert result.mismatched == 0


def test_tracing_restores_the_program():
    run.load_program()
    lyapunov = sys.modules["condbang.lyapunov"]
    cli = sys.modules["condbang.cli"]
    before = (lyapunov.nullspace_vector, lyapunov.partition_with_moments, cli.run)
    with spans.Tracer().installed():
        assert lyapunov.nullspace_vector is not before[0]
        assert cli.run is not before[2]
    assert (lyapunov.nullspace_vector, lyapunov.partition_with_moments, cli.run) == before


def test_a_vanished_wrap_point_is_reported_missing(monkeypatch):
    points = tuple(spans.WrapPoint(p.span, p.module, ("no_such_function",), p.only_here)
                   if p.span == "lyapunov.kernel" else p for p in spans.WRAP_POINTS)
    monkeypatch.setattr(spans, "WRAP_POINTS", points)
    result = run.measure("atomic-fine-blocks", 3, 0.1, True, cells=TINY["atomic-fine-blocks"])
    assert result.failed == 0
    metrics = run.per_layer(result)
    assert metrics["lyapunov.kernel_calls"]["missing"] == ["condbang.lyapunov.no_such_function"]
    assert metrics["lyapunov.kernel_calls"]["value"] == 0
    assert "missing" not in metrics["lyapunov.partition_s"]


def test_a_changed_signature_is_reported_missing(monkeypatch):
    def renamed(args, kwargs, result):
        return kwargs["no_such_argument"]

    monkeypatch.setitem(spans.OBSERVERS, "lyapunov.kernel", renamed)
    result = run.measure("atomic-fine-blocks", 3, 0.1, True, cells=TINY["atomic-fine-blocks"])
    assert result.failed == 0
    metrics = run.per_layer(result)
    assert "missing" in metrics["lyapunov.kernel_cols_max"]
    assert "missing" not in metrics["lyapunov.kernel_calls"]


def test_paced_times_leave_out_the_samples():
    sampler = run.PaceSampler()
    with sampler.running():
        wall, clock = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall < 0.3:
            pass
        wall, clock = time.perf_counter() - wall, sampler.clock() - clock
    assert len(sampler.samples) >= 5
    assert wall - clock == pytest.approx(sampler.spent, abs=5e-4)
    assert sampler.pace(0) > 0
