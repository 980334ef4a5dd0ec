"""Span tracing of condbang's layers, taken from outside the library.

The tracer rebinds module attributes of the ``condbang`` package to timing
wrappers and restores them afterwards; the program itself is not edited.  A
function is wrapped under every module-level name bound to it, unless the
wrap point names the one module whose binding is wanted (which is how
``nullspace_vector`` is told apart by caller: ``lyapunov`` binds it for
transport reduction, ``linalg`` for support reduction).  A wrap point whose
module or attribute no longer exists is recorded as missing, and every
metric that depends on it says so.

Spans (name, start, end, parent, instance) stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover; over any tree of properly nested spans the self times add up to the
root durations.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class WrapPoint:
    span: str
    module: str
    attrs: tuple[str, ...]
    #: rebind only the binding in ``module`` (the caller's namespace)
    only_here: bool = False


WRAP_POINTS: tuple[WrapPoint, ...] = (
    WrapPoint("documents.parse", "condbang.documents",
              ("parse_problem", "parse_simple_function", "parse_block_function",
               "parse_refined_set", "parse_polytopes", "parse_actions",
               "parse_young_measure", "parse_integrands")),
    WrapPoint("documents.encode", "condbang.documents",
              ("canonical_dumps", "encode_simple_function", "encode_block_function",
               "encode_refined_set")),
    WrapPoint("cli.run", "condbang.cli", ("run",)),
    WrapPoint("cli.verify", "condbang.cli", ("verify_report",)),
    WrapPoint("oracle.direct", "condbang.oracle",
              ("direct_integrate", "direct_payoff", "direct_mixture_payoff")),
    WrapPoint("purify.purify", "condbang.purify", ("purify",)),
    WrapPoint("bangbang.bang_bang", "condbang.bangbang", ("bang_bang", "pointset_bang_bang")),
    WrapPoint("polytope.decompose", "condbang.polytope", ("decompose_selection",)),
    WrapPoint("polytope.extreme_filter", "condbang.polytope", ("extreme_point_indices",)),
    WrapPoint("linalg.lp", "condbang.linalg", ("convex_combination",)),
    WrapPoint("linalg.support_kernel", "condbang.linalg", ("nullspace_vector",),
              only_here=True),
    WrapPoint("lyapunov.partition", "condbang.lyapunov", ("partition_with_moments",)),
    WrapPoint("lyapunov.kernel", "condbang.lyapunov", ("nullspace_vector",), only_here=True),
    WrapPoint("condexp.cond_exp", "condbang.condexp", ("cond_exp",)),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str        # "calls", "total" or "self" of a span; "max"/"sum" of its OBSERVERS counter
    source: str      # span name


#: per-instance averages, except the ``max`` kinds
LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("lyapunov.kernel_calls", "count", "calls", "lyapunov.kernel"),
    LayerMetric("lyapunov.kernel_s", "s", "total", "lyapunov.kernel"),
    LayerMetric("lyapunov.kernel_cols_max", "count", "max", "lyapunov.kernel"),
    LayerMetric("lyapunov.partition_s", "s", "total", "lyapunov.partition"),
    LayerMetric("lyapunov.partition_self_s", "s", "self", "lyapunov.partition"),
    LayerMetric("lyapunov.fractional_cells", "count", "sum", "lyapunov.partition"),
    LayerMetric("linalg.lp_calls", "count", "calls", "linalg.lp"),
    LayerMetric("linalg.lp_s", "s", "total", "linalg.lp"),
    LayerMetric("linalg.support_kernel_calls", "count", "calls", "linalg.support_kernel"),
    LayerMetric("linalg.support_kernel_s", "s", "total", "linalg.support_kernel"),
    LayerMetric("polytope.extreme_filter_calls", "count", "calls", "polytope.extreme_filter"),
    LayerMetric("polytope.extreme_filter_s", "s", "total", "polytope.extreme_filter"),
    LayerMetric("polytope.decompose_s", "s", "total", "polytope.decompose"),
    LayerMetric("bangbang.self_s", "s", "self", "bangbang.bang_bang"),
    LayerMetric("purify.self_s", "s", "self", "purify.purify"),
    LayerMetric("condexp.cond_exp_s", "s", "total", "condexp.cond_exp"),
    LayerMetric("documents.parse_s", "s", "total", "documents.parse"),
    LayerMetric("documents.encode_s", "s", "total", "documents.encode"),
    LayerMetric("cli.verify_self_s", "s", "self", "cli.verify"),
    LayerMetric("oracle.direct_s", "s", "total", "oracle.direct"),
)


def _kernel_cols(args: tuple, kwargs: dict, result: Any) -> int:
    return args[1] if len(args) > 1 else kwargs["ncols"]


def _fractional_cells(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(result.fractional_per_block)


#: counters read from a wrapped call's arguments or result, by span name
OBSERVERS: dict[str, Callable[[tuple, dict, Any], int]] = {
    "lyapunov.kernel": _kernel_cols,
    "lyapunov.partition": _fractional_cells,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans[i] = (name id, start, end, parent index or -1, instance)
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        # observations[i] = counter value observed on span i
        self.observations: dict[int, int] = {}
        # spans whose arguments or result no longer have the observed shape
        self.unobservable: set[str] = set()
        self.instance = -1
        self.missing: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (a root or a phase)."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, self.instance)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, observations = self.spans, self._stack, self.observations
        unobservable = self.unobservable
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.instance)
            if observe is not None:
                try:
                    observations[idx] = observe(args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    unobservable.add(name)
            return result

        return traced

    def install(self) -> None:
        program = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "condbang" or n.startswith("condbang."))]
        self.missing = {}
        for point in WRAP_POINTS:
            home = sys.modules.get(point.module)
            for attr in point.attrs:
                fn = getattr(home, attr, None)
                if not callable(fn):
                    self.missing.setdefault(point.span, []).append(f"{point.module}.{attr}")
                    continue
                wrapped = self._wrapper(point.span, fn)
                for mod in [home] if point.only_here else program:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebound.append((mod, key, fn))
                            setattr(mod, key, wrapped)

    def restore(self) -> None:
        for mod, key, fn in reversed(self._rebound):
            setattr(mod, key, fn)
        self._rebound.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def closed_spans(self) -> list[tuple[int, float, float, int, int]]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[float]:
        spans = self.closed_spans()
        covered = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost spans of that name only) and self time."""
        spans = self.closed_spans()
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total": 0.0, "self": 0.0} for n in self.names}
        for i, (nid, start, end, parent, _) in enumerate(spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self"] += selfs[i]
            nested = False
            p = parent
            while p >= 0:
                if spans[p][0] == nid:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                row["total"] += end - start
        return out

    def layer_metrics(self, instances: int) -> dict[str, dict[str, Any]]:
        """Every LAYER_METRICS entry, averaged per instance (maxima as they are)."""
        spans = self.closed_spans()
        summary = self.summary()
        observed: dict[str, list[int]] = {}
        for idx, value in self.observations.items():
            observed.setdefault(self.names[spans[idx][0]], []).append(value)
        out: dict[str, dict[str, Any]] = {}
        for m in LAYER_METRICS:
            row = summary.get(m.source, {"calls": 0, "total": 0.0, "self": 0.0})
            if m.kind == "max":
                value = max(observed.get(m.source, [0]))
            elif m.kind == "sum":
                value = sum(observed.get(m.source, [])) / instances
            else:
                value = row[m.kind] / instances
            entry: dict[str, Any] = {"value": value, "unit": m.unit}
            if m.source in self.missing:
                entry["missing"] = self.missing[m.source]
            elif m.kind in ("max", "sum") and m.source in self.unobservable:
                entry["missing"] = [f"the arguments or result of {m.source}"]
            out[m.name] = entry
        return out
