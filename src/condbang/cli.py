"""Command-line front end.

One command per process: parse a problem document, dispatch to the library,
emit a canonical JSON report.  ``verify`` re-reads a problem/report pair and
independently recomputes both sides of every equality the report claims,
exiting 4 on any violation beyond tolerance.  Every block-level sum it needs
goes through ``oracle.direct_*``; this module sums only within a cell.  It
proves branch values extreme with a separating direction of its own
(``_certified``), sharing no code with the solver's extreme-point filter,
and runs the Phase-I LP only on the values the certificate leaves open.

Each command is one ``_Spec`` of the ``_COMMANDS`` table, which both ``run``
and ``verify_report`` dispatch through: ``parse`` reads the payload once into
the command's inputs, ``run`` calls the library on them, and ``verify``
rechecks a report's claims against them.  ``bang-bang`` shares its spec with
``pointset-bang-bang`` and ``purify`` with ``density-step``; ``parse`` gets
the command name, which picks the payload key of the vertex sets and of the
payoff integrands.  ``verify`` compares at ``--tol`` when given, else at
the problem document's tolerance, never at the tolerance a report states
about itself, and reads mode, regime and ``diagonal_only`` from the report
(the problem's own where the report leaves one out).  A non-finite number in
either document, a tolerance that is not a finite nonnegative number, or a
regime or ``diagonal_only`` that is not a boolean, is a schema error.

Exit codes: 0 success, 2 schema error, 3 mathematical precondition failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from . import __version__
from .condexp import BlockFunction, SimpleFunction, bf_sub, cond_exp, ce_measure
from .bangbang import ExtremeSelection, bang_bang
from .documents import (ProblemDocument, SchemaError, as_object, canonical_dumps,
                        document_digest, echo, encode_block_function, encode_number,
                        encode_refined_set, encode_simple_function, load_json,
                        parse_actions, parse_block_function, parse_chunks,
                        parse_integrands, parse_number, parse_polytopes, parse_problem,
                        parse_refined_set, parse_simple_function,
                        parse_young_measure)
from .linalg import convex_combinations
from .lyapunov import annihilator_witness, half_set, lyapunov_partition, witness_block_integrals
from .numeric import Scalar
from .oracle import direct_integrate, direct_mixture_payoff, direct_payoff
from .purify import IntegrandFamily, PureStrategy, purify
from .spaces import (BlockPartition, Grid, Mode, RefinedSet, coarseness_check,
                     full_set, grid_from_weights, make_partition)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4

#: (cell, value) pairs whose vertices ``verify`` matches in one array
#: comparison, so its arrays do not grow with the cell count.  On the first
#: 1000-cell pointset instance of the benchmark (4000 pairs against 12
#: vertices in dim 3, a shared 2-vCPU VM), batches of 256 matched in
#: 23-37 ms with a traced peak of 1.3 MB; one batch for all took 21-33 ms at
#: 5.9 MB, and the per-vertex Python loop it replaced 42-87 ms at 0.9 MB.
_MATCH_BATCH = 256


# ---------------------------------------------------------------------------
# reading documents and checking claims
# ---------------------------------------------------------------------------


class _Check:
    """Collects violations; compares at ``tol`` in the problem's regime."""

    def __init__(self, tol: Scalar, exact: bool):
        self.tol = tol
        self.exact = exact
        self.violations: list[str] = []

    def fail(self, msg: str) -> None:
        self.violations.append(msg)

    def close(self, a: Scalar, b: Scalar, what: str) -> None:
        if abs(a - b) > self.tol:
            self.violations.append(f"{what}: {a!r} vs {b!r} differ beyond tolerance")

    def block_close(self, claimed: BlockFunction, computed: BlockFunction, what: str) -> None:
        if claimed.dim != computed.dim or len(claimed.values) != len(computed.values):
            self.violations.append(f"{what}: shape mismatch")
            return
        for b, (cr, xr) in enumerate(zip(claimed.values, computed.values)):
            for j, (c, x) in enumerate(zip(cr, xr)):
                if abs(c - x) > self.tol:
                    self.violations.append(
                        f"{what}: block {b} coord {j}: {c!r} vs {x!r}")
                    return

    def bounded(self, report: dict, key: str, recomputed: Scalar, what: str) -> None:
        """The claimed residual ``key`` matches ``recomputed``, which meets the
        report's certified bound."""
        claimed = parse_number(report["residuals"].get(key), self.exact, f"residuals.{key}")
        self.close(claimed, recomputed, what)
        bound = parse_number(report.get("certified_bound"), self.exact, "certified_bound")
        if recomputed > bound + self.tol:
            self.fail(f"{what} {recomputed!r} exceeds the certified bound {bound!r}")


def _spans_tile_cell(chk: _Check, k: int, spans: list[tuple[Scalar, Scalar]], grid: Grid,
                     what: str) -> None:
    """The (offset, mass) spans of cell k tile it: masses nonnegative and
    summing to the cell weight, intervals inside the cell and disjoint, and
    on atomic grids each span of mass above tol the whole cell."""
    w, tol = grid.weights[k], chk.tol
    total = sum(m for _, m in spans)
    if abs(total - w) > tol:
        chk.fail(f"cell {k}: {what} masses sum to {total!r}, not the cell weight")
    live = []
    for span in spans:
        if span[1] > 0:
            live.append(span)
        elif span[1] < 0:
            chk.fail(f"cell {k}: a {what} carries negative mass {span[1]!r}")
            return
    live.sort()
    end = None  # where the spans so far end
    for off, m in live:
        if off < (-tol if end is None else end - tol):
            chk.fail(f"cell {k}: {what} interval at {off!r} " +
                     ("leaves the cell" if end is None else f"overlaps one ending at {end!r}"))
            return
        if grid.mode is Mode.ATOMIC and m > tol and abs(m - w) > tol:
            chk.fail(f"cell {k}: atomic {what} carries fractional mass {m!r}")
            return
        end = off + m
    if end is not None and end > w + tol:
        chk.fail(f"cell {k}: {what} interval ending at {end!r} leaves the cell")


def _pieces_partition_space(chk: _Check, pieces, grid: Grid) -> None:
    for k in range(grid.cell_count):
        _spans_tile_cell(chk, k, [(piece.offsets[k], piece.masses[k]) for piece in pieces],
                         grid, "piece")


def _contained(chk: _Check, inner: RefinedSet, outer: RefinedSet, grid: Grid,
               what: str) -> None:
    """Each cell's interval of ``inner`` lies inside that of ``outer``."""
    for k in range(grid.cell_count):
        if inner.masses[k] > outer.masses[k] + chk.tol:
            chk.fail(f"cell {k}: {what} exceeds the ambient set")
        if inner.masses[k] > 0 and (inner.offsets[k] < outer.offsets[k] - chk.tol or
                                    inner.offsets[k] + inner.masses[k]
                                    > outer.offsets[k] + outer.masses[k] + chk.tol):
            chk.fail(f"cell {k}: {what} leaves the ambient interval")


def _oracle_partition_residual(pieces, h: SimpleFunction, alpha: SimpleFunction,
                               C: BlockPartition, grid: Grid) -> Scalar:
    worst: Scalar = 0
    offsets = full_set(grid).offsets
    for i, piece in enumerate(pieces):
        # piece i's target is h integrated over the alpha_i-weighted masses
        share = RefinedSet(offsets=offsets, masses=tuple(
            alpha.values[k][i] * grid.weights[k] for k in range(grid.cell_count)))
        worst = max(worst, bf_sub(direct_integrate(h, piece, C, grid),
                                  direct_integrate(h, share, C, grid)).max_abs())
    return worst


def _one(p: ProblemDocument) -> SimpleFunction:
    """The constant-one function, whose integral over a set is its mass."""
    return SimpleFunction(dim=1, values=((p.grid.one,),) * p.grid.cell_count)


def _payload_function(p: ProblemDocument, key: str) -> SimpleFunction:
    return parse_simple_function(p.payload.get(key), p.exact, p.grid.cell_count,
                                 f"payload.{key}")


def _payload_set(p: ProblemDocument) -> RefinedSet:
    return parse_refined_set(p.payload.get("set"), p.exact, p.grid, "payload.set")


def _claimed_block(p: ProblemDocument, rep: dict, key: str) -> BlockFunction:
    return parse_block_function(rep["outputs"].get(key), p.exact,
                                p.partition.block_count, f"outputs.{key}")


def _claimed_pieces(p: ProblemDocument, rep: dict) -> list[RefinedSet]:
    return [parse_refined_set(obj, p.exact, p.grid, f"outputs.pieces[{i}]")
            for i, obj in enumerate(rep["outputs"].get("pieces", []))]


# ---------------------------------------------------------------------------
# commands: run the library on the parsed payload, verify a report
# ---------------------------------------------------------------------------


def _run_cond_exp(p: ProblemDocument, f: SimpleFunction):
    out = cond_exp(f, p.partition, p.grid)
    return {"expectation": encode_block_function(out, p.exact)}, {}, p.tolerance


def _verify_cond_exp(chk: _Check, p: ProblemDocument, f: SimpleFunction, rep: dict) -> None:
    chk.block_close(_claimed_block(p, rep, "expectation"),
                    direct_integrate(f, None, p.partition, p.grid),
                    "conditional expectation")


def _run_ce_measure(p: ProblemDocument, E: RefinedSet):
    out = ce_measure(E, p.partition, p.grid)
    return {"measure": encode_block_function(out, p.exact)}, {}, p.tolerance


def _verify_ce_measure(chk: _Check, p: ProblemDocument, E: RefinedSet, rep: dict) -> None:
    chk.block_close(_claimed_block(p, rep, "measure"),
                    direct_integrate(_one(p), E, p.partition, p.grid), "conditional measure")


def _run_partition(p: ProblemDocument, inputs):
    h, alpha = inputs
    res = lyapunov_partition(h, alpha, p.partition, p.grid, tol=p.tolerance)
    outputs = {"pieces": [encode_refined_set(piece, p.exact) for piece in res.pieces]}
    residuals = {"max_residual": encode_number(res.max_residual, p.exact),
                 "fractional_per_block": list(res.fractional_per_block)}
    return outputs, residuals, res.residual_bound


def _verify_partition(chk: _Check, p: ProblemDocument, inputs, rep: dict) -> None:
    h, alpha = inputs
    pieces = _claimed_pieces(p, rep)
    if len(pieces) != alpha.dim:
        chk.fail("piece count disagrees with the weight function")
        return
    _pieces_partition_space(chk, pieces, p.grid)
    chk.bounded(rep, "max_residual",
                _oracle_partition_residual(pieces, h, alpha, p.partition, p.grid),
                "max partition residual")


def _run_half_set(p: ProblemDocument, inputs):
    h, E = inputs
    res = half_set(h, E, p.partition, p.grid, tol=p.tolerance)
    outputs = {"half": encode_refined_set(res.half, p.exact),
               "achieved": encode_block_function(res.achieved, p.exact),
               "target": encode_block_function(res.target, p.exact)}
    residuals = {"max_residual": encode_number(res.max_residual, p.exact)}
    return outputs, residuals, res.residual_bound


def _verify_half_set(chk: _Check, p: ProblemDocument, inputs, rep: dict) -> None:
    h, E = inputs
    F = parse_refined_set(rep["outputs"].get("half"), p.exact, p.grid, "outputs.half")
    _contained(chk, F, E, p.grid, "half-set")
    achieved = direct_integrate(h, F, p.partition, p.grid)
    whole = direct_integrate(h, E, p.partition, p.grid)
    target = BlockFunction(dim=whole.dim, values=tuple(
        tuple(v / 2 for v in row) for row in whole.values))
    chk.block_close(_claimed_block(p, rep, "achieved"), achieved, "achieved half measure")
    chk.block_close(_claimed_block(p, rep, "target"), target, "half-measure target")
    chk.bounded(rep, "max_residual", bf_sub(achieved, target).max_abs(), "half-set residual")


def _parse_annihilator(p: ProblemDocument, command: str):
    f = _payload_function(p, "function")
    if f.dim != 1:
        raise SchemaError("payload.function must be scalar for annihilator")
    return f, _payload_set(p)


def _run_annihilator(p: ProblemDocument, inputs):
    f, E = inputs
    w = annihilator_witness(f, E, p.partition, p.grid, tol=p.tolerance)
    integrals = witness_block_integrals(w)
    outputs = {
        "space": {"weights": [encode_number(x, p.exact) for x in w.grid.weights],
                  "mode": w.grid.mode.value},
        "parent": list(w.refinement.parent),
        "witness": encode_simple_function(w.g, p.exact),
        "support": encode_refined_set(w.support, p.exact),
        "set": encode_refined_set(w.set_on_refined, p.exact),
        "partition": {"blocks": list(w.partition_on_refined.block_of)},
        "norm_inf": encode_number(w.norm_inf, p.exact),
    }
    residuals = {"max_block_integral": encode_number(integrals.max_abs(), p.exact)}
    return outputs, residuals, p.tolerance


def _verify_annihilator(chk: _Check, p: ProblemDocument, inputs, rep: dict) -> None:
    f, E = inputs
    out = rep["outputs"]
    space = as_object(out.get("space", {}), "outputs.space")
    weights = [parse_number(w, p.exact, f"outputs.space.weights[{j}]")
               for j, w in enumerate(space.get("weights", []))]
    rgrid = grid_from_weights(weights, space.get("mode", "splittable"))
    parent = out.get("parent", [])
    if len(parent) != len(weights):
        chk.fail("parent map and refined weights disagree")
        return
    if not all(type(q) is int and 0 <= q < p.grid.cell_count for q in parent):
        chk.fail("parent map names a cell the problem does not have")
        return
    # each child sits after its earlier siblings inside the parent cell
    lo: list[Scalar] = []
    filled: list[Scalar] = [0] * p.grid.cell_count
    for j, q in enumerate(parent):
        lo.append(filled[q])
        filled[q] += weights[j]
    for q in range(p.grid.cell_count):
        chk.close(filled[q], p.grid.weights[q], f"cell {q}: refined children weights")
    g = parse_simple_function(out.get("witness"), p.exact, len(weights), "outputs.witness")
    support = parse_refined_set(out.get("support"), p.exact, rgrid, "outputs.support")
    E_r = parse_refined_set(out.get("set"), p.exact, rgrid, "outputs.set")
    for j, q in enumerate(parent):
        start = max(E.offsets[q], lo[j])
        mass = max(min(E.offsets[q] + E.masses[q], lo[j] + weights[j]) - start, 0)
        if abs(E_r.masses[j] - mass) > chk.tol or \
                (mass > chk.tol and abs(E_r.offsets[j] - (start - lo[j])) > chk.tol):
            chk.fail(f"refined cell {j}: outputs.set is not the problem's set lifted")
            break
    blocks = as_object(out.get("partition", {}), "outputs.partition").get("blocks", [])
    if blocks != [p.partition.block_of[q] for q in parent]:
        chk.fail("outputs.partition is not the problem's partition lifted through parent")
    C_r = make_partition(blocks)
    f_r = SimpleFunction(dim=1, values=tuple(f.values[q] for q in parent))
    norm = g.max_abs()
    chk.close(parse_number(out.get("norm_inf"), p.exact, "outputs.norm_inf"), norm,
              "witness sup norm")
    if not norm > chk.tol:
        chk.fail("witness is numerically zero")
    _contained(chk, support, E_r, rgrid, "support")
    stray = [j for j in range(len(weights))
             if support.masses[j] <= chk.tol and abs(g.values[j][0]) > chk.tol]
    if stray:
        chk.fail(f"refined cell {stray[0]}: witness lives outside its support")
    fg = SimpleFunction(dim=1, values=tuple((g.values[j][0] * f_r.values[j][0],)
                                            for j in range(len(weights))))
    worst = direct_integrate(fg, E_r, C_r, rgrid).max_abs()
    if worst > chk.tol:
        chk.fail(f"annihilation fails: max block integral {worst!r}")
    claimed = parse_number(rep["residuals"].get("max_block_integral"), p.exact,
                           "residuals.max_block_integral")
    chk.close(claimed, worst, "max block integral")


def _parse_bang_bang(p: ProblemDocument, command: str):
    key = "points" if command == "pointset-bang-bang" else "polytopes"
    T = parse_polytopes(p.payload.get(key), p.exact, p.grid.cell_count, f"payload.{key}")
    return T, _payload_function(p, "selection")


def _run_bang_bang(p: ProblemDocument, inputs):
    T, h = inputs
    sel, rep = bang_bang(T, h, p.partition, p.grid, tol=p.tolerance,
                         diagonal_only=p.diagonal_only)
    outputs = {
        "pieces": [encode_refined_set(piece, p.exact) for piece in sel.pieces],
        "branch_values": [encode_simple_function(v, p.exact) for v in sel.values],
        "lhs": encode_block_function(rep.lhs, p.exact),
        "rhs": encode_block_function(rep.rhs, p.exact),
    }
    residuals = {"max_deviation": encode_number(rep.max_deviation, p.exact),
                 "max_residual": encode_number(rep.partition.max_residual, p.exact)}
    return outputs, residuals, rep.residual_bound


def _certified(cols: np.ndarray, sizes: list[int], hits: np.ndarray, tol: Scalar,
               exact: bool) -> list[bool]:
    """For each column of ``hits``, whether a separating direction proves that
    vertex extreme at ``tol``; a vertex alone in its cell always is.  Each
    column of ``cols`` (dim, rows) is a vertex: the columns stack the
    distinct vertices of consecutive cells, ``sizes[c]`` columns for cell c.

    For vertex q_j of a cell of n >= 2 distinct vertices, d = n q_j - sum_i q_i,
    m = max over i != j of d.q_i and g = d.q_j - m.  Then y = (d, -m) has
    y.(q_i, 1) <= 0 for every other vertex and y.(q_j, 1) = g, so any convex
    combination of the others misses (q_j, 1) by an l1 residual of at least
    g / max(||d||_inf, |m|): the vertex is extreme at ``tol`` once g exceeds
    ``tol`` max(||d||_inf, |m|).  Floats test it with ``tol`` plus a round-off
    allowance of 1e-10 (1 + the cell's largest |coordinate|), and only where
    g and the width are finite.  Exact cells come as ints, each cell's times
    its lcm L, so g' = L^2 g; an exact problem compares at tol zero
    (``parse_problem``), where the test is g' > 0.
    """
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    owner = np.searchsorted(starts, hits, side="right") - 1
    # a vertex alone in its cell is extreme: there is nothing to combine
    settled = sizes[owner] == 1
    tested = ~settled
    if not tested.any():
        return settled.tolist()
    hits, owner = hits[tested], owner[tested]
    n = sizes[owner]
    # the columns of the other vertices of each hit's cell, hit by hit
    first = np.cumsum(n - 1) - (n - 1)
    pair = np.repeat(np.arange(len(hits)), n - 1)
    rows = np.arange(len(pair)) - first[pair] + starts[owner][pair]
    rows += rows >= hits[pair]
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.take(cols, hits, axis=1)
        d = n * q - np.take(np.add.reduceat(cols, starts, axis=1), owner, axis=1)
        m = np.maximum.reduceat((np.take(d, pair, axis=1) * np.take(cols, rows, axis=1))
                                .sum(axis=0), first)
        gap = (d * q).sum(axis=0) - m
        if exact:
            settled[tested] = gap > 0
        else:
            tol = tol + 1e-10 * (1 + np.maximum.reduceat(np.abs(cols).max(axis=0), starts)[owner])
            width = np.maximum(np.abs(d).max(axis=0), np.abs(m))
            # a float overflow or NaN settles nothing
            settled[tested] = (np.abs(gap) < np.inf) & (width < np.inf) & (gap > tol * width)
    return settled.tolist()


def _matching_vertices(keys: list[tuple[int, tuple]], cells: dict[int, list], tol: Scalar,
                       exact: bool, dim: int) -> Iterator[tuple[list[int], list[bool]]]:
    """For each (cell, value) of ``keys``, the indices of the cell's distinct
    vertices within ``tol`` of the value in every coordinate, and for each
    whether ``_certified`` proves it extreme.  Every ``_MATCH_BATCH`` keys
    are one array comparison of each value with each vertex of its cell: on
    float64, or on object arrays of the exact values (whose tol is zero).
    The certificates of the batch's matches run on the same vertices, scaled
    to ints per cell when exact."""
    dtype = object if exact else float
    for first in range(0, len(keys), _MATCH_BATCH):
        batch = keys[first:first + _MATCH_BATCH]
        values_at, vertices_at = [], []
        for k, value in batch:
            values_at += value * len(cells[k])
            vertices_at += [c for v in cells[k] for c in v]
        a, b = np.array(values_at, dtype=dtype), np.array(vertices_at, dtype=dtype)
        # within a zero tol is equality (of finite numbers), which spares
        # the exact values a subtraction each
        near = (a == b if tol == 0 else np.abs(a - b) <= tol).reshape(-1, dim).all(axis=1)
        sizes = [len(cells[k]) for k, _ in batch]
        pts = b
        if exact:
            scales = [math.lcm(*(c.denominator for v in cells[k] for c in v))
                      for k, _ in batch]
            pts = np.array([c.numerator * (scale // c.denominator)
                            for (k, _), scale in zip(batch, scales)
                            for v in cells[k] for c in v], dtype=object)
        cols = np.ascontiguousarray(pts.reshape(-1, dim).T)
        settled = iter(_certified(cols, sizes, np.flatnonzero(near), tol, exact))
        near = near.tolist()
        start = 0
        for size in sizes:
            matches = [j for j, hit in enumerate(near[start:start + size]) if hit]
            yield matches, [next(settled) for _ in matches]
            start += size


def _verify_bang_bang(chk: _Check, p: ProblemDocument, inputs, rep: dict) -> None:
    T, h = inputs
    out = rep["outputs"]
    pieces = _claimed_pieces(p, rep)
    values = [parse_simple_function(obj, p.exact, p.grid.cell_count,
                                    f"outputs.branch_values[{i}]")
              for i, obj in enumerate(out.get("branch_values", []))]
    if len(pieces) != len(values) or not pieces:
        chk.fail("pieces and branch values disagree")
        return
    _pieces_partition_space(chk, pieces, p.grid)
    # A value on a piece of positive mass must be, within tol, one of its
    # cell's distinct vertices that lies outside the hull of the others: the
    # filter's rule, decided here by verify's own code.  A matching vertex
    # that its separating-direction certificate (``_certified``) proves
    # extreme settles its value; the values it settles no match of run one
    # Phase-I LP per matching vertex instead, the LP that the certificate
    # bounds from below.  Each distinct (cell, value) pair is tested once,
    # and every LP runs in one batch before any verdict is read.
    if any(v.dim != T.dim for v in values):
        chk.fail("branch values and vertices differ in dimension")
        return
    keys = list(dict.fromkeys((k, values[i].values[k]) for i, piece in enumerate(pieces)
                              for k in range(p.grid.cell_count) if piece.masses[k] > 0))
    cells = {k: list(dict.fromkeys(T.vertices[k])) for k in dict.fromkeys(k for k, _ in keys)}
    # the distinct vertices within tol of each value
    tests = dict(zip(keys, _matching_vertices(keys, cells, chk.tol, p.exact, T.dim)))
    # the Phase-I LP of each matching vertex against the cell's other distinct
    # vertices, for every test that no certificate settled
    lps = ((cells[k][:j] + cells[k][j + 1:], cells[k][j], p.exact)
           for (k, _), (matches, settled) in tests.items() if not any(settled)
           for j in matches)
    results = iter(convex_combinations(lps, chk.tol))
    # a list, not a generator, so every result of the test is read
    extreme = {key: any(settled) or any([next(results)[0] is None for _ in matches])
               for key, (matches, settled) in tests.items()}
    for i, piece in enumerate(pieces):
        for k in range(p.grid.cell_count):
            if piece.masses[k] > 0 and not extreme[k, values[i].values[k]]:
                chk.fail(f"cell {k}: branch {i} value is not an extreme point")
                return
    lhs = direct_integrate(ExtremeSelection(pieces=tuple(pieces), values=tuple(values)),
                           None, p.partition, p.grid)
    rhs = direct_integrate(h, None, p.partition, p.grid)
    chk.block_close(_claimed_block(p, rep, "lhs"), lhs, "glued selection expectation")
    chk.block_close(_claimed_block(p, rep, "rhs"), rhs, "input selection expectation")
    chk.bounded(rep, "max_deviation", bf_sub(lhs, rhs).max_abs(), "bang-bang deviation")


def _parse_purify(p: ProblemDocument, command: str):
    """(actions, mixture, payoff integrands); density-step's scalar family
    is stacked into one integrand, integrand i as coordinate i."""
    actions = parse_actions(p.payload.get("actions"), "payload.actions")
    delta = parse_young_measure(p.payload.get("young_measure"), p.exact, actions,
                                p.grid, p.tolerance, "payload.young_measure")
    if command == "purify":
        return actions, delta, parse_integrands(p.payload.get("integrands"), p.exact,
                                                p.grid.cell_count, actions.size,
                                                "payload.integrands")
    family_raw = p.payload.get("family")
    if not isinstance(family_raw, list) or not family_raw:
        raise SchemaError("payload.family must be a nonempty array of scalar integrands")
    tables = []
    for idx, entry in enumerate(family_raw):
        if not isinstance(entry, dict) or "values" not in entry:
            raise SchemaError(f"payload.family[{idx}] needs a values table")
        # a scalar integrand is a per-cell vector over the actions
        tables.append(parse_simple_function({"dim": actions.size, "values": entry["values"]},
                                            p.exact, p.grid.cell_count,
                                            f"payload.family[{idx}]").values)
    return actions, delta, IntegrandFamily(dim=len(tables), values=tuple(
        tuple(zip(*rows)) for rows in zip(*tables)))


def _run_purify(p: ProblemDocument, inputs):
    actions, delta, V = inputs
    strategy, rep = purify(delta, V, p.partition, p.grid, tol=p.tolerance,
                           diagonal_only=p.diagonal_only, actions=actions)
    chunks = [[k, encode_number(off, p.exact), encode_number(m, p.exact), a]
              for k, cell_chunks in enumerate(strategy.chunks)
              for off, m, a in cell_chunks]
    outputs = {"actions": list(actions.labels),
               "chunks": chunks,
               "lhs": encode_block_function(rep.lhs, p.exact),
               "rhs": encode_block_function(rep.rhs, p.exact)}
    residuals = {"max_deviation": encode_number(rep.max_deviation, p.exact)}
    return outputs, residuals, rep.residual_bound


def _verify_purify(chk: _Check, p: ProblemDocument, inputs, rep: dict) -> None:
    actions, delta, V = inputs
    out = rep["outputs"]
    per_cell, failure = parse_chunks(out.get("chunks", []), p.exact, p.grid.cell_count,
                                     actions.size)
    if failure is not None:
        chk.fail(failure)
        return
    for k, chunks in enumerate(per_cell):
        _spans_tile_cell(chk, k, [(off, m) for off, m, _ in chunks], p.grid, "chunk")
        for _, m, a in chunks:
            if m > chk.tol and not delta.rows[k][a] > 0:
                chk.fail(f"cell {k}: chosen action {a} has zero mixture weight")
    strategy = PureStrategy(actions=actions, chunks=tuple(tuple(c) for c in per_cell))
    lhs = direct_mixture_payoff(delta.rows, V, p.partition, p.grid)
    rhs = direct_payoff(strategy, V, p.partition, p.grid)
    chk.block_close(_claimed_block(p, rep, "lhs"), lhs, "mixture payoff")
    chk.block_close(_claimed_block(p, rep, "rhs"), rhs, "pure strategy payoff")
    chk.bounded(rep, "max_deviation", bf_sub(lhs, rhs).max_abs(), "purification deviation")


def _run_coarseness(p: ProblemDocument, E: RefinedSet | None):
    verdict = coarseness_check(p.grid, p.partition, E, tol=p.tolerance)
    outputs = {
        "is_coarser": verdict.is_coarser,
        "witness": encode_refined_set(verdict.witness, p.exact),
        "witness_conditional": None if verdict.witness_conditional is None
        else [encode_number(x, p.exact) for x in verdict.witness_conditional],
        "reference_conditional": None if verdict.reference_conditional is None
        else [encode_number(x, p.exact) for x in verdict.reference_conditional],
    }
    return outputs, {}, p.tolerance


def _verify_coarseness(chk: _Check, p: ProblemDocument, E: RefinedSet | None,
                       rep: dict) -> None:
    if E is None:
        E = full_set(p.grid)
    out = rep["outputs"]
    witness = parse_refined_set(out.get("witness"), p.exact, p.grid, "outputs.witness")
    ref = [row[0] for row in direct_integrate(_one(p), E, p.partition, p.grid).values]
    wit = [row[0] for row in direct_integrate(_one(p), witness, p.partition, p.grid).values]

    def claimed(key: str) -> list[Scalar] | None:
        values = out.get(key)
        if not isinstance(values, list) or len(values) != p.partition.block_count:
            chk.fail(f"verdict must carry {key} with one entry per block")
            return None
        return [parse_number(v, p.exact, f"outputs.{key}[{b}]") for b, v in enumerate(values)]

    claimed_r = claimed("reference_conditional")
    if claimed_r is not None:
        for b in range(p.partition.block_count):
            chk.close(claimed_r[b], ref[b], f"reference conditional on block {b}")
    if p.grid.splittable:
        if out.get("is_coarser") is not True:
            chk.fail("splittable verdict must be positive")
        _contained(chk, witness, E, p.grid, "witness")
        claimed_w = claimed("witness_conditional")
        if claimed_w is None:
            return
        for b in range(p.partition.block_count):
            chk.close(claimed_w[b], wit[b], f"witness conditional on block {b}")
            if ref[b] > chk.tol and not (wit[b] > 0 and wit[b] < ref[b]):
                chk.fail(f"block {b}: witness fails strict separation")
    else:
        if out.get("is_coarser") is not False:
            chk.fail("atomic verdict must be negative")
        live = [k for k in range(p.grid.cell_count) if witness.masses[k] > 0]
        if len(live) != 1 or abs(witness.masses[live[0]]
                                 - p.grid.weights[live[0]]) > chk.tol:
            chk.fail("atomic witness must be a single whole cell")


# ---------------------------------------------------------------------------
# the command table and dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Spec:
    #: (problem, command) -> inputs, read from the payload once
    parse: Callable[[ProblemDocument, str], Any]
    #: (problem, inputs) -> (outputs, residuals, certified bound)
    run: Callable[[ProblemDocument, Any], tuple[dict, dict, Scalar]]
    #: (check, problem, inputs, report) -> None, recording violations on the check
    verify: Callable[[_Check, ProblemDocument, Any, dict], None]


_BANG_BANG = _Spec(_parse_bang_bang, _run_bang_bang, _verify_bang_bang)
_PURIFY = _Spec(_parse_purify, _run_purify, _verify_purify)

_COMMANDS: dict[str, _Spec] = {
    "cond-exp": _Spec(lambda p, _: _payload_function(p, "function"),
                      _run_cond_exp, _verify_cond_exp),
    "ce-measure": _Spec(lambda p, _: _payload_set(p), _run_ce_measure, _verify_ce_measure),
    "partition": _Spec(lambda p, _: (_payload_function(p, "moments"),
                                     _payload_function(p, "weights")),
                       _run_partition, _verify_partition),
    "half-set": _Spec(lambda p, _: (_payload_function(p, "moments"), _payload_set(p)),
                      _run_half_set, _verify_half_set),
    "annihilator": _Spec(_parse_annihilator, _run_annihilator, _verify_annihilator),
    "bang-bang": _BANG_BANG,
    "pointset-bang-bang": _BANG_BANG,
    "purify": _PURIFY,
    "density-step": _PURIFY,
    "coarseness": _Spec(lambda p, _: None if p.payload.get("set") is None else _payload_set(p),
                        _run_coarseness, _verify_coarseness),
}

RUN_COMMANDS = tuple(_COMMANDS)
COMMANDS = RUN_COMMANDS + ("verify",)


def run(command: str, problem: ProblemDocument) -> dict:
    """Dispatch a command and assemble the report document."""
    spec = _COMMANDS.get(command)
    if spec is None:
        raise SchemaError(f"unknown command {echo(command)}")
    started = time.perf_counter()
    outputs, residuals, bound = spec.run(problem, spec.parse(problem, command))
    elapsed = time.perf_counter() - started
    return {
        "command": command,
        "version": __version__,
        "input_digest": problem.digest,
        "parameters": {
            "tolerance": float(problem.tolerance),
            "exact": problem.exact,
            "mode": problem.grid.mode.value,
            "diagonal_only": problem.diagonal_only,
        },
        "outputs": outputs,
        "residuals": residuals,
        "certified_bound": encode_number(bound, problem.exact),
        "wall_time": elapsed,
    }


def verify_report(problem_raw: Any, report_raw: Any, tol: float | None = None) -> list[str]:
    """Recheck every claim of a report against its problem; empty means valid.

    Comparisons run at ``tol`` when given, else at the problem document's
    tolerance (zero in the exact regime); the tolerance the report states
    about itself is never used.
    """
    if not isinstance(report_raw, dict):
        raise SchemaError("report document must be a JSON object")
    command = report_raw.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise SchemaError(f"report carries unknown command {echo(command)}")
    params = as_object(report_raw.get("parameters", {}), "report parameters")
    problem = parse_problem(problem_raw,
                            mode_override=params.get("mode"),
                            exact_override=params.get("exact"),
                            tol_override=tol,
                            diagonal_override=params.get("diagonal_only"))
    chk = _Check(problem.tolerance, problem.exact)
    if report_raw.get("input_digest") != document_digest(problem_raw):
        chk.fail("input digest mismatch: report does not belong to this problem")
        return chk.violations
    if "outputs" not in report_raw or "residuals" not in report_raw:
        raise SchemaError("report needs outputs and residuals")
    as_object(report_raw["outputs"], "report outputs")
    as_object(report_raw["residuals"], "report residuals")
    spec = _COMMANDS[command]
    try:
        spec.verify(chk, problem, spec.parse(problem, command), report_raw)
    except (ValueError, LookupError, TypeError) as err:
        chk.fail(f"verification could not reconstruct the claim: {err}")
    return chk.violations


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="condbang",
        description="conditional-expectation measures, partitions, bang-bang "
                    "selections and purification on discretized spaces")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="problem document path, or - for stdin")
    parser.add_argument("report", nargs="?",
                        help="report document path (verify only)")
    parser.add_argument("-o", "--output", default=None,
                        help="report destination (default stdout)")
    parser.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (default: the problem's, else 1e-9)")
    parser.add_argument("--exact", action="store_true", default=False,
                        help="exact rational arithmetic; rejects float literals")
    parser.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                        help="override the document's space mode")
    parser.add_argument("--diagonal-only", action="store_true", default=False,
                        help="diagonal moment systems in the bang-bang solver")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            if args.report is None:
                raise SchemaError("verify needs a problem document and a report")
            if args.mode is not None or args.exact or args.diagonal_only:
                raise SchemaError("verify reads --mode, --exact and --diagonal-only "
                                  "from the report; do not pass them")
            problem_raw = load_json(_read(args.input), "problem")
            report_raw = load_json(_read(args.report), "report")
            violations = verify_report(problem_raw, report_raw, tol=args.tol)
            ok = not violations
            _write(args.output, canonical_dumps({"ok": ok, "violations": violations}))
            if not ok:
                for v in violations:
                    print(f"verify: {v}", file=sys.stderr)
                return EXIT_VERIFY
            return EXIT_OK
        if args.report is not None:
            raise SchemaError(f"{args.command} takes a single input document")
        raw = load_json(_read(args.input), "problem")
        problem = parse_problem(raw,
                                mode_override=args.mode,
                                exact_override=True if args.exact else None,
                                tol_override=args.tol,
                                diagonal_override=True if args.diagonal_only else None)
        report = run(args.command, problem)
        _write(args.output, canonical_dumps(report))
        return EXIT_OK
    except SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, ArithmeticError) as err:
        print(f"precondition failure: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
