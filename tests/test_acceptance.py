"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1 and 2 share one 500-instance splittable corpus (built once, the
build plus the criterion-1 checks are timed against the 30 s budget).  All
randomness is seeded, so the suite is deterministic.
"""

import json
import math
import random
import time
from fractions import Fraction

from condbang import (Mode, SimpleFunction, annihilator_witness, bang_bang,
                      bf_sub, build_grid, block_masses, cond_exp,
                      constant_function, direct_integrate, direct_mixture_payoff,
                      direct_payoff, enumerate_atomic_partitions, full_set,
                      half_set, integrate_against, lift_to_cells, sf_mul,
                      lyapunov_partition, lyapunov_partition_multi, purify,
                      set_from_triples, sf_add, sf_scale, sf_stack, subdivide,
                      trivial_partition, weighted_ce_measure, ce_measure)
from condbang.condexp import lift_function
from condbang.cli import EXIT_OK, EXIT_VERIFY, RUN_COMMANDS, main
from condbang.linalg import convex_combination

from cli_corpus import make_problem
from gen import (random_alpha, random_atomic_instance,
                 random_bangbang_instance, random_exact_alpha,
                 random_exact_function, random_exact_grid, random_function,
                 random_grid, random_partition, random_refined_set,
                 random_young_instance, refine_randomly)

_corpus_cache = {}


def _announce(capsys, line):
    with capsys.disabled():
        print(line)


def splittable_corpus():
    if "splittable" not in _corpus_cache:
        rng = random.Random(727001)
        instances = []
        started = time.perf_counter()
        for _ in range(500):
            g, C, T, h = random_bangbang_instance(rng)
            sel, rep = bang_bang(T, h, C, g)
            instances.append((g, C, T, h, sel, rep))
        _corpus_cache["splittable"] = (instances, time.perf_counter() - started)
    return _corpus_cache["splittable"]


def test_criterion_1_bang_bang_equality(capsys):
    instances, solve_time = splittable_corpus()
    started = time.perf_counter()
    worst = 0.0
    for g, C, T, h, sel, rep in instances:
        worst = max(worst, rep.max_deviation)
        assert rep.max_deviation <= 1e-8
        for k in range(g.cell_count):
            points = {sel.values[i].values[k]
                      for i, piece in enumerate(sel.pieces) if piece.masses[k] > 0}
            for point in points:
                others = [v for v in T.vertices[k] if v != point]
                assert point in T.vertices[k]
                lam, _, _ = convex_combination(others, point, False, 1e-9)
                assert lam is None, f"non-extreme output value in cell {k}"
    elapsed = solve_time + (time.perf_counter() - started)
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(capsys, f"criterion 1: PASS  bang-bang equality on 500 instances "
                      f"(max deviation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_full_matrix_partition(capsys):
    instances, _ = splittable_corpus()
    rng = random.Random(727002)
    worst = 0.0
    for g, C, T, h, sel, rep in instances:
        part = rep.partition
        worst = max(worst, part.max_residual)
        assert part.max_residual <= 1e-8
    # independent spot check of the seed moment identities on a sample
    for g, C, T, h, sel, rep in rng.sample(instances, 50):
        p = len(sel.pieces)
        stacked = sf_stack(list(sel.values))
        alpha_rows = []
        for k in range(g.cell_count):
            total = sum(piece.masses[k] for piece in sel.pieces)
            assert abs(total - g.weights[k]) <= 1e-9
        for cells in C.blocks:
            for j in range(stacked.dim):
                fwd = math.fsum(g.weights[k] * stacked.values[k][j] for k in cells)
                rev = math.fsum(g.weights[k] * stacked.values[k][j]
                                for k in reversed(cells))
                assert abs(fwd - rev) <= 1e-10 * (1 + abs(fwd))
    _announce(capsys, f"criterion 2: PASS  all (i,j) partition equalities "
                      f"on the same corpus (max residual {worst:.2e})")


def test_criterion_3_atomic_certification(capsys):
    rng = random.Random(727003)
    worst_ratio = 1.0
    for _ in range(500):
        g, C, h, alpha, p = random_atomic_instance(rng)
        res = lyapunov_partition(h, alpha, C, g, polish_budget=2 ** 20)
        assert res.max_residual <= res.residual_bound + 1e-12
        assert all(c <= p * h.dim for c in res.fractional_per_block)
        _, optimum = enumerate_atomic_partitions(g, p, h, alpha, C)
        assert res.max_residual >= optimum - 1e-12
        assert res.max_residual <= 10 * optimum + 1e-12
        if optimum > 1e-12:
            worst_ratio = max(worst_ratio, float(res.max_residual / optimum))
    # refinement study in the exact regime: the certified bound halves exactly
    # per refinement; the observed residual shrinks at a rate of >= 1.5x per
    # refinement (over the four-refinement study) on >= 90% of instances.
    rng = random.Random(727103)
    instances = 30
    rate_ok = 0
    step_pairs = [0, 0]
    for _ in range(instances):
        m = rng.randint(12, 16)
        p = rng.randint(2, 3)
        d = rng.randint(2, 3)
        g = random_exact_grid(rng, m, Mode.ATOMIC)
        C = random_partition(rng, g, 4)
        h = random_exact_function(rng, g, d)
        alpha = random_exact_alpha(rng, g, p)
        res = lyapunov_partition(h, alpha, C, g, polish_budget=0)
        first, prev, bound = res.max_residual, res.max_residual, res.residual_bound
        last = prev
        for _step in range(4):
            g, ref = subdivide(g, 2)
            C = ref.lift_partition(C)
            h = lift_function(h, ref)
            alpha = lift_function(alpha, ref)
            res = lyapunov_partition(h, alpha, C, g, polish_budget=0)
            assert res.residual_bound * 2 == bound  # exact 2x per refinement
            bound = res.residual_bound
            step_pairs[1] += 1
            if (prev == 0 and res.max_residual == 0) or \
                    (prev > 0 and res.max_residual * 3 <= prev * 2):
                step_pairs[0] += 1
            prev = res.max_residual
            last = res.max_residual
        if (first == 0 and last == 0) or (first > 0 and last * 81 <= first * 16):
            rate_ok += 1
    assert rate_ok >= 0.9 * instances
    _announce(capsys, f"criterion 3: PASS  atomic certification on 500 instances "
                      f"(worst main/optimum ratio {worst_ratio:.2f}); refinement "
                      f"study: bound exactly halves, residual rate >= 1.5x per "
                      f"refinement on {rate_ok}/{instances} instances "
                      f"({step_pairs[0]}/{step_pairs[1]} individual steps)")


def test_criterion_4_annihilator_witness(capsys):
    rng = random.Random(727004)
    worst = 0.0
    for _ in range(200):
        g = random_grid(rng, rng.randint(2, 24), Mode.SPLITTABLE)
        C = random_partition(rng, g, 6)
        f = random_function(rng, g, 1, lo=-3, hi=3)
        if rng.random() < 0.25:
            vals = list(f.values)
            for k in range(g.cell_count):
                if rng.random() < 0.3:
                    vals[k] = (0.0,)
            f = SimpleFunction(dim=1, values=tuple(vals))
        E = random_refined_set(rng, g)
        w = annihilator_witness(f, E, C, g)
        assert w.norm_inf > 0
        for j in range(w.grid.cell_count):
            assert w.support.masses[j] <= w.set_on_refined.masses[j] + 1e-12
            if w.support.masses[j] == 0:
                assert w.g.values[j][0] == 0
        fg = sf_mul(w.g, w.function_on_refined)
        oracle = direct_integrate(fg, w.set_on_refined, w.partition_on_refined, w.grid)
        worst = max(worst, float(oracle.max_abs()))
        assert oracle.max_abs() <= 1e-9
    _announce(capsys, f"criterion 4: PASS  annihilator witness on 200 instances "
                      f"(max block integral {worst:.2e})")


def test_criterion_5_half_sets(capsys):
    rng = random.Random(727005)
    for _ in range(40):
        g = random_grid(rng, rng.randint(2, 24), Mode.SPLITTABLE)
        C = random_partition(rng, g, 5)
        h = random_function(rng, g, rng.randint(1, 3))
        E = random_refined_set(rng, g)
        first = half_set(h, E, C, g)
        assert first.max_residual <= 1e-9
        second = half_set(h, first.half, C, g)
        whole = weighted_ce_measure(h, E, C, g)
        quarter = weighted_ce_measure(h, second.half, C, g)
        for b in range(C.block_count):
            for j in range(h.dim):
                assert abs(quarter.values[b][j] - whole.values[b][j] / 4) <= 2e-9
    # the uneven two-cell atomic space: residual exactly 0.1 = oracle optimum
    g = build_grid([0.6, 0.4], Mode.ATOMIC)
    res = half_set(constant_function(g, 1.0), full_set(g), trivial_partition(g), g)
    alpha = SimpleFunction(dim=2, values=((0.5, 0.5),) * 2)
    _, optimum = enumerate_atomic_partitions(g, 2, constant_function(g, 1.0),
                                             alpha, trivial_partition(g))
    assert res.max_residual == optimum
    assert abs(res.max_residual - 0.1) < 1e-15
    ge = build_grid([Fraction(3), Fraction(2)], Mode.ATOMIC)
    res_exact = half_set(constant_function(ge, Fraction(1)), full_set(ge),
                         trivial_partition(ge), ge)
    assert res_exact.max_residual == Fraction(1, 10)
    _announce(capsys, "criterion 5: PASS  half-sets exact on splittable grids, "
                      "quarter within 2e-9, atomic [0.6, 0.4] residual exactly 0.1")


def test_criterion_6_purification(capsys):
    rng = random.Random(727006)
    worst = 0.0
    for _ in range(300):
        g, C, delta, V = random_young_instance(rng)
        strategy, report = purify(delta, V, C, g)
        worst = max(worst, float(report.max_deviation))
        assert report.max_deviation <= 1e-8
        lhs = direct_mixture_payoff(delta.rows, V, C, g)
        rhs = direct_payoff(strategy, V, C, g)
        assert bf_sub(lhs, rhs).max_abs() <= 1e-8
        for k in range(g.cell_count):
            for _, m, a in strategy.chunks[k]:
                if m > 0:
                    assert delta.rows[k][a] > 0
    # Dirac mixtures come back unchanged with deviation exactly zero
    from condbang import action_set, dirac_measure
    for _ in range(50):
        g, C, delta, V = random_young_instance(rng)
        acts = action_set([f"a{i}" for i in range(len(delta.rows[0]))])
        choices = [max(range(len(row)), key=lambda a: row[a]) for row in delta.rows]
        dirac = dirac_measure(choices, acts, g)
        strategy, report = purify(dirac, V, C, g)
        assert report.max_deviation == 0
        assert [strategy.cell_action(k) for k in range(g.cell_count)] == choices
    _announce(capsys, f"criterion 6: PASS  purification on 300 instances "
                      f"(max payoff deviation {worst:.2e}); Dirac inputs fixed "
                      f"with deviation exactly 0")


def test_criterion_7_multi_measure(capsys):
    rng = random.Random(727007)
    worst = 0.0
    for _ in range(100):
        m = rng.randint(3, 12)
        g = random_grid(rng, m, Mode.SPLITTABLE)
        C = random_partition(rng, g, 4)
        measures = [[rng.uniform(0.05, 1.0) for _ in range(m)] for _ in range(2)]
        fs = [random_function(rng, g, 1) for _ in range(2)]
        p = rng.randint(2, 4)
        alpha = random_alpha(rng, g, p)
        res = lyapunov_partition_multi(measures, fs, alpha, C, g)
        assert res.max_residual <= 1e-8
        # independent per-measure recomputation
        for i in range(2):
            mu_b = [sum(measures[i][k] for k in cells) for cells in C.blocks]
            for j, piece in enumerate(res.pieces):
                for b, cells in enumerate(C.blocks):
                    if mu_b[b] <= 0:
                        continue
                    lhs = math.fsum(piece.masses[k] / g.weights[k] * measures[i][k]
                                    * fs[i].values[k][0] for k in cells) / mu_b[b]
                    rhs = math.fsum(alpha.values[k][j] * measures[i][k]
                                    * fs[i].values[k][0] for k in cells) / mu_b[b]
                    worst = max(worst, abs(lhs - rhs))
                    assert abs(lhs - rhs) <= 1e-8
    # equal measures reproduce the single-measure path bit for bit (exact mode)
    for _ in range(20):
        g = random_exact_grid(rng, rng.randint(2, 10), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        fs = [random_exact_function(rng, g, 1) for _ in range(2)]
        alpha = random_exact_alpha(rng, g, rng.randint(2, 3))
        multi = lyapunov_partition_multi([g.weights, g.weights], fs, alpha, C, g)
        single = lyapunov_partition(sf_stack(fs), alpha, C, g)
        assert multi.pieces == single.pieces
    _announce(capsys, f"criterion 7: PASS  multi-measure partitions on 100 "
                      f"instances (max per-measure defect {worst:.2e}); exact "
                      f"equal-measures case bit-matches the single path")


def test_criterion_8_operator_identities(capsys):
    rng = random.Random(727008)
    checks = 10000
    # linearity
    for _ in range(checks):
        g = random_grid(rng, rng.randint(1, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        f1 = random_function(rng, g, 1)
        f2 = random_function(rng, g, 1)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = cond_exp(sf_add(sf_scale(a, f1), sf_scale(b, f2)), C, g)
        r1, r2 = cond_exp(f1, C, g), cond_exp(f2, C, g)
        for bi in range(C.block_count):
            assert abs(lhs.values[bi][0]
                       - (a * r1.values[bi][0] + b * r2.values[bi][0])) <= 1e-9
    # tower property
    for _ in range(checks):
        g = random_grid(rng, rng.randint(2, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 2)
        D = refine_randomly(rng, C)
        f = random_function(rng, g, 1)
        inner = lift_to_cells(cond_exp(f, D, g), D, g)
        assert bf_sub(cond_exp(inner, C, g), cond_exp(f, C, g)).max_abs() <= 1e-9
    # L1 contraction
    for _ in range(checks):
        g = random_grid(rng, rng.randint(1, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        f = random_function(rng, g, 1)
        ce = cond_exp(f, C, g)
        masses = block_masses(C, g)
        lhs = sum(m * abs(ce.values[b][0]) for b, m in enumerate(masses))
        rhs = sum(abs(f.values[k][0]) * g.weights[k] for k in range(g.cell_count))
        assert lhs <= rhs + 1e-9
    # additivity of the conditional measure over disjoint sets
    for _ in range(checks):
        g = random_grid(rng, rng.randint(1, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        t1, t2 = [], []
        for k, w in enumerate(g.weights):
            a = rng.uniform(0, 0.5) * w
            b = rng.uniform(0, 0.9) * (w - a)
            if a > 0:
                t1.append((k, 0.0, a))
            if b > 0:
                t2.append((k, a, b))
        if not t1 or not t2:
            continue
        E1, E2 = set_from_triples(g, t1), set_from_triples(g, t2)
        union = set_from_triples(g, [(k, 0.0, E1.masses[k] + E2.masses[k])
                                     for k in range(g.cell_count)
                                     if E1.masses[k] + E2.masses[k] > 0])
        for b in range(C.block_count):
            assert abs(ce_measure(union, C, g).values[b][0]
                       - ce_measure(E1, C, g).values[b][0]
                       - ce_measure(E2, C, g).values[b][0]) <= 1e-9
    # integral against the weighted measure = expectation of the product
    for _ in range(checks):
        g = random_grid(rng, rng.randint(1, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        f = random_function(rng, g, 2)
        w = random_function(rng, g, 1)
        E = random_refined_set(rng, g)
        lhs = integrate_against(w, f, E, C, g)
        rhs = weighted_ce_measure(sf_mul(w, f), E, C, g)
        assert bf_sub(lhs, rhs).max_abs() <= 1e-9
    # oracle agreement rides along on the same volume
    for _ in range(checks):
        g = random_grid(rng, rng.randint(1, 6), Mode.SPLITTABLE)
        C = random_partition(rng, g, 3)
        f = random_function(rng, g, 1)
        assert bf_sub(direct_integrate(f, None, C, g),
                      cond_exp(f, C, g)).max_abs() <= 1e-9
    _announce(capsys, f"criterion 8: PASS  five operator identities plus oracle "
                      f"agreement, {checks} randomized checks each, within 1e-9")


def test_criterion_9_cli_round_trip_and_exact_mode(tmp_path, capsys):
    rng = random.Random(727009)
    # every command's reports pass verify on a randomized corpus
    count = 0
    for command in RUN_COMMANDS:
        for trial in range(4):
            mode = "atomic" if (command != "annihilator" and trial == 3) \
                else "splittable"
            exact = (trial == 2 and command != "coarseness")
            doc = make_problem(rng, command, exact=exact, mode=mode)
            prob = tmp_path / f"{command}-{trial}-p.json"
            prob.write_text(json.dumps(doc), encoding="utf-8")
            rep = tmp_path / f"{command}-{trial}-r.json"
            assert main([command, str(prob), "-o", str(rep)]) == EXIT_OK, \
                f"{command} trial {trial}"
            assert main(["verify", str(prob), str(rep), "-o", "/dev/null"]) \
                == EXIT_OK, f"{command} trial {trial} verification"
            count += 1
    # tampered reports fail with exit code 4
    tampers = {
        "cond-exp": lambda r: r["outputs"]["expectation"]["values"][0].__setitem__(0, 99.0),
        "ce-measure": lambda r: r["outputs"]["measure"]["values"][0].__setitem__(0, 0.77),
        "partition": lambda r: r["residuals"].__setitem__("max_residual", 42.0),
        "half-set": lambda r: r["outputs"]["half"]["triples"][0].__setitem__(2, 0.0),
        "annihilator": lambda r: r["outputs"]["witness"]["values"][0].__setitem__(0, 5.0),
        "bang-bang": lambda r: r["outputs"]["lhs"]["values"][0].__setitem__(0, -3.3),
        "pointset-bang-bang": lambda r: r["outputs"]["rhs"]["values"][0].__setitem__(0, 8.8),
        "purify": lambda r: r["residuals"].__setitem__("max_deviation", 9.0),
        "density-step": lambda r: r["outputs"]["chunks"][0].__setitem__(2, 0.0),
        "coarseness": lambda r: r["outputs"].__setitem__("is_coarser",
                                                         not r["outputs"]["is_coarser"]),
    }
    for command, tamper in tampers.items():
        doc = make_problem(rng, command, mode="splittable")
        prob = tmp_path / f"tamper-{command}-p.json"
        prob.write_text(json.dumps(doc), encoding="utf-8")
        rep = tmp_path / f"tamper-{command}-r.json"
        assert main([command, str(prob), "-o", str(rep)]) == EXIT_OK
        report = json.loads(rep.read_text())
        tamper(report)
        bad = tmp_path / f"tamper-{command}-bad.json"
        bad.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify", str(prob), str(bad), "-o", "/dev/null"]) \
            == EXIT_VERIFY, f"tampered {command} report slipped through"
    # rational mode reproduces criterion 1 with zero error exactly
    rng_x = random.Random(727109)
    for _ in range(500):
        g, C, T, h = random_bangbang_instance(rng_x, max_cells=12, max_dim=3,
                                              max_vertices=6, exact=True)
        sel, rep = bang_bang(T, h, C, g)
        assert rep.max_deviation == 0
        assert rep.partition.max_residual == 0
    # ... criterion 5 ...
    for _ in range(30):
        g = random_exact_grid(rng_x, rng_x.randint(2, 12), Mode.SPLITTABLE)
        C = random_partition(rng_x, g, 4)
        h = random_exact_function(rng_x, g, rng_x.randint(1, 2))
        res = half_set(h, full_set(g), C, g)
        assert res.max_residual == 0
        quarter = half_set(h, res.half, C, g)
        whole = weighted_ce_measure(h, full_set(g), C, g)
        got = weighted_ce_measure(h, quarter.half, C, g)
        assert all(got.values[b][j] * 4 == whole.values[b][j]
                   for b in range(C.block_count) for j in range(h.dim))
    # ... and criterion 6, all with exactly zero error
    for _ in range(300):
        g, C, delta, V = random_young_instance(rng_x, max_cells=8, exact=True)
        strategy, report = purify(delta, V, C, g)
        assert report.max_deviation == 0
    _announce(capsys, f"criterion 9: PASS  {count} emitted reports verified, "
                      f"{len(tampers)} tampered reports rejected with exit 4, "
                      f"rational reruns of criteria 1, 5, 6 exactly zero")
