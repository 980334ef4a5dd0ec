import math
import pathlib
import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from condbang import (HullMembershipError, Mode, NoExtremePointError, build_grid,
                      caratheodory_decompose, decompose_selection, extreme_point_indices,
                      polytope_map, simple_function)
from condbang import polytope
from condbang.cli import run
from condbang.documents import parse_problem
from condbang.linalg import convex_combination, integer_scaled, nullspace_vector
from condbang.numeric import Scalar, all_exact, is_exact, max_abs, resolve_tol
from condbang.polytope import _dedupe, _points_exact

from gen import interior_selection, random_grid, random_polytopes
from test_linalg import _integer_columns, pivot_step, reference_convex_combination

TOL = 1e-9
BIG = 2 ** 64


def hull_feasible_lp(point, vertices, feasibility_tol=None):
    """Independent hull-membership oracle via scipy's interior LP machinery.
    ``feasibility_tol`` replaces HiGHS's primal feasibility tolerance (1e-7),
    for points that lie closer than that to the hull of the others."""
    A_eq = np.vstack([np.array(vertices, dtype=float).T, np.ones(len(vertices))])
    b_eq = np.append(np.array(point, dtype=float), 1.0)
    options = {} if feasibility_tol is None else {"primal_feasibility_tolerance": feasibility_tol}
    res = linprog(np.zeros(len(vertices)), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(vertices), method="highs", options=options)
    return res.status == 0


def extreme_of(points):
    return [points[i] for i in extreme_point_indices(points)]


def test_extreme_points_examples():
    assert extreme_of([(0.0,), (0.5,), (1.0,)]) == [(0.0,), (1.0,)]
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    assert extreme_of(square) == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert extreme_of([(2.5, -1.0)]) == [(2.5, -1.0)]


@pytest.mark.parametrize("num", [float, Fraction])
def test_extreme_points_of_mixed_dimensions_are_refused(num):
    with pytest.raises(ValueError, match="differ in dimension"):
        extreme_point_indices([(num(0), num(0)), (num(1),), (num(2), num(2))])


def test_extreme_points_against_lp_oracle():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(n))
               for _ in range(rng.randint(2, 8))]
        mine = set(extreme_of(pts))
        for i, p in enumerate(pts):
            others = [q for j, q in enumerate(pts) if j != i and q != p]
            if p in pts[:i]:
                continue  # duplicate: first occurrence decides
            expected = not hull_feasible_lp(p, others) if others else True
            assert (p in mine) == expected


def test_extreme_points_preserve_hull():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(n))
               for _ in range(rng.randint(2, 9))]
        ext = extreme_of(pts)
        assert set(ext) <= set(pts)
        for p in pts:
            assert hull_feasible_lp(p, ext)


def test_caratheodory_identity_and_symmetry():
    w, sup = caratheodory_decompose((0.5,), [(0.0,), (1.0,)])
    assert sorted(zip(sup, w)) == [(0, pytest.approx(0.5)), (1, pytest.approx(0.5))]
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    w, sup = caratheodory_decompose((1.0, 1.0), square)
    assert sup == [3] and w[0] == pytest.approx(1.0)


def test_caratheodory_center_reconstructs():
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    w, sup = caratheodory_decompose((0.5, 0.5), square)
    assert len(sup) <= 3
    rec = [sum(wi * square[s][j] for wi, s in zip(w, sup)) for j in range(2)]
    assert rec == pytest.approx([0.5, 0.5], abs=TOL)
    assert all(square[s] != (0.5, 0.5) for s in sup)  # only hull vertices


def test_caratheodory_contract_random():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        verts = [tuple(rng.uniform(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(n + 1, 9))]
        lam = [rng.uniform(0.05, 1) for _ in verts]
        s = sum(lam)
        point = tuple(sum(l / s * v[j] for l, v in zip(lam, verts)) for j in range(n))
        w, sup = caratheodory_decompose(point, verts)
        assert len(sup) <= n + 1
        assert all(x > 0 for x in w)
        assert sum(w) == pytest.approx(1.0, abs=TOL)
        rec = [sum(wi * verts[si][j] for wi, si in zip(w, sup)) for j in range(n)]
        assert max(abs(a - b) for a, b in zip(rec, point)) <= TOL


def test_caratheodory_minimality_general_position():
    # with a full-size support, dropping any vertex breaks feasibility
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 3)
        verts = [tuple(rng.uniform(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(n + 1, 8))]
        lam = [rng.uniform(0.05, 1) for _ in verts]
        s = sum(lam)
        point = tuple(sum(l / s * v[j] for l, v in zip(lam, verts)) for j in range(n))
        w, sup = caratheodory_decompose(point, verts)
        if len(sup) != n + 1:
            continue
        checked += 1
        for drop in range(len(sup)):
            rest = [verts[si] for i, si in enumerate(sup) if i != drop]
            assert not hull_feasible_lp(point, rest)


def test_caratheodory_outside_raises_with_direction():
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    with pytest.raises(HullMembershipError) as err:
        caratheodory_decompose((3.0, 0.5), square)
    d = err.value.direction
    if d is not None:
        margin = sum(dc * pc for dc, pc in zip(d, (3.0, 0.5)))
        assert all(sum(dc * vc for dc, vc in zip(d, v)) < margin for v in square)


def test_caratheodory_exact_regime():
    verts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
             (Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))]
    w, sup = caratheodory_decompose((Fraction(1, 2), Fraction(1, 2)), verts)
    assert sum(w) == 1
    rec = [sum(wi * verts[si][j] for wi, si in zip(w, sup)) for j in range(2)]
    assert rec == [Fraction(1, 2), Fraction(1, 2)]


def test_decompose_selection_vertex_pick_degenerate():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    s = simple_function([0.0, 1.0, 0.0, 1.0])
    dec = decompose_selection(T, s, g)
    for k in range(4):
        assert dec.weights[k][0] == pytest.approx(1.0)
        assert dec.points[k][0] == s.values[k]


def test_decompose_selection_symmetric_midpoint():
    g = build_grid([0.25] * 4, Mode.SPLITTABLE)
    T = polytope_map([[(0.0,), (1.0,)]] * 4)
    s = simple_function([0.5] * 4)
    dec = decompose_selection(T, s, g)
    for k in range(4):
        pts = sorted(p[0] for p, w in zip(dec.points[k], dec.weights[k]) if w > 0)
        assert pts == [0.0, 1.0]
        assert sum(dec.weights[k]) == pytest.approx(1.0)


def test_decompose_selection_reconstructs_random_cells():
    rng = random.Random(43)
    g = random_grid(rng, 4, Mode.SPLITTABLE)
    T = random_polytopes(rng, g, 3, 8)
    s = interior_selection(rng, T)
    dec = decompose_selection(T, s, g)
    for k in range(4):
        rec = dec.reconstruct(k)
        assert max(abs(a - b) for a, b in zip(rec, s.values[k])) <= TOL
        assert len(dec.weights[k]) == dec.branch_count == 4


def test_decompose_selection_names_failing_cell():
    g = build_grid([0.5, 0.5], Mode.SPLITTABLE)
    T = polytope_map([[(0.0,), (1.0,)]] * 2)
    s = simple_function([0.5, 4.0])
    with pytest.raises(HullMembershipError) as err:
        decompose_selection(T, s, g)
    assert err.value.cell == 1
    assert "cell 1" in str(err.value)


def reference_extreme_point_indices(points, tol=None):
    """The filter as it was before its separating-direction shortcut: one
    Phase-I LP per distinct point, kept verbatim as the arbiter, except that
    the LP is the Fraction simplex of ``test_linalg`` rather than the live
    one, so the arbiter shares no code with the filter it judges."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    exact = _points_exact(pts)
    tol = resolve_tol(exact, tol)
    kept, idx = _dedupe(pts)
    if len(kept) == 1:
        return [idx[0]]
    out = []
    for i, p in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        lam, _, _ = reference_convex_combination(others, p, exact, tol)
        if lam is None:
            out.append(idx[i])
    return out


def assert_filter_agrees(pts, tol=None, note=None):
    """The filter against the LP loop, which returns [] where the filter
    raises: a nonempty set has an extreme point, so none coming out within
    ``tol`` means the set is too small for ``tol``."""
    want = reference_extreme_point_indices(pts, tol)
    if want:
        assert extreme_point_indices(pts, tol) == want, note
    else:
        with pytest.raises(NoExtremePointError):
            extreme_point_indices(pts, tol)


@st.composite
def point_sets(draw, exact):
    """1-14 points in dims 1-4, spanning an affine flat of any dimension up to
    dim (so collinear and coplanar sets come up), with repeats, scaled by
    10**e for e in -6..6, and sometimes one more point a few tolerances off
    the midpoint of two others."""
    dim = draw(st.integers(1, 4))
    flat = draw(st.integers(0, dim))
    coef = st.integers(-4, 4) if exact else st.one_of(
        st.integers(-4, 4), st.floats(-4, 4, allow_nan=False, allow_infinity=False))
    base = [draw(st.integers(-20, 20)) for _ in range(dim)]
    dirs = [[draw(st.integers(-5, 5)) for _ in range(dim)] for _ in range(flat)]
    pts = []
    for _ in range(draw(st.integers(1, 14))):
        if pts and draw(st.integers(0, 4)) == 0:
            pts.append(pts[draw(st.integers(0, len(pts) - 1))])
            continue
        cs = [draw(coef) for _ in range(flat)]
        pts.append([base[j] + sum(c * d[j] for c, d in zip(cs, dirs)) for j in range(dim)])
    e = draw(st.integers(-6, 6))
    if exact:
        pts = [tuple(Fraction(c) * Fraction(10) ** e for c in p) for p in pts]
        tol = Fraction(1, 10 ** 9)
    else:
        pts = [tuple(float(c) * 10.0 ** e for c in p) for p in pts]
        tol = 1e-9
    if len(pts) > 1 and draw(st.booleans()):
        # a point within a few tolerances of a midpoint of two others
        a, b = (pts[draw(st.integers(0, len(pts) - 1))] for _ in range(2))
        pts.append(tuple((x + y) / 2 + draw(st.sampled_from((0, -10, -2, -1, 1, 2, 10))) * tol
                         for x, y in zip(a, b)))
    return pts


@settings(max_examples=300, deadline=None)
@given(point_sets(exact=False))
def test_extreme_point_indices_agree_with_the_lp_loop_on_floats(pts):
    assert_filter_agrees(pts)


@settings(max_examples=150, deadline=None)
@given(point_sets(exact=True))
def test_extreme_point_indices_agree_with_the_lp_loop_exactly(pts):
    assert_filter_agrees(pts)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("factor", [0.5, 1, 2, 10])
def test_extreme_point_indices_agree_near_the_tolerance(exact, factor):
    # the last point sits factor * tol off the square's edge x = 1, or
    # off its corner (1, 1), on either side of the hull of the others
    tol = Fraction(1, 10 ** 9) if exact else 1e-9
    num = Fraction if exact else float
    square = [(num(0), num(0)), (num(1), num(0)), (num(0), num(1)), (num(1), num(1))]
    for scale in (1, 1000):
        for inward in (False, True):
            off = num(factor) * tol * (-1 if inward else 1)
            for probe in ((num(1) + off, num(1) / 2),
                          (num(1) + off, num(1) + off)):
                pts = [tuple(c * scale for c in p) for p in square + [probe]]
                assert_filter_agrees(pts, tol, (scale, inward, probe))


def test_exact_bound_on_integers_agrees_near_a_face():
    # exact vertices with unrelated denominators up to 2**64 (ints mixed in)
    # below the face x_last = 0, which holds a and b, and probes k tolerances
    # off the face's midpoint for k = 0..10 on either side; with the midpoint
    # at the origin, ||d||_inf outweighs |m| in the separation bound
    rng = random.Random(2 ** 64)
    for _ in range(24):
        dim = rng.randint(1, 3)

        def coord():
            return rng.choice((Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)),
                               rng.randint(-3, 3)))

        a = tuple(coord() for _ in range(dim - 1)) + (0,)
        b = tuple(-c for c in a[:-1]) + (0,)
        below = [tuple(coord() for _ in range(dim - 1)) + (-abs(coord()) - 1,)
                 for _ in range(rng.randint(1, 5))]
        tol = rng.choice((Fraction(1, 10 ** 9), Fraction(3, BIG - 1), Fraction(1, 7)))
        for k in range(11):
            for side in (-1, 1):
                probe = tuple(0 for _ in range(dim - 1)) + (side * k * tol,)
                case = [a, b] + below + [probe]
                assert_filter_agrees(case, tol, (case, tol))


def test_exact_points_under_a_float_tol_keep_the_unscaled_bound():
    # the lcm of these denominators squared is far beyond the float range, so
    # a float tol must not meet the integer-scaled products
    rng = random.Random(9)
    for dim in (1, 2, 3):
        pts = [tuple(Fraction(rng.randint(-BIG, BIG), BIG - rng.randint(0, 10 ** 6))
                     for _ in range(dim)) for _ in range(8)]
        pts.append(tuple((x + y) / 2 for x, y in zip(pts[0], pts[1])))
        for tol in (1e-9, 0.25):
            assert_filter_agrees(pts, tol)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_bound_on_integers_agrees_with_mixed_denominators(data):
    dim = data.draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-5, 5),
                      st.fractions(min_value=-5, max_value=5, max_denominator=30),
                      st.builds(lambda a, b: Fraction(a, BIG - b),
                                st.integers(-BIG, BIG), st.integers(0, 1000)))
    pts = [tuple(data.draw(entry) for _ in range(dim))
           for _ in range(data.draw(st.integers(1, 9)))]
    # a float tol on exact points keeps the unscaled test
    tol = data.draw(st.sampled_from((Fraction(0), Fraction(1, 10 ** 9), Fraction(1, 3), 1e-9)))
    if len(pts) > 1:
        a, b = data.draw(st.sampled_from(pts)), data.draw(st.sampled_from(pts))
        k = data.draw(st.integers(-10, 10))
        pts.append(tuple((x + y) / 2 + k * tol for x, y in zip(a, b)))
    assert_filter_agrees(pts, tol)


def reference_separation_pending(pts, tol):
    """The separation bound as ``_FilterPlan`` ran it point by point before
    it ran on arrays, kept verbatim as the reference: the indices, into the
    deduped points, of the points it leaves to an LP."""
    exact = _points_exact(pts)
    tol = resolve_tol(exact, tol)
    kept, _ = _dedupe(pts)
    pending = []
    n = len(kept)
    if n == 1:
        return pending
    bound = tol if exact else tol + polytope._FLOAT_SEPARATION_SLACK * (
        1 + max_abs(c for p in kept for c in p))
    if exact and is_exact(tol):
        scale, scaled = integer_scaled(kept)
    else:
        # floats, and exact points under a float tol: its products would
        # round differently once scaled by L^2
        scale, scaled = 1, kept
    total = [sum(coords) for coords in zip(*scaled)]
    for i, p in enumerate(scaled):
        d = [n * pc - tc for pc, tc in zip(p, total)]
        m = max(sum(dc * qc for dc, qc in zip(d, q)) for q in scaled[:i] + scaled[i + 1:])
        gap = sum(dc * pc for dc, pc in zip(d, p)) - m
        if gap <= bound * max(scale * max_abs(d), abs(m)):
            pending.append(i)
    return pending


def assert_pending_agrees(sets, tol=None):
    """``_separate`` over the plans of all ``sets`` at once leaves each plan
    the reference's pending list."""
    plans = [polytope._FilterPlan(pts, tol) for pts in sets]
    polytope._separate(plans)
    assert [plan.pending for plan in plans] == [reference_separation_pending(pts, tol)
                                                for pts in sets]


def gaussian_sets(rng, count, dims=(1, 2, 3, 4), sizes=(1, 12)):
    """``count`` sets of Gaussian points, a few of them repeated."""
    sets = []
    for _ in range(count):
        dim = rng.choice(dims)
        pts = [tuple(rng.gauss(0, 1) for _ in range(dim)) for _ in range(rng.randint(*sizes))]
        for _ in range(rng.randint(0, 2)):
            pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
        sets.append(pts)
    return sets


def exact_sets(rng, count):
    """``count`` exact sets in dims 1-3 of 1-9 points, ints or Fractions of
    unrelated denominators, some repeated, some on a midpoint of two others."""
    sets = []
    for _ in range(count):
        dim = rng.randint(1, 3)

        def entry():
            return rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
                               Fraction(rng.randint(-BIG, BIG), BIG - rng.randint(0, 1000))))

        pts = [tuple(entry() for _ in range(dim)) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.3:
            pts.append(rng.choice(pts))
        if len(pts) > 1 and rng.random() < 0.3:
            a, b = rng.sample(pts, 2)
            pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        sets.append(pts)
    return sets


def test_separation_on_arrays_matches_the_scalar_loop_on_floats():
    rng = random.Random(61)
    sets = gaussian_sets(rng, 600)
    # every shape in one call, and each set on its own
    assert_pending_agrees(sets)
    for pts in sets[:100]:
        assert_pending_agrees([pts])
    assert_pending_agrees(gaussian_sets(rng, 50), tol=0.25)
    # a probe 10**k tol off a square's edge or corner, on either side, at
    # scales where the round-off allowance reaches past tol
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    probes = [(1 + side * 10.0 ** k * TOL, y) for k in range(5) for side in (-1, 1)
              for y in (0.5, 1.0)]
    assert_pending_agrees([[(x * s, y * s) for x, y in square + [probe]]
                           for s in (1.0, 1e3, 1e6) for probe in probes])


@pytest.mark.parametrize("tol", [None, Fraction(1, 10 ** 9), Fraction(1, 7), 1e-9, 0.25])
def test_separation_on_arrays_matches_the_scalar_loop_exactly(tol):
    # tol None is 0 on exact sets; a float tol keeps the sets unscaled
    sets = exact_sets(random.Random(67), 150)
    assert_pending_agrees(sets, tol)
    assert_pending_agrees(sets + gaussian_sets(random.Random(71), 50), tol)


def test_separation_leaves_overflowing_points_to_the_lp_without_a_warning():
    # beyond about 1e150 the float d.q products overflow; no gap settles a
    # point then, and no RuntimeWarning (an error under tier-1) leaves numpy
    sets = [[tuple(c * 1e200 for c in pt) for pt in pts]
            for pts in gaussian_sets(random.Random(79), 40, sizes=(2, 12))]
    plans = [polytope._FilterPlan(pts, None) for pts in sets]
    polytope._separate(plans)
    assert all(plan.pending == list(range(len(plan.kept))) for plan in plans
               if len(plan.kept) > 1)
    for pts in sets:
        assert_filter_agrees(pts)
    # one point at 1e155 among unit ones: its d.q alone overflows, so its gap
    # is infinite while the width, even times tol, is finite; it too is left
    # to its LP
    far = [[tuple(math.copysign(1e155, c) for c in pts[0])] + pts[1:]
           for pts in gaussian_sets(random.Random(83), 40, sizes=(3, 12))]
    plans = [polytope._FilterPlan(pts, None) for pts in far]
    polytope._separate(plans)
    assert all(0 in plan.pending for plan in plans if len(plan.kept) > 1)


def test_separation_slices_a_large_group(monkeypatch):
    rng = random.Random(73)
    sets = gaussian_sets(rng, 300, dims=(2,), sizes=(6, 6)) + exact_sets(rng, 60)
    # a slice of 2 plans of 6 points, and of 1 plan of 12
    monkeypatch.setattr(polytope, "_SEPARATION_ENTRIES", 80)
    assert_pending_agrees(sets)
    assert_pending_agrees([[(float(i), float(i * i)) for i in range(12)]] * 5)


def record_filter(monkeypatch):
    """The (points, tol) of every filter plan made while the patch holds, the
    pending list of each as its LPs are taken, and those LPs."""
    seen = {"sets": [], "pending": [], "lps": []}

    class Recorded(polytope._FilterPlan):
        __slots__ = ()

        def __init__(self, pts, tol):
            super().__init__(pts, tol)
            seen["sets"].append((pts, tol))

        def lps(self):
            seen["pending"].append(list(self.pending))
            lps = list(super().lps())
            seen["lps"].extend(lps)
            return iter(lps)

    monkeypatch.setattr(polytope, "_FilterPlan", Recorded)
    return seen


def test_extreme_point_indices_separates_a_group_of_one(monkeypatch):
    seen = record_filter(monkeypatch)
    rng = random.Random(79)
    for pts in gaussian_sets(rng, 40) + exact_sets(rng, 40):
        try:
            extreme_point_indices(pts)
        except NoExtremePointError:
            pass
    assert len(seen["sets"]) == 80
    assert seen["pending"] == [reference_separation_pending(pts, tol) for pts, tol in seen["sets"]]


def test_a_pointset_instance_submits_the_reference_count_of_filter_lps(monkeypatch):
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    inst = next(workloads.instances("splittable-geometry", 1))
    assert inst.command == "pointset-bang-bang"
    seen = record_filter(monkeypatch)
    run(inst.command, parse_problem(inst.document))
    assert seen["sets"]
    assert seen["pending"] == [reference_separation_pending(pts, tol) for pts, tol in seen["sets"]]
    assert len(seen["lps"]) == sum(map(len, seen["pending"]))


def count_lps(monkeypatch):
    """Every LP polytope submits to ``convex_combinations`` while the patch holds."""
    lps = []
    original = polytope.convex_combinations

    def counted(problems, feas_tol):
        problems = list(problems)
        lps.extend(problems)
        return original(problems, feas_tol)

    monkeypatch.setattr(polytope, "convex_combinations", counted)
    return lps


@pytest.mark.parametrize("exact", [False, True])
def test_simplices_and_regular_polygons_need_no_lp(monkeypatch, exact):
    lps = count_lps(monkeypatch)
    num = Fraction if exact else float
    for dim in range(1, 5):
        simplex = [tuple(num(0) for _ in range(dim))]
        simplex += [tuple(num(int(i == j)) for j in range(dim)) for i in range(dim)]
        assert extreme_point_indices(simplex) == list(range(dim + 1))
    if not exact:
        for n in range(3, 13):
            polygon = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
                       for i in range(n)]
            assert extreme_point_indices(polygon) == list(range(n))
    assert lps == []


def test_decompose_selection_filters_each_distinct_vertex_set_once(monkeypatch):
    rng = random.Random(47)
    shapes = [[tuple(rng.uniform(-2, 2) for _ in range(2)) for _ in range(7)]
              for _ in range(3)]
    shapes.append([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (0.5, 0.5)])
    cells = [shapes[rng.randrange(len(shapes))] for _ in range(24)]
    g = random_grid(rng, len(cells), Mode.SPLITTABLE)
    T = polytope_map(cells)
    s = interior_selection(rng, T)
    expected = [caratheodory_decompose(s.values[k], T.vertices[k], tol=TOL)
                for k in range(len(cells))]
    # the points the separation bound leaves to an LP, per distinct set
    unsettled = sum(len(reference_separation_pending(shape, TOL))
                    for shape in {tuple(c) for c in cells})
    seen = record_filter(monkeypatch)
    lps = count_lps(monkeypatch)
    dec = decompose_selection(T, s, g)
    assert len(seen["sets"]) == len({tuple(c) for c in cells}) < len(cells)
    # those points' LPs, then one decomposition LP per cell
    assert len(lps) == unsettled + len(cells)
    for k, (w, sup) in enumerate(expected):
        pad = dec.branch_count - len(sup)
        assert dec.weights[k] == tuple(w) + (0.0,) * pad
        assert dec.points[k] == tuple(T.vertices[k][i] for i in sup + [sup[0]] * pad)


def _too_small_for_the_tolerance():
    """Five random planar points within 1e-10 of the origin."""
    rng = random.Random(3)
    return [tuple(rng.uniform(-1, 1) * 1e-10 for _ in range(2)) for _ in range(5)]


def test_a_set_too_small_for_the_tolerance_raises_rather_than_returning_no_point():
    pts = _too_small_for_the_tolerance()
    # every point is within tol of the hull of the others
    assert reference_extreme_point_indices(pts) == []
    with pytest.raises(NoExtremePointError, match="tolerance 1e-09") as info:
        extreme_point_indices(pts)
    assert not isinstance(info.value, HullMembershipError)
    with pytest.raises(NoExtremePointError):
        caratheodory_decompose(pts[0], pts)


def test_decompose_selection_raises_the_first_failing_cell():
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    tiny = _too_small_for_the_tolerance()
    g = random_grid(random.Random(5), 4, Mode.SPLITTABLE)
    T = polytope_map([square, square, tiny, square])
    inside = simple_function([(0.5, 0.5), (0.25, 0.5), tiny[0], (0.5, 0.5)])
    with pytest.raises(NoExtremePointError, match="at cell 2") as info:
        decompose_selection(T, inside, g)
    assert info.value.cell == 2
    # a cell before it outside its hull is raised first, one after it is not
    for k, cell in ((1, 1), (3, 2)):
        values = list(inside.values)
        values[k] = (2.0, 2.0)
        err = HullMembershipError if cell == k else NoExtremePointError
        with pytest.raises(err) as info:
            decompose_selection(T, simple_function(values), g)
        assert info.value.cell == cell


def reference_reduce_support(columns: Sequence[Sequence[Scalar]], x: Sequence[Scalar],
                             exact: bool) -> list[Scalar]:
    """Shrink the support of a nonnegative solution of (columns)·x = b.

    While the supported columns are dependent, take a ``pivot_step`` along
    a kernel vector.  Feasibility and nonnegativity are preserved; the
    result has linearly independent support.
    """
    x = list(x)
    for _ in range(len(x) + 1):
        support = [v for v, xv in enumerate(x) if xv > 0]
        if len(support) <= 1:
            return x
        supported = [columns[v] for v in support]
        z = nullspace_vector(_integer_columns(supported) if exact else supported,
                             len(support), exact)
        if z is None:
            return x
        moved = pivot_step([x[v] for v in support], z, exact)
        for v, xv in zip(support, moved):
            x[v] = xv
    raise RuntimeError("support reduction failed to terminate")


def reference_decompose(point, vertices, tol=None):
    """``caratheodory_decompose`` as it ran before the LP's basic solution was
    taken as it stands: the same LP over the extreme vertices, then
    ``reference_reduce_support`` on their (vertex, 1) columns."""
    point = tuple(point)
    pts = [tuple(v) for v in vertices]
    exact = _points_exact(pts) and all_exact(point)
    tol = resolve_tol(exact, tol)
    ext_idx = extreme_point_indices(pts, tol)
    lam, _, _ = convex_combination([pts[i] for i in ext_idx], point, exact, tol)
    if lam is None:
        raise HullMembershipError(point)
    columns = [list(pts[i]) + [Fraction(1) if exact else 1.0] for i in ext_idx]
    lam = reference_reduce_support(columns, lam, exact)
    support = [j for j, w in enumerate(lam) if w > 0]
    return [lam[j] for j in support], [ext_idx[j] for j in support]


def assert_selection_matches(cells, points, want, same):
    """``decompose_selection`` over one cell per vertex set, each cell padded
    from its expected (weights, support) pair and compared entry by entry."""
    exact = all(isinstance(c, Fraction) for p in points for c in p)
    g = build_grid([Fraction(1)] * len(cells) if exact else [1.0] * len(cells),
                   Mode.SPLITTABLE)
    dec = decompose_selection(polytope_map(cells), simple_function(points), g)
    for k, (w, sup) in enumerate(want):
        pad = dec.branch_count - len(sup)
        assert same(dec.weights[k], tuple(w) + (Fraction(0) if exact else 0.0,) * pad)
        assert dec.points[k] == tuple(tuple(cells[k][i]) for i in sup + [sup[0]] * pad)


@st.composite
def exact_hull_points(draw, dim):
    """Up to 10 rational points in R^dim on an affine flat of any dimension
    up to dim (so dependent sets come up), with repeats, and a rational
    convex combination of some of them."""
    flat = draw(st.integers(0, dim))
    rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    base = [draw(rational) for _ in range(dim)]
    dirs = [[draw(rational) for _ in range(dim)] for _ in range(flat)]
    pts = []
    for _ in range(draw(st.integers(1, 10))):
        if pts and draw(st.integers(0, 4)) == 0:
            pts.append(pts[draw(st.integers(0, len(pts) - 1))])
            continue
        cs = [draw(rational) for _ in range(flat)]
        pts.append(tuple(base[j] + sum(c * d[j] for c, d in zip(cs, dirs))
                         for j in range(dim)))
    lam = [Fraction(draw(st.integers(0, 5))) for _ in pts]
    if not any(lam):
        lam[0] = Fraction(1)
    total = sum(lam)
    point = tuple(sum(l * p[j] for l, p in zip(lam, pts)) / total for j in range(dim))
    return pts, point


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(exact_hull_points(dim), min_size=1, max_size=4)))
def test_exact_decomposition_is_the_reduced_one_and_independent(cases):
    want = []
    for pts, point in cases:
        w, sup = caratheodory_decompose(point, pts)
        assert (w, sup) == reference_decompose(point, pts)
        assert all(type(v) is Fraction for v in w)
        # the support's (vertex, 1) columns are independent
        assert nullspace_vector(_integer_columns([list(pts[i]) + [Fraction(1)] for i in sup]),
                                len(sup), True) is None
        want.append((w, sup))
    assert_selection_matches([pts for pts, _ in cases], [point for _, point in cases], want,
                             lambda a, b: a == b and all(type(v) is Fraction for v in a))


def _random_hull_point(rng, verts):
    lam = [rng.uniform(0.05, 1) for _ in verts]
    s = sum(lam)
    return tuple(sum(l / s * v[j] for l, v in zip(lam, verts)) for j in range(len(verts[0])))


def test_float_decomposition_in_general_position_is_the_reduced_one():
    rng = random.Random(53)
    cells, points, want = [], [], []
    for _ in range(300):
        n = rng.randint(1, 4)
        verts = [tuple(rng.uniform(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(1, 9))]
        point = _random_hull_point(rng, verts)
        got = caratheodory_decompose(point, verts)
        assert repr(got) == repr(reference_decompose(point, verts))
        if n == 2:
            cells.append(verts)
            points.append(point)
            want.append(got)
    assert_selection_matches(cells, points, want, lambda a, b: repr(a) == repr(b))


def _near_degenerate(rng):
    """Float vertices in dims 1-4 with near-duplicates (a vertex moved by a
    relative 1e-15 to 1e-7) and nearly collinear points (on a segment between
    two vertices, moved likewise), scaled by 10**e for e in -6..6."""
    dim = rng.randint(1, 4)
    verts = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(rng.randint(1, dim + 2))]
    for _ in range(rng.randint(1, 6)):
        a, b = rng.choice(verts), rng.choice(verts)
        t = rng.choice((0.0, rng.random()))
        delta = 10.0 ** rng.randint(-15, -7)
        verts.append([x + t * (y - x) + delta * rng.uniform(-1, 1) for x, y in zip(a, b)])
    rng.shuffle(verts)
    scale = 10.0 ** rng.randint(-6, 6)
    return [tuple(c * scale for c in v) for v in verts]


def test_near_degenerate_float_decomposition_reconstructs_exactly_within_tol():
    rng = random.Random(59)
    decomposed = 0
    for _ in range(400):
        verts = _near_degenerate(rng)
        point = _random_hull_point(rng, verts)
        try:
            w, sup = caratheodory_decompose(point, verts, tol=TOL)
        except (HullMembershipError, NoExtremePointError) as err:
            # raised before any support reduction ran, so the reduced
            # pipeline raises it too (the cause is the filter's, see below)
            with pytest.raises(type(err)):
                reference_decompose(point, verts, tol=TOL)
            continue
        decomposed += 1
        assert len(sup) <= len(point) + 1
        assert all(v >= 0 for v in w)
        # the LP's l1 residual of (point, 1), evaluated in exact arithmetic
        residual = abs(sum(Fraction(v) for v in w) - 1) + sum(
            abs(sum(Fraction(v) * Fraction(verts[i][j]) for v, i in zip(w, sup))
                - Fraction(point[j])) for j in range(len(point)))
        assert residual <= TOL
    assert decomposed >= 150


@pytest.mark.xfail(strict=True, reason="the filter drops every one of a group of vertices "
                   "that lie within tol of each other, so the hull loses their corner")
def test_vertices_within_tol_of_each_other_keep_their_corner_of_the_hull():
    verts = [(0.0,), (1.0,), (1.0 + 1e-12,)]
    w, sup = caratheodory_decompose((0.9,), verts, tol=TOL)
    assert sum(v * verts[i][0] for v, i in zip(w, sup)) == pytest.approx(0.9)
