"""Problem-document generators for every CLI command (float and exact).

Floats are added with ``numeric.fold``, the program's own left fold, not
with ``sum``, which compensates float sums from Python 3.12 on: so a seed
gives the same documents on every supported Python.
"""

from __future__ import annotations

import random
from fractions import Fraction

from condbang.numeric import fold


def _enc(x, exact: bool):
    if exact:
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}
    return float(x)


def _weights(rng: random.Random, m: int, exact: bool):
    if exact:
        return [{"num": rng.randint(1, 9), "den": 1} for _ in range(m)]
    return [rng.uniform(0.2, 1.0) for _ in range(m)]


def _blocks(rng: random.Random, m: int, maxb: int):
    b = rng.randint(1, min(maxb, m))
    anchors = rng.sample(range(m), b)
    out = [0] * m
    for i, k in enumerate(anchors):
        out[k] = i
    for k in range(m):
        if k not in anchors:
            out[k] = rng.randrange(b)
    return out


def _function(rng: random.Random, m: int, dim: int, exact: bool):
    if exact:
        values = [[{"num": rng.randint(-8, 8), "den": rng.randint(1, 3)}
                   for _ in range(dim)] for _ in range(m)]
    else:
        values = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(m)]
    return {"dim": dim, "values": values}


def _alpha(rng: random.Random, m: int, p: int, exact: bool):
    values = []
    for _ in range(m):
        raw = [rng.randint(1, 9) for _ in range(p)]
        s = sum(raw)
        if exact:
            values.append([{"num": v, "den": s} for v in raw])
        else:
            values.append([v / s for v in raw])
    return {"dim": p, "values": values}


def _set(rng: random.Random, m: int, weights, mode: str, exact: bool):
    triples = []
    for k in range(m):
        u = rng.random()
        if u < 0.3:
            continue
        if mode == "splittable" and not exact and u < 0.6:
            w = weights[k]
            off = rng.uniform(0, 0.5) * w
            mass = rng.uniform(0.2, 1.0) * (w - off)
            triples.append([k, off, mass])
        else:
            triples.append([k, _enc(0, exact), weights[k]])
    if not triples:
        triples.append([0, _enc(0, exact), weights[0]])
    return {"triples": triples}


def make_problem(rng: random.Random, command: str, exact: bool = False,
                 mode: str = "splittable") -> dict:
    m = rng.randint(2, 8)
    weights = _weights(rng, m, exact)
    doc = {
        "space": {"weights": weights, "mode": mode},
        "partition": {"blocks": _blocks(rng, m, 3)},
        "payload": {},
    }
    if exact:
        doc["parameters"] = {"exact": True}
    # set entries must reference the normalized weights for whole cells
    total = fold(Fraction(w["num"], w["den"]) if exact else w for w in weights)
    if exact:
        norm = [{"num": (Fraction(w["num"], w["den"]) / total).numerator,
                 "den": (Fraction(w["num"], w["den"]) / total).denominator}
                for w in weights]
    else:
        norm = [w / total for w in weights]
    payload = doc["payload"]
    if command == "cond-exp":
        payload["function"] = _function(rng, m, rng.randint(1, 3), exact)
    elif command == "ce-measure":
        payload["set"] = _set(rng, m, norm, mode, exact)
    elif command == "partition":
        p = rng.randint(2, 3)
        payload["moments"] = _function(rng, m, rng.randint(1, 3), exact)
        payload["weights"] = _alpha(rng, m, p, exact)
    elif command == "half-set":
        payload["moments"] = _function(rng, m, rng.randint(1, 2), exact)
        payload["set"] = _set(rng, m, norm, mode, exact)
    elif command == "annihilator":
        payload["function"] = _function(rng, m, 1, exact)
        payload["set"] = _set(rng, m, norm, mode, exact)
    elif command in ("bang-bang", "pointset-bang-bang"):
        n = rng.randint(1, 2)
        cells = []
        selection = []
        for _ in range(m):
            count = rng.randint(n + 1, 5)
            if exact:
                verts = [[{"num": rng.randint(-6, 6), "den": rng.randint(1, 2)}
                          for _ in range(n)] for _ in range(count)]
                lam = [rng.randint(1, 5) for _ in range(count)]
                s = sum(lam)
                point = []
                for j in range(n):
                    acc = Fraction(0)
                    for l, v in zip(lam, verts):
                        acc += Fraction(l, s) * Fraction(v[j]["num"], v[j]["den"])
                    point.append({"num": acc.numerator, "den": acc.denominator})
            else:
                verts = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(count)]
                lam = [rng.uniform(0.05, 1.0) for _ in range(count)]
                s = fold(lam)
                point = [fold(l / s * v[j] for l, v in zip(lam, verts))
                         for j in range(n)]
            cells.append(verts)
            selection.append(point)
        key = "points" if command == "pointset-bang-bang" else "polytopes"
        payload[key] = {"dim": n, "vertices": cells}
        payload["selection"] = {"dim": n, "values": selection}
    elif command in ("purify", "density-step"):
        a = rng.randint(2, 4)
        payload["actions"] = [f"a{i}" for i in range(a)]
        rows = []
        for _ in range(m):
            raw = [rng.randint(0, 5) for _ in range(a)]
            if not any(raw):
                raw[rng.randrange(a)] = 1
            s = sum(raw)
            if exact:
                rows.append([{"num": v, "den": s} for v in raw])
            else:
                rows.append([v / s for v in raw])
        payload["young_measure"] = rows
        if command == "purify":
            n = rng.randint(1, 2)
            values = [[[_enc(Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                             if exact else rng.uniform(-2, 2), exact)
                        for _ in range(n)] for _ in range(a)] for _ in range(m)]
            payload["integrands"] = {"dim": n, "values": values}
        else:
            fam = []
            for _ in range(rng.randint(1, 3)):
                fam.append({"values": [[_enc(Fraction(rng.randint(-6, 6), 2)
                                             if exact else rng.uniform(-2, 2), exact)
                                        for _ in range(a)] for _ in range(m)]})
            payload["family"] = fam
    elif command == "coarseness":
        if rng.random() < 0.5:
            payload["set"] = _set(rng, m, norm, mode, exact)
    else:
        raise AssertionError(command)
    return doc
