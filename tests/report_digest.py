"""One sha256 over the canonical reports of a fixed corpus, to show that a
change leaves every report byte-identical.

The corpus is the 8 documents of each ``cli_corpus`` cell (every command in
both modes, float and exact; annihilator witnesses exist on splittable grids
only) and the first 3 instances of each benchmark workload at seed 7.  Each
document goes through ``parse_problem -> run -> canonical_dumps``; the digest
covers the reports with ``wall_time`` removed.  Every report is also checked
by ``verify_report``, and the script exits 1 if any is rejected.

``verify`` proves most branch values of ``bang-bang`` and
``pointset-bang-bang`` reports extreme with a separating-direction
certificate (``cli._certified``) and runs the Phase-I LP only on the rest.
For every (cell, vertex) pair that the certificate settled, the script runs
that LP too, prints how many pairs each path decided, and exits 1 when the
LP finds a settled vertex inside the hull of the others.

Both digests are committed: ``FULL_DIGEST`` over every report and
``EXACT_DIGEST`` over the exact ones (the exact corpus cells and the
``exact-atomic`` instances), and the script exits 1 when either differs, on
every supported Python.  Float bits would depend on the version if anything
added floats with the builtin ``sum``, which compensates float sums from
3.12 on: the solver adds through ``numeric.fold``, a left fold, and so do
the ``cli_corpus`` generators.  The benchmark generators still call ``sum``,
so their documents are built here with ``workloads.sum`` bound to ``fold``,
which is what ``sum`` computes on 3.10 and 3.11.  A change that means to
alter a report must record the new digests.

Run it from any directory, on the checkout it sits in:

    python3 tests/report_digest.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    sys.path.insert(0, str(_path))

from condbang import cli  # noqa: E402
from condbang.cli import RUN_COMMANDS, run, verify_report  # noqa: E402
from condbang.documents import canonical_dumps, parse_problem  # noqa: E402
from condbang.linalg import convex_combinations  # noqa: E402
from condbang.numeric import fold  # noqa: E402

import workloads  # noqa: E402
from cli_corpus import make_problem  # noqa: E402

CORPUS_TRIALS = 8
WORKLOAD_INSTANCES = 3
WORKLOAD_SEED = 7
#: sha256 over the exact reports of the corpus, wall_time removed
EXACT_DIGEST = "65889a40f5be18014063359fbbc28094791d9a3661a2ff271319ba8c4f7526fa"
#: sha256 over all reports of the corpus, wall_time removed
FULL_DIGEST = "bc24f579cc615e1af6b9dcc6408b15ff8c60e0b0ff57e4596b0feb4fd63e1d50"


def corpus_cells():
    """(label, command, document) of the ``cli_corpus`` cells, in a fixed order."""
    for exact in (False, True):
        for mode in ("splittable", "atomic"):
            for command in RUN_COMMANDS:
                if command == "annihilator" and mode == "atomic":
                    continue
                label = f"{'exact' if exact else 'float'}/{mode}/{command}"
                rng = random.Random(f"digest-{label}")
                for trial in range(CORPUS_TRIALS):
                    yield (f"{label}/{trial}", command,
                           make_problem(rng, command, exact=exact, mode=mode))


def corpus():
    """(label, command, document) in a fixed order: the corpus cells, then
    the benchmark instances."""
    yield from corpus_cells()
    for name in workloads.WORKLOADS:
        stream = workloads.instances(name, WORKLOAD_SEED)
        for i, inst in enumerate(itertools.islice(stream, WORKLOAD_INSTANCES)):
            yield f"{name}/{WORKLOAD_SEED}/{i}", inst.command, inst.document


def recording(tests: list):
    """``cli._matching_vertices`` that also appends to ``tests`` each test of
    a cell with more than one distinct vertex, as (the cell's distinct
    vertices, its matches, their certificate flags, tol, exact)."""
    matching = cli._matching_vertices

    def wrapper(keys, cells, tol, exact, dim):
        for (k, _), test in zip(keys, matching(keys, cells, tol, exact, dim)):
            if len(cells[k]) > 1:
                tests.append((cells[k], *test, tol, exact))
            yield test
    return wrapper


def certified_pairs(tests: list) -> list:
    """The Phase-I LP problem (the other distinct vertices, the vertex,
    exact) of every pair of ``tests`` that the certificate settled."""
    return [(cell[:j] + cell[j + 1:], cell[j], exact)
            for cell, matches, flags, _, exact in tests
            for j, flag in zip(matches, flags) if flag]


def certificate_disagreements(tests: list) -> tuple[int, int, int]:
    """(pairs the certificate settled, pairs left to the LP, settled pairs
    whose LP writes the vertex as a convex combination of the others)."""
    settled = certified_pairs(tests)
    to_lp = sum(len(matches) for _, matches, flags, _, _ in tests if not any(flags))
    if not settled:
        return 0, to_lp, 0
    results = convex_combinations(settled, tests[0][3])
    return len(settled), to_lp, sum(1 for lam, _, _ in results if lam is not None)


def main() -> int:
    digest, exact_digest = hashlib.sha256(), hashlib.sha256()
    count = exact_count = 0
    rejected = []
    tests: list = []
    cli._matching_vertices = recording(tests)
    # the same benchmark documents on every Python (see the module docstring)
    workloads.sum = fold
    by_certificate = by_lp = 0
    for label, command, doc in corpus():
        problem = parse_problem(doc)
        report = json.loads(canonical_dumps(run(command, problem)))
        tests.clear()
        violations = verify_report(doc, report)
        settled, to_lp, wrong = certificate_disagreements(tests)
        by_certificate += settled
        by_lp += to_lp
        if wrong:
            violations.append(f"{wrong} vertices the certificate settled are not "
                              "extreme by the LP")
        if violations:
            rejected.append(f"{label}: {'; '.join(violations)}")
        del report["wall_time"]
        encoded = canonical_dumps(report).encode("utf-8")
        digest.update(encoded)
        count += 1
        if problem.exact:
            exact_digest.update(encoded)
            exact_count += 1
    for line in rejected:
        print(f"rejected {line}", file=sys.stderr)
    print(f"{digest.hexdigest()}  {count} reports, wall_time removed")
    print(f"{exact_digest.hexdigest()}  {exact_count} exact reports, wall_time removed")
    print(f"extremeness of branch values: {by_certificate} pairs settled by the certificate "
          f"and confirmed by the LP, {by_lp} pairs decided by the LP")
    drift = exact_digest.hexdigest() != EXACT_DIGEST
    if drift:
        print(f"exact reports changed: the committed digest is {EXACT_DIGEST}",
              file=sys.stderr)
    if digest.hexdigest() != FULL_DIGEST:
        print(f"reports changed: the committed digest is {FULL_DIGEST}", file=sys.stderr)
        drift = True
    return 1 if rejected or drift else 0


if __name__ == "__main__":
    sys.exit(main())
