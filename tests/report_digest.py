"""One sha256 over the canonical reports of a fixed corpus, to show that a
change leaves every report byte-identical.

The corpus is the 8 documents of each ``cli_corpus`` cell (every command in
both modes, float and exact; annihilator witnesses exist on splittable grids
only) and the first 3 instances of each benchmark workload at seed 7.  Each
document goes through ``parse_problem -> run -> canonical_dumps``; the digest
covers the reports with ``wall_time`` removed.  Every report is also checked
by ``verify_report``, and the script exits 1 if any is rejected.

A second digest covers the exact reports only (the exact corpus cells and
the ``exact-atomic`` instances).  Exact bits do not depend on the Python
version (``test_golden_exact`` relies on this too), so that digest is
committed here as ``EXACT_DIGEST``, and the script exits 1 when it differs.
A change that means to alter an exact report must record the new digest.

Float bits do depend on the Python version: from 3.12 on, ``sum()`` adds
floats with compensation, which changes the low bits of block sums.  So the
full digest is committed as ``FULL_DIGEST`` for Python 3.11 only, and the
script exits 1 when it differs there; on other versions it is printed and
not compared.  A change that means to alter a float report must record the
new digest from a 3.11 run.

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

from condbang.cli import RUN_COMMANDS, run, verify_report  # noqa: E402
from condbang.documents import canonical_dumps, parse_problem  # noqa: E402

import workloads  # noqa: E402
from cli_corpus import make_problem  # noqa: E402

CORPUS_TRIALS = 8
WORKLOAD_INSTANCES = 3
WORKLOAD_SEED = 7
#: sha256 over the exact reports of the corpus, wall_time removed
EXACT_DIGEST = "65889a40f5be18014063359fbbc28094791d9a3661a2ff271319ba8c4f7526fa"
#: sha256 over all reports of the corpus, wall_time removed, on this Python
FULL_DIGEST = "bc24f579cc615e1af6b9dcc6408b15ff8c60e0b0ff57e4596b0feb4fd63e1d50"
FULL_DIGEST_PYTHON = (3, 11)


def corpus():
    """(label, command, document) in a fixed order."""
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
    for name in workloads.WORKLOADS:
        stream = workloads.instances(name, WORKLOAD_SEED)
        for i, inst in enumerate(itertools.islice(stream, WORKLOAD_INSTANCES)):
            yield f"{name}/{WORKLOAD_SEED}/{i}", inst.command, inst.document


def main() -> int:
    digest, exact_digest = hashlib.sha256(), hashlib.sha256()
    count = exact_count = 0
    rejected = []
    for label, command, doc in corpus():
        problem = parse_problem(doc)
        report = json.loads(canonical_dumps(run(command, problem)))
        violations = verify_report(doc, report)
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
    drift = exact_digest.hexdigest() != EXACT_DIGEST
    if drift:
        print(f"exact reports changed: the committed digest is {EXACT_DIGEST}",
              file=sys.stderr)
    if sys.version_info[:2] == FULL_DIGEST_PYTHON and digest.hexdigest() != FULL_DIGEST:
        print(f"reports changed: the committed digest on Python "
              f"{FULL_DIGEST_PYTHON[0]}.{FULL_DIGEST_PYTHON[1]} is {FULL_DIGEST}",
              file=sys.stderr)
        drift = True
    return 1 if rejected or drift else 0


if __name__ == "__main__":
    sys.exit(main())
