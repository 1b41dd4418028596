#!/usr/bin/env python3
"""Run every identity check at full grid size and save the JSON reports.

Usage: python scripts/run_verification.py [output_dir]

Numeric grids run for several level weights; the symbolic run uses the
polynomial ring.  Reports land in <output_dir>/<claim>__<tag>.json and a
summary table goes to stdout.  Exits 1 if anything other than the
conjecture reports is not verified.
"""

import sys
from pathlib import Path

from catalan_hankel.ring import C
from catalan_hankel.verify import (
    check_conjectures9_10,
    check_corollary6,
    check_identities7_8,
    check_lemma13_random,
    check_series_identities,
    check_theorem1_random,
    check_theorem2,
    check_theorem3,
)

SEED = 20260809


def runs():
    yield "random100", check_lemma13_random(100, SEED, 20, 4, 3)
    yield "random40", check_theorem1_random(40, SEED, 4, 6)
    for cval, tag in ((-2, "cm2"), (-1, "cm1"), (0, "c0"), (1, "c1"), (2, "c2"), (3, "c3")):
        yield tag, check_theorem2(cval, 3, 3, 5)
    yield "sym", check_theorem2(C, 2, 2, 4)
    for cval, tag in ((0, "c0"), (1, "c1"), (2, "c2"), (C, "sym")):
        yield tag, check_corollary6(cval, 4, 15)
    yield "c1", check_identities7_8(1, 3, 12)
    yield "sym", check_identities7_8(C, 3, 9)
    yield "c1", check_conjectures9_10(1, 3, 3, 12)
    yield "c2", check_conjectures9_10(2, 3, 3, 12)
    for cval, tag in ((0, "c0"), (1, "c1"), (2, "c2"), (C, "sym")):
        yield tag, check_series_identities(cval, 4, 16)
    for cval, tag in ((0, "c0"), (1, "c1"), (2, "c2")):
        yield tag, check_theorem3(cval, 3, 5)
    yield "sym", check_theorem3(C, 2, 4)


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)
    hard_failures = 0
    for tag, report in runs():
        claim = report.claim_id
        path = out_dir / f"{claim}__{tag}.json"
        path.write_text(report.to_json() + "\n")
        print(
            f"{claim:<18} {tag:<9} {report.status:<9} "
            f"{report.instances_tested:>5} instances "
            f"{len(report.failures):>3} failures  -> {path}"
        )
        if report.status != "verified" and claim != "conjectures9_10":
            hard_failures += 1
    if hard_failures:
        print(f"{hard_failures} non-conjecture run(s) not verified", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
