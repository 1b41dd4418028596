"""Acceptance suite: every criterion at its stated grid, all equalities exact.

conftest prints one "[acceptance] <criterion>: PASS/FAIL" line per test.
"""

import json
import random
import time
from contextlib import contextmanager

from catalan_hankel.hankel import det_fraction_free, hankel_det
from catalan_hankel.ring import C
from catalan_hankel.sequences import (
    Constant,
    Explicit,
    admissible_table,
    column,
)
from catalan_hankel.series import motzkin_series, reciprocal_power_coeffs
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

from oracles import det_cofactor, paths_oracle

SEED = 20260809


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_criterion_01_printed_sequence_reproduction():
    with budget(1.0):
        t = admissible_table(Constant(1), 8)
        assert [column(t, 0, n) for n in range(9)] == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    with budget(1.0):
        assert [column(t, 2, n) for n in range(9)] == [0, 0, 1, 3, 9, 25, 69, 189, 518]
    with budget(1.0):
        assert reciprocal_power_coeffs(1, 2, 13) == (
            1, -3, 0, 2, 0, 0, -1, -3, -9, -25, -69, -189, -518,
        )
    with budget(1.0):
        assert [hankel_det(Constant(1), 1, 1, n) for n in range(12)] == [
            1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0,
        ]
    with budget(1.0):
        assert [hankel_det(Constant(1), -1, 1, n) for n in range(12)] == [
            1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1, 1,
        ]
    with budget(1.0):
        assert [hankel_det(Constant(1), 2, 2, n) for n in range(14)] == [
            1, 1, 0, -4, -4, 0, 9, 9, 0, -16, -16, 0, 25, 25,
        ]
    with budget(1.0):
        assert [hankel_det(Constant(1), -2, 2, n) for n in range(13)] == [
            1, 0, 0, 0, 0, 1, 1, 0, -4, -4, 0, 9, 9,
        ]
    s = Explicit((1,), 0)
    es = Explicit((), 0)
    with budget(1.0):
        assert [hankel_det(s, 2, 0, n) for n in range(12)] == list(range(1, 13))
    with budget(1.0):
        assert [hankel_det(es, 2, 0, n) for n in range(12)] == [
            1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
        ]
    with budget(1.0):
        assert [hankel_det(s, -2, 0, n) for n in range(19)] == [
            1, 0, 0, -1, -1, -2, -2, -3, -3, -4, -4, -5, -5, -6, -6, -7, -7, -8, -8,
        ]
    with budget(1.0):
        b = reciprocal_power_coeffs(1, 2, 13)
        d_values = [
            det_fraction_free([[b[i + j] for j in range(size)] for i in range(size)])
            for size in range(8)
        ]
        assert d_values == [1, 1, -9, -4, 20, -225, -45, 126]
        assert d_values[3] == -4  # the worked 3x3 determinant
    with budget(1.0):
        assert [hankel_det(Constant(1), 4, 2, n) for n in range(7)] == [
            1, 9, -4, -20, -225, 45, 126,
        ]


def test_criterion_02_backward_shift_random_weight_specs():
    with budget(30.0):
        report = check_theorem1_random(40, SEED, m_max=4, n_max=6)
        assert report.status == "verified"
        assert report.instances_tested > 0
        clauses = report.params["clauses"]
        # zero block 0 < n <= m for every m <= 4 and every spec
        assert clauses["zero-block"]["instances"] == 40 * (1 + 2 + 3 + 4)
        assert clauses["zero-block"]["failures"] == 0
        assert clauses["backward-shift"]["failures"] == 0


def test_criterion_03_backward_shift_constant_weights():
    with budget(60.0):
        for cval in (-2, -1, 0, 1, 2, 3):
            report = check_theorem2(cval, 3, 3, 5)
            assert report.status == "verified", cval
        report = check_theorem2(C, 2, 2, 4)
        assert report.status == "verified"


def test_criterion_04_periodic_sign_pattern():
    for cval in (0, 1, 2, C):
        report = check_corollary6(cval, 4, 15)
        assert report.status == "verified", cval
        clauses = report.params["clauses"]
        assert clauses["sign-pattern"]["failures"] == 0
        assert clauses["zero-pattern"]["failures"] == 0


def test_criterion_05_reciprocal_series_determinant_lemma():
    report = check_lemma13_random(100, SEED, order=20, n_max=4, m_max=3)
    assert report.status == "verified"
    assert report.instances_tested == 100 * 5 * 4
    assert report.failures == []


def test_criterion_06_shift_one_polynomial_identities():
    report = check_identities7_8(C, 0, 8)
    assert report.status == "verified"
    clauses = report.params["clauses"]
    assert clauses["flat"]["instances"] == 9
    assert clauses["fibonacci"]["instances"] == 9
    assert clauses["fibonacci-square-sum"]["instances"] == 9
    assert all(tally["failures"] == 0 for tally in clauses.values())


def test_criterion_07_series_identities():
    for cval in (0, 1, 2, C):
        report = check_series_identities(cval, 4, 16)
        assert report.status == "verified", cval
    assert motzkin_series(0, 9).coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_criterion_08_reciprocal_power_hankel_transfer():
    for cval in (0, 1, 2):
        assert check_theorem3(cval, 3, 5).status == "verified", cval
    assert check_theorem3(C, 2, 4).status == "verified"


def test_criterion_09_conjecture_report_generated():
    report = check_conjectures9_10(1, 3, 3, 4)
    # property-based acceptance: the report exists with recorded outcomes
    # and witnesses; the conjectures themselves are never asserted
    assert report.instances_tested > 0
    assert report.status in ("verified", "mixed", "refuted")
    clauses = report.params["clauses"]
    for clause in ("eq9.c1[as-printed]", "eq9.c1[n-scaled]", "eq9.c3[as-printed]",
                   "eq9.c3[unsigned]", "eq9.c3[n-scaled]", "eq10[as-printed]",
                   "eq10[n-scaled]"):
        assert clause in clauses, clause
    for witness in report.failures:
        assert witness.lhs != witness.rhs
        assert "clause" in witness.params
    parsed = json.loads(report.to_json())
    assert parsed["claim_id"] == "conjectures9_10"


def test_criterion_10_oracle_suites():
    # fraction-free elimination vs cofactor expansion, 200 seeded trials
    rng = random.Random(SEED)
    for _ in range(200):
        size = rng.randint(0, 5)
        rows = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        assert det_fraction_free(rows) == det_cofactor(rows)
    # triangle recurrence vs exhaustive path enumeration, n <= 9
    for w in (Constant(0), Constant(1), Constant(2), Explicit((1,), 0), Explicit((2, 1), 0)):
        table = admissible_table(w, 9)
        for n in range(10):
            for k in range(n + 1):
                assert paths_oracle(w, n, k) == column(table, k, n), (w, n, k)
