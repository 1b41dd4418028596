import json

import pytest

from catalan_hankel import hankel, series, verify
from catalan_hankel.hankel import hankel_det
from catalan_hankel.ring import C, parity_sign
from catalan_hankel.sequences import Constant, Explicit, shift
from catalan_hankel.series import TruncatedSeries, motzkin_series
from catalan_hankel.verify import (
    CLAIM_IDS,
    _Run,
    check_conjectures9_10,
    check_corollary6,
    check_identities7_8,
    check_lemma13,
    check_lemma13_random,
    check_series_identities,
    check_theorem1,
    check_theorem1_random,
    check_theorem2,
    check_theorem3,
    lemma13_sides,
)


def test_claim_id_enumeration():
    assert CLAIM_IDS == (
        "lemma13",
        "theorem1",
        "theorem2",
        "corollary6",
        "identities7_8",
        "conjectures9_10",
        "series_identities",
        "theorem3",
    )


# -- lemma13 ----------------------------------------------------------------


def test_lemma13_on_motzkin_gf():
    report = check_lemma13(motzkin_series(1, 20), 4, 3)
    assert report.status == "verified"
    assert report.instances_tested == 20


def test_lemma13_sides_for_all_ones_series():
    u = TruncatedSeries([1] * 20)
    lhs, rhs = lemma13_sides(u, 1, 1)
    assert lhs == 0 and rhs == 0


def test_lemma13_rejects_non_unit_series():
    with pytest.raises(ValueError):
        check_lemma13(TruncatedSeries([2] + [0] * 19), 2, 2)


def test_lemma13_rejects_short_series():
    with pytest.raises(ValueError):
        check_lemma13(TruncatedSeries([1] * 5), 4, 3)


def test_lemma13_random_suite_is_seeded():
    a = check_lemma13_random(5, 11, 20, 3, 2)
    b = check_lemma13_random(5, 11, 20, 3, 2)
    assert a.status == "verified"
    assert a.to_json() == b.to_json()


# -- theorem1 ---------------------------------------------------------------


def test_theorem1_single_one_weights():
    report = check_theorem1(Explicit((1,), 0), 3, 6)
    assert report.status == "verified"


def test_theorem1_example_sequences():
    s = Explicit((1,), 0)
    es = Explicit((), 0)
    assert [hankel_det(s, -2, 0, n) for n in range(7)] == [1, 0, 0, -1, -1, -2, -2]
    assert [hankel_det(es, 2, 0, n) for n in range(6)] == [1, 1, 2, 2, 3, 3]
    assert parity_sign(2) == -1  # the sign joining the two lists


def test_theorem1_constant_weights():
    assert check_theorem1(Constant(1), 3, 6).status == "verified"


def test_theorem1_symbolic_weights():
    assert check_theorem1(Constant(C), 2, 4).status == "verified"


def test_theorem1_random_specs():
    report = check_theorem1_random(10, 3, 3, 5)
    assert report.status == "verified"
    assert report.params["seed"] == 3


def test_theorem1_validates_bounds():
    with pytest.raises(ValueError, match="bounds must be >= 0"):
        check_theorem1(Constant(1), -1, 5)
    with pytest.raises(ValueError, match="bounds must be >= 0"):
        check_theorem1_random(1, 0, 3, -1)


@pytest.mark.parametrize("w", [Constant(1), Constant(3), Explicit((1, -2, 0), 1)])
@pytest.mark.parametrize("m_max, n_max", [(0, 0), (0, 3), (3, 0)])
def test_theorem1_takes_zero_bounds(w, m_max, n_max):
    report = check_theorem1(w, m_max, n_max)
    assert report.status == "verified"
    # zero blocks at sizes 1..m, then sizes 0..n_max past them, per shift m
    assert report.instances_tested == sum(m + n_max + 1 for m in range(m_max + 1))
    random_report = check_theorem1_random(2, 5, m_max, n_max)
    assert random_report.status == "verified"
    assert random_report.instances_tested == 2 * report.instances_tested


# -- theorem2 ---------------------------------------------------------------


def test_theorem2_backward_sequences():
    assert [hankel_det(Constant(1), -1, 1, n) for n in range(12)] == [
        1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1, 1,
    ]
    assert [hankel_det(Constant(1), -2, 2, n) for n in range(13)] == [
        1, 0, 0, 0, 0, 1, 1, 0, -4, -4, 0, 9, 9,
    ]


def test_theorem2_numeric_grid():
    assert check_theorem2(1, 2, 2, 4).status == "verified"


def test_theorem2_symbolic_grid():
    assert check_theorem2(C, 2, 2, 3).status == "verified"


def test_theorem2_agrees_with_theorem1_on_overlap():
    # constant weights, column 0: identical instances, identical outcomes
    for cval in (0, 1, 2, -1):
        r1 = check_theorem1(Constant(cval), 3, 5)
        r2 = check_theorem2(cval, 3, 0, 5)
        assert r1.status == r2.status == "verified"
        for m in range(4):
            sgn = parity_sign(m)
            for n in range(6):
                lhs = hankel_det(Constant(cval), -m, 0, n + m + 1)
                rhs = sgn * hankel_det(Constant(cval), m, 0, n)
                assert lhs == rhs


def test_theorem2_through_reciprocal_series_route():
    # the same instances via lemma13 with u = A^{k+1}, M = m + k, N = n
    cval = 1
    for m in range(3):
        for k in range(3):
            for n in range(4):
                order = 2 * (n + m + k) + 1
                u = motzkin_series(cval, max(order, 3)) ** (k + 1)
                lhs, rhs = lemma13_sides(u, n, m + k)
                assert lhs == rhs
                assert lhs == hankel_det(Constant(cval), -m, k, n + m + k + 1)
                assert lhs == parity_sign(m + k) * hankel_det(Constant(cval), m, k, n)


# -- corollary6 -------------------------------------------------------------


def test_corollary6_flat_column():
    report = check_corollary6(1, 0, 10)
    assert report.status == "verified"


def test_corollary6_symbolic_small():
    assert hankel_det(Constant(C), 0, 1, 2) == -1
    assert check_corollary6(C, 2, 8).status == "verified"


def test_corollary6_numeric_grid():
    for cval in (0, 1, 2):
        assert check_corollary6(cval, 3, 10).status == "verified"


# -- identities 7 and 8 -----------------------------------------------------


def test_identity7_unit_weight_fibonacci_values():
    assert [hankel_det(Constant(1), 1, 0, n) for n in range(7)] == [
        1, 1, 0, -1, -1, 0, 1,
    ]


def test_identities7_8_numeric():
    report = check_identities7_8(1, 3, 12)
    assert report.status == "verified"
    clauses = report.params["clauses"]
    assert clauses["lucas-main"]["failures"] == 0
    assert clauses["lucas-offset"]["failures"] == 0
    assert clauses["zero"]["failures"] == 0


def test_identities7_8_symbolic():
    assert check_identities7_8(C, 3, 9).status == "verified"


def test_identities7_8_more_weights():
    for cval in (-2, 0, 2, 3):
        assert check_identities7_8(cval, 2, 10).status == "verified"


def test_checkers_eliminate_once_per_shift_and_column(monkeypatch):
    sizes = []
    specs = []
    real = hankel._minors
    real_columns = verify.columns

    def counting(rows):
        sizes.append(len(rows))
        return real(rows)

    def counting_columns(w, ks, depth):
        specs.append(w)
        return real_columns(w, ks, depth)

    monkeypatch.setattr(hankel, "_minors", counting)
    monkeypatch.setattr(hankel, "columns", counting_columns)
    monkeypatch.setattr(verify, "columns", counting_columns)
    assert check_corollary6(1, 6, 30).status == "verified"
    assert len(sizes) == 7  # one per column k
    assert specs == [Constant(1)]  # one column source per weight spec
    sizes.clear()
    specs.clear()
    assert check_identities7_8(1, 3, 24).status == "verified"
    assert len(sizes) == 3 + 3  # shifts 0..2 of column 0, then shift 1 per k >= 1
    assert specs == [Constant(1)]
    sizes.clear()
    m_max, k_max = 3, 3
    assert check_theorem2(2, m_max, k_max, 5).status == "verified"
    # back and forward per (m, k), one elimination for both at m = 0
    assert len(sizes) == 2 * (m_max + 1) * (k_max + 1) - (k_max + 1)
    for check, args in (
        (check_theorem2, (2, 3, 3, 5)),
        (check_conjectures9_10, (1, 3, 3, 8)),
        (check_series_identities, (1, 4, 16)),
        (check_theorem3, (1, 3, 5)),
    ):
        specs.clear()
        check(*args)
        assert specs == [Constant(args[0])], check.__name__
    specs.clear()
    w = Explicit((1, -2, 0), 1)
    assert check_theorem1(w, 3, 5).status == "verified"
    assert specs == [w, shift(w)]  # w for the backward side, shift(w) forward


# -- conjectures ------------------------------------------------------------


def test_conjectures_report_is_clause_by_clause():
    report = check_conjectures9_10(1, 3, 3, 12)
    clauses = report.params["clauses"]
    assert {
        "eq9.c1[as-printed]",
        "eq9.c1[n-scaled]",
        "eq9.c2",
        "eq9.c3[as-printed]",
        "eq9.c3[unsigned]",
        "eq9.c3[n-scaled]",
        "eq9.c4",
        "eq10[as-printed]",
        "eq10[n-scaled]",
    } <= set(clauses)
    assert report.instances_tested == sum(t["instances"] for t in clauses.values())


def test_conjectures_never_asserted_but_recorded():
    report = check_conjectures9_10(1, 3, 3, 12)
    # the bare printed signs fail on part of the grid; every such failure
    # is a pure sign flip, and the n-scaled readings hold everywhere
    assert report.status == "mixed"
    assert all(w.category == "sign-flip" for w in report.failures)
    clauses = report.params["clauses"]
    for key, tally in clauses.items():
        if "n-scaled" in key or key in ("eq9.c2", "eq9.c4"):
            assert tally["failures"] == 0, key


def test_conjectures_eq10_m1_row_matches_identity8():
    # m = 1 must reduce to the verified shift-1 closed form
    conj = check_conjectures9_10(2, 1, 3, 12)
    ident = check_identities7_8(2, 3, 12)
    assert ident.status == "verified"
    eq10 = conj.params["clauses"]["eq10[n-scaled]"]
    assert eq10["failures"] == 0
    m1_failures = [
        w
        for w in conj.failures
        if w.params.get("clause") == "eq10"
        and w.params["m"] == 1
        and w.params["reading"] == "n-scaled"
    ]
    assert m1_failures == []


def test_conjectures_symbolic_small_grid():
    report = check_conjectures9_10(C, 2, 2, 6)
    assert report.instances_tested > 0
    assert all(
        clause["instances"] > 0 for clause in report.params["clauses"].values()
    )


# -- series identities ------------------------------------------------------


def test_series_identities_all_weights():
    for cval in (0, 1, 2, C):
        assert check_series_identities(cval, 4, 16).status == "verified"


def test_series_identities_order_precondition():
    with pytest.raises(ValueError):
        check_series_identities(1, 4, 10)


def test_series_identities_build_powers_generically(monkeypatch):
    # the clauses cross-check the P-recursive kernel only while their powers
    # and reciprocals come from generic multiplication and .reciprocal()
    exponents = []
    real = series.motzkin_power

    def counting(cval, exponent, order):
        exponents.append(exponent)
        return real(cval, exponent, order)

    monkeypatch.setattr(series, "motzkin_power", counting)
    monkeypatch.setattr(verify, "motzkin_power", counting, raising=False)
    assert check_series_identities(C, 4, 16).status == "verified"
    assert exponents == [1]  # A itself, through motzkin_series


@pytest.mark.parametrize("k_max", [0, 3])
def test_series_identities_refute_a_wrong_a(monkeypatch, k_max):
    # the residual reads A^2 from the powers, which are built from the same
    # A: a wrong a_5 must still leave -1 at x^5 of x^2 A^2 + (c x - 1) A + 1
    real = verify.motzkin_series

    def perturbed(cval, order):
        return real(cval, order) + TruncatedSeries.monomial(5, order)

    monkeypatch.setattr(verify, "motzkin_series", perturbed)
    order = 2 * k_max + 8
    report = check_series_identities(C, k_max, order)
    assert report.status == "refuted"
    residual = [w for w in report.failures if w.params["clause"] == "quadratic-residual"]
    assert residual[0].params == {"clause": "quadratic-residual", "n": 5}
    assert (residual[0].lhs, residual[0].rhs) == ("-1", "0")
    clauses = report.params["clauses"]
    assert clauses["coefficient-bridge"]["instances"] == (k_max + 1) * order
    assert clauses["quadratic-residual"]["failures"] > 0


@pytest.mark.parametrize("k_max", [0, 1, 3])
def test_series_identities_square_a_once(monkeypatch, k_max):
    # every other product has a factor with at most two nonzero terms (a
    # monomial, 1 - c x, -x^2, or the constant 2 of the Lucas recurrence);
    # full products are the powers A^2..A^max(k_max+1, 2), one each
    real_mul = TruncatedSeries.__mul__
    full = []

    def counting(self, other):
        if isinstance(other, TruncatedSeries) and all(
            sum(1 for v in s.coeffs if v != 0) > 2 for s in (self, other)
        ):
            full.append(self.order)
        return real_mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    assert check_series_identities(C, k_max, 2 * k_max + 6).status == "verified"
    assert len(full) == max(k_max + 1, 2) - 1


def test_flat_reciprocal_plus_shift_is_affine():
    # k = 0 case of the reciprocal identity: 1/A + x^2 A = 1 - c x
    order = 12
    a = motzkin_series(C, order)
    lhs = a.reciprocal() + TruncatedSeries.monomial(2, order) * a
    assert lhs[0] == 1 and lhs[1] == -C
    assert all(v == 0 for v in lhs.coeffs[2:])


# -- theorem3 ---------------------------------------------------------------


def test_theorem3_worked_example():
    report = check_theorem3(1, 2, 3)
    assert report.status == "verified"
    assert hankel_det(Constant(1), 4, 2, 2) == -4


def test_theorem3_numeric_and_symbolic():
    for cval in (0, 2):
        assert check_theorem3(cval, 3, 5).status == "verified"
    assert check_theorem3(C, 2, 3).status == "verified"


def test_theorem3_symbolic_agrees_with_hankel_dets(monkeypatch):
    # b_{n,k} come from the downward power recurrence; the grid must agree
    # with (-1)^n D(k+2, k, n), and a perturbed b must be caught
    report = check_theorem3(C, 3, 7)
    assert report.status == "verified"
    assert report.instances_tested == 4 * 8
    real = verify.motzkin_power

    def perturbed(cval, exponent, order):
        b = real(cval, exponent, order).coeffs
        return TruncatedSeries(b[:-1] + (b[-1] + 1,))

    monkeypatch.setattr(verify, "motzkin_power", perturbed)
    assert check_theorem3(C, 3, 7).status == "refuted"


# -- report plumbing --------------------------------------------------------


def test_report_json_round_trip():
    report = check_theorem2(1, 1, 1, 2)
    parsed = json.loads(report.to_json())
    assert parsed == report.to_dict()
    assert list(parsed) == [
        "claim_id",
        "params",
        "instances_tested",
        "failures",
        "status",
    ]


def test_reports_are_byte_stable():
    a = check_conjectures9_10(1, 2, 2, 8).to_json()
    b = check_conjectures9_10(1, 2, 2, 8).to_json()
    assert a == b


def test_witness_schema_and_categories():
    run = _Run()
    run.check({"n": 1}, 5, 5)
    run.check({"n": 2}, 5, -5)
    run.check({"n": 3}, 5, 4)
    assert run.instances == 3
    flip, mismatch = run.failures
    assert flip.category == "sign-flip" and flip.lhs == "5" and flip.rhs == "-5"
    assert mismatch.category == "mismatch"
    assert list(flip.to_dict()) == ["params", "lhs", "rhs", "category"]


def test_verified_requires_instances():
    report = check_theorem3(1, 0, 0)
    assert report.instances_tested == 1
    assert report.status == "verified"
