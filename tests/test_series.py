import copy
import hashlib
import pickle

import pytest
from hypothesis import given, strategies as st

from catalan_hankel import series
from catalan_hankel.cli import main
from catalan_hankel.ring import C, NotDivisibleError, Polynomial
from catalan_hankel.sequences import Constant, Explicit, Shifted, admissible_table
from catalan_hankel.series import (
    NonUnitConstantTermError,
    TruncatedSeries,
    motzkin_power,
    motzkin_series,
)
from oracles import (
    motzkin_power_generic,
    motzkin_series_quadratic,
    series_mul_loops,
    series_mul_terms,
    series_pow_loops,
    series_reciprocal_loops,
    series_reciprocal_terms,
)

unit_series = st.lists(st.integers(-4, 4), min_size=3, max_size=12).map(
    lambda tail: TruncatedSeries([1] + tail)
)
# level weights for the P-recursive kernel: small ints and the symbol c
level_weights = st.sampled_from(list(range(-5, 6)) + [C])


def test_mul_basic():
    a = TruncatedSeries((1, 1, 0))
    b = TruncatedSeries((1, -1, 0))
    assert (a * b).coeffs == (1, 0, -1)


def test_mul_identity():
    a = TruncatedSeries((3, 1, 4, 1, 5))
    assert (a * TruncatedSeries.one(5)).coeffs == a.coeffs


def test_mul_square():
    a = TruncatedSeries((1, 1, 1))
    assert (a * a).coeffs == (1, 2, 3)


def test_shorter_order_wins():
    a = TruncatedSeries((1, 2, 3, 4, 5))
    b = TruncatedSeries((1, 1))
    assert (a * b).order == 2
    assert (a + b).order == 2
    assert (a - b).coeffs == (0, 1)


def test_reciprocal_geometric():
    g = TruncatedSeries((1, 1, 0, 0, 0))
    assert g.reciprocal().coeffs == (1, -1, 1, -1, 1)


def test_reciprocal_of_motzkin_gf():
    # 1/A = 1 - c x - x^2 A, checked at c = 1 against the frozen prefix
    a = motzkin_series(1, 7)
    expected = (
        TruncatedSeries.one(7)
        - TruncatedSeries.monomial(1, 7)
        - TruncatedSeries.monomial(2, 7) * a
    )
    assert a.reciprocal() == expected
    assert a.reciprocal().coeffs == (1, -1, -1, -1, -2, -4, -9)


def test_reciprocal_of_negative_unit():
    a = TruncatedSeries((-1, 2, 1))
    assert (a * a.reciprocal()).coeffs == (1, 0, 0)


def test_reciprocal_requires_unit_constant_term():
    with pytest.raises(NonUnitConstantTermError):
        TruncatedSeries((2, 0, 0)).reciprocal()


@given(unit_series)
def test_reciprocal_round_trip(a):
    product = a * a.reciprocal()
    assert product.coeffs == TruncatedSeries.one(a.order).coeffs


def test_pow_zero_is_one():
    a = TruncatedSeries((1, 2, 3))
    assert (a**0).coeffs == (1, 0, 0)


def test_pow_square():
    a = TruncatedSeries.one(3) + TruncatedSeries.monomial(1, 3)
    assert (a**2).coeffs == (1, 2, 1)


def test_pow_of_motzkin_cube():
    assert (motzkin_series(1, 5) ** 3).coeffs == (1, 3, 9, 25, 69)


def test_motzkin_series_unit_weight():
    assert motzkin_series(1, 8).coeffs == (1, 1, 2, 4, 9, 21, 51, 127)


def test_motzkin_series_zero_weight_is_aerated_catalan():
    assert motzkin_series(0, 9).coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_motzkin_series_symbolic_coefficient():
    assert motzkin_series(C, 3)[2] == C * C + 1


def test_reciprocal_power_coeffs_unit_weight():
    assert motzkin_power(1, -3, 13).coeffs == (
        1, -3, 0, 2, 0, 0, -1, -3, -9, -25, -69, -189, -518,
    )


def test_reciprocal_power_coeffs_symbolic():
    assert motzkin_power(C, -1, 3).coeffs == (Polynomial((1,)), -C, Polynomial((-1,)))


def test_reciprocal_power_coeffs_zero_weight():
    assert motzkin_power(0, -1, 5).coeffs == (1, 0, -1, 0, -1)


def test_coefficients_coerce_to_one_ring():
    s = TruncatedSeries((1, C, 2))
    assert all(isinstance(v, Polynomial) for v in s.coeffs)


def test_truncate_and_getitem():
    a = TruncatedSeries((1, 2, 3, 4))
    assert (a * TruncatedSeries.one(2)).coeffs == (1, 2)  # the shorter order wins
    assert a[3] == 4
    with pytest.raises(IndexError):
        a[4]


def test_scalar_mixing():
    a = TruncatedSeries((1, 2, 3))
    assert (2 * a).coeffs == (2, 4, 6)
    assert (a + 1).coeffs == (2, 2, 3)
    assert (1 - a).coeffs == (0, -2, -3)


def test_series_need_a_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    with pytest.raises(ValueError):
        motzkin_series(1, 0)
    # an order below 1 or a negative power is refused, never wrapped around
    for make in (
        lambda: TruncatedSeries.constant(7, 0),
        lambda: TruncatedSeries.one(-3),
        lambda: TruncatedSeries.monomial(-1, 5),
        lambda: TruncatedSeries.monomial(-5, 3),
        lambda: TruncatedSeries.monomial(0, 0),
    ):
        with pytest.raises(ValueError):
            make()


def test_coefficients_match_triangle_column_zero():
    for cval in (0, 1, 2, C):
        a = motzkin_series(cval, 10)
        rows = admissible_table(Constant(cval), 9)
        assert all(a[n] == rows[n][0] for n in range(10))


def test_power_coefficients_match_triangle_columns():
    # [x^n] x^k A^{k+1} = a[n][k]
    for cval in (0, 1, 2, C):
        a = motzkin_series(cval, 12)
        rows = admissible_table(Constant(cval), 11)
        for k in range(5):
            shifted = TruncatedSeries.monomial(k, 12) * (a ** (k + 1))
            assert all(shifted[n] == (rows[n][k] if k <= n else 0) for n in range(12))


def test_quadratic_residual_vanishes():
    # x^2 A^2 + (c x - 1) A + 1 = 0 mod x^24
    for cval in (0, 1, 2, C):
        order = 24
        a = motzkin_series(cval, order)
        residual = (
            TruncatedSeries.monomial(2, order) * a * a
            + (TruncatedSeries.monomial(1, order, coeff=cval) - TruncatedSeries.one(order)) * a
            + TruncatedSeries.one(order)
        )
        assert all(v == 0 for v in residual.coeffs)


# -- P-recursive kernel vs the quadratic oracle --------------------------------


@given(level_weights, st.integers(1, 80))
def test_motzkin_power_one_matches_quadratic_oracle(cval, order):
    assert motzkin_power(cval, 1, order) == motzkin_series_quadratic(cval, order)


@given(level_weights, st.integers(0, 6), st.integers(1, 40))
def test_motzkin_power_matches_oracle_powers(cval, exponent, order):
    expected = series_pow_loops(motzkin_series_quadratic(cval, order), exponent)
    assert motzkin_power(cval, exponent, order) == expected


@given(level_weights, st.integers(-6, -1), st.integers(1, 40))
def test_motzkin_power_matches_oracle_reciprocal_powers(cval, exponent, order):
    expected = series_reciprocal_loops(
        series_pow_loops(motzkin_series_quadratic(cval, order), -exponent)
    )
    assert motzkin_power(cval, exponent, order) == expected


def test_motzkin_power_orders_one_and_two():
    for cval in (-2, 0, 1, 2, 3, C):
        for exponent in range(-4, 5):
            assert motzkin_power(cval, exponent, 1).coeffs == (1,)
            assert motzkin_power(cval, exponent, 2).coeffs == (1, exponent * cval)


def test_motzkin_power_where_c_squared_minus_four_vanishes():
    # c = +-2 drops the a_{n-2} term of the P-recurrence; a_n = (+-1)^n Catalan(n+1)
    catalan_shifted = (1, 2, 5, 14, 42, 132, 429, 1430)
    assert motzkin_power(2, 1, 8).coeffs == catalan_shifted
    assert motzkin_power(-2, 1, 8).coeffs == tuple(
        v if n % 2 == 0 else -v for n, v in enumerate(catalan_shifted)
    )
    # 1/A = 1 - c x - x^2 A
    assert motzkin_power(2, -1, 6).coeffs == (1, -2, -1, -2, -5, -14)
    assert motzkin_power(-2, -1, 6).coeffs == (1, 2, -1, 2, -5, 14)


def test_motzkin_power_zero_weight_is_aerated_catalan():
    assert motzkin_power(0, 1, 9).coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14)
    assert motzkin_power(0, 2, 9).coeffs == (1, 0, 2, 0, 5, 0, 14, 0, 42)
    assert motzkin_power(0, -1, 9).coeffs == (1, 0, -1, 0, -1, 0, -2, 0, -5)


def test_motzkin_power_zero_exponent_is_one():
    assert motzkin_power(C, 0, 4).coeffs == (1, 0, 0, 0)


def test_motzkin_power_needs_a_constant_term():
    with pytest.raises(ValueError):
        motzkin_power(1, 3, 0)


# -- the Z[c] P-recurrence on coefficient lists and the packed walk -----------

_ZC_LEVEL_WEIGHTS = [C, 2 * C, 1 + C, Polynomial((3,)), Polynomial()]


@pytest.mark.parametrize("cval", _ZC_LEVEL_WEIGHTS, ids=["c", "2c", "1+c", "3", "0"])
def test_zc_motzkin_power_matches_generic_walk_and_quadratic(cval):
    # 2c and c hold only odd powers of c, so the walk's output has a parity;
    # 1 + c and the constant 3 have none; the zero polynomial leaves only even
    # coefficients of A
    for exponent in range(-6, 7):
        for order in (1, 2, 3, 17):
            got = motzkin_power(cval, exponent, order)
            assert got.coeffs == motzkin_power_generic(cval, exponent, order).coeffs
            quadratic = series_pow_loops(motzkin_series_quadratic(cval, order), abs(exponent))
            if exponent < 0:
                quadratic = series_reciprocal_loops(quadratic)
            assert got == quadratic
            assert all(isinstance(v, Polynomial) for v in got.coeffs)


@pytest.mark.parametrize("where", ["lowest", "middle", "top"])
@pytest.mark.parametrize("n", [6, 7, 14])
def test_spoiled_p_recurrence_step_raises(monkeypatch, capsys, n, where):
    # one coefficient of (n + 2) a_n is off by one, whether it was zero (c's
    # parity leaves every other one zero) or not: its remainder mod n + 2 is
    # checked, so neither the series nor the CLI returns a value
    real = series._convolve

    def spoiled(left, right):
        out = real(left, right)
        if (2, 1 - n) in left[-1]:  # the step whose (1 - n)(c^2 - 4) has this n
            out[{"lowest": 0, "middle": len(out) // 2, "top": -1}[where]] += 1
        return out

    monkeypatch.setattr(series, "_convolve", spoiled)
    assert motzkin_power(C, 1, n) == motzkin_power_generic(C, 1, n)
    with pytest.raises(NotDivisibleError, match=f"not divisible by {n + 2}$"):
        motzkin_power(C, 1, n + 1)
    assert main(["series", "--c", "sym", "--order", str(n + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not divisible by {n + 2}\n" in captured.err


# -- product and reciprocal kernels vs the double-loop oracles -----------------

# zero-heavy coefficients: zero is drawn as often as everything else together
small_ints = st.one_of(st.just(0), st.integers(-4, 4))
small_polys = st.lists(small_ints, max_size=4).map(Polynomial)
int_series = st.lists(small_ints, min_size=1, max_size=12).map(TruncatedSeries)
poly_series = st.lists(small_polys, min_size=1, max_size=12).map(TruncatedSeries)
any_series = st.one_of(int_series, poly_series)
units = st.sampled_from([1, -1, Polynomial((1,)), Polynomial((-1,))])


def assert_same_series(got, expected, symbolic):
    assert got == expected
    assert got.order == expected.order
    # a series is homogeneous: Polynomial throughout as soon as c may occur
    kind = Polynomial if symbolic else int
    assert all(type(v) is kind for v in got.coeffs)


def is_symbolic(*series):
    return any(isinstance(s[0], Polynomial) for s in series)


@given(any_series, any_series)
def test_mul_matches_loop_oracle(a, b):
    # int x int, Z[c] x Z[c] and both mixed orders; the shorter order wins
    assert_same_series(a * b, series_mul_loops(a, b), is_symbolic(a, b))


@given(any_series, st.one_of(small_ints, small_polys))
def test_scalar_mul_matches_loop_oracle(a, scalar):
    expected = series_mul_loops(a, TruncatedSeries.constant(scalar, a.order))
    symbolic = is_symbolic(a) or isinstance(scalar, Polynomial)
    assert_same_series(a * scalar, expected, symbolic)
    assert_same_series(scalar * a, expected, symbolic)


@given(units, st.one_of(st.lists(small_ints, max_size=11), st.lists(small_polys, max_size=11)))
def test_reciprocal_matches_loop_oracle(u0, tail):
    u = TruncatedSeries([u0] + tail)
    assert_same_series(u.reciprocal(), series_reciprocal_loops(u), is_symbolic(u))


@given(st.sampled_from([0, 1, -2, C]), st.integers(0, 4), st.integers(1, 30))
def test_motzkin_products_match_loop_oracle(cval, exponent, order):
    # c = 0 makes every other coefficient zero; C every other term
    a = motzkin_power(cval, exponent, order)
    b = motzkin_power(cval, 1, order)
    assert_same_series(a * b, series_mul_loops(a, b), is_symbolic(a, b))
    assert_same_series(a.reciprocal(), series_reciprocal_loops(a), is_symbolic(a))


def test_kernels_at_orders_one_and_two():
    for u in (
        (1,), (-1,), (1, 3), (-1, C), (Polynomial((-1,)), Polynomial()), (1, -C), (-1, C * C - 1)
    ):
        s = TruncatedSeries(u)
        symbolic = is_symbolic(s)
        assert_same_series(s * s, series_mul_loops(s, s), symbolic)
        assert_same_series(s.reciprocal(), series_reciprocal_loops(s), symbolic)
        others = (TruncatedSeries([2 * C + 1, C][: s.order]), TruncatedSeries([C, 1][: s.order]))
        for x in (s,) + others:
            assert_same_series(x * s, series_mul_terms(x, s), is_symbolic(x, s))
        if symbolic:
            assert_same_series(s.reciprocal(), series_reciprocal_terms(s), True)


def test_sparse_int_products_match_loop_oracle():
    # the plain int convolution on mostly-zero operands: monomials, short
    # polynomials in x, nonzero runs that start late, and the zero series
    dense = motzkin_power(3, 2, 12)
    for sparse in (
        TruncatedSeries.monomial(3, 12, coeff=-2),
        TruncatedSeries.monomial(11, 12),
        TruncatedSeries([1, -3] + [0] * 10),
        TruncatedSeries([0] * 5 + [2, 0, 1] + [0] * 4),
        TruncatedSeries.constant(0, 12),
    ):
        assert_same_series(sparse * dense, series_mul_loops(sparse, dense), False)
        assert_same_series(dense * sparse, series_mul_loops(dense, sparse), False)
        assert_same_series(sparse * sparse, series_mul_loops(sparse, sparse), False)


def test_zero_symbolic_products_stay_polynomial():
    zero = TruncatedSeries([Polynomial()] * 4)
    ones = TruncatedSeries([1, 1, 1, 1])
    assert_same_series(zero * ones, TruncatedSeries([0] * 4), True)
    assert_same_series(ones * zero, TruncatedSeries([0] * 4), True)
    unit = TruncatedSeries([Polynomial((-1,)), Polynomial(), Polynomial()])
    assert_same_series(unit.reciprocal(), TruncatedSeries([-1, 0, 0]), True)


# -- Z[c] kernels vs the term-list oracles ---------------------------------------
#
# Over Z[c] the kernels put c = 2**h and read the results back as digits, h
# from a norm majorant, halved when every coefficient n of an operand holds
# only powers c^d with d = n + s (mod 2).  The term-list oracles pack
# nothing.  Coefficient values come in three kinds: small and zero-heavy,
# nonnegative (no cancellation, so coefficients reach the majorant's
# size), and large with large negatives.

value_kinds = st.sampled_from(
    [small_ints, st.integers(0, 9), st.integers(-(2**70), -(2**60)) | st.integers(-9, 2**8)]
)


def spread(q, r):
    """c^r q(c^2) for the coefficient list q."""
    cs = [0] * (r + 2 * len(q))
    cs[r::2] = q
    return Polynomial(cs)


def parity_series(s, values):
    """Series over Z[c] whose coefficient n holds only c^d with d = n + s mod 2."""
    halves = st.lists(st.lists(values, max_size=3), min_size=1, max_size=10)
    return halves.map(
        lambda hs: TruncatedSeries([spread(q, (n + s) % 2) for n, q in enumerate(hs)])
    )


def zc_series(values):
    mixed = st.lists(st.lists(values, max_size=5).map(Polynomial), min_size=1, max_size=10)
    return parity_series(0, values) | parity_series(1, values) | mixed.map(TruncatedSeries)


zc_operands = value_kinds.flatmap(zc_series)
int_operands = value_kinds.flatmap(lambda v: st.lists(v, min_size=1, max_size=10)).map(
    TruncatedSeries
)


@given(zc_operands, zc_operands | int_operands)
def test_zc_mul_matches_term_oracle(a, b):
    assert_same_series(a * b, series_mul_terms(a, b), True)
    assert_same_series(b * a, series_mul_terms(b, a), True)


@given(units, zc_operands)
def test_zc_reciprocal_matches_term_oracle(u0, tail):
    # behind u0, a tail with s = 1 gives a series with s = 0, and one with
    # s = 0 a series with no parity
    u = TruncatedSeries([u0] + list(tail.coeffs))
    assert_same_series(u.reciprocal(), series_reciprocal_terms(u), True)


@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=10), st.booleans())
def test_zc_kernels_where_the_majorant_is_attained(ks, parity):
    # coefficient n is k_n c^n (parity) or the constant k_n: with no
    # cancellation each output coefficient is one term as large as its
    # norm, and the largest is the majorant itself
    a = TruncatedSeries([Polynomial([0] * n * parity + [k]) for n, k in enumerate(ks)])
    assert_same_series(a * a, series_mul_terms(a, a), True)
    u = TruncatedSeries([Polynomial((1,))] + [-v for v in a.coeffs[1:]])
    assert_same_series(u.reciprocal(), series_reciprocal_terms(u), True)


def test_zc_kernels_on_the_series_the_identities_build():
    # A^e and 1 - c x (s = 0), x A^2 (s = 1), A with c -> c + 1 and 1 - x A^2
    # (no parity), and a monomial in x
    order = 30
    a = motzkin_series(C, order)
    xa2 = TruncatedSeries.monomial(1, order) * (a * a)
    shifted = motzkin_series(C + 1, order)
    line = 1 - TruncatedSeries.monomial(1, order, coeff=C)
    for x in (a, xa2, shifted, line, 1 - xa2, TruncatedSeries.monomial(order - 1, order)):
        for y in (a, xa2, shifted):
            assert_same_series(x * y, series_mul_terms(x, y), True)
    for u in (a, a * a, shifted, line, 1 - xa2):
        assert_same_series(u.reciprocal(), series_reciprocal_terms(u), True)


# SHA-256 of the rendered coefficients at order 60, one per line, recorded
# with the term-list kernels: parity s = 0 (A^3 A, 1/A^5), s = 1 (x A^2) and
# none (A with c -> c + 1)
_PINNED_ZC_SERIES = {
    "A^3*A": "df74003523e3090a52d9c38415c101e74f92234f42495d7cc1b7fc67d0515e0c",
    "1/A^5": "7676fbf83e6a65467c0e8deccbe0652af3444ac8b4a6fafc26eae53e3b53bb16",
    "x*A^2": "fd85c7a0a16a73bedddde7a8bd224d512d131f4a513f913bc146fce1b7c7b893",
    "shifted*shifted": "38352db8b6776931ee44f9230bdead11a9b82c0a05fdf242bf2e404c148fea23",
    "1/shifted": "80d76ae4391053ea13a01ff9f65261bcbe5fc1c2fe12d898e533e2620d8858d4",
}


@pytest.mark.parametrize("name", _PINNED_ZC_SERIES)
def test_zc_series_values_are_pinned(name):
    order = 60
    a, shifted = motzkin_series(C, order), motzkin_series(C + 1, order)
    value = {
        "A^3*A": lambda: motzkin_power(C, 3, order) * a,
        "1/A^5": lambda: motzkin_power(C, 5, order).reciprocal(),
        "x*A^2": lambda: TruncatedSeries.monomial(1, order) * motzkin_power(C, 2, order),
        "shifted*shifted": lambda: shifted * shifted,
        "1/shifted": shifted.reciprocal,
    }[name]()
    rendered = "\n".join(map(str, value.coeffs))
    assert hashlib.sha256(rendered.encode()).hexdigest() == _PINNED_ZC_SERIES[name]


# -- copy and pickle ------------------------------------------------------------

_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}
_IMMUTABLES = {
    "polynomial": C * C - 4,
    "int-series": TruncatedSeries([1, 2]),
    "zc-series": motzkin_series(C, 5),
    "constant": Constant(C),
    "explicit": Explicit((1, C, 0), tail=C),
    "shifted": Shifted(Explicit((C, -1), tail=C), 1),
}


@pytest.mark.parametrize("how", _ROUND_TRIPS)
@pytest.mark.parametrize("name", _IMMUTABLES)
def test_immutables_copy_and_pickle(name, how):
    value = _IMMUTABLES[name]
    clone = _ROUND_TRIPS[how](value)
    assert clone == value
    assert type(clone) is type(value)
