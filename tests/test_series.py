import pytest
from hypothesis import given, strategies as st

from catalan_hankel.ring import C, Polynomial
from catalan_hankel.sequences import Constant, admissible_table
from catalan_hankel.series import (
    NonUnitConstantTermError,
    TruncatedSeries,
    motzkin_power,
    motzkin_series,
)
from oracles import motzkin_series_quadratic

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
    expected = motzkin_series_quadratic(cval, order) ** exponent
    assert motzkin_power(cval, exponent, order) == expected


@given(level_weights, st.integers(-6, -1), st.integers(1, 40))
def test_motzkin_power_matches_oracle_reciprocal_powers(cval, exponent, order):
    expected = (motzkin_series_quadratic(cval, order) ** -exponent).reciprocal()
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
