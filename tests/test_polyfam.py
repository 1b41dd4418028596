import pytest

from catalan_hankel import polyfam, series
from catalan_hankel.hankel import hankel_det
from catalan_hankel.polyfam import (
    fibonacci_poly,
    lucas_bivariate_at,
    lucas_bivariate_eval,
    lucas_bivariate_upto,
    lucas_poly,
)
from catalan_hankel.ring import C, Polynomial
from catalan_hankel.sequences import Constant
from catalan_hankel.series import TruncatedSeries
from catalan_hankel.verify import check_series_identities
from oracles import lucas_bivariate_full_order


def test_fibonacci_base_cases():
    assert fibonacci_poly(0) == 0
    assert fibonacci_poly(1) == 1


def test_fibonacci_small_values():
    assert fibonacci_poly(3) == C * C - 1
    assert fibonacci_poly(4) == C**3 - 2 * C


def test_lucas_base_cases():
    assert lucas_poly(0) == 2
    assert lucas_poly(1) == C


def test_lucas_small_values():
    assert lucas_poly(2) == C * C - 2
    assert lucas_poly(3) == C**3 - 3 * C


def test_recurrences_hold_deep():
    for n in range(2, 20):
        assert fibonacci_poly(n) == C * fibonacci_poly(n - 1) - fibonacci_poly(n - 2)
        assert lucas_poly(n) == C * lucas_poly(n - 1) - lucas_poly(n - 2)


def test_negative_index_raises():
    with pytest.raises(ValueError):
        fibonacci_poly(-1)
    with pytest.raises(ValueError):
        lucas_poly(-1)
    with pytest.raises(ValueError):
        lucas_bivariate_eval(-1, 1, 1)


def test_substituted_lucas_degree_one():
    s = lucas_bivariate_at(1, C, 5)
    assert s.coeffs[0] == 1 and s.coeffs[1] == -C
    assert all(v == 0 for v in s.coeffs[2:])


def test_substituted_lucas_degree_two():
    s = lucas_bivariate_at(2, C, 5)
    # (1 - c x)^2 - 2 x^2
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == -2 * C
    assert s.coeffs[2] == C * C - 2
    assert all(v == 0 for v in s.coeffs[3:])


def test_substituted_lucas_degree_zero():
    assert lucas_bivariate_at(0, 1, 4).coeffs == (2, 0, 0, 0)


def test_substituted_lucas_is_degree_n_polynomial():
    for n in range(7):
        s = lucas_bivariate_at(n, 3, 16)
        assert all(v == 0 for v in s.coeffs[n + 1 :])


def test_two_argument_lucas_power_sum_identity():
    # L_n(x+y, -x y) = x^n + y^n on an integer grid that pins the identity
    for n in range(11):
        for x in range(-5, 6):
            for y in range(-5, 6):
                assert lucas_bivariate_eval(n, x + y, -x * y) == x**n + y**n


def test_two_argument_specialisation_matches_univariate():
    for n in range(13):
        assert lucas_bivariate_eval(n, C, -1) == lucas_poly(n)


def test_series_and_scalar_routes_agree():
    for n in range(6):
        s = lucas_bivariate_at(n, C, 2 * n + 1)
        # evaluating the x-series coefficients is the same poly as the
        # scalar recurrence run with X = 1 - c*x over Z[c][x]; spot-check
        # at integer points instead of building a second tower
        for cv in (-1, 0, 2):
            at_c = lucas_bivariate_at(n, cv, 2 * n + 1)
            for x0 in (-2, 1, 3):
                lhs = sum(
                    (v.evaluate(cv) if isinstance(v, Polynomial) else v) * x0**i
                    for i, v in enumerate(s.coeffs)
                )
                rhs = sum(v * x0**i for i, v in enumerate(at_c.coeffs))
                assert lhs == rhs


def test_once_shifted_determinants_are_fibonacci():
    for n in range(9):
        assert hankel_det(Constant(C), 1, 0, n) == fibonacci_poly(n + 1)


def test_twice_shifted_determinants_are_fibonacci_square_sums():
    for n in range(7):
        total = Polynomial()
        for j in range(n + 1):
            total = total + fibonacci_poly(j + 1) ** 2
        assert hankel_det(Constant(C), 2, 0, n) == total


def test_bivariate_series_lives_in_requested_order():
    s = lucas_bivariate_at(3, 1, 4)
    assert isinstance(s, TruncatedSeries) and s.order == 4


def test_substituted_lucas_matches_full_order_oracle(monkeypatch):
    # the recurrence runs at order min(order, n + 1): order <= n truncates
    # L_n itself, and no product reaching the int kernel is longer than n + 1
    lengths = []
    kernel = series._mul_int

    def recording(a, b):
        lengths.append(max(len(a), len(b)))
        return kernel(a, b)

    monkeypatch.setattr(series, "_mul_int", recording)
    for cval in (-2, 0, 3, C):
        for n in range(13):
            for order in range(1, n + 4):
                lengths.clear()
                got = lucas_bivariate_at(n, cval, order)
                assert (max(lengths) <= n + 1) if n >= 2 else not lengths
                expected = lucas_bivariate_full_order(n, cval, order)
                assert got == expected
                assert [type(v) for v in got.coeffs] == [type(v) for v in expected.coeffs]


def test_substituted_lucas_upto_n_in_one_run(monkeypatch):
    # L_0..L_n from one run of the recurrence, each equal to the full-order
    # oracle; check_series_identities takes L_1..L_{k_max+1} from one such run
    runs = []
    real = polyfam._two_arg_lucas

    def counting(*args):
        runs.append(args[-1])
        return real(*args)

    monkeypatch.setattr(polyfam, "_two_arg_lucas", counting)
    for cval in (-2, 0, 3, C):
        for n in range(9):
            for order in range(1, n + 4):
                runs.clear()
                got = lucas_bivariate_upto(n, cval, order)
                assert runs == [n]
                assert got == [lucas_bivariate_full_order(j, cval, order) for j in range(n + 1)]
    runs.clear()
    assert check_series_identities(C, 6, 20).status == "verified"
    assert runs == [7]
