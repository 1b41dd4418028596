import math
from operator import mul

import pytest
from hypothesis import given, strategies as st

from catalan_hankel.ring import (
    C,
    NotDivisibleError,
    Polynomial,
    _coeffs,
    _convolve,
    _kronecker,
    _norms,
    _pack,
    _packing_h,
    _terms,
    _unpack,
    as_poly,
    exact_div,
    parity_sign,
    render,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=9)
polys = coeff_lists.map(Polynomial)


def test_trailing_zeros_stripped():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)


def test_zero_polynomial_is_empty():
    assert Polynomial([0, 0]).coeffs == ()
    assert not Polynomial([0, 0])


def test_already_normal():
    assert Polynomial([5]).coeffs == (5,)


def test_degree_sentinel():
    assert Polynomial().degree() == -1
    assert Polynomial([0, 0, 7]).degree() == 2


def test_exact_div_difference_of_squares():
    assert (C * C - 1).exact_div(C - 1) == C + 1


def test_exact_div_constants():
    assert exact_div(6, 2) == 3
    assert exact_div(6, -2) == -3


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisibleError):
        (C * C + 1).exact_div(C)
    with pytest.raises(NotDivisibleError):
        exact_div(7, 2)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        (C + 1).exact_div(Polynomial())
    with pytest.raises(ZeroDivisionError):
        exact_div(3, 0)


def test_eval_examples():
    assert (C * C - 2).evaluate(1) == -1
    assert Polynomial().evaluate(7) == 0
    assert (2 * C + 1).evaluate(-3) == -5


def test_eval_composition():
    f = C * C - 1
    g = C + 1
    assert f.evaluate(g) == g * g - 1


def test_evaluate_keeps_constants():
    assert as_poly(42).evaluate(5) == 42
    assert (C + 1).evaluate(5) == 6


def test_parity_sign_examples():
    # oracle: the exponent is binom(m+1, 2)
    assert parity_sign(0) == 1 and math.comb(1, 2) % 2 == 0
    assert parity_sign(2) == -1 and math.comb(3, 2) % 2 == 1
    assert parity_sign(3) == 1 and math.comb(4, 2) % 2 == 0


def test_parity_sign_matches_binomial_oracle():
    for m in range(101):
        assert parity_sign(m) == (-1) ** (math.comb(m + 1, 2) % 2)


def test_parity_sign_period_four():
    for m in range(101):
        assert parity_sign(m) == parity_sign(m + 4)


def test_parity_sign_negative_raises():
    with pytest.raises(ValueError):
        parity_sign(-1)


@given(polys, polys)
def test_exact_div_round_trip(p, q):
    if q:
        assert (p * q).exact_div(q) == p


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_integer_exact_div_round_trip(a, b):
    if b != 0:
        assert exact_div(a * b, b) == a


# ring elements of both kinds, for the division properties
elements = st.one_of(st.integers(-50, 50), polys)


@given(elements, elements.filter(bool))
def test_divmod_and_exact_div_round_trip(a, b):
    assert exact_div(a * b, b) == a
    assert as_poly(a * b).exact_div(b) == a
    if isinstance(a, int) and isinstance(b, int):
        assert divmod(a * b, b) == (a, 0)
    else:
        # divmod is the builtin on ints alone; Z[c] divides by exact_div
        with pytest.raises(TypeError):
            divmod(a * b, b)


@given(elements, polys.filter(lambda p: p.degree() >= 1), coeff_lists)
def test_a_remainder_of_lower_degree_is_rejected(a, b, low):
    r = Polynomial(low[: b.degree()])
    if not r:
        r = Polynomial((1,))
    with pytest.raises(NotDivisibleError, match="remainder"):
        exact_div(a * b + r, b)
    with pytest.raises(NotDivisibleError, match="remainder"):
        as_poly(a * b + r).exact_div(b)


@given(elements, st.integers(2, 50), st.booleans(), st.data())
def test_a_nonzero_integer_remainder_is_rejected(a, size, negative, data):
    b = -size if negative else size
    r = data.draw(st.integers(1, size - 1))
    with pytest.raises(NotDivisibleError):
        exact_div(a * b + r, b)


@given(coeff_lists, polys.filter(lambda p: p.degree() >= 0), st.integers(2, 9), st.data())
def test_a_leading_coefficient_that_does_not_divide_raises(low, b, lead, data):
    # top coefficient t of the dividend is not a multiple of the divisor's lead
    divisor = Polynomial(b.coeffs[:-1] + (lead,))
    t = lead * data.draw(st.integers(-5, 5)) + data.draw(st.integers(1, lead - 1))
    dividend = Polynomial(low + [0] * divisor.degree() + [t])
    with pytest.raises(NotDivisibleError, match="leading coefficient"):
        dividend.exact_div(divisor)
    with pytest.raises(NotDivisibleError, match="leading coefficient"):
        exact_div(dividend, divisor)


@given(elements)
def test_a_zero_divisor_raises(a):
    # raised before the Z[c] quotient reads the divisor's leading term
    for zero in (0, Polynomial()):
        with pytest.raises(ZeroDivisionError):
            exact_div(a, zero)
        with pytest.raises(ZeroDivisionError):
            as_poly(a).exact_div(zero)


def test_exact_div_mixes_ints_and_polynomials():
    assert exact_div(C * C - 1, C - 1) == (C * C - 1).exact_div(C - 1) == C + 1
    with pytest.raises(NotDivisibleError, match="remainder"):
        exact_div(3, C)  # 3 = 0 * c + 3
    with pytest.raises(NotDivisibleError, match="leading coefficient 7 not divisible by 2"):
        exact_div(2 * C + 7, 2)  # a constant divisor divides every coefficient or fails
    assert exact_div(6 * C + 4, 2) == (6 * C + 4).exact_div(2) == 3 * C + 2
    assert exact_div(Polynomial((7,)), 7) == Polynomial((7,)).exact_div(7) == 1
    assert exact_div(7, Polynomial((7,))) == 1
    # a Polynomial operand makes a Polynomial quotient, even of constants
    assert type(exact_div(7, Polynomial((7,)))) is Polynomial
    assert type(exact_div(7, 7)) is int
    for a, b in ((C, 1), (1, C), (C, C)):
        with pytest.raises(TypeError):
            divmod(a, b)


@given(elements, elements)
def test_subtraction_matches_adding_the_negation(a, b):
    assert a - b == a + (-b)
    assert (a - b) + b == a


@given(polys, polys, st.integers(-5, 5))
def test_eval_is_ring_homomorphism(p, q, t):
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)
    assert (p + q).evaluate(t) == p.evaluate(t) + q.evaluate(t)


@given(polys, polys, polys)
def test_ring_laws_polynomials(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(st.integers(), st.integers(), st.integers())
def test_ring_laws_integers(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_mixed_int_polynomial_arithmetic():
    assert 1 + C == C + 1
    assert 2 * C == C + C
    assert 3 - C == -(C - 3)
    assert (1 - C) * (1 + C) == 1 - C * C


def test_pow():
    assert (C + 1) ** 0 == 1
    assert (C + 1) ** 2 == C * C + 2 * C + 1
    with pytest.raises(ValueError):
        C**-1


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ((), "0"),
        ((5,), "5"),
        ((-3,), "-3"),
        ((0, 1), "c"),
        ((0, -1), "-c"),
        ((0, 3), "3*c"),
        ((1, 2), "1 + 2*c"),
        ((-2, 0, 1), "-2 + c^2"),
        ((0, -1, 0, 2), "-c + 2*c^3"),
    ],
)
def test_canonical_rendering(coeffs, text):
    assert str(Polynomial(coeffs)) == text
    assert render(Polynomial(coeffs)) == text


def test_render_is_stable_and_matches_int_rendering():
    p = C * C - 2
    assert render(p) == render(p)
    assert render(Polynomial((7,))) == render(7) == "7"
    assert render(Polynomial((-7,))) == render(-7) == "-7"


def test_equality_and_hash_with_ints():
    assert Polynomial((5,)) == 5
    assert Polynomial() == 0
    assert hash(Polynomial((5,))) == hash(5)
    assert hash(Polynomial()) == hash(0)
    assert {Polynomial((2,)): "x"}[2] == "x"


def test_as_poly():
    assert as_poly(3).coeffs == (3,)
    assert as_poly(C) is C


def test_immutable():
    with pytest.raises(AttributeError):
        C.coeffs = (1,)


@given(
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=80),
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=80),
)
def test_multiplication_matches_evaluation_at_enough_points(a, b):
    _assert_product_by_evaluation(Polynomial(a), Polynomial(b))


def test_large_product_matches_evaluation():
    # 59 x 61 coefficients, past the size where products were once packed
    _assert_product_by_evaluation(Polynomial(range(1, 60)), Polynomial(range(-30, 31)))


def _assert_product_by_evaluation(a, b):
    # a product of degree d is fixed by its values at d + 1 points
    p = a * b
    if not (a and b):
        assert not p
        return
    assert p.degree() == a.degree() + b.degree()
    for t in range(p.degree() + 1):
        assert p.evaluate(t) == a.evaluate(t) * b.evaluate(t)


# -- the one term product: it sizes itself -----------------------------------------

# zero-heavy factors: zero is drawn as often as everything else together, so
# empty factors and zero top coefficients are common
sparse_lists = st.lists(st.one_of(st.just(0), st.integers(-4, 4)), max_size=7)


@given(st.lists(st.tuples(sparse_lists, sparse_lists), min_size=1, max_size=3))
def test_convolve_sizes_itself_and_matches_a_dense_double_loop(pairs):
    left = [_terms(a) for a, _ in pairs]
    right = [_terms(b) for _, b in pairs]
    got = _convolve(left, right)
    degrees = [(Polynomial(a).degree(), Polynomial(b).degree()) for a, b in pairs]
    sums = [da + db for da, db in degrees if da >= 0 and db >= 0]
    assert len(got) == (max(sums) + 1 if sums else 0)
    dense = [0] * sum(len(a) + len(b) for a, b in pairs)
    for a, b in pairs:
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                dense[i + j] += x * y
    assert got + [0] * (len(dense) - len(got)) == dense


# -- packing at c = 2**h and the balanced-digit reader ---------------------------
#
# Every coefficient is at most `bound` in size, and `bound` itself occurs, at
# either sign: the digits must hold it exactly.  With a parity r, every other
# coefficient is 0 and the reader takes every other power.


@given(
    st.integers(0, 2**70),
    st.lists(st.lists(st.integers(-1, 1), max_size=40), min_size=1, max_size=6),
    st.sampled_from([None, 0, 1]),
)
def test_unpack_reads_back_what_pack_packs(bound, signs, parity):
    polys = [
        [0 if parity is not None and (d + parity) % 2 else s * bound for d, s in enumerate(v)]
        for v in signs
    ]
    h = _packing_h(bound, 1 if parity is None else 2)
    assert (h * (1 if parity is None else 2)) % 8 == 0
    values = [_pack(v, h) for v in polys]
    assert values == [sum(x << (h * d) for d, x in enumerate(v)) for v in polys]
    offsets = None if parity is None else [parity] * len(polys)
    assert _unpack(values, h, offsets) == [Polynomial(v) for v in polys]


def test_pack_of_no_terms_and_one_term():
    assert _pack((), 8) == 0
    assert _pack((-5,), 8) == -5
    assert _pack((1, -1, 0, 3, 0), 8) == 1 - (1 << 8) + (3 << 24)


# -- the one driver: pack, run an int kernel, unpack -------------------------------

parity_lists = st.tuples(st.sampled_from([0, 1]), coeff_lists).map(
    lambda rv: [0 if (d + rv[0]) % 2 else x * 2**40 for d, x in enumerate(rv[1])]
)


@given(st.lists(st.tuples(parity_lists, parity_lists), min_size=1, max_size=6), st.booleans())
def test_kronecker_products_read_each_elements_parity(pairs, stride):
    # elementwise products; with the stride, each element's parity is read
    # off the element itself, and the outputs' offsets are their sums
    a = [_coeffs(Polynomial(x)) for x, _ in pairs]
    b = [_coeffs(Polynomial(y)) for _, y in pairs]
    majorant = max(x * y for x, y in zip(_norms(a), _norms(b)))
    offsets = None
    if stride:
        low = [min([d for d, x in enumerate(v) if x], default=0) % 2 for v in a + b]
        offsets = [(r + s) % 2 for r, s in zip(low[: len(a)], low[len(a) :])]
    got = _kronecker(lambda h, xs, ys: list(map(mul, xs, ys)), [a, b], majorant, offsets)
    assert got == [Polynomial(x) * Polynomial(y) for x, y in pairs]


def test_kronecker_shifts_by_powers_of_c_with_h():
    # kernel(h, ...) multiplies by c as a shift of h bits
    cs = [_coeffs(v) for v in (C - 3 * C**3, C**2, 0)]
    times_c = lambda h, vs: [v << h for v in vs]  # noqa: E731
    assert _kronecker(times_c, [cs], 4, [0, 1, 1]) == [C**2 - 3 * C**4, C**3, 0]
    assert _kronecker(times_c, [cs], 4) == [C**2 - 3 * C**4, C**3, 0]
