"""Truncated formal power series and the Motzkin-path generating function.

A TruncatedSeries stores exactly `order` coefficients and all arithmetic is
modulo x**order; combining series of different orders truncates to the
shorter one.  Coefficients are ring elements (ints or Polynomials in c) and
a series is kept homogeneous: one Polynomial coefficient coerces the rest.

Products and reciprocals have one kernel each, on ints: every output
coefficient is one builtin ``sum(map(mul, ...))``, so a product of order t
is a plain truncated convolution of t**2 / 2 multiplies, whatever its
operands hold.  Over Z[c] the same kernels run through ``ring._kronecker``,
which owns the packing; this module gives it only a norm majorant and the
outputs' parity in c (``_offsets``).  Nothing is divided while packed.

The generating function A(x) = sum a_n x^n of weighted Motzkin paths with
constant level weight c satisfies A = 1 + c*x*A + x^2*A^2.  A is algebraic,
hence D-finite (Stanley 1980), and its coefficients obey the P-recurrence

    (n+2) a_n = c(2n+1) a_{n-1} - (c^2-4)(n-1) a_{n-2},   a_0 = 1, a_1 = c,

whose division by n+2 is exact over the ring.  Multiplying the quadratic by
A^j gives x^2 A^{j+2} = (1 - c*x) A^{j+1} - A^j for every integer j, a
linear recurrence that walks from A^0 = 1 and A^1 = A up to any positive
power or down to any reciprocal power.  motzkin_power combines the two, so
A^e costs O(order + |e| * order) ring operations; the closed radical form
is never used (square roots leave the ring).  For an int c both run on
ints.  Over Z[c] the P-recurrence runs on int coefficient lists in c
(``ring._convolve``), each (n+2) a_n divided by n+2 with ring's one exact
quotient (``ring._exact_div``), which checks every coefficient, and the
walk, which only adds and multiplies, runs packed.
"""

from __future__ import annotations

import functools
from operator import add, mul, sub

from .ring import (
    Polynomial,
    RingElement,
    _coeffs,
    _convolve,
    _exact_div,
    _kronecker,
    _norms,
    _poly_from_list,
    _terms,
    as_poly,
    exact_div,
)


class NonUnitConstantTermError(ValueError):
    """Reciprocal requested for a series whose constant term is not +-1."""


class TruncatedSeries:
    """Coefficients c_0..c_{order-1} of a power series modulo x**order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series stores at least its constant term")
        if Polynomial in map(type, cs):
            cs = tuple(as_poly(v) for v in cs)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through __setattr__
        return (type(self), (self.coeffs,))

    @classmethod
    def constant(cls, value: RingElement, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls((value,) + (0,) * (order - 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def monomial(cls, power: int, order: int, coeff: RingElement = 1) -> "TruncatedSeries":
        """coeff * x**power, truncated (the zero series if power >= order)."""
        if power < 0:
            raise ValueError("power must be >= 0")
        out = [0] * order
        if power < order:
            out[power] = coeff
        return cls(out)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> RingElement:
        return self.coeffs[n]

    # -- arithmetic (shorter order wins) ------------------------------------

    @staticmethod
    def _coerce(value, order):
        if isinstance(value, TruncatedSeries):
            return value
        if isinstance(value, (int, Polynomial)):
            return TruncatedSeries.constant(value, order)
        return None

    def __add__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        t = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(t)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-v for v in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        t = min(self.order, other.order)
        a, b = self.coeffs[:t], other.coeffs[:t]
        if isinstance(a[0], Polynomial) or isinstance(b[0], Polynomial):
            ops = [list(map(_coeffs, a)), list(map(_coeffs, b))]
            majorant = max(_mul_int(*map(_norms, ops)))
            return TruncatedSeries(
                _kronecker(lambda h, a, b: _mul_int(a, b), ops, majorant, _offsets(ops, t))
            )
        return TruncatedSeries(_mul_int(a, b))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative series powers are not supported")
        result = TruncatedSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Series v with self * v = 1 modulo x**order.

        Requires constant term +1 or -1 so the reciprocal stays over the
        ring; anything else raises NonUnitConstantTermError.
        """
        u0 = self.coeffs[0]
        if u0 == 1:
            inv0 = 1
        elif u0 == -1:
            inv0 = -1
        else:
            raise NonUnitConstantTermError(
                f"constant term {u0} is not a unit (need +1 or -1)"
            )
        if isinstance(u0, Polynomial):
            ops = [list(map(_coeffs, self.coeffs))]
            majorant = max(_reciprocal_int([-x for x in _norms(ops[0])], 1))
            return TruncatedSeries(
                _kronecker(
                    lambda h, u: _reciprocal_int(u, inv0), ops, majorant, _offsets(ops, self.order)
                )
            )
        return TruncatedSeries(_reciprocal_int(self.coeffs, inv0))

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _mul_int(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two int series of one order: each is
    one builtin sum of the products a_i b_{n-i}."""
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(len(a))]


def _reciprocal_int(u, inv0: int) -> list:
    """Coefficients of 1/u for an int series u whose constant term is the
    unit 1/inv0: v_0 = inv0, v_n = -inv0 * sum_{j=1..n} u_j v_{n-j}.  u_0
    itself is never read."""
    out: list = [inv0]
    for n in range(1, len(u)):
        out.append(-inv0 * sum(map(mul, u[1 : n + 1], out[::-1])))
    return out


# -- Z[c] through ring._kronecker ------------------------------------------------
#
# A majorant bounds every output coefficient's norm: the norm of an element
# is at most the sum or product of the norms of its parts, so the int
# product of the operands' norm series, or 1 / (1 - sum_{j>=1} |u_j| x^j)
# for a reciprocal, is one.  Parity in c lets the driver halve h: when every
# term c^d of coefficient n of each operand has d = n + s (mod 2), one s per
# operand (A^e, 1/A^e, x A^e, 1 - c x), every term of output coefficient n
# has d = n + s_a + s_b.


def _offsets(operands: list, count: int):
    """r = d mod 2 for the terms c^d of each of count outputs of a series
    kernel on operands (lists of coefficient lists), or None when some
    operand has no parity s."""
    total = 0
    for cs in operands:
        for s in (0, 1):
            if not any(any(v[(n + s + 1) % 2 :: 2]) for n, v in enumerate(cs)):
                total += s
                break
        else:
            return None
    return [(n + total) % 2 for n in range(count)]


# -- the Motzkin series A and its powers -----------------------------------------


def _motzkin_coeffs(cval: int, order: int) -> list:
    """a_0..a_{order-1} of A for an int c by the P-recurrence; the n+2
    divides exactly."""
    coeffs: list = [1, cval][:order]
    disc = cval * cval - 4
    for n in range(2, order):
        num = (2 * n + 1) * cval * coeffs[n - 1] - (n - 1) * disc * coeffs[n - 2]
        coeffs.append(exact_div(num, n + 2))
    return coeffs


def _motzkin_lists(cv: tuple, order: int) -> list:
    """a_0..a_{order-1} of A over Z[c] as int coefficient lists in c, cv
    holding c's coefficients, by the P-recurrence: every coefficient of
    (n+2) a_n is divided by n+2, and a nonzero remainder raises
    NotDivisibleError from ring._exact_div."""
    c = _terms(cv)
    # c * c - 4 * 1, so a zero c still gives [-4]
    disc = _convolve((c, [(0, -4)]), (c, [(0, 1)]))
    coeffs: list = [[1], list(cv)][:order]
    for n in range(2, order):
        scaled = (_terms(cv, 2 * n + 1), _terms(disc, 1 - n))
        num = _convolve(scaled, (_terms(coeffs[n - 1]), _terms(coeffs[n - 2])))
        coeffs.append(_exact_div(num, [(0, n + 2)]))
    return coeffs


def _walk(a: list, times_c, exponent: int, op=sub) -> list:
    """A^exponent from A's coefficients a (see motzkin_power), on ints,
    times_c multiplying by c; with op=add every term adds, a majorant's
    walk."""
    # going up hi = A^{j+1} and lo = A^j, going down hi = A^{j+2} and
    # lo = A^{j+1}; both start from A^1 and A^0
    hi, lo = a, [1] + [0] * (len(a) - 1)
    if exponent >= 1:
        for _ in range(exponent - 1):
            hi, lo = list(map(op, map(op, hi[2:], map(times_c, hi[1:])), lo[2:])), hi
        return hi
    for _ in range(-exponent):
        hi, lo = lo, list(map(op, map(op, lo, map(times_c, [0] + lo)), [0, 0] + hi))
    return lo


def motzkin_power(cval: RingElement, exponent: int, order: int) -> TruncatedSeries:
    """A(x)**exponent with constant level weight cval, for any integer exponent.

    Uses x^2 A^{j+2} = (1 - c*x) A^{j+1} - A^j.  Going up, coefficient n of
    A^{j+2} is [x^{n+2}]A^{j+1} - c [x^{n+1}]A^{j+1} - [x^{n+2}]A^j, so each
    step loses two coefficients and A is computed to order + 2(exponent-1).
    Going down, A^j = (1 - c*x) A^{j+1} - x^2 A^{j+2} needs no extra terms.
    Over Z[c] the walk runs packed, h from the same walk on the norms.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    length = order + 2 * (exponent - 1) if exponent >= 1 else order
    if not isinstance(cval, Polynomial):
        a = _motzkin_coeffs(cval, length)
        return TruncatedSeries(_walk(a, functools.partial(mul, cval), exponent))
    a = _motzkin_lists(cval.coeffs, length)
    if exponent == 1:
        # A itself: nothing to walk, so nothing to pack
        return TruncatedSeries(map(_poly_from_list, a))
    # A is a series in c x and x^2, and so is each of its powers: their
    # coefficient n holds only c^i with i = n (mod 2), so the walk's output
    # has A's parity, and A is the walk's one operand.  At c = 2**h the walk
    # multiplies by c term by term, x c^d v as x v << d h: a shift, where a
    # product with c's packed value costs a pass over v per 30 bits of it.
    norm_c = _norms([cval.coeffs])[0]
    majorant = max(_walk(_norms(a), functools.partial(mul, norm_c), exponent, add))

    def kernel(h, packed):
        terms = [(d * h, x) for d, x in _terms(cval.coeffs)]
        return _walk(
            packed, lambda v: sum([v << s if x == 1 else x * v << s for s, x in terms]), exponent
        )

    return TruncatedSeries(_kronecker(kernel, [a], majorant, _offsets([a], order)))


def motzkin_series(cval: RingElement, order: int) -> TruncatedSeries:
    """A(x) with constant level weight cval, to the given order.

    Coefficient n equals the triangle entry a[n][0] for the constant spec.
    """
    return motzkin_power(cval, 1, order)
