"""Truncated formal power series and the Motzkin-path generating function.

A TruncatedSeries stores exactly `order` coefficients and all arithmetic is
modulo x**order; combining series of different orders truncates to the
shorter one.  Coefficients are ring elements (ints or Polynomials in c) and
a series is kept homogeneous: one Polynomial coefficient coerces the rest.

The generating function A(x) = sum a_n x^n of weighted Motzkin paths with
constant level weight c satisfies A = 1 + c*x*A + x^2*A^2.  A is algebraic,
hence D-finite (Stanley 1980), and its coefficients obey the P-recurrence

    (n+2) a_n = c(2n+1) a_{n-1} - (c^2-4)(n-1) a_{n-2},   a_0 = 1, a_1 = c,

whose division by n+2 is exact over the ring.  Multiplying the quadratic by
A^j gives x^2 A^{j+2} = (1 - c*x) A^{j+1} - A^j for every integer j, a
linear recurrence that walks from A^0 = 1 and A^1 = A up to any positive
power or down to any reciprocal power.  motzkin_power combines the two, so
A^e costs O(order + |e| * order) ring operations; the closed radical form
is never used (square roots leave the ring).
"""

from __future__ import annotations

from .ring import Polynomial, RingElement, as_poly, exact_div


class NonUnitConstantTermError(ValueError):
    """Reciprocal requested for a series whose constant term is not +-1."""


class TruncatedSeries:
    """Coefficients c_0..c_{order-1} of a power series modulo x**order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series stores at least its constant term")
        if any(isinstance(v, Polynomial) for v in cs):
            cs = tuple(as_poly(v) for v in cs)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, value: RingElement, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * (order - 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def monomial(cls, power: int, order: int, coeff: RingElement = 1) -> "TruncatedSeries":
        """coeff * x**power, truncated (the zero series if power >= order)."""
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
        out = [0] * t
        for i, av in enumerate(self.coeffs[:t]):
            if av == 0:
                continue
            for j in range(t - i):
                bv = other.coeffs[j]
                if bv != 0:
                    out[i + j] = out[i + j] + av * bv
        return TruncatedSeries(out)

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
        out: list = [inv0]
        for n in range(1, self.order):
            acc = 0
            for j in range(1, n + 1):
                uj = self.coeffs[j]
                if uj != 0:
                    acc = acc + uj * out[n - j]
            out.append(-inv0 * acc)
        return TruncatedSeries(out)

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


def _motzkin_coeffs(cval: RingElement, order: int) -> list:
    """a_0..a_{order-1} of A by the P-recurrence; the n+2 divides exactly."""
    coeffs: list = [1, cval][:order]
    disc = cval * cval - 4
    for n in range(2, order):
        num = (2 * n + 1) * cval * coeffs[n - 1] - (n - 1) * disc * coeffs[n - 2]
        coeffs.append(exact_div(num, n + 2))
    return coeffs


def motzkin_power(cval: RingElement, exponent: int, order: int) -> TruncatedSeries:
    """A(x)**exponent with constant level weight cval, for any integer exponent.

    Uses x^2 A^{j+2} = (1 - c*x) A^{j+1} - A^j.  Going up, coefficient n of
    A^{j+2} is [x^{n+2}]A^{j+1} - c [x^{n+1}]A^{j+1} - [x^{n+2}]A^j, so each
    step loses two coefficients and A is computed to order + 2(exponent-1).
    Going down, A^j = (1 - c*x) A^{j+1} - x^2 A^{j+2} needs no extra terms.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if exponent >= 1:
        # hi = A^{j+1}, lo = A^j, starting from A^1 and A^0
        hi = _motzkin_coeffs(cval, order + 2 * (exponent - 1))
        lo = [1] + [0] * (len(hi) - 1)
        for _ in range(exponent - 1):
            up = [hi[n + 2] - cval * hi[n + 1] - lo[n + 2] for n in range(len(hi) - 2)]
            hi, lo = up, hi
        return TruncatedSeries(hi)
    # hi = A^{j+2}, lo = A^{j+1}, starting from A^1 and A^0
    hi = _motzkin_coeffs(cval, order)
    lo = [1] + [0] * (order - 1)
    for _ in range(-exponent):
        lo_x, hi_x2 = [0] + lo, [0, 0] + hi
        down = [lo[n] - cval * lo_x[n] - hi_x2[n] for n in range(order)]
        hi, lo = lo, down
    return TruncatedSeries(lo)


def motzkin_series(cval: RingElement, order: int) -> TruncatedSeries:
    """A(x) with constant level weight cval, to the given order.

    Coefficient n equals the triangle entry a[n][0] for the constant spec.
    """
    return motzkin_power(cval, 1, order)


def reciprocal_power_coeffs(cval: RingElement, k: int, order: int) -> tuple:
    """Coefficients b_0..b_{order-1} of 1 / A(x)**(k+1)."""
    if k < 0:
        raise ValueError("power index must be >= 0")
    return motzkin_power(cval, -(k + 1), order).coeffs
