"""Truncated formal power series and the Motzkin-path generating function.

A TruncatedSeries stores exactly `order` coefficients and all arithmetic is
modulo x**order; combining series of different orders truncates to the
shorter one.  Coefficients are ring elements (ints or Polynomials in c) and
a series is kept homogeneous: one Polynomial coefficient coerces the rest.

Products and reciprocals build each output coefficient as one sum of
products.  Over the ints that is one builtin ``sum(map(mul, ...))`` per
coefficient, across the nonzero span of the operand whose span is shorter
(a monomial costs one product a coefficient).  Over Z[c] each operand's
coefficients are read once per call as lists of their nonzero (degree,
value) terms; coefficient n accumulates every term product of the pairs
i + j = n in one int list, which becomes a single Polynomial, so no partial
product is ever a Polynomial.

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

from operator import add, mul

from .ring import Polynomial, RingElement, _poly_from_list, as_poly, exact_div


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

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through __setattr__
        return (type(self), (self.coeffs,))

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
        a, b = self.coeffs[:t], other.coeffs[:t]
        if isinstance(a[0], Polynomial) or isinstance(b[0], Polynomial):
            return TruncatedSeries(_mul_zc([_terms(v) for v in a], [_terms(v) for v in b]))
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
        u = self.coeffs
        if isinstance(u0, Polynomial):
            return TruncatedSeries(_reciprocal_zc([_terms(v, -inv0) for v in u], inv0))
        out: list = [inv0]
        for n in range(1, len(u)):
            out.append(-inv0 * sum(map(mul, u[1 : n + 1], out[::-1])))
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


def _span(xs) -> tuple:
    """(lo, hi) such that xs[lo:hi] holds every nonzero entry; (0, 0) if none."""
    nz = [i for i, v in enumerate(xs) if v]
    return (nz[0], nz[-1] + 1) if nz else (0, 0)


def _mul_int(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two int series of one order.

    Each coefficient is one builtin sum over the nonzero span of the
    operand whose span is shorter, so a monomial or a short polynomial in x
    costs one short sum per coefficient and a dense product t**2 / 2
    multiplies at builtin speed.
    """
    t = len(a)
    (alo, ahi), (blo, bhi) = _span(a), _span(b)
    if ahi - alo > bhi - blo:
        a, b, alo, ahi, blo, bhi = b, a, blo, bhi, alo, ahi
    short = a[alo:ahi]
    # b's span reversed behind len(short) - 1 zeros: rev[top - n + i] is
    # b[blo + n - i], or 0 where that leaves the span; the window for n < i
    # runs off the end of rev, so map stops before those pairs
    rev = (0,) * (len(short) - 1) + b[blo:bhi][::-1]
    top = len(rev) - 1
    shift = alo + blo
    conv = [
        sum(map(mul, short, rev[top - n : top - n + len(short)]))
        for n in range(min(t - shift, len(rev)))
    ]
    return ([0] * shift + conv + [0] * t)[:t]


# -- Z[c] kernels -------------------------------------------------------------
#
# A coefficient in Z[c] is read as the list of (degree, value) pairs of its
# nonzero terms, once per call, so zero coefficients and zero terms cost
# nothing and no Polynomial is built for a partial product.  Coefficient n of
# a product is one int list holding the sum over i + j = n of every term
# product, wrapped as one Polynomial at the end.


def _terms(v: RingElement, scale: int = 1) -> list:
    """The nonzero terms of scale * v as (degree, value) pairs."""
    cs = v.coeffs if isinstance(v, Polynomial) else (v,)
    return [(d, scale * x) for d, x in enumerate(cs) if x]


def _degrees(terms: list) -> list:
    """Degree of each ring element given by its terms; -1 for zero."""
    return [ts[-1][0] if ts else -1 for ts in terms]


def _convolve(width: int, left, right) -> list:
    """The width int coefficients of the sum of left[i] * right[i]; width
    exceeds every degree sum of a nonzero pair (a width below 1 holds none)."""
    acc = [0] * width
    for ls, rs in zip(left, right):
        if ls and rs:
            for dl, xl in ls:
                for dr, xr in rs:
                    acc[dl + dr] += xl * xr
    return acc


def _mul_zc(ta: list, tb: list) -> list:
    """Coefficients of the product of two series given as term lists."""
    da, db = _degrees(ta), _degrees(tb)
    out = []
    for n in range(len(ta)):
        width = max(map(add, da[: n + 1], db[n::-1])) + 1
        out.append(_poly_from_list(_convolve(width, ta[: n + 1], tb[n::-1])))
    return out


def _reciprocal_zc(neg: list, inv0: int) -> list:
    """Coefficients of 1/u given neg = -inv0 * u as term lists and the unit
    inv0 = 1/u_0: v_n = sum_{j=1..n} neg_j v_{n-j}."""
    du = _degrees(neg)
    out = [as_poly(inv0)]
    done, dv = [[(0, inv0)]], [0]  # terms and degree of each of out
    for n in range(1, len(neg)):
        width = max(map(add, du[1 : n + 1], dv[::-1])) + 1
        v = _poly_from_list(_convolve(width, neg[1 : n + 1], done[::-1]))
        out.append(v)
        done.append(_terms(v))
        dv.append(len(v.coeffs) - 1)
    return out


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
