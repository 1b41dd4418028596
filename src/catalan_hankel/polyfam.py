"""Fibonacci and Lucas polynomial families, univariate and two-argument.

F_n and L_n follow the signed recurrences F_n = c*F_{n-1} - F_{n-2}
(F_0 = 0, F_1 = 1) and L_n = c*L_{n-1} - L_{n-2} (L_0 = 2, L_1 = c).
The two-argument family L_n(x, s) = x*L_{n-1} + s*L_{n-2} (L_0 = 2,
L_1 = x) satisfies L_n(x+y, -x*y) = x^n + y^n; it is never stored as a
bivariate object here.  Its two consumers run the recurrence directly in
the target ring: scalar pairs for spot checks, and the substitution
(1 - c*x, -x^2) which lands in truncated series.
"""

from __future__ import annotations

from .ring import C, Polynomial, RingElement
from .series import TruncatedSeries

_FIB: list = [Polynomial(), Polynomial((1,))]
_LUC: list = [Polynomial((2,)), C]


def fibonacci_poly(n: int) -> Polynomial:
    """F_n; F_0 = 0, F_1 = 1, F_n = c*F_{n-1} - F_{n-2}."""
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_FIB) <= n:
        _FIB.append(C * _FIB[-1] - _FIB[-2])
    return _FIB[n]


def lucas_poly(n: int) -> Polynomial:
    """L_n; L_0 = 2, L_1 = c, L_n = c*L_{n-1} - L_{n-2}."""
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_LUC) <= n:
        _LUC.append(C * _LUC[-1] - _LUC[-2])
    return _LUC[n]


def _two_arg_lucas(two, x, s, n):
    """[L_0, ..., L_n](x, s), generic over any values supporting + and *."""
    out = [two, x][: n + 1]
    while len(out) <= n:
        out.append(x * out[-1] + s * out[-2])
    return out


def lucas_bivariate_eval(n: int, x: RingElement, s: RingElement) -> RingElement:
    """L_n(x, s) for scalar ring elements."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return _two_arg_lucas(2, x, s, n)[n]


def lucas_bivariate_upto(n: int, cval: RingElement, order: int) -> list:
    """[L_0, ..., L_n] evaluated at (1 - c*x, -x^2), as series modulo x**order.

    L_j is a polynomial in x of degree j (coefficients in the ring of cval),
    so one run of the recurrence on series of order min(order, n + 1) builds
    them all, and zeros fill the rest.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    t = min(order, n + 1)
    first = TruncatedSeries.monomial(1, t, coeff=-cval) + TruncatedSeries.one(t)
    second = TruncatedSeries.monomial(2, t, coeff=-1)
    pad = (0,) * (order - t)
    return [
        TruncatedSeries(v.coeffs + pad)
        for v in _two_arg_lucas(TruncatedSeries.constant(2, t), first, second, n)
    ]


def lucas_bivariate_at(n: int, cval: RingElement, order: int) -> TruncatedSeries:
    """L_n evaluated at (1 - c*x, -x^2), as a series modulo x**order."""
    return lucas_bivariate_upto(n, cval, order)[n]
