"""Exact scalar arithmetic: big integers and dense polynomials in the symbol c.

Every quantity in this package is a *ring element*: either a plain Python
int (the ring of integers) or a :class:`Polynomial` (integer-coefficient
polynomials in one symbol, rendered as ``c``).  The two kinds mix freely in
``+ - *`` and ``divmod`` expressions.  There is one division algorithm:
``divmod`` is the builtin one on ints and long division in Z[c] on
Polynomials (``_long_division``); it raises NotDivisibleError when a leading
coefficient does not divide (the quotient would leave Z[c]).
:func:`exact_div` is ``divmod`` followed by a check that the remainder is
zero, so a division that is not exact always fails loudly, whatever the
operand types.

This module owns every int form of Z[c] the kernels elsewhere run on:

- coefficient lists, lowest degree first, [] for zero (``_coeffs``), and
  their norms, the sum of the coefficients' sizes (``_norms``);
- terms, the nonzero (degree, value) pairs of a list (``_terms``), with the
  one coefficient-list product (``_convolve``, which ``Polynomial.__mul__``
  is: schoolbook, as most multipliers here are short or small, and sized
  from its factors, so no caller works out a length) and the one
  exact quotient (``_exact_div``), for the elimination over Z[c] and the
  P-recurrence of the Motzkin series;
- packed ints, an element's value at c = 2**h (Kronecker substitution),
  and the one driver, ``_kronecker``, that packs the operands of an int
  kernel which only adds and multiplies (the series products, reciprocals
  and Motzkin walk, and the triangle), runs it and reads its outputs back.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift, sub
from typing import Union


class NotDivisibleError(ArithmeticError):
    """Exact division left a nonzero remainder."""


# Kept only because perfbench/tracer.py reads it: every product is schoolbook.
_SCHOOLBOOK_CUTOFF = float("inf")


class Polynomial:
    """Dense univariate polynomial over the integers in the symbol c.

    ``coeffs[i]`` holds the coefficient of ``c**i``.  The tuple never ends
    in a zero; the zero polynomial stores the empty tuple.  Instances are
    immutable and hashable, and ints participate directly in arithmetic
    (coerced to constants).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through __setattr__
        return (type(self), (self.coeffs,))

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial((value,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-v for v in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] -= v
        return Polynomial(out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly_from_list(_convolve((_terms(self.coeffs),), (_terms(other.coeffs),)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers leave the polynomial ring")
        result = Polynomial((1,))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __divmod__(self, other):
        """(quotient, remainder) of long division in Z[c]; the remainder has
        lower degree than the divisor.

        Raises NotDivisibleError when a leading coefficient does not divide
        (the quotient would leave Z[c]), ZeroDivisionError for a zero divisor.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = other.coeffs
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = _long_division(rem, [(d, v) for d, v in enumerate(den) if v])
        return _poly_from_list(quot), Polynomial(rem[: len(den) - 1])

    def __rdivmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return divmod(other, self)

    def exact_div(self, divisor) -> "Polynomial":
        """Quotient self / divisor: ``divmod``, then a nonzero remainder
        raises NotDivisibleError.  See :func:`exact_div`."""
        return exact_div(self, divisor)

    def evaluate(self, point):
        """Horner evaluation at an int, or composition at a Polynomial."""
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = acc * point + coeff
        return acc

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"

    def __str__(self):
        # canonical ascending-power rendering, used verbatim in reports
        if not self.coeffs:
            return "0"
        parts = []
        for power, coeff in enumerate(self.coeffs):
            if coeff == 0:
                continue
            mag = abs(coeff)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "c" if mag == 1 else f"{mag}*c"
            else:
                body = f"c^{power}" if mag == 1 else f"{mag}*c^{power}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)


RingElement = Union[int, Polynomial]

#: The symbol c as a ring element.
C = Polynomial((0, 1))


def as_poly(value: RingElement) -> Polynomial:
    """Coerce an int to a constant Polynomial (Polynomials pass through)."""
    if isinstance(value, Polynomial):
        return value
    return Polynomial((value,))


def _poly_from_list(cs: list) -> Polynomial:
    """The Polynomial whose coefficients are the ints in cs, taking the list
    over: trailing zeros are popped off it in place and no copy is made."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Polynomial)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


# -- Z[c] as ints ----------------------------------------------------------------
#
# An element's coefficient list is replaced, never changed in place, except
# by the functions below that say they use one up.  Every factor of a
# product is read as its terms, once per step or row, so zero coefficients
# cost nothing.


def _coeffs(v: RingElement) -> list:
    """The coefficient list of a ring element."""
    return list(v.coeffs) if isinstance(v, Polynomial) else [v] if v else []


def _norms(cs) -> list:
    """The norm of each coefficient list in cs: the sum of its coefficients'
    sizes, which bounds the norm of a sum or product by the sum or product
    of its parts' norms."""
    return [sum(map(abs, v)) for v in cs]


def _terms(cs, scale: int = 1) -> list:
    """The nonzero terms of scale * cs as (degree, value) pairs."""
    return [(d, scale * x) for d, x in enumerate(cs) if x]


def _convolve(left, right) -> list:
    """The int coefficients of the sum of left[i] * right[i], each factor
    given as its terms, lowest degree first.  There are one more of them
    than the largest degree sum of a pair whose factors are both nonzero,
    and none when there is no such pair; top coefficients that cancel stay
    in the list as zeros (``_exact_div`` trims them)."""
    # a first plain loop sizes the sum: a list of the pairs, or growing acc
    # in the product loop, costs more on these short factors
    top = -1
    for ls, rs in zip(left, right):
        if ls and rs and ls[-1][0] + rs[-1][0] > top:
            top = ls[-1][0] + rs[-1][0]
    acc = [0] * (top + 1)
    for ls, rs in zip(left, right):
        if ls and rs:
            for dl, xl in ls:
                for dr, xr in rs:
                    acc[dl + dr] += xl * xr
    return acc


def _long_division(rem: list, den: list) -> list:
    """The quotient of the int coefficient lists rem / den in Z[c], den given
    as its terms and rem without trailing zeros; rem is left holding the
    remainder in its low deg(den) entries.  Raises NotDivisibleError when a
    leading coefficient does not divide."""
    k, lead = den[-1]
    low = den[:-1]
    quot = [0] * (len(rem) - k)
    for i in range(len(rem) - k - 1, -1, -1):
        top = rem[i + k]
        if top:
            q, r = divmod(top, lead)
            if r:
                raise NotDivisibleError(f"leading coefficient {top} not divisible by {lead}")
            quot[i] = q
            for d, v in low:
                rem[i + d] -= q * v
    return quot


def _exact_div(num: list, den: list) -> list:
    """num / den in Z[c], den given as its terms; num is used up.  Raises
    NotDivisibleError on a leading coefficient that does not divide and on
    a nonzero remainder."""
    while num and not num[-1]:
        num.pop()
    quot = _long_division(num, den)
    if any(num[: den[-1][0]]):
        raise NotDivisibleError(f"remainder {num[: den[-1][0]]}")
    return quot


# Putting c = 2**h maps Z[c] into Z and respects + and *, so a kernel that
# only adds and multiplies runs over Z[c] on its operands' values at
# c = 2**h, and each output is read back from its value as balanced base
# 2**h digits.  That is exact when every output coefficient is below
# 2**(h - 1) in size, so h comes from a majorant, a bound on every output's
# norm.  Parity in c halves h: when output i is c^r q(c^2) for r = offsets[i]
# (every term c^d has d = r mod 2), its value is 2**(h r) q(2**(2h)), and the
# digits of q in base 2**(2h) need only 2h bits (Harvey's multipoint
# Kronecker substitution).  An operand element c^r q(c^2) is then packed as
# q at 2**(2h), shifted by h r: the same value, half the terms to shift.


def _pack(cs, h: int) -> int:
    """The value at c = 2**h of the polynomial with int coefficients cs."""
    return sum(map(lshift, cs, range(0, h * len(cs), h)))


def _packing_h(bound: int, stride: int) -> int:
    """The h at which to pack when every coefficient read back is at most
    ``bound`` in size and every stride-th power of c is read: the digits,
    stride * h bits wide, hold bound and its sign, in whole bytes."""
    return -(-(bound.bit_length() + 1) // 8) * 8 // stride


def _unpack(values: list, h: int, offsets=None) -> list:
    """The Polynomials whose values at c = 2**h are ``values``, read as
    balanced digits: exact when every coefficient is below 2**(h - 1) in
    size.  With ``offsets``, value i is c^r q(c^2) for r = offsets[i], and q
    is read in base 2**(2h): each coefficient then needs only to be below
    2**(2h - 1).  h comes from _packing_h, so each digit is a whole number
    of bytes."""
    stride = 1 if offsets is None else 2
    width = stride * h
    size = width // 8
    # adding `halves`, every digit 2**(width - 1), turns the balanced digits
    # into plain ones, read off the value's bytes without carries; value
    # needs at most value.bit_length() // width + 2 digits
    half = 1 << (width - 1)
    top = max(map(int.bit_length, values), default=0) // width + 2
    halves = int.from_bytes(half.to_bytes(size, "little") * top, "little")
    cuts = [slice(i, i + size) for i in range(0, size * top, size)]
    out = []
    for value, offset in zip(values, repeat(0) if offsets is None else offsets):
        value >>= h * offset
        count = value.bit_length() // width + 2
        digits = (value + (halves >> width * (top - count))).to_bytes(size * count, "little")
        cs = [0] * (offset + stride * count)
        cs[offset::stride] = map(
            sub,
            map(int.from_bytes, map(digits.__getitem__, cuts[:count]), repeat("little")),
            repeat(half),
        )
        out.append(_poly_from_list(cs))
    return out


def _kronecker(kernel, operands: list, majorant: int, offsets=None) -> list:
    """The outputs of an int kernel over Z[c], as Polynomials.

    kernel(h, *values) computes with + and * alone; it runs on each operand
    (a list of coefficient lists) at c = 2**h, and gets h to multiply by
    powers of c with shifts.  No output's norm exceeds the int majorant.
    With ``offsets``, output i is c^r q(c^2) for r = offsets[i], and every
    operand element must hold only powers of c of one parity, which is read
    off the element.
    """
    h = _packing_h(majorant, 1 if offsets is None else 2)

    def pack(v):
        if offsets is None:
            return _pack(v, h)
        r = 0 if any(v[::2]) else 1
        return _pack(v[r::2], 2 * h) << h * r

    # the packed operands are the kernel's arguments alone, freed before
    # the outputs are read back
    return _unpack(kernel(h, *([pack(v) for v in cs] for cs in operands)), h, offsets)


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """Exact ring division a / b, the same for ints and Polynomials:
    ``divmod``, then a nonzero remainder raises NotDivisibleError.  A
    leading coefficient that does not divide raises it from ``divmod``; a
    zero divisor raises ZeroDivisionError."""
    q, r = divmod(a, b)
    if r:
        raise NotDivisibleError(f"{a} is not divisible by {b}")
    return q


def render(value: RingElement) -> str:
    """Canonical text form shared by reports and CLI output."""
    return str(value)


def parity_sign(m: int) -> int:
    """(-1)**(m*(m+1)/2): +1 exactly when m mod 4 is 0 or 3."""
    if m < 0:
        raise ValueError("parity_sign needs m >= 0")
    return -1 if (m * (m + 1) // 2) % 2 else 1
