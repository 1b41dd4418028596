"""Exact scalar arithmetic: big integers and dense polynomials in the symbol c.

Every quantity in this package is a *ring element*: either a plain Python
int (the ring of integers) or a :class:`Polynomial` (integer-coefficient
polynomials in one symbol, rendered as ``c``).  The two kinds mix freely in
``+ - *`` and ``divmod`` expressions.  Every product in Z[c] is the
schoolbook multiply: most multipliers here are short (``c * p``) or small,
where packing both factors into one big integer costs more than it saves.
There is one division algorithm: ``divmod`` is the builtin one on ints and
long division in Z[c] on Polynomials (``_long_division``, on int
coefficient lists, which the elimination over Z[c] calls directly); it
raises NotDivisibleError when a leading coefficient does not divide (the
quotient would leave Z[c]).
:func:`exact_div` is ``divmod`` followed by a check that the remainder is
zero, so a division that is not exact always fails loudly, whatever the
operand types.  ``_pack`` and ``_unpack`` put polynomials at c = 2**h and
read them back (Kronecker substitution), for the series kernels and the
triangle, which add and multiply packed ints but never divide them.
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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    out[i + j] += av * bv
        return Polynomial(out)

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
    size.  With ``offsets``, value i is c^r q(c^2) for r = offsets[i] (every
    term c^d has d = r mod 2), and q is read in base 2**(2h): each
    coefficient then needs only to be below 2**(2h - 1).  h comes from
    _packing_h, so each digit is a whole number of bytes.  The readers of
    packed series and triangle entries share it (see series._kronecker and
    sequences._packed)."""
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


def _long_division(rem: list, den: list) -> list:
    """The quotient of the int coefficient lists rem / den in Z[c], den given
    as its nonzero (degree, value) terms and rem without trailing zeros; rem
    is left holding the remainder in its low deg(den) entries.  Raises
    NotDivisibleError when a leading coefficient does not divide."""
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
