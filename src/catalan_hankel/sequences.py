"""Weight sequences, the shift operator E, and the Catalan-like triangle.

A weight sequence s assigns a ring element s_k to every height k >= 0.
The triangle a[n][k] grows by the three-term step

    a[n][k] = a[n-1][k-1] + s_k * a[n-1][k] + a[n-1][k+1]

from a[0][k] = [k == 0], which counts weighted 3-step lattice paths
(up/down/level, level steps at height j weighing s_j).  One reader builds
it: ``columns`` streams the columns a determinant or a dump needs, holding
one row at a time, and ``admissible_table`` is the rows of every column,
for printing the whole triangle.

The step runs on ints only.  When a weight holds c, ``columns`` runs it
through ``ring._kronecker``, which owns the packing, with a majorant and the
entries' parity in c.  The step never divides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ring import C, Polynomial, RingElement, _coeffs, _kronecker, _norms, render


class WeightSpec:
    """Base for weight-sequence descriptions; subclasses define at(k)."""

    def at(self, k: int) -> RingElement:
        raise NotImplementedError

    def describe(self) -> str:
        """Text form accepted by parse_weight_spec (for int / c entries)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(WeightSpec):
    """s_k = value for every k."""

    value: RingElement

    def at(self, k):
        if k < 0:
            raise ValueError("weight index must be >= 0")
        return self.value

    def describe(self):
        return f"const:{render(self.value)}"


@dataclass(frozen=True)
class Explicit(WeightSpec):
    """A stored prefix followed by a constant tail (default 0)."""

    values: tuple
    tail: RingElement = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def at(self, k):
        if k < 0:
            raise ValueError("weight index must be >= 0")
        return self.values[k] if k < len(self.values) else self.tail

    def describe(self):
        body = ",".join(render(v) for v in self.values)
        return f"explicit:{body};tail={render(self.tail)}"


@dataclass(frozen=True)
class Shifted(WeightSpec):
    """The base sequence with the first `offset` entries dropped.

    A Shifted base is unwrapped, its offset added, so no spec nests and
    neither ``at`` nor ``describe`` recurses more than once.
    """

    base: WeightSpec
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("shift offset must be >= 0")
        if isinstance(self.base, Shifted):
            object.__setattr__(self, "offset", self.offset + self.base.offset)
            object.__setattr__(self, "base", self.base.base)

    def at(self, k):
        if k < 0:
            raise ValueError("weight index must be >= 0")
        return self.base.at(k + self.offset)

    def describe(self):
        return f"shift^{self.offset}:{self.base.describe()}"


def shift(w: WeightSpec) -> WeightSpec:
    """One application of E: (s_0, s_1, ...) -> (s_1, s_2, ...)."""
    if isinstance(w, Constant):
        return w
    return Shifted(w, 1)


def _next_row(prev: tuple, weights) -> tuple:
    """Row n + 1 from row n of the triangle, one entry per height below
    len(prev) + 1 and len(weights): zero padding stands for the entries
    below height 0 and beyond the row's end."""
    padded = (0,) + prev + (0, 0)
    return tuple(
        a + s * b + c for a, s, b, c in zip(padded, weights, padded[1:], padded[2:])
    )


def _columns(weights: list, ks: list, depth: int) -> dict:
    # a[r][k] = 0 for r < k, so column k starts with k zeros and row r is
    # read only at k <= r; row r keeps only heights up to max(ks) + depth - r
    # (see columns)
    out = {k: [0] * min(k, depth + 1) for k in ks}
    live = sorted(out.items())
    reach = max(ks, default=0) + depth
    row = (1,)
    for r in range(depth + 1):
        if r:
            row = _next_row(row, weights[: reach - r + 1])
        for k, values in live:
            if k > r:
                break
            values.append(row[k])
    return out


def admissible_table(w: WeightSpec, max_n: int) -> tuple:
    """The whole triangle as rows 0..max_n; row n holds a[n][0..n], read off
    ``columns`` of every height."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    cols = columns(w, range(max_n + 1), max_n)
    return tuple(row[: n + 1] for n, row in enumerate(zip(*cols.values())))


def columns(w: WeightSpec, ks, depth: int) -> dict:
    """{k: [a[0][k], ..., a[depth][k]]} for each k in ks, one row at a time.

    Row r keeps only heights up to max(ks) + depth - r: a higher entry is
    further above every requested column than there are rows left, so it
    cannot reach one.  Memory is O(depth * len(ks)) plus one row.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ks = list(dict.fromkeys(ks))
    if any(k < 0 for k in ks):
        raise ValueError("column index must be >= 0")
    weights = [w.at(h) for h in range(depth + 1)]
    if Polynomial not in map(type, weights):
        return _columns(weights, ks, depth)

    def flat(ws):
        # a[r][k] for r >= k only: the zeros above them are not packed
        return [v for k, values in _columns(ws, ks, depth).items() for v in values[k:]]

    # Over Z[c] the step runs at c = 2**h.  The majorant is the step run on
    # the weights' norms: the norm of an entry is at most the sum over its
    # paths of the products of their level weights' norms.  When every
    # weight holds only powers c^d with d = s (mod 2), a[r][k] holds only
    # d = s (r - k) (mod 2).
    cs = list(map(_coeffs, weights))
    parity = [s for s in (0, 1) if not any(any(v[1 - s :: 2]) for v in cs)]
    offsets = [parity[0] * (r - k) % 2 for k in ks for r in range(k, depth + 1)] if parity else None
    majorant = max(flat(_norms(cs)), default=0)
    entries = iter(_kronecker(lambda h, ws: flat(ws), [cs], majorant, offsets))
    zero = Polynomial()
    return {
        k: [zero] * min(k, depth + 1) + [next(entries) for _ in range(k, depth + 1)] for k in ks
    }


_SHIFT_RE = re.compile(r"^shift(?:\^(\d+))?$")


def _parse_value(token: str) -> RingElement:
    token = token.strip()
    if token == "c":
        return C
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad weight value {token!r}: expected an integer or 'c'") from None


def parse_weight_spec(text: str) -> WeightSpec:
    """Parse 'const:1', 'const:c', 'explicit:1,0;tail=0', 'shift^2:<spec>'.

    Any number of shift prefixes is read in one loop, their offsets summed
    into one Shifted; an error names the text after the prefixes read.
    """
    offsets = []
    while True:
        head, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"bad weight spec {text!r}: missing ':'")
        head = head.strip()
        m = _SHIFT_RE.match(head)
        if not m:
            break
        offsets.append(int(m.group(1) or 1))
        text = rest
    if head == "const":
        w: WeightSpec = Constant(_parse_value(rest))
    elif head == "explicit":
        body, _, tail_part = rest.partition(";")
        tail: RingElement = 0
        if tail_part:
            key, eq, tail_value = tail_part.partition("=")
            if key.strip() != "tail" or not eq:
                raise ValueError(f"bad weight spec {text!r}: expected ';tail=<value>'")
            tail = _parse_value(tail_value)
        # an empty prefix has no values; an empty value inside one would
        # shift every later height
        values = [_parse_value(tok) for tok in body.split(",")] if body.strip() else []
        w = Explicit(tuple(values), tail)
    else:
        raise ValueError(
            f"bad weight spec {text!r}: expected const:, explicit:, or shift^j: prefix"
        )
    return Shifted(w, sum(offsets)) if offsets else w
