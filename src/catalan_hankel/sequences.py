"""Weight sequences, the shift operator E, and the Catalan-like triangle.

A weight sequence s assigns a ring element s_k to every height k >= 0.
The triangle a[n][k] grows by the three-term step

    a[n][k] = a[n-1][k-1] + s_k * a[n-1][k] + a[n-1][k+1]

from a[0][k] = [k == 0], which counts weighted 3-step lattice paths
(up/down/level, level steps at height j weighing s_j).  Two readers share
the one row step: ``columns`` streams the few columns a determinant or a
dump needs, holding one row at a time, and ``admissible_table`` keeps every
row, for printing the whole triangle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ring import C, RingElement, render


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
    """The base sequence with the first `offset` entries dropped."""

    base: WeightSpec
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("shift offset must be >= 0")

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
    if isinstance(w, Shifted):
        return Shifted(w.base, w.offset + 1)
    return Shifted(w, 1)


def _next_row(prev: tuple, weights) -> tuple:
    """Row n + 1 from row n of the triangle, one entry per height below
    len(prev) + 1 and len(weights): zero padding stands for the entries
    below height 0 and beyond the row's end."""
    padded = (0,) + prev + (0, 0)
    return tuple(
        a + s * b + c for a, s, b, c in zip(padded, weights, padded[1:], padded[2:])
    )


def admissible_table(w: WeightSpec, max_n: int) -> tuple:
    """The whole triangle as rows 0..max_n; row n holds a[n][0..n]."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    weights = [w.at(k) for k in range(max_n + 1)]
    rows = [(1,)]
    for _ in range(max_n):
        rows.append(_next_row(rows[-1], weights))
    return tuple(rows)


def columns(w: WeightSpec, ks, depth: int) -> dict:
    """{k: [a[0][k], ..., a[depth][k]]} for each k in ks, one row at a time.

    Row r keeps only heights up to max(ks) + depth - r: a higher entry is
    further above every requested column than there are rows left, so it
    cannot reach one.  Memory is O(depth * len(ks)) plus one row.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out = {k: [] for k in ks}
    if any(k < 0 for k in out):
        raise ValueError("column index must be >= 0")
    reach = max(out, default=0) + depth
    weights = [w.at(h) for h in range(depth + 1)]
    row = (1,)
    for r in range(depth + 1):
        if r:
            row = _next_row(row, weights[: reach - r + 1])
        for k, values in out.items():
            values.append(row[k] if k < len(row) else 0)
    return out


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
    """Parse 'const:1', 'const:c', 'explicit:1,0;tail=0', 'shift^2:<spec>'."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad weight spec {text!r}: missing ':'")
    head = head.strip()
    if head == "const":
        return Constant(_parse_value(rest))
    if head == "explicit":
        body, _, tail_part = rest.partition(";")
        tail: RingElement = 0
        if tail_part:
            key, eq, tail_value = tail_part.partition("=")
            if key.strip() != "tail" or not eq:
                raise ValueError(f"bad weight spec {text!r}: expected ';tail=<value>'")
            tail = _parse_value(tail_value)
        values = [_parse_value(tok) for tok in body.split(",") if tok.strip()]
        return Explicit(tuple(values), tail)
    m = _SHIFT_RE.match(head)
    if m:
        offset = int(m.group(1)) if m.group(1) else 1
        return Shifted(parse_weight_spec(rest), offset)
    raise ValueError(
        f"bad weight spec {text!r}: expected const:, explicit:, or shift^j: prefix"
    )
