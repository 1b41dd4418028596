"""Hankel matrices of shifted triangle columns and their exact determinants.

D(m, k, n) is the determinant of the n x n matrix whose (i, j) entry is
a[i+j+m][k]; the shift m may be negative, in which case entries at negative
row indices are 0.  One fraction-free (Bareiss) elimination of the largest
matrix yields D(m, k, 0..n) together: by Sylvester's identity each pivot is
a leading principal minor.  Every intermediate stays in the coefficient
ring and every internal division is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import NotDivisibleError, RingElement, exact_div
from .sequences import WeightSpec, admissible_table, column


class InternalDivisionError(RuntimeError):
    """An elimination division was not exact; the state is corrupted."""


@dataclass(frozen=True)
class HankelSpec:
    """Shift m (any sign), column k >= 0, matrix size n >= 0."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("column index must be >= 0")
        if self.n < 0:
            raise ValueError("matrix size must be >= 0")


@dataclass(frozen=True)
class SquareMatrix:
    n: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows) -> "SquareMatrix":
        rows = tuple(tuple(row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return cls(len(rows), rows)

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]


def hankel_matrix(table, spec: HankelSpec) -> SquareMatrix:
    """Matrix of a[i+j+m][k] entries; negative row indices give 0."""
    return SquareMatrix.from_rows(
        [
            [column(table, spec.k, i + j + spec.m) for j in range(spec.n)]
            for i in range(spec.n)
        ]
    )


def leading_minors(matrix: SquareMatrix) -> list:
    """Determinants of the leading s x s blocks, s = 0..n, in one elimination.

    One Bareiss pass.  Up to the sign of the row swaps so far, the pivot
    before step p is the minor of size p + 1 (Sylvester's identity).  A
    zero pivot is repaired by swapping in the first lower row r with a
    nonzero entry in the pivot column, flipping the sign.  A block of size
    at most r then has a zero column after elimination, so its minor is 0;
    the horizon is the largest such r so far.  A larger block holds every
    swapped row and sees exactly this elimination.  With no row to swap
    in, every larger minor is 0.  The empty block has minor 1.
    """
    n = matrix.n
    rows = [list(row) for row in matrix.entries]
    minors: list = [1]
    sign = 1
    horizon = 0
    prev: RingElement = 1
    for p in range(n):
        pivot = rows[p][p]
        if p < horizon:
            minors.append(0)
        else:
            minors.append(pivot if sign > 0 else -pivot)
        if pivot == 0:
            for r in range(p + 1, n):
                if rows[r][p] != 0:
                    rows[p], rows[r] = rows[r], rows[p]
                    sign = -sign
                    horizon = max(horizon, r)
                    break
            else:
                return minors + [0] * (n - 1 - p)
            pivot = rows[p][p]
        top = rows[p]
        try:
            for row in rows[p + 1 :]:
                left = row[p]
                for j in range(p + 1, n):
                    row[j] = exact_div(pivot * row[j] - left * top[j], prev)
        except NotDivisibleError as exc:
            raise InternalDivisionError(
                f"inexact division at elimination step {p}"
            ) from exc
        prev = pivot
    return minors


def det_fraction_free(matrix: SquareMatrix) -> RingElement:
    """Exact determinant: the last of the matrix's leading minors."""
    return leading_minors(matrix)[-1]


def hankel_dets(w: WeightSpec, m: int, k: int, n_max: int) -> list:
    """[D(m, k, n) for n = 0..n_max] from one triangle and one elimination."""
    if n_max < 0:
        raise ValueError("matrix size must be >= 0")
    if n_max == 0:
        return [1]
    depth = max(0, 2 * (n_max - 1) + m)
    table = admissible_table(w, depth)
    return leading_minors(hankel_matrix(table, HankelSpec(m, k, n_max)))


def hankel_det(w: WeightSpec, m: int, k: int, n: int) -> RingElement:
    """D(m, k, n) for weights w."""
    return hankel_dets(w, m, k, n)[n]
