"""Hankel matrices of sequences and their exact determinants.

Every determinant in the paper is a Hankel determinant: the n x n matrix
whose (i, j) entry is term i+j of a sequence.  ``hankel_minors`` is the one
place that builds such a matrix.  D(m, k, n) takes the terms a[t+m][k] of a
shifted triangle column (``column_dets``, on a column streamed by
``sequences.columns``); the shift m may be negative, in which case terms
at negative row indices are 0.  One fraction-free (Bareiss) elimination of
the largest matrix yields every size 0..n together: by Sylvester's identity
each pivot is a leading principal minor.  Every intermediate stays in the
coefficient ring.  Each elimination step is one ``divmod`` whose remainder
must be zero, the same code for ints (the builtin, with no Python-level
call) and Polynomials; a nonzero remainder, or a leading coefficient that
does not divide, raises InternalDivisionError.
"""

from __future__ import annotations

from .ring import NotDivisibleError, RingElement
from .sequences import WeightSpec, columns


class InternalDivisionError(RuntimeError):
    """An elimination division was not exact; the state is corrupted."""


def leading_minors(rows) -> list:
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
    rows = [list(row) for row in rows]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
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
                    row[j], rem = divmod(pivot * row[j] - left * top[j], prev)
                    if rem:
                        raise NotDivisibleError(f"remainder {rem}")
        except NotDivisibleError as exc:
            raise InternalDivisionError(
                f"inexact division at elimination step {p}"
            ) from exc
        prev = pivot
    return minors


def det_fraction_free(rows) -> RingElement:
    """Exact determinant: the last of the matrix's leading minors."""
    return leading_minors(rows)[-1]


def hankel_minors(terms, n: int) -> list:
    """Leading minors, sizes 0..n, of the n x n matrix (terms[i+j]).

    Needs the 2n - 1 terms terms[0..2n-2]; later terms are ignored.
    """
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    if len(terms) < 2 * n - 1:
        raise ValueError(f"size {n} needs {2 * n - 1} terms, got {len(terms)}")
    return leading_minors([terms[i : i + n] for i in range(n)])


def column_dets(col, m: int, n_max: int) -> list:
    """[D(m, k, n) for n = 0..n_max] from col = [a[0][k], a[1][k], ...].

    The terms are col[t + m], 0 where t + m < 0; col needs the entries up
    to row 2(n_max - 1) + m.
    """
    zeros = min(max(-m, 0), 2 * n_max)
    return hankel_minors([0] * zeros + col[max(m, 0) :], n_max)


def hankel_dets(w: WeightSpec, m: int, k: int, n_max: int) -> list:
    """[D(m, k, n) for n = 0..n_max] from one column and one elimination."""
    if n_max < 0:
        raise ValueError("matrix size must be >= 0")
    if n_max == 0:
        return [1]
    depth = max(0, 2 * (n_max - 1) + m)
    return column_dets(columns(w, [k], depth)[k], m, n_max)


def hankel_det(w: WeightSpec, m: int, k: int, n: int) -> RingElement:
    """D(m, k, n) for weights w."""
    return hankel_dets(w, m, k, n)[n]
