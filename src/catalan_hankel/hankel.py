"""Hankel matrices of sequences and their exact determinants.

Every determinant in the paper is a Hankel determinant: the n x n matrix
whose (i, j) entry is term i+j of a sequence.  ``hankel_minors`` is the one
place that builds such a matrix.  D(m, k, n) takes the terms a[t+m][k],
t = 0..2(n - 1), of a shifted triangle column, so it reads rows up to
2(n - 1) + m (``table_depth``); the shift m may be negative, in which case
terms at negative row indices are 0.  ``hankel_dets`` answers a list of
(m, k, n) requests from one ``sequences.columns`` call, to the deepest row
any of them reads, and one elimination per (m, k).  One fraction-free
(Bareiss) elimination of the largest matrix yields every size 0..n
together: by Sylvester's identity each pivot is a leading principal minor.
Every intermediate stays in the coefficient ring.  Each elimination step is
one ``divmod`` whose remainder must be zero, the same code for ints (the
builtin, with no Python-level call) and Polynomials; a nonzero remainder,
or a leading coefficient that does not divide, raises InternalDivisionError.
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


def table_depth(m: int, n: int) -> int:
    """The deepest triangle row D(m, k, n) reads: 2(n - 1) + m, or 0."""
    return max(0, 2 * (n - 1) + m)


def hankel_dets(w: WeightSpec, requests) -> dict:
    """{(m, k): [D(m, k, n) for n = 0..N]} for requests (m, k, n), N the
    largest n requested for (m, k): each (m, k) is eliminated once.

    All columns come from one ``columns`` call, as deep as the requests
    of size >= 1 read; a size-0 determinant reads nothing and is 1.
    """
    sizes: dict = {}
    for m, k, n in requests:
        if n < 0:
            raise ValueError("matrix size must be >= 0")
        sizes[m, k] = max(n, sizes.get((m, k), 0))
    depth = max((table_depth(m, n) for (m, _), n in sizes.items() if n), default=0)
    cols = columns(w, sorted({k for _, k in sizes}), depth)
    return {
        (m, k): hankel_minors([0] * min(max(-m, 0), 2 * n) + cols[k][max(m, 0) :], n)
        for (m, k), n in sizes.items()
    }


def hankel_det(w: WeightSpec, m: int, k: int, n: int) -> RingElement:
    """D(m, k, n) for weights w."""
    return hankel_dets(w, [(m, k, n)])[m, k][n]
