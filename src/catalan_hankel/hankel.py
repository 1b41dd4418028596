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
A Hankel matrix is symmetric, and so is every stage of its elimination,
each entry being a bordered minor; the one kernel, ``_minors``, takes a
symmetric matrix and nothing else, updates one triangle per step, about
n^3/6 ring operations instead of n^3/3, and steps over a zero pivot with a
symmetric 2 x 2 block, so the symmetry, the minors' signs and the small
pivots of a zero prefix all survive.
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


def _pair_step(rows, p: int, r: int, prev):
    """Steps p and p + 1 of the symmetric elimination at once, when pivot
    (p, p) is 0 and (p, r) is the first nonzero entry right of it; returns
    the pivot for step p + 2.  Only the upper triangle (j >= i) is read or
    written.

    Indices p + 1 and r are exchanged first, rows and columns alike, so the
    leading 2 x 2 block is [[0, x], [x, y]] with x != 0.  Then each entry
    becomes the bordered minor on rows 0..p+1, i and columns 0..p+1, j:
    Sylvester's identity makes it the 3 x 3 determinant of the block
    bordered by row i and column j, divided by prev squared, and the next
    pivot is the block's determinant -x^2 divided by prev.
    """
    n = len(rows)
    a, b = p + 1, r
    top, ra, rb = rows[p], rows[a], rows[b]
    top[a], top[b] = top[b], top[a]
    ra[a], rb[b] = rb[b], ra[a]
    ra[b + 1 :], rb[b + 1 :] = rb[b + 1 :], ra[b + 1 :]
    for j in range(a + 1, b):
        ra[j], rows[j][b] = rows[j][b], ra[j]
    x, y = top[a], ra[a]
    square = prev * prev
    for i in range(a + 1, n):
        row = rows[i]
        u, v = top[i], ra[i]
        for j in range(i, n):
            minor = x * (u * ra[j] + v * top[j] - x * row[j]) - y * u * top[j]
            row[j], rem = divmod(minor, square)
            if rem:
                raise NotDivisibleError(f"remainder {rem}")
    pivot, rem = divmod(-x * x, prev)
    if rem:
        raise NotDivisibleError(f"remainder {rem}")
    return pivot


def _minors(rows) -> list:
    """Determinants of the leading s x s blocks, s = 0..n, of the symmetric
    matrix ``rows``, in one elimination that overwrites the lists it is given.
    Symmetry is assumed, not checked; only the upper triangle is read.

    One Bareiss pass.  The pivot before step p is the minor of size p + 1
    (Sylvester's identity), and entry (i, j) is the minor on rows 0..p-1, i
    and columns 0..p-1, j.  Every stage is symmetric in i and j, so each step
    updates only j >= i, reading the pivot column off the pivot row.  A zero
    pivot is repaired by ``_pair_step`` from the first nonzero entry (p, r)
    right of it: p + 1 and r trade places as rows and as columns, and steps p
    and p + 1 run together on the 2 x 2 block, whose determinant -x^2 is
    never 0.  A block of size at most r then has a zero row, so its minor is
    0; the horizon is the largest such r so far.  A larger block sees p + 1
    and r permuted in its rows and its columns alike, so no minor changes
    sign.  With no nonzero entry right of the pivot, every larger minor is
    0.  The empty block has minor 1.  (Exchanging p and r instead would make
    entry (r, r) the pivot; down a Hankel matrix's zero prefix that is a term
    twice as deep, and the entries it brings grow hundreds of bits where the
    pair's stay small.)
    """
    n = len(rows)
    minors: list = [1]
    horizon = 0
    prev: RingElement = 1
    p = 0
    try:
        while p < n:
            top = rows[p]
            pivot = top[p]
            minors.append(0 if p < horizon else pivot)
            if pivot == 0:
                for r in range(p + 1, n):
                    if top[r] != 0:
                        break
                else:
                    return minors + [0] * (n - 1 - p)
                horizon = max(horizon, r)
                prev = _pair_step(rows, p, r, prev)
                minors.append(0 if p + 1 < horizon else prev)
                p += 2
                continue
            for i in range(p + 1, n):
                row = rows[i]
                left = top[i]
                for j in range(i, n):
                    row[j], rem = divmod(pivot * row[j] - left * top[j], prev)
                    if rem:
                        raise NotDivisibleError(f"remainder {rem}")
            prev = pivot
            p += 1
    except NotDivisibleError as exc:
        raise InternalDivisionError(f"inexact division at elimination step {p}") from exc
    return minors


def det_fraction_free(rows) -> RingElement:
    """Exact determinant of a symmetric matrix: its last leading minor.

    The package itself reaches the elimination only through
    ``hankel_minors``; this name stays for callers outside it, such as the
    benchmark's tracer.  Raises ValueError unless ``rows`` is square and
    symmetric.
    """
    rows = [list(row) for row in rows]
    if any(len(row) != len(rows) for row in rows) or rows != [list(c) for c in zip(*rows)]:
        raise ValueError("matrix must be square and symmetric")
    return _minors(rows)[-1]


def hankel_minors(terms, n: int) -> list:
    """Leading minors, sizes 0..n, of the n x n matrix (terms[i+j]).

    Needs the 2n - 1 terms terms[0..2n-2]; later terms are ignored.
    """
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    if len(terms) < 2 * n - 1:
        raise ValueError(f"size {n} needs {2 * n - 1} terms, got {len(terms)}")
    terms = list(terms)  # its slices are fresh lists the kernel may overwrite
    return _minors([terms[i : i + n] for i in range(n)])


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
