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
Every intermediate stays in the coefficient ring, and every division must
be exact.  Over the ints each entry is one builtin ``divmod`` inline, its
remainder checked, unless the previous pivot is 1 or -1: most of the
paper's minors are, and such a step divides nothing, its sign folded into
the multipliers once.  A matrix over Z[c] (``hankel_minors`` decides from
its 2n - 1 terms) is converted once to int coefficient lists, the int
form of Z[c] that ``ring`` owns with its product and exact quotient, and
the Z[c] step builds no Polynomial per entry: each numerator is one int
list, then one exact division by the previous pivot (or its square, in a
pair step); only the minors are returned as Polynomials.  A nonzero
remainder, or a leading coefficient that does not divide, raises
InternalDivisionError.
"""

from __future__ import annotations

from .ring import (
    NotDivisibleError,
    Polynomial,
    RingElement,
    _coeffs,
    _convolve,
    _exact_div,
    _poly_from_list,
    _terms,
)
from .sequences import WeightSpec, columns


class InternalDivisionError(RuntimeError):
    """An elimination division was not exact; the state is corrupted."""


def _exchange(rows, p: int, r: int) -> None:
    """Exchange indices p + 1 and r of the symmetric matrix ``rows``, rows
    and columns alike, in its upper triangle (j >= i)."""
    a, b = p + 1, r
    top, ra, rb = rows[p], rows[a], rows[b]
    top[a], top[b] = top[b], top[a]
    ra[a], rb[b] = rb[b], ra[a]
    ra[b + 1 :], rb[b + 1 :] = rb[b + 1 :], ra[b + 1 :]
    for j in range(a + 1, b):
        ra[j], rows[j][b] = rows[j][b], ra[j]


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
    pivot is the block's determinant -x^2 divided by prev.  With u = (p, i)
    and v = (p + 1, i) that minor is x u (p + 1, j) + (x v - y u) (p, j)
    - x^2 (i, j): three multipliers per row.  When prev squared is 1 the
    entries are not divided; the next pivot always is, its remainder
    checked.
    """
    _exchange(rows, p, r)
    n = len(rows)
    a = p + 1
    top, ra = rows[p], rows[a]
    x, y = top[a], ra[a]
    x2 = x * x
    square = prev * prev
    for i in range(a + 1, n):
        row = rows[i]
        u, v = top[i], ra[i]
        xu, xv_yu = x * u, x * v - y * u
        if square == 1:
            for j in range(i, n):
                row[j] = xu * ra[j] + xv_yu * top[j] - x2 * row[j]
        else:
            for j in range(i, n):
                row[j], rem = divmod(xu * ra[j] + xv_yu * top[j] - x2 * row[j], square)
                if rem:
                    raise NotDivisibleError(f"remainder {rem}")
    pivot, rem = divmod(-x2, prev)
    if rem:
        raise NotDivisibleError(f"remainder {rem}")
    return pivot


# -- Z[c] ----------------------------------------------------------------------
#
# A matrix over Z[c] holds each entry as its coefficient list (ring._coeffs),
# and each factor is read as its terms once per step or row.  Each new
# entry's numerator is one ring._convolve, which sizes the product itself,
# and one ring._exact_div by prev (or prev squared), which trims any top
# coefficients that cancel, makes it the entry.


def _step_zc(rows, p: int, prev: list) -> None:
    """Step p over Z[c]: (i, j) becomes (pivot (i, j) - (p, i) (p, j)) / prev."""
    n = len(rows)
    top = rows[p]
    tops = [_terms(v) for v in top]
    pivot, den = tops[p], _terms(prev)
    for i in range(p + 1, n):
        row = rows[i]
        left = _terms(top[i], -1)
        for j in range(i, n):
            row[j] = _exact_div(_convolve((pivot, left), (_terms(row[j]), tops[j])), den)


def _pair_step_zc(rows, p: int, r: int, prev: list) -> list:
    """``_pair_step`` over Z[c], in the same three-multiplier form."""
    _exchange(rows, p, r)
    n = len(rows)
    a = p + 1
    top, ra = rows[p], rows[a]
    tops, ras = [_terms(v) for v in top], [_terms(v) for v in ra]
    x, minus_y, before = tops[a], _terms(ra[a], -1), _terms(prev)
    minus_x2 = _convolve((_terms(top[a], -1),), (x,))
    square = _terms(_convolve((before,), (before,)))
    minus_x2_terms = _terms(minus_x2)
    for i in range(a + 1, n):
        row = rows[i]
        xu = _terms(_convolve((x,), (tops[i],)))
        xv_yu = _terms(_convolve((x, minus_y), (ras[i], tops[i])))
        for j in range(i, n):
            minor = _convolve((xu, xv_yu, minus_x2_terms), (ras[j], tops[j], _terms(row[j])))
            row[j] = _exact_div(minor, square)
    return _exact_div(minus_x2, before)


def _minors(rows) -> list:
    """Determinants of the leading s x s blocks, s = 0..n, of the symmetric
    matrix ``rows``, in one elimination that overwrites the lists it is given.
    Symmetry is assumed, not checked; only the upper triangle is read.  The
    entries are ints, or, for a matrix over Z[c], all coefficient lists
    (entry (0, 0) tells which), and then the minors come back as Polynomials.

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

    Over the ints, dividing by a previous pivot of 1 or -1 is multiplying by
    it, so such a step divides nothing: (i, j) becomes
    (pivot prev) (i, j) - ((p, i) prev) (p, j), each product with prev taken
    once per step or row.  Any other pivot divides every entry, its
    remainder checked.
    """
    n = len(rows)
    zc = n > 0 and type(rows[0][0]) is list
    minors: list = [1]
    horizon = 0
    prev = [1] if zc else 1
    p = 0
    try:
        while p < n:
            top = rows[p]
            pivot = top[p]
            minors.append(0 if p < horizon else pivot)
            if not pivot:
                for r in range(p + 1, n):
                    if top[r]:
                        break
                else:
                    minors += [0] * (n - 1 - p)
                    break
                horizon = max(horizon, r)
                prev = (_pair_step_zc if zc else _pair_step)(rows, p, r, prev)
                minors.append(0 if p + 1 < horizon else prev)
                p += 2
                continue
            if zc:
                _step_zc(rows, p, prev)
            elif prev == 1 or prev == -1:
                scaled = pivot * prev
                for i in range(p + 1, n):
                    row = rows[i]
                    left = top[i] * prev
                    for j in range(i, n):
                        row[j] = scaled * row[j] - left * top[j]
            else:
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
    return [_poly_from_list(v) if type(v) is list else v for v in minors] if zc else minors


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
    if any(isinstance(v, Polynomial) for row in rows for v in row):
        rows = [[_coeffs(v) for v in row] for row in rows]
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
    if Polynomial in map(type, terms[: 2 * n - 1]):
        terms = [_coeffs(v) for v in terms[: 2 * n - 1]]
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
