"""Brute-force oracles, deliberately independent of the library's algorithms."""

from catalan_hankel.hankel import InternalDivisionError
from catalan_hankel.ring import NotDivisibleError, RingElement, exact_div
from catalan_hankel.sequences import WeightSpec
from catalan_hankel.series import TruncatedSeries

#: Path enumeration is exponential; refuse lengths beyond this.
ORACLE_LIMIT = 14


class TooLargeError(ValueError):
    """Path enumeration was asked for a length beyond ORACLE_LIMIT."""


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        entry = rows[0][j]
        if entry == 0:
            continue
        minor = [list(row[:j]) + list(row[j + 1 :]) for row in rows[1:]]
        term = entry * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def perm_sign(perm):
    """Sign of a permutation by counting inversions."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def hankel_rows(table, m, k, n):
    """The n x n matrix (a[i+j+m][k]) read straight off ``table.rows``;
    rows below 0 and columns beyond a row's end read 0."""

    def entry(r):
        return table.rows[r][k] if 0 <= r and k <= r else 0

    return [[entry(i + j + m) for j in range(n)] for i in range(n)]


def det_bareiss_per_size(rows) -> RingElement:
    """Exact determinant by Bareiss one-step elimination of this size only.

    A zero pivot is repaired by swapping in the first lower row with a
    nonzero entry in the pivot column (flipping the sign); if none exists
    the determinant is 0.  The empty matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    rows = [list(row) for row in rows]
    sign = 1
    prev: RingElement = 1
    for p in range(n - 1):
        if rows[p][p] == 0:
            for r in range(p + 1, n):
                if rows[r][p] != 0:
                    rows[p], rows[r] = rows[r], rows[p]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[p][p]
        for i in range(p + 1, n):
            left = rows[i][p]
            for j in range(p + 1, n):
                value = pivot * rows[i][j] - left * rows[p][j]
                try:
                    rows[i][j] = exact_div(value, prev)
                except NotDivisibleError as exc:
                    raise InternalDivisionError(
                        f"inexact division at elimination step {p}"
                    ) from exc
        prev = pivot
    result = rows[n - 1][n - 1]
    return result if sign > 0 else -result


def motzkin_series_quadratic(cval: RingElement, order: int) -> TruncatedSeries:
    """A(x) with constant level weight cval, to the given order.

    Coefficient recurrence from A = 1 + c*x*A + x^2*A^2:
    a_0 = 1, a_n = c*a_{n-1} + sum_{j=0}^{n-2} a_j a_{n-2-j}.
    Coefficient n equals the triangle entry a[n][0] for the constant spec.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs: list = [1]
    for n in range(1, order):
        acc = cval * coeffs[n - 1]
        for j in range(n - 1):
            acc = acc + coeffs[j] * coeffs[n - 2 - j]
        coeffs.append(acc)
    return TruncatedSeries(coeffs)


def paths_oracle(w: WeightSpec, n: int, k: int) -> RingElement:
    """Weight of all up/down/level paths of length n from height 0 to k.

    Exhaustive enumeration, independent of the triangle recurrence; the
    guard keeps the 3**n search tractable.
    """
    if n < 0 or k < 0:
        raise ValueError("length and height must be >= 0")
    if n > ORACLE_LIMIT:
        raise TooLargeError(f"path length {n} exceeds oracle limit {ORACLE_LIMIT}")
    total = 0

    def walk(steps, height, weight):
        nonlocal total
        if abs(height - k) > steps:
            return
        if steps == 0:
            total += weight
            return
        walk(steps - 1, height + 1, weight)
        if height > 0:
            walk(steps - 1, height - 1, weight)
        walk(steps - 1, height, weight * w.at(height))

    walk(n, 0, 1)
    return total
