"""Brute-force oracles, deliberately independent of the library's algorithms."""

import functools

from catalan_hankel.hankel import InternalDivisionError
from catalan_hankel.ring import NotDivisibleError, Polynomial, RingElement, exact_div
from catalan_hankel.sequences import WeightSpec
from catalan_hankel.series import TruncatedSeries

#: Path enumeration is exponential; refuse lengths beyond this.
ORACLE_LIMIT = 14


class TooLargeError(ValueError):
    """Path enumeration was asked for a length beyond ORACLE_LIMIT."""


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion, each minor expanded once:
    a minor is fixed by the columns it keeps, so the work is O(n^2 2^n)
    ring operations rather than O(n!)."""
    n = len(rows)

    @functools.lru_cache(maxsize=None)
    def minor(cols):
        # the determinant of the last len(cols) rows on the columns cols
        if not cols:
            return 1
        row = rows[n - len(cols)]
        total = 0
        for pos, j in enumerate(cols):
            entry = row[j]
            if entry == 0:
                continue
            term = entry * minor(cols[:pos] + cols[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return minor(tuple(range(n)))


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
    """The n x n matrix (a[i+j+m][k]) read straight off the triangle's rows
    ``table[r]``; rows below 0 and columns beyond a row's end read 0."""

    def entry(r):
        return table[r][k] if 0 <= r and k <= r else 0

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


def leading_minors_row_swaps(rows) -> list:
    """Determinants of the leading s x s blocks, s = 0..n, in one elimination.

    One Bareiss pass.  Up to the sign of the row swaps so far, the pivot
    before step p is the minor of size p + 1 (Sylvester's identity).  A
    zero pivot is repaired by swapping in the first lower row r with a
    nonzero entry in the pivot column, flipping the sign.  A block of size
    at most r then has a zero column after elimination, so its minor is 0;
    the horizon is the largest such r so far.  A larger block holds every
    swapped row and sees exactly this elimination.  With no row to swap
    in, every larger minor is 0.  The empty block has minor 1.

    Updates the whole trailing square at every step, symmetric or not: the
    oracle for ``hankel.hankel_minors``, whose kernel takes symmetric
    matrices only and updates one triangle.
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


def _norm(v: RingElement) -> int:
    """The sum of the absolute values of v's coefficients in c."""
    return sum(map(abs, v.coeffs)) if isinstance(v, Polynomial) else abs(v)


def _at(v: RingElement, bits: int) -> int:
    """v at c = 2**bits."""
    coeffs = v.coeffs if isinstance(v, Polynomial) else (v,)
    return sum(value << (bits * d) for d, value in enumerate(coeffs))


def _digits(value: int, bits: int) -> Polynomial:
    """The polynomial whose value at c = 2**bits is value, every coefficient
    taken in [-2**(bits-1), 2**(bits-1))."""
    coeffs = []
    while value:
        digit = value & ((1 << bits) - 1)
        if digit >> (bits - 1):
            digit -= 1 << bits
        coeffs.append(digit)
        value = (value - digit) >> bits
    return Polynomial(coeffs)


def _over_zc(loop, majorant, *args) -> list:
    """loop(*args), a list of ring elements, when some entry is a Polynomial.

    Each arg is a ring element or a list of them.  loop only adds and
    multiplies, so it commutes with putting c = 2**bits (Kronecker
    substitution), and it runs on ints twice.  First on ``majorant``, the
    args with every entry replaced by its ``_norm`` and signed so that every
    term adds: since the norm of a sum or a product is at most the sum or the
    product of the norms, each value bounds every coefficient of the entry it
    stands for.  Then at c = 2**bits, one bit past that bound, where every
    coefficient is a digit of the value.
    """
    flat = [v for arg in args for v in (arg if isinstance(arg, list) else [arg])]
    if not any(isinstance(v, Polynomial) for v in flat):
        return loop(*args)
    bits = max(loop(*majorant)).bit_length() + 1
    at = [[_at(v, bits) for v in arg] if isinstance(arg, list) else _at(arg, bits) for arg in args]
    return [_digits(value, bits) for value in loop(*at)]


def _mul(a: list, b: list) -> list:
    out = [0] * len(a)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j in range(len(a) - i):
            bv = b[j]
            if bv != 0:
                out[i + j] = out[i + j] + av * bv
    return out


def series_mul_loops(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b modulo x**min(orders) by the double loop over coefficient pairs,
    skipping zero coefficients: the oracle for ``TruncatedSeries.__mul__``.
    Over Z[c] every coefficient product is one integer product
    (``_over_zc``)."""
    t = min(a.order, b.order)
    x, y = list(a.coeffs[:t]), list(b.coeffs[:t])
    return TruncatedSeries(_over_zc(_mul, ([_norm(v) for v in x], [_norm(v) for v in y]), x, y))


def series_pow_loops(a: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """a ** exponent (exponent >= 0) by repeated ``series_mul_loops``."""
    result = TruncatedSeries.one(a.order)
    for _ in range(exponent):
        result = series_mul_loops(result, a)
    return result


def _reciprocal(u: list) -> list:
    inv0 = u[0]  # +1 or -1: its own inverse
    out: list = [inv0]
    for n in range(1, len(u)):
        acc = 0
        for j in range(1, n + 1):
            uj = u[j]
            if uj != 0:
                acc = acc + uj * out[n - j]
        out.append(-inv0 * acc)
    return out


def series_reciprocal_loops(u: TruncatedSeries) -> TruncatedSeries:
    """1 / u modulo x**order, one coefficient at a time from u * v = 1: the
    oracle for ``TruncatedSeries.reciprocal``.  The constant term must be
    +1 or -1.  Over Z[c] every coefficient product is one integer product
    (``_over_zc``; the majorant is 1 / (1 - sum_j |u_j| x^j))."""
    u0 = u.coeffs[0]
    if u0 not in (1, -1):
        raise ValueError(f"constant term {u0} is not a unit (need +1 or -1)")
    majorant = [1] + [-_norm(v) for v in u.coeffs[1:]]
    return TruncatedSeries(_over_zc(_reciprocal, (majorant,), list(u.coeffs)))


def _quadratic(cval: RingElement, order: int) -> list:
    coeffs: list = [1]
    for n in range(1, order):
        acc = cval * coeffs[n - 1]
        for j in range(n - 1):
            acc = acc + coeffs[j] * coeffs[n - 2 - j]
        coeffs.append(acc)
    return coeffs


def motzkin_series_quadratic(cval: RingElement, order: int) -> TruncatedSeries:
    """A(x) with constant level weight cval, to the given order.

    Coefficient recurrence from A = 1 + c*x*A + x^2*A^2:
    a_0 = 1, a_n = c*a_{n-1} + sum_{j=0}^{n-2} a_j a_{n-2-j}.
    Coefficient n equals the triangle entry a[n][0] for the constant spec.
    Over Z[c] every coefficient product is one integer product (``_over_zc``).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries(_over_zc(_quadratic, (_norm(cval), order), cval, order))


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
