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


def _pair_step(rows, p, r, prev):
    # steps p and p + 1 at once on the upper triangle, after exchanging
    # p + 1 and r as rows and columns: the 3 x 3 bordered minor over prev^2
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


def symmetric_minors_generic(rows) -> list:
    """Leading minors, sizes 0..n, of a symmetric matrix by the symmetric
    elimination written once for every ring element: each entry is one
    ``divmod`` of ring elements, Polynomials over Z[c].  The oracle for
    ``hankel._minors``, whose Z[c] path works on int coefficient lists.

    Upper triangle only; a zero pivot at p pairs with the first nonzero
    (p, r), r trading places with p + 1 as row and column, and the minors of
    sizes p + 1..r are 0.  Works on a copy.
    """
    rows = [list(row) for row in rows]
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


def _terms(v: RingElement, scale: int = 1) -> list:
    """The nonzero terms of scale * v as (degree, value) pairs."""
    cs = v.coeffs if isinstance(v, Polynomial) else (v,)
    return [(d, scale * x) for d, x in enumerate(cs) if x]


def _sum_of_term_products(pairs) -> Polynomial:
    """The sum of ls * rs over the pairs (ls, rs) of term lists, every term
    product added into one int list."""
    acc: list = []
    for ls, rs in pairs:
        for dl, xl in ls:
            for dr, xr in rs:
                if dl + dr >= len(acc):
                    acc += [0] * (dl + dr + 1 - len(acc))
                acc[dl + dr] += xl * xr
    return Polynomial(acc)


def series_mul_terms(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b over Z[c] modulo x**min(orders), with no Kronecker packing:
    coefficient n sums every product of a nonzero term of a_i with one of
    b_{n-i}.  The oracle for ``TruncatedSeries.__mul__`` on operands holding
    Polynomials; its coefficients are always Polynomials."""
    t = min(a.order, b.order)
    ta = [_terms(v) for v in a.coeffs[:t]]
    tb = [_terms(v) for v in b.coeffs[:t]]
    return TruncatedSeries([_sum_of_term_products(zip(ta[: n + 1], tb[n::-1])) for n in range(t)])


def series_reciprocal_terms(u: TruncatedSeries) -> TruncatedSeries:
    """1 / u over Z[c] modulo x**order, with no Kronecker packing:
    v_n = -u_0 sum_{j=1..n} u_j v_{n-j}, each coefficient summed term by
    term.  The oracle for ``TruncatedSeries.reciprocal`` on a series of
    Polynomials; the constant term must be +1 or -1."""
    u0 = u.coeffs[0]
    if u0 not in (1, -1):
        raise ValueError(f"constant term {u0} is not a unit (need +1 or -1)")
    inv0 = 1 if u0 == 1 else -1
    neg = [_terms(v, -inv0) for v in u.coeffs]
    out = [Polynomial((inv0,))]
    done = [_terms(inv0)]
    for n in range(1, u.order):
        out.append(_sum_of_term_products(zip(neg[1 : n + 1], done[::-1])))
        done.append(_terms(out[-1]))
    return TruncatedSeries(out)


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


def lucas_bivariate_full_order(n: int, cval: RingElement, order: int) -> TruncatedSeries:
    """L_n(1 - c*x, -x^2) modulo x**order by L_n = (1 - c*x) L_{n-1} -
    x^2 L_{n-2} (L_0 = 2, L_1 = 1 - c*x), every product a full-order
    ``series_mul_loops``: the oracle for ``polyfam.lucas_bivariate_at``,
    which runs the recurrence at order min(order, n + 1)."""
    first = TruncatedSeries.monomial(1, order, coeff=-cval) + TruncatedSeries.one(order)
    second = TruncatedSeries.monomial(2, order, coeff=-1)
    prev, cur = TruncatedSeries.constant(2, order), first
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, series_mul_loops(first, cur) + series_mul_loops(second, prev)
    return cur


def _next_row_generic(prev: tuple, weights) -> tuple:
    padded = (0,) + prev + (0, 0)
    return tuple(
        a + s * b + c for a, s, b, c in zip(padded, weights, padded[1:], padded[2:])
    )


def table_generic(w: WeightSpec, max_n: int) -> tuple:
    """Rows 0..max_n of the triangle by the three-term step on ring
    elements, Polynomial objects over Z[c]: the oracle for
    ``sequences.admissible_table``, which runs a triangle holding c on its
    entries' values at c = 2**h."""
    weights = [w.at(k) for k in range(max_n + 1)]
    rows = [(1,)]
    for _ in range(max_n):
        rows.append(_next_row_generic(rows[-1], weights))
    return tuple(rows)


def columns_generic(w: WeightSpec, ks, depth: int) -> dict:
    """{k: [a[0][k], ..., a[depth][k]]} read off ``table_generic``: the
    oracle for ``sequences.columns``."""
    rows = table_generic(w, depth)
    return {k: [row[k] if k < len(row) else 0 for row in rows] for k in ks}


def motzkin_power_generic(cval: RingElement, exponent: int, order: int) -> TruncatedSeries:
    """A**exponent by the P-recurrence and the walk x^2 A^{j+2} =
    (1 - c x) A^{j+1} - A^j on ring elements, Polynomial objects over Z[c],
    with ``exact_div`` for the division by n + 2: the oracle for
    ``series.motzkin_power``, which runs the recurrence on int coefficient
    lists and the walk packed."""
    length = order + 2 * (exponent - 1) if exponent >= 1 else order
    hi: list = [1, cval][:length]
    disc = cval * cval - 4
    for n in range(2, length):
        num = (2 * n + 1) * cval * hi[n - 1] - (n - 1) * disc * hi[n - 2]
        hi.append(exact_div(num, n + 2))
    lo = [1] + [0] * (len(hi) - 1)
    if exponent >= 1:
        for _ in range(exponent - 1):
            up = [hi[n + 2] - cval * hi[n + 1] - lo[n + 2] for n in range(len(hi) - 2)]
            hi, lo = up, hi
        return TruncatedSeries(hi)
    for _ in range(-exponent):
        lo_x, hi_x2 = [0] + lo, [0, 0] + hi
        down = [lo[n] - cval * lo_x[n] - hi_x2[n] for n in range(order)]
        hi, lo = lo, down
    return TruncatedSeries(lo)


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
