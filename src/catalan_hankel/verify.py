"""Executable verification of the determinant and series identities.

Each check evaluates one family of claims over an exact grid and returns a
CheckReport: how many instances were compared, and a Witness (parameters
plus both rendered sides) for every instance where the two sides differ.
Equalities are exact; nothing is ever asserted from a formula alone.

Each claim id is a key of ``CLAIMS`` (end of this module), which pairs it
with its checker and the grid the checker runs when a bound is left unset;
the comment that opens each checker's section states the claim.

The two conjecture families are *reported*, never assumed: each
sign-bearing clause is evaluated under every plausible reading of its sign
exponent (with and without a factor of the block index n), and a "mixed"
status is a legitimate outcome.  A mismatch that is exactly a sign flip is
categorised as such to aid diagnosis.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from .hankel import hankel_dets, hankel_minors
from .polyfam import fibonacci_poly, lucas_bivariate_at, lucas_poly
from .ring import RingElement, parity_sign, render
from .sequences import Constant, Explicit, WeightSpec, columns, shift
from .series import TruncatedSeries, motzkin_power, motzkin_series

@dataclass
class Witness:
    """One failed instance: parameters plus both sides, rendered."""

    params: dict
    lhs: str
    rhs: str
    category: str = "mismatch"

    def to_dict(self):
        return {
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "category": self.category,
        }


@dataclass
class CheckReport:
    """Structured outcome of one verification run."""

    claim_id: str
    params: dict
    instances_tested: int
    failures: list = field(default_factory=list)
    status: str = "verified"

    def to_dict(self):
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "instances_tested": self.instances_tested,
            "failures": [w.to_dict() for w in self.failures],
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class _Run:
    """Accumulates compared instances, witnesses, per-clause tallies."""

    def __init__(self):
        self.instances = 0
        self.failures = []
        self.clauses = {}

    def check(self, params: dict, lhs: RingElement, rhs: RingElement):
        self.instances += 1
        key = params.get("clause")
        if key is not None:
            if "reading" in params:
                key = f"{key}[{params['reading']}]"
            tally = self.clauses.setdefault(key, {"instances": 0, "failures": 0})
            tally["instances"] += 1
        if lhs == rhs:
            return
        if key is not None:
            self.clauses[key]["failures"] += 1
        category = "sign-flip" if lhs == -rhs else "mismatch"
        self.failures.append(Witness(dict(params), render(lhs), render(rhs), category))


def _report(claim_id, params, run: _Run, conjecture=False) -> CheckReport:
    if run.instances == 0:
        raise ValueError(f"{claim_id}: empty verification grid")
    if run.clauses:
        params = {**params, "clauses": run.clauses}
    if not run.failures:
        status = "verified"
    elif conjecture and len(run.failures) < run.instances:
        status = "mixed"
    else:
        status = "refuted"
    return CheckReport(claim_id, params, run.instances, run.failures, status)


def _fib_of_lucas(cval: RingElement, k: int, n: int) -> RingElement:
    """F_{n+1} evaluated at L_{k+1}(cval)."""
    return fibonacci_poly(n + 1).evaluate(lucas_poly(k + 1).evaluate(cval))


# ---------------------------------------------------------------------------
# lemma13: det(u_{i+j-M}) over size N+M+1 = (-1)^(N+binom(M+1,2))
#          * det(v_{i+j+M+2}) over size N, where v = 1/u and u_0 = 1.
# ---------------------------------------------------------------------------


def _lemma13_sides(u, v, n_max, M):
    """(lhs, rhs) at (N, M) for every N <= n_max, one elimination per side."""
    lhs = hankel_minors([0] * M + list(u.coeffs), n_max + M + 1)
    rhs = hankel_minors(v.coeffs[M + 2 :], n_max)
    sign = parity_sign(M)
    return [
        (lhs[N + M + 1], (-sign if N % 2 else sign) * rhs[N])
        for N in range(n_max + 1)
    ]


def lemma13_sides(u: TruncatedSeries, N: int, M: int):
    """Both exact sides of the identity at a single (N, M)."""
    _require_lemma13(u, N, M)
    return _lemma13_sides(u, u.reciprocal(), N, M)[N]


def lemma13_min_order(n_max: int, m_max: int) -> int:
    """The least series order check_lemma13 takes for n_max and m_max."""
    return 2 * (n_max + m_max) + 1


def _require_lemma13(u, n_max, m_max):
    if u[0] != 1:
        raise ValueError("lemma13 requires constant term 1")
    least = lemma13_min_order(n_max, m_max)
    if u.order < least:
        raise ValueError(f"series order {u.order} too small: need >= {least}")


def _lemma13_into(run: _Run, u, n_max, m_max, extra=()):
    _require_lemma13(u, n_max, m_max)
    base = dict(extra)
    v = u.reciprocal()
    for M in range(m_max + 1):
        for N, (lhs, rhs) in enumerate(_lemma13_sides(u, v, n_max, M)):
            run.check({**base, "N": N, "M": M}, lhs, rhs)


def check_lemma13(u: TruncatedSeries, n_max: int, m_max: int) -> CheckReport:
    """Verify the identity for all 0 <= N <= n_max, 0 <= M <= m_max."""
    run = _Run()
    _lemma13_into(run, u, n_max, m_max)
    params = {"order": u.order, "n_max": n_max, "m_max": m_max}
    return _report("lemma13", params, run)


def check_lemma13_random(
    trials: int, seed: int, order: int, n_max: int, m_max: int
) -> CheckReport:
    """Property run over seeded random unit series (coefficients in [-4, 4])."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    run = _Run()
    for trial in range(trials):
        u = TruncatedSeries([1] + [rng.randint(-4, 4) for _ in range(order - 1)])
        _lemma13_into(run, u, n_max, m_max, extra={"trial": trial})
    params = {
        "trials": trials,
        "seed": seed,
        "order": order,
        "n_max": n_max,
        "m_max": m_max,
    }
    return _report("lemma13", params, run)


# ---------------------------------------------------------------------------
# theorem1: D(-m, 0, n) = 0 for 0 < n <= m, and
#           D(-m, 0, n+m+1) = (-1)^binom(m+1,2) D(m, 0, n) on shifted weights.
# ---------------------------------------------------------------------------


def _backward_shift_into(run: _Run, back, forward, m, k, n_max, base, where):
    """Both clauses of theorem1 at column k: back, D(-m, k, n) on w for
    n <= n_max + m + k + 1, against forward, D(m, k, n) on shift(w) for
    n <= n_max.  Theorem2 is this for constant w, which the shift leaves
    unchanged.  Witness params: base, clause, where, n."""
    sgn = parity_sign(m + k)
    for n in range(1, m + k + 1):
        run.check({**base, "clause": "zero-block", **where, "n": n}, back[n], 0)
    for n in range(n_max + 1):
        lhs = back[n + m + k + 1]
        rhs = sgn * forward[n]
        run.check({**base, "clause": "backward-shift", **where, "n": n}, lhs, rhs)


def theorem1_requests(m_max: int, n_max: int):
    """theorem1's (m, k, n) requests: D(-m, 0, n) on w for n <= n_max + m + 1,
    and D(m, 0, n) on shift(w) for n <= n_max, for every m <= m_max."""
    ms = range(m_max + 1)
    return [(-m, 0, n_max + m + 1) for m in ms], [(m, 0, n_max) for m in ms]


def _theorem1_into(run: _Run, w: WeightSpec, m_max, n_max, extra=()):
    base = {**dict(extra), "weights": w.describe()}
    back_requests, forward_requests = theorem1_requests(m_max, n_max)
    back = hankel_dets(w, back_requests)
    forward = hankel_dets(shift(w), forward_requests)
    for m in range(m_max + 1):
        _backward_shift_into(run, back[-m, 0], forward[m, 0], m, 0, n_max, base, {"m": m})


def check_theorem1(w: WeightSpec, m_max: int, n_max: int) -> CheckReport:
    """Backward vs forward shift for one weight spec (m = 0 case included)."""
    if m_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    run = _Run()
    _theorem1_into(run, w, m_max, n_max)
    params = {"weights": w.describe(), "m_max": m_max, "n_max": n_max}
    return _report("theorem1", params, run)


def check_theorem1_random(trials: int, seed: int, m_max: int, n_max: int) -> CheckReport:
    """Seeded random integer weight specs: prefix 8 in [-3, 3], tail 0."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    rng = random.Random(seed)
    run = _Run()
    for trial in range(trials):
        w = Explicit(tuple(rng.randint(-3, 3) for _ in range(8)), 0)
        _theorem1_into(run, w, m_max, n_max, extra={"trial": trial})
    params = {"trials": trials, "seed": seed, "m_max": m_max, "n_max": n_max}
    return _report("theorem1", params, run)


# ---------------------------------------------------------------------------
# theorem2: constant weights c; D(-m, k, n) = 0 for 0 < n <= m+k, and
#           D(-m, k, n+m+k+1) = (-1)^binom(m+k+1,2) D(m, k, n).
# ---------------------------------------------------------------------------


def check_theorem2(
    cval: RingElement, m_max: int, k_max: int, n_max: int
) -> CheckReport:
    if m_max < 0 or k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    grid = [(m, k) for m in range(m_max + 1) for k in range(k_max + 1)]
    back = [(-m, k, n_max + m + k + 1) for m, k in grid]
    dets = hankel_dets(Constant(cval), back + [(m, k, n_max) for m, k in grid])
    run = _Run()
    for m, k in grid:
        _backward_shift_into(run, dets[-m, k], dets[m, k], m, k, n_max, {}, {"m": m, "k": k})
    params = {"c": render(cval), "m_max": m_max, "k_max": k_max, "n_max": n_max}
    return _report("theorem2", params, run)


# ---------------------------------------------------------------------------
# corollary6: D(0, k, size) is (-1)^(binom(k+1,2) n) at size = (k+1) n
#             and 0 at every other size.
# ---------------------------------------------------------------------------


def check_corollary6(cval: RingElement, k_max: int, n_max: int) -> CheckReport:
    if k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    dets = hankel_dets(Constant(cval), [(0, k, n_max) for k in range(k_max + 1)])
    run = _Run()
    for k in range(k_max + 1):
        sgn = parity_sign(k)
        for size, lhs in enumerate(dets[0, k]):
            if size % (k + 1) == 0:
                n = size // (k + 1)
                run.check(
                    {"clause": "sign-pattern", "k": k, "size": size, "n": n},
                    lhs,
                    sgn**n,
                )
            else:
                run.check({"clause": "zero-pattern", "k": k, "size": size}, lhs, 0)
    params = {"c": render(cval), "k_max": k_max, "n_max": n_max}
    return _report("corollary6", params, run)


# ---------------------------------------------------------------------------
# identities7_8: shift-1 closed forms.
#   (7)  D(0,0,n) = 1,  D(1,0,n) = F_{n+1}(c),  D(2,0,n) = sum F_{j+1}(c)^2.
#   (8)  D(1,k,(k+1)n)   = (-1)^(binom(k+1,2) n) F_{n+1}(L_{k+1}(c)),
#        D(1,k,(k+1)n+k) = (-1)^(binom(k+1,2) n + binom(k,2)) F_{n+1}(L_{k+1}(c)),
#        D(1,k,size) = 0 at all other sizes.
# ---------------------------------------------------------------------------


def check_identities7_8(
    cval: RingElement, k_max: int, n_max: int
) -> CheckReport:
    if k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    requests = [(m, 0, n_max) for m in range(3)] + [(1, k, n_max) for k in range(k_max + 1)]
    dets = hankel_dets(Constant(cval), requests)
    run = _Run()
    flat, once, twice = (dets[m, 0] for m in range(3))
    fib_sq_sum: RingElement = 0
    for n in range(n_max + 1):
        fib = fibonacci_poly(n + 1).evaluate(cval)
        fib_sq_sum = fib_sq_sum + fib * fib
        run.check({"clause": "flat", "n": n}, flat[n], 1)
        run.check({"clause": "fibonacci", "n": n}, once[n], fib)
        run.check({"clause": "fibonacci-square-sum", "n": n}, twice[n], fib_sq_sum)
    for k in range(k_max + 1):
        span = k + 1
        for size, lhs in enumerate(dets[1, k]):
            r = size % span
            if r == 0:
                n = size // span
                rhs = parity_sign(k) ** n * _fib_of_lucas(cval, k, n)
                run.check(
                    {"clause": "lucas-main", "k": k, "size": size, "n": n}, lhs, rhs
                )
            elif r == k:
                n = (size - k) // span
                rhs = parity_sign(k) ** n * parity_sign(k - 1) * _fib_of_lucas(cval, k, n)
                run.check(
                    {"clause": "lucas-offset", "k": k, "size": size, "n": n}, lhs, rhs
                )
            else:
                run.check({"clause": "zero", "k": k, "size": size}, lhs, 0)
    params = {"c": render(cval), "k_max": k_max, "n_max": n_max}
    return _report("identities7_8", params, run)


# ---------------------------------------------------------------------------
# conjectures9_10: reported, never assumed.  The sign exponents of the
# sign-bearing clauses are evaluated under each plausible reading:
# "as-printed" uses the bare binomial exponent, "n-scaled" multiplies it by
# the block index n.  Clause eq9.c3 additionally gets the reading without
# any sign at all (its printed line strands an "=" between sign and value).
# ---------------------------------------------------------------------------


def check_conjectures9_10(
    cval: RingElement, m_max: int, k_max: int, n_max: int
) -> CheckReport:
    if m_max < 0 or k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    run = _Run()
    # one elimination per (shift, column); eq9 and eq10 share shift 2
    dets = hankel_dets(Constant(cval), [(2, k, n_max) for k in range(1, k_max + 1)] + [
        (m, k, n_max) for m in range(m_max + 1) for k in range(max(0, m - 1), k_max + 1)
    ])

    # guessed closed forms for shift m = 2, columns k >= 1
    for k in range(1, k_max + 1):
        span = k + 1
        fib_k = fibonacci_poly(k + 1).evaluate(cval)
        sq_sums = []  # sq_sums[n] = sum_{j<=n} F_{j+1}(L_{k+1})^2
        acc: RingElement = 0
        for n in range(n_max // span + 1):
            f = _fib_of_lucas(cval, k, n)
            acc = acc + f * f
            sq_sums.append(acc)
        for size, lhs in enumerate(dets[2, k]):
            r = size % span
            if r == 0:
                n = size // span
                f2 = _fib_of_lucas(cval, k, n) ** 2
                base = {"clause": "eq9.c1", "m": 2, "k": k, "size": size, "n": n}
                run.check({**base, "reading": "as-printed"}, lhs, parity_sign(k) * f2)
                run.check({**base, "reading": "n-scaled"}, lhs, parity_sign(k) ** n * f2)
            if r == (k - 1) % span:
                n = (size - (k - 1)) // span
                ref = dets[2, k][span * n]
                run.check(
                    {"clause": "eq9.c2", "m": 2, "k": k, "size": size, "n": n},
                    lhs,
                    -parity_sign(k) * ref,
                )
            if r == k:
                n = (size - k) // span
                value = (k + 1) * fib_k * sq_sums[n]
                base = {"clause": "eq9.c3", "m": 2, "k": k, "size": size, "n": n}
                run.check(
                    {**base, "reading": "as-printed"},
                    lhs,
                    parity_sign(k) * parity_sign(k - 1) * value,
                )
                run.check({**base, "reading": "unsigned"}, lhs, value)
                run.check(
                    {**base, "reading": "n-scaled"},
                    lhs,
                    parity_sign(k) ** n * parity_sign(k - 1) * value,
                )
            if r not in (0, (k - 1) % span, k):
                run.check(
                    {"clause": "eq9.c4", "m": 2, "k": k, "size": size}, lhs, 0
                )

    # guessed power law for general shift m, columns k >= m-1
    for m in range(m_max + 1):
        for k in range(max(0, m - 1), k_max + 1):
            span = k + 1
            for size in range(0, n_max + 1, span):
                n = size // span
                lhs = dets[m, k][size]
                power = _fib_of_lucas(cval, k, n) ** m
                base = {"clause": "eq10", "m": m, "k": k, "size": size, "n": n}
                run.check({**base, "reading": "as-printed"}, lhs, parity_sign(k) * power)
                run.check(
                    {**base, "reading": "n-scaled"}, lhs, parity_sign(k) ** n * power
                )

    params = {"c": render(cval), "m_max": m_max, "k_max": k_max, "n_max": n_max}
    return _report("conjectures9_10", params, run, conjecture=True)


# ---------------------------------------------------------------------------
# series_identities:
#   coefficient bridge  [x^n] x^k A^{k+1} = a[n][k]
#   quadratic residual  x^2 A^2 + (c x - 1) A + 1 = 0
#   reciprocal-Lucas    1/A^{k+1} + x^{2k+2} A^{k+1} = L_{k+1}(1-cx, -x^2)
# ---------------------------------------------------------------------------


def series_min_order(k_max: int) -> int:
    """The least order check_series_identities takes for k_max."""
    return 2 * k_max + 4


def check_series_identities(
    cval: RingElement, k_max: int, order: int
) -> CheckReport:
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if order < series_min_order(k_max):
        raise ValueError(f"order {order} too small: need >= {series_min_order(k_max)}")
    a = motzkin_series(cval, order)
    cols = columns(Constant(cval), range(k_max + 1), order - 1)
    run = _Run()
    powers = {0: TruncatedSeries.one(order)}
    for k in range(k_max + 1):
        powers[k + 1] = powers[k] * a
        shifted = TruncatedSeries.monomial(k, order) * powers[k + 1]
        for n in range(order):
            run.check(
                {"clause": "coefficient-bridge", "k": k, "n": n},
                shifted[n],
                cols[k][n],
            )
    residual = (
        TruncatedSeries.monomial(2, order) * a * a
        + (TruncatedSeries.monomial(1, order, coeff=cval) - TruncatedSeries.one(order)) * a
        + TruncatedSeries.one(order)
    )
    for n in range(order):
        run.check({"clause": "quadratic-residual", "n": n}, residual[n], 0)
    for k in range(k_max + 1):
        power = powers[k + 1]
        lhs = power.reciprocal() + TruncatedSeries.monomial(2 * k + 2, order) * power
        rhs = lucas_bivariate_at(k + 1, cval, order)
        for n in range(order):
            run.check(
                {"clause": "reciprocal-lucas", "k": k, "n": n}, lhs[n], rhs[n]
            )
    params = {"c": render(cval), "k_max": k_max, "order": order}
    return _report("series_identities", params, run)


# ---------------------------------------------------------------------------
# theorem3: det(b_{i+j,k}) over size n+1 = (-1)^n D(k+2, k, n), where the
# b_{n,k} are the coefficients of 1/A^{k+1}.
# ---------------------------------------------------------------------------


def check_theorem3(cval: RingElement, k_max: int, n_max: int) -> CheckReport:
    if k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    dets = hankel_dets(Constant(cval), [(k + 2, k, n_max) for k in range(k_max + 1)])
    run = _Run()
    for k in range(k_max + 1):
        b = motzkin_power(cval, -(k + 1), 2 * n_max + 1).coeffs
        lhs = hankel_minors(b, n_max + 1)
        for n, rhs in enumerate(dets[k + 2, k]):
            if n % 2:
                rhs = -rhs
            run.check({"k": k, "n": n}, lhs[n + 1], rhs)
    params = {"c": render(cval), "k_max": k_max, "n_max": n_max}
    return _report("theorem3", params, run)


@dataclass(frozen=True)
class Claim:
    """A checker, called as ``check(**{arg: value}, **bounds)`` with ``arg``
    ``"cval"`` (level weight) or ``"seed"``, and each bound's default."""

    check: Callable[..., CheckReport]
    arg: str
    defaults: dict


CLAIMS = {
    "lemma13": Claim(check_lemma13_random, "seed", dict(trials=100, order=20, n_max=4, m_max=3)),
    "theorem1": Claim(check_theorem1_random, "seed", dict(trials=40, m_max=3, n_max=6)),
    "theorem2": Claim(check_theorem2, "cval", dict(m_max=3, k_max=3, n_max=5)),
    "corollary6": Claim(check_corollary6, "cval", dict(k_max=4, n_max=15)),
    "identities7_8": Claim(check_identities7_8, "cval", dict(k_max=3, n_max=8)),
    "conjectures9_10": Claim(check_conjectures9_10, "cval", dict(m_max=3, k_max=3, n_max=8)),
    "series_identities": Claim(check_series_identities, "cval", dict(k_max=4, order=16)),
    "theorem3": Claim(check_theorem3, "cval", dict(k_max=3, n_max=5)),
}
CLAIM_IDS = tuple(CLAIMS)
