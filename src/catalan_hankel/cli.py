"""Command-line interface: sequence dumps, determinants, series, verification.

Exit codes: 0 for success (and, for verify, every claim verified), 1 when a
verification run records failures or refutations, 2 for usage errors and
for arithmetic faults (an inexact or zero division), and 141 (128 +
SIGPIPE) from the console entry point when the reader closes stdout.
Computation results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

from .hankel import InternalDivisionError, hankel_det, table_depth
from .ring import C, Polynomial, render
from .sequences import Constant, admissible_table, columns, parse_weight_spec
from .series import motzkin_power
from . import verify as verify_mod
from .verify import CLAIM_IDS, CLAIMS, CheckReport

# Timings of the edge shapes below are from EDGES_pr21.json
# (scripts/edge_times.py): subprocess wall time and peak RSS, two runs each,
# on a shared 2-core VM, unless a figure says otherwise.

#: Largest `series --k` accepted: A^(k+1) and 1/A^(k+1) cost about k+1
#: passes over the series.
SERIES_MAX_K = 1000
#: Largest `series --order` accepted.
SERIES_MAX_ORDER = 10000
#: Bound on (k + 16) * (order + 2k)**3 for `series --c sym`: coefficient n
#: is a polynomial of degree n, each of the k + 1 passes costs about
#: length**3 (lengths up to order + 2k) and printing about 15 more.  Order
#: 1400 at k 0: 2.5-2.7 s, 0.44 GB; the slowest shape timed, order 1028 at
#: k 20: 5.0-5.5 s, 0.34 GB; order 523 at k 100: 2.6 s, 0.11 GB.
SERIES_MAX_SYMBOLIC_WORK = 16 * 1400**3
#: Largest `seq --n` (const:1: 0.3 s, 20 MB), `table --n-max` (const:1 as
#: json: 1.2-1.3 s, 0.35 GB) and `det --n` (const:3: 1.5 s) accepted; `det`
#: is also held to TABLE_MAX_N for the triangle depth 2(n-1)+m it reads.
SEQ_MAX_N, TABLE_MAX_N, DET_MAX_N = 2000, 1000, 300
#: Weights holding c admit a fifth of each of those: entries are then
#: polynomials (const:c: `seq --n 400` 0.7 s and 31 MB, `table --n-max
#: 200` 0.8-0.9 s and 94 MB; `det --n 60` 1.0 s, 3.9 s with `--m 1` and
#: 17-18 s with `--m 3 --k 2`).
SYMBOLIC_SHARE = 5
#: Integer weights of b bits at the heights used lower each size ceiling to
#: the largest n with n**3 * (b + 1) * (b + 250) <= WEIGHT_BITS_WORK *
#: ceiling**3: entries grow by about b + 1 bits a row, and printing one in
#: decimal costs about its length squared / 250 on top of building it.  The
#: value at b = 2 keeps the ceilings for weights up to 3 in size.  At the
#: edge: `det const:1000000 --n 153` 1.1 s, `seq const:10^1000 --n 79` 2.7-2.8
#: s, `table --n-max 182` of 248-bit weights (the slowest shape) 7.8-7.9 s.
WEIGHT_BITS_WORK = 3 * 252
#: The range of each verify bound flag, by argparse dest, checked for every
#: claim a run names before any claim runs, as is the least --order that
#: lemma13 and series_identities take at their other bounds.  The weights a
#: claim computes with lower its ceilings as for seq/table/det, but never below the
#: claim's default: --c for the claims that take it, and theorem1's
#: --weights at the heights 0..2 n_max + m_max it reads.  One flag at its
#: ceiling, the others at their defaults, c = 1, the slowest claim takes:
#: --n-max 100 53-54 s (lemma13, at the order 207 it then needs; theorem1
#: 12 s), --k-max 100 2.1-2.3 s (theorem2), --m-max 50 2.6 s (lemma13),
#: --trials 10000 2.6-3.1 s (theorem1), --order 500 1.2 s (lemma13); with
#: --c sym, --order 100 0.4 s (series_identities, an older timing) and
#: --n-max 20 1.2 s (theorem2); theorem1 --weights const:c --n-max 20 0.4 s.
#: The largest symbolic product of flags admitted, series_identities --c sym
#: --k-max 20 --order 100, takes 1.1 s.  At the edges of the weight-bit rule
#: theorem2 takes 2.3 s for c = 10**6 (--n-max 51) and 0.5 s for c = 10**200
#: (--n-max 10); in older timings without the lowering,
#: theorem2 --c 10**6 --n-max 100 takes 93-100 s; at c = 10**200, and theorem1
#: with --weights const:c or const:10**1000 (1 GB), --n-max 100 did not
#: finish in 300 s with whole-row elimination, about half as fast.
VERIFY_RANGES = {
    "trials": (1, 10000),
    "order": (1, 500),
    "m_max": (0, 50),
    "k_max": (0, 100),
    "n_max": (0, 100),
}
#: These claims also bound their flags together: a run is refused before any
#: work when its _work exceeds that of every run with one flag at its
#: VERIFY_RANGES ceiling and the others at their defaults.  One trial costs
#: about sum((n_max + M + 2)**4 for M <= m_max), the eliminations of each
#: shift M, plus 50 order**2 for lemma13's reciprocal series, at about
#: 2e-9 s a unit (fitted to single trials, c = 1, 2-core VM).  The slowest
#: run admitted is lemma13 --n-max 100 (order 207): 0.53-0.54 s a trial,
#: 53-54 s in all.  Refused, for instance (older timings): theorem1 --trials
#: 10000 --n-max 100 (0.46 s a trial), theorem1 --m-max 50 --n-max 50
#: (3.0-3.4 s a trial), and lemma13 --trials 10000 with --n-max 100 or with
#: --order 500 (19-23 ms a trial).
WORK_BOUND_CLAIMS = ("lemma13", "theorem1")

_WITNESS_LINE_CAP = 50


def _parse_c(text: str):
    if text == "sym":
        return C
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad --c value {text!r}: expected an integer or 'sym'") from None


def _json_value(v):
    # integers as JSON numbers (even when held as constant polynomials),
    # anything genuinely symbolic as its canonical string
    if isinstance(v, Polynomial):
        if v.degree() <= 0:
            return v.coeffs[0] if v.coeffs else 0
        return render(v)
    return v


def _format_values(values, fmt, meta):
    if fmt == "text":
        return ",".join(render(v) for v in values)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "value"])
        for n, v in enumerate(values):
            writer.writerow([n, render(v)])
        return buf.getvalue().rstrip("\n")
    if fmt == "bfile":
        for n, v in enumerate(values):
            if isinstance(v, Polynomial) and v.degree() > 0:
                raise ValueError(f"bfile format requires numeric values; value {n} holds c")
        return "\n".join(f"{n} {v}" for n, v in enumerate(values))
    return json.dumps({**meta, "values": [_json_value(v) for v in values]}, indent=2)


def _witness_csv(reports) -> str:
    """One csv header, then a row per witness of each report in turn."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim_id", "status", "category", "params", "lhs", "rhs"])
    for report in reports:
        for w in report.failures:
            writer.writerow(
                [
                    report.claim_id,
                    report.status,
                    w.category,
                    json.dumps(w.params, separators=(",", ":")),
                    w.lhs,
                    w.rhs,
                ]
            )
    return buf.getvalue().rstrip("\n")


def emit_report(report: CheckReport, fmt: str) -> str:
    """Render a CheckReport as text, json, or csv (one row per witness)."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return _witness_csv([report])
    lines = [
        f"{report.claim_id}: {report.status} "
        f"({report.instances_tested} instances, {len(report.failures)} failures)"
    ]
    clauses = report.params.get("clauses")
    if clauses:
        for key, tally in clauses.items():
            lines.append(
                f"  clause {key}: {tally['instances']} instances, "
                f"{tally['failures']} failures"
            )
    for w in report.failures[:_WITNESS_LINE_CAP]:
        where = " ".join(f"{k}={v}" for k, v in w.params.items())
        lines.append(f"  [{w.category}] {where}: lhs={w.lhs} rhs={w.rhs}")
    hidden = len(report.failures) - _WITNESS_LINE_CAP
    if hidden > 0:
        lines.append(f"  ... {hidden} more witnesses (use --format json for all)")
    return "\n".join(lines)


def _claim_call(ns, claim_id, cval):
    """The call that runs one claim, unset bounds at its defaults, once its
    input checks pass; a claim named alone rejects flags it does not take.
    Only theorem1 takes --weights, which replaces its random trials by that
    one weight spec.  The WORK_BOUND_CLAIMS also bound their flags together."""
    claim = CLAIMS[claim_id]
    weights = ns.weights if claim_id == "theorem1" else None
    taken = [n for n in claim.defaults if weights is None or n != "trials"]
    unused = [n for n in VERIFY_RANGES if getattr(ns, n) is not None and n not in taken]
    unused += ["weights"] if ns.weights is not None and weights is None else []
    if unused and ns.claim != "all":
        flags = ", ".join(_flag(n) for n in unused)
        where = "" if weights is None else " --weights"
        raise ValueError(f"verify {claim_id}{where} does not take {flags}")
    bounds = _fill_bounds(claim_id, taken, {n: getattr(ns, n) for n in taken})
    for name, value in bounds.items():  # first, as theorem1's depth is read off two
        _check_range(_flag(name), value, *VERIFY_RANGES[name])
    if claim_id in WORK_BOUND_CLAIMS and _work(bounds) > _work_bar(claim_id):
        given = " ".join(f"{_flag(n)} {v}" for n, v in bounds.items())
        raise ValueError(f"verify {claim_id} {given}: more work than one flag at its ceiling")
    w, depth = None, 0
    if weights is not None:
        w, depth = parse_weight_spec(weights), _theorem1_depth(bounds["m_max"], bounds["n_max"])
    elif claim.arg == "cval":
        w = Constant(cval)
    for name, value in bounds.items():
        _check_range(_flag(name), value, *VERIFY_RANGES[name], w, depth, claim.defaults[name])
    if "order" in bounds:
        # in the checker's own words; it keeps this check for library callers
        least = _least_order(claim_id, bounds)
        if bounds["order"] < least:
            what = "order" if claim_id == "series_identities" else "series order"
            raise ValueError(f"{what} {bounds['order']} too small: need >= {least}")
    if weights is not None:
        return functools.partial(verify_mod.check_theorem1, w, **bounds)
    lead = ns.rng_seed if claim.arg == "seed" else cval
    return functools.partial(claim.check, **{claim.arg: lead}, **bounds)


def _fill_bounds(claim_id, taken, given):
    """Each bound in taken: its given value, or else the claim's default.
    An unset --order is at least the least order the other bounds admit."""
    defaults = CLAIMS[claim_id].defaults
    bounds = {n: defaults[n] if given.get(n) is None else given[n] for n in taken}
    if "order" in bounds and given.get("order") is None:
        bounds["order"] = max(bounds["order"], _least_order(claim_id, bounds))
    return bounds


def _least_order(claim_id, bounds) -> int:
    """The least --order a claim that takes one admits at its other bounds."""
    if claim_id == "series_identities":
        return verify_mod.series_min_order(bounds["k_max"])
    return verify_mod.lemma13_min_order(bounds["n_max"], bounds["m_max"])


def _work(bounds) -> int:
    """Estimated work of a lemma13 or theorem1 run: trials (theorem1
    --weights is one) times the cost of a trial."""
    n_max, order = bounds["n_max"], bounds.get("order", 0)
    trial = sum((n_max + m + 2) ** 4 for m in range(bounds["m_max"] + 1)) + 50 * order**2
    return bounds.get("trials", 1) * trial


def _work_bar(claim_id) -> int:
    """The largest _work among the runs of a claim with one flag at its
    VERIFY_RANGES ceiling and the others at their defaults."""
    defaults = CLAIMS[claim_id].defaults
    return max(
        _work(_fill_bounds(claim_id, defaults, {name: VERIFY_RANGES[name][1]}))
        for name in defaults
    )


def _theorem1_depth(m_max: int, n_max: int) -> int:
    """The deepest triangle row any of theorem1's determinants reads; its
    --weights lower the ceilings by the weights at heights 0..this depth."""
    return max(
        table_depth(m, n) for requests in verify_mod.theorem1_requests(m_max, n_max)
        for m, _, n in requests
    )


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _check_range(name, value, lo, hi, w=None, depth=0, keep=0):
    """Reject value outside lo..hi before any work.  With weights w, the
    heights 0..depth lower hi: by SYMBOLIC_SHARE if one holds c, then by
    WEIGHT_BITS_WORK for the largest bit length of an integer weight; it is
    never lowered below keep."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}")
    if w is None or value <= keep:
        return
    weights = [w.at(j) for j in range(depth + 1)]
    if any(isinstance(v, Polynomial) for v in weights):
        hi = max(keep, hi // SYMBOLIC_SHARE)
        if value > hi:
            raise ValueError(f"{name} must be in {lo}..{hi} for weights holding c")
    bits = max((v.bit_length() for v in weights if isinstance(v, int)), default=0)
    budget = WEIGHT_BITS_WORK * hi**3 // ((bits + 1) * (bits + 250))
    if value**3 > budget:
        top = max(keep, max(n for n in range(hi + 1) if n**3 <= budget))
        raise ValueError(f"{name} must be in {lo}..{top} for weights of {bits} bits")


def _cmd_seq(ns) -> int:
    w = parse_weight_spec(ns.weights)
    _check_range("--n", ns.n, 1, SEQ_MAX_N, w, ns.n - 1)
    values = columns(w, [ns.k], ns.n - 1)[ns.k]
    meta = {"weights": w.describe(), "k": ns.k}
    print(_format_values(values, ns.format, meta))
    return 0


def _cmd_table(ns) -> int:
    w = parse_weight_spec(ns.weights)
    _check_range("--n-max", ns.n_max, 0, TABLE_MAX_N, w, ns.n_max)
    rows = admissible_table(w, ns.n_max)
    if ns.format == "text":
        for n, row in enumerate(rows):
            print(f"n={n}: " + ", ".join(render(v) for v in row))
    elif ns.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for n, row in enumerate(rows):
            for k, v in enumerate(row):
                writer.writerow([n, k, render(v)])
    else:
        payload = {
            "weights": w.describe(),
            "max_n": ns.n_max,
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_det(ns) -> int:
    w = parse_weight_spec(ns.weights)
    depth = table_depth(ns.m, ns.n)
    _check_range("the triangle depth 2(n-1)+m", depth, 0, TABLE_MAX_N, w, depth)
    _check_range("--n", ns.n, 0, DET_MAX_N, w, depth)
    value = hankel_det(w, ns.m, ns.k, ns.n)
    if ns.format == "json":
        payload = {
            "weights": w.describe(),
            "m": ns.m,
            "k": ns.k,
            "n": ns.n,
            "value": _json_value(value),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render(value))
    return 0


def _cmd_series(ns) -> int:
    _check_range("--order", ns.order, 1, SERIES_MAX_ORDER)
    _check_range("--k", ns.k, 0, SERIES_MAX_K)
    cval = _parse_c(ns.c)
    if isinstance(cval, Polynomial) and (
        (ns.k + 16) * (ns.order + 2 * ns.k) ** 3 > SERIES_MAX_SYMBOLIC_WORK
    ):
        raise ValueError(f"--c sym needs (k + 16) * (order + 2k)**3 <= {SERIES_MAX_SYMBOLIC_WORK}")
    exponent = -(ns.k + 1) if ns.reciprocal else ns.k + 1
    if ns.format == "bfile":
        # A^e begins 1 + e c x: a bfile that would be refused is refused
        # before the series is computed
        _format_values([1, exponent * cval][: ns.order], "bfile", {})
    values = motzkin_power(cval, exponent, ns.order).coeffs
    meta = {"c": render(cval), "k": ns.k, "reciprocal": ns.reciprocal, "order": ns.order}
    print(_format_values(values, ns.format, meta))
    return 0


def _cmd_verify(ns) -> int:
    cval = _parse_c(ns.c)
    claims = CLAIM_IDS if ns.claim == "all" else [ns.claim]
    calls = [_claim_call(ns, claim, cval) for claim in claims]
    reports = [call() for call in calls]
    if ns.format == "json" and len(reports) > 1:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif ns.format == "csv":
        print(_witness_csv(reports))
    else:
        print("\n".join(emit_report(r, ns.format) for r in reports))
    return 0 if all(r.status == "verified" for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-hankel",
        description=(
            "Exact Catalan-like triangles, shifted Hankel determinants, and "
            "an identity verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="dump one column of the triangle")
    seq.add_argument("--weights", required=True, help="e.g. const:1, const:c, explicit:1,0;tail=0, shift^2:const:1")
    seq.add_argument("--k", type=int, default=0, help="column index (default 0)")
    seq.add_argument("--n", type=int, default=8, help="number of terms (default 8)")
    seq.add_argument("--format", choices=("text", "csv", "bfile", "json"), default="text")
    seq.set_defaults(func=_cmd_seq)

    table = sub.add_parser("table", help="dump the whole triangle")
    table.add_argument("--weights", required=True)
    table.add_argument("--n-max", type=int, default=8, help="deepest row (default 8)")
    table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    table.set_defaults(func=_cmd_table)

    det = sub.add_parser("det", help="one shifted Hankel determinant")
    det.add_argument("--weights", required=True)
    det.add_argument("--m", type=int, default=0, help="shift, may be negative (default 0)")
    det.add_argument("--k", type=int, default=0, help="column index (default 0)")
    det.add_argument("--n", type=int, required=True, help="matrix size")
    det.add_argument("--format", choices=("text", "json"), default="text")
    det.set_defaults(func=_cmd_det)

    series = sub.add_parser("series", help="coefficients of A^(k+1) or 1/A^(k+1)")
    series.add_argument("--c", default="1", help="level weight: integer or 'sym' (default 1)")
    series.add_argument("--k", type=int, default=0, help="power index (default 0)")
    series.add_argument("--order", type=int, default=16, help="coefficients to dump (default 16)")
    series.add_argument("--reciprocal", action="store_true", help="dump 1/A^(k+1) instead")
    series.add_argument("--format", choices=("text", "csv", "bfile", "json"), default="text")
    series.set_defaults(func=_cmd_series)

    ver = sub.add_parser("verify", help="run one identity check (or all)")
    ver.add_argument("claim", choices=CLAIM_IDS + ("all",))
    ver.add_argument("--c", default="1", help="level weight: integer or 'sym' (default 1)")
    ver.add_argument("--weights", help="theorem1 only: check this one weight spec")
    ver.add_argument("--m-max", type=int, default=None, help="shift bound (default per claim)")
    ver.add_argument("--k-max", type=int, default=None, help="column bound (default per claim)")
    ver.add_argument("--n-max", type=int, default=None, help="size/index bound (default per claim)")
    ver.add_argument("--order", type=int, default=None, help="series order (default per claim)")
    ver.add_argument("--trials", type=int, default=None, help="random trials (default per claim)")
    ver.add_argument("--rng-seed", type=int, default=0)
    ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ver.set_defaults(func=_cmd_verify)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    # exact results can exceed the int-to-str digit limit (CPython 3.10.7+);
    # lift it for one command and give the caller back its own setting
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: a build takes about 0.5 ms, 25 parses' worth
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _unlimited_int_digits():
            return ns.func(ns)
    except (ValueError, ArithmeticError, InternalDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the flush at exit
        # cannot raise again, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
