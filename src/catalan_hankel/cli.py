"""Command-line interface: sequence dumps, determinants, series, verification.

Exit codes: 0 for success (and, for verify, every claim verified), 1 when a
verification run records failures or refutations, 2 for usage errors and
for arithmetic faults (an inexact or zero division).  Computation results
go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from .hankel import InternalDivisionError, hankel_det
from .ring import C, Polynomial, render
from .sequences import admissible_table, column, parse_weight_spec
from .series import motzkin_power
from . import verify as verify_mod
from .verify import CLAIM_IDS, CheckReport

#: Grid bounds used when a verify flag is left unset, per claim.
VERIFY_DEFAULTS = {
    "lemma13": {"trials": 100, "order": 20, "n_max": 4, "m_max": 3},
    "theorem1": {"trials": 40, "m_max": 3, "n_max": 6},
    "theorem2": {"m_max": 3, "k_max": 3, "n_max": 5},
    "corollary6": {"k_max": 4, "n_max": 15},
    "identities7_8": {"k_max": 3, "n_max": 8},
    "conjectures9_10": {"m_max": 3, "k_max": 3, "n_max": 8},
    "series_identities": {"k_max": 4, "order": 16},
    "theorem3": {"k_max": 3, "n_max": 5},
}

#: Largest `series --k` accepted: A^(k+1) and 1/A^(k+1) cost about k+1
#: passes over the series.
SERIES_MAX_K = 1000
#: Largest `series --order` accepted.
SERIES_MAX_ORDER = 10000

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
        if any(isinstance(v, Polynomial) for v in values):
            raise ValueError("bfile format requires numeric values (--c sym not allowed)")
        return "\n".join(f"{n} {v}" for n, v in enumerate(values))
    return json.dumps({**meta, "values": [_json_value(v) for v in values]}, indent=2)


def emit_report(report: CheckReport, fmt: str) -> str:
    """Render a CheckReport as text, json, or csv (one row per witness)."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim_id", "status", "category", "params", "lhs", "rhs"])
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


def _verify_options(ns, claim):
    defaults = VERIFY_DEFAULTS[claim]

    def pick(name):
        value = getattr(ns, name)
        return defaults.get(name) if value is None else value

    return {
        name: pick(name) for name in ("trials", "order", "m_max", "k_max", "n_max")
    }


def _run_claim(ns, claim) -> CheckReport:
    opts = _verify_options(ns, claim)
    cval = _parse_c(ns.c)
    if claim == "lemma13":
        return verify_mod.check_lemma13_random(
            opts["trials"], ns.rng_seed, opts["order"], opts["n_max"], opts["m_max"]
        )
    if claim == "theorem1":
        if ns.weights is not None:
            w = parse_weight_spec(ns.weights)
            return verify_mod.check_theorem1(w, opts["m_max"], opts["n_max"])
        return verify_mod.check_theorem1_random(
            opts["trials"], ns.rng_seed, opts["m_max"], opts["n_max"]
        )
    if claim == "theorem2":
        return verify_mod.check_theorem2(
            cval, opts["m_max"], opts["k_max"], opts["n_max"]
        )
    if claim == "corollary6":
        return verify_mod.check_corollary6(cval, opts["k_max"], opts["n_max"])
    if claim == "identities7_8":
        return verify_mod.check_identities7_8(cval, opts["k_max"], opts["n_max"])
    if claim == "conjectures9_10":
        return verify_mod.check_conjectures9_10(
            cval, opts["m_max"], opts["k_max"], opts["n_max"]
        )
    if claim == "series_identities":
        return verify_mod.check_series_identities(cval, opts["k_max"], opts["order"])
    return verify_mod.check_theorem3(cval, opts["k_max"], opts["n_max"])


def _cmd_seq(ns) -> int:
    if ns.n < 1:
        raise ValueError("--n must be >= 1 (number of terms)")
    w = parse_weight_spec(ns.weights)
    table = admissible_table(w, ns.n - 1)
    values = [column(table, ns.k, n) for n in range(ns.n)]
    meta = {"weights": w.describe(), "k": ns.k}
    print(_format_values(values, ns.format, meta))
    return 0


def _cmd_table(ns) -> int:
    if ns.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    w = parse_weight_spec(ns.weights)
    table = admissible_table(w, ns.n_max)
    if ns.format == "text":
        for n, row in enumerate(table.rows):
            print(f"n={n}: " + ", ".join(render(v) for v in row))
    elif ns.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for n, row in enumerate(table.rows):
            for k, v in enumerate(row):
                writer.writerow([n, k, render(v)])
    else:
        payload = {
            "weights": w.describe(),
            "max_n": table.max_n,
            "rows": [[_json_value(v) for v in row] for row in table.rows],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_det(ns) -> int:
    w = parse_weight_spec(ns.weights)
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
    if not 1 <= ns.order <= SERIES_MAX_ORDER:
        raise ValueError(f"--order must be in 1..{SERIES_MAX_ORDER}")
    if not 0 <= ns.k <= SERIES_MAX_K:
        raise ValueError(f"--k must be in 0..{SERIES_MAX_K}")
    cval = _parse_c(ns.c)
    exponent = -(ns.k + 1) if ns.reciprocal else ns.k + 1
    values = motzkin_power(cval, exponent, ns.order).coeffs
    meta = {"c": render(cval), "k": ns.k, "reciprocal": ns.reciprocal, "order": ns.order}
    print(_format_values(values, ns.format, meta))
    return 0


def _cmd_verify(ns) -> int:
    claims = list(CLAIM_IDS) if ns.claim == "all" else [ns.claim]
    reports = [_run_claim(ns, claim) for claim in claims]
    if ns.format == "json" and len(reports) > 1:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _unlimited_int_digits():
            return ns.func(ns)
    except (ValueError, ArithmeticError, InternalDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
