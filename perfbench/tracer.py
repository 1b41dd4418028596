"""Per-layer tracing of catalan_hankel from outside its source.

``Tracer.install`` replaces each layer's public functions with timing
wrappers.  The library binds many of them with ``from ... import``, so a
function is replaced under every name that holds it: in each
``catalan_hankel`` module namespace and in the ``Polynomial`` and
``TruncatedSeries`` class dictionaries.  ``uninstall`` puts every original
back.

A span's self time is its duration minus the durations of the spans it
encloses.  The work a wrapper does for its own bookkeeping is counted as a
child span of the caller, so it lands in no layer's self time; it shows
only as ``trace.overhead_s``.
"""

from __future__ import annotations

import sys
import time

from catalan_hankel import cli, hankel, polyfam, ring, sequences, series, verify

CLAIM_OF = {
    "check_lemma13": "lemma13",
    "check_lemma13_random": "lemma13",
    "check_theorem1": "theorem1",
    "check_theorem1_random": "theorem1",
    "check_theorem2": "theorem2",
    "check_corollary6": "corollary6",
    "check_identities7_8": "identities7_8",
    "check_conjectures9_10": "conjectures9_10",
    "check_series_identities": "series_identities",
    "check_theorem3": "theorem3",
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _max_bits(coeffs):
    return max(v.bit_length() for v in coeffs) if coeffs else 0


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.stats = {}
        self._stack = [[0.0]]
        self._patches = []
        self.kronecker = 0
        self.div_failures = 0
        self.max_degree = 0
        self.max_bits = 0
        self.table_keys = set()
        self.rows_built = 0
        self.det_keys = set()
        self.det_zeros = 0
        self.det_max_n = 0
        self.max_order = 0
        self.instances = {claim: 0 for claim in verify.CLAIM_IDS}

    # -- wrapping -----------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, Stat())

    def _wrap(self, fn, stat, before=None, after=None, on_error=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            if before is not None:
                before(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += span
                stat.self_s += span - frame[0]
            if after is not None:
                after(result, *args)
            stack[-1][0] += clock() - enter
            return result

        return wrapper

    def _patch(self, fn, wrapper):
        owners = [m for n, m in sys.modules.items() if n.startswith("catalan_hankel")]
        owners += [ring.Polynomial, series.TruncatedSeries]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, name, fn))
                    setattr(owner, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # wrap everything before patching anything, so no wrapper wraps a wrapper
        for fn, wrapper in list(self._wrappers()):
            self._patch(fn, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def patched(self):
        """(owner, attribute name, original) for every replaced binding."""
        return list(self._patches)

    # -- observations -------------------------------------------------------

    def _see(self, degree, bits):
        if degree > self.max_degree:
            self.max_degree = degree
        if bits > self.max_bits:
            self.max_bits = bits

    def _wrappers(self):
        P = ring.Polynomial
        T = series.TruncatedSeries

        def mul_before(a, b):
            b = P._coerce(b)
            if b is None or not (a.coeffs and b.coeffs):
                return
            if len(a.coeffs) * len(b.coeffs) > ring._SCHOOLBOOK_CUTOFF:
                self.kronecker += 1

        def mul_after(result, *args):
            if isinstance(result, P):
                self._see(len(result.coeffs) - 1, _max_bits(result.coeffs))

        def poly_div_before(a, b):
            self._see(len(a.coeffs) - 1, _max_bits(a.coeffs))

        def exact_div_before(a, b):
            if isinstance(a, int):
                self._see(0, a.bit_length())

        def count_failure(exc):
            if isinstance(exc, ring.NotDivisibleError):
                self.div_failures += 1

        def table_before(w, max_n):
            self.table_keys.add((w, max_n))
            self.rows_built += max_n

        def det_before(w, m, k, n):
            self.det_keys.add((w, m, k, n))
            if n > self.det_max_n:
                self.det_max_n = n

        def det_after(result, *args):
            if result == 0:
                self.det_zeros += 1

        def motzkin_before(cval, order):
            if order > self.max_order:
                self.max_order = order

        def series_before(s, *args):
            if s.order > self.max_order:
                self.max_order = s.order

        def claim_after(report, *args):
            self.instances[report.claim_id] += report.instances_tested

        mul = self._stat("ring.poly_mul")
        yield P.__mul__, self._wrap(P.__mul__, mul, mul_before, mul_after)
        div = self._stat("ring.poly_div")
        yield P.exact_div, self._wrap(P.exact_div, div, poly_div_before, on_error=count_failure)
        ediv = self._stat("ring.exact_div")
        yield ring.exact_div, self._wrap(ring.exact_div, ediv, exact_div_before, on_error=count_failure)

        table = self._stat("sequences.table")
        yield sequences.admissible_table, self._wrap(sequences.admissible_table, table, table_before)

        det = self._stat("hankel.det")
        yield hankel.hankel_det, self._wrap(hankel.hankel_det, det, det_before, det_after)
        bareiss = self._stat("hankel.bareiss")
        yield hankel.det_fraction_free, self._wrap(hankel.det_fraction_free, bareiss)

        motzkin = self._stat("series.motzkin")
        yield series.motzkin_series, self._wrap(series.motzkin_series, motzkin, motzkin_before)
        for attr, name in (("__mul__", "mul"), ("__pow__", "pow"), ("reciprocal", "reciprocal")):
            fn = vars(T)[attr]
            yield fn, self._wrap(fn, self._stat(f"series.{name}"), series_before)

        fam = self._stat("polyfam")
        for fn in (polyfam.fibonacci_poly, polyfam.lucas_poly,
                   polyfam.lucas_bivariate_eval, polyfam.lucas_bivariate_at):
            yield fn, self._wrap(fn, fam)

        for fn_name, claim in CLAIM_OF.items():
            fn = getattr(verify, fn_name)
            yield fn, self._wrap(fn, self._stat(f"verify.{claim}"), after=claim_after)

        yield cli.main, self._wrap(cli.main, self._stat("cli.main"))
        yield cli.emit_report, self._wrap(cli.emit_report, self._stat("cli.emit_report"))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values by name (the stdout byte count is the caller's)."""
        s = self.stats
        out = {}
        for name in ("ring.poly_mul", "ring.poly_div", "ring.exact_div",
                     "sequences.table", "hankel.det", "hankel.bareiss",
                     "series.motzkin", "series.mul", "series.pow", "series.reciprocal"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        out["ring.poly_mul.kronecker_share"] = _ratio(self.kronecker, s["ring.poly_mul"].calls)
        out["ring.div_failures"] = self.div_failures
        out["ring.max_degree"] = self.max_degree
        out["ring.max_bits"] = self.max_bits
        out["sequences.table.rows_built"] = self.rows_built
        out["sequences.table.distinct_ratio"] = _ratio(len(self.table_keys), s["sequences.table"].calls)
        out["hankel.det.distinct_ratio"] = _ratio(len(self.det_keys), s["hankel.det"].calls)
        out["hankel.det.zero_share"] = _ratio(self.det_zeros, s["hankel.det"].calls)
        out["hankel.det.max_n"] = self.det_max_n
        out["series.max_order"] = self.max_order
        out["polyfam.calls"] = s["polyfam"].calls
        out["polyfam.self_s"] = s["polyfam"].self_s
        for claim in verify.CLAIM_IDS:
            out[f"verify.{claim}.total_s"] = s[f"verify.{claim}"].total_s
            out[f"verify.{claim}.instances"] = self.instances[claim]
        out["cli.main.self_s"] = s["cli.main"].self_s
        out["cli.emit_report.self_s"] = s["cli.emit_report"].self_s
        return out
