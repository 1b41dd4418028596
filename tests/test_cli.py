import csv
import dataclasses
import importlib.util
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from catalan_hankel import cli, hankel, sequences, verify
from catalan_hankel.cli import (
    DET_MAX_N,
    SEQ_MAX_N,
    SERIES_MAX_K,
    SERIES_MAX_ORDER,
    SYMBOLIC_SHARE,
    TABLE_MAX_N,
    VERIFY_RANGES,
    emit_report,
    main,
)
from catalan_hankel.hankel import InternalDivisionError
from catalan_hankel.ring import NotDivisibleError
from catalan_hankel.series import motzkin_power
from catalan_hankel.verify import (
    CLAIM_IDS,
    CLAIMS,
    CheckReport,
    check_conjectures9_10,
    check_theorem3,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_motzkin(capsys):
    code, out, _ = run_cli(capsys, "seq", "--weights", "const:1", "--k", "0", "--n", "8")
    assert code == 0
    assert out.strip() == "1,1,2,4,9,21,51,127"


def test_seq_bfile_format(capsys):
    code, out, _ = run_cli(capsys, "seq", "--weights", "const:1", "--n", "4", "--format", "bfile")
    assert code == 0
    assert out == "0 1\n1 1\n2 2\n3 4\n"


def test_seq_csv_format(capsys):
    code, out, _ = run_cli(capsys, "seq", "--weights", "const:1", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n"


def test_seq_json_symbolic(capsys):
    code, out, _ = run_cli(capsys, "seq", "--weights", "const:c", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"weights": "const:c", "k": 0, "values": [1, "c", "1 + c^2"]}


def test_seq_streams_its_column_without_the_whole_triangle(capsys, monkeypatch):
    def whole_triangle(*args):
        raise AssertionError("seq built the whole triangle")

    monkeypatch.setattr(cli, "admissible_table", whole_triangle)
    monkeypatch.setattr(sequences, "admissible_table", whole_triangle)
    code, out, _ = run_cli(capsys, "seq", "--weights", "const:1", "--k", "2", "--n", "9")
    assert code == 0
    assert out == "0,0,1,3,9,25,69,189,518\n"


def test_seq_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "seq", "--weights", "explicit:1,0;tail=0", "--n", "9", "--format", "csv")
    _, second, _ = run_cli(capsys, "seq", "--weights", "explicit:1,0;tail=0", "--n", "9", "--format", "csv")
    assert first == second


def test_det_worked_example(capsys):
    code, out, _ = run_cli(capsys, "det", "--weights", "const:1", "--m", "4", "--k", "2", "--n", "2")
    assert code == 0
    assert out.strip() == "-4"


def test_det_negative_shift(capsys):
    code, out, _ = run_cli(capsys, "det", "--weights", "explicit:1;tail=0", "--m=-2", "--k", "0", "--n", "5")
    assert code == 0
    assert out.strip() == "-2"


def test_det_json_symbolic(capsys):
    code, out, _ = run_cli(capsys, "det", "--weights", "const:c", "--m", "1", "--k", "0", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-2*c + c^3"  # the cubic Fibonacci polynomial


def test_series_motzkin_default(capsys):
    code, out, _ = run_cli(capsys, "series", "--c", "1", "--order", "8")
    assert code == 0
    assert out.strip() == "1,1,2,4,9,21,51,127"


def test_series_reciprocal_power(capsys):
    code, out, _ = run_cli(capsys, "series", "--c", "1", "--k", "2", "--reciprocal", "--order", "13")
    assert code == 0
    assert out.strip() == "1,-3,0,2,0,0,-1,-3,-9,-25,-69,-189,-518"


def test_series_symbolic_json(capsys):
    code, out, _ = run_cli(capsys, "series", "--c", "sym", "--order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, "c", "1 + c^2"]


def test_series_exact_beyond_int_str_digit_limit(capsys):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # CPython's default
        code, out, _ = run_cli(capsys, "series", "--c", "100", "--order", "2200", "--format", "json")
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300  # main leaves no process-wide state
        last = out.rstrip().splitlines()[-3].strip()
        assert len(last) > 4300
        sys.set_int_max_str_digits(0)
        assert int(last) == motzkin_power(100, 1, 2200)[2199]
        assert str(int(last)) == last
    finally:
        sys.set_int_max_str_digits(saved)


def test_series_k_ceiling(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--k", str(SERIES_MAX_K), "--reciprocal", "--order", "2"
    )
    assert code == 0
    assert out.strip() == f"1,{-(SERIES_MAX_K + 1)}"


def test_series_order_ceiling(capsys):
    code, out, _ = run_cli(capsys, "series", "--c", "0", "--order", str(SERIES_MAX_ORDER))
    assert code == 0
    assert len(out.split(",")) == SERIES_MAX_ORDER


def test_series_rejects_values_above_the_ceilings_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("series kernel called")

    monkeypatch.setattr(cli, "motzkin_power", no_work)
    for flag, value in (("--k", SERIES_MAX_K + 1), ("--order", SERIES_MAX_ORDER + 1)):
        code, out, err = run_cli(capsys, "series", flag, str(value))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be in ")


class _Reached(Exception):
    """Raised by a stubbed kernel: the command got past its input checks."""


def _stub(monkeypatch, kernel):
    def reached(*args, **kwargs):
        raise _Reached(kernel)

    monkeypatch.setattr(cli, kernel, reached)


# (command, kernel it calls, largest accepted value, error above it)
_SYM = SYMBOLIC_SHARE
_CEILINGS = [
    ("seq --weights const:1 --n {}", "columns", SEQ_MAX_N,
     f"--n must be in 1..{SEQ_MAX_N}\n"),
    ("seq --weights const:c --n {}", "columns", SEQ_MAX_N // _SYM,
     f"--n must be in 1..{SEQ_MAX_N // _SYM} for weights holding c\n"),
    ("table --weights const:1 --n-max {}", "admissible_table", TABLE_MAX_N,
     f"--n-max must be in 0..{TABLE_MAX_N}\n"),
    ("table --weights explicit:1,2;tail=c --n-max {}", "admissible_table", TABLE_MAX_N // _SYM,
     f"--n-max must be in 0..{TABLE_MAX_N // _SYM} for weights holding c\n"),
    ("det --weights const:1 --n {}", "hankel_det", DET_MAX_N,
     f"--n must be in 0..{DET_MAX_N}\n"),
    ("det --weights const:c --n {}", "hankel_det", DET_MAX_N // _SYM,
     f"--n must be in 0..{DET_MAX_N // _SYM} for weights holding c\n"),
    ("det --weights const:1 --n 1 --m {}", "hankel_det", TABLE_MAX_N,
     f"the triangle depth 2(n-1)+m must be in 0..{TABLE_MAX_N}\n"),
    ("det --weights shift^2:explicit:1,2,c --n 1 --m {}", "hankel_det", TABLE_MAX_N // _SYM,
     f"the triangle depth 2(n-1)+m must be in 0..{TABLE_MAX_N // _SYM} for weights holding c\n"),
    # integer weights of b > 2 bits: n**3 * (b + 1) * (b + 250) <= WEIGHT_BITS_WORK * ceiling**3
    ("det --weights const:-3 --n {}", "hankel_det", DET_MAX_N,
     f"--n must be in 0..{DET_MAX_N}\n"),
    ("det --weights const:7 --n {}", "hankel_det", 272,
     "--n must be in 0..272 for weights of 3 bits\n"),
    ("det --weights const:1000000 --n {}", "hankel_det", 153,
     "--n must be in 0..153 for weights of 20 bits\n"),
    ("det --weights const:1000000 --n 1 --m {}", "hankel_det", 510,
     "the triangle depth 2(n-1)+m must be in 0..510 for weights of 20 bits\n"),
    ("seq --weights const:1000000 --n {}", "columns", 1021,
     "--n must be in 1..1021 for weights of 20 bits\n"),
    ("seq --weights explicit:c,-1000000 --n {}", "columns", 204,
     "--n must be in 1..204 for weights of 20 bits\n"),
    ("table --weights const:1000000 --n-max {}", "admissible_table", 510,
     "--n-max must be in 0..510 for weights of 20 bits\n"),
    ("series --c sym --order {}", "motzkin_power", 1400,
     "--c sym needs (k + 16) * (order + 2k)**3 <= 43904000000\n"),
    ("series --c sym --k 100 --order {}", "motzkin_power", 523,
     "--c sym needs (k + 16) * (order + 2k)**3 <= 43904000000\n"),
]


@pytest.mark.parametrize("template, kernel, limit, error", _CEILINGS)
def test_ceiling_admits_its_largest_value(monkeypatch, template, kernel, limit, error):
    _stub(monkeypatch, kernel)
    with pytest.raises(_Reached):
        main(template.format(limit).split())


@pytest.mark.parametrize("template, kernel, limit, error", _CEILINGS)
def test_ceiling_rejects_the_next_value_before_any_work(
    capsys, monkeypatch, template, kernel, limit, error
):
    _stub(monkeypatch, kernel)
    code, out, err = run_cli(capsys, *template.format(limit + 1).split())
    assert code == 2
    assert out == ""
    assert err == f"error: {error}"


def test_symbolic_series_bound_leaves_integer_c_alone(monkeypatch):
    _stub(monkeypatch, "motzkin_power")
    with pytest.raises(_Reached):
        main(["series", "--k", str(SERIES_MAX_K), "--order", str(SERIES_MAX_ORDER)])


def test_weight_bits_count_only_the_heights_used(monkeypatch):
    # depth 2(n-1)+m = 0: only height 0 is used; at 3322 bits --n stops at 11
    _stub(monkeypatch, "hankel_det")
    with pytest.raises(_Reached):
        main(["det", "--weights", f"explicit:1;tail={10**1000}", "--n", "40", "--m", "-78"])
    with pytest.raises(ValueError, match=r"0\.\.11 for weights of 3322 bits"):
        cli._check_range("--n", 40, 0, DET_MAX_N, cli.parse_weight_spec(f"const:{10**1000}"))


def test_det_depth_check_is_quick_for_a_huge_shift(capsys):
    code, _, err = run_cli(capsys, "det", "--weights", "const:c", "--n", "100", "--m", "1000000000")
    assert code == 2
    assert err.startswith("error: the triangle depth 2(n-1)+m must be in 0..")


def _benchmark_invocations(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return [
        argv
        for name in workloads.WORKLOADS
        for _, argv in workloads.invocations(name, 0)
    ]


def _stub_checkers(monkeypatch):
    """Replace every checker a verify run can call with one raising _Reached."""

    def reached(*args, **kwargs):
        raise _Reached("checker")

    for claim_id, claim in CLAIMS.items():
        monkeypatch.setitem(CLAIMS, claim_id, dataclasses.replace(claim, check=reached))
    monkeypatch.setattr(verify, "check_theorem1", reached)


def test_every_benchmark_invocation_passes_the_input_checks(monkeypatch):
    kernels = {"verify": "checker", "series": "motzkin_power", "det": "hankel_det"}
    _stub(monkeypatch, "motzkin_power")
    _stub(monkeypatch, "hankel_det")
    _stub_checkers(monkeypatch)
    for argv in _benchmark_invocations(monkeypatch):
        with pytest.raises(_Reached, match=kernels[argv[0]]):
            main(argv)


def _edge_shapes(monkeypatch):
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    monkeypatch.syspath_prepend(str(scripts))  # for its bench_pairs import
    spec = importlib.util.spec_from_file_location("edge_times", scripts / "edge_times.py")
    edge_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(edge_times)
    return edge_times.SHAPES


def test_every_edge_shape_passes_the_input_checks(monkeypatch):
    # a shape the CLI stops admitting cannot stay in the timed list unnoticed
    kernels = {
        "seq": "columns",
        "table": "admissible_table",
        "det": "hankel_det",
        "series": "motzkin_power",
        "verify": "checker",
    }
    for kernel in kernels.values():
        if kernel != "checker":
            _stub(monkeypatch, kernel)
    _stub_checkers(monkeypatch)
    for shape in _edge_shapes(monkeypatch):
        argv = shlex.split(shape)
        with pytest.raises(_Reached, match=kernels[argv[0]]):
            main(argv)


# (flag, a claim that takes it, whether that claim takes --c)
_VERIFY_CEILINGS = [
    ("--trials", "lemma13", False),
    ("--trials", "theorem1", False),
    ("--order", "series_identities", True),
    ("--order", "lemma13", False),
    ("--m-max", "theorem2", True),
    ("--m-max", "theorem1", False),
    ("--k-max", "corollary6", True),
    ("--n-max", "corollary6", True),
    ("--n-max", "lemma13", False),
]


def _verify_range(flag):
    return VERIFY_RANGES[flag[2:].replace("-", "_")]


@pytest.mark.parametrize("flag, claim, takes_c", _VERIFY_CEILINGS)
def test_verify_ceiling_admits_its_largest_value(monkeypatch, flag, claim, takes_c):
    _stub_checkers(monkeypatch)
    lo, hi = _verify_range(flag)
    if flag == "--order":  # below its least order at the defaults the claim refuses it
        lo = cli._least_order(claim, CLAIMS[claim].defaults)
    for value in (lo, hi):
        with pytest.raises(_Reached):
            main(["verify", claim, flag, str(value)])


@pytest.mark.parametrize("flag, claim, takes_c", _VERIFY_CEILINGS)
def test_verify_ceiling_rejects_the_next_value_before_any_work(
    capsys, monkeypatch, flag, claim, takes_c
):
    _stub_checkers(monkeypatch)
    lo, hi = _verify_range(flag)
    for value in (lo - 1, hi + 1):
        code, out, err = run_cli(capsys, "verify", claim, flag, str(value))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be in {lo}..{hi}\n"


@pytest.mark.parametrize("flag, claim, takes_c", _VERIFY_CEILINGS)
def test_verify_ceiling_for_symbolic_c(capsys, monkeypatch, flag, claim, takes_c):
    # a fifth of the ceiling for a claim computing with --c sym; the seeded
    # claims never read c and keep theirs
    _stub_checkers(monkeypatch)
    lo, hi = _verify_range(flag)
    top = hi // SYMBOLIC_SHARE if takes_c else hi
    with pytest.raises(_Reached):
        main(["verify", claim, "--c", "sym", flag, str(top)])
    code, out, err = run_cli(capsys, "verify", claim, "--c", "sym", flag, str(top + 1))
    assert code == 2
    assert out == ""
    holding_c = " for weights holding c" if takes_c else ""
    assert err == f"error: {flag} must be in {lo}..{top}{holding_c}\n"


def test_verify_ceiling_for_a_large_integer_c(capsys, monkeypatch):
    # 51**3 <= WEIGHT_BITS_WORK * 100**3 / ((20 + 1) * (20 + 250)) < 52**3
    _stub_checkers(monkeypatch)
    assert VERIFY_RANGES["n_max"][1] == 100
    with pytest.raises(_Reached):
        main(["verify", "corollary6", "--c", str(10**6), "--n-max", "51"])
    code, out, err = run_cli(capsys, "verify", "corollary6", "--c", str(10**6), "--n-max", "52")
    assert code == 2
    assert out == ""
    assert err == "error: --n-max must be in 0..51 for weights of 20 bits\n"


# theorem1 --weights: (spec, flag, largest accepted value, error above it);
# the weights lower the ceilings as --c does, never below theorem1's
# defaults m_max 3, n_max 6
_BIG = 10**1000
_THEOREM1_WEIGHT_CEILINGS = [
    ("const:c", "--n-max", 20, "--n-max must be in 0..20 for weights holding c"),
    ("const:c", "--m-max", 10, "--m-max must be in 0..10 for weights holding c"),
    ("explicit:1,2;tail=c", "--n-max", 20, "--n-max must be in 0..20 for weights holding c"),
    ("const:1000000", "--n-max", 51, "--n-max must be in 0..51 for weights of 20 bits"),
    ("const:1000000", "--m-max", 25, "--m-max must be in 0..25 for weights of 20 bits"),
    (f"const:{_BIG}", "--n-max", 6, "--n-max must be in 0..6 for weights of 3322 bits"),
    (f"const:{_BIG}", "--m-max", 3, "--m-max must be in 0..3 for weights of 3322 bits"),
]


@pytest.mark.parametrize("spec, flag, top, error", _THEOREM1_WEIGHT_CEILINGS)
def test_verify_theorem1_weights_lower_its_ceilings(capsys, monkeypatch, spec, flag, top, error):
    _stub_checkers(monkeypatch)
    with pytest.raises(_Reached):
        main(["verify", "theorem1", "--weights", spec, flag, str(top)])
    code, out, err = run_cli(capsys, "verify", "theorem1", "--weights", spec, flag, str(top + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {error}\n"


def test_verify_theorem1_weights_count_only_the_heights_read(capsys, monkeypatch):
    # theorem1 reads heights 0..2 n_max + m_max: sixteen ones, then 10**1000
    _stub_checkers(monkeypatch)
    spec = "explicit:" + ",".join(["1"] * 16) + f";tail={_BIG}"
    with pytest.raises(_Reached):
        main(["verify", "theorem1", "--weights", spec, "--n-max", "7", "--m-max", "1"])
    code, _, err = run_cli(
        capsys, "verify", "theorem1", "--weights", spec, "--n-max", "7", "--m-max", "2"
    )
    assert code == 2
    assert err == "error: --n-max must be in 0..6 for weights of 3322 bits\n"


# products of flags, each alone inside its ceiling, that lemma13 and
# theorem1 refuse, with the bounds the error spells out
_WORK_REFUSED = [
    ("theorem1 --trials 10000 --n-max 100", "--trials 10000 --m-max 3 --n-max 100"),
    ("theorem1 --m-max 50 --n-max 50", "--trials 40 --m-max 50 --n-max 50"),
    ("lemma13 --trials 10000 --n-max 100", "--trials 10000 --order 207 --n-max 100 --m-max 3"),
    ("lemma13 --trials 10000 --order 500", "--trials 10000 --order 500 --n-max 4 --m-max 3"),
]


@pytest.mark.parametrize("argv, bounds", _WORK_REFUSED)
def test_verify_refuses_a_product_of_flags_before_any_work(capsys, monkeypatch, argv, bounds):
    _stub_checkers(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv.split())
    assert (code, out) == (2, "")
    claim = argv.split()[0]
    assert err == f"error: verify {claim} {bounds}: more work than one flag at its ceiling\n"
    # verify all checks the product for each claim it runs
    code, out, err = run_cli(capsys, "verify", "all", *argv.split()[1:])
    assert (code, out) == (2, "")
    assert err.endswith(": more work than one flag at its ceiling\n")


@pytest.mark.parametrize("claim", cli.WORK_BOUND_CLAIMS)
def test_verify_work_bound_admits_each_flag_at_its_ceiling(monkeypatch, claim):
    _stub_checkers(monkeypatch)
    for name in CLAIMS[claim].defaults:
        with pytest.raises(_Reached):
            main(["verify", claim, cli._flag(name), str(VERIFY_RANGES[name][1])])


def test_verify_work_bound_is_the_slowest_single_ceiling():
    # lemma13 --n-max 100 at its derived order 207 sets lemma13's bar, and
    # theorem1 --n-max 100 theorem1's
    for claim in cli.WORK_BOUND_CLAIMS:
        bounds = cli._fill_bounds(claim, CLAIMS[claim].defaults, {"n_max": 100})
        assert cli._work_bar(claim) == cli._work(bounds)
    assert cli._fill_bounds("lemma13", ("order", "n_max", "m_max"), {"n_max": 100})["order"] == 207


def test_verify_theorem1_weights_count_as_one_trial(capsys, monkeypatch):
    _stub_checkers(monkeypatch)
    with pytest.raises(_Reached):
        main(["verify", "theorem1", "--weights", "const:1", "--m-max", "50", "--n-max", "100"])
    code, _, err = run_cli(
        capsys, "verify", "theorem1", "--trials", "2", "--m-max", "50", "--n-max", "100"
    )
    assert code == 2
    assert err.endswith(": more work than one flag at its ceiling\n")


def test_verify_all_admits_every_default_at_any_c(capsys, monkeypatch):
    # at 3322 bits the weight-bit rule alone would stop --n-max at 3, below
    # corollary6's default 15, and --m-max at 1, below theorem2's default 3
    ran = []

    def checker(claim_id):
        def check(**kwargs):
            ran.append(claim_id)
            return CheckReport(claim_id, kwargs, 0)

        return check

    for claim_id, claim in CLAIMS.items():
        monkeypatch.setitem(CLAIMS, claim_id, dataclasses.replace(claim, check=checker(claim_id)))
    for c in (str(_BIG), "sym"):
        ran.clear()
        code, _, err = run_cli(capsys, "verify", "all", "--c", c)
        assert (code, err, ran) == (0, "", list(CLAIM_IDS))
    code, _, err = run_cli(capsys, "verify", "theorem2", "--c", str(_BIG), "--m-max", "4")
    assert code == 2
    assert err == "error: --m-max must be in 0..3 for weights of 3322 bits\n"


def test_verify_all_checks_every_claim_before_any_runs(capsys, monkeypatch):
    ran = []
    for claim_id, claim in CLAIMS.items():
        monkeypatch.setitem(
            CLAIMS, claim_id, dataclasses.replace(claim, check=lambda **kw: ran.append(kw))
        )
    # --order is taken by lemma13 (runs first) and by series_identities,
    # whose symbolic ceiling it exceeds
    top = VERIFY_RANGES["order"][1] // SYMBOLIC_SHARE
    code, out, err = run_cli(capsys, "verify", "all", "--c", "sym", "--order", str(top + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: --order must be in 1..{top} for weights holding c\n"
    assert ran == []


@pytest.mark.parametrize(
    "exc", [NotDivisibleError("7 is not divisible by 2"), ZeroDivisionError("division by zero")]
)
def test_series_arithmetic_fault_exits_two(capsys, monkeypatch, exc):
    def failing(*args):
        raise exc

    monkeypatch.setattr(cli, "motzkin_power", failing)
    code, out, err = run_cli(capsys, "series", "--order", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {exc}\n"


def test_det_internal_division_error_exits_two(capsys, monkeypatch):
    def failing(matrix):
        raise InternalDivisionError("inexact division at elimination step 0")

    monkeypatch.setattr(hankel, "_minors", failing)
    code, out, err = run_cli(capsys, "det", "--weights", "const:1", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: inexact division at elimination step 0\n"


def test_det_inexact_division_over_zc_exits_two(capsys, monkeypatch):
    # the Z[c] kernel's own division fails: a Polynomial is never divided
    def failing(num, den):
        raise NotDivisibleError("remainder [1]")

    monkeypatch.setattr(hankel, "_exact_div", failing)
    code, out, err = run_cli(capsys, "det", "--weights", "const:c", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: inexact division at elimination step 0\n"


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--weights", "const:1", "--n-max", "3")
    assert code == 0
    assert out == "n=0: 1\nn=1: 1, 1\nn=2: 2, 2, 1\nn=3: 4, 5, 3, 1\n"


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--weights", "const:1", "--n-max", "1", "--format", "csv")
    assert code == 0
    assert out == "n,k,value\n0,0,1\n1,0,1\n1,1,1\n"


def test_verify_theorem2_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "theorem2", "--c", "1",
        "--m-max", "2", "--k-max", "2", "--n-max", "5", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["claim_id"] == "theorem2"
    assert report["status"] == "verified"
    assert report["failures"] == []


def test_verify_text_summary_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "corollary6", "--c", "2", "--k-max", "2", "--n-max", "8")
    assert code == 0
    assert out.splitlines()[0].startswith("corollary6: verified (")


def test_verify_theorem1_with_explicit_weights(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem1", "--weights", "explicit:1;tail=0", "--m-max", "2", "--n-max", "4"
    )
    assert code == 0
    assert "theorem1: verified" in out


def test_verify_lemma13_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma13", "--trials", "5", "--rng-seed", "9")
    assert code == 0
    assert "lemma13: verified" in out


def test_verify_conjectures_exit_code_reflects_witnesses(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjectures9_10", "--c", "1", "--n-max", "12")
    assert code == 1
    assert "conjectures9_10: mixed" in out
    assert "sign-flip" in out


def test_verify_runs_are_byte_stable(capsys):
    args = ("verify", "theorem2", "--c", "1", "--m-max", "1", "--k-max", "1", "--n-max", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# (flag, a claim that does not take it, a claim that does)
_VERIFY_FLAGS = [
    ("--trials 2", "corollary6", "lemma13"),
    ("--order 12", "theorem2", "series_identities"),
    ("--m-max 1", "identities7_8", "theorem1"),
    ("--k-max 1", "theorem1", "corollary6"),
    ("--n-max 3", "series_identities", "theorem3"),
    ("--weights const:1", "corollary6", "theorem1"),
]


@pytest.mark.parametrize("flag, refusing, taking", _VERIFY_FLAGS)
def test_verify_rejects_a_flag_the_claim_does_not_take(capsys, flag, refusing, taking):
    code, out, err = run_cli(capsys, "verify", refusing, *flag.split())
    assert code == 2
    assert out == ""
    assert err == f"error: verify {refusing} does not take {flag.split()[0]}\n"


@pytest.mark.parametrize("flag, refusing, taking", _VERIFY_FLAGS)
def test_verify_accepts_a_flag_the_claim_takes(capsys, flag, refusing, taking):
    code, out, _ = run_cli(capsys, "verify", taking, *flag.split(), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["claim_id"] == taking
    name = flag.split()[0][2:].replace("-", "_")
    if name == "weights":
        assert report["params"]["weights"] == "const:1"
    else:
        assert report["params"][name] == int(flag.split()[1])


def test_verify_lists_every_flag_the_claim_does_not_take(capsys):
    code, _, err = run_cli(capsys, "verify", "corollary6", "--trials", "3", "--weights", "const:1")
    assert code == 2
    assert err == "error: verify corollary6 does not take --trials, --weights\n"


def test_verify_theorem1_with_weights_runs_no_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem1", "--weights", "const:1", "--trials", "3")
    assert code == 2
    assert err == "error: verify theorem1 --weights does not take --trials\n"


def test_verify_all_applies_each_flag_where_it_is_taken(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--trials", "2", "--order", "12", "--m-max", "1", "--k-max", "1",
        "--n-max", "3", "--weights", "const:1", "--format", "json",
    )
    assert code == 1  # the conjecture report records sign-flip witnesses
    params = {r["claim_id"]: r["params"] for r in json.loads(out)}
    assert params["lemma13"]["trials"] == 2 and params["lemma13"]["order"] == 12
    assert params["theorem1"]["weights"] == "const:1"
    assert "trials" not in params["theorem1"]
    assert params["series_identities"]["order"] == 12
    assert params["theorem2"]["m_max"] == 1 and params["theorem2"]["k_max"] == 1


@pytest.mark.parametrize(
    "argv", [("theorem1", "--n-max", "0"), ("theorem1", "--m-max", "0"), ("all", "--n-max", "0")]
)
def test_verify_theorem1_runs_at_zero_bounds(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--format", "json")
    assert err == ""
    assert code == (1 if argv[0] == "all" else 0)  # all: the conjectures are mixed
    reports = json.loads(out) if argv[0] == "all" else [json.loads(out)]
    assert [r["status"] for r in reports if r["claim_id"] == "theorem1"] == ["verified"]


def test_verify_series_identities_derives_its_order_from_k_max(capsys):
    for argv, order in ((("--k-max", "6"), 16), (("--k-max", "7"), 18), (("--k-max", "10"), 24)):
        code, out, err = run_cli(capsys, "verify", "series_identities", *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["order"] == order
    code, out, err = run_cli(capsys, "verify", "all", "--k-max", "10", "--format", "json")
    assert err == ""
    params = {r["claim_id"]: r["params"] for r in json.loads(out)}
    assert params["series_identities"]["order"] == 24
    assert params["lemma13"]["order"] == CLAIMS["lemma13"].defaults["order"]


def test_verify_lemma13_derives_its_order_from_n_max_and_m_max(capsys):
    # lemma13 needs order >= 2 (n_max + m_max) + 1; the defaults (4, 3) need 15
    for argv, order in (((), 20), (("--n-max", "8"), 23), (("--m-max", "9"), 27)):
        code, out, err = run_cli(
            capsys, "verify", "lemma13", "--trials", "2", *argv, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["order"] == order
    code, out, err = run_cli(capsys, "verify", "all", "--n-max", "8", "--format", "json")
    assert (code, err) == (1, "")  # as at the defaults: the conjectures are mixed
    reports = {r["claim_id"]: r for r in json.loads(out)}
    assert reports["lemma13"]["params"]["order"] == 23
    assert [r["status"] for r in reports.values()].count("verified") == len(CLAIM_IDS) - 1
    code, out, err = run_cli(capsys, "verify", "lemma13", "--n-max", "8", "--order", "22")
    assert (code, out) == (2, "")
    assert err == "error: series order 22 too small: need >= 23\n"


def test_theorem1_weights_ceilings_read_the_depth_its_requests_reach():
    for n_max in range(7):
        for m_max in range(5):
            assert cli._theorem1_depth(m_max, n_max) == 2 * n_max + m_max


def test_theorem1_makes_the_requests_its_ceilings_read(monkeypatch):
    made = []
    real = verify.hankel_dets

    def recording(w, requests):
        made.append(list(requests))
        return real(w, requests)

    monkeypatch.setattr(verify, "hankel_dets", recording)
    verify.check_theorem1(sequences.Constant(1), 2, 3)
    assert made == [list(r) for r in verify.theorem1_requests(2, 3)]


def test_verify_series_identities_rejects_a_small_explicit_order(capsys):
    for claim in ("series_identities", "all"):
        code, out, err = run_cli(capsys, "verify", claim, "--k-max", "7", "--order", "17")
        assert (code, out) == (2, "")
        assert err == "error: order 17 too small: need >= 18\n"


def test_verify_all_refuses_a_small_explicit_order_before_any_claim_runs(capsys, monkeypatch):
    ran = []
    for claim_id, claim in CLAIMS.items():
        monkeypatch.setitem(
            CLAIMS, claim_id, dataclasses.replace(claim, check=lambda **kw: ran.append(kw))
        )
    # the least order is checked with the ranges, not by the checker, so a
    # run of every claim no longer does six claims' work before refusing
    code, out, err = run_cli(capsys, "verify", "all", "--k-max", "7", "--order", "17")
    assert (code, out, err) == (2, "", "error: order 17 too small: need >= 18\n")
    code, out, err = run_cli(capsys, "verify", "all", "--n-max", "8", "--order", "22")
    assert (code, out, err) == (2, "", "error: series order 22 too small: need >= 23\n")
    assert ran == []


def test_verify_all_csv_has_one_header_and_each_claims_witnesses(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--format", "csv")
    assert (code, err) == (1, "")
    rows = list(csv.reader(io.StringIO(out)))
    header = ["claim_id", "status", "category", "params", "lhs", "rhs"]
    assert rows[0] == header
    assert header not in rows[1:]
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    failures = {r["claim_id"]: len(r["failures"]) for r in json.loads(out)}
    assert {c: sum(row[0] == c for row in rows[1:]) for c in CLAIM_IDS} == failures
    assert len(rows) == 1 + sum(failures.values())


def test_usage_error_bad_weights(capsys):
    code, _, err = run_cli(capsys, "seq", "--weights", "bogus:1", "--n", "3")
    assert code == 2
    assert "bad weight spec" in err


def test_usage_error_bad_c(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem2", "--c", "q")
    assert code == 2
    assert "--c" in err


def test_usage_error_bfile_with_symbols(capsys):
    # seq has no --c: the message names the first value that holds c
    code, out, err = run_cli(capsys, "seq", "--weights", "const:c", "--n", "3", "--format", "bfile")
    assert (code, out) == (2, "")
    assert err == "error: bfile format requires numeric values; value 1 holds c\n"
    code, out, err = run_cli(
        capsys, "seq", "--weights", "explicit:1,c", "--n", "5", "--format", "bfile"
    )
    assert (code, out) == (2, "")
    assert err == "error: bfile format requires numeric values; value 3 holds c\n"


@pytest.mark.parametrize("reciprocal", [[], ["--reciprocal"]])
def test_series_refuses_a_symbolic_bfile_before_computing_it(capsys, monkeypatch, reciprocal):
    # coefficient 1 of A^(k+1) and of 1/A^(k+1) is +-(k+1)c from order 2 on
    def not_run(*args):
        raise AssertionError("motzkin_power ran")

    monkeypatch.setattr(cli, "motzkin_power", not_run)
    for k, order in (("3", "2"), ("0", "1400")):
        argv = ["series", "--c", "sym", "--k", k, "--order", order, "--format", "bfile"]
        code, out, err = run_cli(capsys, *argv, *reciprocal)
        assert (code, out) == (2, "")
        assert err == "error: bfile format requires numeric values; value 1 holds c\n"


@pytest.mark.parametrize("reciprocal", [[], ["--reciprocal"]])
def test_series_bfile_of_order_one_holds_no_c(capsys, reciprocal):
    code, out, err = run_cli(
        capsys, "series", "--c", "sym", "--order", "1", "--format", "bfile", *reciprocal
    )
    assert (code, out, err) == (0, "0 1\n", "")


def test_bfile_prints_values_held_as_constant_polynomials(capsys):
    # c never reaches column 0 of the first three rows: every value is numeric
    code, out, err = run_cli(
        capsys, "seq", "--weights", "explicit:1,c", "--n", "3", "--format", "bfile"
    )
    assert (code, out, err) == (0, "0 1\n1 1\n2 2\n", "")


def test_usage_error_unknown_claim(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_usage_error_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "det", "--weights", "const:1")
    assert code == 2


def test_emit_report_csv_has_one_row_per_witness():
    report = check_conjectures9_10(1, 2, 1, 8)
    text = emit_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "claim_id,status,category,params,lhs,rhs"
    assert len(lines) == 1 + len(report.failures)


def test_emit_report_text_for_verified_report():
    report = check_theorem3(1, 1, 2)
    text = emit_report(report, "text")
    assert text.splitlines()[0] == "theorem3: verified (6 instances, 0 failures)"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "catalan_hankel", "seq", "--weights", "const:1", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1,1,2,4,9"


def test_closed_stdout_exits_141_quietly():
    # 3 MB of rows: far more than a pipe holds, so writing outlives the reader
    argv = ["table", "--weights", "const:1", "--n-max", "300"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "catalan_hankel", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"n=0: 1\n"
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


_MIXED_ARGVS = [
    ["seq", "--weights", "const:1", "--n", "5"],
    ["verify", "nonsense"],
    ["det", "--weights", "const:c", "--m", "1", "--n", "4", "--format", "json"],
    ["--help"],
    ["det", "--weights", "const:1"],
    ["verify", "theorem3", "--c", "sym", "--k-max", "1", "--n-max", "2"],
    ["series", "--help"],
    ["seq", "--weights", "bogus:1"],
    ["table", "--weights", "const:1", "--n-max", "2", "--format", "csv"],
    [],
    ["series", "--k", "1", "--order", "6", "--reciprocal"],
    ["seq", "--weights", "const:1", "--n", "5"],
]


def test_back_to_back_calls_match_fresh_parsers(capsys):
    # main builds its parser once per process; every call must behave as
    # if the parser were new, usage errors and --help included
    shared = [run_cli(capsys, *argv) for argv in _MIXED_ARGVS]
    fresh = []
    for argv in _MIXED_ARGVS:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0, 0, 2, 0, 2, 0, 0]
    assert shared[0] == shared[-1]
    assert cli._parser() is cli._parser()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
