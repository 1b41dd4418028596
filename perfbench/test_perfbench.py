"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import passrun  # noqa: E402

cli = passrun.import_cli()

import run  # noqa: E402
from catalan_hankel import hankel, ring, series, verify  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SYM_KEY = "verify theorem3 --c sym --k-max 3 --n-max 7 --format json"
LEMMA_KEY = "verify lemma13 --trials 300 --rng-seed {seed} --format json"


def _call(workload, key, seed=0):
    return [(k, argv) for k, argv in invocations(workload, seed) if k == key]


def _error_rate(workload, out, seed=0):
    failed, _ = run.grade(workload, seed, out["results"], run.load_reference())
    return len(failed) / len(out["results"])


def _traced(calls):
    tracer = Tracer()
    tracer.install()
    try:
        out = passrun.run_invocations(cli, calls)
    finally:
        tracer.uninstall()
    return tracer, out


def test_traced_run_restores_every_patched_binding():
    originals = {
        "mul": vars(ring.Polynomial)["__mul__"],
        "rmul": vars(ring.Polynomial)["__rmul__"],
        "series_mul": vars(series.TruncatedSeries)["__mul__"],
        "verify.hankel_det": verify.hankel_det,
        "hankel.exact_div": hankel.exact_div,
        "cli.main": cli.main,
    }
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched()
        assert verify.hankel_det is not originals["verify.hankel_det"]
        assert vars(ring.Polynomial)["__rmul__"] is not originals["rmul"]
        out = passrun.run_invocations(cli, _call("grid-sym", SYM_KEY))
    finally:
        tracer.uninstall()
    assert _error_rate("grid-sym", out) == 0
    assert all(vars(owner)[name] is fn for owner, name, fn in patched)
    assert originals == {
        "mul": vars(ring.Polynomial)["__mul__"],
        "rmul": vars(ring.Polynomial)["__rmul__"],
        "series_mul": vars(series.TruncatedSeries)["__mul__"],
        "verify.hankel_det": verify.hankel_det,
        "hankel.exact_div": hankel.exact_div,
        "cli.main": cli.main,
    }
    metrics = tracer.metrics()
    assert metrics["ring.poly_mul.calls"] > 0
    assert metrics["hankel.det.calls"] > 0
    assert metrics["verify.theorem3.instances"] == 32


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer, _ = _traced(_call("grid-sym", SYM_KEY))
        counts.append({k: v for k, v in tracer.metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]


def test_corrupted_output_raises_error_rate(monkeypatch):
    calls = _call("grid-sym", SYM_KEY)
    assert _error_rate("grid-sym", passrun.run_invocations(cli, calls)) == 0
    real = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda report, fmt: real(report, fmt) + " ")
    assert _error_rate("grid-sym", passrun.run_invocations(cli, calls)) > 0


def test_raising_invocation_is_a_failure_not_a_crash(monkeypatch):
    def boom(*args):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(verify, "check_theorem3", boom)
    out = passrun.run_invocations(cli, _call("grid-sym", SYM_KEY))
    assert out["results"][0]["error"] == "ZeroDivisionError: injected"
    assert _error_rate("grid-sym", out) == 1


def test_seeded_invocation_must_echo_its_seed():
    out = passrun.run_invocations(cli, _call("grid-int", LEMMA_KEY, seed=7))
    assert _error_rate("grid-int", out, seed=7) == 0
    assert _error_rate("grid-int", out, seed=8) == 1


def test_seed_changes_only_rng_seed_of_lemma13_and_theorem1():
    for name in WORKLOADS:
        for (key, a), (_, b) in zip(invocations(name, 1), invocations(name, 2)):
            diff = [(x, y) for x, y in zip(a, b) if x != y]
            if a[1] in ("lemma13", "theorem1") and "--rng-seed" in a:
                assert diff == [("1", "2")]
            else:
                assert diff == []


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["why"] for w in spec["workloads"]} == {w.why for w in WORKLOADS.values()}


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-deep", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metric_names_are_those_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert all(NAME.match(name) for name in result["metrics"])
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
