"""Benchmark of the catalan_hankel CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload grid-int --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Load model: a closed loop with one
client.  Each pass over the workload is a fresh interpreter (passrun.py)
that calls ``catalan_hankel.cli.main(argv)`` for the workload's
invocations back to back, so every pass pays cold caches as a CLI user
does.  Passes run one after another until ``--seconds`` is used up (at
least MIN_PASSES), and each metric is the median over passes.

Every invocation's output is checked: deterministic ones against the
stdout digest and exit code recorded in reference.json, seeded ones for a
``verified`` report with the recorded instance count and the seed echoed
back.  ``failed / attempted`` in the result line is the error rate.

With ``--trace 1`` the first half of the time runs untraced passes, then
one traced pass (tracer.py) gives the per-layer metrics, and
``trace.overhead_s`` is its wall time minus the untraced median.

The last stdout line is the result object; the line before it gives the
provenance, each metric's quartiles and the sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def passed(ref, got, seed) -> bool:
    """Whether one invocation's result matches its reference entry."""
    if got["error"] is not None:
        return False
    if "sha256" in ref:
        return got["rc"] == ref["rc"] and got["sha256"] == ref["sha256"]
    return (
        got["rc"] == ref["rc"]
        and got.get("status") == ref["status"]
        and got.get("instances") == ref["instances"]
        and got.get("seed") == seed
    )


def grade(workload, seed, results, reference):
    """(failed keys, instances) of one pass; instances count only correct output."""
    refs = reference[workload]
    failed = []
    instances = 0
    for got in results:
        ref = refs.get(got["key"])
        if ref is None or not passed(ref, got, seed):
            failed.append(got["key"])
        else:
            instances += ref["instances"]
    return failed, instances


def provenance():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _git_commit():
    # read .git directly: the checkout may be no repository, or sit inside another one
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_pass(workload, seed, trace):
    """Spawn one pass; returns its parsed output plus the measured set-up time."""
    cmd = [sys.executable, str(HERE / "passrun.py"), workload, str(seed), "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py: pass exited with code {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["setup_end"] - spawned
    out["span_s"] = time.monotonic() - spawned
    return out


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catalan_hankel" / "cli.py").is_file():
        raise SystemExit(f"run.py: no catalan_hankel sources under {ROOT / 'src'}")
    end_to_end, per_layer = load_spec()
    reference = load_reference()

    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(p["span_s"] for p in passes) <= budget
    ):
        passes.append(run_pass(args.workload, args.seed, trace=False))
    traced = run_pass(args.workload, args.seed, trace=True) if args.trace else None

    attempted = 0
    failures = []
    for p in passes + ([traced] if traced else []):
        failed_keys, p["instances"] = grade(args.workload, args.seed, p["results"], reference)
        attempted += len(p["results"])
        failures += failed_keys
    failed = len(failures)

    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "instances_per_s": [p["instances"] / p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    medians = {name: statistics.median(values) for name, values in samples.items()}
    if traced:
        values = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - medians["wall_s"]}
        spec = per_layer
    else:
        values = medians
        spec = end_to_end
    if set(values) != set(spec):
        raise SystemExit(f"run.py: metrics {sorted(set(values) ^ set(spec))} disagree with BENCHMARK.json")

    detail = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "passes": len(passes),
        "error_rate": failed / attempted,
        "failures": sorted(set(failures)),
        "samples": {
            name: dict(zip(("n", "median", "q1", "q3", "min", "max"),
                           (len(v), medians[name], *quartiles(v), min(v), max(v))))
            for name, v in samples.items()
        },
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec},
    }))


if __name__ == "__main__":
    main()
