"""One pass over a workload, in the fresh interpreter that run.py spawns.

    python3 perfbench/passrun.py <workload> <seed> <trace 0|1>

Imports ``catalan_hankel.cli`` from the checkout's ``src``, builds the
workload's argv lists, then calls ``cli.main(argv)`` for each one back to
back with stdout captured.  Prints one JSON line: the ``time.monotonic()``
reading just before the first timed invocation (the parent subtracts its
spawn time to get set-up time; both read CLOCK_MONOTONIC), the pass's
wall and CPU time summed over invocations, peak RSS, one result per
invocation for run.py to check, and with trace 1 the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import invocations, is_seeded

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    """catalan_hankel.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "catalan_hankel" / "cli.py").is_file():
        raise SystemExit(f"passrun: no catalan_hankel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from catalan_hankel import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"passrun: imported {cli.__file__}, expected one under {SRC}")
    return cli


def _result(key, rc, text, error):
    out = {"key": key, "rc": rc, "error": error,
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if is_seeded(key) and error is None:
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            report = {}
        out["status"] = report.get("status")
        out["instances"] = report.get("instances_tested")
        out["seed"] = (report.get("params") or {}).get("seed")
    return out


def run_invocations(cli, calls):
    """Run (key, argv) pairs through cli.main; time only the calls themselves."""
    wall = cpu = 0.0
    stdout_bytes = 0
    results = []
    for key, argv in calls:
        buf = io.StringIO()
        rc = error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # a raising invocation is a failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        text = buf.getvalue()
        stdout_bytes += len(text.encode())
        results.append(_result(key, rc, text, error))
    return {"wall_s": wall, "cpu_s": cpu, "stdout_bytes": stdout_bytes, "results": results}


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    cli = import_cli()
    calls = invocations(workload, seed)
    setup_end = time.monotonic()
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            out = run_invocations(cli, calls)
        finally:
            tracer.uninstall()
        out["layers"] = {**tracer.metrics(), "cli.stdout_bytes": out["stdout_bytes"]}
    else:
        out = run_invocations(cli, calls)
    out["setup_end"] = setup_end
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
