"""Wall time, peak memory and output of the CLI's edge shapes, one subprocess per run.

    python3 scripts/edge_times.py --tag <tag> [--parent <git ref>] [--runs 2] [shape ...]

Run from the root of a git checkout.  A shape is one argv string for
``python3 -m catalan_hankel``; without any, the script runs SHAPES, the
shapes whose timings ``cli.py``'s comments and the README cite.  Each run is
a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` on a copy of the
working tree (tracked and untracked files, not the git-ignored ones), so
every run compiles the source.  With ``--parent``, the ref is exported with
``bench_pairs.export`` and each shape runs ``--runs`` times on each side,
alternating which side goes first.

Per run the file records the wall time, the peak RSS from ``os.wait4``, the
exit code, and the SHA-256 and byte count of stdout (stderr is discarded).
Per shape, ``differs`` is true when not every run, on either side, printed
the same stdout with the same exit code.  The output is ``EDGES_<tag>.json``
in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export, export_worktree

#: The edge shapes: the ceilings' timings in cli.py's comments, the slow
#: shapes the ROADMAP cites, the whole-triangle dumps, and the integer-c
#: series that no work bound covers.
SHAPES = [
    "series --c sym --k 0 --order 1400",
    "series --c sym --k 20 --order 1028",
    "series --c sym --k 100 --order 523",
    "series --c 1000000 --order 4000",
    f"series --c {10**100} --order 1000",
    "seq --weights const:1 --n 2000",
    "seq --weights const:c --n 400",
    f"seq --weights const:{10**1000} --n 79",
    "table --weights const:1 --n-max 1000",
    "table --weights const:1 --n-max 1000 --format json",
    "table --weights const:c --n-max 200",
    "table --weights const:c --n-max 200 --format json",
    "table --weights const:1000000 --n-max 510 --format csv",
    f"table --weights const:{2**247} --n-max 182",
    "det --weights const:3 --n 300",
    "det --weights const:1000000 --n 153",
    "det --weights const:c --n 60",
    "det --weights const:c --m 1 --n 60",
    "det --weights const:c --m 3 --k 2 --n 60",
    "verify lemma13 --n-max 100",
    "verify lemma13 --m-max 50",
    "verify lemma13 --order 500",
    "verify theorem1 --n-max 100",
    "verify theorem1 --trials 10000",
    "verify theorem1 --weights const:c --n-max 20",
    "verify theorem2 --k-max 100",
    "verify theorem2 --c sym --n-max 20",
    "verify theorem2 --c 1000000 --n-max 51",
    f"verify theorem2 --c {10**200} --n-max 10",
    "verify series_identities --c sym --k-max 20 --order 100",
]


def run_shape(checkout: Path, shape: str) -> dict:
    """One fresh ``python3 -m catalan_hankel`` run of shape in checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "catalan_hankel", *shlex.split(shape)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
        "stdout_sha256": digest.hexdigest(),
        "stdout_bytes": size,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("shapes", nargs="*", help="argv strings (default: SHAPES)")
    parser.add_argument("--tag", required=True, help="the output is EDGES_<tag>.json")
    parser.add_argument("--parent", help="git ref to run alongside the working tree")
    parser.add_argument("--runs", type=int, default=2, help="runs per shape and side (default 2)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    out = {"parent": args.parent, "runs": args.runs, "python": sys.version.split()[0]}
    shapes = {}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": Path(tmp) / "change"}
        export_worktree(ROOT, sides["change"])
        if args.parent:
            out["parent_commit"] = export(args.parent, Path(tmp))
            sides["parent"] = Path(tmp) / "tree"
        for shape in args.shapes or SHAPES:
            record = {side: [] for side in sides}
            for i in range(args.runs):
                for side in sides if i % 2 == 0 else reversed(list(sides)):
                    record[side].append(run_shape(sides[side], shape))
                    run = record[side][-1]
                    print(json.dumps({"shape": shape[:80], "side": side, **run}), file=sys.stderr)
            outcomes = {(r["exit"], r["stdout_sha256"]) for runs in record.values() for r in runs}
            shapes[shape] = {**record, "differs": len(outcomes) > 1}
    out["shapes"] = shapes
    path = Path(f"EDGES_{args.tag}.json")
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()
