"""Alternating parent/change runs of the benchmark, summarised into one file.

    python3 scripts/bench_pairs.py --parent <git ref> --workload grid-int \
        --pairs 10 --out BENCH_<tag>.json

Run from the root of a git checkout.  The parent ref is exported with
``git archive`` into a temporary directory, and the checkout's working tree
(tracked and untracked files, not the git-ignored ones such as
``__pycache__/``) is copied next to it, so neither side starts from bytecode
that an earlier run left behind.  Each pair runs ``perfbench/run.py`` once on
the parent and once on the working-tree copy, with the
same workload seed (FIRST_SEED plus the pair index) and the run length
``run_seconds`` of ``BENCHMARK.json``, and alternates which side goes
first, so slow drift of the machine's speed hits both sides alike.  Each
side runs its own ``perfbench/``.

For every end-to-end metric, the output file records each side's median
and quartiles over the pairs, the number of pairs the change won (a tie
wins for neither), and the median and quartiles of the ratio change /
parent within each pair.  The machine's speed can drift between pairs by
more than a gain, which widens each side's quartiles; the two runs of one
pair are close in time, so the ratio cancels most of that drift.  The
file holds one entry per workload; running again with another workload
adds or replaces only that workload's entry.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload seed of the first pair; pair i runs seed FIRST_SEED + i.
FIRST_SEED = 101


def export(ref: str, dest: Path) -> str:
    """Write the tree of ref into dest; returns the commit it names."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), commit], cwd=ROOT, check=True)
    tree = dest / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    return commit


def export_worktree(root: Path, dest: Path) -> None:
    """Copy into dest every file of root's working tree that git does not
    ignore: the tracked ones as they are now, and the untracked ones."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "-c", "-o", "--exclude-standard"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line plus the detail line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"result": result, "passes": detail["passes"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarise(pairs, spec) -> dict:
    """Per-metric medians and quartiles of each side and of the ratio
    change / parent within each pair (pairs whose parent reads 0 are left
    out of it), and the pairs won by the change."""
    out = {}
    for metric in spec:
        name = metric["name"]
        sides = {
            side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        better = min if metric["better"] == "lower" else max
        won = sum(
            1 for a, b in zip(sides["parent"], sides["change"]) if b != a and better(a, b) == b
        )
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side, values in sides.items():
            q1, q3 = quartiles(values)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"]) if p]
        if ratios:
            q1, q3 = quartiles(ratios)
            entry["ratio"] = {"median": statistics.median(ratios), "q1": q1, "q3": q3}
        entry["change_won"] = won
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        commit = export(args.parent, Path(tmp))
        parent = Path(tmp) / "tree"
        change = Path(tmp) / "change"
        export_worktree(ROOT, change)
        pairs = []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                checkout = parent if side == "parent" else change
                pair[side] = run_once(checkout, args.workload, seed, seconds)
            pairs.append(pair)
            print(json.dumps({"pair": i, "seed": seed, **{
                side: pair[side]["result"]["metrics"]["wall_s"]["value"]
                for side in ("parent", "change")}}), file=sys.stderr)

    entry = {
        "parent": args.parent,
        "parent_commit": commit,
        "pairs": args.pairs,
        "seconds": seconds,
        "failed": {side: sum(p[side]["result"]["failed"] for p in pairs)
                   for side in ("parent", "change")},
        "metrics": summarise(pairs, spec["end_to_end"]),
        "runs": [
            {"seed": p["seed"], "first": p["first"], **{
                side: {"passes": p[side]["passes"], **{
                    name: m["value"] for name, m in p[side]["result"]["metrics"].items()}}
                for side in ("parent", "change")}}
            for p in pairs
        ],
    }
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data[args.workload] = entry
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
