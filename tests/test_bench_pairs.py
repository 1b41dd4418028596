"""scripts/bench_pairs.py: summarise on synthetic pairs, and the working-tree
export on a throwaway git repository; no benchmark runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "instances_per_s", "unit": "1/s", "better": "higher"},
]


def pairs_of(parent, change, name):
    """One pair per (parent, change) value of the metric ``name``."""
    return [
        {
            "parent": {"result": {"metrics": {name: {"value": p}}}},
            "change": {"result": {"metrics": {name: {"value": c}}}},
        }
        for p, c in zip(parent, change)
    ]


def test_a_tie_counts_for_neither_side(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.0, 2.0, 2.5, 4.5]  # two ties, one win, one loss
    for metric in SPEC:
        entry = bench_pairs.summarise(pairs_of(parent, change, metric["name"]), [metric])
        assert entry[metric["name"]]["change_won"] == 1


def test_lower_and_higher_pick_the_right_winner(bench_pairs):
    parent = [1.0, 1.0, 1.0]
    change = [0.5, 0.9, 2.0]
    lower, higher = SPEC
    entry = bench_pairs.summarise(pairs_of(parent, change, "wall_s"), [lower])["wall_s"]
    assert (entry["better"], entry["unit"], entry["change_won"]) == ("lower", "s", 2)
    entry = bench_pairs.summarise(pairs_of(parent, change, "instances_per_s"), [higher])
    assert entry["instances_per_s"]["change_won"] == 1


def test_one_pair_gives_equal_quartiles(bench_pairs):
    entry = bench_pairs.summarise(pairs_of([3.0], [2.0], "wall_s"), SPEC[:1])["wall_s"]
    assert entry["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert entry["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert entry["change_won"] == 1


def test_medians_and_quartiles(bench_pairs):
    parent = [5.0, 1.0, 4.0, 2.0, 3.0]
    change = [0.4, 0.1, 0.2, 0.3, 0.5]
    entry = bench_pairs.summarise(pairs_of(parent, change, "wall_s"), SPEC[:1])["wall_s"]
    assert entry["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    assert entry["change"]["median"] == 0.3
    # an even count: the median is the mean of the middle two
    entry = bench_pairs.summarise(pairs_of(parent[:4], change[:4], "wall_s"), SPEC[:1])["wall_s"]
    assert entry["parent"]["median"] == 3.0
    assert entry["change"]["median"] == pytest.approx(0.25)


def test_ratio_within_pairs_holds_while_the_parent_drifts(bench_pairs):
    # the machine slows pair by pair and the change is 0.6 of the parent in
    # every pair, yet the medians differ by less than the parent's spread
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]
    change = [0.6 * p for p in parent]
    entry = bench_pairs.summarise(pairs_of(parent, change, "wall_s"), SPEC[:1])["wall_s"]
    assert entry["parent"] == {"median": 2.0, "q1": 1.25, "q3": 2.75}
    assert entry["change"]["median"] == pytest.approx(1.2)
    spread = entry["parent"]["q3"] - entry["parent"]["q1"]
    assert entry["parent"]["median"] - entry["change"]["median"] < spread
    assert entry["ratio"] == pytest.approx({"median": 0.6, "q1": 0.6, "q3": 0.6})
    assert entry["change_won"] == 5


def test_ratio_quartiles_and_a_parent_of_zero(bench_pairs):
    parent = [2.0, 0.0, 4.0, 1.0, 5.0]
    change = [1.0, 1.0, 4.0, 2.0, 1.0]  # ratios 0.5, 1.0, 2.0, 0.2; the 0 is left out
    entry = bench_pairs.summarise(pairs_of(parent, change, "wall_s"), SPEC[:1])["wall_s"]
    assert entry["ratio"] == pytest.approx({"median": 0.75, "q1": 0.275, "q3": 1.75})


def test_worktree_export_skips_ignored_bytecode(bench_pairs, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    repo.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "m.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 1\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    (repo / "m.py").write_text("x = 2\n")  # a modified tracked file
    (repo / "gone.py").unlink()  # tracked, deleted from the working tree
    (repo / "pkg").mkdir()
    (repo / "pkg" / "new.py").write_text("z = 3\n")  # untracked, not ignored
    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "m.pyc").write_bytes(b"stale")
    bench_pairs.export_worktree(repo, dest)
    files = sorted(str(f.relative_to(dest)) for f in dest.rglob("*") if f.is_file())
    assert files == [".gitignore", "m.py", "pkg/new.py"]
    assert (dest / "m.py").read_text() == "x = 2\n"
