"""scripts/bench_pairs.py::summarise on synthetic pairs: no git, no runs."""

import importlib.util
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
