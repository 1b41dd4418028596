"""The benchmark's workloads: argv lists for ``catalan_hankel.cli.main``.

Each workload is a fixed list of CLI invocations, written as templates.
Only the ``--rng-seed`` of the ``lemma13`` and ``theorem1`` invocations
depends on the workload seed; the template text (with ``{seed}`` left in)
is the invocation's key in ``reference.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

INT_C = range(-2, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple


def _grid_int():
    out = []
    for c in INT_C:
        out += [
            f"verify theorem2 --c {c} --m-max 4 --k-max 4 --n-max 10 --format json",
            f"verify corollary6 --c {c} --k-max 6 --n-max 30 --format json",
            f"verify identities7_8 --c {c} --k-max 3 --n-max 24 --format json",
            f"verify theorem3 --c {c} --k-max 3 --n-max 10 --format json",
            f"verify series_identities --c {c} --k-max 4 --order 40 --format json",
        ]
    out += [
        "verify conjectures9_10 --c 1 --n-max 20 --format json",
        "verify conjectures9_10 --c 2 --n-max 20 --format json",
        "verify theorem1 --trials 100 --rng-seed {seed} --format json",
        "verify lemma13 --trials 300 --rng-seed {seed} --format json",
    ]
    return tuple(out)


_GRID_SYM = (
    "verify theorem2 --c sym --m-max 3 --k-max 3 --n-max 6 --format json",
    "verify corollary6 --c sym --k-max 4 --n-max 20 --format json",
    "verify identities7_8 --c sym --k-max 3 --n-max 14 --format json",
    "verify conjectures9_10 --c sym --n-max 12 --format json",
    "verify theorem3 --c sym --k-max 3 --n-max 7 --format json",
    "verify series_identities --c sym --k-max 4 --order 30 --format json",
    "verify theorem1 --weights explicit:c,1,c,-1,c;tail=c --format json",
    "det --weights const:c --m 1 --k 0 --n 26 --format json",
    "det --weights shift^2:explicit:1,c,0,c,-1,2,c;tail=c --m 0 --k 1 --n 24 --format json",
)

_SERIES_DEEP = (
    "series --c 1 --k 0 --order 1500 --format json",
    "series --c 2 --k 1 --order 800 --reciprocal --format json",
    "series --c -3 --k 2 --order 600 --format json",
    "series --c sym --k 0 --order 100 --format json",
    "series --c sym --k 1 --order 60 --reciprocal --format json",
    "verify series_identities --c sym --k-max 4 --order 50 --format json",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-int",
            "all 8 claims over integer c in -2..3 beyond the CLI defaults; "
            "hankel and sequences do the work, Polynomial is almost idle",
            _grid_int(),
        ),
        Workload(
            "grid-sym",
            "the claims with --c sym plus symbolic det calls; the same hankel "
            "code, but its cost is Polynomial multiply and exact_div",
            _GRID_SYM,
        ),
        Workload(
            "series-deep",
            "series dumps of A^(k+1) and 1/A^(k+1) at large orders; series "
            "kernels and large JSON output do the work, Hankel code is idle",
            _SERIES_DEEP,
        ),
    )
}


def is_seeded(template: str) -> bool:
    return "{seed}" in template


def invocations(name: str, seed: int):
    """(key, argv) pairs of one pass over the named workload."""
    return [(t, t.format(seed=seed).split()) for t in WORKLOADS[name].templates]
