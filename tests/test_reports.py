"""Pinned outputs of `verify all`, of integer claims at larger sizes, of
symbolic `series` and `det`, and of the two scripts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catalan_hankel.cli import main
from catalan_hankel.verify import CLAIM_IDS

ROOT = Path(__file__).resolve().parent.parent

# stdout SHA-256 and exit code; exit 1 because the conjecture report
# records sign-flip witnesses by design
_VERIFY_ALL = [
    ("--format text", "db89e7b12aa8010dbc90644caa26e50188b2fdba9fc4db22fdfb8d5dd40a1936"),
    ("--format csv", "fed5f2a73793844e16386f9b448e2476b5d8aaa65bfd41a10307eaa6881e1ee1"),
    ("--format json", "ffc85ac676b4d8e09549807240bb71120a8f79c75ba3f8afd50613e37c5187e7"),
    ("--c sym --format json", "c4d0063b3031f592e48cdebd46ebbfd3a8b7bda1883088005304151d9870fc54"),
]


@pytest.mark.parametrize("flags, digest", _VERIFY_ALL, ids=[f for f, _ in _VERIFY_ALL])
def test_verify_all_output_is_pinned(capsys, flags, digest):
    code = main(["verify", "all", *flags.split()])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, digest)


def test_symbolic_series_with_long_products_is_pinned(capsys):
    # c * p for coefficients of degree 512 and up: products of more than
    # 1024 coefficient pairs, once packed into one big integer
    code = main(["series", "--c", "sym", "--order", "600", "--format", "json"])
    out = capsys.readouterr().out
    digest = "13740a5408538740d5a0e8d1e415e16f7e5082d7acd017906c34a8b3bef45583"
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_symbolic_series_identities_are_pinned(capsys):
    # every clause over Z[c]: products and reciprocals of A^1..A^9 to x^60
    argv = "verify series_identities --c sym --k-max 8 --order 60 --format json"
    code = main(argv.split())
    out = capsys.readouterr().out
    digest = "406891b4086c6cba9fcaa9ceb76a3cafe80bb5340c3525f3120a1bab2ad91eca"
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_symbolic_series_identities_at_k_max_6_are_pinned(capsys):
    # recorded with the term-list Z[c] kernels, before Kronecker packing
    argv = "verify series_identities --c sym --k-max 6 --order 60 --format json"
    code = main(argv.split())
    out = capsys.readouterr().out
    digest = "efe76c6edde3e57fb1f834d36a20d9826dd6e0f0505b1ea02ba2db212fefd18d"
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# symbolic determinants: D(1, 0, 26) for const:c, and D(0, 1, 24) for
# weights whose first column term is 0, so the elimination starts with a pair
# step over Z[c]
_DET_ZC = [
    (
        "det --weights const:c --m 1 --k 0 --n 26 --format json",
        "e456323945da91130eddca432332e547bde7121e469d6cb8ca4a3bff4cdaea55",
    ),
    (
        "det --weights shift^2:explicit:1,c,0,c,-1,2,c;tail=c --m 0 --k 1 --n 24 --format json",
        "9ab0e9b2f51b42ae6b5b2dc8da982aac5b0b9e9f88f7a0aa9d52017cca85b402",
    ),
]


@pytest.mark.parametrize("argv, digest", _DET_ZC, ids=["const-c", "pair-step"])
def test_symbolic_det_output_is_pinned(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# dumps over Z[c]: a column and the whole triangle for weights holding c,
# packed at c = 2**h (const:c has a parity, the explicit weights none), and
# the packed walk up to A^3 and down to 1/A^4
_DUMPS_ZC = [
    (
        "seq --weights const:c --n 120 --format json",
        "7ab49fb465734e5bfb4c38e4dee58d73938ea63f7f6c47bd562e10619a49a672",
    ),
    (
        "table --weights explicit:c,1,c,-1,c;tail=c --n-max 40 --format json",
        "4bcfafeea82ccfed345ca6042174f73c1dba9bfcae701233d33f7ae540e7fea6",
    ),
    (
        "series --c sym --k 3 --order 80 --reciprocal --format json",
        "d9fb77fd06d822af5a7ad7b726a1bef7f19641797b5f8e697b3fcd58efc557a4",
    ),
    (
        "series --c sym --k 2 --order 80 --format json",
        "63d63de39194c0c80f053fd46c2ab35255903bdc7a38e96e6c8b38afede4b030",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", _DUMPS_ZC, ids=["seq-const-c", "table-explicit", "series-reciprocal", "series"]
)
def test_symbolic_dump_output_is_pinned(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# whole triangles read off the columns: integer weights in each format, and
# const:c, whose entries hold one parity of powers of c (packed halved)
_TABLES = [
    (
        "table --weights const:1 --n-max 300",
        "d4837b0e28fe30263440351bc5c3b876720a903333be041c8453362ecad8d66f",
    ),
    (
        "table --weights explicit:2,-1,0;tail=3 --n-max 150 --format csv",
        "e787b8a84b1e1c0c75f1cf9e8677176229f4471e9cdecff354585a5521aeff6f",
    ),
    (
        "table --weights const:-2 --n-max 120 --format json",
        "71b70f073cb029a1d6a738ae0793988eb4aee9083214d13a96cafcee08f82a0a",
    ),
    (
        "table --weights const:c --n-max 60 --format csv",
        "047738e939355ab62b68d926c2341f061fdf3683d04980a3c861075c25b423ea",
    ),
]


@pytest.mark.parametrize("argv, digest", _TABLES, ids=["text", "csv", "json", "const-c"])
def test_table_output_is_pinned(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# integer claims at `grid-int` sizes, beyond the CLI defaults: Hankel
# matrices up to n = 30, zero pivots and pivots of 1 and -1
_VERIFY_INT = [
    (
        "verify corollary6 --c 3 --k-max 6 --n-max 30 --format json",
        "18ca7b9ab398da39a303eb9ae0c58305ee5372a9382234bf43fec5e37576bce5",
    ),
    (
        "verify theorem2 --c -1 --m-max 4 --k-max 4 --n-max 10 --format json",
        "6301c96ffabb447b5b37acdd85ac53131f435f3850c1d620001e8e7acd413088",
    ),
    (
        "verify theorem1 --trials 100 --rng-seed 1 --format json",
        "02ecdb223d4832074c8541aea83c5eee7b6eb85893a2e2d218fd6c544dab30a3",
    ),
    (
        "verify lemma13 --trials 300 --rng-seed 1 --format json",
        "22c2b1c57cf327af920068f991dc216bb2d6244412081fc3d34e190b262043ed",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", _VERIFY_INT, ids=["corollary6", "theorem2", "theorem1", "lemma13"]
)
def test_integer_verify_output_is_pinned(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_sequence_gallery_output_is_pinned():
    proc = _run_script("sequence_gallery.py")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "ee5ceabbd64847c561ac7d3a9d055e21f8cbfc2b8f53f0efcbbfc00664ab5a13"


def test_run_verification_script(tmp_path):
    proc = _run_script("run_verification.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 25
    lines = proc.stdout.splitlines()
    assert len(lines) == len(reports)
    assert sorted(line.rsplit("-> ", 1)[1] for line in lines) == [str(p) for p in reports]
    claims = set()
    for path in reports:
        claim = json.loads(path.read_text())["claim_id"]
        assert path.name.startswith(f"{claim}__")
        claims.add(claim)
    assert claims == set(CLAIM_IDS)
