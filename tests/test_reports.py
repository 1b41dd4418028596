"""Pinned outputs of `verify all` and of the two scripts."""

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
    ("--format csv", "d87c4bd4c9e71c02e34b5ddb233fd68996074f26b1731ee9b2a9c7dccb45ed22"),
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
