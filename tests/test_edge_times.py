"""scripts/edge_times.py on one tiny shape, both sides, in a throwaway git
repository holding copies of src/ and scripts/."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_edge_times_records_each_run(tmp_path):
    repo = tmp_path / "repo"
    for name in ("src", "scripts"):
        shutil.copytree(ROOT / name, repo / name, ignore=shutil.ignore_patterns("__pycache__"))
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "seed"]):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )
    shape = "seq --weights const:1 --n 3"
    proc = subprocess.run(
        [sys.executable, "scripts/edge_times.py", "--tag", "t", "--runs", "1",
         "--parent", "HEAD", shape],
        cwd=repo, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads((repo / "EDGES_t.json").read_text())
    assert (data["parent"], data["runs"], list(data["shapes"])) == ("HEAD", 1, [shape])
    record = data["shapes"][shape]
    assert record["differs"] is False
    for side in ("change", "parent"):
        (run,) = record[side]
        assert run["exit"] == 0
        assert run["stdout_sha256"] == hashlib.sha256(b"1,1,2\n").hexdigest()
        assert run["stdout_bytes"] == 6
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
