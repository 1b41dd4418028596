"""scripts/code_lines.py: the line rule on a small source, and the script
on this repository and on a throwaway git repository's committed files."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_lines.py"


def _module():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """A class docstring."""

    size = 3


def f(a, b):
    """A function docstring,

    with a blank line inside it.
    """
    # a comment in a body
    return os.path.join(
        a,
        b)


TEXT = """a string that is
not a docstring"""
'''


def test_code_lines_counts_tokens_outside_docstrings_and_comments():
    # import, class, size, def, the 3-line call it returns, TEXT's 2 lines
    assert _module().code_lines(SOURCE) == 1 + 1 + 1 + 1 + 3 + 2


def test_code_lines_keeps_a_line_that_shares_a_docstring_with_code():
    assert _module().code_lines('def f(): """doc"""\n\n\ndef g():\n    """doc"""\n') == 2


def test_code_lines_runs_on_this_repository():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split() for line in proc.stdout.splitlines()[1:])
    assert "ring.py" in rows
    assert int(rows.pop("total")) == sum(map(int, rows.values()))


def test_code_lines_reads_a_ref_without_a_checkout(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "scripts", repo / "scripts", ignore=shutil.ignore_patterns("__pycache__"))
    package = repo / "src" / "catalan_hankel"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "seed"]):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    proc = subprocess.run(
        [sys.executable, "scripts/code_lines.py", "HEAD"], cwd=repo, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "HEAD", "tree"],
        ["a.py", "1", "2"],
        ["b.py", "-", "1"],
        ["total", "1", "3"],
    ]
