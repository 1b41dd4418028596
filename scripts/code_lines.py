"""Code lines of each module of src/catalan_hankel/, for the working tree and a git ref.

    python3 scripts/code_lines.py [ref]

A code line holds a token other than a comment, outside any module, class
or function docstring: blank lines, comment lines and docstrings do not
count, and a statement spread over three lines counts three.  Without a
ref the script prints each module's count and the total for the working
tree; with one it prints that ref's counts beside them, read with
``git show <ref>:<path>`` and without a checkout.  A module that is
missing on one side reads ``-``.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/catalan_hankel"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree) -> list:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc = first.value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def tree_counts() -> dict:
    """Module name -> code lines, for the working tree."""
    return {p.name: code_lines(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def ref_counts(ref: str) -> dict:
    """Module name -> code lines, for the package as committed at ref."""
    names = _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        name: code_lines(_git("show", f"{ref}:{PACKAGE}/{name}"))
        for name in sorted(names)
        if name.endswith(".py")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="a git ref to count beside the working tree")
    ns = parser.parse_args(argv)
    sides = ([(ns.ref, ref_counts(ns.ref))] if ns.ref else []) + [("tree", tree_counts())]
    names = sorted(set().union(*(counts for _, counts in sides)))
    width = max(map(len, names + ["module"]))
    cols = [max(len(label), 6) for label, _ in sides]
    print(f"{'module':<{width}}" + "".join(f"  {label:>{w}}" for (label, _), w in zip(sides, cols)))
    for name in names + ["total"]:
        cells = [
            sum(counts.values()) if name == "total" else counts.get(name, "-")
            for _, counts in sides
        ]
        print(f"{name:<{width}}" + "".join(f"  {c:>{w}}" for c, w in zip(cells, cols)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
