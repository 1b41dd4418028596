"""ring.py is the one module that knows how an element of Z[c] is laid out
as ints: every other module reaches the packing only through
``ring._kronecker`` and shares ring's coefficient lists, norms, terms and
product instead of defining its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "catalan_hankel"

# used by ring.py alone
PRIVATE = {"_pack", "_unpack", "_packing_h"}
# defined in ring.py alone
SHARED = {"_coeffs", "_norms", "_terms", "_convolve", "_exact_div", "_kronecker"}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {"ring.py", "series.py", "sequences.py", "hankel.py"} <= {p.name for p in paths}
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_packing_is_referenced_only_in_ring():
    for name, tree in _modules():
        if name != "ring.py":
            assert not PRIVATE & set(_references(tree)), name


def test_int_forms_of_zc_are_defined_only_in_ring():
    defined = {name: set(_definitions(tree)) for name, tree in _modules()}
    assert SHARED <= defined["ring.py"]
    for name, names in defined.items():
        if name != "ring.py":
            assert not SHARED & names, name


def test_the_checks_see_a_violation():
    tree = ast.parse("from .ring import _pack as p\n\ndef _terms(cs):\n    return p(cs, 8)\n")
    assert "_pack" in set(_references(tree))
    assert "_terms" in set(_definitions(tree))
