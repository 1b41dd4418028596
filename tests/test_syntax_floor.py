"""Every module under src/ and scripts/ parses as Python 3.10, the oldest
version pyproject.toml allows."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    sources = sorted(p for d in ("src", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "series.py" for p in sources)
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
