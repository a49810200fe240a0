"""The package and its tools parse under the oldest Python that
pyproject.toml declares (requires-python >= 3.10).

This checks syntax only: a standard-library call added after 3.10 would
still pass here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "permax").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    assert {ROOT / "src" / "permax" / "reduction.py", ROOT / "tools" / "layer_us.py"} <= set(SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
