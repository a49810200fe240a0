"""The package and its tools, and the source the package generates and
compiles at run time, parse under the oldest Python that pyproject.toml
declares (requires-python >= 3.10).

This checks syntax only: a standard-library call added after 3.10 would
still pass here."""

import ast
from pathlib import Path

import pytest

from permax.permanent import _naive_source

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "permax").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    assert {ROOT / "src" / "permax" / "reduction.py", ROOT / "tools" / "layer_us.py"} <= set(SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("n", range(1, 13))
def test_generated_oracle_parses_as_python_3_10(n):
    # the square oracle, and the wide ones over one row and over n - 1 rows
    for k in sorted({1, n - 1, n} - {0}):
        source = _naive_source(k, n)
        ast.parse(source, filename=f"<permanent_naive {k}x{n}>", feature_version=(3, 10))
