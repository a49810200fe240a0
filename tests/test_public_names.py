"""Every exported name, and every name the tools import, resolves, so the
public surface has no dangling entries."""

import ast
import importlib
import pkgutil
from pathlib import Path

import permax


def test_every_exported_name_resolves():
    modules = [permax] + [
        importlib.import_module(f"permax.{info.name}") for info in pkgutil.iter_modules(permax.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_star_import():
    namespace = {}
    exec("from permax import *", namespace)
    assert set(permax.__all__) <= set(namespace)


def test_tool_imports_resolve():
    # tier-1 runs no tool, so a renamed or deleted name would break them unseen
    tools = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))
    assert tools
    for path in tools:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "permax":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert missing == [], f"{path.name}: from {node.module} import {missing}"
