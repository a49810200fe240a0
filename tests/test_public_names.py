"""Every exported name resolves, so the public surface has no dangling entries."""

import importlib
import pkgutil

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
