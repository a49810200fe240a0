"""The public surface: each module's ``__all__`` declares its names, the
package re-exports them, and every exported name and every name the tools
import resolves.  The property suite and the sweep import nothing of each
other's code."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import permax

SURFACE = [
    "CounterexampleError",
    "DTable",
    "FORM_TAGS",
    "FormClass",
    "PropertyFailure",
    "RangeError",
    "RankError",
    "RankVector",
    "ShapeError",
    "SignMatrix",
    "StratumRow",
    "VerifyReport",
    "apply",
    "bound_for_rank",
    "build_table",
    "canonical_form",
    "check_min_law",
    "classify_form",
    "d_matrix",
    "enumerate_normalized",
    "equivalent_to_d",
    "format_matrix_text",
    "format_transforms",
    "gap_value",
    "invert_transforms",
    "laplace_expand",
    "laplace_identity",
    "majorize_leq",
    "make_matrix",
    "mper",
    "p_matrix",
    "parse_matrix_text",
    "per_d_diag",
    "permanent_naive",
    "permanent_rect",
    "permanent_ryser",
    "q_matrix",
    "rank",
    "rank_vector",
    "submatrix_select",
    "verify_mper",
    "verify_properties",
    "verify_square",
    "write_report",
]


def _library_modules():
    return [
        importlib.import_module(f"permax.{info.name}")
        for info in pkgutil.iter_modules(permax.__path__)
        if info.name != "cli"
    ]


def test_package_surface_is_frozen():
    assert sorted(permax.__all__) == SURFACE


def test_each_name_is_declared_in_one_module():
    # a name in two modules' __all__ would be shadowed by the later star import
    owners = {}
    for module in _library_modules():
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
    assert sorted(owners) == SURFACE


def test_exported_definitions_live_in_their_module():
    for module in _library_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_every_exported_name_resolves():
    modules = [permax] + [
        importlib.import_module(f"permax.{info.name}") for info in pkgutil.iter_modules(permax.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_import_loads_no_dataclasses_inspect_json_or_typing():
    # each costs milliseconds of every command's cold start, pathlib too;
    # -S keeps site from loading typing on its own, so the check sees only
    # the package
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); heavy = ('dataclasses', 'inspect', 'json', "
        "'pathlib', 'typing'); import permax; print([m for m in heavy if m in sys.modules]); "
        "import permax.cli; print([m for m in heavy if m in sys.modules])"
    )
    src = str(Path(permax.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n[]\n"


def test_star_import():
    namespace = {}
    exec("from permax import *", namespace)
    assert set(permax.__all__) <= set(namespace)


def _unresolved_tool_names(source):
    """Each ``from permax... import`` name, and each attribute read on a name
    bound to a ``permax`` module, that does not resolve."""
    tree = ast.parse(source)
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                if top == "permax":
                    bound[a.asname or top] = importlib.import_module(a.name if a.asname else top)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "permax":
            module = importlib.import_module(node.module)
            for a in node.names:
                if not hasattr(module, a.name):
                    missing.append(f"from {node.module} import {a.name}")
                elif inspect.ismodule(getattr(module, a.name)):
                    bound[a.asname or a.name] = getattr(module, a.name)

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and inspect.ismodule(owner := resolve(node.value)):
            return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and inspect.ismodule(owner := resolve(node.value)):
            if not hasattr(owner, node.attr):
                missing.append(f"{owner.__name__}.{node.attr}")
    return missing


def test_tool_imports_resolve():
    # tier-1 runs no tool, so a renamed or deleted name would break them unseen;
    # the tools also read private sweep seams, such as verifier._sweep_block
    tools = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))
    assert tools
    for path in tools:
        assert _unresolved_tool_names(path.read_text(encoding="utf-8")) == [], path.name
    assert _unresolved_tool_names(
        "import permax as px\nfrom permax import verifier, nope\n"
        "px.rank_vector, px.verifier._gone, verifier._sweep_block, verifier._also_gone\n"
    ) == ["from permax import nope", "permax.verifier._gone", "permax.verifier._also_gone"]


# the exhaustive sweep's kernel in ``verifier``: everything that values,
# ranks and counts its leaves
KERNEL = {
    "_SpanTable", "_RowSums", "_SweepTables", "_prefix_classes", "_polya_count",
    "_last_row_values", "_rank_split", "_sweep_block", "_check_census", "_sweep",
}


def _parsed(module):
    return ast.parse((Path(permax.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree):
    """Each ``permax`` module a module imports from, with the names it
    binds from it; a module imported whole binds none of its names."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "permax":
                    continue
                module = module.partition(".")[2]
            if module:
                out.setdefault(module, set()).update(a.name for a in node.names)
            else:
                for a in node.names:
                    out.setdefault(a.name, set())
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("permax."):
                    out.setdefault(a.name.partition(".")[2], set())
    return out


def test_props_and_the_sweep_share_no_code():
    # the property suite and the sweep check each other, so neither reads
    # the other's code: the verdict takes its bounds and rechecks from mper
    # alone, and the kernel's leaves touch no evaluator at all
    assert "verifier" not in _package_imports(_parsed("props"))
    tree = _parsed("verifier")
    imports = _package_imports(tree)
    assert imports["permanent"] == {"mper"}
    assert "d_family" not in imports and "rank_vectors" not in imports
    assert imports["props"] == set()  # the module alone, so no private name leaks
    kernel = [node for node in tree.body if getattr(node, "name", None) in KERNEL]
    assert sorted(node.name for node in kernel) == sorted(KERNEL)
    used = {
        node.id for part in kernel for node in ast.walk(part) if isinstance(node, ast.Name)
    }
    assert used & {"mper", "rank", "equivalent_to_d", "props"} == set()
