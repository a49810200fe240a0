"""In-memory span tracing of the permax layers, installed from outside.

``from .x import y`` gives every importing module its own binding of
``y``, so wrapping only the defining module would miss most calls.
``Tracer.install`` therefore replaces the function at every binding in
every loaded ``permax`` module that holds it, and ``uninstall`` puts
the originals back.  A traced function that no longer exists in its
defining module is reported as absent instead of failing the run, so
refactors of the program do not break the benchmark.

Each call becomes one span (function id, parent span, start, end) kept
in flat arrays; nothing is written while the traced pass runs.
``Tracer.metrics`` reduces the spans to calls, self time (span time
minus the time covered by child spans) and inclusive microseconds per
call.  Spans nest through one stack, so a traced pass must run on one
thread.
"""

from __future__ import annotations

import sys
import time
from array import array

# (layer, defining module attribute, metric stem, split by matrix order)
TRACED = (
    ("verifier", "verify_square", "verifier.verify_square", False),
    ("verifier", "verify_mper", "verifier.verify_mper", False),
    ("verifier", "verify_properties", "verifier.verify_properties", False),
    ("exact_rank", "_rank_rows", "exact_rank.rank_rows", False),
    ("exact_rank", "rank", "exact_rank.rank", False),
    ("permanent", "permanent_naive", "permanent.naive", True),
    ("permanent", "permanent_ryser", "permanent.ryser", True),
    ("permanent", "mper", "permanent.mper", False),
    ("permanent", "laplace_expand", "permanent.laplace_expand", False),
    ("reduction", "canonical_form", "reduction.canonical_form", False),
    ("reduction", "equivalent_to_d", "reduction.equivalent_to_d", False),
    ("reduction", "classify_form", "reduction.classify_form", False),
    ("rank_vectors", "rank_vector", "rank_vectors.rank_vector", False),
    ("rank_vectors", "check_min_law", "rank_vectors.check_min_law", False),
    ("rank_vectors", "multiplicity_law", "rank_vectors.multiplicity_law", False),
    ("sign_matrix", "submatrix_select", "sign_matrix.submatrix_select", False),
    ("sign_matrix", "make_matrix", "sign_matrix.make_matrix", False),
    ("sign_matrix", "apply", "sign_matrix.apply", False),
    ("d_family", "build_table", "d_family.build_table", False),
)

# order buckets reported for the order-split functions
ORDERS = {"permanent.naive": range(2, 9), "permanent.ryser": range(1, 9)}

LAYERS = ("verifier", "exact_rank", "permanent", "reduction", "rank_vectors", "sign_matrix", "d_family")

_MARK = "__permax_bench_trace__"


def _permax_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "permax" or name.startswith("permax."))
    ]


def stems() -> list[str]:
    """Metric stems in report order, order buckets expanded."""
    out = []
    for _layer, _attr, stem, split in TRACED:
        if split:
            out.extend(f"{stem}.n{k}" for k in ORDERS[stem])
        else:
            out.append(stem)
    return out


def patched_bindings() -> list[str]:
    """Every ``permax`` module binding that currently holds a trace wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _permax_modules()
        for attr, v in vars(m).items()
        if getattr(v, _MARK, False)
    ]


class Tracer:
    """Span recorder for one traced pass; create, install, run, uninstall."""

    def __init__(self, traced=TRACED) -> None:
        self.traced = traced
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.absent: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, stem: str, split: bool):
        fid_of_order = {k: self._id(f"{stem}.n{k}") for k in range(1, 17)} if split else None
        plain = None if split else self._id(stem)
        stack, fids, parents = self._stack, self.fid, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            f = fid_of_order[(args[0] if args else kwargs['a']).rows] if split else plain
            idx = len(fids)
            fids.append(f)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = _permax_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, attr, stem, split in self.traced:
            home = by_name.get(f"permax.{layer}")
            orig = getattr(home, attr, None) if home is not None else None
            if not callable(orig):
                self.absent.append(f"permax.{layer}.{attr}")
                continue
            wrapper = self._wrap(orig, stem, split)
            for m in modules:
                for name, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, name, wrapper)
                        self._restore.append((m, name, orig))

    def uninstall(self) -> None:
        for m, name, orig in reversed(self._restore):
            setattr(m, name, orig)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[int, float, float]]:
        """Per metric stem: (calls, self seconds, inclusive seconds)."""
        n = len(self.fid)
        child = [0.0] * n
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        self_s = [0.0] * k
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        # a child span always ends before its parent, so walking spans in
        # reverse start order sees every child before its parent
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            f = fid[i]
            calls[f] += 1
            incl[f] += d
            self_s[f] += d - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
        return {self.names[f]: (calls[f], self_s[f], incl[f]) for f in range(k)}
