"""Exhaustive and randomized verification of the rank-based permanent bound.

Both exhaustive sweeps walk every k x n matrix with all-ones first row
and column: the square sweep (k = n) bounds |per| per rank, the wide
sweep (k < n) the sum of |per| over the k-column selections of the
full-rank matrices.  That slice meets every equivalence orbit, and both
values and the rank are orbit invariants.  Row order below the first
line is also quotiented out: matrices are grouped by the multiset of
their remaining rows, each weighted by a multinomial count, which cuts
the order-6 stream from 2^25 matrices to C(36,5) representatives.

One kernel scans the representatives of both sweeps depth-first, adding
the free rows in non-decreasing order.  Every inner node carries the
running product of per-row subset sums over all 2^n column subsets, so
shared prefixes are computed once.  Each selection's permanent is
linear in the last row, so one pass per parent and selection gives
every leaf's value.  The rank comes from a table of row spans and the
weight from the runs of equal rows, so a leaf evaluates no permanent
and runs no elimination.  One routine, ``_verdict``, admits a shape by
the kernel's cost and judges every rank stratum against its bound and
one table of sanctioned deviations.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from itertools import combinations
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterator

from .d_family import bound_for_rank, build_table
from .errors import CounterexampleError, PropertyFailure, RangeError, RankError, ShapeError
from .exact_rank import rank
from .permanent import laplace_expand, mper, permanent_naive, permanent_ryser
from .rank_vectors import check_min_law
from .reduction import equivalent_to_d
from .sign_matrix import (
    _STEP_ARITY,
    SignMatrix,
    apply,
    d_matrix,
    format_matrix_text,
    invert_transforms,
)

__all__ = [
    "StratumRow",
    "VerifyReport",
    "enumerate_normalized",
    "verify_mper",
    "verify_properties",
    "verify_square",
    "write_report",
]

_CLASS_PLAIN = "D-only"
_CLASS_EXCEPTION = "D-plus-exception"


@dataclass(frozen=True)
class StratumRow:
    """One rank stratum of a sweep: the bound, the observed maximum |per|,
    and how many equivalence orbits attain it."""

    rank: int
    bound: int
    observed_max: int
    extremal_orbits: int
    equality_class: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run.

    ``rows`` is empty for the property suite, which reports the per-check
    case counts in ``checks`` instead.
    """

    n: int
    rows: tuple[StratumRow, ...]
    scanned: int
    seconds: float
    checks: tuple[tuple[str, int], ...] = ()


def enumerate_normalized(n: int) -> Iterator[SignMatrix]:
    """Yield every order-n matrix with all-ones first row and first column.

    The (n-1)^2 free cells run in row-major bit order of the enumeration
    index, so the stream is deterministic.
    """
    if not (2 <= n <= 6):
        raise ShapeError(f"normalized enumeration supports orders 2..6, got {n}")
    free = n - 1
    mask = (1 << free) - 1
    for i in range(1 << (free * free)):
        words = [0]
        for r in range(free):
            words.append(((i >> (r * free)) & mask) << 1)
        yield SignMatrix(n, n, tuple(words))


class _SpanTable:
    """Rational row spans of 0/1 vectors of length m, interned by content.

    A span generated by 0/1 vectors is fixed by the 0/1 vectors it
    contains, so its 2^m-bit membership mask ``mask[i]`` is an exact
    canonical key.  Each span keeps an integer basis of its annihilator:
    adding a vector x with form values a_k = f_k(x), a_i != 0, keeps the
    forms a_i * f_k - a_k * f_i (k != i), each divided by its gcd, and
    x lies in the span exactly when every form vanishes on it.  This is
    exact integer arithmetic independent of the Bareiss elimination in
    ``exact_rank``.

    ``step[i << m | x]`` is the id of span i extended by x.  Entries
    start at -1 and are filled on first use; every sweep process builds
    its own table.  Step ids are 32-bit: the order-7 table (m = 6) has
    77,261 spans, past the 16-bit limit of 32,767.  The full order-6
    table (1,788 spans) takes about 0.9 MB, 0.23 MB of it step ids.
    Forms are kept in flat lists, not tuples: a freed table's tuples
    would park in the interpreter's tuple free lists, and peak memory
    crept across repeated sweeps.
    """

    def __init__(self, m: int) -> None:
        # loaded here, not at module import: the extension module costs
        # about 0.3 ms and 128 KB in every command that never sweeps
        from array import array

        self.m = m
        self.dim: list[int] = []
        self.mask: list[int] = []
        self.step = array("i")
        self._forms: list[list[int]] = []  # basis forms, concatenated
        self._ids: dict[int, int] = {}
        self._intern([tuple(int(i == j) for j in range(m)) for i in range(m)])

    def child(self, sid: int, x: int) -> int:
        """Id of the span of span ``sid`` and the vector with bits ``x``."""
        at = sid << self.m | x
        nid = self.step[at]
        if nid < 0:
            nid = self.step[at] = self._extend(sid, x)
        return nid

    def _extend(self, sid: int, x: int) -> int:
        flat, m = self._forms[sid], self.m
        forms = [flat[k : k + m] for k in range(0, len(flat), m)]
        vals = [sum(c for j, c in enumerate(f) if (x >> j) & 1) for f in forms]
        i = next(k for k, a in enumerate(vals) if a)
        fi, ai = forms[i], vals[i]
        out = []
        for k, (f, ak) in enumerate(zip(forms, vals)):
            if k != i:
                g = [ai * u - ak * v for u, v in zip(f, fi)]
                d = math.gcd(*g)
                out.append(tuple(u // d for u in g))
        return self._intern(out)

    def _intern(self, forms: list[tuple[int, ...]]) -> int:
        mask = (1 << (1 << self.m)) - 1
        for f in forms:
            vals = [0]
            for c in f:
                vals += [v + c for v in vals]
            mask &= sum(1 << x for x, v in enumerate(vals) if v == 0)
        sid = self._ids.get(mask)
        if sid is None:
            sid = len(self.dim)
            self.dim.append(self.m - len(forms))
            self.mask.append(mask)
            self._forms.append([c for f in forms for c in f])
            self.step.extend([sid if (mask >> x) & 1 else -1 for x in range(1 << self.m)])
            self._ids[mask] = sid
        return sid


class _SweepTables:
    """Read-only tables for every chunk of one k x n sweep, plus the
    span table of the free rows."""

    def __init__(self, k: int, n: int) -> None:
        self.k, self.n = k, n
        full = range(1 << n)
        # Ryser weights of the all-ones first row, inclusion-exclusion sign included
        self.lead = [(-1 if (k - s.bit_count()) & 1 else 1) * s.bit_count() for s in full]
        # per-subset row sums, indexed by a row's free bits; a two-row sweep reads none
        self.row_sums = [
            [s.bit_count() - 2 * ((x << 1) & s).bit_count() for s in full]
            for x in range(1 << (n - 1) if k > 2 else 0)
        ]
        # per k-column selection g, column j of g picks the subsets of g
        # that contain it; a column outside g picks nothing
        self.sels = [
            [
                itemgetter(*[s for s in full if s & g == s and (s >> j) & 1])
                if (g >> j) & 1
                else None
                for j in range(n)
            ]
            for g in (sum(1 << j for j in c) for c in combinations(range(n), k))
        ]
        self.spans = _SpanTable(n - 1)


def _sweep_chunk(
    tables: _SweepTables, x1: int
) -> tuple[int, dict[int, tuple[int, list[tuple[int, ...]]]]]:
    """Scan all row multisets whose smallest free row has bit pattern x1.

    A leaf's value is the sum of |per| over its k-column selections, so
    a square leaf's value is its |per|.  Returns the weighted matrix
    count and, per rank, the largest value seen together with the
    representatives attaining it, in scan order.

    Rows are added in non-decreasing order.  Each inner node carries
    the Ryser vector of its rows (the running product of per-subset row
    sums), the id of its free rows' span, and the multinomial
    denominator with the length of its last run of equal rows.  A leaf
    costs O(selections).  The permanent of selection g is linear in the
    last row: with B_j the sum of the parent's vector over the subsets
    of g that hold column j, the leaf whose last row has free bits x is
    worth sum_j B_j - 2 * sum_{bit j of x} B_{j+1}, and one doubling
    pass per parent and selection fills that for every x (a lone leaf, as
    in a two-row sweep, takes the sum directly).  Its rank is 1 + dim(parent
    span), plus 1 when x lies outside that span: two table reads.
    """
    k, free = tables.k, tables.k - 1
    nwords = 1 << (tables.n - 1)
    total = math.factorial(free)
    row_sums, sels, spans = tables.row_sums, tables.sels, tables.spans
    dims, masks = spans.dim, spans.mask
    best = [-1] * (k + 1)
    reps: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    scanned = 0

    def leaves(vec, sid, rows, lo, hi, den, run) -> None:
        nonlocal scanned
        vals = None
        for sel in sels:
            b = [sum(g(vec)) if g else 0 for g in sel]
            if hi - lo == 1:
                per = [abs(sum(b) - 2 * sum(bj for j, bj in enumerate(b[1:]) if lo >> j & 1))]
            else:
                per = [sum(b)]
                for bj in b[1:]:
                    bj *= 2
                    per += [p - bj for p in per]
                per = list(map(abs, per[lo:hi]))
            vals = per if vals is None else list(map(add, vals, per))
        weight = total // den
        scanned += (hi - lo) * weight
        if rows and rows[-1] == lo:
            scanned += total // (den * (run + 1)) - weight
        mask = masks[sid]
        inside = 1 + dims[sid]
        for x, v in enumerate(vals, lo):
            r = inside if (mask >> x) & 1 else inside + 1
            if v >= best[r]:
                if v > best[r]:
                    best[r] = v
                    reps[r] = [rows + (x,)]
                else:
                    reps[r].append(rows + (x,))

    def descend(vec, sid, rows, den, run) -> None:
        last = rows[-1]
        if len(rows) == free - 1:
            leaves(vec, sid, rows, last, nwords, den, run)
            return
        for x in range(last, nwords):
            same = x == last
            descend(
                [v * t for v, t in zip(vec, row_sums[x])],
                spans.child(sid, x),
                rows + (x,),
                den * (run + 1) if same else den,
                run + 1 if same else 1,
            )

    if free == 1:
        leaves(tables.lead, 0, (), x1, x1 + 1, 1, 0)
    else:
        head = [w * t for w, t in zip(tables.lead, row_sums[x1])]
        descend(head, spans.child(0, x1), (x1,), 1, 1)
    # descend reaches itself through its closure; unbinding it breaks that
    # cycle, so the tables the closures hold are freed on return instead of
    # at the next full garbage collection
    descend = None
    return scanned, {r: (best[r], reps[r]) for r in range(1, k + 1) if best[r] >= 0}


_worker_tables: _SweepTables | None = None  # a pool worker's own, from _start_worker


def _start_worker(k: int, n: int) -> None:
    global _worker_tables
    _worker_tables = _SweepTables(k, n)


def _worker_chunk(x1: int) -> tuple[int, dict[int, tuple[int, list]]]:
    return _sweep_chunk(_worker_tables, x1)


def _sweep(k: int, n: int, workers: int = 1) -> tuple[int, dict[int, tuple[int, list]]]:
    """Sweep every k x n matrix with all-ones first row and column.

    Work is split into one chunk per smallest-row pattern, run here for
    one worker, else fed one at a time to a pool of at most one process
    per chunk, each with its own tables.  Summaries merge in chunk order,
    so the result is identical for any worker count.  Returns the matrix
    count and, per rank, the largest value with the matrices attaining it.
    """
    work = range(1 << (n - 1))
    if workers == 1:
        tables = _SweepTables(k, n)
        parts = [_sweep_chunk(tables, x1) for x1 in work]
    else:
        import multiprocessing  # here: at module level it adds 20 ms to every command
        with multiprocessing.Pool(min(workers, len(work)), _start_worker, (k, n)) as pool:
            parts = pool.map(_worker_chunk, work, chunksize=1)
    scanned = 0
    merged: dict[int, tuple[int, list]] = {}
    for part_scanned, part_stats in parts:
        scanned += part_scanned
        for r, (mx, reps) in part_stats.items():
            top, kept = merged.get(r, (-1, []))
            if mx > top:
                merged[r] = (mx, reps)
            elif mx == top:
                kept.extend(reps)
    if scanned != 1 << ((k - 1) * (n - 1)):
        raise RuntimeError("weighted enumeration lost matrices")
    return scanned, {
        r: (mx, [SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows)) for rows in reps])
        for r, (mx, reps) in merged.items()
    }


# The strata that depart from the rule "the maximum is the bound, attained
# on the orbit of D_(n,k,r-1) alone": (k, n, rank) -> (maximum, sizes s of
# the D_(n,k,s) orbits attaining it), where a maximum of None is the bound.
_SANCTIONED = {
    (4, 4, 4): (8, (4,)),  # nonsingular order 4 tops out above the table's 4
    (3, 4, 3): (None, (2, 3)),  # D_(4,3,3) attains the selection bound too
}


def _verdict(
    k: int, n: int, workers: int, bounds: Callable[[], dict[int, int]]
) -> VerifyReport:
    """Sweep shape (k, n), 2 <= k <= n, and judge each rank stratum ``bounds()`` names.

    A shape is admitted when its leaves, the C(2^(n-1)+k-2, k-1) row
    multisets, times its passes per leaf, one per k-column selection, fit
    the 2^20 budget; ``bounds`` runs only then.  There are at least
    2^(n-1) leaves, so a shape with n > 21 is refused without counting.

    A stratum must top out exactly at its bound, or at its sanctioned
    maximum, and every matrix attaining it must lie in the orbit of
    D_(n,k,s) for one expected size s, each size reached by some matrix."""
    cost = math.comb((1 << (n - 1)) + k - 2, k - 1) * math.comb(n, k) if n <= 21 else None
    if cost is None or cost > 1 << 20:
        raise RangeError(
            f"shape ({k},{n}) needs {cost or f'at least 2^{n - 1}'} row multisets x selections,"
            " over the 2^20 budget"
        )
    t0 = time.monotonic()
    judged = bounds()
    scanned, merged = _sweep(k, n, workers)
    rows = []
    for r, bound in judged.items():
        top, sizes = _SANCTIONED.get((k, n, r), (None, (r - 1,)))
        top = bound if top is None else top
        mx, reps = merged.get(r, (-1, []))  # an empty stratum tops out at -1
        where = f"shape ({k},{n}) rank {r}"
        if mx > top:
            raise CounterexampleError(
                f"{where}: maximum {mx} beats the bound {top}:\n" + format_matrix_text(reps[0])
            )
        if mx < top:
            raise CounterexampleError(f"{where}: maximum {mx} misses the bound {top}")
        reached = set()
        for a in reps:
            size = next((s for s in sizes if equivalent_to_d(a, s) is not None), None)
            if size is None:
                raise CounterexampleError(
                    f"{where}: extremal matrix outside the expected orbits:\n"
                    + format_matrix_text(a)
                )
            reached.add(size)
        for s in sizes:
            if s not in reached:
                raise CounterexampleError(f"{where}: no extremal matrix in the D_({n},{k},{s}) orbit")
        rows.append(StratumRow(
            rank=r, bound=bound, observed_max=mx, extremal_orbits=len(sizes),
            equality_class=_CLASS_EXCEPTION if (k, n, r) in _SANCTIONED else _CLASS_PLAIN,
        ))
    return VerifyReport(
        n=n, rows=tuple(rows), scanned=scanned, seconds=round(time.monotonic() - t0, 3)
    )


def verify_square(n: int, workers: int = 1) -> VerifyReport:
    """Exhaustively confirm the per-rank bound over all order-n matrices.

    Every rank-r stratum must top out exactly at per D_(n,r-1), attained
    on the orbit of that matrix alone.  The one sanctioned deviation is
    order 4 nonsingular, where the maximum is 8 on the fully negated
    diagonal orbit and every other value stays at or below the table's 4.
    Orders 2..6 fit the sweep budget.

    The report is identical for any number of sweep ``workers``.
    """
    if workers < 1:
        raise RangeError(f"worker count must be positive, got {workers}")
    if n < 2:
        raise RangeError(f"need order n >= 2, got n={n}")

    def bounds() -> dict[int, int]:
        table = build_table(n)
        return {r: bound_for_rank(n, r, table) for r in range(1, n + 1)}

    return _verdict(n, n, workers, bounds)


def verify_mper(k: int, n: int) -> VerifyReport:
    """Exhaustively confirm the wide-matrix selection bound for shape (k, n).

    Sweeps every k x n matrix with all-ones first row and column up to
    row order, and checks the full-row-rank ones against the one-short
    near-identity bound mper D_(n,k,k-1), attained on that orbit alone
    except at shape (3, 4), where D_(4,3,3) attains it too.  Shapes are
    admitted by the sweep budget, not by a fixed list.
    """
    if not 2 <= k < n:
        raise RangeError(f"need 2 <= k < n, got k={k}, n={n}")
    return _verdict(k, n, 1, lambda: {k: mper(d_matrix(n, k, k - 1))})


def _random_square(rng: random.Random, n: int) -> SignMatrix:
    return SignMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))


def _random_wide(rng: random.Random, k: int, n: int) -> SignMatrix:
    while True:
        a = SignMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        if rank(a) == k:
            return a


def _random_transforms(rng: random.Random, n: int) -> tuple[tuple, ...]:
    steps: list[tuple] = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(tuple(_STEP_ARITY))  # table order fixes the draws
        steps.append((kind, *(rng.randint(1, n) for _ in range(_STEP_ARITY[kind]))))
    return tuple(steps)


def verify_properties(seed: int = 0, samples: int = 100_000) -> VerifyReport:
    """Randomized and small-exhaustive invariant suite.

    Deterministic given ``seed``; ``samples`` sets the sampled volume and
    the derived per-check allocations.  Raises PropertyFailure naming the
    violated invariant together with the offending input.
    """
    if samples <= 0:
        raise RangeError(f"sample count must be positive, got {samples}")
    rng = random.Random(seed)
    t0 = time.monotonic()
    checks: list[tuple[str, int]] = []
    scanned = 0

    def done(name: str, cases: int) -> None:
        nonlocal scanned
        checks.append((name, cases))
        scanned += cases

    def fail(name: str, a: SignMatrix, detail: str = "") -> None:
        raise PropertyFailure(
            f"{name} violated{': ' + detail if detail else ''}\n"
            + format_matrix_text(a)
        )

    # one pass over the normalized slices of orders 2-5, one permanent
    # each: up to order 4 the two evaluators agree and, at order 4, per is
    # a multiple of 4; |per| is an orbit invariant, so the slices cover
    # every orbit of the total bound n!, attained on the all-ones orbit
    # alone, with (n-2)(n-1)! as the ceiling for everything else
    oracle = div4 = total = 0
    for order in (2, 3, 4, 5):
        top = math.factorial(order)
        rest = (order - 2) * math.factorial(order - 1)
        for a in enumerate_normalized(order):
            p = permanent_ryser(a)
            if order < 5:
                if p != permanent_naive(a):
                    fail("permanent oracle agreement", a)
                oracle += 1
            if order == 4:
                if p % 4:
                    fail("order-4 divisibility by 4", a)
                div4 += 1
            p = abs(p)
            if p > top:
                fail("total permanent bound", a, f"|per| = {p} > {top}")
            if p == top:
                if equivalent_to_d(a, 0) is None:
                    fail("total-bound equality orbit", a)
            elif p > rest:
                fail("non-equality permanent ceiling", a, f"|per| = {p} > {rest}")
            total += 1
    for order, pct in ((5, 85), (6, 10), (7, 4), (8, 1)):
        for _ in range(samples * pct // 100):
            a = _random_square(rng, order)
            if permanent_ryser(a) != permanent_naive(a):
                fail("permanent oracle agreement", a)
            oracle += 1
    done("ryser_vs_naive", oracle)
    done("order4_divisibility", div4)
    done("total_bound", total)

    # expansion along one or two rows agrees with the direct value
    cases = max(1, samples // 100)
    for _ in range(cases):
        order = rng.randint(2, 6)
        a = _random_square(rng, order)
        width = 1 if order == 2 else rng.randint(1, 2)
        beta = sorted(rng.sample(range(1, order + 1), width))
        if laplace_expand(a, beta) != permanent_ryser(a):
            fail("expansion consistency", a, f"rows {beta}")
    done("laplace_expansion", cases)

    # |per| and rank survive the transformation group, and sequences invert
    cases = max(1, samples // 10)
    for _ in range(cases):
        order = rng.randint(2, 6)
        a = _random_square(rng, order)
        seq = _random_transforms(rng, order)
        b = apply(a, seq)
        if abs(permanent_ryser(a)) != abs(permanent_ryser(b)):
            fail("permanent transform invariance", a, f"under {seq}")
        if rank(a) != rank(b):
            fail("rank transform invariance", a, f"under {seq}")
        if apply(b, invert_transforms(seq)) != a:
            fail("transform inversion", a, f"under {seq}")
    done("transform_invariance", cases)

    # rank-vector minimality, which a wrong selection rank breaks:
    # exhaustive at the smallest wide shapes, then sampled across the
    # supported range.  Every matrix has full row rank by ``rank``, so a
    # rank vector with no full-rank selection (RankError) misses the law too.
    def min_law(a: SignMatrix) -> None:
        try:
            held = check_min_law(a)
        except RankError:
            held = False
        if not held:
            fail("rank-vector minimality", a)

    cases = 0
    for k, n in ((2, 3), (2, 4), (3, 4)):
        for i in range(1 << (k * n)):
            words = tuple((i >> (r * n)) & ((1 << n) - 1) for r in range(k))
            a = SignMatrix(k, n, words)
            if rank(a) < k:
                continue
            min_law(a)
            cases += 1
    for _ in range(max(1, samples // 200)):
        k = rng.randint(2, 4)
        a = _random_wide(rng, k, rng.randint(k + 1, 7))
        min_law(a)
        cases += 1
    done("rank_vector_laws", cases)

    return VerifyReport(
        n=0,
        rows=(),
        scanned=scanned,
        seconds=round(time.monotonic() - t0, 3),
        checks=tuple(checks),
    )


_STRATUM_FIELDS = (
    "n", "rank", "bound", "observed_max", "extremal_orbits", "scanned", "seconds", "equality_class"
)
_CHECK_FIELDS = ("check", "cases", "scanned", "seconds")


def _report_table(report: VerifyReport) -> tuple[tuple[str, ...], list[tuple]]:
    """Column names and value rows: one per check when the report has
    checks, else one per stratum in rank order."""
    if report.checks:
        return _CHECK_FIELDS, [
            (name, cases, report.scanned, report.seconds) for name, cases in report.checks
        ]
    return _STRATUM_FIELDS, [
        (
            report.n, row.rank, row.bound, row.observed_max, row.extremal_orbits,
            report.scanned, report.seconds, row.equality_class,
        )
        for row in sorted(report.rows, key=lambda row: row.rank)
    ]


def _encode(fields: tuple[str, ...], values: list[tuple], fmt: str) -> str:
    """A JSON array of objects keyed in ``fields`` order, or CSV with a header."""
    if fmt == "json":
        return json.dumps([dict(zip(fields, v)) for v in values], indent=2) + "\n"
    if fmt == "csv":
        return "\n".join([",".join(fields)] + [",".join(map(str, v)) for v in values]) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: VerifyReport, fmt: str, path) -> None:
    """Serialize ``report`` to ``path``: one row per stratum, or per check
    for the property suite.

    JSON is a top-level array with a fixed key order per row; CSV carries
    the same columns.  Everything except the timing field is reproducible
    across runs and worker counts.
    """
    Path(path).write_text(_encode(*_report_table(report), fmt), encoding="utf-8")
