"""Exhaustive and randomized verification of the rank-based permanent bound.

The square sweep walks every matrix of a given order with all-ones first
row and column; that slice meets every equivalence orbit, and both |per|
and rank are orbit invariants.  Row order below the first line is also
quotiented out: matrices are grouped by the multiset of their remaining
rows, each representative weighted by a multinomial count, which cuts
the order-6 stream from 2^25 matrices to C(36,5) representatives.

Permanents are batched over the grouped stream.  With the first row all
ones, Ryser's expansion reduces to a dot product between a per-subset
weight vector and the running product of per-row subset sums, so shared
row prefixes between consecutive representatives are computed once.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Iterator

from .d_family import bound_for_rank, build_table
from .errors import CounterexampleError, PropertyFailure, RangeError, ShapeError
from .exact_rank import _rank_rows, rank
from .permanent import laplace_expand, mper, permanent_naive, permanent_ryser
from .rank_vectors import (
    check_min_law,
    family_rank_vector,
    multiplicity_law,
    rank_vector,
    replace_family,
)
from .reduction import _rect_canonical, canonical_form, equivalent_to_d
from .sign_matrix import (
    SignMatrix,
    apply,
    d_matrix,
    format_matrix_text,
    invert_transforms,
    make_matrix,
    submatrix_select,
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
    index, so the stream is deterministic and restartable.
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


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get("PERMAX_THREADS", "")
        threads = int(env) if env else 1
    if threads < 1:
        raise RangeError(f"thread count must be positive, got {threads}")
    return threads


def _t_table(n: int) -> list[list[int]]:
    """Row sums over every column subset, indexed by a row's free bits."""
    out = []
    for x in range(1 << (n - 1)):
        w = x << 1
        out.append([s.bit_count() - 2 * (w & s).bit_count() for s in range(1 << n)])
    return out


def _leading_weights(n: int) -> list[int]:
    """Per-subset weights carrying the all-ones first row and the
    inclusion-exclusion sign of Ryser's expansion."""
    return [
        (-1 if (n - s.bit_count()) & 1 else 1) * s.bit_count() for s in range(1 << n)
    ]


def _sweep_chunk(
    n: int,
    x1: int,
    t_table: list[list[int]],
    lead: list[int],
    bounds: dict[int, int],
) -> tuple[int, dict[int, tuple[int, list[tuple[int, ...]]]]]:
    """Scan all row multisets whose smallest free row has bit pattern x1.

    Returns the weighted matrix count and, per rank, the largest |per|
    seen together with the representatives attaining it.  Raises
    CounterexampleError the moment any matrix beats its rank bound.
    """
    free = n - 1
    nwords = 1 << free
    fact = [math.factorial(i) for i in range(free + 1)]
    stats: dict[int, list] = {}
    scanned = 0

    def leaf(rows: tuple[int, ...], per: int) -> None:
        nonlocal scanned
        weight = fact[free]
        for c in Counter(rows).values():
            weight //= fact[c]
        scanned += weight
        r = 1 + _rank_rows([[(x >> j) & 1 for j in range(free)] for x in rows])
        ap = -per if per < 0 else per
        if ap > bounds[r] and not (n == 4 and r == 4 and ap == 8):
            a = SignMatrix(n, n, (0,) + tuple(x << 1 for x in rows))
            raise CounterexampleError(
                f"|per| = {ap} beats the rank-{r} bound {bounds[r]} at order {n}:\n"
                + format_matrix_text(a)
            )
        st = stats.get(r)
        if st is None:
            stats[r] = [ap, [rows]]
        elif ap > st[0]:
            st[0] = ap
            st[1] = [rows]
        elif ap == st[0]:
            st[1].append(rows)

    head = [w * t for w, t in zip(lead, t_table[x1])]
    if free == 1:
        leaf((x1,), sum(head))
    else:

        def rec(depth: int, lo: int, vec: list[int], rows: tuple[int, ...]) -> None:
            if depth == free - 1:
                for x in range(lo, nwords):
                    leaf(rows + (x,), sum(v * t for v, t in zip(vec, t_table[x])))
            else:
                for x in range(lo, nwords):
                    rec(
                        depth + 1,
                        x,
                        [v * t for v, t in zip(vec, t_table[x])],
                        rows + (x,),
                    )

        rec(1, x1, head, (x1,))
    return scanned, {r: (st[0], st[1]) for r, st in stats.items()}


def verify_square(n: int, threads: int | None = None) -> VerifyReport:
    """Exhaustively confirm the per-rank bound over all order-n matrices.

    Every rank stratum must top out exactly at its table bound, attained
    on a single orbit equivalent to the matching near-identity matrix.
    The one sanctioned deviation is order 4 nonsingular, where the
    maximum is 8 on the fully negated diagonal orbit and every other
    value stays at or below the table's 4.

    Work is split into one chunk per smallest-row pattern; chunk
    summaries merge associatively in a fixed order, so the report is
    identical for any thread count.  ``threads`` defaults to the
    PERMAX_THREADS environment variable, else 1.
    """
    if not (2 <= n <= 6):
        raise ShapeError(f"square sweep supports orders 2..6, got {n}")
    nthreads = _resolve_threads(threads)
    t0 = time.monotonic()
    table = build_table(max(n, 5))
    bounds = {r: bound_for_rank(n, r, table) for r in range(1, n + 1)}
    t_tab = _t_table(n)
    lead = _leading_weights(n)
    work = list(range(1 << (n - 1)))
    if nthreads == 1:
        parts = [_sweep_chunk(n, x1, t_tab, lead, bounds) for x1 in work]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(
                pool.map(lambda x1: _sweep_chunk(n, x1, t_tab, lead, bounds), work)
            )
    scanned = 0
    merged: dict[int, list] = {}
    for part_scanned, part_stats in parts:
        scanned += part_scanned
        for r, (mx, reps) in part_stats.items():
            cur = merged.get(r)
            if cur is None:
                merged[r] = [mx, list(reps)]
            elif mx > cur[0]:
                cur[0] = mx
                cur[1] = list(reps)
            elif mx == cur[0]:
                cur[1].extend(reps)
    if scanned != 1 << ((n - 1) ** 2):
        raise RuntimeError("weighted enumeration lost matrices")
    if sorted(merged) != list(range(1, n + 1)):
        raise RuntimeError("a rank stratum came up empty")
    out = []
    for r in range(1, n + 1):
        mx, reps = merged[r]
        exception = n == 4 and r == 4 and mx > bounds[r]
        if not exception and mx != bounds[r]:
            raise CounterexampleError(
                f"rank-{r} stratum tops out at {mx}; bound {bounds[r]} not attained"
            )
        target = 4 if exception else r - 1
        orbits: dict[tuple[int, ...], SignMatrix] = {}
        for rep in reps:
            a = SignMatrix(n, n, (0,) + tuple(x << 1 for x in rep))
            key = canonical_form(a).words
            if key not in orbits:
                orbits[key] = a
        for a in orbits.values():
            if equivalent_to_d(a, target) is None:
                raise CounterexampleError(
                    f"rank-{r} extremal matrix sits outside the expected orbit:\n"
                    + format_matrix_text(a)
                )
        out.append(
            StratumRow(
                rank=r,
                bound=bounds[r],
                observed_max=mx,
                extremal_orbits=len(orbits),
                equality_class=_CLASS_EXCEPTION if exception else _CLASS_PLAIN,
            )
        )
    return VerifyReport(
        n=n,
        rows=tuple(out),
        scanned=scanned,
        seconds=round(time.monotonic() - t0, 3),
    )


def verify_mper(k: int, n: int) -> VerifyReport:
    """Exhaustively confirm the wide-matrix selection bound for shape (k, n).

    Enumerates every k x n matrix with all-ones first row and column up
    to row order, keeps the full-row-rank ones, and checks each against
    the one-short near-identity bound.  Shapes are admitted by cost, not
    by a fixed list: 2^((k-1)(n-1)) * C(n,k) permanent evaluations must
    fit under 2^20.  Equality must land on the near-identity orbit,
    except shape (3, 4) where a second orbit attains the bound.
    """
    if not (2 <= k < n):
        raise RangeError(f"need 2 <= k < n, got k={k}, n={n}")
    cost = (1 << ((k - 1) * (n - 1))) * math.comb(n, k)
    if cost > 1 << 20:
        raise RangeError(
            f"shape ({k},{n}) needs {cost} permanent evaluations, over the 2^20 budget"
        )
    t0 = time.monotonic()
    bound = mper(d_matrix(n, k, k - 1))
    targets = {_rect_canonical(d_matrix(n, k, k - 1)).words}
    if (k, n) == (3, 4):
        targets.add(_rect_canonical(d_matrix(4, 3, 3)).words)
    free = k - 1
    width = n - 1
    fact = [math.factorial(i) for i in range(free + 1)]
    scanned = 0
    best = -1
    attain: list[tuple[int, ...]] = []
    for rows in combinations_with_replacement(range(1 << width), free):
        weight = fact[free]
        for c in Counter(rows).values():
            weight //= fact[c]
        scanned += weight
        if 1 + _rank_rows([[(x >> j) & 1 for j in range(width)] for x in rows]) != k:
            continue
        a = SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows))
        v = mper(a)
        if v > bound:
            raise CounterexampleError(
                f"selection maximum {v} beats the bound {bound} at shape ({k},{n}):\n"
                + format_matrix_text(a)
            )
        if v > best:
            best = v
            attain = [rows]
        elif v == best:
            attain.append(rows)
    if scanned != 1 << (free * width):
        raise RuntimeError("weighted enumeration lost matrices")
    if best != bound:
        raise CounterexampleError(
            f"selection bound {bound} not attained at shape ({k},{n}); maximum {best}"
        )
    orbits: dict[tuple[int, ...], SignMatrix] = {}
    for rep in attain:
        a = SignMatrix(k, n, (0,) + tuple(x << 1 for x in rep))
        key = _rect_canonical(a).words
        if key not in orbits:
            orbits[key] = a
    if set(orbits) != targets:
        raise CounterexampleError(
            f"equality orbits at shape ({k},{n}) differ from the expected family"
        )
    row = StratumRow(
        rank=k,
        bound=bound,
        observed_max=best,
        extremal_orbits=len(orbits),
        equality_class=_CLASS_EXCEPTION if (k, n) == (3, 4) else _CLASS_PLAIN,
    )
    return VerifyReport(
        n=n,
        rows=(row,),
        scanned=scanned,
        seconds=round(time.monotonic() - t0, 3),
    )


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
        kind = rng.choice(("negR", "negC", "swapR", "swapC", "T"))
        if kind == "T":
            steps.append(("T",))
        elif kind in ("negR", "negC"):
            steps.append((kind, rng.randint(1, n)))
        else:
            steps.append((kind, rng.randint(1, n), rng.randint(1, n)))
    return tuple(steps)


def _scaled_difference_holds(a: SignMatrix, col: list[int]) -> bool:
    """Appended-column law: summing the replacement families over every
    selection of ``a`` counts each fresh selection n - k + 1 times, so the
    total equals that multiple of the rank-vector difference."""
    k, n = a.rows, a.cols
    entries = []
    for i in range(1, k + 1):
        entries.extend(a.row_signs(i))
        entries.append(col[i - 1])
    extended = make_matrix(entries, k, n + 1)
    base = rank_vector(a)
    grown = rank_vector(extended)
    total = [0] * k
    for gamma in combinations(range(1, n + 1), k):
        picked = submatrix_select(a, range(1, k + 1), gamma)
        fv = family_rank_vector(replace_family(picked, col))
        total = [t + f for t, f in zip(total, fv)]
    scale = n - k + 1
    return total == [scale * (g - b) for g, b in zip(grown, base)]


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

    # the two permanent evaluators must agree everywhere
    cases = 0
    for order in (2, 3, 4):
        for a in enumerate_normalized(order):
            if permanent_ryser(a) != permanent_naive(a):
                fail("permanent oracle agreement", a)
            cases += 1
    for order, pct in ((5, 85), (6, 10), (7, 4), (8, 1)):
        for _ in range(samples * pct // 100):
            a = _random_square(rng, order)
            if permanent_ryser(a) != permanent_naive(a):
                fail("permanent oracle agreement", a)
            cases += 1
    done("ryser_vs_naive", cases)

    # order-4 permanents are multiples of 4; |per| is an orbit invariant,
    # so the normalized slice covers every orbit
    cases = 0
    for a in enumerate_normalized(4):
        if permanent_ryser(a) % 4:
            fail("order-4 divisibility by 4", a)
        cases += 1
    done("order4_divisibility", cases)

    # total bound n! with its unique all-ones equality orbit, and the
    # (n-2)(n-1)! ceiling for everything else
    cases = 0
    for order in (2, 3, 4, 5):
        top = math.factorial(order)
        rest = (order - 2) * math.factorial(order - 1)
        for a in enumerate_normalized(order):
            p = abs(permanent_ryser(a))
            if p > top:
                fail("total permanent bound", a, f"|per| = {p} > {top}")
            if p == top:
                if equivalent_to_d(a, 0) is None:
                    fail("total-bound equality orbit", a)
            elif p > rest:
                fail("non-equality permanent ceiling", a, f"|per| = {p} > {rest}")
            cases += 1
    done("total_bound", cases)

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

    # rank-vector laws, exhaustive at the smallest wide shapes and then
    # sampled across the supported range
    cases = 0
    for k, n in ((2, 3), (2, 4), (3, 4)):
        for i in range(1 << (k * n)):
            words = tuple((i >> (r * n)) & ((1 << n) - 1) for r in range(k))
            a = SignMatrix(k, n, words)
            if rank(a) < k:
                continue
            ones = [1] * k
            if not check_min_law(a):
                fail("rank-vector minimality", a)
            if not multiplicity_law(a, ones):
                fail("rank-vector multiplicity", a)
            if not _scaled_difference_holds(a, ones):
                fail("rank-vector scaled difference", a)
            cases += 1
    for _ in range(max(1, samples // 200)):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, 7)
        a = _random_wide(rng, k, n)
        col = [rng.choice((1, -1)) for _ in range(k)]
        if not check_min_law(a):
            fail("rank-vector minimality", a)
        if not multiplicity_law(a, col):
            fail("rank-vector multiplicity", a, f"column {col}")
        if not _scaled_difference_holds(a, col):
            fail("rank-vector scaled difference", a, f"column {col}")
        cases += 1
    done("rank_vector_laws", cases)

    return VerifyReport(
        n=0,
        rows=(),
        scanned=scanned,
        seconds=round(time.monotonic() - t0, 3),
        checks=tuple(checks),
    )


def _render_report(report: VerifyReport, fmt: str) -> str:
    rows = sorted(report.rows, key=lambda row: row.rank)
    if fmt == "json":
        payload = [
            {
                "n": report.n,
                "rank": row.rank,
                "bound": row.bound,
                "observed_max": row.observed_max,
                "extremal_orbits": row.extremal_orbits,
                "scanned": report.scanned,
                "seconds": report.seconds,
                "equality_class": row.equality_class,
            }
            for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = ["n,rank,bound,observed_max,extremal_orbits,scanned,seconds,equality_class"]
        for row in rows:
            lines.append(
                f"{report.n},{row.rank},{row.bound},{row.observed_max},"
                f"{row.extremal_orbits},{report.scanned},{report.seconds},"
                f"{row.equality_class}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: VerifyReport, fmt: str, path) -> None:
    """Serialize the stratum rows of ``report`` to ``path``.

    JSON is a top-level array with a fixed key order per row; CSV carries
    the same columns.  Everything except the timing field is reproducible
    across runs and thread counts.
    """
    Path(path).write_text(_render_report(report, fmt), encoding="utf-8")
