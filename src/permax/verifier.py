"""Exhaustive and randomized verification of the rank-based permanent bound.

Both exhaustive sweeps walk every k x n matrix with all-ones first row
and column: the square sweep (k = n) bounds |per| per rank, the wide
sweep (k < n) the sum of |per| over the k-column selections of the
full-rank matrices.  That slice meets every equivalence orbit, and both
values and the rank are orbit invariants.  So are permutations of the
free rows and free columns, which keep the first row and column all
ones: the first k - 2 free rows are taken only up to those permutations
(canonical augmentation, after McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), one prefix class weighted by its
orbit size and streamed depth first, and the last free row runs over
all 2^(n-1) patterns.  That cuts the order-6 stream from 2^25 matrices
to 1,053 classes and 33,696 leaves.

One kernel scans the classes of both sweeps.  Each class carries the
running product of per-row subset sums over all 2^n column subsets,
grown from the class before it, so shared prefixes are computed once.
Each selection's permanent is linear in the last row, its coefficients
b_j the permanents of the (k-1)-column minors.  Each class sums its
C(n,k-1) minors off that product once, and every selection reads its
b_j from them, so one pass per valued class and selection gives every
leaf's value, and the rank comes from a table of row spans: a leaf
evaluates no permanent and runs no elimination.  No leaf of a class
exceeds the sum of every |b_j|, n - k + 1 times the sum of the minors'
|per|, and a class whose sum is below the bound of both ranks its
leaves take skips those passes: only classes that can reach a bound are
valued leaf by leaf (23 of 1,053 at order 6), the others counted from
the span table and their sum of per^2 taken in closed form from the
minors.  Every sweep is checked exactly: the class count
against the Polya count, the matrix and orbit counts, the second moment
sum per^2, the per-rank matrix counts, and the divisibility of every
b_j by the power of two the Krauter-Seifter theorem gives permanents of
its order.  One routine, ``_verdict``, admits a shape by its cost and
judges every rank stratum against its bound and one table of
sanctioned deviations; a stratum that misses its bound is swept again
in full before it is reported, and a matrix it names as a
counterexample is first revalued by the independent oracles.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import combinations, groupby, permutations, product
from operator import add, itemgetter, mul, or_

from .d_family import bound_for_rank, build_table
from .errors import CounterexampleError, PropertyFailure, RangeError, RankError, ShapeError
from .exact_rank import rank
from .permanent import (
    _last_row_permanents,
    _normalized_blocks,
    laplace_expand,
    mper,
    permanent_naive,
    permanent_ryser,
)
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


class StratumRow(
    namedtuple("StratumRow", "rank bound observed_max extremal_orbits equality_class")
):
    """One rank stratum of a sweep: the bound, the observed maximum |per|,
    and how many equivalence orbits attain it."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "n rows scanned seconds checks", defaults=((),))):
    """Outcome of one verification run.

    ``rows`` is empty for the property suite, which reports the per-check
    case counts in ``checks`` instead.
    """

    __slots__ = ()


def enumerate_normalized(n: int) -> Iterator[SignMatrix]:
    """Yield every order-n matrix with all-ones first row and first column.

    The (n-1)^2 free cells run in row-major bit order of the enumeration
    index, so the stream is deterministic.
    """
    if not (2 <= n <= 6):
        raise ShapeError(f"normalized enumeration supports orders 2..6, got {n}")
    for i in range(1 << (n - 1) ** 2):
        yield _normalized(n, i)


def _normalized(n: int, i: int, k: int | None = None) -> SignMatrix:
    """The i-th k x n matrix (k = n by default) with all-ones first row and
    column, its free rows read from i lowest first as in
    ``enumerate_normalized(n)``."""
    free = n - 1
    mask = (1 << free) - 1
    k = n if k is None else k
    return SignMatrix(k, n, tuple([0] + [((i >> (r * free)) & mask) << 1 for r in range(k - 1)]))


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
    start at -1 and are filled on first use, for x and at once for every
    x' that the grown span holds and span i does not, since span i and x'
    span it too; every sweep builds its own table.  Step ids are 32-bit:
    the full order-7 table (m = 6) has 77,261 spans, past the 16-bit
    limit of 32,767.  The full order-6 table (1,788 spans) takes about
    0.9 MB, 0.23 MB of it step ids.  Both figures are what the multiset
    reference kernel in the tests reaches; the sweep's prefix classes
    fill far fewer spans.
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
            nid = self._extend(sid, x)
            base, new = at ^ x, self.mask[nid] & ~self.mask[sid]
            while new:
                low = new & -new
                self.step[base | low.bit_length() - 1] = nid
                new ^= low
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


class _RowSums(dict):
    """Per-subset row sums over the 2^n column subsets, keyed by a row's
    free bits and filled on first use: a sweep reads only the rows of its
    prefix classes (10 of the 512 at (3,10)), and a two-row sweep none."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.full = range(1 << n)

    def __missing__(self, x: int) -> list[int]:
        sums = self[x] = [s.bit_count() - 2 * ((x << 1) & s).bit_count() for s in self.full]
        return sums


class _SweepTables:
    """Read-only tables of one k x n sweep, plus the span table of the
    free rows.

    ``lead`` is the Ryser vector of the all-ones first row, signed for
    the k - 1 rows above the last row, not for all k: so ``minors[i]``
    picks the 2^(k-1) subsets of the i-th (k-1)-column set T, in
    ``combinations`` order, and summing them off a class's Ryser vector
    gives the permanent of the class's minor on T itself, not its
    negative.  ``sels[c]`` reads the c-th k-column selection's
    coefficients b_0..b_(n-1) off that list of minors with a 0 appended:
    b_j is the minor on the selection less column j, and 0 for a column
    outside the selection.

    ``targets`` maps each judged rank to the least value its stratum must
    reach; ``None`` judges nothing and has every class value its leaves.
    """

    def __init__(self, k: int, n: int, targets: dict[int, int] | None = None) -> None:
        self.k, self.n = k, n
        # per prefix span dimension d, the value a class's leaves, of rank
        # 1 + d or 2 + d, must be able to reach for the class to value them;
        # a rank with no target never needs them
        if targets is None:
            self.need = [0] * (k - 1)
        else:
            reach = [targets.get(r, math.inf) for r in range(k + 1)]
            self.need = [min(reach[d + 1], reach[d + 2]) for d in range(k - 1)]
        full = range(1 << n)
        # Ryser weights of the all-ones first row, inclusion-exclusion sign
        # (-1)^(k - 1 - |s|) included
        self.lead = [(-1 if (k - 1 - s.bit_count()) & 1 else 1) * s.bit_count() for s in full]
        self.row_sums = _RowSums(n)
        # the empty subset, of weight 0, keeps every getter returning a
        # tuple, even at k = 2
        sets = list(combinations(range(n), k - 1))
        self.minors = [
            itemgetter(*[sum(1 << c for i, c in enumerate(cols) if (b >> i) & 1)
                         for b in range(1 << (k - 1))])
            for cols in sets
        ]
        # by column mask; flipping a column outside a selection's mask gives
        # k + 1 columns, no key, so that column reads the appended 0
        index = {sum(1 << c for c in cols): i for i, cols in enumerate(sets)}
        self.sels = [
            itemgetter(*[index.get(sel ^ 1 << j, len(sets)) for j in range(n)])
            for sel in (sum(1 << c for c in cols) for cols in combinations(range(n), k))
        ]
        self.spans = _SpanTable(n - 1)


def _partitions(n: int, most: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _polya_count(r: int, m: int) -> int:
    """Number of r x m 0/1 matrices up to row and column permutations.

    Burnside over S_r x S_m: a pair of permutations with cycle lengths
    a_i and b_j fixes 2^(sum gcd(a_i, b_j)) matrices, and each pair of
    cycle types is summed once, times its number of pairs.
    """

    def cycle_types(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        for lens in _partitions(n):
            z = 1  # the centralizer order: n! / z permutations have these cycles
            for length in set(lens):
                c = lens.count(length)
                z *= length**c * math.factorial(c)
            yield lens, math.factorial(n) // z

    total = sum(
        ca * cb * 2 ** sum(math.gcd(a, b) for a in la for b in lb)
        for la, ca in cycle_types(r)
        for lb, cb in cycle_types(m)
    )
    count, rest = divmod(total, math.factorial(r) * math.factorial(m))
    if rest:
        raise RuntimeError(f"Burnside sum {total} is not a multiple of {r}! {m}!")
    return count


def _prefix_classes(r: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """One tuple of r rows of m bits per class under row and column
    permutations, with the class size, depth first.

    A tuple's key is the least sorted list of its column codes (bit i of
    a code is the column's bit in row i) over the row orders that list
    the rows by weight; weights survive column permutations, so the key
    is a class invariant.  By canonical augmentation (McKay, 1998), a
    class's parent is the class of its rows less the one an order
    attaining the key puts last.  A representative's child by a row x is
    kept when x weighs at least as much as every row, some order
    attaining the key puts x last, and no kept sibling has its key.  So
    each class comes once, and only the kept children along the path to
    it wait on the stack.  The orders attaining the key, times the
    column orders that fix the sorted codes, count the stabilizer: the
    class has r! m! / |Stab| tuples.
    """
    size = math.factorial(r) * math.factorial(m)
    # every row order of up to r rows as a map of column codes
    recode = {
        order: [sum(((c >> p) & 1) << i for i, p in enumerate(order)) for c in range(1 << j)]
        for j in range(r + 1)
        for order in permutations(range(j))
    }
    spread = [[[((x >> c) & 1) << j for c in range(m)] for x in range(1 << m)] for j in range(r)]
    heavier = [[x for x in range(1 << m) if x.bit_count() >= w] for w in range(m + 1)]
    # row weights, which never fall along a tuple -> the codes maps of the
    # orders by weight, those putting the last row last first
    orders: dict[tuple[int, ...], list[list[int]]] = {}

    stack = [((), [0] * m, (), [[0] * m])]  # rows, codes, weights, keys
    while stack:
        rows, codes, weights, keys = stack.pop()
        if len(rows) == r:
            key = min(keys)
            fixed = keys.count(key)
            for c in set(codes):
                fixed *= math.factorial(codes.count(c))
            yield rows, size // fixed
            continue
        j = len(rows)
        tried, kept = set(), set()  # children equal up to column order share a class
        for x in heavier[max(weights, default=0)]:
            child = list(map(or_, codes, spread[j][x]))
            plain = tuple(sorted(child))
            if plain in tried:
                continue
            tried.add(plain)
            wx = weights + (x.bit_count(),)
            maps = orders.get(wx)
            if maps is None:
                blocks = [list(g) for _, g in groupby(range(j + 1), wx.__getitem__)]
                perms = sorted(product(*map(permutations, blocks)), key=lambda o: o[-1][-1] != j)
                maps = orders[wx] = [recode[sum(o, ())] for o in perms]
            child_keys = [sorted(map(t.__getitem__, child)) for t in maps]
            key = min(child_keys)
            # one order in |last weight block| puts x last
            if key in child_keys[: len(maps) // wx.count(wx[-1])] and tuple(key) not in kept:
                kept.add(tuple(key))
                stack.append((rows + (x,), child, wx, child_keys))


def _last_row_values(b: Sequence[int]) -> list[int]:
    """One selection's permanent for every last row, from the selection's
    column sums ``b`` of the prefix's Ryser vector: the last row with
    free bits x gives sum(b) - 2 * (the sum of b[j + 1] over the bits j
    of x), and one doubling pass fills that for every x."""
    per = [sum(b)]
    for bj in b[1:]:
        bj *= 2
        per += [p - bj for p in per]
    return per


def _rank_split(vals: list[int], dim: int, mask: int) -> tuple[tuple[int, int], ...]:
    """A class's last rows by rank, as bit sets over x: a row in the prefix
    span (bit x of ``mask``) leaves the rank at 1 + ``dim``, any other
    row adds one."""
    return (1 + dim, mask), (2 + dim, ((1 << len(vals)) - 1) ^ mask)


def _sweep_block(tables: _SweepTables, block: Iterable[tuple[tuple[int, ...], int]]) -> tuple:
    """Scan every matrix of a stream of prefix classes.

    Each class is a representative prefix P of k - 2 free rows and its
    orbit size w.  Its leaves put every row of 2^(n-1) last rows below P,
    and each leaf stands for the w matrices its orbit gives, all with the
    same value and rank.  A leaf's value is the sum of |per| over its
    k-column selections, so a square leaf's value is its |per|.

    The classes arrive depth first, so consecutive classes share
    prefixes: the Ryser vector of P (the running product of per-subset
    row sums) and the id of its span grow along the rows that differ from
    the previous class's.  Each selection's permanent is linear in the
    last row's entries, with coefficient b_j the permanent of the
    (k-1) x (k-1) minor that omits column j.  A minor belongs to the
    n - k + 1 selections that hold its columns, so each of the C(n,k-1)
    minors is summed off the Ryser vector once per class, and a selection
    reads its b_j from that list.  One doubling pass per selection gives
    every leaf's value, and the leaf's rank is 1 + dim(span of P), plus 1
    when the last row lies outside that span: two table reads.

    No leaf of a class is worth more than the sum of every |b_j| over the
    selections, which is n - k + 1 times the sum of the minors' |per|.
    When that is below the target of both ranks its leaves take
    (``tables.need``), no leaf can reach a bound, and the class builds no
    selection's b and skips its doubling passes: its census comes from
    the span mask, and its sum of per^2 is exactly 2^(n-1) times the sum
    of every b_j^2, n - k + 1 times the minors' per^2, since the cross
    terms cancel over the last rows.  A valued class sums per^2 from its
    leaf values instead, so the second-moment check also covers the
    doubling passes.  A leaf equal to a target is always valued, so judged
    maxima and their leaves are exact.

    Every minor of the block, and so every b_j, is ORed together and
    checked against the Krauter-Seifter theorem (1983): the permanent of
    an order-q sign matrix is a multiple of 2^(q - floor(log2 q) - 1).

    Returns the weighted matrix count, the sum of the weights, the
    weighted sum of per^2 over every selection, the weighted matrix count
    per rank, per rank the largest value seen with the leaves attaining
    it as free-row tuples, in scan order, and the number of classes.  A
    rank without a target sees only the classes valued for other ranks.
    """
    k, m = tables.k, tables.n - 1
    row_sums, minors, sels = tables.row_sums, tables.minors, tables.sels
    spans, need = tables.spans, tables.need
    spread = tables.n - k + 1  # the selections holding each (k-1)-column set
    best = [-1] * (k + 1)
    reps: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    census = [0] * (k + 1)
    scanned = orbits = squares = classes = ored = 0
    path: tuple[int, ...] = ()
    vecs, sids = [tables.lead], [0]  # along ``path``, one more than its rows
    for rows, w in block:
        i = next((i for i, (x, y) in enumerate(zip(rows, path)) if x != y), len(path))
        del vecs[i + 1 :], sids[i + 1 :]
        for x in rows[i:]:
            vecs.append(list(map(mul, vecs[-1], row_sums[x])))
            sids.append(spans.child(sids[-1], x))
        path, vec, sid = rows, vecs[-1], sids[-1]
        scanned += w << m
        orbits += w
        classes += 1
        mz = [sum(g(vec)) for g in minors]
        ored = reduce(or_, mz, ored)
        dim = spans.dim[sid]
        if spread * sum(map(abs, mz)) < need[dim]:
            squares += w * spread * sum(map(mul, mz, mz)) << m
            inside = spans.mask[sid].bit_count()
            census[1 + dim] += w * inside
            census[2 + dim] += w * ((1 << m) - inside)
            continue
        mz.append(0)
        vals: list[int] = []
        sq = 0
        for sel in sels:
            per = _last_row_values(sel(mz))
            sq += sum(map(mul, per, per))
            vals = list(map(add, vals, map(abs, per))) if vals else list(map(abs, per))
        squares += w * sq
        top = max(vals)
        for r, bits in _rank_split(vals, dim, spans.mask[sid]):
            census[r] += w * bits.bit_count()
            if top < best[r]:
                continue
            mx = max((v for x, v in enumerate(vals) if (bits >> x) & 1), default=-1)
            if mx > best[r]:
                best[r], reps[r] = mx, []
            if mx == best[r]:
                reps[r] += [rows + (x,) for x, v in enumerate(vals) if v == mx and (bits >> x) & 1]
    q = k - 1
    floor = q - q.bit_length()
    if ored & ((1 << floor) - 1):
        raise RuntimeError(
            f"column sums are permanents of order {q}, but not all are multiples of 2^{floor}"
            f" (their OR is {ored})"
        )
    stats = {r: (best[r], reps[r]) for r in range(1, k + 1) if best[r] >= 0}
    return scanned, orbits, squares, census, stats, classes


# Nonsingular normalized matrices of order n: A055165(n - 1), the number of
# nonsingular (n-1) x (n-1) 0/1 matrices, https://oeis.org/A055165.  The
# order-7 value was computed twice, by a prototype sweep and by this
# kernel, and agrees with A055165(6) as remembered; it was not read from
# the OEIS entry.  The budget refuses order 7, so only a direct census check
# reaches it.
_FULL_RANK = {2: 1, 3: 6, 4: 174, 5: 22_560, 6: 12_514_320, 7: 28_836_612_000}


def _check_census(k: int, n: int, census: list[int]) -> None:
    """Raise unless the per-rank matrix counts of a k x n sweep meet the
    laws that hold whatever the permanents are."""
    laws = [
        ("rank 1", census[1], 1),
        ("rank 2", census[2], ((1 << (k - 1)) - 1) * ((1 << (n - 1)) - 1)),
        ("all ranks", sum(census), 1 << ((k - 1) * (n - 1))),
    ]
    if k == n and n in _FULL_RANK:
        laws.append((f"rank {n}", census[n], _FULL_RANK[n]))
    for what, got, want in laws:
        if got != want:
            raise RuntimeError(f"rank census: {what} holds {got} matrices, not {want}")


def _sweep(
    k: int, n: int, targets: dict[int, int] | None = None
) -> tuple[int, dict[int, tuple[int, list]]]:
    """Sweep every k x n matrix with all-ones first row and column.

    The prefix classes stream from their generator into one block scan,
    and none is kept.  After it the class count against the Polya count,
    the other counts, the second moment and the rank census are checked
    exactly.  Returns the matrix count and, per rank, the largest value
    with the matrices attaining it: exact for a rank that ``targets``
    names whenever it reaches its target, and for every rank without
    ``targets``.
    """
    depth, m = k - 2, n - 1
    tables, gen = _SweepTables(k, n, targets), _prefix_classes(depth, m)
    scanned, orbits, squares, census, stats, classes = _sweep_block(tables, gen)
    polya = _polya_count(depth, m)
    if classes != polya:
        raise RuntimeError(f"generated {classes} prefix classes, the Polya count is {polya}")
    if scanned != 1 << ((k - 1) * (n - 1)):
        raise RuntimeError("weighted enumeration lost matrices")
    if orbits != 1 << (depth * m):
        raise RuntimeError(f"prefix orbits hold {orbits} prefixes, not 2^{depth * m}")
    # E[per^2] = k! over uniform k x k sign matrices, and negating lines keeps per^2
    moment = math.comb(n, k) * math.factorial(k) * scanned
    if squares != moment:
        raise RuntimeError(f"selection permanents square-sum to {squares}, not {moment}")
    _check_census(k, n, census)
    return scanned, {
        r: (mx, [SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows)) for rows in reps])
        for r, (mx, reps) in stats.items()
    }


# The strata that depart from the rule "the maximum is the bound, attained
# on the orbit of D_(n,k,r-1) alone": (k, n, rank) -> (maximum, sizes s of
# the D_(n,k,s) orbits attaining it), where a maximum of None is the bound.
_SANCTIONED = {
    (4, 4, 4): (8, (4,)),  # nonsingular order 4 tops out above the table's 4
    (3, 4, 3): (None, (2, 3)),  # D_(4,3,3) attains the selection bound too
}


def _recheck(a: SignMatrix, value: int, r: int) -> None:
    """Raise RuntimeError, blaming the sweep kernel, unless evaluators
    independent of it agree with the value and rank it found for ``a``:
    ``mper``, which values every k-column selection in one call of the
    compiled oracle of ``permanent_naive``, and the Bareiss rank."""
    got = mper(a)
    if (got, rank(a)) != (value, r):
        raise RuntimeError(
            f"sweep kernel fault: it gives value {value} and rank {r}, the oracles"
            f" give {got} and rank {rank(a)}:\n" + format_matrix_text(a)
        )


def _strata(k: int, n: int) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """The judged rank strata of shape (k, n): every rank of a square
    shape, full row rank of a wide one.  Each maps to its bound, the
    maximum the sweep must find, and the sizes s of the D_(n,k,s) orbits
    that must attain it."""
    if k == n:
        table = build_table(n)
        bounds = {r: bound_for_rank(n, r, table) for r in range(1, n + 1)}
    else:
        bounds = {k: mper(d_matrix(n, k, k - 1))}
    strata = {}
    for r, bound in bounds.items():
        top, sizes = _SANCTIONED.get((k, n, r), (None, (r - 1,)))
        strata[r] = (bound, bound if top is None else top, sizes)
    return strata


def _verdict(k: int, n: int) -> VerifyReport:
    """Sweep shape (k, n), 2 <= k <= n, and judge each rank stratum of ``_strata``.

    A shape is admitted when its leaves, the Polya count of prefix classes
    times 2^(n-1) last rows, times its k-column selections fit the 2^20
    budget; the bounds are computed only then.  A class holds at most
    (k-2)!(n-1)! prefixes, a lower bound that refuses large shapes before
    any count.

    A stratum must top out exactly at its bound, or at its sanctioned
    maximum, and every matrix attaining it must lie in the orbit of
    D_(n,k,s) for one expected size s, each size reached by some matrix.
    The sweep values only the classes whose leaves could reach one of
    these maxima; a stratum that misses its maximum is swept again in
    full, so the message names the true one."""
    depth, m = k - 2, n - 1
    # 2^least is below the cost.  Past m = 20 one class's 2^m leaves are
    # over the budget, and the cost exceeds them: C(n,k) > 1 selections when
    # k < n, more than one class when k = n.
    cost, least = None, m
    if m <= 20:
        unit = math.comb(n, k) << m
        floor = -(-(1 << depth * m) // (math.factorial(depth) * math.factorial(m))) * unit
        least = (floor - 1).bit_length() - 1
        cost = _polya_count(depth, m) * unit if floor <= 1 << 20 else None
    if cost is None or cost > 1 << 20:
        raise RangeError(
            f"shape ({k},{n}) needs {cost or f'more than 2^{least}'} leaves x selections,"
            " over the 2^20 budget"
        )
    t0 = time.monotonic()
    strata = _strata(k, n)
    scanned, maxima = _sweep(k, n, {r: top for r, (_, top, _) in strata.items()})
    rows = []
    for r, (bound, top, sizes) in strata.items():
        mx, reps = maxima.get(r, (-1, []))  # an empty stratum tops out at -1
        where = f"shape ({k},{n}) rank {r}"
        if mx > top:
            _recheck(reps[0], mx, r)
            raise CounterexampleError(
                f"{where}: maximum {mx} beats the bound {top}:\n" + format_matrix_text(reps[0])
            )
        if mx < top:
            mx = _sweep(k, n)[1].get(r, (-1, []))[0]
            raise CounterexampleError(f"{where}: maximum {mx} misses the bound {top}")
        reached = set()
        for a in reps:
            size = next((s for s in sizes if equivalent_to_d(a, s) is not None), None)
            if size is None:
                _recheck(a, mx, r)
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

    Every sweep runs in the calling process.  ``workers`` is checked
    (it must be positive) and otherwise ignored, so the report is the
    same for any count.
    """
    if workers < 1:
        raise RangeError(f"worker count must be positive, got {workers}")
    if n < 2:
        raise RangeError(f"need order n >= 2, got n={n}")
    return _verdict(n, n)


def verify_mper(k: int, n: int) -> VerifyReport:
    """Exhaustively confirm the wide-matrix selection bound for shape (k, n).

    Sweeps every k x n matrix with all-ones first row and column, its
    first k - 2 free rows up to row and column permutations, and checks
    the full-row-rank ones against the one-short near-identity bound
    mper D_(n,k,k-1), attained on that orbit alone except at shape
    (3, 4), where D_(4,3,3) attains it too.  Shapes are admitted by the
    sweep budget, not by a fixed list.
    """
    if not 2 <= k < n:
        raise RangeError(f"need 2 <= k < n, got k={k}, n={n}")
    return _verdict(k, n)


def _random_square(rng: random.Random, n: int) -> SignMatrix:
    return SignMatrix(n, n, tuple([rng.getrandbits(n) for _ in range(n)]))


def _random_wide(rng: random.Random, k: int, n: int) -> SignMatrix:
    while True:
        a = SignMatrix(k, n, tuple([rng.getrandbits(n) for _ in range(k)]))
        if rank(a) == k:
            return a


def _random_transforms(rng: random.Random, n: int) -> tuple[tuple, ...]:
    steps: list[tuple] = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(tuple(_STEP_ARITY))  # table order fixes the draws
        steps.append((kind, *(rng.randint(1, n) for _ in range(_STEP_ARITY[kind]))))
    return tuple(steps)


# the wide shapes whose every full-row-rank matrix meets the minimality law in props
_LAW_SHAPES = ((2, 3), (2, 4), (3, 4))


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

    # one pass over the normalized slices of orders 2-5, block by block:
    # a block is the 2^(n-1) last rows under one prefix of rows, and its
    # values come from one doubling pass over its minors' permanents b_j,
    # which the compiled oracle of permanent_naive gives in one call over
    # the prefix.  Up to order 4 every value agrees with permanent_ryser,
    # an evaluator sharing no code with the oracle, and, at order 4, is a
    # multiple of 4 (the sampled orders 5-8 below compare the two
    # evaluators matrix by matrix); per^2 sums exactly to n! 2^((n-1)^2)
    # per slice; |per| is an orbit invariant, so the slices cover every
    # orbit of the total bound n!, attained on the all-ones orbit alone,
    # with (n-2)(n-1)! as the ceiling for everything else.  No value of a
    # block exceeds the sum of its |b_j|, so an order-5 block whose sum is
    # within the ceiling is counted unvalued, its per^2 summing to 2^(n-1) sum b_j^2 as the
    # cross terms cancel over the last rows: only the all-ones prefix's
    # block is valued there.  A matrix is built only for permanent_ryser
    # or for a value over the ceiling.
    oracle = div4 = total = 0
    for order in (2, 3, 4, 5):
        top = math.factorial(order)
        rest = (order - 2) * math.factorial(order - 1)
        free = order - 1
        shift = (order - 2) * free
        squares = 0
        for p, b in _normalized_blocks(order):
            total += 1 << free
            if order == 5 and sum(map(abs, b)) <= rest:
                squares += sum(map(mul, b, b)) << free
                continue
            for x, v in enumerate(_last_row_permanents(b)):
                squares += v * v
                if order < 5:
                    a = _normalized(order, p | x << shift)
                    if v != permanent_ryser(a):
                        fail("permanent oracle agreement", a)
                    oracle += 1
                if order == 4:
                    if v % 4:
                        fail("order-4 divisibility by 4", a)
                    div4 += 1
                v = abs(v)
                if v > rest:
                    a = _normalized(order, p | x << shift)
                    if v > top:
                        fail("total permanent bound", a, f"|per| = {v} > {top}")
                    if v < top:
                        fail("non-equality permanent ceiling", a, f"|per| = {v} > {rest}")
                    if equivalent_to_d(a, 0) is None:
                        fail("total-bound equality orbit", a)
        # E[per^2] = n! over uniform sign matrices, and negating lines keeps per^2
        moment = top << (order - 1) ** 2
        if squares != moment:
            raise RuntimeError(
                f"normalized order-{order} permanents square-sum to {squares}, not {moment}"
            )
    for order, pct in ((5, 85), (6, 10), (7, 4), (8, 1)):
        for _ in range(samples * pct // 100):
            a = _random_square(rng, order)
            if permanent_ryser(a) != permanent_naive(a):
                fail("permanent oracle agreement", a)
            oracle += 1
    done("ryser_vs_naive", oracle)
    done("order4_divisibility", div4)
    done("total_bound", total)

    # the oracle's expansion along one or two rows agrees with Glynn's direct value
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
    # Negating a row or column keeps every selection's rank, so the
    # exhaustive pass walks the matrices with all-ones first row and column
    # and counts each full-row-rank one for its 2^(k+n-1) negation images.
    def min_law(a: SignMatrix) -> None:
        try:
            held = check_min_law(a)
        except RankError:
            held = False
        if not held:
            fail("rank-vector minimality", a)

    cases = 0
    for k, n in _LAW_SHAPES:
        for i in range(1 << ((k - 1) * (n - 1))):
            a = _normalized(n, i, k)
            if rank(a) == k:
                min_law(a)
                cases += 1 << (k + n - 1)
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
        # loaded here, not at module import: only JSON output needs it,
        # and it costs about 2 ms in every other command
        import json

        return json.dumps([dict(zip(fields, v)) for v in values], indent=2) + "\n"
    if fmt == "csv":
        return "\n".join([",".join(fields)] + [",".join(map(str, v)) for v in values]) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: VerifyReport, fmt: str, path) -> None:
    """Serialize ``report`` to ``path``: one row per stratum, or per check
    for the property suite.

    JSON is a top-level array with a fixed key order per row; CSV carries
    the same columns.  Everything except the timing field is reproducible
    across runs.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(_encode(*_report_table(report), fmt))
