"""Exhaustive verification of the rank-based permanent bound.

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

One kernel scans the classes of both sweeps.  Each selection's
permanent is linear in the last row, its coefficients b_j the
permanents of the (k-1)-column minors, and each order-j minor of a
prefix is linear in turn in its row j, its coefficients the order-(j-1)
minors of the rows above.  So every prefix row takes its minors by one
Laplace step from those of the rows above it, carried down the
depth-first stack of prefix rows from the empty permanent 1: a parent
row, one of a class's first k - 2 rows, all-ones row included, is
stepped once when it is pushed (190 parents for the 1,053 classes of
order 6), and each class takes its C(n,k-1) minors by the same step
along its last prefix row.  Each order j has one table of n column
getters, getter c picking every j-column set's minor less column c,
and it serves every step into that order, the all-ones row's and the
last row's included: every selection reads its b_j off the order-k
table, so one pass per valued class and selection gives every leaf's
value, and the rank comes from a table of row spans: a leaf evaluates
no permanent and runs no elimination.  No leaf of a class exceeds the
sum of every |b_j|, n - k + 1 times the sum of the minors' |per|, and a
class whose sum is below the bound of both ranks its leaves take skips
those passes: only classes that can reach a bound are valued leaf by
leaf (23 of 1,053 at order 6), the others counted from the span table
and their sum of per^2 taken in closed form from the minors.  Every
sweep is checked exactly: the class count against the Polya count, the
orbit sum, which times the 2^(n-1) last rows is the matrix count, the
second moment sum per^2, the per-rank matrix counts, and the
divisibility of the minors of every order q by the power of two the
Krauter-Seifter theorem gives permanents of that order.  One routine,
``_verdict``, admits a shape by its cost and judges every rank stratum
against its bound, mper of a D matrix, and one table of sanctioned
deviations; a stratum that misses its bound is swept again in full
before it is reported, and a matrix it names as a counterexample is
first revalued by the independent oracles.

``verify_properties`` times and reports the seeded property suite of
``props``, which imports nothing of this module.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, reduce
from itertools import accumulate, combinations, compress, groupby, permutations, product
from operator import add, itemgetter, mul, not_, or_, sub

from . import props
from .errors import CounterexampleError, RangeError
from .exact_rank import rank
from .permanent import mper
from .reduction import equivalent_to_d
from .sign_matrix import SignMatrix, d_matrix, format_matrix_text

__all__ = [
    "StratumRow",
    "VerifyReport",
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


class _SpanTable:
    """Rational row spans of 0/1 vectors of length m, interned by content.

    A span generated by 0/1 vectors is fixed by the 0/1 vectors it
    contains, so its 2^m-bit membership mask ``mask[i]`` is an exact
    canonical key.  Each span keeps an integer basis of its annihilator:
    adding a vector x with form values a_k = f_k(x), a_i != 0, keeps the
    forms a_i * f_k - a_k * f_i (k != i), each divided by its gcd, and
    x lies in the span exactly when every form vanishes on it.  The mask
    values every form on all 2^m vectors at once, packed into one integer
    per vector, so no loop runs per form over them.  This is exact
    integer arithmetic independent of the Bareiss elimination in
    ``exact_rank``.

    ``step[i << m | x]`` is the id of span i extended by x.  Entries
    start at -1 and are filled on first use, for x and at once for every
    x' that the grown span holds and span i does not, since span i and x'
    span it too; every sweep builds its own table.  Step ids are 32-bit:
    the full order-7 table (m = 6) has 77,261 spans, past the 16-bit
    limit of 32,767.  The full order-6 table (1,788 spans) takes about
    0.9 MB, 0.23 MB of it step ids.  The order-6 count is the closure
    that ``test_span_transitions_match_bareiss[6]`` pins; the order-7
    count is the closure of ``_SpanTable(6)`` over all 64 vectors, as
    measured (16-23 s on a shared 2-vCPU machine, too slow for the
    tests).  The sweep's prefix classes fill far fewer spans.
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
        self._digits = bytes.maketrans(b"\0\1", b"01")  # membership bytes as binary digits
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
        bits = [(x >> j) & 1 for j in range(m)]
        vals = [sum(compress(f, bits)) for f in forms]
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
        # every form packed into one integer per vector, each in a field of
        # ``width`` bits, wide enough for its signed value, so the packed
        # value is 0 exactly on the span; one doubling per coordinate
        # values every vector, and ``map`` calls read the zeros off
        width = max([sum(map(abs, f)) for f in forms], default=0).bit_length() + 1
        packed = [0] * self.m
        for f in forms:
            packed = [(p << width) + c for p, c in zip(packed, f)]
        vals = [0]
        for p in packed:
            vals += [v + p for v in vals]
        member = bytes(map(not_, vals))
        mask = int(member.translate(self._digits)[::-1], 2)
        sid = self._ids.get(mask)
        if sid is None:
            sid = len(self.dim)
            self.dim.append(self.m - len(forms))
            self.mask.append(mask)
            self._forms.append([c for f in forms for c in f])
            self.step.fromlist([sid if b else -1 for b in member])
            self._ids[mask] = sid
        return sid


class _SweepTables:
    """Read-only tables of one k x n sweep, plus the span table of the
    free rows.

    The first j rows of a prefix, the all-ones first row first, have one
    minor per j-column set T, the permanent of those rows on T, and it
    follows from the minors of the rows above by Laplace expansion along
    row j, b_T = sum over c in T of a_c M_(T-c), starting from the one
    order-0 minor, the empty permanent 1.  Every list of minors, in
    ``combinations`` order of its column sets, ends with one 0 more.
    ``levels[j]``, for j = 1..k, is the table of that step into order j,
    n getters that read the list of order-(j-1) minors: getter c picks
    M_(T-c) for every j-column set T, and the closing 0 where T lacks c.
    Their outputs sum to the order-j minors when the row is all ones, and
    a row with a -1 in column c takes getter c's off twice.  Each getter
    picks the closing 0 last, so the order-j list ends with a 0 too.  The
    last row's step reads its order-k outputs per k-column selection
    instead: zipped, they give each selection's coefficients
    b_0..b_(n-1), b_c the minor on the selection less column c, and 0
    for a column outside it.

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

        upper = [0]  # the column masks of the minors a table reads
        self.levels = {}
        for j in range(1, k + 1):
            # dropping a column outside a set's mask gives one column too
            # many, no key, so that column reads the closing 0
            index = {t: i for i, t in enumerate(upper)}
            upper = [sum(1 << c for c in cols) for cols in combinations(range(n), j)]
            self.levels[j] = [
                itemgetter(*[index.get(t ^ 1 << c, -1) for t in upper], -1) for c in range(n)
            ]
        self.spans = _SpanTable(n - 1)


def _partitions(n: int, most: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most ``most``, largest part first."""
    if n == 0:
        yield ()
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@cache
def _polya_count(r: int, m: int) -> int:
    """Number of r x m 0/1 matrices up to row and column permutations.

    Burnside over S_r x S_m: a pair of permutations with cycle lengths
    a_i and b_j fixes 2^(sum gcd(a_i, b_j)) matrices, and each pair of
    cycle types is summed once, times its number of pairs.  Cached, so
    the verdict's pricing of a shape and the sweep's class-count check
    compute it once.
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

    A tuple's key is the least, over the row orders that list the rows by
    weight, of its histogram of column codes (bit i of a code is the
    column's bit in row i), packed into one integer: an order maps code c
    to 1 << B * c', c' the code the order makes of c and B = m.bit_length()
    bits, room for a count up to m, so the key under it is the sum of its
    codes' images.  Every order's table holds the same 2^r powers, shared,
    not copies.  Weights survive column permutations, so the key is a
    class invariant, and tuples with one key are one class.  By canonical
    augmentation (McKay, 1998), a class's parent is the class of its rows
    less the one an order attaining the key puts last.  Up to column
    order, a representative's child is fixed by how many columns of each
    run, the columns sharing a code, the new row x sets: x sets the first
    t columns of every run, for every choice of the t, and weighs at least
    as much as every row.  A child is kept when some order attaining its
    key puts x last and no kept sibling has its key.  So each class comes
    once, only the kept children along the path to it wait on the stack,
    and a kept child of the last level is yielded at once.  Its
    stabilizer is the number of orders that reach its key, times the
    column orders that fix its codes, the factorial of each multiplicity
    among them: the class has r! m! / |Stab| tuples.
    """
    if not r:
        yield (), 1
    size = math.factorial(r) * math.factorial(m)
    # every row order of up to r rows as a map of column codes to their
    # histogram fields, each entry one of the shared powers
    powers = [1 << m.bit_length() * c for c in range(1 << r)]
    recode = {
        order: [
            powers[sum(((c >> p) & 1) << i for i, p in enumerate(order))] for c in range(1 << j)
        ].__getitem__
        for j in range(r + 1) for order in permutations(range(j))
    }
    spread = [[[((x >> c) & 1) << j for c in range(m)] for x in range(1 << m)] for j in range(r)]
    # row weights, which never fall along a tuple -> the field getters of
    # the orders by weight, those putting the last row last first
    orders: dict[tuple[int, ...], list] = {}

    stack = [((), [0] * m, ())] if r else []  # rows, codes, weights
    while stack:
        rows, codes, weights = stack.pop()
        j, least, kept = len(rows), max(weights, default=0), set()
        # the new rows, the first t columns of each run for every t, built as
        # lists: product()'s pool tuples would park on the interpreter's
        # tuple free lists, and peak memory grew with the classes walked
        xs = [0]
        for _, run in groupby(sorted(range(m), key=codes.__getitem__), codes.__getitem__):
            xs = [x + f for f in accumulate([1 << c for c in run], initial=0) for x in xs]
        for x in xs:
            if (w := x.bit_count()) < least:
                continue
            child = list(map(or_, codes, spread[j][x]))
            wx = weights + (w,)
            maps = orders.get(wx)
            if maps is None:
                blocks = [list(g) for _, g in groupby(range(j + 1), wx.__getitem__)]
                perms = sorted(product(*map(permutations, blocks)), key=lambda o: o[-1][-1] != j)
                maps = orders[wx] = [recode[sum(o, ())] for o in perms]
            keys = [sum(map(t, child)) for t in maps]
            key = min(keys)
            # one order in |last weight block| puts x last
            if key in keys[: len(maps) // wx.count(wx[-1])] and key not in kept:
                kept.add(key)
                if j + 1 < r:
                    stack.append((rows + (x,), child, wx))
                    continue
                fixed = math.prod(map(math.factorial, map(child.count, set(child))))
                yield rows + (x,), size // (keys.count(key) * fixed)


def _last_row_values(b: Sequence[int]) -> list[int]:
    """One selection's permanent for every last row, from its
    coefficients ``b``, b_j the minor on the selection less column j: the
    last row with free bits x gives sum(b) - 2 * (the sum of b[j + 1]
    over the bits j of x), and one doubling pass fills that for every x.
    A zero coefficient leaves the values as they are, so its half is a
    copy of them."""
    per = [sum(b)]
    for bj in b[1:]:
        bj *= 2
        per += [p - bj for p in per] if bj else per
    return per


def _sweep_block(tables: _SweepTables, block: Iterable[tuple[tuple[int, ...], int]]) -> tuple:
    """Scan every matrix of a stream of prefix classes.

    Each class is a representative prefix P of k - 2 free rows and its
    orbit size w.  Its leaves put every row of 2^(n-1) last rows below P,
    and each leaf stands for the w matrices its orbit gives, all with the
    same value and rank.  A leaf's value is the sum of |per| over its
    k-column selections, so a square leaf's value is its |per|.

    Each selection's permanent is linear in the last row's entries, with
    coefficient b_j the permanent of the (k-1) x (k-1) minor that omits
    column j, and each order-j minor of the first j rows is linear in turn
    in row j, with the order-(j-1) minors of the rows above as
    coefficients.  So every prefix row takes its minors by one Laplace step
    from those of the rows above it, read through the order's one getter
    table: the sum of its getters' outputs, the step of an all-ones row,
    less getter c's output doubled for each column c where the row has a
    -1.  The classes arrive depth first, and consecutive classes share
    parents, P less its last row.  A stack holds one entry for the empty
    permanent 1 and one per parent row after it, all-ones row first: the
    span id of the rows so far, and the all-ones vector and doubled drop
    vectors of the next step, formed once when the row is pushed.  Only
    the parent rows that differ from the previous class's are stepped and
    pushed, and each class takes its C(n,k-1) minors by the same step, one
    level deeper, along P's last row, which is not pushed.  A minor
    belongs to the n - k + 1 selections that hold its columns, and the
    order-k getters, zipped, give each selection its b_0..b_(n-1) off
    that list.  One doubling pass per selection gives every leaf's
    value.  A leaf's rank is 1 + dim(span of P), plus 1 when the last
    row lies outside that span, so the span table alone splits a class's
    last rows by rank: the span mask is the set of rank 1 + dim, its
    complement the set of rank 2 + dim.  Each class adds w times the size of each half of its
    split to the census as it is scanned, w * 2^(n-1) matrices in all, so
    the census sums to the orbit sum times 2^(n-1), and no other matrix
    count is kept.

    No leaf of a class is worth more than the sum of every |b_j| over the
    selections, which is n - k + 1 times the sum of the minors' |per|.
    When that is below the target of both ranks its leaves take
    (``tables.need``), no leaf can reach a bound, and the class builds no
    selection's b and skips its doubling passes: its sum of per^2 is
    exactly 2^(n-1) times the sum of every b_j^2, n - k + 1 times the
    minors' per^2, since the cross terms cancel over the last rows.  A
    valued class sums per^2 from its leaf values instead, so the
    second-moment check also covers the doubling passes, and takes its
    per-rank maxima over the two halves of its split.  A leaf equal to a
    target is always valued, so judged maxima and their leaves are exact.

    The minors of each order q = 1..k-1 in the block are ORed together,
    and each OR is checked against the Krauter-Seifter theorem (1983),
    lowest order first: the permanent of an order-q sign matrix is a
    multiple of 2^(q - floor(log2 q) - 1).

    Returns the sum of the weights, the weighted sum of per^2 over every
    selection, the weighted matrix count per rank, per rank the largest
    value seen with the leaves attaining it as free-row tuples, in scan
    order, and the number of classes.  A rank without a target sees only
    the classes valued for other ranks.
    """
    k, m = tables.k, tables.n - 1
    levels, spans, need = tables.levels, tables.spans, tables.need
    spread = tables.n - k + 1  # the selections holding each (k-1)-column set
    last_rows = (1 << (1 << m)) - 1
    best = [-1] * (k + 1)
    reps: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    census = [0] * (k + 1)
    ored = [0] * k  # per order q, the OR of every order-q minor
    orbits = squares = classes = 0

    def lift(minors: list[int], q: int) -> tuple[list[int], list[list[int]]]:
        # the all-ones vector and doubled drop vectors of the step into order q
        outs = [g(minors) for g in levels[q]]
        return list(map(sum, zip(*outs))), [[v + v for v in out] for out in outs[1:]]

    up: tuple[int, ...] = ()  # the parent's rows, all-ones row first
    stack = [(0, *lift([1, 0], 1))]  # per row of ``up``, and one before: span id, next step
    for rows, w in block:
        prefix = (0,) + rows
        if prefix[:-1] != up:
            i = next((i for i, (a, b) in enumerate(zip(prefix, up)) if a != b), 0)
            del stack[i + 1 :]
            up = prefix[:-1]
        # the rows past the stack, the class's last prefix row at least
        for q, x in enumerate(prefix[len(stack) - 1 :], len(stack)):
            sid, mz, drops = stack[-1]
            sid = spans.child(sid, x)
            while x:
                low = x & -x
                mz = list(map(sub, mz, drops[low.bit_length() - 1]))
                x ^= low
            ored[q] = reduce(or_, mz, ored[q])
            if q < k - 1:
                stack.append((sid, *lift(mz, q + 1)))
        orbits += w
        classes += 1
        dim, inside = spans.dim[sid], spans.mask[sid]
        held = w * inside.bit_count()  # the weighted last rows inside the span
        census[1 + dim] += held
        census[2 + dim] += (w << m) - held
        if spread * sum(map(abs, mz)) < need[dim]:
            squares += w * spread * sum(map(mul, mz, mz)) << m
            continue
        vals: list[int] = []
        sq = 0
        # each selection's b_0..b_(n-1), the closing entry left out
        for b in list(zip(*[g(mz) for g in levels[k]]))[:-1]:
            per = _last_row_values(b)
            sq += sum(map(mul, per, per))
            vals = list(map(add, vals, map(abs, per))) if vals else list(map(abs, per))
        squares += w * sq
        top = max(vals)
        # the last rows by rank, as bit sets over x
        for r, bits in (1 + dim, inside), (2 + dim, last_rows ^ inside):
            if top < best[r]:
                continue
            mx = max((v for x, v in enumerate(vals) if (bits >> x) & 1), default=-1)
            if mx > best[r]:
                best[r], reps[r] = mx, []
            if mx == best[r]:
                reps[r] += [rows + (x,) for x, v in enumerate(vals) if v == mx and (bits >> x) & 1]
    for q in range(1, k):
        floor = q - q.bit_length()
        if ored[q] & ((1 << floor) - 1):
            raise RuntimeError(
                f"minors are permanents of order {q}, but not all are multiples of 2^{floor}"
                f" (their OR is {ored[q]})"
            )
    stats = {r: (best[r], reps[r]) for r in range(1, k + 1) if best[r] >= 0}
    return orbits, squares, census, stats, classes


# The normalized matrices of order n by rank, 0 to n, each row summing to
# 2^((n-1)^2).  Rank n holds the nonsingular ones, A055165(n - 1), the
# number of nonsingular (n-1) x (n-1) 0/1 matrices
# (https://oeis.org/A055165).  Orders 2-6 are this kernel's census, the
# same under two class generators; order 7 was computed twice, by a
# prototype sweep and by this kernel, and order 8 three times, by two
# generation paths.  No row was read from the OEIS entry.  The budget
# refuses orders 7 and 8, so only a direct census check or a sweep run
# past the budget reaches them.
_CENSUS = {
    2: (0, 1, 1),
    3: (0, 1, 9, 6),
    4: (0, 1, 49, 288, 174),
    5: (0, 1, 225, 6_750, 36_000, 22_560),
    6: (0, 1, 961, 118_800, 3_159_750, 17_760_600, 12_514_320),
    7: (0, 1, 3_969, 1_807_806, 190_071_000, 5_295_204_600, 34_395_777_360, 28_836_612_000),
    8: (
        0, 1, 16_129, 25_316_928, 9_271_660_734, 1_001_080_231_200, 32_307_576_315_840,
        259_286_329_895_040, 270_345_669_985_440,
    ),
}


def _check_census(k: int, n: int, census: list[int]) -> None:
    """Raise unless the per-rank matrix counts of a k x n sweep meet the
    laws that hold whatever the permanents are, naming the lowest rank
    off: every rank of a square order that ``_CENSUS`` pins, and ranks 1
    and 2, in closed form, of any other shape, wide ones included."""
    laws = {1: 1, 2: ((1 << (k - 1)) - 1) * ((1 << (n - 1)) - 1)}
    if k == n and n in _CENSUS:
        laws = dict(enumerate(_CENSUS[n]))
    for r, want in laws.items():
        if census[r] != want:
            raise RuntimeError(f"rank census: rank {r} holds {census[r]} matrices, not {want}")


def _sweep(
    k: int, n: int, targets: dict[int, int] | None = None
) -> tuple[int, dict[int, tuple[int, list]]]:
    """Sweep every k x n matrix with all-ones first row and column.

    The prefix classes stream from their generator into one block scan,
    and none is kept.  After it the class count against the Polya count,
    the orbit sum, the second moment and the rank census are checked
    exactly.  Returns the matrix count, the orbit sum times the 2^(n-1)
    last rows, and, per rank, the largest value with the matrices
    attaining it: exact for a rank that ``targets`` names whenever it
    reaches its target, and for every rank without ``targets``.
    """
    depth, m = k - 2, n - 1
    tables, gen = _SweepTables(k, n, targets), _prefix_classes(depth, m)
    orbits, squares, census, stats, classes = _sweep_block(tables, gen)
    polya = _polya_count(depth, m)
    if classes != polya:
        raise RuntimeError(f"generated {classes} prefix classes, the Polya count is {polya}")
    if orbits != 1 << (depth * m):
        raise RuntimeError(f"prefix orbits hold {orbits} prefixes, not 2^{depth * m}")
    scanned = orbits << m  # every prefix takes each of the 2^(n-1) last rows
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
    got, got_rank = mper(a), rank(a)
    if (got, got_rank) != (value, r):
        raise RuntimeError(
            f"sweep kernel fault: it gives value {value} and rank {r}, the oracles"
            f" give {got} and rank {got_rank}:\n" + format_matrix_text(a)
        )


def _strata(k: int, n: int) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """The judged rank strata of shape (k, n): every rank of a square
    shape, full row rank of a wide one.  Each maps to its bound, the
    maximum the sweep must find, and the sizes s of the D_(n,k,s) orbits
    that must attain it.

    Every rank r has one bound, mper D_(n,k,r-1), read off the compiled
    oracle.  On a square shape that is |per D_(n,r-1)|, and per D_(n,j)
    is nonnegative for every j < n, so it equals the ``d_family``
    recurrence's per-rank bound, which the tests check it against."""
    strata = {}
    for r in range(1, n + 1) if k == n else (k,):
        bound = mper(d_matrix(n, k, r - 1))
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


def verify_properties(seed: int = 0, samples: int = 100_000) -> VerifyReport:
    """Run the property suite of ``props``, seeded and small-exhaustive.

    Deterministic given ``seed``; ``samples`` sets the sampled volume and
    the derived per-check allocations.  Raises PropertyFailure naming the
    violated invariant together with the offending input.
    """
    if samples <= 0:
        raise RangeError(f"sample count must be positive, got {samples}")
    t0 = time.monotonic()
    checks = props.run(seed, samples)
    return VerifyReport(
        n=0,
        rows=(),
        scanned=sum(cases for _, cases in checks),
        seconds=round(time.monotonic() - t0, 3),
        checks=checks,
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
    text = _encode(*_report_table(report), fmt)  # a bad format raises before the file opens
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
