"""Exact permanent evaluation: permutation-sum oracle grouped by column
set, Glynn's formula as one C-level product chain over cached per-word
row-sum vectors as the fast path, rectangular extension, mper, and
generalized Laplace expansion.  The normalized matrices of one order
stream block by block: the last-row minors' permanents of each block
come off one Glynn chain over its other rows, and one doubling pass over
them values the block's 2^(n-1) last rows.

All arithmetic is exact integer arithmetic; the shape budget keeps every
value inside signed 64-bit range (|per| <= 12! for square inputs).
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter, mul, or_
from typing import Iterator

from .errors import ShapeError
from .sign_matrix import MAX_ROWS, SignMatrix, _check_index_set, submatrix_select

__all__ = [
    "permanent_naive",
    "permanent_ryser",
    "permanent_rect",
    "mper",
    "laplace_expand",
]


def permanent_naive(a: SignMatrix) -> int:
    """Sum over all permutations of the row-entry products (ground-truth oracle).

    The sum is grouped by the set of columns the first rows use: ``part[S]``
    sums the entry products of every bijection from rows 1..|S| onto the
    column set S, and extending by row |S|+1 into a free column j adds
    +-part[S] to ``part[S | 1 << j]``.  That is Laplace expansion along the
    rows, memoized by used-column set: n * 2^(n-1) additions instead of
    n * n! multiplications, with no row sums or subset signs in common with
    ``permanent_ryser``.  Restricted to rows <= 12.

    The loop follows a per-order plan, ``_naive_plan(n)``, built lazily
    the first time an order is evaluated and cached for good: for every
    proper set S its size and its (column bit, S | bit) successors, so no
    popcount or free-bit extraction runs per matrix.  A plan holds
    n * 2^(n-1) pairs; by tracemalloc the plans of orders 1-8 take about
    0.14 MB together, the order-12 plan about 3.1 MB (24,576 pairs) and
    those of every order through 12 about 5.5 MB.
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    n = a.rows
    words = a.words
    part = [0] * (1 << n)
    part[0] = 1
    for s, r, succ in _naive_plan(n):
        v = part[s]
        if not v:
            continue
        w = words[r]
        for bit, t in succ:
            part[t] += -v if w & bit else v
    return part[-1]


@functools.cache
def _naive_plan(n: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """``(S, |S|, ((bit, S | bit) for each column bit not in S))`` for
    every proper column set S of order n in numeric order.

    Every S - {j} precedes S numerically, so ``permanent_naive`` has
    ``part[S]`` complete when it reaches S.
    """
    full = (1 << n) - 1
    return tuple(
        (s, s.bit_count(), tuple((1 << j, s | 1 << j) for j in range(n) if not (s >> j) & 1))
        for s in range(full)
    )


def permanent_ryser(a: SignMatrix) -> int:
    """Glynn's formula over the row words (the fast path; the name is kept
    from the Ryser evaluator it replaced, for every caller and the CLI).

    per(A) = 2^-(n-1) * sum over masks d of (-1)^|d| * prod_i (n - 2|w_i ^ d|),
    where d runs over the 2^(n-1) column signings that keep column n at +1
    and n - 2|w_i ^ d| is row i's signed sum.  Each row word's sums over
    all d form one cached vector, and one chain of ``map(mul, ...)`` over
    the sign vector and the row vectors forms the signed products, so no
    Python-level loop runs per signing.

    The vector cache holds at most 2^17 entries, 8 bytes each (1 MB):
    every word of every order up to 8 fits at once (43,690 entries), and
    at order 12, 2,048 entries a vector, it holds 64 words.  A fill that
    would pass the bound empties the cache first.
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    n = a.rows
    vectors = _vectors[n]
    chain = _signs(n)
    for w in a.words:
        chain = map(mul, chain, vectors.get(w) or _row_vector(n, w))
    total = sum(chain)
    if total & ((1 << (n - 1)) - 1):
        raise RuntimeError(f"Glynn sum {total} is not a multiple of 2^{n - 1}")
    return total >> (n - 1)


_VECTOR_ENTRIES = 1 << 17

# order n -> row word w -> (n - 2|w ^ d| for d < 2^(n-1))
_vectors: dict[int, dict[int, tuple[int, ...]]] = {n: {} for n in range(1, MAX_ROWS + 1)}


def _row_vector(n: int, w: int) -> tuple[int, ...]:
    """Build, cache and return row word w's signed sums at order n.

    One doubling pass fills them: d = 0 gives n - 2|w|, and setting bit j
    of d adds 2 when w has bit j and takes 2 away when it has not.
    """
    size = 1 << (n - 1)
    if size + sum(len(c) << (m - 1) for m, c in _vectors.items()) > _VECTOR_ENTRIES:
        for c in _vectors.values():
            c.clear()
    sums = [n - 2 * w.bit_count()]
    for j in range(n - 1):
        step = 2 if (w >> j) & 1 else -2
        sums += [s + step for s in sums]
    v = _vectors[n][w] = tuple(sums)
    return v


def _normalized_blocks(n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(p, b)`` for every block of ``enumerate_normalized(n)``.

    A block is the 2^(n-1) matrices that share their first n - 1 rows:
    the all-ones row and the free rows of n - 1 bits read from p lowest
    first.  Its matrix with last-row free bits x has index
    p | x << (n-2)(n-1) in that stream.  By Laplace expansion along the
    last row, each value is linear in that row's entries, and ``b[j]``,
    the coefficient of column j + 1, is the permanent of the
    (n-1) x (n-1) minor without the last row and column j + 1.

    With prefix[d] the Glynn chain over the first n - 1 rows, sign
    vector included, S its sum and a_j the last row's entries,
    per = 2^-(n-1) * sum over d of prefix[d] * sum_j a_j s_j(d), where
    s_j(d) is -1 when d negates column j + 1.  So b[n-1] = S / 2^(n-1),
    as no signing negates column n, and b[j] = (S - 2 * the sum of
    prefix[d] over the d with bit j) / 2^(n-1): one gather per column.
    Every numerator must be a multiple of 2^(n-1), or RuntimeError.  The
    chain grows along the prefix rows, row 0 changing fastest, so most
    blocks cost one product, with their row 0 vector.
    """
    free = n - 1
    mask, rows = (1 << free) - 1, n - 2
    vectors = _vectors[n]

    def vector(x: int) -> tuple[int, ...]:
        return vectors.get(x << 1) or _row_vector(n, x << 1)

    # a one-index itemgetter returns its item bare, so order 2 slices
    gathers = [
        itemgetter(*ds) if len(ds) > 1 else itemgetter(slice(1, 2))
        for ds in ([d for d in range(1 << free) if (d >> j) & 1] for j in range(free))
    ]
    # chains[t] has the top t prefix rows multiplied in.  Lists, not
    # tuples: tuple() over a map resizes, and the freed tuples would pile
    # up in the interpreter's tuple free lists
    chains = [list(map(mul, _signs(n), vector(0)))] + [[]] * rows
    for p in range(1 << rows * free):
        # rows 0 through the one holding p's lowest set bit changed
        low = ((p & -p).bit_length() - 1) // free if p else rows - 1
        for r in range(low, -1, -1):
            t = rows - r
            chains[t] = list(map(mul, chains[t - 1], vector((p >> r * free) & mask)))
        prefix = chains[rows]
        total = sum(prefix)
        nums = [total - 2 * sum(g(prefix)) for g in gathers] + [total]
        if functools.reduce(or_, nums) & mask:
            bad = next(v for v in nums if v & mask)
            raise RuntimeError(f"minor numerator {bad} of block {p} is not a multiple of 2^{free}")
        yield p, [v >> free for v in nums]


def _last_row_permanents(b: list[int]) -> list[int]:
    """The permanents of a block of ``_normalized_blocks``, indexed by the
    last row's free bits x, from its minors ``b``: column 1 holds +1 and
    bit j of x negates column j + 2, so the value is sum(b) minus twice
    the b[j + 1] over the bits j of x, one doubling pass over b."""
    per = [sum(b)]
    for bj in b[1:]:
        per += [v - 2 * bj for v in per]
    return per


@functools.cache
def _signs(n: int) -> tuple[int, ...]:
    """``(-1)^|d|`` for every column signing d < 2^(n-1)."""
    return tuple(-1 if d.bit_count() & 1 else 1 for d in range(1 << (n - 1)))


def permanent_rect(a: SignMatrix) -> int:
    """Rectangular permanent: sum of square permanents over all column selections.

    For a square input this is a single term, the ordinary permanent.
    """
    return _column_selection_sum(a, signed=True)


def mper(a: SignMatrix) -> int:
    """Sum of |permanent| over all maximal square column selections.

    Nonnegative, and bounds |permanent_rect| from above; equal to the square
    |permanent| when the input is square.
    """
    return _column_selection_sum(a, signed=False)


def _column_selection_sum(a: SignMatrix, *, signed: bool) -> int:
    k, n = a.rows, a.cols
    if k > n:
        raise ShapeError(f"{k}x{n} has more rows than columns")
    all_rows = range(1, k + 1)
    total = 0
    for cols in itertools.combinations(range(1, n + 1), k):
        p = permanent_ryser(submatrix_select(a, all_rows, cols))
        total += p if signed else abs(p)
    return total


def laplace_expand(a: SignMatrix, beta) -> int:
    """Generalized Laplace expansion fixing the row set beta.

    Sums, over all column subsets alpha with |alpha| = |beta|, the product
    of the permanent on rows beta / columns alpha with the permanent of the
    complementary submatrix.  Equals the plain permanent for every valid beta.
    """
    if not a.is_square:
        raise ShapeError(f"Laplace expansion needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    b = _check_index_set(beta, n)
    if len(b) >= n:
        raise ShapeError(f"row set {b} must be a proper subset of 1..{n}")
    lines = range(1, n + 1)
    rest = [i for i in lines if i not in b]
    total = 0
    for alpha in itertools.combinations(lines, len(b)):
        top = permanent_ryser(submatrix_select(a, b, alpha))
        if top == 0:
            continue
        others = [j for j in lines if j not in alpha]
        total += top * permanent_ryser(submatrix_select(a, rest, others))
    return total
