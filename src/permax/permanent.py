"""Exact permanent evaluation: permutation-sum oracle grouped by column
set, Glynn's formula as one C-level product chain over cached per-word
row-sum vectors as the fast path, rectangular extension, mper, and
generalized Laplace expansion.

All arithmetic is exact integer arithmetic; the shape budget keeps every
value inside signed 64-bit range (|per| <= 12! for square inputs).
"""

from __future__ import annotations

import functools
import itertools
from operator import mul
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


def _normalized_permanents(n: int) -> Iterator[tuple[int, int]]:
    """Yield ``(i, per)`` for every matrix of ``enumerate_normalized(n)``,
    i being its index in that stream, prefix by prefix.

    Matrix i has the all-ones first row and below it free rows of n - 1
    bits read from i lowest first, so the last row holds the top n - 1
    bits.  The 2^(n-1) matrices that share their first n - 1 rows form one
    block: the Glynn chain over those rows, sign vector included, is
    formed once per block, and each last row costs one product sum with
    its cached row vector.  No ``SignMatrix`` is built, and the values
    stream block by block.
    """
    free = n - 1
    mask, shift = (1 << free) - 1, (n - 2) * free
    vectors = _vectors[n]

    def vector(w: int) -> tuple[int, ...]:
        return vectors.get(w) or _row_vector(n, w)

    head = list(map(mul, _signs(n), vector(0)))
    lasts = [(x << shift, vector(x << 1)) for x in range(1 << free)]
    for p in range(1 << shift):
        chain = head
        for r in range(n - 2):
            chain = map(mul, chain, vector(((p >> (r * free)) & mask) << 1))
        # a list: tuple() over a map resizes, and the freed tuples would
        # pile up in the interpreter's tuple free lists
        prefix = list(chain)
        for top, v in lasts:
            total = sum(map(mul, prefix, v))
            if total & mask:
                raise RuntimeError(f"Glynn sum {total} is not a multiple of 2^{free}")
            yield p | top, total >> free


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
