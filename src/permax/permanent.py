"""Exact permanent evaluation: permutation-sum oracle grouped by column
set, inclusion-exclusion fast path, rectangular extension, mper, and
generalized Laplace expansion.

All arithmetic is exact integer arithmetic; the shape budget keeps every
value inside signed 64-bit range (|per| <= 12! for square inputs).
"""

from __future__ import annotations

import itertools

from .errors import ShapeError
from .sign_matrix import SignMatrix, check_index_set, submatrix_delete, submatrix_select

__all__ = [
    "permanent_naive",
    "permanent_ryser",
    "permanent_rect",
    "mper",
    "laplace_expand",
]

_NAIVE_MAX = 10


def permanent_naive(a: SignMatrix) -> int:
    """Sum over all permutations of the row-entry products (ground-truth oracle).

    The sum is grouped by the set of columns the first rows use: ``part[S]``
    sums the entry products of every bijection from rows 1..|S| onto the
    column set S, and extending by row |S|+1 into a free column j adds
    +-part[S] to ``part[S | 1 << j]``.  That is Laplace expansion along the
    rows, memoized by used-column set: n * 2^(n-1) additions instead of
    n * n! multiplications, with no row sums or subset signs in common with
    ``permanent_ryser``.  Restricted to rows <= 10.
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    n = a.rows
    if n > _NAIVE_MAX:
        raise ShapeError(f"naive oracle limited to order {_NAIVE_MAX}, got {n}")
    words = a.words
    full = (1 << n) - 1
    part = [0] * (full + 1)
    part[0] = 1
    # every S - {j} precedes S numerically, so part[S] is complete when reached
    for s in range(full):
        v = part[s]
        if not v:
            continue
        w = words[s.bit_count()]
        free = full ^ s
        while free:
            bit = free & -free
            free ^= bit
            part[s | bit] += -v if w & bit else v
    return part[full]


def permanent_ryser(a: SignMatrix) -> int:
    """Inclusion-exclusion evaluation over column subsets in Gray-code order.

    Maintains one partial row-sum vector; each Gray step toggles a single
    column in or out, so the work per subset is O(rows).
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    n = a.rows
    words = a.words
    sums = [0] * n
    total = 0
    sign = 1  # becomes (-1)^|S| after each toggle; |S| changes by one per step
    prev = 0
    for s in range(1, 1 << n):
        gray = s ^ (s >> 1)
        diff = gray ^ prev
        j = diff.bit_length() - 1
        delta = 1 if gray & diff else -1  # column j enters or leaves the subset
        for i in range(n):
            sums[i] += delta * (-1 if (words[i] >> j) & 1 else 1)
        sign = -sign
        prev = gray
        p = 1
        for v in sums:
            p *= v
        total += sign * p
    # accumulated sum is over (-1)^|S|; the formula carries a global (-1)^n
    return total if n % 2 == 0 else -total


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
    b = check_index_set(beta, n)
    if len(b) >= n:
        raise ShapeError(f"row set {b} must be a proper subset of 1..{n}")
    total = 0
    for alpha in itertools.combinations(range(1, n + 1), len(b)):
        top = permanent_ryser(submatrix_select(a, b, alpha))
        if top == 0:
            continue
        total += top * permanent_ryser(submatrix_delete(a, b, alpha))
    return total
