"""Exact permanent evaluation: permutation-sum oracle grouped by column
set and compiled once per shape into one straight-line function, Glynn's
formula as one C-level product chain over cached per-word row-sum
vectors, rectangular extension, mper, and generalized Laplace
expansion.  The two evaluators share no code, so each checks the other;
the compiled oracle is the faster of the two at orders 2-12, and it alone
values the rectangular sums and the Laplace expansion.  The oracle over
k rows of n columns values every k-column selection in one call, so a
rectangular sum is one call and a Laplace expansion two.

All arithmetic is exact integer arithmetic; the shape budget keeps every
value inside signed 64-bit range (|per| <= 12! for square inputs).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from operator import mul

from .errors import ShapeError
from .sign_matrix import MAX_ROWS, SignMatrix, _check_index_set

__all__ = [
    "permanent_naive",
    "permanent_ryser",
    "permanent_rect",
    "mper",
    "laplace_expand",
]


def permanent_naive(a: SignMatrix) -> int:
    """Sum over all permutations of the row-entry products (ground-truth oracle).

    The sum is grouped by the set of columns the first rows use: ``p[S]``
    sums the entry products of every bijection from rows 1..|S| onto the
    column set S, so p[S] = sum over j in S of a[|S|][j] * p[S - {j}].
    That is Laplace expansion along the rows, memoized by used-column set:
    n * 2^(n-1) signed additions instead of n * n! multiplications, with
    no row sums, signings or vector cache in common with
    ``permanent_ryser``.  Restricted to rows <= 12.

    The recurrence runs as one straight-line function per order,
    ``_naive_code(n, n)``, compiled from ``_naive_source(n, n)`` the first
    time the order is evaluated and cached for good, so no Python loop
    runs per column set.  Compile time and memory grow with 2^n.
    Measured in fresh processes (Python 3.11, shared 2-vCPU VM): orders
    1-8 compile in about 9 ms together, with a 1.5 MB tracemalloc peak,
    and keep 0.12 MB; order 12 (4,096 assignments, 24,576 terms, 335 KB
    of bytecode) compiles in 115-140 ms, with a 28.5 MB peak, and keeps
    1.85 MB, the compiled function alone.  A fresh process's first
    order-12 call takes 110-130 ms and peaks at 47 MB RSS, and later
    calls take 0.9 ms, against 13-22 ms, 18 MB and 2.0-2.9 ms when a loop
    walked a cached per-order table of column-set successors.
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    return _naive_code(a.rows, a.rows)(a.words)[0]


def _naive_source(k: int, n: int) -> str:
    """The source of the compiled oracle for k rows of n columns.

    It unpacks row r's word into the +-1 locals ``a{r}_{j}`` from
    ``_entries(n)``, then assigns ``p{S}`` for every nonempty set S of at
    most k columns in numeric order, the sum of ``a{|S|-1}_{j}*p{S - {j}}``
    over the columns j of S (``a0_{j}`` alone for S = {j}).  Every
    S - {j} precedes S numerically, so each term reads a value already
    assigned.  It returns the list of every k-column set's value, the
    permanent of that column selection, in descending numeric order of
    the sets: for k = n the permanent alone, and for k = n - 1 entry j
    is the minor without column j + 1.  A list, not a tuple: CPython 3.11
    keeps every freed 20-entry tuple on its free list and never reuses
    it, so the C(6,3) = 20 values of each 3 x 6 call would pile up until
    a full collection.  It is read once, to compile, and not kept.
    """
    rows = range(k)
    lines = [
        "def naive(words, e=e):",
        "    " + "".join(f"w{r}, " for r in rows) + "= words",
        *("    " + "".join(f"a{r}_{j}, " for j in range(n)) + f"= e[w{r}]" for r in rows),
    ]
    for s in range(1, 1 << n):
        r = s.bit_count() - 1
        if r < k:
            terms = [
                f"a{r}_{j}*p{s ^ 1 << j}" if r else f"a0_{j}" for j in range(n) if (s >> j) & 1
            ]
            lines.append(f"    p{s} = " + " + ".join(terms))
    full = [f"p{s}" for s in range((1 << n) - 1, 0, -1) if s.bit_count() == k]
    lines.append("    return [" + ", ".join(full) + "]")
    return "\n".join(lines) + "\n"


@functools.cache
def _naive_code(k: int, n: int) -> Callable[[tuple[int, ...]], list[int]]:
    """Compile ``_naive_source(k, n)`` and return its function of the row words."""
    namespace = {"e": _entries(n)}
    exec(compile(_naive_source(k, n), f"<permanent_naive {k}x{n}>", "exec"), namespace)
    return namespace["naive"]


@functools.cache
def _entries(n: int) -> tuple[tuple[int, ...], ...]:
    """``_entries(n)[w]``: the +-1 entries of row word w at order n, by column."""
    return tuple(tuple(-1 if (w >> j) & 1 else 1 for j in range(n)) for w in range(1 << n))


def permanent_ryser(a: SignMatrix) -> int:
    """Glynn's formula over the row words, the evaluator that checks the
    compiled oracle (the name is kept from the Ryser evaluator it
    replaced, for every caller and the CLI).

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

    It is not the fast path: at every order 2-12 it is slower than the
    compiled ``permanent_naive`` (``tools/layer_us.py``, medians of 4
    runs: 5.0 against 2.2 us at order 5, 37 against 30 us at order 8,
    1.8 against 1.03 ms at order 12).

    The shape check is all this wrapper adds: the sum runs in
    ``_glynn(n, words)``, which callers holding bare row words, such as
    the property suite's sampled comparison, call directly.
    """
    if not a.is_square:
        raise ShapeError(f"permanent of a {a.rows}x{a.cols} matrix is undefined")
    return _glynn(a.rows, a.words)


def _glynn(n: int, words: tuple[int, ...]) -> int:
    """Glynn's sum over the n row words of an n x n matrix, as
    ``permanent_ryser`` describes it; raises RuntimeError if the sum is
    not a multiple of 2^(n-1)."""
    vectors = _vectors[n]
    chain = _signs(n)
    for w in words:
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


@functools.cache
def _signs(n: int) -> tuple[int, ...]:
    """``(-1)^|d|`` for every column signing d < 2^(n-1)."""
    return tuple(-1 if d.bit_count() & 1 else 1 for d in range(1 << (n - 1)))


def permanent_rect(a: SignMatrix) -> int:
    """Rectangular permanent: sum of square permanents over all column selections.

    For a square input this is a single term, the ordinary permanent.  One
    call of the compiled oracle ``_naive_code(k, n)`` values every
    selection.
    """
    return sum(_naive_code(a.rows, a.cols)(a.words))


def mper(a: SignMatrix) -> int:
    """Sum of |permanent| over all maximal square column selections.

    Nonnegative, and bounds |permanent_rect| from above; equal to the square
    |permanent| when the input is square.  One call of the compiled oracle
    ``_naive_code(k, n)`` values every selection, and the shape's first
    call compiles it (see ``permanent_naive``), with a cost that grows with
    2^n.  Measured in fresh processes of ``permax per --method mper`` on
    one uniform matrix (Python 3.11, shared 2-vCPU VM): (8,12) takes
    0.15-0.24 s with a 45 MB RSS peak, (6,16) 0.61-0.64 s with 133 MB and
    (12,16) 3.0-3.7 s with 672 MB, against 0.07-0.11 s, 0.17-0.24 s and
    1.7-2.5 s, each at 14-16 MB, when Glynn valued each selection.  Once
    compiled, a call takes 0.7 ms at (8,12) and 32 ms at (12,16), against
    30 ms and 1.95 s with Glynn.
    """
    return sum(map(abs, _naive_code(a.rows, a.cols)(a.words)))


def laplace_expand(a: SignMatrix, beta) -> int:
    """Generalized Laplace expansion fixing the row set beta.

    Sums, over all column subsets alpha with |alpha| = |beta|, the product
    of the permanent on rows beta / columns alpha with the permanent of the
    complementary submatrix.  Equals the plain permanent for every valid beta.

    One oracle call over the rows beta values every alpha, and one over
    the other rows every complement, each in descending numeric order of
    its column sets; complementing sets of one size reverses that order,
    so the second list, reversed, pairs with the first.
    """
    if not a.is_square:
        raise ShapeError(f"Laplace expansion needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    b = _check_index_set(beta, n)
    if len(b) >= n:
        raise ShapeError(f"row set {b} must be a proper subset of 1..{n}")
    # lists, not tuple(genexpr): a generator has no length, so tuple()
    # would allocate 10 slots and shrink them, and CPython 3.11 parks up
    # to 2,000 of the shrunk tuples per size on its free list
    top = _naive_code(len(b), n)([a.words[i - 1] for i in b])
    rest = _naive_code(n - len(b), n)([w for i, w in enumerate(a.words, 1) if i not in b])
    return sum(map(mul, top, reversed(rest)))
