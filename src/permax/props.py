"""The property suite: seeded and small-exhaustive checks of the
evaluators, the transformation group and the rank-vector laws.

It shares no code with the exhaustive sweep in ``verifier``, and imports
nothing of it, so each can check the other.  The normalized matrices of
one order (all-ones first row and column) stream block by block: one
call of the compiled oracle of ``permanent_naive`` over a block's first
n - 1 rows gives its last-row minors' permanents, and one doubling pass
over them values the block's 2^(n-1) last rows.  The sampled orders
compare Glynn's sum with the compiled oracle on bare row words, through
each evaluator's word-level core, and build a matrix only to name one
on which they disagree.  The transform-invariance check runs on row
words too: ``sign_matrix._apply_words`` applies each drawn sequence and
its inverse, Glynn's core and ``exact_rank._rank_words`` value |per| and
rank before and after, and a matrix is built only to name a failure.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from operator import mul

from .errors import PropertyFailure, RankError, ShapeError
from .exact_rank import _rank_words, rank
from .permanent import _glynn, _naive_code, laplace_expand
from .rank_vectors import check_min_law
from .reduction import equivalent_to_d
from .sign_matrix import _STEP_ARITY, SignMatrix, _apply_words, format_matrix_text, invert_transforms

__all__ = ["enumerate_normalized"]


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


def _normalized_blocks(n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(p, b)`` for every block of ``enumerate_normalized(n)``.

    A block is the 2^(n-1) matrices that share their first n - 1 rows:
    the all-ones row and the free rows of n - 1 bits read from p lowest
    first.  Its matrix with last-row free bits x has index
    p | x << (n-2)(n-1) in that stream.  By Laplace expansion along the
    last row, each value is linear in that row's entries, and ``b[j]``,
    the coefficient of column j + 1, is the permanent of the
    (n-1) x (n-1) minor without the last row and column j + 1: the
    compiled oracle's n - 1 rows by n columns return exactly these.
    """
    evaluate = _naive_code(n - 1, n)
    # a free row's word: its n - 1 bits past column 1, which holds +1
    words = range(0, 1 << n, 2)
    # product varies its last factor fastest, and p its row 0
    for p, high in enumerate(itertools.product(words, repeat=n - 2)):
        yield p, evaluate((0, *high[::-1]))


def _last_row_permanents(b: list[int]) -> list[int]:
    """The permanents of a block of ``_normalized_blocks``, indexed by the
    last row's free bits x, from its minors ``b``: column 1 holds +1 and
    bit j of x negates column j + 2, so the value is sum(b) minus twice
    the b[j + 1] over the bits j of x, one doubling pass over b."""
    per = [sum(b)]
    for bj in b[1:]:
        per += [v - 2 * bj for v in per]
    return per


def _random_square(rng: random.Random, n: int) -> SignMatrix:
    return SignMatrix(n, n, tuple([rng.getrandbits(n) for _ in range(n)]))


def _sampled_words(rng: random.Random, n: int, count: int) -> Iterator[tuple[int, ...]]:
    """The row words of ``count`` successive ``_random_square(rng, n)``
    draws, from the same ``rng`` calls, with no matrix built."""
    bits = (n,) * n
    for _ in range(count):
        # not tuple(map(...)): map has no length, so tuple() would allocate
        # 10 slots and shrink them, and CPython 3.11 parks up to 2,000 of the
        # shrunk tuples on its free list, 0.16 MB at order 5
        yield (*map(rng.getrandbits, bits),)


def _first_disagreement(rng: random.Random, n: int, count: int) -> tuple[int, ...] | None:
    """Compare Glynn's sum with the compiled oracle on ``count`` sampled
    order-n matrices, on their row words, and return the words of the
    first on which they disagree, or None.  Each order's oracle is looked
    up once, and no matrix is built."""
    naive = _naive_code(n, n)
    for words in _sampled_words(rng, n, count):
        if _glynn(n, words) != naive(words)[0]:
            return words
    return None


def _random_wide(rng: random.Random, k: int, n: int) -> SignMatrix:
    while True:
        a = SignMatrix(k, n, tuple([rng.getrandbits(n) for _ in range(k)]))
        if rank(a) == k:
            return a


# the step kinds in table order, which fixes the draws
_STEP_KINDS = tuple(_STEP_ARITY)


def _random_transforms(rng: random.Random, n: int) -> tuple[tuple, ...]:
    steps: list[tuple] = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(_STEP_KINDS)
        steps.append((kind, *(rng.randint(1, n) for _ in range(_STEP_ARITY[kind]))))
    return tuple(steps)


def _transform_cases(rng: random.Random, count: int) -> Iterator[tuple[int, list[int], tuple]]:
    """``(n, words, steps)`` for ``count`` transform cases: an order n in
    2..6, the row words of ``_random_square(rng, n)`` and the steps of
    ``_random_transforms(rng, n)``, from the same ``rng`` calls, with no
    matrix built."""
    for _ in range(count):
        n = rng.randint(2, 6)
        words = [rng.getrandbits(n) for _ in range(n)]
        yield n, words, _random_transforms(rng, n)


def _first_transform_failure(rng: random.Random, count: int) -> tuple[str, list[int], tuple] | None:
    """Check ``count`` cases of ``_transform_cases`` on their row words:
    |per| (Glynn's core) and rank (``_rank_words``) must not change
    under the steps, and the inverse steps must restore the words.
    Return the violated check's name, the words and the steps of the
    first case that fails, or None."""
    for n, words, steps in _transform_cases(rng, count):
        moved = _apply_words(n, n, words, steps)
        if abs(_glynn(n, words)) != abs(_glynn(n, moved)):
            return "permanent transform invariance", words, steps
        if _rank_words(n, words) != _rank_words(n, moved):
            return "rank transform invariance", words, steps
        if _apply_words(n, n, moved, invert_transforms(steps)) != words:
            return "transform inversion", words, steps
    return None


# the wide shapes whose every full-row-rank matrix meets the minimality law, walked in full
_LAW_SHAPES = ((2, 3), (2, 4), (3, 4))


def run(seed: int, samples: int) -> tuple[tuple[str, int], ...]:
    """Run every check and return its name and case count, in order.

    Deterministic given ``seed``; ``samples`` sets the sampled volume and
    the derived per-check allocations.  Raises PropertyFailure naming the
    violated invariant together with the offending input.
    """
    rng = random.Random(seed)

    def fail(name: str, a: SignMatrix, detail: str = "") -> None:
        raise PropertyFailure(
            f"{name} violated{': ' + detail if detail else ''}\n"
            + format_matrix_text(a)
        )

    # one pass over the normalized slices of orders 2-5, block by block:
    # a block is the 2^(n-1) last rows under one prefix of rows, and its
    # values come from one doubling pass over its minors' permanents b_j,
    # which the compiled oracle of permanent_naive gives in one call over
    # the prefix.  Up to order 4 every value agrees with Glynn's sum, the
    # core of permanent_ryser, sharing no code with the oracle, and, at
    # order 4, is a multiple of 4 (the sampled orders 5-8 below compare
    # the two evaluators matrix by matrix); per^2 sums exactly to n! 2^((n-1)^2)
    # per slice; |per| is an orbit invariant, so the slices cover every
    # orbit of the total bound n!, attained on the all-ones orbit alone,
    # with (n-2)(n-1)! as the ceiling for everything else.  No value of a
    # block exceeds the sum of its |b_j|, so an order-5 block whose sum is
    # within the ceiling is counted unvalued, its per^2 summing to 2^(n-1) sum b_j^2 as the
    # cross terms cancel over the last rows: only the all-ones prefix's
    # block is valued there.  Glynn's core values each matrix on its row
    # words, and a matrix is built only to name a failure or for a value
    # over the ceiling.
    oracle = div4 = total = 0
    for order in (2, 3, 4, 5):
        top = math.factorial(order)
        rest = (order - 2) * math.factorial(order - 1)
        free = order - 1
        shift = (order - 2) * free
        squares = 0
        for p, b in _normalized_blocks(order):
            total += 1 << free
            if order < 5:
                prefix = _normalized(order, p, order - 1).words
            elif sum(map(abs, b)) <= rest:
                squares += sum(map(mul, b, b)) << free
                continue
            for x, v in enumerate(_last_row_permanents(b)):
                squares += v * v
                if order < 5:
                    words = (*prefix, x << 1)
                    if v != _glynn(order, words):
                        fail("permanent oracle agreement", SignMatrix(order, order, words))
                    oracle += 1
                    if order == 4:
                        if v % 4:
                            fail("order-4 divisibility by 4", SignMatrix(order, order, words))
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
        draws = samples * pct // 100
        words = _first_disagreement(rng, order, draws)
        if words is not None:
            fail("permanent oracle agreement", SignMatrix(order, order, words))
        oracle += draws
    checks = [("ryser_vs_naive", oracle), ("order4_divisibility", div4), ("total_bound", total)]

    # the oracle's expansion along one or two rows agrees with Glynn's direct value
    cases = max(1, samples // 100)
    for _ in range(cases):
        order = rng.randint(2, 6)
        a = _random_square(rng, order)
        width = 1 if order == 2 else rng.randint(1, 2)
        beta = sorted(rng.sample(range(1, order + 1), width))
        if laplace_expand(a, beta) != _glynn(order, a.words):
            fail("expansion consistency", a, f"rows {beta}")
    checks.append(("laplace_expansion", cases))

    # |per| and rank survive the transformation group, and sequences invert
    cases = max(1, samples // 10)
    failure = _first_transform_failure(rng, cases)
    if failure is not None:
        name, words, seq = failure
        fail(name, SignMatrix(len(words), len(words), words), f"under {seq}")
    checks.append(("transform_invariance", cases))

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
    checks.append(("rank_vector_laws", cases))
    return tuple(checks)
