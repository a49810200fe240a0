"""Rank vectors of column selections, and the prefix-sum order."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from permax import (
    RankError,
    ShapeError,
    SignMatrix,
    check_min_law,
    d_matrix,
    majorize_leq,
    make_matrix,
    q_matrix,
    rank,
    rank_vector,
)


def random_wide(rng, k, n):
    return make_matrix([rng.choice((1, -1)) for _ in range(k * n)], k, n)


@functools.cache
def fraction_rank(rows):
    """Rank of a tuple of +-1 row tuples by plain Gaussian elimination over
    exact rationals; cached, as the exhaustive shapes meet each small
    selection many times."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            for j in range(c, len(m[0])):
                m[i][j] -= f * m[r][j]
        r += 1
        if r == len(m):
            break
    return r


def selection_tally(a):
    """Rank vector by the independent route: every selection's +-1
    columns ranked by ``fraction_rank``, no code shared with
    ``rank_vector``."""
    columns = list(zip(*[a.row_signs(i) for i in range(1, a.rows + 1)]))
    counts = [0] * a.rows
    for cols in itertools.combinations(columns, a.rows):
        counts[a.rows - fraction_rank(cols)] += 1
    return tuple(counts)


@pytest.mark.parametrize("k, n", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_rank_vector_matches_selection_tally_exhaustively(k, n):
    for i in range(1 << (k * n)):
        words = tuple((i >> (r * n)) & ((1 << n) - 1) for r in range(k))
        a = SignMatrix(k, n, words)
        assert rank_vector(a) == selection_tally(a), words


def test_rank_vector_matches_selection_tally_sampled():
    rng = random.Random(53)
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(k, 8)
        a = random_wide(rng, k, n)
        assert rank_vector(a) == selection_tally(a), a
    # k = 5..12: rows each one of two words or their complements, rank at
    # most 2 with rows that repeat and negate one another, and one
    # uniform matrix with a column to spare
    for k in range(5, 13):
        for n in range(k, k + 3):
            full = (1 << n) - 1
            base = [rng.getrandbits(n) for _ in range(2)]
            a = SignMatrix(k, n, tuple(rng.choice(base) ^ rng.choice((0, full)) for _ in range(k)))
            assert rank_vector(a) == selection_tally(a), a
        a = random_wide(rng, k, k + 1)
        assert rank_vector(a) == selection_tally(a), a


def test_rank_vector_values():
    assert rank_vector(q_matrix(3)) == (1, 0, 0)
    assert rank_vector(make_matrix([1] * 8, 2, 4)) == (0, 6)
    assert rank_vector(d_matrix(5, 4, 3)) == (2, 3, 0, 0)


def test_rank_vector_total_is_family_size():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randint(2, 4)
        n = rng.randint(k, 7)
        a = random_wide(rng, k, n)
        vec = rank_vector(a)
        assert len(vec) == k
        assert sum(vec) == math.comb(n, k)


def test_majorize_order():
    assert majorize_leq((0, 2), (1, 1))
    assert not majorize_leq((1, 1), (0, 2))
    x = (2, 3, 0)
    assert majorize_leq(x, x)
    with pytest.raises(ShapeError):
        majorize_leq((1,), (1, 0))


def test_majorize_is_a_partial_order():
    rng = random.Random(43)
    vectors = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(30)]
    for x in vectors:
        assert majorize_leq(x, x)
    for x, y in itertools.product(vectors, repeat=2):
        if sum(x) == sum(y) and majorize_leq(x, y) and majorize_leq(y, x):
            assert x == y  # antisymmetric on equal totals
    for x, y, z in itertools.islice(itertools.product(vectors, repeat=3), 2000):
        if majorize_leq(x, y) and majorize_leq(y, z):
            assert majorize_leq(x, z)


def test_min_law_trivial_cases():
    assert check_min_law(d_matrix(6, 3, 2))
    assert check_min_law(q_matrix(3))  # full-rank square: both vectors (1,0,0)
    with pytest.raises(RankError, match="^no 2 columns of rank 2; the minimality law needs full row rank$"):
        check_min_law(make_matrix([1] * 8, 2, 4))


# (k, n): full-row-rank representatives, and how many of them have the
# rank vector of D_(n,k,k-1) itself
MIN_LAW_SHAPES = [(3, 5, 105, 30), (3, 6, 465, 45), (3, 7, 1953, 63), (4, 6, 4405, 580)]


@pytest.mark.parametrize(
    "k, n, full, at_min", MIN_LAW_SHAPES, ids=[f"{k}x{n}" for k, n, _, _ in MIN_LAW_SHAPES]
)
def test_min_law_exhaustive(k, n, full, at_min):
    # the sweep's representatives: first row and column all ones, free
    # rows a non-decreasing sequence; rank vectors are invariant under
    # row order and line negation, so these cover every k x n matrix
    want_min = rank_vector(d_matrix(n, k, k - 1))
    scanned = equal = 0
    for rows in itertools.combinations_with_replacement(range(1 << (n - 1)), k - 1):
        a = SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows))
        if rank(a) < k:
            continue
        vec = rank_vector(a)
        assert majorize_leq(want_min, vec), a
        scanned += 1
        equal += vec == want_min
    assert (scanned, equal) == (full, at_min)
