"""Exact integer rank against a Fraction-elimination reference."""

import random
from fractions import Fraction

import pytest

from permax import SignMatrix, apply, d_matrix, make_matrix, p_matrix, q_matrix, rank
from permax.exact_rank import _rank_words


def reference_rank(a):
    """Plain Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in a.row_signs(i)] for i in range(1, a.rows + 1)]
    r = 0
    for c in range(a.cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            for j in range(c, a.cols):
                m[i][j] -= f * m[r][j]
        r += 1
        if r == len(m):
            break
    return r


def test_near_identity_ranks():
    for n in range(2, 8):
        for l in range(0, n):
            assert rank(d_matrix(n, n, l)) == l + 1
    for n in range(3, 8):
        assert rank(d_matrix(n, n, n)) == n
    assert rank(d_matrix(2, 2, 2)) == 1  # the two rows are proportional


def test_two_negative_per_line_ranks():
    # odd orders nonsingular, even orders drop rank
    assert rank(q_matrix(3)) == 3
    assert rank(q_matrix(5)) == 5
    assert rank(q_matrix(7)) == 7
    assert rank(q_matrix(4)) == 2
    assert rank(q_matrix(6)) == 5


def test_template_ranks():
    assert rank(p_matrix(1)) == 6
    assert rank(p_matrix(2)) == 5


def test_rank_one_patterns():
    assert rank(make_matrix([1] * 12, 3, 4)) == 1
    a = make_matrix([1, -1, 1, -1, -1, 1, -1, 1], 2, 4)  # second row = -first
    assert rank(a) == 1


def test_matches_reference_on_random_matrices():
    rng = random.Random(23)
    for _ in range(300):
        rows = rng.randint(1, 8)
        cols = rng.randint(rows, 10)
        a = make_matrix([rng.choice((1, -1)) for _ in range(rows * cols)], rows, cols)
        assert rank(a) == reference_rank(a)


def test_rank_is_transform_invariant():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = make_matrix([rng.choice((1, -1)) for _ in range(n * n)], n, n)
        r = rank(a)
        steps = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.choice(("negR", "negC", "swapR", "swapC", "T"))
            if kind == "T":
                steps.append(("T",))
            elif kind in ("negR", "negC"):
                steps.append((kind, rng.randint(1, n)))
            else:
                steps.append((kind, rng.randint(1, n), rng.randint(1, n)))
        assert rank(apply(a, steps)) == r


# every row count 1..12 with its square shape, the next width, a middle
# width and the widest, 16 columns
SHAPES = sorted({(k, n) for k in range(1, 13) for n in (k, k + 1, (k + 16) // 2, 16)})


def assert_rank_matches_reference(a):
    want = reference_rank(a)
    assert rank(a) == want, a
    # props hands the word-level core lists of row words
    assert _rank_words(a.cols, list(a.words)) == want, a
    return want


@pytest.mark.parametrize("k,n", SHAPES, ids=[f"{k}x{n}" for k, n in SHAPES])
def test_rank_words_matches_reference_on_uniform_matrices(k, n):
    rng = random.Random(k * 100 + n)
    for _ in range(6):
        assert_rank_matches_reference(SignMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))


@pytest.mark.parametrize("k,n", SHAPES, ids=[f"{k}x{n}" for k, n in SHAPES])
def test_rank_words_matches_reference_on_rank_deficient_matrices(k, n):
    # uniform draws are almost always of full rank, so draw matrices of
    # known deficiency: rows from three words and their complements (at
    # most two distinct rows once normalized), and columns that copy or
    # negate m < k base columns, whose rows stay distinct and
    # take the elimination
    rng = random.Random(k * 100 + n + 1)
    full = (1 << n) - 1
    for _ in range(6):
        three = [rng.getrandbits(n) for _ in range(3)]
        words = tuple(rng.choice(three) ^ rng.choice((0, full)) for _ in range(k))
        assert assert_rank_matches_reference(SignMatrix(k, n, words)) <= 3
    if k == 1:
        return
    for _ in range(6):
        m = rng.randint(1, k - 1)
        base = [rng.getrandbits(k) for _ in range(m)]
        cols = [rng.choice(base) ^ rng.choice((0, (1 << k) - 1)) for _ in range(n)]
        words = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(k))
        assert assert_rank_matches_reference(SignMatrix(k, n, words)) <= m
