"""Column-selection families, rank vectors, and the prefix-sum order."""

import itertools
import random

import pytest

from permax import (
    RankError,
    ShapeError,
    SignMatrix,
    SubmatrixFamily,
    check_min_law,
    d_matrix,
    family_rank_vector,
    k_family,
    majorize_leq,
    make_matrix,
    multiplicity_law,
    q_matrix,
    rank,
    rank_vector,
    replace_family,
    submatrix_select,
)


def random_wide(rng, k, n):
    return make_matrix([rng.choice((1, -1)) for _ in range(k * n)], k, n)


def random_full_rank(rng, k, n):
    while True:
        a = random_wide(rng, k, n)
        if rank(a) == k:
            return a


def test_k_family_membership():
    fam = k_family(make_matrix([1] * 6, 2, 3))
    assert len(fam.members) == 3
    assert all(fam.member(i) == make_matrix([1] * 4, 2, 2) for i in range(3))

    square = k_family(q_matrix(4))
    assert square.members == ((1, 2, 3, 4),)
    assert square.member(0) == q_matrix(4)

    assert len(k_family(d_matrix(5, 4, 3)).members) == 5


def selection_tally(a):
    """Rank vector by the independent route: one SignMatrix per selection,
    each ranked by ``rank``."""
    counts = [0] * a.rows
    for cols in itertools.combinations(range(1, a.cols + 1), a.rows):
        counts[a.rows - rank(submatrix_select(a, range(1, a.rows + 1), cols))] += 1
    return tuple(counts)


@pytest.mark.parametrize("k, n", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_rank_vector_matches_selection_tally_exhaustively(k, n):
    for i in range(1 << (k * n)):
        words = tuple((i >> (r * n)) & ((1 << n) - 1) for r in range(k))
        a = SignMatrix(k, n, words)
        assert family_rank_vector(k_family(a)) == selection_tally(a), words


def test_rank_vector_matches_selection_tally_sampled():
    rng = random.Random(53)
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(k, 8)
        a = random_wide(rng, k, n)
        assert family_rank_vector(k_family(a)) == selection_tally(a), a


def test_hand_built_family_rejects_bad_members():
    a = d_matrix(5, 3, 2)
    for bad in [(1, 2, 6), (0, 1, 2), (2, 1, 3), (1, 1, 2), (1.0, 2, 3), ()]:
        with pytest.raises(IndexError):
            family_rank_vector(SubmatrixFamily(a, ((1, 2, 3), bad)))
    with pytest.raises(ShapeError):
        family_rank_vector(SubmatrixFamily(a, ((1, 2),)))
    # members as lists are still index sets
    assert family_rank_vector(SubmatrixFamily(a, ([1, 2, 3], [3, 4, 5]))) == (1, 0, 1)


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
        assert sum(vec) == len(k_family(a).members)


def test_union_additivity():
    # splitting a family in two parts splits its vector additively
    rng = random.Random(37)
    for _ in range(25):
        a = random_wide(rng, 3, rng.randint(4, 6))
        fam = k_family(a)
        cut = rng.randint(1, len(fam.members) - 1)
        left = SubmatrixFamily(a, fam.members[:cut])
        right = SubmatrixFamily(a, fam.members[cut:])
        combined = tuple(
            x + y for x, y in zip(family_rank_vector(left), family_rank_vector(right))
        )
        assert combined == rank_vector(a)


def test_replace_family_near_identity():
    # l members of rank l and k-l members of rank l+1
    ones = [1, 1, 1, 1]
    for l in range(0, 5):
        fam = replace_family(d_matrix(4, 4, l), ones)
        ranks = sorted(rank(fam.member(i)) for i in range(4))
        assert ranks == [l] * l + [l + 1] * (4 - l)


def test_replace_family_examples():
    jfam = replace_family(make_matrix([1] * 9, 3, 3), [1, 1, 1])
    assert all(jfam.member(i) == make_matrix([1] * 9, 3, 3) for i in range(3))

    qfam = replace_family(q_matrix(3), [1, 1, 1])
    ranks = [rank(qfam.member(i)) for i in range(3)]
    assert ranks == [3, 3, 3]  # in particular no rank-1 member

    with pytest.raises(ShapeError):
        replace_family(q_matrix(3), [1, 1])


def test_replace_family_rank_spread():
    rng = random.Random(41)
    for _ in range(50):
        k = rng.randint(2, 5)
        c = random_wide(rng, k, k)
        b = [rng.choice((1, -1)) for _ in range(k)]
        rc = rank(c)
        fam = replace_family(c, b)
        drops = 0
        for i in range(k):
            r = rank(fam.member(i))
            assert rc - 1 <= r <= rc + 1
            drops += r == rc - 1
        assert drops <= max(rc - 1, 0)


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
    with pytest.raises(RankError):
        check_min_law(make_matrix([1] * 8, 2, 4))


def test_min_law_exhaustive_3x6():
    # every full-rank 3x6 with all-ones first row; negation closure makes
    # this cover the full space
    base = d_matrix(6, 3, 2)
    want_min = rank_vector(base)
    scanned = 0
    for bits in range(2 ** 12):
        a = make_matrix(
            [1] * 6
            + [-1 if (bits >> j) & 1 else 1 for j in range(6)]
            + [-1 if (bits >> (6 + j)) & 1 else 1 for j in range(6)],
            3,
            6,
        )
        if rank(a) < 3:
            continue
        scanned += 1
        assert majorize_leq(want_min, rank_vector(a))
    assert scanned > 0


def test_multiplicity_law():
    assert multiplicity_law(make_matrix([1] * 6, 2, 3), [1, 1])
    assert multiplicity_law(d_matrix(4, 3, 2), [1, 1, 1])
    rng = random.Random(47)
    for _ in range(10):
        a = random_full_rank(rng, 3, 5)
        b = [rng.choice((1, -1)) for _ in range(3)]
        assert multiplicity_law(a, b)
    with pytest.raises(ShapeError):
        multiplicity_law(d_matrix(4, 3, 2), [1, 1])


def test_multiplicity_law_every_shape():
    # the law reads only the shape and the column height, so one matrix
    # per shape and column sign covers it
    for n in range(3, 9):
        for k in range(2, n):
            for sign in (1, -1):
                assert multiplicity_law(d_matrix(n, k, k - 1), [sign] * k), (k, n, sign)
