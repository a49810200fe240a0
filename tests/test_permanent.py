"""Permanent evaluation: oracle, Glynn fast path, rectangular forms, Laplace."""

import itertools
import math
import random

import pytest

import permax.permanent as permanent_module
from permax import (
    ShapeError,
    SignMatrix,
    build_table,
    d_matrix,
    laplace_expand,
    make_matrix,
    mper,
    p_matrix,
    per_d_diag,
    permanent_naive,
    permanent_rect,
    permanent_ryser,
    q_matrix,
)


def random_square(rng, n):
    return make_matrix([rng.choice((1, -1)) for _ in range(n * n)], n, n)


def literal_permanent(a):
    """The permutation sum term by term, the reference for the grouped oracle."""
    rows = [a.row_signs(i) for i in range(1, a.rows + 1)]
    return sum(
        math.prod(rows[i][j] for i, j in enumerate(sigma))
        for sigma in itertools.permutations(range(a.rows))
    )


def test_naive_known_values():
    assert permanent_naive(make_matrix([1] * 9, 3, 3)) == 6
    assert permanent_naive(d_matrix(3, 3, 3)) == -2
    assert permanent_naive(d_matrix(1, 1, 1)) == -1


def test_naive_matches_literal_sum_on_every_order_four_pattern():
    for bits in range(1 << 16):
        a = SignMatrix(4, 4, tuple((bits >> (4 * r)) & 15 for r in range(4)))
        assert permanent_naive(a) == literal_permanent(a)


def test_naive_matches_literal_sum_sampled():
    rng = random.Random(23)
    for n, count in ((1, 4), (2, 8), (3, 20), (4, 20), (5, 20), (6, 10), (7, 5), (8, 3)):
        for _ in range(count):
            a = random_square(rng, n)
            assert permanent_naive(a) == literal_permanent(a)


def test_naive_order_ten_values():
    # both values come from neither evaluator: 10! and the diagonal recurrence
    assert permanent_naive(make_matrix([1] * 100, 10, 10)) == 3_628_800
    assert permanent_naive(d_matrix(10, 10, 10)) == per_d_diag(10, build_table(10))


@pytest.mark.parametrize("n", range(1, 9))
def test_naive_plan_lists_every_proper_column_set_once(n):
    plan = permanent_module._naive_plan(n)
    assert [s for s, _, _ in plan] == list(range((1 << n) - 1))
    for s, size, succ in plan:
        assert size == s.bit_count()
        assert succ == tuple((1 << j, s | 1 << j) for j in range(n) if not s >> j & 1)
    assert sum(len(succ) for _, _, succ in plan) == n << (n - 1)


def test_naive_plans_of_interleaved_orders_stay_apart():
    # plans are built lazily in the order the orders first arrive, and
    # each order's matrices must read its own plan afterwards
    permanent_module._naive_plan.cache_clear()
    rng = random.Random(41)
    orders = [5, 2, 8, 3, 7, 4, 6]
    for n in orders + orders[::-1]:
        a = random_square(rng, n)
        assert permanent_naive(a) == literal_permanent(a)
    assert permanent_module._naive_plan.cache_info().currsize == len(orders)


def test_naive_shape_guards():
    with pytest.raises(ShapeError):
        permanent_naive(d_matrix(3, 2, 1))
    # the oracle covers the whole shape budget, orders 11 and 12 included
    assert permanent_naive(make_matrix([1] * 121, 11, 11)) == math.factorial(11)


def test_ryser_known_values():
    assert permanent_ryser(d_matrix(4, 4, 4)) == 8
    assert permanent_ryser(d_matrix(6, 6, 6)) == 112
    assert permanent_ryser(make_matrix([1] * 25, 5, 5)) == 120
    assert permanent_ryser(p_matrix(1)) == 16
    assert permanent_ryser(p_matrix(2)) == 16


def test_ryser_matches_naive_exhaustively_small():
    # every 3x3 sign pattern; also pins the order-3 value set
    values = set()
    for bits in range(2 ** 9):
        a = make_matrix([-1 if (bits >> p) & 1 else 1 for p in range(9)], 3, 3)
        v = permanent_naive(a)
        assert permanent_ryser(a) == v
        values.add(v)
    assert values == {-6, -2, 2, 6}


def test_ryser_matches_naive_sampled():
    # odd orders never meet a zero row sum; even orders carry zero factors
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        for _ in range(30):
            a = random_square(rng, n)
            assert permanent_ryser(a) == permanent_naive(a)


@pytest.mark.parametrize("warm", [4, 8])
def test_ryser_row_vectors_are_keyed_by_order(warm):
    # every word of one order gets its cached vector first; a cache keyed
    # by the word alone would hand those vectors to the other orders' rows
    vectors = permanent_module._vectors
    for cached in vectors.values():
        cached.clear()
    for w in range(1 << warm):
        permanent_ryser(SignMatrix(warm, warm, (w,) * warm))
    assert len(vectors[warm]) == 1 << warm
    rng = random.Random(31)
    for n in range(1, 9):
        if n == warm:
            continue
        for _ in range(3):
            a = SignMatrix(n, n, tuple(rng.getrandbits(min(n, warm)) for _ in range(n)))
            assert permanent_ryser(a) == permanent_naive(a) == literal_permanent(a)


def test_ryser_row_vector_cache_stays_bounded():
    # 96 distinct order-12 words of 2,048 entries each pass the 2^17 bound
    words = random.Random(37).sample(range(1 << 12), 96)
    vectors = permanent_module._vectors
    for i in range(0, 96, 12):
        a = SignMatrix(12, 12, tuple(words[i:i + 12]))
        assert permanent_ryser(a) == permanent_naive(a)
        assert sum(len(v) for cached in vectors.values() for v in cached.values()) <= 1 << 17
    assert len(vectors[12]) < 96


def test_ryser_matches_naive_up_to_the_shape_budget():
    rng = random.Random(29)
    for n in (9, 10, 11, 12):
        for _ in range(4):
            a = random_square(rng, n)
            assert permanent_ryser(a) == permanent_naive(a)
    # both values come from neither evaluator: 12! and the diagonal recurrence
    assert permanent_ryser(make_matrix([1] * 144, 12, 12)) == math.factorial(12)
    assert permanent_ryser(d_matrix(12, 12, 12)) == per_d_diag(12, build_table(12))


def test_rect_known_values():
    assert permanent_rect(make_matrix([1] * 6, 2, 3)) == 6
    assert permanent_rect(d_matrix(3, 2, 1)) == 2


def test_rect_square_degenerates_to_permanent():
    rng = random.Random(5)
    for _ in range(20):
        a = random_square(rng, 4)
        assert permanent_rect(a) == permanent_ryser(a)


def test_mper_known_values():
    assert mper(d_matrix(5, 4, 3)) == 32
    assert mper(d_matrix(4, 3, 3)) == 8
    assert mper(q_matrix(3)) == abs(permanent_ryser(q_matrix(3)))


def test_mper_dominates_rect():
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randint(2, 4)
        n = rng.randint(k, k + 3)
        a = make_matrix([rng.choice((1, -1)) for _ in range(k * n)], k, n)
        assert mper(a) >= abs(permanent_rect(a))
        assert mper(a) >= 0


def test_laplace_known_values():
    assert laplace_expand(d_matrix(4, 4, 3), [1, 2]) == 4
    assert laplace_expand(make_matrix([1] * 16, 4, 4), [1]) == 24
    assert laplace_expand(p_matrix(1), [1, 2]) == 16


def test_laplace_equals_permanent_for_any_row_set():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = random_square(rng, n)
        want = permanent_ryser(a)
        for size in (1, 2):
            if size >= n:
                continue
            beta = sorted(rng.sample(range(1, n + 1), size))
            assert laplace_expand(a, beta) == want


def test_laplace_rejects_bad_row_sets():
    j4 = make_matrix([1] * 16, 4, 4)
    with pytest.raises(ShapeError):
        laplace_expand(j4, [1, 2, 3, 4])  # not a proper subset
    with pytest.raises(IndexError):
        laplace_expand(j4, [0, 2])
    with pytest.raises(ShapeError):
        laplace_expand(d_matrix(3, 2, 1), [1])


def test_total_bound_small_orders():
    # |per| <= n!, sampled; the exhaustive sweep lives in the property suite
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        assert abs(permanent_ryser(random_square(rng, n))) <= math.factorial(n)


def test_order4_divisibility_sampled():
    rng = random.Random(19)
    for _ in range(200):
        assert permanent_ryser(random_square(rng, 4)) % 4 == 0


def test_expansion_identity_on_first_two_rows():
    # cross-check one hand-sized case: per = sum of 2x2 x complement products
    a = d_matrix(4, 4, 2)
    total = 0
    for alpha in itertools.combinations(range(1, 5), 2):
        top = permanent_ryser(
            make_matrix([a.entry(i, j) for i in (1, 2) for j in alpha], 2, 2)
        )
        rest_rows = [3, 4]
        rest_cols = [j for j in range(1, 5) if j not in alpha]
        bottom = permanent_ryser(
            make_matrix([a.entry(i, j) for i in rest_rows for j in rest_cols], 2, 2)
        )
        total += top * bottom
    assert total == permanent_ryser(a) == 8
