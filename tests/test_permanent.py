"""Permanent evaluation: oracle, Glynn fast path, rectangular forms, Laplace."""

import itertools
import math
import random
import re
import tracemalloc

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
    submatrix_select,
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
    # over k rows, the compiled oracle assigns every nonempty set of at
    # most k columns once, in numeric order, and each term reads the set
    # with one column removed, times the entry of row |S| in that column
    # (n * 2^(n-1) terms for k = n); it returns the list of the k-column
    # sets' values in descending numeric order
    for k in range(1, n + 1):
        source = permanent_module._naive_source(k, n)
        sets, terms = [], 0
        for s, rhs in re.findall(r"^    p(\d+) = (.+)$", source, re.M):
            s = int(s)
            sets.append(s)
            columns = []
            for term in rhs.split(" + "):
                row, j, rest = re.fullmatch(r"a(\d+)_(\d+)(?:\*p(\d+))?", term).groups()
                j = int(j)
                assert int(row) == s.bit_count() - 1
                assert int(rest or 0) == s ^ 1 << j
                columns.append(j)
            assert columns == [j for j in range(n) if s >> j & 1]
            terms += len(columns)
        assert sets == [s for s in range(1, 1 << n) if s.bit_count() <= k]
        assert terms == sum(m * math.comb(n, m) for m in range(1, k + 1))
        full = [s for s in range((1 << n) - 1, 0, -1) if s.bit_count() == k]
        assert source.endswith("    return [" + ", ".join(f"p{s}" for s in full) + "]\n")


@pytest.mark.parametrize("n", range(1, 8))
def test_wide_naive_values_every_selection_in_descending_set_order(n):
    # over k rows of n columns, entry i is the permanent of the i-th
    # k-column selection in descending numeric order of its column set:
    # for k = n - 1, entry j is the minor without column j + 1
    rng = random.Random(47 + n)
    for k in range(1, n + 1):
        rows = range(1, k + 1)
        sets = [s for s in range((1 << n) - 1, 0, -1) if s.bit_count() == k]
        for _ in range(3):
            a = make_matrix([rng.choice((1, -1)) for _ in range(k * n)], k, n)
            assert permanent_module._naive_code(k, n)(a.words) == [
                permanent_ryser(submatrix_select(a, rows, [j + 1 for j in range(n) if s >> j & 1]))
                for s in sets
            ]


def test_wide_oracle_calls_hold_little_memory():
    # a 3 x 6 call values C(6,3) = 20 selections; CPython 3.11 keeps every
    # freed 20-entry tuple on its free list and never reuses it, so 1,000
    # calls returning tuples held 200,000 bytes until a full collection
    rng = random.Random(59)
    mats = [make_matrix([rng.choice((1, -1)) for _ in range(18)], 3, 6) for _ in range(1000)]
    mper(mats[0])  # compiles the 3 x 6 oracle
    tracemalloc.start()
    try:
        for a in mats:
            mper(a)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16_000


def test_naive_plans_of_interleaved_orders_stay_apart():
    # functions are compiled lazily in the order the orders first arrive,
    # and each order's matrices must run its own function afterwards
    permanent_module._naive_code.cache_clear()
    rng = random.Random(41)
    orders = [5, 2, 8, 3, 7, 4, 6]
    for n in orders + orders[::-1]:
        a = random_square(rng, n)
        assert permanent_naive(a) == literal_permanent(a)
    info = permanent_module._naive_code.cache_info()
    assert (info.currsize, info.misses, info.hits) == (len(orders),) * 3


def test_glynn_core_on_words_matches_permanent_ryser():
    # permanent_ryser is the shape check over this core, and the oracle
    # checks both; orders 10-12 draw more row words than the vector cache
    # holds, so their fills empty it on the way
    rng = random.Random(47)
    orders = [(n, 4) for n in range(1, 10)] + [(10, 30), (11, 12), (12, 6)]
    drawn = {}
    for n, count in orders:
        for _ in range(count):
            words = tuple(rng.getrandbits(n) for _ in range(n))
            drawn.setdefault(n, set()).update(words)
            a = SignMatrix(n, n, words)
            assert permanent_module._glynn(n, words) == permanent_ryser(a) == permanent_naive(a)
    vectors = permanent_module._vectors
    assert sum(len(c) << (m - 1) for m, c in vectors.items()) <= permanent_module._VECTOR_ENTRIES
    assert not drawn[10] <= set(vectors[10])


def test_naive_reads_nothing_of_the_glynn_evaluator(monkeypatch):
    # with Glynn's row-vector cache emptied and its builder raising, the
    # oracle, compiled afresh, still sums the permutations term by term
    def no_row_vector(n, w):
        raise RuntimeError(f"row vector of word {w} at order {n} built")

    monkeypatch.setattr(permanent_module, "_row_vector", no_row_vector)
    monkeypatch.setattr(permanent_module, "_vectors", {n: {} for n in range(1, 13)})
    permanent_module._naive_code.cache_clear()
    rng = random.Random(43)
    for n, count in ((1, 2), (2, 4), (3, 8), (4, 8), (5, 8), (6, 5), (7, 3), (8, 2)):
        for _ in range(count):
            a = random_square(rng, n)
            assert permanent_naive(a) == literal_permanent(a)
    with pytest.raises(RuntimeError, match="row vector"):
        permanent_ryser(a)


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


def test_rect_and_mper_match_glynn_over_every_selection():
    # the compiled oracle values every selection; Glynn, which shares no
    # code with it, values each submatrix_select on its own
    rng = random.Random(31)
    for k in range(1, 7):
        for n in range(k, 11):
            rows = range(1, k + 1)
            for _ in range(2):
                a = make_matrix([rng.choice((1, -1)) for _ in range(k * n)], k, n)
                pers = [
                    permanent_ryser(submatrix_select(a, rows, cols))
                    for cols in itertools.combinations(range(1, n + 1), k)
                ]
                assert permanent_rect(a) == sum(pers)
                assert mper(a) == sum(map(abs, pers))


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
    # every proper row set, so every width of the reversed pairing of
    # column sets with their complements is checked against Glynn
    rng = random.Random(13)
    for n in range(2, 8):
        for _ in range(3):
            a = random_square(rng, n)
            want = permanent_ryser(a)
            for size in range(1, n):
                for beta in itertools.combinations(range(1, n + 1), size):
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
