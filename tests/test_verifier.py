"""Sweep harness: normalized enumeration, bound verification, reports."""

import json
import random
import re
from collections import Counter
from itertools import combinations, product

import pytest

import permax.props
import permax.reduction
import permax.verifier
from permax import (
    CounterexampleError,
    PropertyFailure,
    RangeError,
    ShapeError,
    SignMatrix,
    StratumRow,
    VerifyReport,
    d_matrix,
    enumerate_normalized,
    mper,
    parse_matrix_text,
    permanent_naive,
    permanent_ryser,
    rank,
    rank_vector,
    submatrix_select,
    verify_mper,
    verify_properties,
    verify_square,
    write_report,
)


def test_enumeration_counts_and_normalization():
    for n, count in ((2, 2), (3, 16), (4, 512)):
        seen = set()
        for a in enumerate_normalized(n):
            assert a.row_signs(1) == (1,) * n
            assert all(a.entry(i, 1) == 1 for i in range(1, n + 1))
            seen.add(a.words)
        assert len(seen) == count


def test_enumeration_is_deterministic():
    first = [a.words for a in enumerate_normalized(3)]
    second = [a.words for a in enumerate_normalized(3)]
    assert first == second
    with pytest.raises(ShapeError):
        next(enumerate_normalized(7))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_normalized_permanents_match_the_evaluator(n):
    # each block's coefficients are its minors' permanents, which come
    # from the compiled oracle, so they are checked against permanent_ryser,
    # as props checks the values up to order 4; this reaches order 5 too
    shift, rows = (n - 2) * (n - 1), range(1, n)
    seen = []
    for p, b in permax.props._normalized_blocks(n):
        prefix = permax.props._normalized(n, p, n - 1)
        assert b == [
            permanent_ryser(submatrix_select(prefix, rows, [c for c in range(1, n + 1) if c != j]))
            for j in range(1, n + 1)
        ]
        for x, v in enumerate(permax.props._last_row_permanents(b)):
            i = p | x << shift
            a = permax.props._normalized(n, i)
            assert a.words[: n - 1] == prefix.words
            assert v == permanent_ryser(a)
            seen.append(i)
    assert sorted(seen) == list(range(1 << (n - 1) ** 2))


def test_props_values_one_order_five_block(monkeypatch):
    # every other order-5 block has sum |b_j| within the ceiling 72 and is
    # counted unvalued; the all-ones prefix's minors are each 4! = 24
    real = permax.props._last_row_permanents
    valued = []
    monkeypatch.setattr(
        permax.props, "_last_row_permanents", lambda b: valued.append(b) or real(b)
    )
    verify_properties(seed=0, samples=100)
    # orders 2-4 value every block, for the oracle
    assert Counter(len(b) for b in valued) == {2: 1, 3: 1 << 2, 4: 1 << 6, 5: 1}
    assert valued[-1] == [24] * 5
    assert sum(1 for _ in permax.props._normalized_blocks(5)) == 1 << 12


def test_props_samples_the_words_of_random_square(monkeypatch):
    # the sampled comparison draws its row words without building matrices,
    # from the same rng calls as _random_square, so the stream is unchanged
    real = permax.props._sampled_words
    drawn = []

    def recorded(rng, n, count):
        for words in real(rng, n, count):
            drawn.append(words)
            yield words

    monkeypatch.setattr(permax.props, "_sampled_words", recorded)
    seed, samples = 3, 300
    verify_properties(seed=seed, samples=samples)
    rng = random.Random(seed)
    want = [
        permax.props._random_square(rng, order).words
        for order, pct in ((5, 85), (6, 10), (7, 4), (8, 1))
        for _ in range(samples * pct // 100)
    ]
    assert drawn == want


def test_props_transform_cases_are_random_square_and_random_transforms(monkeypatch):
    # the transform check draws its words and steps without building
    # matrices, from the same rng calls as _random_square and
    # _random_transforms, so each seed checks the same cases
    real = permax.props._transform_cases
    drawn, states = [], []

    def recorded(rng, count):
        states.append(rng.getstate())
        for case in real(rng, count):
            drawn.append(case)
            yield case

    monkeypatch.setattr(permax.props, "_transform_cases", recorded)
    seed, samples = 3, 300
    verify_properties(seed=seed, samples=samples)
    assert len(states) == 1
    rng = random.Random()
    rng.setstate(states[0])
    want = []
    for _ in range(samples // 10):
        order = rng.randint(2, 6)
        words = permax.props._random_square(rng, order).words
        want.append((order, words, permax.props._random_transforms(rng, order)))
    assert [(n, tuple(words), steps) for n, words, steps in drawn] == want


def test_sweep_order_two_and_three():
    r2 = verify_square(2)
    assert [(s.rank, s.bound, s.observed_max, s.extremal_orbits) for s in r2.rows] == [
        (1, 2, 2, 1),
        (2, 0, 0, 1),
    ]
    assert r2.scanned == 2

    r3 = verify_square(3)
    assert [(s.rank, s.bound, s.observed_max, s.extremal_orbits) for s in r3.rows] == [
        (1, 6, 6, 1),
        (2, 2, 2, 1),
        (3, 2, 2, 1),
    ]
    assert r3.scanned == 16
    assert all(s.equality_class == "D-only" for s in r3.rows)


def test_sweep_order_four_exception():
    report = verify_square(4)
    assert report.scanned == 512
    by_rank = {s.rank: s for s in report.rows}
    assert [by_rank[r].bound for r in (1, 2, 3, 4)] == [24, 12, 8, 4]
    assert [by_rank[r].observed_max for r in (1, 2, 3, 4)] == [24, 12, 8, 8]
    assert all(by_rank[r].equality_class == "D-only" for r in (1, 2, 3))
    assert by_rank[4].equality_class == "D-plus-exception"
    assert all(by_rank[r].extremal_orbits == 1 for r in (1, 2, 3, 4))


def test_sweep_order_five():
    report = verify_square(5)
    assert report.scanned == 2 ** 16
    assert [(s.rank, s.bound, s.observed_max) for s in report.rows] == [
        (1, 120, 120),
        (2, 72, 72),
        (3, 48, 48),
        (4, 32, 32),
        (5, 24, 24),
    ]
    assert all(s.extremal_orbits == 1 for s in report.rows)
    assert all(s.equality_class == "D-only" for s in report.rows)


def test_sweep_thread_count_does_not_change_results():
    single = verify_square(4, workers=1)
    pooled = verify_square(4, workers=4)
    assert single.rows == pooled.rows
    assert single.scanned == pooled.scanned


def test_sweep_rejects_bad_arguments():
    with pytest.raises(
        RangeError, match=r"^shape \(7,7\) needs 1828864 leaves x selections, over the 2\^20 budget$"
    ):
        verify_square(7)
    for n in (1, 0):
        with pytest.raises(RangeError, match=f"^need order n >= 2, got n={n}$"):
            verify_square(n)
    with pytest.raises(RangeError, match="^worker count must be positive, got 0$"):
        verify_square(3, workers=0)


def test_mper_sweep_small_shapes():
    r = verify_mper(2, 4)
    assert len(r.rows) == 1
    row = r.rows[0]
    assert (row.bound, row.observed_max, row.extremal_orbits) == (6, 6, 1)
    assert row.equality_class == "D-only"

    two_orbits = verify_mper(3, 4)
    assert two_orbits.rows[0].bound == 8
    assert two_orbits.rows[0].extremal_orbits == 2
    assert two_orbits.rows[0].equality_class == "D-plus-exception"

    with pytest.raises(RangeError):
        verify_mper(1, 3)
    with pytest.raises(RangeError, match=r"^shape \(6,7\) needs 1456000 leaves x selections, over the 2\^20 budget$"):
        verify_mper(6, 7)
    with pytest.raises(RangeError, match=r"^shape \(3,40\) needs more than 2\^39 leaves x selections, over"):
        verify_mper(3, 40)


def test_mper_sweep_shape_five_six():
    # 190 prefix classes x 32 last rows x 6 selections fit the budget
    report = verify_mper(5, 6)
    assert report.scanned == 2 ** 20
    assert [(s.bound, s.observed_max, s.extremal_orbits, s.equality_class) for s in report.rows] == [
        (176, 176, 1, "D-only")
    ]


@pytest.mark.parametrize("k, n, bound", [(4, 7, 328), (5, 7, 744), (4, 8, 740), (3, 9, 308), (3, 10, 464)])
def test_mper_sweep_shapes_admitted_by_leaf_count(k, n, bound):
    # the frozen bound is the sum of |per| over the selections of D_(n,k,k-1),
    # taken from the permutation-sum oracle rather than from mper
    d = d_matrix(n, k, k - 1)
    rows = range(1, k + 1)
    assert bound == sum(
        abs(permanent_naive(submatrix_select(d, rows, cols)))
        for cols in combinations(range(1, n + 1), k)
    )
    report = verify_mper(k, n)
    assert report.scanned == 2 ** ((k - 1) * (n - 1))
    assert report.rows == (StratumRow(k, bound, bound, 1, "D-only"),)


def test_lower_bound_refuses_without_counting_classes(monkeypatch):
    def counted(r, m):
        raise AssertionError(f"Polya count taken for {r} x {m} prefixes")

    monkeypatch.setattr(permax.verifier, "_polya_count", counted)
    refusals = [(lambda n=n: verify_square(n)) for n in range(8, 22)]
    refusals += [lambda: verify_mper(3, 40), lambda: verify_mper(2, 15)]
    for refuse in refusals:
        with pytest.raises(RangeError) as info:
            refuse()
        message = str(info.value)
        assert "\n" not in message
        assert re.fullmatch(
            r"shape \(\d+,\d+\) needs more than 2\^\d+ leaves x selections, over the 2\^20 budget",
            message,
        ), message
    # (2,15) needs 105 selections x 2^14 leaves = 1,720,320, more than 2^20
    with pytest.raises(RangeError) as info:
        verify_mper(2, 15)
    assert str(info.value) == "shape (2,15) needs more than 2^20 leaves x selections, over the 2^20 budget"


class Admitted(Exception):
    pass


def test_admission_is_one_budget_rule(monkeypatch):
    def admitted(k, n, targets=None):
        raise Admitted

    monkeypatch.setattr(permax.verifier, "_sweep", admitted)
    passed = []
    for n in range(2, 17):
        for k in range(2, n + 1):
            try:
                verify_square(n) if k == n else verify_mper(k, n)
            except Admitted:
                passed.append((k, n))
            except RangeError as exc:
                assert "over the 2^20 budget" in str(exc), (k, n)
    assert [s for s in passed if s[0] == s[1]] == [(n, n) for n in range(2, 7)]
    assert sorted(s for s in passed if s[0] < s[1]) == sorted(
        [(2, n) for n in range(3, 15)] + [(3, n) for n in range(4, 11)]
        + [(4, n) for n in range(5, 9)] + [(5, 6), (5, 7)]
    )


def refusing(r_refused):
    """``equivalent_to_d`` that refuses every matrix for one target size."""
    real = permax.verifier.equivalent_to_d
    return lambda a, r: None if r == r_refused else real(a, r)


def test_square_sweep_reports_a_matrix_outside_the_orbit(monkeypatch):
    monkeypatch.setattr(permax.verifier, "equivalent_to_d", refusing(4))
    with pytest.raises(CounterexampleError) as info:
        verify_square(4)
    head, _, text = str(info.value).partition("\n")
    assert head == "shape (4,4) rank 4: extremal matrix outside the expected orbits:"
    a = parse_matrix_text(text)
    assert (a.rows, rank(a), abs(permanent_ryser(a))) == (4, 4, 8)


def test_mper_sweep_reports_a_missing_equality_orbit(monkeypatch):
    real = permax.verifier.equivalent_to_d
    monkeypatch.setattr(permax.verifier, "equivalent_to_d", refusing(3))
    with pytest.raises(CounterexampleError) as info:
        verify_mper(3, 4)
    head, _, text = str(info.value).partition("\n")
    assert head == "shape (3,4) rank 3: extremal matrix outside the expected orbits:"
    a = parse_matrix_text(text)
    assert (a.rows, a.cols, rank(a), mper(a)) == (3, 4, 3, 8)
    assert real(a, 3) is not None and real(a, 2) is None


def test_mper_sweep_needs_both_equality_orbits(monkeypatch):
    # every extremal matrix passes as D_(4,3,2), so D_(4,3,3) is never reached
    real = permax.verifier.equivalent_to_d
    monkeypatch.setattr(permax.verifier, "equivalent_to_d", lambda a, r: () if r == 2 else real(a, r))
    with pytest.raises(CounterexampleError) as info:
        verify_mper(3, 4)
    assert str(info.value) == "shape (3,4) rank 3: no extremal matrix in the D_(4,3,3) orbit"


def test_empty_stratum_misses_the_bound(monkeypatch):
    real = permax.verifier._sweep

    def without_rank_two(k, n, targets=None):
        scanned, merged = real(k, n, targets)
        del merged[2]
        return scanned, merged

    monkeypatch.setattr(permax.verifier, "_sweep", without_rank_two)
    with pytest.raises(CounterexampleError) as info:
        verify_square(3)
    assert str(info.value) == "shape (3,3) rank 2: maximum -1 misses the bound 2"


def test_sweeps_need_no_canonical_forms(monkeypatch):
    def refuse(*args):
        raise RuntimeError("canonical form requested")

    monkeypatch.setattr(permax.reduction, "_canonical_with_seq", refuse)
    square = verify_square(5)
    assert square.scanned == 2 ** 16
    assert [(s.rank, s.bound, s.observed_max, s.extremal_orbits, s.equality_class) for s in square.rows] == [
        (1, 120, 120, 1, "D-only"),
        (2, 72, 72, 1, "D-only"),
        (3, 48, 48, 1, "D-only"),
        (4, 32, 32, 1, "D-only"),
        (5, 24, 24, 1, "D-only"),
    ]
    (row,) = verify_mper(3, 4).rows
    assert (row.bound, row.observed_max, row.extremal_orbits) == (8, 8, 2)
    assert row.equality_class == "D-plus-exception"


@pytest.mark.parametrize(
    "k, n, reps, walked, full",
    [(2, 3, 3, 4, 48), (2, 4, 7, 8, 224), (3, 4, 42, 64, 2688)],
)
def test_min_law_walk_weights_its_representatives(k, n, reps, walked, full):
    # props checks the law on the full-row-rank matrices with all-ones first
    # row and column, each counted 2^(k+n-1) times; their negation images
    # must be exactly the full-row-rank k x n matrices, each rank vector
    # unchanged, so the weighted count is a brute-force count
    assert (k, n) in permax.props._LAW_SHAPES
    normalized = [permax.props._normalized(n, i, k) for i in range(1 << ((k - 1) * (n - 1)))]
    kept = [a for a in normalized if rank(a) == k]
    assert (len(kept), len(normalized)) == (reps, walked)
    brute = {w for w in product(range(1 << n), repeat=k) if rank(SignMatrix(k, n, w)) == k}
    assert len(brute) == full == reps << (k + n - 1)
    ones = (1 << n) - 1
    images = set()
    for a in kept:
        want = rank_vector(a)
        for rows, cols in product(range(1 << k), range(1 << n)):
            words = tuple(w ^ cols ^ (ones if rows >> r & 1 else 0) for r, w in enumerate(a.words))
            assert rank_vector(SignMatrix(k, n, words)) == want
            images.add(words)
    assert images == brute


def test_property_suite_small_run():
    samples = 400
    report = verify_properties(seed=1, samples=samples)
    assert report.rows == ()
    # every case count follows from the sample volume alone
    normalized = sum(1 << ((n - 1) ** 2) for n in (2, 3, 4))
    assert dict(report.checks) == {
        "ryser_vs_naive": normalized + sum(samples * pct // 100 for pct in (85, 10, 4, 1)),
        "order4_divisibility": 1 << 9,
        "total_bound": normalized + (1 << 16),
        "laplace_expansion": max(1, samples // 100),
        "transform_invariance": max(1, samples // 10),
        "rank_vector_laws": 2960 + max(1, samples // 200),
    }
    assert report.scanned == sum(dict(report.checks).values())


def test_property_suite_is_seed_deterministic():
    a = verify_properties(seed=5, samples=120)
    b = verify_properties(seed=5, samples=120)
    assert a.checks == b.checks and a.scanned == b.scanned


def test_property_suite_reports_oracle_disagreement(monkeypatch):
    real = permax.props._naive_code
    skewed = []

    def off_by_two_at_order_eight(k, n):
        naive = real(k, n)
        if (k, n) != (8, 8):
            return naive

        def off_by_two(words):
            skewed.append(words)
            return [naive(words)[0] + 2]

        return off_by_two

    monkeypatch.setattr(permax.props, "_naive_code", off_by_two_at_order_eight)
    with pytest.raises(PropertyFailure) as info:
        verify_properties(seed=4, samples=400)
    head, _, matrix = str(info.value).partition("\n")
    assert head == "permanent oracle agreement violated"
    assert len(skewed) == 1 and len(skewed[0]) == 8
    assert parse_matrix_text(matrix) == SignMatrix(8, 8, skewed[0])


def test_write_report_formats(tmp_path):
    report = verify_square(3)
    fixed = report._replace(seconds=0.0)

    jpath = tmp_path / "r.json"
    write_report(fixed, "json", jpath)
    data = json.loads(jpath.read_text())
    assert [row["rank"] for row in data] == [1, 2, 3]
    assert list(data[0]) == [
        "n",
        "rank",
        "bound",
        "observed_max",
        "extremal_orbits",
        "scanned",
        "seconds",
        "equality_class",
    ]
    assert data[0]["n"] == 3 and data[0]["scanned"] == 16

    cpath = tmp_path / "r.csv"
    write_report(fixed, "csv", cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "n,rank,bound,observed_max,extremal_orbits,scanned,seconds,equality_class"
    assert len(lines) == 4
    assert lines[1] == "3,1,6,6,1,16,0.0,D-only"


def test_write_report_empty_and_errors(tmp_path):
    empty = VerifyReport(n=0, rows=(), scanned=0, seconds=0.0)
    path = tmp_path / "empty.json"
    write_report(empty, "json", path)
    assert path.read_text() == "[]\n"

    with pytest.raises(ValueError):
        write_report(empty, "yaml", tmp_path / "x")
    assert not (tmp_path / "x").exists()
    # a bad format leaves an existing report's bytes as they were
    before = path.read_bytes()
    with pytest.raises(ValueError, match="^unknown report format 'yaml'$"):
        write_report(empty, "yaml", path)
    assert path.read_bytes() == before
    with pytest.raises(OSError):
        write_report(empty, "json", tmp_path / "missing" / "x.json")


def test_reports_are_reproducible_modulo_timing(tmp_path):
    a = verify_square(4, workers=1)._replace(seconds=0.0)
    b = verify_square(4, workers=3)._replace(seconds=0.0)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_report(a, "json", pa)
    write_report(b, "json", pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_order_five_reports_match_across_thread_counts(tmp_path):
    # a worker count is checked and ignored: every sweep runs in this process
    paths = []
    for workers in (1, 2, 4):
        report = verify_square(5, workers=workers)._replace(seconds=0.0)
        paths.append(tmp_path / f"w{workers}.json")
        write_report(report, "json", paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch):
    # no pool starts for any worker count: a pool would raise here
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    report = verify_square(3, 1000)
    assert report.scanned == 2 ** 4
    assert [s.observed_max for s in report.rows] == [6, 2, 2]


def test_stratum_rows_are_plain_data():
    row = StratumRow(rank=1, bound=2, observed_max=2, extremal_orbits=1, equality_class="D-only")
    assert row._asdict()["bound"] == 2
