"""The sweep kernel against independent oracles.

The span table is checked against Bareiss elimination.  The prefix-class
kernel, square or wide, is checked against one reference, a plain scan
of every leaf that reads none of the kernel's tables: Glynn
(``permanent_ryser``) on every selection of the rebuilt matrix, checked
against ``mper``, Bareiss rank and the multinomial weight from a
Counter.  The prefix classes are checked against brute force and the
Polya count.
"""

import gc
import json
import math
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice, permutations, product
from operator import add

import pytest

from permax import enumerate_normalized, permanent, verifier
from permax.errors import CounterexampleError, RangeError
from permax.exact_rank import _rank_rows, rank
from permax.permanent import mper, permanent_naive, permanent_ryser
from permax.sign_matrix import SignMatrix, d_matrix, parse_matrix_text, submatrix_select


def bit_rank(rows, m):
    return _rank_rows([[(x >> j) & 1 for j in range(m)] for x in rows])


def closure(table, m, shift=0):
    """Every span reachable from the zero span, with one generating set
    each, and every transition taken; ``shift`` rotates the order in
    which vectors are tried."""
    order = [(x + shift) % (1 << m) for x in range(1 << m)]
    gens = {0: []}
    steps = {}
    todo = [0]
    while todo:
        sid = todo.pop()
        for x in order:
            cid = steps[sid, x] = table.child(sid, x)
            if cid not in gens:
                gens[cid] = gens[sid] + [x]
                todo.append(cid)
    return gens, steps


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_span_transitions_match_bareiss(n):
    m = n - 1
    table = verifier._SpanTable(m)
    gens, _ = closure(table, m)
    assert len(gens) == len(table.dim) == {3: 5, 4: 18, 5: 117, 6: 1788}[n]
    assert len(set(table.mask)) == len(table.mask)
    for sid, g in gens.items():
        assert table.dim[sid] == bit_rank(g, m)
        for x in range(1 << m):
            grown = bit_rank(g + [x], m)
            member = grown == table.dim[sid]
            assert (table.mask[sid] >> x) & 1 == member, (g, x)
            cid = table.child(sid, x)
            assert (cid == sid) == member
            # span(g + x) == span(gens[cid]): equal dimensions and a joint
            # span no larger
            assert table.dim[cid] == grown
            assert bit_rank(g + [x] + gens[cid], m) == grown, (g, x)


def test_order_seven_span_walks_match_bareiss():
    # m = 6 is the span table of an order-7 sweep; a matrix with row 1
    # all ones and rows 1 - 2x below it has rank 1 + dim span{x}
    table = verifier._SpanTable(6)
    rng = random.Random(71)
    for _ in range(300):
        sid, rows = 0, []
        for _ in range(6):
            x = rng.getrandbits(6)
            sid = table.child(sid, x)
            rows.append(x)
            a = SignMatrix(len(rows) + 1, 7, (0,) + tuple(r << 1 for r in rows))
            assert 1 + table.dim[sid] == rank(a), rows
    # the full order-7 table has 77,261 spans; every id must fit a step
    table.step[0] = 77_260
    assert table.step[0] == 77_260


def test_span_misses_fill_their_sibling_steps(monkeypatch):
    # one _extend per grown span and parent: every vector the child holds
    # and the parent does not steps to the same child
    calls = []
    real = verifier._SpanTable._extend
    monkeypatch.setattr(
        verifier._SpanTable, "_extend", lambda self, sid, x: calls.append(x) or real(self, sid, x)
    )
    verifier._sweep(6, 6)
    assert len(calls) == 206  # 368 with one step filled per miss
    del calls[:]
    spans = verifier._SpanTable(6)
    for rows, _ in verifier._prefix_classes(5, 6):  # the order-7 prefix walks
        sid = 0
        for x in rows:
            sid = spans.child(sid, x)
    assert len(calls) == 2995  # 6,900 with one step filled per miss


def reference_chunk(k, n, x1):
    """Every multiset of k - 1 free rows whose smallest row is x1, scanned
    leaf by leaf with the general routines: the weighted matrix count,
    the weighted count per rank, the weighted sum of per^2 over the
    selections, and per rank the largest value with its leaves, free
    rows in non-decreasing order."""
    free = k - 1
    stats = {}
    census = [0] * (k + 1)
    scanned = squares = 0
    for rest in combinations_with_replacement(range(x1, 1 << (n - 1)), free - 1):
        rows = (x1,) + rest
        weight = math.factorial(free)
        for c in Counter(rows).values():
            weight //= math.factorial(c)
        scanned += weight
        a = SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows))
        pers = [permanent_ryser(submatrix_select(a, range(1, k + 1), cols))
                for cols in combinations(range(1, n + 1), k)]
        squares += weight * sum(p * p for p in pers)
        value = mper(a)
        assert value == sum(map(abs, pers))
        r = 1 + bit_rank(rows, n - 1)
        census[r] += weight
        best, reps = stats.get(r, (-1, []))
        if value > best:
            stats[r] = (value, [rows])
        elif value == best:
            reps.append(rows)
    return scanned, census, squares, stats


def brute_key(rows, m):
    """The class of a tuple of m-bit rows under row and column
    permutations: permute the shorter side every way, sort the lines of
    the other, and keep the least."""
    r = len(rows)
    if r <= m:
        lines = [[(x >> c) & 1 for x in rows] for c in range(m)]
    else:
        lines = [[(x >> c) & 1 for c in range(m)] for x in rows]
    return min(
        tuple(sorted(sum(line[p] << i for i, p in enumerate(order)) for line in lines))
        for order in permutations(range(min(r, m)))
    )


def shapes(*pairs):
    """Parametrize over k x n shapes; a square shape is named by its order."""
    ids = [str(n) if k == n else f"{k}x{n}" for k, n in pairs]
    return pytest.mark.parametrize("k, n", pairs, ids=ids)


TEN_SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (2, 4), (2, 7), (3, 4), (3, 5), (4, 5))


@shapes(*TEN_SHAPES)
def test_blocks_match_multiset_reference(k, n):
    # the same scan count, census, second moment and maxima as the scan of
    # every row multiset, summed over its chunks, and extremal leaves that
    # make up the same orbits
    tables = verifier._SweepTables(k, n)
    classes = verifier._prefix_classes(k - 2, n - 1)
    orbits, squares, census, stats, count = verifier._sweep_block(tables, classes)
    want_census = [0] * (k + 1)
    want_scanned = want_squares = 0
    want_stats = {}
    for x1 in range(1 << (n - 1)):
        part = reference_chunk(k, n, x1)
        want_scanned += part[0]
        want_census = list(map(add, want_census, part[1]))
        want_squares += part[2]
        for r, (mx, reps) in part[3].items():
            top, kept = want_stats.get(r, (-1, []))
            if mx > top:
                want_stats[r] = (mx, list(reps))
            elif mx == top:
                kept.extend(reps)
    assert orbits << (n - 1) == want_scanned == 1 << ((k - 1) * (n - 1))
    assert count == verifier._polya_count(k - 2, n - 1)
    assert orbits == 1 << ((k - 2) * (n - 1))
    assert census == want_census
    assert squares == want_squares == math.comb(n, k) * math.factorial(k) * want_scanned
    assert stats.keys() == want_stats.keys()
    for r, (mx, reps) in stats.items():
        top, kept = want_stats[r]
        assert mx == top, r
        assert {brute_key(rows, n - 1) for rows in reps} == {
            brute_key(rows, n - 1) for rows in kept
        }, r


# every shape the sweep budget admits
ADMITTED = (
    [(n, n) for n in range(2, 7)]
    + [(2, n) for n in range(3, 15)] + [(3, n) for n in range(4, 11)]
    + [(4, n) for n in range(5, 9)] + [(5, 6), (5, 7)]
)


@shapes(*ADMITTED)
def test_bound_pruned_pass_matches_the_full_pass(k, n, monkeypatch, tmp_path):
    # the same counts, census and second moment, and for every judged
    # rank the same maximum and extremal leaves in the same order
    classes = list(verifier._prefix_classes(k - 2, n - 1))
    judged = {r: top for r, (_, top, _) in verifier._strata(k, n).items()}
    full = verifier._sweep_block(verifier._SweepTables(k, n), classes)
    pruned = verifier._sweep_block(verifier._SweepTables(k, n, judged), classes)
    assert pruned[:3] == full[:3] and pruned[4] == full[4]
    assert {r: pruned[3][r] for r in judged} == {r: full[3][r] for r in judged}

    def report(name):
        path = tmp_path / name
        verifier.write_report(
            verifier.verify_square(n) if k == n else verifier.verify_mper(k, n), "json", path
        )
        rows = json.loads(path.read_text(encoding="utf-8"))
        assert rows and all(row.pop("seconds") >= 0 for row in rows)
        return rows

    real = verifier._sweep
    with_targets = report("pruned.json")
    monkeypatch.setattr(verifier, "_sweep", lambda k, n, targets=None: real(k, n))
    assert with_targets == report("full.json")


@shapes((2, 2), (2, 5), (3, 3), (3, 5), (4, 6), (5, 7), (5, 5))
def test_class_minors_match_the_compiled_oracle(k, n):
    # each order-j minor, j = 1..k-1, that the level tables step to along a
    # class's prefix rows, from the empty permanent 1, is the permanent the
    # compiled oracle gives over the prefix's first j rows, first row all
    # ones, and each list of minors ends with one 0; the order-k level's
    # outputs, zipped, give each k-column selection's b_j, the oracle's
    # minor on the selection less column j and 0 for a column outside it,
    # and close with one entry of zeros.  The oracle lists its column sets
    # in descending numeric order, so both sides are keyed by column mask
    tables = verifier._SweepTables(k, n)
    assert sorted(tables.levels) == list(range(1, k + 1))
    assert all(len(level) == n for level in tables.levels.values())
    masks = {
        q: [sum(1 << c for c in cols) for cols in combinations(range(n), q)]
        for q in range(1, k + 1)
    }
    oracles = {q: permanent._naive_code(q, n) for q in range(1, k)}
    for rows, _ in verifier._prefix_classes(k - 2, n - 1):
        words = (0,) + tuple(x << 1 for x in rows)
        minors = [1, 0]
        for q in range(1, k):
            outs = [g(minors) for g in tables.levels[q]]
            got = [sum(t) for t in zip(*outs)]
            for j in range(1, n):
                if (words[q - 1] >> j) & 1:
                    got = [b - 2 * d for b, d in zip(got, outs[j])]
            want = dict(zip(sorted(masks[q], reverse=True), oracles[q](words[:q])))
            assert len(got) == len(masks[q]) + 1 and got[-1] == 0, (rows, q)
            assert dict(zip(masks[q], got)) == want, (rows, q)
            minors = got
        sels = list(zip(*[g(minors) for g in tables.levels[k]]))
        assert len(sels) == len(masks[k]) + 1 and set(sels[-1]) == {0}, rows
        for sel, b in zip(masks[k], sels):  # ``want`` holds the oracle's order-(k-1) minors
            assert b == tuple(want[sel ^ 1 << j] if (sel >> j) & 1 else 0 for j in range(n)), (
                rows, sel,
            )


def test_order_six_values_23_of_1053_classes(monkeypatch):
    passes = []
    real = verifier._last_row_values
    monkeypatch.setattr(verifier, "_last_row_values", lambda b: passes.append(b) or real(b))
    verifier.verify_square(6)
    assert len(passes) == 23  # one selection per class


@pytest.mark.parametrize(
    "r, m", [(r, m) for r in range(7) for m in range(1, 13) if r * m <= 12], ids=str
)
def test_prefix_classes_match_brute_force(r, m):
    # one representative per class, each with its class size
    sizes = Counter(brute_key(rows, m) for rows in product(range(1 << m), repeat=r))
    classes = list(verifier._prefix_classes(r, m))
    assert all(len(rows) == r for rows, _ in classes)
    assert {brute_key(rows, m): w for rows, w in classes} == sizes
    assert len(classes) == len(sizes) == verifier._polya_count(r, m)


@pytest.mark.parametrize(
    "r, m, count",
    [
        (3, 4, 87), (3, 5, 190), (4, 5, 1053), (4, 6, 3250), (3, 7, 734), (4, 7, 9343),
        (5, 6, 28576),
    ],
)
def test_prefix_class_counts(r, m, count):
    assert verifier._polya_count(r, m) == count
    classes = list(verifier._prefix_classes(r, m))
    assert len(classes) == count
    assert sum(w for _, w in classes) == 1 << (r * m)


def test_prefix_classes_stream_in_little_memory():
    # 9,343 classes of four rows of seven bits, walked and dropped: the
    # generator holds the kept children along one path, not the classes
    tracemalloc.start()
    try:
        walked = sum(1 for _ in verifier._prefix_classes(4, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == 9343
    assert peak < 2_000_000


def test_order_six_sweeps_33696_leaves(monkeypatch):
    seen = []
    real = verifier._sweep_block

    def counted(t, block):
        out = real(t, block)
        seen.append(out[-1])  # the classes the block scanned
        return out

    monkeypatch.setattr(verifier, "_sweep_block", counted)
    verifier._sweep(6, 6)
    # one block of 1,053 classes of four free rows, each with 32 last rows
    assert seen == [1053] and 32 * seen[0] == 33_696


@pytest.mark.parametrize("n", [3, 9, 14])
def test_two_row_sweep_is_one_block(monkeypatch, n):
    blocks = []
    real = verifier._sweep_block

    def kept(t, block):
        blocks.append(list(block))
        return real(t, blocks[-1])

    monkeypatch.setattr(verifier, "_sweep_block", kept)
    scanned, _ = verifier._sweep(2, n)
    assert scanned == 1 << (n - 1)
    assert blocks == [[((), 1)]]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_census_matches_bareiss(n):
    tables = verifier._SweepTables(n, n)
    census = verifier._sweep_block(tables, verifier._prefix_classes(n - 2, n - 1))[2]
    want = Counter(rank(a) for a in enumerate_normalized(n))
    assert census == [want[r] for r in range(n + 1)] == list(verifier._CENSUS[n])


@pytest.mark.parametrize("n", [7, 8])
def test_order_seven_census_meets_the_pinned_full_rank_count(n):
    # the census rows of sweeps run outside the sweep budget sum to 2^36
    # and 2^49, the normalized matrices of each order
    census = list(verifier._CENSUS[n])
    assert sum(census) == 1 << (n - 1) ** 2
    verifier._check_census(n, n, census)
    short = census[:-1] + [census[-1] - 1]
    with pytest.raises(
        RuntimeError,
        match=rf"^rank census: rank {n} holds {census[-1] - 1} matrices, not {census[-1]}$",
    ):
        verifier._check_census(n, n, short)
    # one nonsingular matrix counted at rank n - 1: every rank is checked,
    # the lowest off named first
    moved = census[:-2] + [census[-2] + 1, census[-1] - 1]
    with pytest.raises(
        RuntimeError,
        match=rf"^rank census: rank {n - 1} holds {census[-2] + 1} matrices, not {census[-2]}$",
    ):
        verifier._check_census(n, n, moved)
    with pytest.raises(RangeError, match=rf"^shape \({n},{n}\) needs .* over the 2\^20 budget$"):
        verifier.verify_square(n)


def test_two_row_tables_stay_small():
    # no table has an entry per column subset: the order-j level reads and
    # gives one entry per column set of j or j - 1 columns, so two rows
    # build the order-1 and order-2 levels alone, and a sweep adds no table
    tracemalloc.start()
    try:
        tables = verifier._SweepTables(2, 10)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 200_000
    for k in (2, 3):
        tables = verifier._SweepTables(k, 10)
        verifier._sweep_block(tables, verifier._prefix_classes(k - 2, 9))
        assert sorted(tables.levels) == list(range(1, k + 1))
        getters = [g for level in tables.levels.values() for g in level]
        assert max(len(g(range(1 << 10))) for g in getters) < 1 << 10
        assert all(len(t) < 1 << 10 for t in vars(tables).values() if isinstance(t, (list, dict)))


@shapes((2, 2), (4, 4), (3, 5))
def test_chunk_frees_the_tables_on_return(k, n):
    # a reference cycle through the block's frames would hold the tables
    # until the next full garbage collection
    tables = verifier._SweepTables(k, n)
    spans = weakref.ref(tables.spans)
    gc.disable()
    try:
        verifier._sweep_block(tables, islice(verifier._prefix_classes(k - 2, n - 1), 3))
        del tables
        assert spans() is None
    finally:
        gc.enable()


def test_leaf_counterexample_names_the_matrix(monkeypatch):
    real = verifier.mper
    # lowers the order-5 rank-3 bound, per D_(5,2), from 48 to 47
    monkeypatch.setattr(verifier, "mper", lambda a: 47 if a == d_matrix(5, 5, 2) else real(a))
    with pytest.raises(CounterexampleError) as info:
        verifier.verify_square(5)
    head, text = str(info.value).split("\n", 1)
    assert head == "shape (5,5) rank 3: maximum 48 beats the bound 47:"
    a = parse_matrix_text(text)
    assert (a.rows, a.cols) == (5, 5)
    assert rank(a) == 3
    assert abs(permanent_naive(a)) == 48


@pytest.mark.parametrize("k, n, r", [(5, 5, 1), (4, 6, 4)], ids=["5", "4x6"])
def test_missed_bound_names_the_true_maximum(k, n, r, monkeypatch):
    # doubled bounds leave no class to value, so the pruned sweep sees no
    # leaf of the stratum; the full sweep run before raising names the
    # true maximum
    real = verifier.mper
    monkeypatch.setattr(verifier, "mper", lambda a: 2 * real(a))
    sweeps = []
    real_sweep = verifier._sweep

    def recorded(k, n, targets=None):
        out = real_sweep(k, n, targets)
        sweeps.append((targets, out[1]))
        return out

    monkeypatch.setattr(verifier, "_sweep", recorded)
    with pytest.raises(CounterexampleError) as info:
        verifier.verify_square(n) if k == n else verifier.verify_mper(k, n)
    # both maxima are 120: per D_(5,0) = 5!, and mper D_(6,4,3)
    assert str(info.value) == f"shape ({k},{n}) rank {r}: maximum 120 misses the bound 240"
    (pruned, seen), (full, _) = sweeps
    assert pruned is not None and full is None
    assert r not in seen


def test_wide_counterexample_names_the_matrix(monkeypatch):
    real = verifier.mper
    # lowers the (3,4) bound, mper of D_(4,3,2), from 8 to 7
    monkeypatch.setattr(verifier, "mper", lambda a: real(a) - (a == d_matrix(4, 3, 2)))
    with pytest.raises(CounterexampleError) as info:
        verifier.verify_mper(3, 4)
    head, text = str(info.value).split("\n", 1)
    assert head == "shape (3,4) rank 3: maximum 8 beats the bound 7:"
    a = parse_matrix_text(text)
    assert (a.rows, a.cols) == (3, 4)
    assert rank(a) == 3
    assert mper(a) == 8


def test_orbit_counterexample_names_the_matrix(monkeypatch):
    # no extremal matrix passes the orbit test; the kernel's value and
    # rank for the one named agree with the oracles, so it is reported
    monkeypatch.setattr(verifier, "equivalent_to_d", lambda a, size: None)
    with pytest.raises(CounterexampleError) as info:
        verifier.verify_square(4)
    head, text = str(info.value).split("\n", 1)
    assert head == "shape (4,4) rank 1: extremal matrix outside the expected orbits:"
    a = parse_matrix_text(text)
    assert rank(a) == 1
    assert abs(permanent_naive(a)) == 24


def test_recheck_blames_the_kernel_for_a_wrong_value_or_rank():
    a = d_matrix(5, 3, 2)
    value, r = mper(a), rank(a)
    verifier._recheck(a, value, r)
    for wrong in ((value + 1, r), (value, r - 1)):
        with pytest.raises(RuntimeError, match="^sweep kernel fault: ") as info:
            verifier._recheck(a, *wrong)
        assert not isinstance(info.value, CounterexampleError)
        assert parse_matrix_text(str(info.value).split("\n", 1)[1]) == a


def test_wide_sweep_evaluates_permanents_only_for_the_bound(monkeypatch):
    glynn, sums = [], []
    monkeypatch.setattr(
        permanent, "permanent_ryser", lambda a: glynn.append(a) or permanent_ryser(a)
    )
    monkeypatch.setattr(verifier, "mper", lambda a: sums.append(a) or mper(a))
    (row,) = verifier.verify_mper(4, 6).rows
    # one mper call, for the bound on D_(6,4,3), and no Glynn call at all:
    # mper values every selection in one call of the compiled oracle
    assert glynn == []
    assert sums == [d_matrix(6, 4, 3)]
    assert row.bound == 120
