"""The sweep kernel against independent oracles.

The span table is checked against Bareiss elimination, and each sweep
chunk, square or wide, against a plain per-leaf scan: the selection sum
``mper`` on the rebuilt matrix, Bareiss rank and the multinomial weight
from a Counter.
"""

import gc
import math
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from permax import permanent, verifier
from permax.errors import CounterexampleError
from permax.exact_rank import _rank_rows, rank
from permax.permanent import mper, permanent_naive
from permax.sign_matrix import SignMatrix, d_matrix, parse_matrix_text


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


def reference_chunk(k, n, x1):
    """The sweep chunk computed leaf by leaf with the general routines."""
    free = k - 1
    stats = {}
    scanned = 0
    for rest in combinations_with_replacement(range(x1, 1 << (n - 1)), free - 1):
        rows = (x1,) + rest
        weight = math.factorial(free)
        for c in Counter(rows).values():
            weight //= math.factorial(c)
        scanned += weight
        value = mper(SignMatrix(k, n, (0,) + tuple(x << 1 for x in rows)))
        r = 1 + bit_rank(rows, n - 1)
        best, reps = stats.get(r, (-1, []))
        if value > best:
            stats[r] = (value, [rows])
        elif value == best:
            reps.append(rows)
    return scanned, stats


def shapes(*pairs):
    """Parametrize over k x n shapes; a square shape is named by its order."""
    ids = [str(n) if k == n else f"{k}x{n}" for k, n in pairs]
    return pytest.mark.parametrize("k, n", pairs, ids=ids)


@shapes((2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (2, 4), (2, 7), (3, 4), (3, 5), (4, 5))
def test_chunks_match_per_leaf_reference(k, n):
    tables = verifier._SweepTables(k, n)
    total = 0
    for x1 in range(1 << (n - 1)):
        got = verifier._sweep_chunk(tables, x1)
        assert got == reference_chunk(k, n, x1), x1
        total += got[0]
    assert total == 1 << ((k - 1) * (n - 1))


def test_two_row_tables_stay_small():
    # one free row: every leaf is fed from the first row's weights, so no
    # per-row sums over the 2^n column subsets are built
    tracemalloc.start()
    try:
        tables = verifier._SweepTables(2, 10)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tables.row_sums == []
    assert held < 200_000


@shapes((2, 2), (4, 4), (3, 5))
def test_chunk_frees_the_tables_on_return(k, n):
    # a reference cycle through the chunk's closures would hold the
    # tables until the next full garbage collection
    tables = verifier._SweepTables(k, n)
    spans = weakref.ref(tables.spans)
    gc.disable()
    try:
        verifier._sweep_chunk(tables, 1)
        del tables
        assert spans() is None
    finally:
        gc.enable()


def test_leaf_counterexample_names_the_matrix(monkeypatch):
    real = verifier.bound_for_rank

    def lowered(n, r, table):
        return 47 if (n, r) == (5, 3) else real(n, r, table)

    monkeypatch.setattr(verifier, "bound_for_rank", lowered)
    with pytest.raises(CounterexampleError) as info:
        verifier.verify_square(5)
    head, text = str(info.value).split("\n", 1)
    assert head == "shape (5,5) rank 3: maximum 48 beats the bound 47:"
    a = parse_matrix_text(text)
    assert (a.rows, a.cols) == (5, 5)
    assert rank(a) == 3
    assert abs(permanent_naive(a)) == 48


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


def test_wide_sweep_evaluates_permanents_only_for_the_bound(monkeypatch):
    real = permanent.permanent_ryser
    seen = []
    monkeypatch.setattr(permanent, "permanent_ryser", lambda a: seen.append(a) or real(a))
    (row,) = verifier.verify_mper(4, 6).rows
    # one call per 4-column selection of D_(6,4,3), and none from the sweep
    assert len(seen) == math.comb(6, 4) == 15
    assert sum(abs(real(a)) for a in seen) == row.bound == 120
