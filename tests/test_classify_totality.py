"""classify_form over whole orbits: exhaustive at orders 5 and 6,
orbit-invariant tags at orders 5 and 7-9."""

import itertools
import random
from collections import Counter

from permax import (
    SignMatrix,
    apply,
    classify_form,
    d_matrix,
    p_matrix,
    rank,
)
from permax.props import _random_transforms

TEMPLATES = {
    "DnMinus1": lambda n: d_matrix(n, n, n - 1),
    "DnDiag": lambda n: d_matrix(n, n, n),
    "P1": lambda n: p_matrix(1),
}


def check_replay(a, form):
    b = apply(a, form.seq)
    if form.tag in ("ConditionA", "D5Special"):
        # one normal form: row 1 all ones, row 2 with m -1s in columns 1..m
        m = b.words[1].bit_count()
        assert b.words[0] == 0 and b.words[1] == (1 << m) - 1 and 2 * m <= a.rows
        assert m >= 3 if form.tag == "ConditionA" else m == 2
    else:
        assert b == TEMPLATES[form.tag](a.rows)


def test_order_five_totality():
    # as at order 6: all-ones first row and column, then 4 distinct nonzero
    # rows on columns 2..5; the D_(5,4) tag is decided by orbit membership
    tags = Counter()
    for rows in itertools.combinations(range(1, 16), 4):
        a = SignMatrix(5, 5, (0,) + tuple(x << 1 for x in rows))
        if rank(a) < 5:
            continue
        form = classify_form(a)
        check_replay(a, form)
        tags[form.tag] += 1
    assert tags == {"D5Special": 915, "DnMinus1": 25}


def test_order_six_totality():
    # Every order-6 orbit has a member with all-ones first row and column;
    # up to row order the other five rows are a multiset of 5-bit words on
    # columns 2..6.  A repeated row, or a second all-ones row, is singular,
    # so the nonsingular multisets are among the 5-sets of nonzero words.
    tags = Counter()
    for rows in itertools.combinations(range(1, 32), 5):
        a = SignMatrix(6, 6, (0,) + tuple(x << 1 for x in rows))
        if rank(a) < 6:
            continue
        form = classify_form(a)
        check_replay(a, form)
        tags[form.tag] += 1
    assert tags == {"ConditionA": 104172, "P1": 72, "DnMinus1": 36, "DnDiag": 6}


def sparse_rows(rng, n):
    """All-ones first row, one or two -1s in every other row (near-identity shape)."""
    words = [0]
    for _ in range(n - 1):
        cols = rng.sample(range(n), rng.choice((1, 2)))
        words.append(sum(1 << c for c in cols))
    return SignMatrix(n, n, tuple(words))


def invariant_tags(rng, n, draws):
    """Tags of ``draws`` seeded orbit pairs at order n; each pair agrees."""
    seen = Counter()
    sources = [
        lambda: d_matrix(n, n, n - 1),
        lambda: d_matrix(n, n, n),
        lambda: sparse_rows(rng, n),
        lambda: SignMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))),
    ]
    for _ in range(draws):
        base = rng.choice(sources)()
        if rank(base) < n:
            continue
        a = apply(base, _random_transforms(rng, n))
        b = apply(a, _random_transforms(rng, n))
        fa, fb = classify_form(a), classify_form(b)
        check_replay(a, fa)
        check_replay(b, fb)
        assert fa.tag == fb.tag
        seen[fa.tag] += 1
    return seen


def test_tags_are_orbit_invariant_above_order_six():
    rng = random.Random(20251017)
    seen = Counter()
    for n in (7, 8, 9):
        seen += invariant_tags(rng, n, 150)
    assert set(seen) == {"ConditionA", "DnMinus1", "DnDiag"}


def test_tags_are_orbit_invariant_at_order_five():
    # D_(5,5) lies outside the D_(5,4) orbit and reaches the special form
    seen = invariant_tags(random.Random(20261018), 5, 300)
    assert set(seen) == {"DnMinus1", "D5Special"}
