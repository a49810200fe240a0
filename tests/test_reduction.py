"""Constructive reductions: classification, orbit equivalence, and
canonical forms."""

import itertools
import random

import pytest

from permax import (
    FORM_TAGS,
    FormClass,
    RankError,
    ShapeError,
    SignMatrix,
    apply,
    canonical_form,
    classify_form,
    d_matrix,
    equivalent_to_d,
    make_matrix,
    mper,
    p_matrix,
    permanent_ryser,
    q_matrix,
    rank,
)
from permax import reduction
from permax.props import _random_transforms


def random_square(rng, n):
    return make_matrix([rng.choice((1, -1)) for _ in range(n * n)], n, n)


def assert_pair_form(b):
    """Row 1 all ones and row 2 with its m negatives in columns 1..m,
    2m <= n: the normal form ConditionA and D5Special share.  Returns m."""
    m = b.words[1].bit_count()
    assert b.words[0] == 0 and b.words[1] == (1 << m) - 1 and 2 * m <= b.rows
    return m


# --- form classification ----------------------------------------------------


def test_classify_near_identity_forms():
    f = classify_form(d_matrix(6, 6, 5))
    assert (f.tag, f.seq) == ("DnMinus1", ())
    assert classify_form(d_matrix(5, 5, 4)).tag == "DnMinus1"
    assert classify_form(d_matrix(5, 5, 5)).tag == "D5Special"
    assert classify_form(d_matrix(6, 6, 6)).tag == "DnDiag"


def test_classify_shuffled_templates_with_replay():
    rng = random.Random(20250819)
    targets = [
        ("P1", p_matrix(1)),
        ("P2", p_matrix(2)),
        ("DnDiag", d_matrix(6, 6, 6)),
        ("DnMinus1", d_matrix(6, 6, 5)),
    ]
    for want, template in targets:
        for _ in range(10):
            a = apply(template, _random_transforms(rng, 6))
            f = classify_form(a)
            assert f.tag == want
            assert apply(a, f.seq) == template  # bit-exact replay


def test_classify_condition_sample():
    rng = random.Random(6)
    for _ in range(200):
        a = random_square(rng, 6)
        if rank(a) < 6:
            continue
        f = classify_form(a)
        assert f.tag in FORM_TAGS
        if f.tag == "ConditionA":
            assert assert_pair_form(apply(a, f.seq)) == 3
            return
    raise AssertionError("no ConditionA sample in 200 seeded draws")


def test_classify_condition_far_pair_at_order_seven():
    # rows 1 and 3 are the first pair at distance 3..4, and at distance 4
    # row 3 is negated too, which leaves its three -1s for columns 1..3
    a = SignMatrix(7, 7, (0b1000001, 0b1000011, 0b0011101, 0b1100001, 0b0001000, 0b0100000, 0b0001111))
    f = classify_form(a)
    steps = [("negC", 1), ("negC", 7), ("negR", 3), ("swapR", 2, 3)]
    steps += [("swapC", 3, 6), ("swapC", 4, 6), ("swapC", 5, 6)]
    assert f == FormClass("ConditionA", tuple(steps))
    assert assert_pair_form(apply(a, f.seq)) == 3


def test_classify_order_five_totality():
    # every nonsingular order-5 sample lands on the near-identity form
    # or the two-row special template, and the replay verifies
    rng = random.Random(61)
    seen = set()
    for _ in range(150):
        a = random_square(rng, 5)
        if rank(a) < 5:
            continue
        f = classify_form(a)
        assert f.tag in ("DnMinus1", "D5Special")
        seen.add(f.tag)
        replay = apply(a, f.seq)
        if f.tag == "DnMinus1":
            assert replay == d_matrix(5, 5, 4)
        else:
            assert assert_pair_form(replay) == 2
    assert seen == {"DnMinus1", "D5Special"}


def test_classify_rejects_bad_inputs():
    with pytest.raises(RankError):
        classify_form(make_matrix([1] * 36, 6, 6))
    with pytest.raises(ShapeError):
        classify_form(d_matrix(4, 4, 4))


def test_classify_singular_two_per_line_template():
    # the one singular family the order-6 case analysis names
    rng = random.Random(67)
    for _ in range(10):
        a = apply(p_matrix(2), _random_transforms(rng, 6))
        f = classify_form(a)
        assert f.tag == "P2"
        assert apply(a, f.seq) == p_matrix(2)


def test_classification_needs_no_canonical_forms(monkeypatch):
    def refuse(*args):
        raise RuntimeError("canonical form requested")

    monkeypatch.setattr(reduction, "_canonical_with_seq", refuse)
    rng = random.Random(101)
    for template in (p_matrix(1), p_matrix(2), d_matrix(6, 6, 5), d_matrix(6, 6, 6)):
        for _ in range(10):
            a = scramble(rng, template)
            assert apply(a, classify_form(a).seq) == template
    seen = 0
    while seen < 10:
        a = random_square(rng, 6)
        if rank(a) == 6:
            f = classify_form(a)
            assert f.tag == "ConditionA" and assert_pair_form(apply(a, f.seq)) == 3
            seen += 1
    with pytest.raises(RankError):
        classify_form(d_matrix(6, 6, 4))  # rank 5, like P2
    assert classify_form(p_matrix(1)) == FormClass("P1", ())
    assert classify_form(p_matrix(2)) == FormClass("P2", ())


def has_pair_at_distance(a, d):
    """Whether two rows, or two columns, of ``a`` differ in d positions."""
    cols = [sum((w >> c & 1) << r for r, w in enumerate(a.words)) for c in range(a.cols)]
    pairs = itertools.chain(itertools.combinations(a.words, 2), itertools.combinations(cols, 2))
    return any((x ^ y).bit_count() == d for x, y in pairs)


def test_p2_orbit_exhaustively():
    # Negating columns to an all-ones row 1 and signing every other row to
    # at most two -1s carries every member of P2's orbit (no two rows at
    # distance 3) to a row 1 of ones and five rows among the 22 words of
    # weight <= 2, up to row order.  On each singular multiset the P2 tag
    # must agree with canonical forms, computed only where the orbit
    # invariants |per| = 16 and "no row or column pair at distance 3"
    # already match P2's.
    p2 = p_matrix(2)
    p2_canon = canonical_form(p2)
    light = [w for w in range(64) if w.bit_count() <= 2]
    members = 0
    for rows in itertools.combinations_with_replacement(light, 5):
        a = SignMatrix(6, 6, (0,) + rows)
        if rank(a) == 6:
            continue
        in_orbit = (
            abs(permanent_ryser(a)) == 16
            and not has_pair_at_distance(a, 3)
            and canonical_form(a) == p2_canon
        )
        try:
            f = classify_form(a)
        except RankError:
            assert not in_orbit, rows
            continue
        assert in_orbit and f.tag == "P2" and apply(a, f.seq) == p2, rows
        members += 1
    assert members == 90


def test_singular_order_six_outside_p2_raises():
    with pytest.raises(RankError):
        classify_form(d_matrix(6, 6, 4))  # rank 5, like P2
    rng = random.Random(83)
    p2 = canonical_form(p_matrix(2))
    seen = 0
    while seen < 10:
        a = random_square(rng, 6)
        if rank(a) == 6 or canonical_form(a) == p2:
            continue
        with pytest.raises(RankError):
            classify_form(a)
        seen += 1


# --- orbit equivalence ------------------------------------------------------


def test_equivalent_to_d_values():
    assert equivalent_to_d(d_matrix(4, 4, 4), 3) is None
    assert equivalent_to_d(make_matrix([1] * 25, 5, 5), 0) == ()
    seq = equivalent_to_d(d_matrix(3, 3, 3), 2)
    assert seq is not None
    assert apply(d_matrix(3, 3, 3), seq) == d_matrix(3, 3, 2)


def test_equivalent_to_d_on_orbit_elements():
    rng = random.Random(71)
    for n, r in ((4, 2), (5, 4), (6, 5), (6, 6)):
        target = d_matrix(n, n, r)
        for _ in range(5):
            a = apply(target, _random_transforms(rng, n))
            seq = equivalent_to_d(a, r)
            assert seq is not None
            assert apply(a, seq) == target


def test_equivalent_to_d_beyond_exhaustive_orders():
    rng = random.Random(73)
    for r in (6, 7):
        target = d_matrix(7, 7, r)
        a = apply(target, _random_transforms(rng, 7))
        seq = equivalent_to_d(a, r)
        assert seq is not None and apply(a, seq) == target
    ones = make_matrix([1] * 49, 7, 7)
    tilted = apply(ones, (("negR", 3), ("negC", 6)))
    seq = equivalent_to_d(tilted, 0)
    assert seq is not None and apply(tilted, seq) == ones
    # the all-ones orbit is D_(7,0): no signing yields 6 cells
    assert equivalent_to_d(ones, 6) is None


def test_equivalent_to_d_mismatches():
    assert equivalent_to_d(q_matrix(3), 1) is None
    assert equivalent_to_d(d_matrix(5, 5, 3), 2) is None


def orbit_labels(k, n):
    """Orbit label of every k x n matrix, as a tuple of row words.

    Breadth-first closure under row and column negations, adjacent row
    and column swaps, and the transpose when square; each orbit is
    labelled by the first member reached.
    """
    full = (1 << n) - 1

    def moves(words):
        for i in range(k):
            yield words[:i] + (words[i] ^ full,) + words[i + 1:]
        for j in range(n):
            yield tuple(w ^ (1 << j) for w in words)
        for i in range(k - 1):
            yield words[:i] + (words[i + 1], words[i]) + words[i + 2:]
        for j in range(n - 1):
            pair = 3 << j
            yield tuple(w ^ pair if ((w >> j) ^ (w >> (j + 1))) & 1 else w for w in words)
        if k == n:
            yield tuple(sum(((words[i] >> j) & 1) << i for i in range(k)) for j in range(n))

    label = {}
    for start in itertools.product(range(1 << n), repeat=k):
        if start in label:
            continue
        label[start] = start
        queue = [start]
        for words in queue:
            for nxt in moves(words):
                if nxt not in label:
                    label[nxt] = start
                    queue.append(nxt)
    return label


@pytest.mark.parametrize(
    "k, n", [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4)]
)
def test_equivalent_to_d_matches_orbit_closure(k, n):
    label = orbit_labels(k, n)
    targets = [d_matrix(n, k, r) for r in range(k + 1)]
    for words, orbit in label.items():
        a = SignMatrix(k, n, words)
        for r, target in enumerate(targets):
            seq = equivalent_to_d(a, r)
            assert (seq is not None) == (orbit == label[target.words]), (words, r)
            if seq is not None:
                assert apply(a, seq) == target


def scramble(rng, a):
    """A copy of ``a`` with random row and column signs and uniformly random
    row and column orders, transposed half the time when square."""
    k, n = a.rows, a.cols
    steps = [("negR", i) for i in range(1, k + 1) if rng.random() < 0.5]
    steps += [("negC", j) for j in range(1, n + 1) if rng.random() < 0.5]
    steps += [("swapR", i, rng.randint(i, k)) for i in range(1, k + 1)]
    steps += [("swapC", j, rng.randint(j, n)) for j in range(1, n + 1)]
    if k == n and rng.random() < 0.5:
        steps.append(("T",))
    return apply(a, steps)


# square orders 5-10 and every wide shape up to 4 x 8
SHAPES = [(n, n) for n in range(5, 11)] + [
    (k, n) for k in range(1, 5) for n in range(k + 1, 9)
]


def test_equivalent_to_d_replays_on_scrambled_targets():
    rng = random.Random(89)
    for k, n in SHAPES:
        for r in range(k + 1):
            target = d_matrix(n, k, r)
            for _ in range(3):
                a = scramble(rng, target)
                seq = equivalent_to_d(a, r)
                assert seq is not None and apply(a, seq) == target, (k, n, r, a)


def test_equivalent_to_d_refuses_perturbed_targets():
    # flipping one cell of an orbit member lands outside the orbit
    # whenever it changes the rank or the selection sum of |per|
    rng = random.Random(97)
    refused = 0
    for k, n in SHAPES:
        for r in range(k + 1):
            target = d_matrix(n, k, r)
            a = scramble(rng, target)
            for _ in range(3):
                i = rng.randrange(k)
                words = list(a.words)
                words[i] ^= 1 << rng.randrange(n)
                b = SignMatrix(k, n, tuple(words))
                if rank(b) != rank(target) or mper(b) != mper(target):
                    assert equivalent_to_d(b, r) is None, (k, n, r, b)
                    refused += 1
    assert refused >= 300


# --- canonical forms --------------------------------------------------------


def test_canonical_form_orbit_invariance():
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = random_square(rng, n)
        t = _random_transforms(rng, n)
        assert canonical_form(a) == canonical_form(apply(a, t))
    # at orders 5-6 the search merges frontier states; a merge key that
    # drops one row passes every order-1-4 check but fails about one pair
    # in five here
    for n in (5, 6):
        for _ in range(60):
            a = random_square(rng, n)
            t = _random_transforms(rng, n)
            assert canonical_form(a) == canonical_form(apply(a, t)), (a.words, t)


def test_canonical_form_fixed_points_and_separation():
    j5 = make_matrix([1] * 25, 5, 5)
    assert canonical_form(j5) == j5
    shuffled = apply(d_matrix(5, 5, 4), (("negR", 2), ("swapC", 1, 5), ("negC", 3)))
    assert canonical_form(shuffled) == canonical_form(d_matrix(5, 5, 4))
    assert canonical_form(d_matrix(5, 5, 4)) != canonical_form(d_matrix(5, 5, 3))


def test_canonical_form_preserves_invariants():
    rng = random.Random(83)
    for _ in range(20):
        a = random_square(rng, 4)
        c = canonical_form(a)
        assert rank(c) == rank(a)
        assert abs(permanent_ryser(c)) == abs(permanent_ryser(a))


def test_canonical_form_order_six_and_guard():
    assert canonical_form(p_matrix(1)) == canonical_form(
        apply(p_matrix(1), (("swapR", 2, 5), ("negC", 4), ("negR", 4)))
    )
    with pytest.raises(ShapeError):
        canonical_form(make_matrix([1] * 49, 7, 7))


def _orbit(words, n):
    """Every image of an order-n matrix under every row and column
    permutation, row and column negation, and the transpose."""
    full = (1 << n) - 1
    transposed = tuple(sum((w >> j & 1) << i for i, w in enumerate(words)) for j in range(n))
    images = set()
    for m in (words, transposed):
        for perm in itertools.permutations(range(n)):
            moved = [sum((w >> c & 1) << j for j, c in enumerate(perm)) for w in m]
            for col_neg in range(1 << n):
                for row_neg in range(1 << n):
                    signed = [w ^ col_neg ^ (full if row_neg >> i & 1 else 0) for i, w in enumerate(moved)]
                    images.update(itertools.permutations(signed))
    return images


def _least_code(images, n):
    """The image whose row-major code (bit 1 = entry -1, column 1 read
    first) is least."""
    return min(images, key=lambda ws: [w >> j & 1 for w in ws for j in range(n)])


def test_canonical_form_is_the_orbit_minimum():
    # brute force over the whole group, independent of the search: every
    # matrix of orders 1-3, and every normalized order-4 matrix (all-ones
    # first row and column), which meets all ten order-4 orbits
    inputs = []
    for n in (1, 2, 3):
        full = (1 << n) - 1
        inputs += [(n, tuple(x >> n * i & full for i in range(n))) for x in range(1 << n * n)]
    inputs += [(4, (0, *rest)) for rest in itertools.product(range(0, 16, 2), repeat=3)]
    least = {}
    for n, words in inputs:
        if words not in least:
            orbit = _orbit(words, n)
            least.update(dict.fromkeys(orbit, _least_code(orbit, n)))
        assert canonical_form(SignMatrix(n, n, words)).words == least[words], words
    assert len({least[words] for n, words in inputs if n == 4}) == 10
    rng = random.Random(97)
    samples = [random_square(rng, 4) for _ in range(6)]
    samples += [apply(d_matrix(4, 4, r), _random_transforms(rng, 4)) for r in (2, 3, 4)]
    for a in samples:
        assert canonical_form(a).words == _least_code(_orbit(a.words, 4), 4), a.words


# canonical words of the nine order-6 templates, computed before the search
# merged frontier states up to cell relabeling; a change to the search must
# not relabel an orbit
TEMPLATE_CANON = {
    "D0": (0, 0, 0, 0, 0, 0),
    "D1": (0, 0, 0, 0, 0, 32),
    "D2": (0, 0, 0, 0, 32, 16),
    "D3": (0, 0, 0, 32, 16, 8),
    "D4": (0, 0, 32, 16, 8, 4),
    "D5": (0, 32, 16, 8, 4, 2),
    "D6": (0, 48, 40, 36, 34, 30),
    "P1": (0, 48, 40, 20, 10, 6),
    "P2": (0, 48, 40, 36, 18, 46),
}


def test_template_canonical_words_are_pinned():
    rng = random.Random(101)
    templates = {f"D{r}": d_matrix(6, 6, r) for r in range(7)}
    templates.update(P1=p_matrix(1), P2=p_matrix(2))
    for name, t in templates.items():
        for k in range(6):
            steps = [("negR", i) for i in range(1, 7) if rng.random() < 0.5]
            steps += [("negC", j) for j in range(1, 7) if rng.random() < 0.5]
            steps += [("swapR", i, rng.randint(i, 6)) for i in range(1, 7)]
            steps += [("swapC", j, rng.randint(j, 6)) for j in range(1, 7)]
            steps += [("T",)] * (k % 2)
            assert canonical_form(apply(t, steps)).words == TEMPLATE_CANON[name], (name, steps)


# --- witness form -----------------------------------------------------------

STEP_RANK = {"T": 0, "negC": 1, "negR": 2, "swapR": 3, "swapC": 4}


def assert_normal_form(seq):
    """An optional T, then negC on strictly increasing columns, then negR on
    strictly increasing rows, then swapR, then swapC."""
    ranks = [STEP_RANK[step[0]] for step in seq]
    assert ranks == sorted(ranks) and ranks.count(0) <= 1, seq
    for kind in ("negC", "negR"):
        lines = [step[1] for step in seq if step[0] == kind]
        assert lines == sorted(set(lines)), seq


def test_every_witness_has_the_normal_form():
    rng = random.Random(103)
    order_five = [
        SignMatrix(5, 5, (0,) + tuple(x << 1 for x in rows))
        for rows in itertools.combinations(range(1, 16), 4)
    ]
    templates = [d_matrix(6, 6, r) for r in range(7)] + [p_matrix(1), p_matrix(2)]
    order_six = [scramble(rng, t) for t in templates for _ in range(10)]
    order_six += [random_square(rng, 6) for _ in range(30)]  # mostly ConditionA
    tags = set()
    for a in order_five + order_six:
        try:
            form = classify_form(a)
        except RankError:
            pass
        else:
            assert_normal_form(form.seq)
            tags.add(form.tag)
        for r in range(a.rows + 1):
            seq = equivalent_to_d(a, r)
            if seq is not None:
                assert_normal_form(seq)
        assert_normal_form(reduction._canonical_with_seq(a)[1])
    assert tags == set(FORM_TAGS)
