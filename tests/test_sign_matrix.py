"""Matrix representation, builders, transforms, and text round-trips."""

import copy
import pickle
import random

import pytest

from permax import (
    ShapeError,
    SignMatrix,
    apply,
    d_matrix,
    format_matrix_text,
    format_transforms,
    invert_transforms,
    make_matrix,
    p_matrix,
    parse_matrix_text,
    q_matrix,
    submatrix_select,
)
from permax.sign_matrix import _apply_words

J2 = make_matrix([1, 1, 1, 1], 2, 2)


def negatives(a):
    """Number of -1 entries: set bits across the row words."""
    return sum(w.bit_count() for w in a.words)


def test_entry_and_row_signs_are_one_based():
    a = make_matrix([1, -1, 1, 1, 1, -1], 2, 3)
    assert a.entry(1, 2) == -1
    assert a.entry(2, 3) == -1
    assert a.row_signs(1) == (1, -1, 1)
    assert a.row_signs(2) == (1, 1, -1)
    with pytest.raises(IndexError):
        a.entry(0, 1)
    with pytest.raises(IndexError):
        a.row_signs(3)


def test_make_matrix_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, 8)
        entries = [rng.choice((1, -1)) for _ in range(rows * cols)]
        a = make_matrix(entries, rows, cols)
        assert [e for i in range(1, rows + 1) for e in a.row_signs(i)] == entries


def test_make_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        make_matrix([1, 1], 1, 3)
    with pytest.raises(ValueError):
        make_matrix([1, 0, 1, 1], 2, 2)
    with pytest.raises(ShapeError):
        make_matrix([1] * 6, 3, 2)  # wide-or-square only
    with pytest.raises(ShapeError):
        SignMatrix(13, 13, tuple([0] * 13))


def test_sign_matrix_is_a_hashable_immutable_value():
    a, b = d_matrix(4, 4, 2), make_matrix([-1, 1, 1, 1, 1, -1, 1, 1] + [1] * 8, 4, 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a, b} == {a} and {a: 1}[b] == 1
    assert a != d_matrix(4, 4, 1) and a != d_matrix(4, 4, 3)
    assert a != a.words and a != (4, 4, a.words)
    assert SignMatrix(2, 4, (1, 2)) != SignMatrix(2, 3, (1, 2))
    assert repr(SignMatrix(2, 3, (1, 4))) == "SignMatrix(rows=2, cols=3, words=(1, 4))"
    for attr in ("rows", "cols", "words", "other"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 1)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b == d_matrix(4, 4, 2)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


def test_list_words_are_kept_as_a_tuple():
    words = [1, 2]
    a = SignMatrix(2, 2, words)
    assert a == SignMatrix(2, 2, (1, 2)) and hash(a) == hash(SignMatrix(2, 2, (1, 2)))
    words.append(3)
    words[0] = 0
    assert a.words == (1, 2) and isinstance(a.words, tuple)
    # a tuple argument is kept as it is
    t = (1, 2)
    assert SignMatrix(2, 2, t).words is t


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((0, 1, ()), ShapeError, "rows = 0 outside 1..12"),
        ((3, 2, (0, 0, 0)), ShapeError, "cols = 2 outside rows..16 (rows = 3)"),
        ((2, 3, (0,)), ShapeError, "1 row words for 2 rows"),
        ((1, 3, (8,)), ValueError, "row word 0x8 has bits beyond column 3"),
    ],
)
def test_sign_matrix_constructor_errors(args, error, message):
    with pytest.raises(error) as info:
        SignMatrix(*args)
    assert str(info.value) == message


def test_d_matrix_shape_and_negatives():
    a = d_matrix(5, 4, 3)
    assert (a.rows, a.cols) == (4, 5)
    for i in range(1, 4):
        assert a.entry(i, i) == -1
    assert negatives(a) == 3
    assert d_matrix(4, 4, 0) == make_matrix([1] * 16, 4, 4)
    with pytest.raises(ShapeError):
        d_matrix(3, 4, 1)
    with pytest.raises(ShapeError):
        d_matrix(4, 3, 4)


def test_q_matrix_line_counts():
    # two -1 per row and per column, for every order
    for m in range(2, 8):
        a = q_matrix(m)
        for i in range(1, m + 1):
            assert a.row_signs(i).count(-1) == 2
        for j in range(1, m + 1):
            assert sum(1 for i in range(1, m + 1) if a.entry(i, j) == -1) == 2
        assert negatives(a) == 2 * m
    assert q_matrix(2) == make_matrix([-1, -1, -1, -1], 2, 2)
    with pytest.raises(ShapeError):
        q_matrix(1)


def test_p_matrix_negative_counts():
    assert negatives(p_matrix(1)) == 10
    assert (p_matrix(2).rows, p_matrix(2).cols) == (6, 6)
    assert p_matrix(1).row_signs(1) == (1,) * 6
    with pytest.raises(ValueError):
        p_matrix(3)


def test_apply_step_kinds():
    a = make_matrix([1, 1, 1, -1], 2, 2)
    assert apply(a, [("negR", 1)]).row_signs(1) == (-1, -1)
    assert apply(a, [("negC", 2)]).entry(2, 2) == 1
    assert apply(a, [("swapR", 1, 2)]).row_signs(1) == (1, -1)
    assert apply(a, [("swapC", 1, 2)]).row_signs(2) == (-1, 1)
    t = apply(make_matrix([1, -1, 1, 1, 1, 1, 1, 1, 1], 3, 3), [("T",)])
    assert t.entry(2, 1) == -1 and t.entry(1, 2) == 1


def _reference_apply(entries: list[list[int]], steps) -> list[list[int]]:
    """The transforms on a list of +1/-1 rows, 1-based, one step at a time."""
    m = [row[:] for row in entries]
    for step in steps:
        kind, idx = step[0], step[1:]
        if kind == "negR":
            m[idx[0] - 1] = [-e for e in m[idx[0] - 1]]
        elif kind == "negC":
            for row in m:
                row[idx[0] - 1] *= -1
        elif kind == "swapR":
            m[idx[0] - 1], m[idx[1] - 1] = m[idx[1] - 1], m[idx[0] - 1]
        elif kind == "swapC":
            for row in m:
                row[idx[0] - 1], row[idx[1] - 1] = row[idx[1] - 1], row[idx[0] - 1]
        else:
            m = [list(col) for col in zip(*m)]
    return m


@pytest.mark.parametrize(
    "rows,cols",
    [(n, n) for n in range(2, 7)]
    + [(2, 5), (3, 7), (4, 6), (1, 4)]
    + [(1, 1), (9, 9), (12, 12), (1, 16), (3, 8), (12, 16)],
)
def test_apply_matches_list_reference(rows, cols):
    rng = random.Random(rows * 100 + cols)
    arity = {"negR": 1, "negC": 1, "swapR": 2, "swapC": 2, "T": 0}
    kinds = list(arity)[: 5 if rows == cols else 4]  # a wide matrix cannot transpose
    for _ in range(200):
        entries = [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)]
        steps = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(kinds)
            size = cols if kind in ("negC", "swapC") else rows
            steps.append((kind, *(rng.randint(1, size) for _ in range(arity[kind]))))
        a = make_matrix([e for row in entries for e in row], rows, cols)
        got = apply(a, steps)
        want = _reference_apply(entries, steps)
        assert got == make_matrix([e for row in want for e in row], rows, cols), steps
        # the word-level core gives the same words and leaves its input alone
        words = list(a.words)
        assert _apply_words(rows, cols, words, steps) == list(got.words), steps
        assert words == list(a.words)


@pytest.mark.parametrize(
    "step,error,message",
    [
        (("negR", 3), IndexError, "negR 3 outside 1..2"),
        (("negC", 0), IndexError, "negC 0 outside 1..3"),
        (("swapR", 1, 3), IndexError, "swapR 1 3 outside 1..2"),
        (("swapC", 4, 1), IndexError, "swapC 4 1 outside 1..3"),
        (("T",), ShapeError, "transpose of 2x3 leaves the rows <= cols budget"),
        (("rot", 1), ValueError, "malformed transform step ('rot', 1)"),
        (("swapR", 1), ValueError, "malformed transform step ('swapR', 1)"),
        (("T", 1), ValueError, "malformed transform step ('T', 1)"),
        ((), ValueError, "malformed transform step ()"),
    ],
    ids=["negR", "negC", "swapR", "swapC", "T", "unknown-kind", "short-swapR", "long-T", "empty"],
)
def test_apply_error_contract(step, error, message):
    a = make_matrix([1, -1, 1, 1, 1, -1], 2, 3)
    with pytest.raises(error) as info:
        apply(a, [("negR", 1), step])
    assert str(info.value) == message
    # the word-level core makes every check apply makes, with the same messages
    with pytest.raises(error) as info:
        _apply_words(2, 3, list(a.words), [("negR", 1), step])
    assert str(info.value) == message


def test_apply_fixed_points():
    assert apply(J2, [("negR", 1)]).row_signs(1) == (-1, -1)
    d = d_matrix(3, 3, 2)
    assert apply(d, [("swapC", 1, 2), ("swapR", 1, 2)]) == d


def test_transform_inversion_round_trip():
    rng = random.Random(11)
    a = p_matrix(1)
    for _ in range(100):
        steps = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(("negR", "negC", "swapR", "swapC", "T"))
            if kind == "T":
                steps.append(("T",))
            elif kind in ("negR", "negC"):
                steps.append((kind, rng.randint(1, 6)))
            else:
                steps.append((kind, rng.randint(1, 6), rng.randint(1, 6)))
        b = apply(a, steps)
        assert apply(b, invert_transforms(steps)) == a


def test_submatrix_select():
    assert submatrix_select(d_matrix(4, 4, 3), [1, 2], [1, 2]) == d_matrix(2, 2, 2)
    assert submatrix_select(p_matrix(1), [1], range(1, 7)) == make_matrix([1] * 6, 1, 6)
    corner = submatrix_select(q_matrix(3), [1, 2], [1, 2])
    assert negatives(corner) == 3
    with pytest.raises(IndexError):
        submatrix_select(q_matrix(3), [2, 1], [1, 2])  # not increasing


def test_matrix_text_round_trip():
    for a in (J2, q_matrix(4), d_matrix(6, 4, 2), p_matrix(2)):
        assert parse_matrix_text(format_matrix_text(a)) == a
    parsed = parse_matrix_text("2 2\n# comment\n 1 +1\n-1 1\n")
    assert parsed == make_matrix([1, 1, -1, 1], 2, 2)
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 1\n")


def test_transform_text_round_trip():
    seq = (("negR", 3), ("swapC", 1, 4), ("T",))
    text = format_transforms(seq)
    assert text == "negR 3; swapC 1 4; T"
    with pytest.raises(ValueError, match=r"^malformed transform step \('swapR', 1\)$"):
        format_transforms([("swapR", 1)])
