"""Exact rank of sign matrices over the rationals.

Fraction-free (Bareiss) elimination on integer copies of the entries.
Every intermediate is a minor of the input, so for +-1 entries and at
most 12 rows Hadamard's bound keeps its magnitude at most 12^6.
"""

from __future__ import annotations

from .sign_matrix import SignMatrix

__all__ = ["rank"]


def _rank_rows(m: list[list[int]]) -> int:
    """Rank of an integer matrix given as mutable rows; destroys ``m``."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = r
        while p < rows and m[p][c] == 0:
            p += 1
        if p == rows:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, cols):
                row_i[j] = (pivot * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
    return r


def rank(a: SignMatrix) -> int:
    """Rank of ``a`` over the rationals, computed exactly."""
    cols = range(a.cols)
    return _rank_rows([[-1 if (w >> j) & 1 else 1 for j in cols] for w in a.words])
