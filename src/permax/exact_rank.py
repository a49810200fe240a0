"""Exact rank of sign matrices over the rationals.

One normalizing step first: XOR every row word with row 1, which negates
the columns where row 1 holds -1 and makes row 1 all ones, and complement
each other row whose column-1 bit is then set, which negates that row.
Both keep the rank.  Subtracting row 1 from every other row then leaves
-2 times the 0/1 matrix of their bits past column 1, so the rank is 1
plus the rank of that (k-1) x (n-1) 0/1 matrix.

That rank comes from fraction-free (Bareiss) elimination on integer
copies of the bits.  Every intermediate is a minor of the 0/1 matrix.
An order-m 0/1 minor is 2^-m times the determinant of a sign matrix of
order m + 1 (the same step run backwards), so with at most 11 rows
Hadamard's bound keeps its magnitude at most 12^6 / 2^11, under 1,500.
"""

from __future__ import annotations

from .sign_matrix import SignMatrix

__all__ = ["rank"]


def _rank_rows(m: list[list[int]]) -> int:
    """Rank of an integer matrix given as mutable rows; destroys ``m``.
    Every intermediate is a minor of ``m``."""
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


def _rank_words(cols: int, words) -> int:
    """Rank of the sign matrix with row words ``words`` of ``cols``
    columns, by the normalizing step of the module docstring.  Zero rows
    and repeats of a row of the 0/1 matrix leave its rank alone, so they
    are dropped, and two distinct nonzero 0/1 rows are never
    proportional, so up to two rows left are independent."""
    first = words[0]
    mask = (1 << cols) - 2  # the bits past column 1
    rest = {}  # a dict keeps the rows in order, which Bareiss's cost depends on
    for w in words[1:]:
        w ^= first
        rest[(~w if w & 1 else w) & mask] = None
    rest.pop(0, None)
    if len(rest) < 3:
        return 1 + len(rest)
    bits = range(1, cols)
    return 1 + _rank_rows([[(w >> j) & 1 for j in bits] for w in rest])


def rank(a: SignMatrix) -> int:
    """Rank of ``a`` over the rationals, computed exactly."""
    return _rank_words(a.cols, a.words)
