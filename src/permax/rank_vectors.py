"""Rank vectors of column selections, and the prefix-sum order.

The rank vector of a k x n matrix tallies its C(n,k) k-column
selections by rank, indexed by descending rank: ``counts[0]`` is the
number of selections of full rank k, ``counts[k-1]`` the number of
rank-1 selections.

A rank vector is tallied straight from the row words.  Each column is
gathered once into a line of k +-1 entries; a selection's rank is the
Bareiss rank (``exact_rank._rank_rows``) of its k lines, which is the
rank of the transposed selection.  No selection becomes a SignMatrix.
"""

from __future__ import annotations

import functools
import itertools

from .errors import RankError, ShapeError
from .exact_rank import _rank_rows
from .sign_matrix import SignMatrix, d_matrix

__all__ = [
    "RankVector",
    "rank_vector",
    "majorize_leq",
    "check_min_law",
]

RankVector = tuple[int, ...]


@functools.cache
def _selections(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of 1..n in lexicographic order, built once per shape."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def _selection_rank(lines: list[tuple[int, ...]], cols: tuple[int, ...]) -> int:
    """Rank of the selection ``cols`` from the parent's column ``lines``."""
    return _rank_rows([list(lines[j - 1]) for j in cols])


def rank_vector(a: SignMatrix) -> RankVector:
    """Rank vector of ``a``: counts[i] = k-column selections of rank k - i."""
    k = a.rows
    lines = [tuple(-1 if (w >> j) & 1 else 1 for w in a.words) for j in range(a.cols)]
    counts = [0] * k
    for cols in _selections(a.cols, k):
        counts[k - _selection_rank(lines, cols)] += 1
    return tuple(counts)


def majorize_leq(r1: RankVector, r2: RankVector) -> bool:
    """Prefix-sum order: every prefix sum of r1 is <= the same prefix of r2."""
    if len(r1) != len(r2):
        raise ShapeError(f"vector lengths differ: {len(r1)} vs {len(r2)}")
    s1 = s2 = 0
    for a, b in zip(r1, r2):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


def check_min_law(a: SignMatrix) -> bool:
    """Whether the one-short near-identity matrix sits below ``a``.

    For a full-row-rank k x n matrix, R(D_(n,k,k-1)) is expected to be
    minimal in the prefix-sum order; verify_properties raises
    PropertyFailure on a False result.  Full row rank is read off the
    rank vector: some k columns have rank k exactly when ``a`` has rank k.
    """
    k, n = a.rows, a.cols
    counts = rank_vector(a)
    if not counts[0]:
        raise RankError(f"no {k} columns of rank {k}; the minimality law needs full row rank")
    return majorize_leq(_one_short_rank_vector(n, k), counts)


@functools.cache
def _one_short_rank_vector(n: int, k: int) -> RankVector:
    """R(D_(n,k,k-1)), built once per shape."""
    return rank_vector(d_matrix(n, k, k - 1))
