"""Column-submatrix families, their rank vectors, and the prefix-sum order.

A family holds its members as 1-based column index sets of a common
parent, so duplicates-as-matrices stay distinct members and multiplicity
counts are unambiguous.  Rank vectors are indexed by descending rank:
``counts[0]`` is the number of members of full rank k, ``counts[k-1]``
the number of rank-1 members.

A rank vector is tallied straight from the parent's row words.  Each
column is gathered once into a line of k +-1 entries; a member's rank
is the Bareiss rank (``exact_rank._rank_rows``) of its k lines, which is
the rank of the transposed selection.  No member becomes a SignMatrix.
The member tuples that ``k_family`` and ``replace_family`` build are
trusted as they stand; every other family is checked member by member,
so a bad index set still raises IndexError.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import RankError, ShapeError
from .exact_rank import _rank_rows, rank
from .sign_matrix import (
    SignMatrix,
    append_column,
    check_index_set,
    d_matrix,
    submatrix_select,
)

__all__ = [
    "SubmatrixFamily",
    "k_family",
    "rank_vector",
    "family_rank_vector",
    "replace_family",
    "majorize_leq",
    "check_min_law",
    "multiplicity_law",
]

RankVector = tuple[int, ...]


@dataclass(frozen=True)
class SubmatrixFamily:
    """Multiset of k-column selections from a k x n parent."""

    parent: SignMatrix
    members: tuple[tuple[int, ...], ...]

    def member(self, i: int) -> SignMatrix:
        """Member ``i`` (0-based position in the multiset) as a matrix."""
        cols = self.members[i]
        return submatrix_select(self.parent, range(1, self.parent.rows + 1), cols)


def k_family(a: SignMatrix) -> SubmatrixFamily:
    """All C(n,k) column selections of a k x n matrix, in lexicographic order."""
    return SubmatrixFamily(parent=a, members=_selections(a.cols, a.rows))


@functools.cache
def _selections(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of 1..n in lexicographic order, built once per shape."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def _checked_members(fam: SubmatrixFamily) -> tuple[tuple[int, ...], ...]:
    """The members of ``fam``, once every one is a k-column selection of
    its parent; IndexError for a bad index set, ShapeError for a size."""
    k, n = fam.parent.rows, fam.parent.cols
    if fam.members is _selections(n, k) or (
        n == k + 1 and fam.members is _replace_members(k)
    ):
        return fam.members
    members = tuple(check_index_set(cols, n) for cols in fam.members)
    for cols in members:
        if len(cols) != k:
            raise ShapeError(f"member {cols} selects {len(cols)} columns, not {k}")
    return members


def _selection_rank(lines: list[tuple[int, ...]], cols: tuple[int, ...]) -> int:
    """Rank of the selection ``cols`` from the parent's column ``lines``."""
    return _rank_rows([list(lines[j - 1]) for j in cols])


def family_rank_vector(fam: SubmatrixFamily) -> RankVector:
    """Rank vector of a family: counts[i] = members of rank k - i."""
    a = fam.parent
    k = a.rows
    members = _checked_members(fam)
    lines = [tuple(-1 if (w >> j) & 1 else 1 for w in a.words) for j in range(a.cols)]
    counts = [0] * k
    for cols in members:
        counts[k - _selection_rank(lines, cols)] += 1
    return tuple(counts)


def rank_vector(a: SignMatrix) -> RankVector:
    """Rank vector of the full column-selection family of ``a``."""
    return family_rank_vector(k_family(a))


def replace_family(c: SignMatrix, b) -> SubmatrixFamily:
    """The k members obtained from square ``c`` by putting column ``b`` in place
    of each of its columns in turn.

    The parent is ``c`` with ``b`` appended as column k+1; member i is the
    index set {1..k+1} minus {i}.  Ranks are unchanged by the reordering
    that puts the replacement column last.
    """
    if not c.is_square:
        raise ShapeError(f"replace_family needs a square matrix, got {c.rows}x{c.cols}")
    col = list(b)
    if len(col) != c.rows:
        raise ShapeError(f"column height {len(col)} does not match order {c.rows}")
    return SubmatrixFamily(parent=append_column(c, col), members=_replace_members(c.rows))


@functools.cache
def _replace_members(k: int) -> tuple[tuple[int, ...], ...]:
    """{1..k+1} minus {i} for i = 1..k, built once per order."""
    return tuple(tuple(j for j in range(1, k + 2) if j != i) for i in range(1, k + 1))


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
    """Whether the one-short near-identity family sits below ``a``.

    For a full-row-rank k x n matrix, R(D_(n,k,k-1)) is expected to be
    minimal in the prefix-sum order; verify_properties raises
    PropertyFailure on a False result.
    """
    k, n = a.rows, a.cols
    r = rank(a)
    if r < k:
        raise RankError(f"rank {r} < row count {k}; the minimality law needs full row rank")
    return majorize_leq(_one_short_rank_vector(n, k), rank_vector(a))


@functools.cache
def _one_short_rank_vector(n: int, k: int) -> RankVector:
    """R(D_(n,k,k-1)), built once per shape."""
    return rank_vector(d_matrix(n, k, k - 1))


def multiplicity_law(a: SignMatrix, b) -> bool:
    """Provenance count of the fresh selections after appending column ``b``.

    Appending b to a k x n matrix adds the selections through column n+1.
    Collecting every replace_family member over all selections of ``a``,
    keyed by origin columns, must hit each fresh selection exactly
    n - k + 1 times.  Member i of the family built on selection gamma
    puts b in place of parent column gamma[i], so the members are counted
    from gamma alone.
    """
    col = list(b)
    if len(col) != a.rows:
        raise ShapeError(f"column height {len(col)} does not match row count {a.rows}")
    k, n = a.rows, a.cols
    seen: dict[tuple[int, ...], int] = {}
    for gamma in itertools.combinations(range(1, n + 1), k):
        for dropped in gamma:
            key = tuple(j for j in gamma if j != dropped) + (n + 1,)
            seen[key] = seen.get(key, 0) + 1
    fresh = {
        delta + (n + 1,)
        for delta in itertools.combinations(range(1, n + 1), k - 1)
    }
    if set(seen) != fresh:
        return False
    return all(count == n - k + 1 for count in seen.values())
