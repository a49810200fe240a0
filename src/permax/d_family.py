"""Permanents of the near-identity family, by recurrence.

The matrices D_(n,k) (all ones except -1 in the first k diagonal cells)
satisfy a two-term recurrence in k with base column n!, which fills a
full triangular table far faster than evaluating each permanent.  The
table feeds the rank-conditional bound lookup and two independent
identities used as cross-checks: a Laplace-style expansion for the
k = n-1 column and a diagonal recurrence for k = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RangeError

__all__ = [
    "DTable",
    "build_table",
    "per_d_diag",
    "laplace_identity",
    "gap_value",
    "bound_for_rank",
]

_N_MAX_LIMIT = 20


@dataclass(frozen=True)
class DTable:
    """Triangular table of per D_(n,k), 0 <= k <= n <= n_max.

    Values are signed: rows n < 5 contain zero and negative entries.
    """

    n_max: int
    values: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        if not (0 <= k <= n <= self.n_max):
            raise RangeError(f"(n={n}, k={k}) outside table for n_max={self.n_max}")
        return self.values[n][k]


def build_table(n_max: int = 12) -> DTable:
    """Fill the table from per D_(n,0) = n! and the column recurrence

        per D_(n,k) = per D_(n,k-1) - 2 per D_(n-1,k-1).
    """
    if n_max > _N_MAX_LIMIT:
        raise OverflowError(f"n_max={n_max} exceeds the 64-bit guard ({_N_MAX_LIMIT})")
    if n_max < 0:
        raise RangeError("n_max must be nonnegative")
    rows: list[tuple[int, ...]] = []
    for n in range(n_max + 1):
        row = [math.factorial(n)]
        for k in range(1, n + 1):
            row.append(row[k - 1] - 2 * rows[n - 1][k - 1])
        rows.append(tuple(row))
    return DTable(n_max=n_max, values=tuple(rows))


def per_d_diag(n: int, table: DTable) -> int:
    """per D_(n,n) by the diagonal recurrence

        per D_(n,n) = (n-2) per D_(n-1,n-1) + (2n-2) per D_(n-2,n-2).
    """
    if n < 3:
        raise RangeError("diagonal recurrence needs n >= 3")
    return (n - 2) * table.value(n - 1, n - 1) + (2 * n - 2) * table.value(n - 2, n - 2)


def laplace_identity(n: int, table: DTable) -> int:
    """per D_(n,n-1) by expansion along its ones-diagonal rows.

    Equals 2 per D_(n-2,n-3) + (n^2-7n+12) per D_(n-2,n-5)
    + 2(n-3) per D_(n-2,n-4); valid for n >= 5.
    """
    if n < 5:
        raise RangeError("expansion identity needs n >= 5")
    return (
        2 * table.value(n - 2, n - 3)
        + (n * n - 7 * n + 12) * table.value(n - 2, n - 5)
        + 2 * (n - 3) * table.value(n - 2, n - 4)
    )


def gap_value(n: int, table: DTable) -> int:
    """Margin F(n) between consecutive bound columns, n >= 7.

    F(n) = (2n^3 - 16n^2 + 10n + 44) per D_(n-4,n-4)
         + (4n^3 - 36n^2 + 48n + 80) per D_(n-5,n-5).

    Positivity of F(n) is what the induction step consumes.
    """
    if n < 7:
        raise RangeError("gap polynomial needs n >= 7")
    f = 2 * n**3 - 16 * n**2 + 10 * n + 44
    g = 4 * n**3 - 36 * n**2 + 48 * n + 80
    return f * table.value(n - 4, n - 4) + g * table.value(n - 5, n - 5)


def bound_for_rank(n: int, r_plus_1: int, table: DTable) -> int:
    """Permanent bound for an n x n sign matrix of rank r+1: per D_(n,r)."""
    if not (1 <= r_plus_1 <= n <= table.n_max):
        raise RangeError(f"need 1 <= rank <= n <= {table.n_max}, got rank={r_plus_1}, n={n}")
    return table.value(n, r_plus_1 - 1)
