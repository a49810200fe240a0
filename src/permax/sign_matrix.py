"""Bit-packed (-1,1)-matrices, special families, and standard transformations.

A matrix entry is +1 or -1; each row is stored as an integer word where bit
(j-1) set means the entry in column j equals -1.  The all-ones matrix is the
all-zero word tuple, and the number of -1 entries is a popcount.

Shape budget: 1 <= rows <= 12 and rows <= cols <= 16.  The budget keeps every
permanent within signed 64-bit range and every row word in one 16-bit lane.
Transposition is therefore only defined for square matrices (a wide matrix
would transpose to a tall one, outside the budget).

Transform steps are plain tuples:

    ("negR", i)       multiply row i by -1
    ("negC", j)       multiply column j by -1
    ("swapR", i, k)   exchange rows i and k
    ("swapC", j, k)   exchange columns j and k
    ("T",)            transpose (square only)

All indices are 1-based.  A transform sequence is any iterable of steps; the
text form used by the CLI is semicolon-separated, e.g. ``negR 3; swapC 1 4; T``.
"""

from __future__ import annotations

from .errors import ShapeError

__all__ = [
    "SignMatrix",
    "make_matrix",
    "d_matrix",
    "q_matrix",
    "p_matrix",
    "apply",
    "invert_transforms",
    "submatrix_select",
    "parse_matrix_text",
    "format_matrix_text",
    "format_transforms",
]

MAX_ROWS = 12
MAX_COLS = 16

_object_setattr = object.__setattr__


class SignMatrix:
    """Immutable (-1,1)-matrix with bit-packed rows (set bit = entry -1).

    Matrices are values: equal when their shapes and row words are, and
    hashable.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ("rows", "cols", "words")

    rows: int
    cols: int
    words: tuple[int, ...]

    def __init__(self, rows: int, cols: int, words: tuple[int, ...]) -> None:
        # a tuple, so the caller's list cannot change the value or its hash
        words = tuple(words)
        if not (1 <= rows <= MAX_ROWS):
            raise ShapeError(f"rows = {rows} outside 1..{MAX_ROWS}")
        if not (rows <= cols <= MAX_COLS):
            raise ShapeError(f"cols = {cols} outside rows..{MAX_COLS} (rows = {rows})")
        if len(words) != rows:
            raise ShapeError(f"{len(words)} row words for {rows} rows")
        mask = (1 << cols) - 1
        for w in words:
            if w & ~mask:
                raise ValueError(f"row word {w:#x} has bits beyond column {cols}")
        _object_setattr(self, "rows", rows)
        _object_setattr(self, "cols", cols)
        _object_setattr(self, "words", words)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.words) == (other.rows, other.cols, other.words)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}"
            f"(rows={self.rows!r}, cols={self.cols!r}, words={self.words!r})"
        )

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor,
        # since the blocked __setattr__ rules out restoring slot state
        return self.__class__, (self.rows, self.cols, self.words)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j), as +1 or -1."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return -1 if (self.words[i - 1] >> (j - 1)) & 1 else 1

    def row_signs(self, i: int) -> tuple[int, ...]:
        """Row i as a tuple of +1/-1 entries."""
        if not (1 <= i <= self.rows):
            raise IndexError(f"row {i} outside 1..{self.rows}")
        w = self.words[i - 1]
        return tuple(-1 if (w >> j) & 1 else 1 for j in range(self.cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def make_matrix(entries: list[int], rows: int, cols: int) -> SignMatrix:
    """Build a matrix from a row-major list of +1/-1 entries."""
    if len(entries) != rows * cols:
        raise ShapeError(f"{len(entries)} entries for shape {rows}x{cols}")
    words = []
    for i in range(rows):
        w = 0
        for j in range(cols):
            e = entries[i * cols + j]
            if e == -1:
                w |= 1 << j
            elif e != 1:
                raise ValueError(f"entry {e!r} at ({i + 1},{j + 1}) is not +1 or -1")
        words.append(w)
    return SignMatrix(rows, cols, tuple(words))


def d_matrix(n: int, k: int, l: int) -> SignMatrix:
    """The k x n matrix with -1 exactly at (i, i) for i <= l, +1 elsewhere.

    Arguments follow the family's subscript order (columns, rows, negatives);
    the square member of order n is ``d_matrix(n, n, l)``.
    """
    if not (0 <= l <= k <= n):
        raise ShapeError(f"need 0 <= l <= k <= n, got l={l}, k={k}, n={n}")
    return SignMatrix(k, n, tuple((1 << i) if i < l else 0 for i in range(k)))


def q_matrix(m: int) -> SignMatrix:
    """Square matrix of order m with -1 on the diagonal, superdiagonal, and corner (m, 1).

    Every row and column has exactly two -1 entries; odd orders are
    nonsingular and even orders are singular.
    """
    if m < 2:
        raise ShapeError(f"q_matrix needs m >= 2, got {m}")
    words = []
    for i in range(m):
        w = 1 << i
        w |= 1 << (i + 1) if i + 1 < m else 1  # wrap: last row's second -1 at column 1
        words.append(w)
    return SignMatrix(m, m, tuple(words))


# the two exceptional order-6 matrices, one string per row ("-" marks -1)
_P_ROWS = {
    1: ("++++++", "+--+++", "++--++", "+++--+", "++++--", "+-+++-"),
    2: ("++++++", "--++++", "-+-+++", "-++-++", "+++--+", "+++-+-"),
}


def p_matrix(which: int) -> SignMatrix:
    """The two exceptional 6x6 matrices with permanent 16: P1 nonsingular, P2 of rank 5."""
    if which not in _P_ROWS:
        raise ValueError(f"p_matrix expects 1 or 2, got {which}")
    return make_matrix([-1 if c == "-" else 1 for row in _P_ROWS[which] for c in row], 6, 6)


def _check_index_set(members, n: int) -> tuple[int, ...]:
    """Validate a nonempty, strictly increasing 1-based index set drawn from {1..n}."""
    ix = tuple(members)
    if not ix:
        raise IndexError("empty index set not allowed here")
    prev = 0
    for v in ix:
        if not isinstance(v, int) or not (1 <= v <= n):
            raise IndexError(f"index {v!r} outside 1..{n}")
        if v <= prev:
            raise IndexError(f"index set {ix} is not strictly increasing")
        prev = v
    return ix


def _transpose_words(words, cols: int) -> tuple[int, ...]:
    """The columns of row ``words`` as row words."""
    return tuple(sum(((w >> j) & 1) << i for i, w in enumerate(words)) for j in range(cols))


_STEP_ARITY = {"negR": 1, "negC": 1, "swapR": 2, "swapC": 2, "T": 0}


def _check_step(step) -> str:
    """The kind of ``step``; raises ValueError unless kind and arity match."""
    if not step or _STEP_ARITY.get(step[0]) != len(step) - 1:
        raise ValueError(f"malformed transform step {step!r}")
    return step[0]


def apply(a: SignMatrix, steps) -> SignMatrix:
    """Apply a transform sequence in order.  Preserves |permanent| and rank.

    A step's arity names its action (0 transpose, 1 negate, 2 swap) and
    its last letter its axis; only a square matrix transposes, so the
    shape never changes.
    """
    rows, cols = a.rows, a.cols
    words = list(a.words)
    for step in steps:
        kind = _check_step(step)
        if kind == "T":
            if rows != cols:
                raise ShapeError(f"transpose of {rows}x{cols} leaves the rows <= cols budget")
            words = list(_transpose_words(words, cols))
            continue
        i, k = step[1], step[-1]  # one and the same index for a negation
        size = cols if kind[-1] == "C" else rows
        if not (1 <= i <= size and 1 <= k <= size):
            raise IndexError(f"{format_transforms([step])} outside 1..{size}")
        if kind[-1] == "C":
            # bits holds the step's columns (one for swapC j j): a negation
            # flips them in every row, a swap in the rows where they differ
            bits, flip = 1 << (i - 1) | 1 << (k - 1), kind == "negC"
            words = [w ^ bits if flip or 0 < w & bits < bits else w for w in words]
        elif kind == "negR":
            words[i - 1] ^= (1 << cols) - 1
        else:
            words[i - 1], words[k - 1] = words[k - 1], words[i - 1]
    return SignMatrix(rows, cols, tuple(words))


def format_transforms(steps) -> str:
    """The text form of a transform sequence, e.g. ``negR 3; swapC 1 4; T``."""
    return "; ".join(" ".join([_check_step(s), *map(str, s[1:])]) for s in steps)


def invert_transforms(steps) -> tuple[tuple, ...]:
    """Inverse sequence: every step is an involution, so reverse the order."""
    return tuple(reversed(tuple(steps)))


def submatrix_select(a: SignMatrix, alpha, beta) -> SignMatrix:
    """Submatrix on the intersection of rows alpha and columns beta."""
    ra = _check_index_set(alpha, a.rows)
    cb = _check_index_set(beta, a.cols)
    words = []
    for i in ra:
        w = a.words[i - 1]
        words.append(sum(((w >> (j - 1)) & 1) << p for p, j in enumerate(cb)))
    return SignMatrix(len(ra), len(cb), tuple(words))


# --- text format -----------------------------------------------------------
#
# First line "k n"; then k lines of n whitespace-separated tokens, each "+1",
# "1", or "-1".  Blank lines are ignored; '#' starts a comment line.


def parse_matrix_text(text: str) -> SignMatrix:
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header must be 'rows cols', got {lines[0]!r}") from None
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} matrix lines, found {len(lines) - 1}")
    entries: list[int] = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise ValueError(f"expected {cols} entries per line, got {len(toks)}: {ln!r}")
        for t in toks:
            if t in ("+1", "1"):
                entries.append(1)
            elif t == "-1":
                entries.append(-1)
            else:
                raise ValueError(f"bad entry token {t!r}")
    return make_matrix(entries, rows, cols)


def format_matrix_text(a: SignMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for i in range(1, a.rows + 1):
        lines.append(" ".join(f"{e:2d}" for e in a.row_signs(i)))
    return "\n".join(lines) + "\n"
