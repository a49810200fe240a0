"""Constructive reductions under the standard transformations.

Every public operation that claims a reduction returns the transform
sequence realizing it, and the sequence is replayed before returning,
so callers can trust the witness bit-exactly.  Every witness has one
form, built and replayed by _witness: an optional transpose, column
negations, row negations, a row order and a column order.

equivalent_to_d decides membership in a near-identity orbit at every
order and shape by one signing test.  canonical_form (order <= 6) is a
standalone orbit label; no other operation uses it.

classify_form takes its near-identity tags from equivalent_to_d:
DnMinus1 at every order, DnDiag at order >= 6.  Condition A (order >= 6)
and the special form (order 5) come from one pair search, _pair_seq:
some two rows, or two columns, differ in d positions with
lo <= d <= n-lo.  One witness carries such a pair onto one normal form:
row 1 all ones, and row 2 with its m = min(d, n-d) negatives in columns
1..m.  With lo = 3 at order >= 6 that is condition A, tested first; at
order 5, outside the D_(5,4) orbit, lo = 2 always finds a pair, which is
the special form.  At order 6 the nonsingular matrices left are the P1
orbit, and the singular ones the classification names are the P2 orbit;
one template match reaches either.  All ties break toward the lowest
index, which keeps the output deterministic.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import RankError, ShapeError
from .exact_rank import rank
from .sign_matrix import SignMatrix, _transpose_words, apply, d_matrix, p_matrix

__all__ = [
    "FORM_TAGS",
    "FormClass",
    "classify_form",
    "equivalent_to_d",
    "canonical_form",
]

FORM_TAGS = ("DnMinus1", "DnDiag", "P1", "P2", "ConditionA", "D5Special")

# the two exceptional order-6 templates, built once
_TEMPLATES = {"P1": p_matrix(1), "P2": p_matrix(2)}


class FormClass(namedtuple("FormClass", "tag seq")):
    """Classification outcome: a tag and the sequence that reaches it."""

    __slots__ = ()


def _swaps(kind: str, order) -> list[tuple]:
    """Swap steps of ``kind`` that bring line order[p] to position p (0-based
    lines, 1-based steps)."""
    current = list(range(len(order)))
    steps: list[tuple] = []
    for p, want in enumerate(order):
        q = current.index(want)
        if q != p:
            steps.append((kind, p + 1, q + 1))
            current[p], current[q] = current[q], current[p]
    return steps


def _witness(
    a: SignMatrix, what: str, holds, t: int, colmask: int, rowmask: int, row_order, col_order
) -> tuple[tuple, ...]:
    """The one witness form, replayed: transpose ``a`` when ``t``, negate the
    columns in ``colmask`` and then the rows in ``rowmask`` (bit i = line
    i+1), and move row row_order[p] and column col_order[p] to position p.
    Raises RuntimeError unless ``holds`` is true of the replayed matrix."""
    steps = [("T",)] if t else []
    steps += [("negC", j + 1) for j in range(a.cols) if colmask >> j & 1]
    steps += [("negR", i + 1) for i in range(a.rows) if rowmask >> i & 1]
    steps += _swaps("swapR", row_order)
    steps += _swaps("swapC", col_order)
    if not holds(apply(a, steps)):
        raise RuntimeError(f"replayed sequence does not reach {what}")
    return tuple(steps)


# --- canonical orbit representative -----------------------------------------
#
# Minimal row-major 0/1 code (bit 1 = entry -1, column 1 read first) over the
# full orbit: negations, row and column permutations, and the transpose.  The
# search anchors one row as all-ones, which fixes the column negations (the
# negated anchor complements every other row, a state the merge below
# already holds, so it is not tried).  It then extends row by row over a
# breadth-first frontier that keeps only the states reaching the least code
# so far.  A state holds its unplaced rows as words read in its cell order,
# and the original column at each position.  Cells are contiguous position
# ranges, refined by each placed row into its +1 part and then its -1 part;
# a split is stable, so within a cell positions keep ascending column order.
#
# Read within a cell as zeros then ones, a candidate row's code is fixed by
# its count of -1s per cell, and a smaller count in an earlier cell is a
# smaller code.  The cell sizes are fixed by the code prefix, hence equal in
# every state at one depth, so count tuples compare across states: one pass
# finds the least count tuple over every (state, row, sign), and only the
# candidates tied on it refine their cells, relabelling the remaining rows
# through the new position order.  The code row is rebuilt from the cell
# sizes and the counts.
#
# Two states merge when their remaining rows, taken up to sign, form the
# same multiset.  The merge is exact: the positions give a column bijection
# that maps each cell onto the cell of the same rank and the one state's
# remaining rows onto the other's, up to sign.  Counts per cell, and the
# refinements they make, are preserved under it, and every row is tried
# with both signs, so both states reach the same future codes.  Symmetric
# inputs thus keep a frontier of a few states instead of branching
# factorially.


def _canonical_with_seq(a: SignMatrix) -> tuple[SignMatrix, tuple[tuple, ...]]:
    n = a.rows
    mask = (1 << n) - 1

    def key(rest):
        return tuple(sorted(min(v, v ^ mask) for v, _ in rest))

    # state: (unplaced rows as (word in cell order, row index), the column
    #         at each position, (t, anchor row, anchor word), placements)
    frontier: dict = {}
    for t, words in ((0, a.words), (1, _transpose_words(a.words, n))):
        for r0 in range(n):
            rest = tuple((w ^ words[r0], k) for k, w in enumerate(words) if k != r0)
            frontier.setdefault(key(rest), (rest, tuple(range(n)), (t, r0, words[r0]), ()))

    code = [0]
    sizes = (n,)
    for _depth in range(1, n):
        offsets = tuple(itertools.accumulate(sizes, initial=0))
        cells = [((1 << s) - 1) << o for s, o in zip(sizes, offsets)]
        best, ties = (n + 1,), []  # above every count tuple
        for state in frontier.values():
            for j, (v, _k) in enumerate(state[0]):
                for f, u in ((0, v), (1, v ^ mask)):
                    counts = tuple([(u & g).bit_count() for g in cells])
                    if counts < best:
                        best, ties = counts, []
                    if counts == best:
                        ties.append((state, j, f, u))
        extensions: dict = {}
        for (rest, cols, origin, placed), j, f, u in ties:
            # the new position order: each cell's zeros of u, then its ones
            order = [p for s, o in zip(sizes, offsets) for b in (0, 1) for p in range(o, o + s) if u >> p & 1 == b]
            moved = []
            for w, k in rest[:j] + rest[j + 1 :]:
                v = 0
                for q, p in enumerate(order):
                    if w >> p & 1:
                        v |= 1 << q
                moved.append((v, k))
            state = (tuple(moved), tuple([cols[p] for p in order]), origin, placed + ((rest[j][1], f),))
            extensions.setdefault(key(moved), state)
        frontier = extensions
        code.append(sum(((1 << c) - 1) << (o + s - c) for s, o, c in zip(sizes, offsets, best)))
        sizes = tuple(x for s, c in zip(sizes, best) for x in (s - c, c) if x)

    # all surviving states realize the same minimal code; take the first
    _rest, col_order, (t, r0, colmask), placed = next(iter(frontier.values()))
    canon = SignMatrix(n, n, tuple(code))
    rowmask = sum(1 << i for i, f in placed if f)
    row_order = [r0] + [i for i, _f in placed]
    return canon, _witness(a, "the canonical form", canon.__eq__, t, colmask, rowmask, row_order, col_order)


def canonical_form(a: SignMatrix) -> SignMatrix:
    """Orbit representative under the standard transformations, n <= 6.

    Two square matrices have equal canonical forms exactly when one can
    be carried to the other by negations, permutations, and transposition.
    """
    if not a.is_square:
        raise ShapeError(f"canonical form needs a square matrix, got {a.rows}x{a.cols}")
    if a.rows > 6:
        raise ShapeError(f"canonical form supports order <= 6, got {a.rows}")
    canon, _ = _canonical_with_seq(a)
    return canon


def equivalent_to_d(a: SignMatrix, r: int) -> tuple[tuple, ...] | None:
    """Replayed transform sequence carrying the k x n matrix ``a`` onto
    ``d_matrix(n, k, r)``, or None when ``a`` lies outside that orbit.

    Exact at every order and shape: ``a`` is in the orbit exactly when
    some row and column signing turns its -1 cells into a partial
    permutation of size r (the symmetric target makes the transpose
    redundant).  Negating everything changes nothing, so row 1 keeps its
    sign and holds at most one -1: the column signing is row 1 itself or
    row 1 with one bit flipped.  Each row then needs a signing with at
    most one -1, unique above two columns.  All n+1 choices are tried,
    since they can reach different sizes (D_(3,3) ~ D_(3,2)).
    """
    k, n = a.rows, a.cols
    target = d_matrix(n, k, r)
    full = (1 << n) - 1
    first = a.words[0]
    for colmask in (first, *(first ^ (1 << j) for j in range(n))):
        options = [[f for f in (0, full) if (w ^ colmask ^ f).bit_count() <= 1] for w in a.words]
        for flips in itertools.product(*options):
            cells = [w ^ colmask ^ f for w, f in zip(a.words, flips)]
            held = [i for i, c in enumerate(cells) if c]
            if len(held) != r or len({cells[i] for i in held}) != r:
                continue
            rowmask = sum(1 << i for i, f in enumerate(flips) if f)
            row_order = held + [i for i in range(k) if not cells[i]]
            used = [cells[i].bit_length() - 1 for i in held]
            col_order = used + [j for j in range(n) if j not in used]
            what = f"D_({n},{k},{r})"
            return _witness(a, what, target.__eq__, 0, colmask, rowmask, row_order, col_order)
    return None


# --- classification procedure ------------------------------------------------


def _pair_seq(a: SignMatrix, lo: int, tag: str) -> tuple[tuple, ...] | None:
    """Replayed steps carrying square ``a`` onto the pair normal form named
    ``tag``, or None when no two rows, and no two columns, are at Hamming
    distance d with lo <= d <= n-lo.

    The first such row pair (i, j), or else column pair, is taken.
    Negating the -1 columns of line i makes it all ones and leaves d
    negatives in line j; when 2d > n line j is negated too, which leaves
    m = min(d, n-d).  Rows i and j move to rows 1 and 2, followed by the
    rest, and row 2's negatives move to columns 1..m.  The test is exact:
    negations keep or complement (d -> n-d) the distance of a row or
    column pair, permutations only move pairs, and the transpose
    exchanges rows with columns, while the window lo..n-lo is closed
    under d -> n-d.
    """
    n = a.rows
    for t in (0, 1):
        lines = _transpose_words(a.words, a.cols) if t else a.words
        for i, j in itertools.combinations(range(n), 2):
            w = lines[i] ^ lines[j]
            d = w.bit_count()
            if lo <= d <= n - lo:
                flip = 2 * d > n
                negs = [c for c in range(n) if (w >> c & 1) != flip]
                form = (0, (1 << len(negs)) - 1)
                row_order = [i, j] + [k for k in range(n) if k not in (i, j)]
                col_order = negs + [c for c in range(n) if c not in negs]
                what = f"the {tag} template"
                return _witness(
                    a, what, lambda b: b.words[:2] == form, t, lines[i], flip << j, row_order, col_order
                )
    return None


def _degrees(words: tuple[int, ...]) -> list[int]:
    return [sum(w >> j & 1 for w in words) for j in range(6)]


def _template_seq(a: SignMatrix, tag: str) -> tuple[tuple, ...] | None:
    """Steps carrying order-6 ``a`` onto the template ``tag`` (P1 or P2), or
    None.

    Both templates have an all-ones row 1 and two -1s in every other row;
    read as edges on the six columns, rows 2-6 form a 5-cycle (P1) or two
    adjacent centres with two leaves each (P2), and either graph is the
    only one with its degree sequence.  Row 1 of ``a`` is negated to all
    ones and every other row signed to at most two -1s; when rows 2-6 are
    then five distinct edges with the template's degrees, a column
    bijection carries them onto the template's edges, and the rows are
    placed by edge.  Such a bijection keeps degrees, so only those are
    tried: 5! for P1 and 2! * 4! for P2.
    """
    template = _TEMPLATES[tag]
    edges = [w ^ a.words[0] for w in a.words[1:]]
    flips = [w.bit_count() > 2 for w in edges]
    edges = [w ^ 63 if f else w for w, f in zip(edges, flips)]
    want = template.words[1:]
    if any(w.bit_count() != 2 for w in edges) or len(set(edges)) != 5:
        return None
    deg, want_deg = _degrees(edges), _degrees(want)
    if sorted(deg) != sorted(want_deg):
        return None
    classes = sorted(set(deg))
    by_degree = [j for d in classes for j in range(6) if deg[j] == d]
    slots = [[k for k in range(6) if want_deg[k] == d] for d in classes]
    ends = [[j for j in range(6) if w >> j & 1] for w in edges]
    for images in itertools.product(*map(itertools.permutations, slots)):
        perm = dict(zip(by_degree, itertools.chain.from_iterable(images)))
        moved = [1 << perm[j] | 1 << perm[k] for j, k in ends]
        if set(moved) == set(want):
            rowmask = sum(f << i for i, f in enumerate(flips, start=1))
            row_order = [0] + [moved.index(w) + 1 for w in want]
            col_order = sorted(perm, key=perm.get)
            what = f"the {tag} template"
            return _witness(a, what, template.__eq__, 0, a.words[0], rowmask, row_order, col_order)
    return None


def classify_form(a: SignMatrix) -> FormClass:
    """Reduce a nonsingular matrix of order >= 5 to one of the named forms.

    Membership in the near-identity orbits is decided by equivalent_to_d,
    condition A (order >= 6) and the special form (order 5) by _pair_seq,
    and each returns its replayed witness.  At order >= 6 condition A is
    tested first (the D orbits have no pair at distance 3..n-3); at order
    6 what remains is the P1 orbit.  At order 5 every matrix outside the
    D_(5,4) orbit has a pair at distance 2 or 3: otherwise, with row 1 made
    all ones and the other rows signed to at most one -1, two rows would
    be equal.  A singular input raises RankError unless it lies in the
    orbit of the rank-5 template P2.
    """
    if not a.is_square or a.rows < 5:
        raise ShapeError(f"classification needs a square matrix of order >= 5, got {a.rows}x{a.cols}")
    n = a.rows
    if rank(a) < n:
        # The second order-6 template has rank 5, so its orbit is the one
        # singular family the classification names; everything else
        # singular falls outside the procedure's hypothesis.
        if n == 6:
            seq = _template_seq(a, "P2")
            if seq is not None:
                return FormClass("P2", seq)
        raise RankError("classification is defined for nonsingular matrices only")

    if n >= 6:
        seq = _pair_seq(a, 3, "ConditionA")
        if seq is not None:
            return FormClass("ConditionA", seq)
    seq = equivalent_to_d(a, n - 1)
    if seq is not None:
        return FormClass("DnMinus1", seq)
    if n == 5:
        seq = _pair_seq(a, 2, "D5Special")
        if seq is None:
            raise RuntimeError("a nonsingular order-5 matrix has no row pair at distance 2 or 3")
        return FormClass("D5Special", seq)
    seq = equivalent_to_d(a, n)
    if seq is not None:
        return FormClass("DnDiag", seq)
    if n == 6:
        seq = _template_seq(a, "P1")
        if seq is not None:
            return FormClass("P1", seq)
    raise RuntimeError(
        f"no row or column pair at distance 3..{n - 3} and no near-identity orbit at order {n}"
    )
