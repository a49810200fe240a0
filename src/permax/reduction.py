"""Constructive reductions under the standard transformations.

Every public operation that claims a reduction returns the transform
sequence realizing it, and the sequence is replayed before returning,
so callers can trust the witness bit-exactly.

equivalent_to_d decides membership in a near-identity orbit at every
order and shape by one signing test.  canonical_form (order <= 6) is a
standalone orbit label; no other operation uses it.

classify_form takes its near-identity tags from equivalent_to_d:
DnMinus1 at every order, DnDiag at order >= 6.  The other forms come
from one pair search: some two rows, or two columns, differ in d
positions with lo <= d <= n-lo.  Such a pair is moved to rows 1 and 2
and row 1 is negated to all ones.  With lo = 3 at order >= 6 that is
condition A, tested first; at order 5, outside the D_(5,4) orbit, lo = 2
always finds a pair, which leads to the special form.  At order 6 the
nonsingular matrices left are the P1 orbit, and the singular ones the
classification names are the P2 orbit; one template match reaches
either.  All ties break toward the lowest index, which keeps the output
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import RankError, ShapeError
from .exact_rank import rank
from .sign_matrix import (
    SignMatrix,
    _transpose_words,
    apply,
    apply_step,
    d_matrix,
    p_matrix,
)

__all__ = [
    "FormClass",
    "condition_A",
    "classify_form",
    "equivalent_to_d",
    "canonical_form",
]

FORM_TAGS = ("DnMinus1", "DnDiag", "P1", "P2", "ConditionA", "D5Special")

# the two exceptional order-6 templates, built once
_P1 = p_matrix(1)
_P2 = p_matrix(2)


@dataclass(frozen=True)
class FormClass:
    """Classification outcome: a tag and the sequence that reaches it."""

    tag: str
    seq: tuple[tuple, ...]


def _emit(work: SignMatrix, steps: list[tuple], step: tuple) -> SignMatrix:
    steps.append(step)
    return apply_step(work, step)


def _neg_cols(work: SignMatrix, i: int) -> list[int]:
    w = work.words[i - 1]
    return [j + 1 for j in range(work.cols) if (w >> j) & 1]


def _negate_to_ones_row(work: SignMatrix, steps: list[tuple]) -> SignMatrix:
    """Negate the columns where row 1 is -1, leaving row 1 all ones."""
    for j in _neg_cols(work, 1):
        work = _emit(work, steps, ("negC", j))
    return work


def condition_A(a: SignMatrix) -> bool:
    """All-ones first row, and a second row with three entries of each sign."""
    if not a.is_square or a.rows < 6:
        raise ShapeError(f"condition needs a square matrix of order >= 6, got {a.rows}x{a.cols}")
    neg = a.words[1].bit_count()
    return a.words[0] == 0 and neg >= 3 and a.cols - neg >= 3


# --- canonical orbit representative -----------------------------------------
#
# Minimal row-major 0/1 code (bit 1 = entry -1, column 1 read first) over the
# full orbit: negations, row and column permutations, and the transpose when
# the matrix is square.  The search anchors one row as all-ones, which fixes
# the column negations (the negated anchor complements every other row, a
# state the merge below already holds, so it is not tried).  It then extends
# row by row over a breadth-first frontier that keeps only the states
# reaching the least code so far.  A state holds an ordered partition of the
# columns still interchangeable, one bitmask per cell, refined by each
# placed row into its +1 part and then its -1 part.
#
# Read within a cell as zeros then ones, a candidate row's code is fixed by
# its count of -1s per cell, and a smaller count in an earlier cell is a
# smaller code.  The cell sizes are fixed by the code prefix, hence equal in
# every state at one depth, so count tuples compare across states: one pass
# finds the least count tuple over every (state, row, sign), and only the
# candidates tied on it refine their partition.  The code row is rebuilt
# from the cell sizes and the counts.
#
# Two states merge when their remaining rows, read through the state's cell
# order (the position of each column once the cells are listed in order)
# and taken up to sign, form the same multiset.  The merge is exact: the
# positions give a column bijection that maps each cell onto the cell of
# the same rank and the one state's remaining rows onto the other's, up to
# sign.  Counts per cell, and the refinements they make, are preserved
# under it, and every row is tried with both signs, so both states reach
# the same future codes.  Symmetric inputs thus keep a frontier of a few
# states instead of branching factorially.


def _swaps(kind: str, target: list[int]) -> list[tuple]:
    """Swap steps of ``kind`` that bring position target[p-1] to position p."""
    current = list(range(1, len(target) + 1))
    steps: list[tuple] = []
    for p, want in enumerate(target, start=1):
        q = current.index(want) + 1
        if q != p:
            steps.append((kind, p, q))
            current[p - 1], current[q - 1] = current[q - 1], current[p - 1]
    return steps


def _cell_order(part: tuple[int, ...]) -> list[int]:
    """The columns of the cell bitmasks ``part``, cell by cell, ascending
    within each cell."""
    order = []
    for g in part:
        while g:
            low = g & -g
            order.append(low.bit_length() - 1)
            g ^= low
    return order


def _canonical_with_seq(a: SignMatrix) -> tuple[SignMatrix, tuple[tuple, ...]]:
    rows, cols = a.rows, a.cols
    mask = (1 << cols) - 1

    def merge_key(base: tuple[int, ...], used: int, part: tuple[int, ...]) -> tuple[int, ...]:
        order = _cell_order(part)
        rest = []
        for k in range(rows):
            if not used >> k & 1:
                w, v = base[k], 0
                for p, c in enumerate(order):
                    if w >> c & 1:
                        v |= 1 << p
                rest.append(min(v, v ^ mask))
        return tuple(sorted(rest))

    # state: (base words after column negations, used-row bitmask, cell
    #         bitmasks, (t, anchor row, column negations), placements)
    orientations = [(0, a.words)]
    if a.is_square:
        orientations.append((1, _transpose_words(a)))
    frontier: dict = {}
    for t, words in orientations:
        for r0 in range(rows):
            base = tuple(w ^ words[r0] for w in words)
            key = merge_key(base, 1 << r0, (mask,))
            if key not in frontier:
                frontier[key] = (base, 1 << r0, (mask,), (t, r0, words[r0]), ())

    code = [0]
    sizes = (cols,)
    for _depth in range(1, rows):
        candidates = []
        for state in frontier.values():
            base, used, part = state[:3]
            for i in range(rows):
                if not used >> i & 1:
                    counts = tuple((base[i] & g).bit_count() for g in part)
                    candidates.append((counts, state, i, 0))
                    candidates.append((tuple(s - c for s, c in zip(sizes, counts)), state, i, 1))
        best = min(c[0] for c in candidates)
        extensions: dict = {}
        for counts, (base, used, part, origin, placed), i, f in candidates:
            if counts != best:
                continue
            w = base[i] ^ mask if f else base[i]
            new_part = tuple(h for g in part for h in (g & ~w, g & w) if h)
            new_used = used | 1 << i
            key = merge_key(base, new_used, new_part)
            if key not in extensions:
                extensions[key] = (base, new_used, new_part, origin, placed + ((i, f),))
        frontier = extensions
        word, offset = 0, 0
        for s, c in zip(sizes, best):
            word |= ((1 << c) - 1) << (offset + s - c)
            offset += s
        code.append(word)
        sizes = tuple(x for s, c in zip(sizes, best) for x in (s - c, c) if x)

    # all surviving states realize the same minimal code; take the first
    _base, _used, part, (t, r0, colmask), placed = next(iter(frontier.values()))
    canon_words = tuple(code)
    canon = SignMatrix(rows, cols, canon_words)

    steps: list[tuple] = []
    if t:
        steps.append(("T",))
    steps += [("negC", j + 1) for j in range(cols) if colmask >> j & 1]
    steps += [("negR", i + 1) for i in sorted(i for i, f in placed if f)]
    steps += _swaps("swapR", [r0 + 1] + [i + 1 for i, _f in placed])
    steps += _swaps("swapC", [c + 1 for c in _cell_order(part)])

    if apply(a, steps).words != canon_words:
        raise RuntimeError("canonical witness replay failed")
    return canon, tuple(steps)


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
            steps = [("negC", j + 1) for j in range(n) if (colmask >> j) & 1]
            steps += [("negR", i + 1) for i, f in enumerate(flips) if f]
            placed = held + [i for i in range(k) if not cells[i]]
            steps += _swaps("swapR", [i + 1 for i in placed])
            used = [cells[i].bit_length() for i in held]
            steps += _swaps("swapC", used + [j for j in range(1, n + 1) if j not in used])
            if apply(a, steps) != target:
                raise RuntimeError("D-orbit witness replay failed")
            return tuple(steps)
    return None


# --- classification procedure ------------------------------------------------


def _far_pair(words: tuple[int, ...], lo: int) -> tuple[int, int] | None:
    """First pair of lines (1-based) at Hamming distance lo..n-lo, if any."""
    n = len(words)
    return next(
        (
            (i + 1, j + 1)
            for i, j in itertools.combinations(range(n), 2)
            if lo <= (words[i] ^ words[j]).bit_count() <= n - lo
        ),
        None,
    )


def _pair_seq(a: SignMatrix, lo: int) -> list[tuple] | None:
    """Steps that make row 1 all ones and give row 2 between lo and n-lo
    negatives, or None when no transform sequence does.

    Rows i and j at Hamming distance d become an all-ones row 1 and a row 2
    with d negatives once they are swapped to the top and the -1 columns of
    row i are negated, so a pair of rows (or, after a transpose, columns)
    with lo <= d <= n-lo suffices.  The test is exact: negations keep or
    complement (d -> n-d) the distance of a row or column pair,
    permutations only move pairs, and the transpose exchanges rows with
    columns, while the window lo..n-lo is closed under d -> n-d.
    """
    work = a
    steps: list[tuple] = []
    pair = _far_pair(a.words, lo)
    if pair is None:
        pair = _far_pair(_transpose_words(a), lo)
        if pair is None:
            return None
        work = _emit(work, steps, ("T",))
    i, j = pair
    if i != 1:
        work = _emit(work, steps, ("swapR", 1, i))
    if j != 2:
        work = _emit(work, steps, ("swapR", 2, j))
    _negate_to_ones_row(work, steps)
    return steps


def _condition_a_seq(a: SignMatrix) -> list[tuple] | None:
    """Steps reaching condition A (a row pair at distance 3..n-3), or None."""
    return _pair_seq(a, 3)


def _d5_special_seq(a: SignMatrix) -> list[tuple]:
    """Steps carrying a nonsingular order-5 matrix onto the special form:
    row 1 all ones and row 2 equal to (-1, -1, 1, 1, 1).

    Two rows always sit at distance 2 or 3: otherwise, with row 1 made all
    ones and the other rows signed to at most one -1, two rows would be
    equal.  Row 2 is signed to two -1s, which move to columns 1 and 2.
    """
    steps = _pair_seq(a, 2)
    if steps is None:
        raise RuntimeError("a nonsingular order-5 matrix has no row pair at distance 2 or 3")
    work = apply(a, steps)
    if work.words[1].bit_count() == 3:
        work = _emit(work, steps, ("negR", 2))
    negs = _neg_cols(work, 2)
    return steps + _swaps("swapC", negs + [j for j in range(1, 6) if j not in negs])


def _degrees(words: tuple[int, ...]) -> list[int]:
    return [sum(w >> j & 1 for w in words) for j in range(6)]


def _template_seq(a: SignMatrix, template: SignMatrix) -> list[tuple] | None:
    """Steps carrying order-6 ``a`` onto ``template`` (P1 or P2), or None.

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
    steps: list[tuple] = []
    work = _negate_to_ones_row(a, steps)
    for i in range(2, 7):
        if work.words[i - 1].bit_count() > 2:
            work = _emit(work, steps, ("negR", i))
    edges, want = work.words[1:], template.words[1:]
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
            steps += _swaps("swapC", [j + 1 for j in sorted(perm, key=perm.get)])
            return steps + _swaps("swapR", [1] + [moved.index(w) + 2 for w in want])
    return None


def _replayed(a: SignMatrix, tag: str, steps: list[tuple], holds) -> FormClass:
    """The classification ``tag`` with ``steps``, once their replay lands on
    a matrix for which ``holds`` is true."""
    form = FormClass(tag, tuple(steps))
    if not holds(apply(a, form.seq)):
        raise RuntimeError(f"replayed sequence does not reach the {tag} template")
    return form


def _is_d5_template(b: SignMatrix) -> bool:
    return b.words[0] == 0 and b.row_signs(2) == (-1, -1, 1, 1, 1)


def classify_form(a: SignMatrix) -> FormClass:
    """Reduce a nonsingular matrix of order >= 5 to one of the named forms.

    Membership in the near-identity orbits is decided by equivalent_to_d,
    whose sequence is the witness.  At order >= 6 condition A is tested
    first (the D orbits have no pair at distance 3..n-3); at order 6 what
    remains is the P1 orbit.  At order 5 every matrix outside the D_(5,4)
    orbit reaches the special form.  A singular input raises RankError
    unless it lies in the orbit of the rank-5 template P2.  Constructed
    sequences are replayed before returning.
    """
    if not a.is_square or a.rows < 5:
        raise ShapeError(f"classification needs a square matrix of order >= 5, got {a.rows}x{a.cols}")
    n = a.rows
    if rank(a) < n:
        # The second order-6 template has rank 5, so its orbit is the one
        # singular family the classification names; everything else
        # singular falls outside the procedure's hypothesis.
        if n == 6:
            steps = _template_seq(a, _P2)
            if steps is not None:
                return _replayed(a, "P2", steps, _P2.__eq__)
        raise RankError("classification is defined for nonsingular matrices only")

    if n >= 6:
        steps = _condition_a_seq(a)
        if steps is not None:
            return _replayed(a, "ConditionA", steps, condition_A)
    seq = equivalent_to_d(a, n - 1)
    if seq is not None:
        return FormClass("DnMinus1", seq)
    if n == 5:
        return _replayed(a, "D5Special", _d5_special_seq(a), _is_d5_template)
    seq = equivalent_to_d(a, n)
    if seq is not None:
        return FormClass("DnDiag", seq)
    if n == 6:
        steps = _template_seq(a, _P1)
        if steps is not None:
            return _replayed(a, "P1", steps, _P1.__eq__)
    raise RuntimeError(
        f"no row or column pair at distance 3..{n - 3} and no near-identity orbit at order {n}"
    )
