"""Weight-bearing checks must survive ``python -O``, which strips asserts."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import permax
import permax.permanent
import permax.verifier
from permax import format_matrix_text

PACKAGE = Path(permax.__file__).parent


def test_no_assert_statements_in_package():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def run_optimized(body: str) -> str:
    """Run ``body`` under ``python -O``; it must raise RuntimeError."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "assert False, 'asserts are live'\n"  # stripped under -O
        "try:\n"
        + "".join(f"    {line}\n" for line in body.strip().splitlines())
        + "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    print('no error')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def run_with_swaps_dropped(call: str) -> str:
    """Run ``call`` under ``python -O`` with every witness's swap steps
    dropped, so its replay misses the target."""
    patch = "import permax.reduction as red\nred._swaps = lambda kind, order: []"
    return run_optimized(f"{patch}\n{call}")


def test_corrupted_classification_replay_raises_under_optimize():
    # rows 1 and 4 are the first pair at distance 3, so row 4 must move up
    out = run_with_swaps_dropped("red.classify_form(red.SignMatrix(6, 6, (0, 1, 2, 7, 16, 32)))")
    assert out == "replayed sequence does not reach the ConditionA template"


def test_corrupted_order_five_replay_raises_under_optimize():
    out = run_with_swaps_dropped(
        "red.classify_form(red.apply(red.d_matrix(5, 5, 5), [('swapR', 1, 3), ('negC', 4)]))"
    )
    assert out == "replayed sequence does not reach the D5Special template"


def test_corrupted_template_replay_raises_under_optimize():
    out = run_with_swaps_dropped(
        "red.classify_form(red.apply(red.p_matrix(2), "
        "[('swapR', 2, 6), ('swapC', 1, 3), ('negR', 4)]))"
    )
    assert out == "replayed sequence does not reach the P2 template"


def test_corrupted_canonical_witness_raises_under_optimize():
    out = run_with_swaps_dropped(
        "red.canonical_form(red.apply(red.d_matrix(5, 5, 3), [('swapR', 1, 4), ('swapC', 2, 5)]))"
    )
    assert out == "replayed sequence does not reach the canonical form"


def test_corrupted_d_orbit_witness_raises_under_optimize():
    out = run_with_swaps_dropped(
        "red.equivalent_to_d(red.apply(red.d_matrix(7, 7, 3), "
        "[('swapR', 1, 5), ('swapC', 2, 6), ('negR', 3)]), 3)"
    )
    assert out == "replayed sequence does not reach D_(7,7,3)"


def test_corrupted_row_sum_lookup_raises_under_optimize():
    # the first row's miss fills and caches the order-3 vector of word 0
    # with its d = 0 entry corrupted, and the other two rows read it back
    out = run_optimized(
        """
import permax.permanent as p
real = p._row_vector
def corrupted(n, w):
    v = real(n, w)
    v = p._vectors[n][w] = (v[0] + 1,) + v[1:]
    return v
p._row_vector = corrupted
p.permanent_ryser(p.SignMatrix(3, 3, (0, 0, 0)))
"""
    )
    assert out == "Glynn sum 61 is not a multiple of 2^2"


def test_corrupted_row_vector_raises_under_optimize():
    # the first call caches the vector of the all-ones row word at order 3,
    # and the second reads it back with its d = 0 entry corrupted
    out = run_optimized(
        """
import permax.permanent as p
a = p.SignMatrix(3, 3, (0, 0, 0))
p.permanent_ryser(a)
v = p._vectors[3][0]
p._vectors[3][0] = (v[0] + 1,) + v[1:]
p.permanent_ryser(a)
"""
    )
    assert out == "Glynn sum 61 is not a multiple of 2^2"


def run_miscounted(call: str, summary: str) -> str:
    """Run ``call`` under ``python -O`` with the summary of the first
    block replaced by ``summary``, an expression in its counts."""
    patch = (
        "real, first = v._sweep_block, []\n"
        "def miscounted(t, block):\n"
        "    o, *rest = real(t, block)\n"
        "    first.append(block)\n"
        f"    return {summary} if len(first) == 1 else (o, *rest)\n"
        "v._sweep_block = miscounted"
    )
    return run_optimized(f"import permax.verifier as v\n{patch}\n{call}")


@pytest.mark.parametrize(
    "call, held",
    [("v.verify_square(3)", "5 prefixes, not 2^2"), ("v.verify_mper(2, 3)", "2 prefixes, not 2^0")],
    ids=["v.verify_square(3)", "v.verify_mper(2, 3)"],
)
def test_wrong_scan_count_raises_under_optimize(call, held):
    # the first class weighs one more, which adds its 2^(n-1) matrices to
    # the scan count; that count is the orbit sum times 2^(n-1), so the
    # orbit check names the fault
    out = run_optimized(
        f"""
import permax.verifier as v
real = v._prefix_classes
def heavier(r, m):
    classes = real(r, m)
    rows, w = next(classes)
    yield rows, w + 1
    yield from classes
v._prefix_classes = heavier
{call}
"""
    )
    assert out == f"prefix orbits hold {held}"


# the exponent is (k - 2)(n - 1), the free cells of a prefix
@pytest.mark.parametrize("call, exponent", [("v.verify_square(3)", 2), ("v.verify_mper(2, 3)", 0)])
def test_wrong_orbit_sum_raises_under_optimize(call, exponent):
    # drops one prefix from the orbit sizes of the first block
    out = run_miscounted(call, "(o - 1, *rest)")
    assert out == f"prefix orbits hold {(1 << exponent) - 1} prefixes, not 2^{exponent}"


def test_polya_mismatch_raises_under_optimize():
    out = run_optimized(
        """
import permax.verifier as v
real = v._polya_count
v._polya_count = lambda r, m: real(r, m) + 1
v.verify_square(4)
"""
    )
    # order 4 has 13 classes of two free rows of three bits
    assert out == "generated 13 prefix classes, the Polya count is 14"


def test_moved_orbit_weight_raises_under_optimize():
    # one prefix moves from the class of three all-ones rows to the class
    # of three zero rows: the matrix and orbit counts hold, and the second
    # moment, checked next, catches it.  The classes are picked by rows,
    # not by stream position: two classes whose leaves add the same sum of
    # per^2 and the same census split would hide the move from every check
    out = run_optimized(
        """
import permax.verifier as v
real = v._prefix_classes
def moved(r, m):
    shift = {(15, 15, 15): -1, (0, 0, 0): 1}
    return [(rows, w + shift.get(rows, 0)) for rows, w in real(r, m)]
v._prefix_classes = moved
v.verify_square(5)
"""
    )
    assert out == "selection permanents square-sum to 7891968, not 7864320"  # 5! 2^16


def test_halved_leaf_values_raise_under_optimize():
    # halving every leaf value below 128 keeps every order-6 maximum, its
    # orbit and every count; the second moment catches it
    out = run_optimized(
        """
import permax.verifier as v
real = v._last_row_values
v._last_row_values = lambda b: [p // 2 if abs(p) < 128 else p for p in real(b)]
v.verify_square(6)
"""
    )
    assert out.startswith("selection permanents square-sum to ")
    assert out.endswith(", not 24159191040")  # 6! 2^25


def test_bit_reversed_last_row_blames_the_kernel_under_optimize():
    # reading the column sums backwards moves values between leaves, so
    # every count and the second moment hold and order 4 rank 3 tops out
    # at 12 over the bound 8; the oracles value the matrix named at 4
    out = run_optimized(
        """
import permax.verifier as v
real = v._last_row_values
v._last_row_values = lambda b: real(b[:1] + b[:0:-1])
v.verify_square(4)
"""
    )
    head, _, matrix = out.partition("\n")
    assert head == (
        "sweep kernel fault: it gives value 12 and rank 3, the oracles give 4 and rank 3:"
    )
    assert matrix.startswith("4 4\n")


def run_with_odd_minors(q: int) -> str:
    """Run ``verify_square(6)`` under ``python -O`` with the first getter
    of the order-q level's ``base`` reading one more, so the first
    order-q minor of every prefix row at that level is off by one."""
    return run_optimized(
        f"""
import permax.verifier as v
real = v._SweepTables.__init__
def corrupted(self, k, n, targets=None):
    real(self, k, n, targets)
    base = self.levels[{q}][0]
    g = base[0]
    base[0] = lambda minors: (g(minors)[0] + 1,) + g(minors)[1:]
v._SweepTables.__init__ = corrupted
v.verify_square(6)
"""
    )


def test_odd_column_sum_breaks_minor_divisibility_under_optimize():
    # each class's first order-5 minor, a column sum of its selection,
    # + 1: each is the permanent of an order-5 sign matrix, a multiple of
    # 2^(5 - 2 - 1) = 4.  The lower orders hold and the second moment
    # moves too, but the divisibility check runs first, as the block ends
    out = run_with_odd_minors(5)
    assert out.startswith(
        "minors are permanents of order 5, but not all are multiples of 2^2 (their OR is "
    )


def test_odd_second_minor_breaks_its_divisibility_under_optimize():
    # the first order-4 minor of every parent's last row + 1: each is the
    # permanent of an order-4 sign matrix, a multiple of 2^(4 - 2 - 1) = 2.
    # The order-5 minors stepped from it turn odd too, and the second
    # moment moves, but the order-4 check fires first: the orders are
    # checked lowest first, as the block ends
    out = run_with_odd_minors(4)
    assert out.startswith(
        "minors are permanents of order 4, but not all are multiples of 2^1 (their OR is "
    )


def test_odd_order_three_minor_breaks_its_divisibility_under_optimize():
    # the first order-3 minor of every parent's second free row + 1, an
    # order whose minors no check read before: each is the permanent of an
    # order-3 sign matrix, a multiple of 2^(3 - 1 - 1) = 2.  The order-4
    # and order-5 minors stepped from it move too, and so may the second
    # moment, but the order-3 check, the lowest, fires first
    out = run_with_odd_minors(3)
    assert out.startswith(
        "minors are permanents of order 3, but not all are multiples of 2^1 (their OR is "
    )


@pytest.mark.parametrize("call", ["v.verify_square(5)", "v.verify_square(6)", "v.verify_mper(4, 7)"])
def test_bit_reversed_last_row_blames_the_kernel_past_order_four_under_optimize(call):
    # the classes valued for their bounds still carry the moved maxima
    out = run_optimized(
        f"""
import permax.verifier as v
real = v._last_row_values
v._last_row_values = lambda b: real(b[:1] + b[:0:-1])
{call}
"""
    )
    assert out.startswith("sweep kernel fault: it gives value "), out


def test_span_step_that_drops_row_three_raises_under_optimize():
    # the span table keeps a one-dimensional span where row x = 3 grows
    # it to two dimensions, so every class below such a prefix, and each
    # of its leaves, is ranked one too low; the census is read off the
    # span table and checked before any stratum is judged
    out = run_optimized(
        """
import permax.verifier as v
real = v._SpanTable.child
def child(self, sid, x):
    nid = real(self, sid, x)
    return sid if x == 3 and self.dim[sid] == 1 and self.dim[nid] == 2 else nid
v._SpanTable.child = child
v.verify_square(5)
"""
    )
    assert out == "rank census: rank 2 holds 513 matrices, not 225"


def test_census_moved_between_ranks_raises_under_optimize():
    # 148 order-6 matrices counted at rank 4, not 3: the orbit sum, the
    # second moment and ranks 1, 2 and 6 hold, and only the census row
    # pinned at every rank sees the move
    out = run_optimized(
        """
import permax.verifier as v
real = v._sweep_block
def moved(t, block):
    out = real(t, block)
    out[2][3] -= 148
    out[2][4] += 148
    return out
v._sweep_block = moved
v.verify_square(6)
"""
    )
    assert out == "rank census: rank 3 holds 118652 matrices, not 118800"


def test_oracle_disagreement_raises_under_optimize():
    out = run_optimized(
        """
import permax.props as props
import permax.verifier as v
real = props._naive_code
def skewed(k, n):
    naive = real(k, n)
    return (lambda words: [naive(words)[0] + 2]) if (k, n) == (8, 8) else naive
props._naive_code = skewed
v.verify_properties(4, 400)
"""
    )
    head, _, matrix = out.partition("\n")
    assert head == "permanent oracle agreement violated"
    assert matrix.startswith("8 8\n")


def test_dropped_plan_successor_raises_under_optimize():
    # the square order-5 oracle loses its row-1 -> column-5 term, so no
    # permutation taking row 1 to column 5 is summed; the 4 x 5 one that
    # values props' order-5 blocks keeps it, and props first meets the
    # square one in the sampled comparison with permanent_ryser
    out = run_optimized(
        """
import permax.permanent as p
import permax.verifier as v
real = p._naive_source
def dropped(k, n):
    source = real(k, n)
    return source.replace("    p16 = a0_4\\n", "    p16 = 0\\n") if (k, n) == (5, 5) else source
p._naive_source = dropped
v.verify_properties(0, 200)
"""
    )
    head, _, matrix = out.partition("\n")
    assert head == "permanent oracle agreement violated"
    assert matrix.startswith("5 5\n")


def run_with_order_five_block(p: int, b: str) -> str:
    """Run the property suite under ``python -O`` with the coefficients of
    order-5 block ``p`` replaced by ``b``, an expression in the real ``b``."""
    return run_optimized(
        f"""
import permax.props as props
import permax.verifier as v
real = props._normalized_blocks
def changed(n):
    for p, b in real(n):
        yield p, {b} if (n, p) == (5, {p}) else b
props._normalized_blocks = changed
v.verify_properties(0, 100)
"""
    )


def test_skewed_batched_value_raises_under_optimize():
    # block 3 has b = [0, 12, 12, 0, 0]; b_1 + 2 keeps its sum of |b_j|
    # within the ceiling 72, so the block is counted unvalued and only the
    # second moment sees it: 2^4 last rows times 2^2 more
    out = run_with_order_five_block(3, "[b[0] + 2] + b[1:]")
    assert out == "normalized order-5 permanents square-sum to 7864384, not 7864320"  # 5! 2^16


def test_batched_value_over_the_ceiling_names_its_matrix_under_optimize():
    # a sum of |b_j| of 74 has the block valued; the last rows with bit 3
    # set, the first of them x = 8, take 74
    out = run_with_order_five_block(3, "[37, 0, 0, 0, -37]")
    head, _, matrix = out.partition("\n")
    assert head == "non-equality permanent ceiling violated: |per| = 74 > 72"
    assert matrix == format_matrix_text(permax.props._normalized(5, 3 | 8 << 12)).strip()


def test_odd_glynn_sum_raises_under_optimize():
    # the order-5 vector of the all-ones row word, cached with its d = 0
    # entry 5 -> 6: props' blocks come from the oracle and never read it,
    # but the sampled comparison's first order-5 matrix with an all-ones
    # row does, and its Glynn sum moves by the odd product of the other
    # rows' d = 0 entries
    out = run_optimized(
        """
import permax.permanent as p
import permax.verifier as v
w = p._row_vector(5, 0)
p._vectors[5][0] = (w[0] + 1,) + w[1:]
v.verify_properties(0, 100)
"""
    )
    assert out == "Glynn sum 9 is not a multiple of 2^4"


def test_wrong_selection_rank_raises_under_optimize():
    # understates the rank of every selection through the parent's last column
    out = run_optimized(
        """
import permax.rank_vectors as rv
import permax.verifier as v
real = rv._selection_rank
rv._selection_rank = lambda lines, cols: max(1, real(lines, cols) - (cols[-1] == len(lines)))
v.verify_properties(0, 200)
"""
    )
    head, _, matrix = out.partition("\n")
    assert head == "rank-vector minimality violated"
    k, n = map(int, matrix.split("\n", 1)[0].split())
    assert 2 <= k < n


def run_transform_mutant(patch: str) -> tuple[str, str]:
    """Run the property suite under ``python -O`` with ``patch`` applied
    to ``props`` and return the failure's head line and its matrix."""
    out = run_optimized(
        f"import permax.props as props\nimport permax.verifier as v\n{patch}\n"
        "v.verify_properties(0, 100)"
    )
    head, _, matrix = out.partition("\n")
    return head, matrix


def test_transform_that_moves_an_entry_breaks_permanent_invariance_under_optimize():
    # every transformed matrix comes back with entry (1, 1) negated; the
    # rank and inversion checks would fail on the same case, but the
    # permanent check runs first, and it fires on the first case where
    # the negated entry moves |per|
    head, matrix = run_transform_mutant(
        "real = props._apply_words\n"
        "def skewed(rows, cols, words, steps):\n"
        "    out = real(rows, cols, words, steps)\n"
        "    out[0] ^= 1\n"
        "    return out\n"
        "props._apply_words = skewed"
    )
    assert head == (
        "permanent transform invariance violated: under (('swapR', 3, 3), ('negR', 3))"
    )
    assert matrix.startswith("5 5\n")


def test_rank_of_the_leading_rows_breaks_rank_invariance_under_optimize():
    # the rank of every row but the last: a transpose exposes it on the
    # first 3 x 3 case, whose last row adds to the rank of the first two
    # while its last column does not; |per| is untouched, so the
    # permanent check passes
    head, matrix = run_transform_mutant(
        "real = props._rank_words\n"
        "props._rank_words = lambda cols, words: real(cols, words[:-1])"
    )
    assert head == "rank transform invariance violated: under (('T',),)"
    assert matrix == "3 3\n-1 -1 -1\n 1  1  1\n 1 -1  1"


def test_unreversed_inverse_breaks_transform_inversion_under_optimize():
    # the inverse replays the steps in their own order, which undoes a
    # sequence only when its steps commute; |per| and rank are untouched
    head, matrix = run_transform_mutant("props.invert_transforms = tuple")
    assert head == (
        "transform inversion violated: under"
        " (('swapR', 3, 4), ('T',), ('negC', 3), ('negR', 4))"
    )
    assert matrix.startswith("6 6\n")
