"""Per-layer timings: microseconds per call of the evaluators, rank
vectors and orbit reductions, the cost of the sweep kernel per shape,
and the time to import the package.

Usage, from the repository root:

    python3 tools/layer_us.py [--src DIR]

``--src`` names the directory holding the ``permax`` package (default
``src`` next to this directory), so the same script can time another
checkout.  One run times one checkout, and the machine's load drifts
between runs: two runs one after the other have read up to 40% apart
on the same shapes.  To compare two checkouts, alternate whole runs
with the sides swapped, at least two runs per side, or time both trees
interleaved in one process.

Nine sections run in order, each opened by a ``# <section>: <columns>``
line; the first eight each draw their inputs from their own seeded
generator, so every run times the same inputs.  A section that calls a
``permax`` name the checkout lacks, as older trees lack some private
ones, prints ``# <section>: skipped, <name> missing`` in place of its
header and lines, and the run goes on with the next:

- ``permanent``: ``permanent_ryser`` and ``permanent_naive`` on 40
  uniform n x n matrices per order n = 2..12, one line
  ``n ryser naive naive_first``.
  Up to order 9 the row words fit the Glynn evaluator's row-vector cache,
  so its figure is the warm-cache cost; at orders 10-12 they do not, and
  the figure includes building the row vectors.  ``naive_first`` is the
  order's first ``permanent_naive`` call, timed once before the others:
  it compiles the order's function, which the best-of-5 ``naive`` hides.
- ``props_sample``: the property suite's sampled comparison,
  ``props._first_disagreement``, over 1,000 seeded matrices per order
  n = 5..8, one line ``n us``: microseconds per sampled matrix, its
  row words drawn and valued by Glynn's core and the compiled oracle.
- ``props_transform``: the property suite's transform-invariance check,
  ``props._first_transform_failure``, over 1,000 seeded cases, one line
  ``cases us``: microseconds per case, its order, row words and steps
  drawn, the steps and their inverse applied on the words, and |per| and
  rank compared by their word-level cores.
- ``rank``: ``rank`` on 40 uniform n x n matrices and 40 rank-deficient
  ones per order n = 2..12, one line ``n uniform deficient``.  A
  deficient matrix's columns copy or negate n // 2 random base columns,
  so its rank is at most n // 2 while its rows stay distinct and go
  through the elimination.
- ``mper``: ``mper`` on 40 uniform k x n matrices per shape (3,5), (5,8),
  (6,12) and (8,12), one line ``shape us first_us``.  ``first_us`` is
  the shape's first call, timed once before the others: it compiles the
  oracle over k rows of n columns, which the best-of-5 ``us`` hides.
- ``rank_vector``: ``rank_vector`` on 40 full-rank k x n matrices per
  shape, 2 <= k <= 4 and k < n <= 8.
- ``classify``: 20 order-6 inputs per ``classify_form`` outcome (uniform
  nonsingular matrices tagged ConditionA, scrambled copies of D_(6,5),
  D_(6,6), P1 and P2 -- random row and column signs and orders,
  transposed half the time -- and uniform singular matrices that raise
  RankError); ``canonical_form`` on 20 uniform matrices and on the same
  template copies, the symmetric inputs that cost its search the most;
  ``equivalent_to_d(a, r)`` on 20 scrambled copies of each D_(6,r),
  r = 0..6, the calls the sweeps make on their extremal representatives;
  and the same pair normal form at other orders, on 20 scrambled copies
  of D_(5,5) (D5Special) and 20 uniform order-7 ConditionA matrices.
- ``sweep``: the square orders 2-6, the twelve wide shapes of acceptance
  criterion 7, (2,3) to (4,6), and the largest wide shapes the sweep
  budget admits, (4,7), (5,7), (4,8), (3,9) and (3,10), and six shapes
  past the budget, (6,7), (5,8), (4,9), (5,9), order 7 and (6,8), so
  that a cost model for the budget can be fitted to pruned times beyond
  it.  ``gen_s`` is
  ``list(_prefix_classes(...))``, the classes of the first k - 2 free
  rows under row and column permutations, kept so the leaf pass can be
  timed apart; ``leaf_s`` is a fresh ``_SweepTables`` plus one
  ``_sweep_block`` over every class, as one sweep process pays them,
  with the targets ``_verdict`` passes, so classes that cannot reach a
  bound skip their doubling passes; ``cost`` is the units the sweep
  budget admits the shape by, its leaves times its C(n,k) column
  selections; ``classes`` is the prefix classes and ``ran`` the ones
  that ran their doubling passes, counted in one more, untimed pass;
  ``leaves`` is the classes times the 2^(n-1) last rows; ``spans`` is
  the span-table entries the pass filled beyond the zero span;
  ``us_per_leaf`` is ``leaf_s`` per leaf and ``us_per_unit`` is
  ``gen_s`` plus ``leaf_s`` per unit of ``cost``.  The bounds, the
  checks ``_sweep`` makes and the orbit test of ``_verdict`` are not
  timed.
- ``import``: the cold start of every command, one line ``module ms``
  each for ``import permax`` and ``import permax.cli``: the median
  milliseconds of the import statement over 11 fresh ``python -I``
  interpreters, after one unmeasured run that leaves the bytecode
  caches written.  Interpreter start-up is not included.

Outside ``import``, each time is the best of several passes (5, or 7 for
``rank_vector`` and ``classify``), the pass least disturbed by other load on the machine; a
per-call figure is that pass's time over its number of inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SWEEP_SHAPES = [(n, n) for n in range(2, 7)] + [
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6),
    (4, 7), (5, 7), (4, 8), (3, 9), (3, 10),
    (6, 7), (5, 8), (4, 9), (5, 9), (7, 7), (6, 8),
]
MPER_SHAPES = [(3, 5), (5, 8), (6, 12), (8, 12)]
SAMPLES = 1000
IMPORT_RUNS = 11


def best(run, repeats):
    """The least seconds ``run()`` took over ``repeats`` calls, and the last call's result."""
    least = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = run()
        least = min(least, time.perf_counter() - t0)
    return least, out


def per_call_us(call, inputs, repeats):
    """Microseconds per ``call`` over ``inputs``, from the best of ``repeats`` passes."""

    def one_pass():
        for a in inputs:
            call(a)

    return best(one_pass, repeats)[0] / len(inputs) * 1e6


def uniform(px, rng, k, n):
    return px.SignMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))


def time_permanent(px):
    rng = random.Random(7)
    for n in range(2, 13):
        mats = [uniform(px, rng, n, n) for _ in range(40)]
        first = best(lambda: px.permanent_naive(mats[0]), 1)[0] * 1e6
        times = [per_call_us(f, mats, 5) for f in (px.permanent_ryser, px.permanent_naive)]
        print(n, *(f"{t:.1f}" for t in (*times, first)), flush=True)


def time_props_sample(px):
    for n in range(5, 9):
        t = best(lambda: px.props._first_disagreement(random.Random(19), n, SAMPLES), 5)[0]
        print(n, f"{t / SAMPLES * 1e6:.2f}", flush=True)


def time_props_transform(px):
    t = best(lambda: px.props._first_transform_failure(random.Random(23), SAMPLES), 5)[0]
    print(SAMPLES, f"{t / SAMPLES * 1e6:.2f}", flush=True)


def time_rank(px):
    rng = random.Random(29)
    for n in range(2, 13):
        full = (1 << n) - 1
        deficient = []
        for _ in range(40):
            base = [rng.getrandbits(n) for _ in range(n // 2)]
            cols = [rng.choice(base) ^ rng.choice((0, full)) for _ in range(n)]
            words = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(n))
            deficient.append(px.SignMatrix(n, n, words))
        mats = [uniform(px, rng, n, n) for _ in range(40)]
        times = [per_call_us(px.rank, m, 5) for m in (mats, deficient)]
        print(n, *(f"{t:.1f}" for t in times), flush=True)


def time_mper(px):
    rng = random.Random(17)
    for k, n in MPER_SHAPES:
        mats = [uniform(px, rng, k, n) for _ in range(40)]
        first = best(lambda: px.mper(mats[0]), 1)[0] * 1e6
        print(f"({k},{n}) {per_call_us(px.mper, mats, 5):.1f} {first:.1f}", flush=True)


def time_rank_vector(px):
    rng = random.Random(11)
    for k in (2, 3, 4):
        for n in range(k + 1, 9):
            mats = []
            while len(mats) < 40:
                a = uniform(px, rng, k, n)
                if px.rank(a) == k:
                    mats.append(a)
            print(f"({k},{n}) {per_call_us(px.rank_vector, mats, 7):.1f}", flush=True)


def time_classify(px):
    rng = random.Random(13)

    def scrambled(template):
        n = template.rows
        steps = [("negR", i) for i in range(1, n + 1) if rng.random() < 0.5]
        steps += [("negC", j) for j in range(1, n + 1) if rng.random() < 0.5]
        steps += [("swapR", i, rng.randint(i, n)) for i in range(1, n + 1)]
        steps += [("swapC", j, rng.randint(j, n)) for j in range(1, n + 1)]
        if rng.random() < 0.5:
            steps.append(("T",))
        return px.apply(template, steps)

    def classify(a):
        try:
            return px.classify_form(a).tag
        except px.RankError:
            return "RankError"

    def drawn(want, n=6):
        mats = []
        while len(mats) < 20:
            a = uniform(px, rng, n, n)
            if classify(a) == want:
                mats.append(a)
        return mats

    templates = {
        "DnMinus1": px.d_matrix(6, 6, 5),
        "DnDiag": px.d_matrix(6, 6, 6),
        "P1": px.p_matrix(1),
        "P2": px.p_matrix(2),
    }
    cases = [("classify ConditionA", classify, drawn("ConditionA"))]
    copies = {name: [scrambled(t) for _ in range(20)] for name, t in templates.items()}
    cases += [(f"classify {name}", classify, mats) for name, mats in copies.items()]
    cases.append(("classify RankError", classify, drawn("RankError")))
    cases.append(
        ("canonical_form uniform", px.canonical_form, [uniform(px, rng, 6, 6) for _ in range(20)])
    )
    cases += [(f"canonical_form {name}", px.canonical_form, mats) for name, mats in copies.items()]
    for r in range(7):
        mats = [scrambled(px.d_matrix(6, 6, r)) for _ in range(20)]
        cases.append((f"equivalent_to_d D_(6,{r})", lambda a, r=r: px.equivalent_to_d(a, r), mats))
    # drawn after every order-6 input, so those inputs do not depend on these
    d55 = [scrambled(px.d_matrix(5, 5, 5)) for _ in range(20)]
    cases.append(("classify D5Special", classify, d55))
    cases.append(("classify ConditionA order 7", classify, drawn("ConditionA", 7)))
    for label, call, mats in cases:
        print(f"{label} {per_call_us(call, mats, 7):.1f}", flush=True)


def time_sweep(px):
    for k, n in SWEEP_SHAPES:
        gen, classes = best(lambda: list(px.verifier._prefix_classes(k - 2, n - 1)), 5)
        targets = {r: top for r, (_, top, _) in px.verifier._strata(k, n).items()}

        def leaf_pass():
            tables = px.verifier._SweepTables(k, n, targets)
            px.verifier._sweep_block(tables, classes)
            return tables

        leaf, tables = best(leaf_pass, 5)
        # one doubling pass per selection of each class that ran
        passes = []
        real = px.verifier._last_row_values
        px.verifier._last_row_values = lambda b: passes.append(b) or real(b)
        try:
            leaf_pass()
        finally:
            px.verifier._last_row_values = real
        ran = len(passes) // math.comb(n, k)
        leaves = len(classes) << (n - 1)
        cost = leaves * math.comb(n, k)
        spans = len(tables.spans.dim) - 1
        print(
            f"({k},{n}) {gen:.4f} {leaf:.4f} {cost} {len(classes)} {ran} {leaves} {spans}"
            f" {leaf / leaves * 1e6:.2f} {(gen + leaf) / cost * 1e6:.3f}",
            flush=True,
        )


def time_import(px):
    src = str(Path(px.__file__).resolve().parent.parent)
    for module in ("permax", "permax.cli"):
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)"
        )
        cmd = [sys.executable, "-I", "-c", code, src]
        runs = [
            float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60).stdout)
            for _ in range(IMPORT_RUNS + 1)
        ]
        print(f"{module} {statistics.median(runs[1:]) * 1e3:.1f}", flush=True)


# (section, columns, the permax names it calls, its timer), in run order
SECTIONS = [
    ("permanent", "n ryser naive naive_first", ("permanent_ryser", "permanent_naive"),
     time_permanent),
    ("props_sample", "n us", ("props._first_disagreement",), time_props_sample),
    ("props_transform", "cases us", ("props._first_transform_failure",), time_props_transform),
    ("rank", "n uniform deficient", ("rank",), time_rank),
    ("mper", "shape us first_us", ("mper",), time_mper),
    ("rank_vector", "shape us", ("rank", "rank_vector"), time_rank_vector),
    ("classify", "label us", (
        "apply", "canonical_form", "classify_form", "d_matrix", "equivalent_to_d", "p_matrix",
        "RankError",
    ), time_classify),
    ("sweep", "shape gen_s leaf_s cost classes ran leaves spans us_per_leaf us_per_unit", (
        "verifier._prefix_classes", "verifier._strata", "verifier._SweepTables",
        "verifier._sweep_block", "verifier._last_row_values",
    ), time_sweep),
    ("import", "module ms", (), time_import),
]


def missing(px, names):
    """The first of the dotted ``names`` that the package ``px`` lacks, or None."""
    for name in names:
        obj = px
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            return name
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import permax as px

    for section, columns, names, run in SECTIONS:
        gone = missing(px, names)
        if gone:
            print(f"# {section}: skipped, {gone} missing", flush=True)
        else:
            print(f"# {section}: {columns}", flush=True)
            run(px)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # its reader left early, as in ``| head``
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
