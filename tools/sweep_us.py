"""Cost of the sweep kernel per shape: class generation, the leaf pass,
and microseconds per leaf.

Usage, from the repository root:

    python3 tools/sweep_us.py [--src DIR]

``--src`` names the directory holding the ``permax`` package (default
``src`` next to this directory).  The shapes are the square orders 2-6,
the twelve wide shapes of acceptance criterion 7, (2,3) to (4,6), and
the largest wide shapes the sweep budget admits, (4,7), (5,7), (4,8),
(3,9) and (3,10).  For each, one line gives:

- ``gen_s``: ``list(_prefix_classes(...))``, the classes of the first
  k - 2 free rows under row and column permutations, drawn from the
  generator and kept so the leaf pass can be timed apart;
- ``leaf_s``: a fresh ``_SweepTables`` plus ``_sweep_block`` over every
  class as one block, as one sweep process pays them;
- ``cost``: the units the sweep budget admits the shape by, its leaves
  times its C(n,k) column selections;
- ``classes``, and ``leaves``, the classes times the 2^(n-1) last rows;
- ``spans``, the span-table entries the pass filled beyond the zero span;
- ``us_per_leaf``, ``leaf_s`` per leaf;
- ``us_per_unit``, ``gen_s`` plus ``leaf_s`` per unit of ``cost``.

Each time is the best of ``REPEATS`` runs, the one least disturbed by
other load on the machine.  The checks ``_sweep`` makes and the orbit
test of ``_verdict`` are not timed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

REPEATS = 5
SHAPES = [(n, n) for n in range(2, 7)] + [
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6),
    (4, 7), (5, 7), (4, 8), (3, 9), (3, 10),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from permax import verifier

    print("shape gen_s leaf_s cost classes leaves spans us_per_leaf us_per_unit")
    for k, n in SHAPES:
        gen = leaf = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            classes = list(verifier._prefix_classes(k - 2, n - 1))
            t1 = time.perf_counter()
            tables = verifier._SweepTables(k, n)
            verifier._sweep_block(tables, classes)
            t2 = time.perf_counter()
            gen, leaf = min(gen, t1 - t0), min(leaf, t2 - t1)
        leaves = len(classes) << (n - 1)
        cost = leaves * math.comb(n, k)
        spans = len(tables.spans.dim) - 1
        print(
            f"({k},{n}) {gen:.4f} {leaf:.4f} {cost} {len(classes)} {leaves} {spans}"
            f" {leaf / leaves * 1e6:.2f} {(gen + leaf) / cost * 1e6:.3f}"
        )


if __name__ == "__main__":
    main()
