"""Microseconds per ``permanent_ryser`` and ``permanent_naive`` call, by order 2 to 12.

Usage, from the repository root:

    python3 tools/permanent_us.py [--src DIR]

``--src`` names the directory holding the ``permax`` package (default
``src`` next to this directory), so the same script can time two
checkouts.  Each order n gets 40 seeded uniform n x n sign matrices; one
pass calls an evaluator once on each, and the best of ``REPEATS`` passes
is reported as microseconds per call, one line per order: ``n ryser
naive``.  The best pass is the one least disturbed by other load on the
machine.  Up to order 9 the matrices' row words fit the Glynn evaluator's
row-vector cache, so its figure is the warm-cache cost; at orders 10-12
they do not, and the figure includes building the row vectors.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

MATRICES = 40
REPEATS = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from permax import SignMatrix, permanent_naive, permanent_ryser

    rng = random.Random(7)
    for n in range(2, 13):
        mats = [SignMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n))) for _ in range(MATRICES)]
        line = [str(n)]
        for evaluate in (permanent_ryser, permanent_naive):
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for a in mats:
                    evaluate(a)
                best = min(best, time.perf_counter() - t0)
            line.append(f"{best / MATRICES * 1e6:.1f}")
        print(" ".join(line), flush=True)


if __name__ == "__main__":
    main()
