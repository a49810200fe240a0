"""Microseconds per ``rank_vector`` call, by shape (2,3) to (4,8).

Usage, from the repository root:

    python3 tools/rank_vector_us.py [--src DIR]

``--src`` names the directory holding the ``permax`` package (default
``src`` next to this directory), so the same script can time two
checkouts.  Each shape k x n, 2 <= k <= 4 and k < n <= 8, gets 40
seeded full-rank matrices; one pass calls ``rank_vector`` once on each,
and the best of ``REPEATS`` passes is reported as microseconds per call, one
line per shape.  The best pass is the one least disturbed by other
load on the machine.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

MATRICES = 40
REPEATS = 7


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from permax import SignMatrix, rank, rank_vector

    rng = random.Random(11)
    for k in (2, 3, 4):
        for n in range(k + 1, 9):
            mats = []
            while len(mats) < MATRICES:
                a = SignMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
                if rank(a) == k:
                    mats.append(a)
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for a in mats:
                    rank_vector(a)
                best = min(best, time.perf_counter() - t0)
            print(f"({k},{n}) {best / MATRICES * 1e6:.1f}")


if __name__ == "__main__":
    main()
