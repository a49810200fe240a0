"""Microseconds per ``classify_form`` call, by outcome, per order-6
``canonical_form`` call, and per order-6 ``equivalent_to_d`` call.

Usage, from the repository root:

    python3 tools/classify_us.py [--src DIR]

``--src`` names the directory holding the ``permax`` package (default
``src`` next to this directory), so the same script can time two
checkouts.  Each outcome gets 20 seeded order-6 inputs: uniform
nonsingular matrices tagged ConditionA, scrambled copies of the
templates D_(6,5), D_(6,6), P1 and P2 (random row and column signs and
orders, transposed half the time), and uniform singular matrices that
raise RankError.  Two more lines time the same pair normal form at
other orders: 20 scrambled copies of D_(5,5) (D5Special) and 20 uniform
order-7 matrices tagged ConditionA.  ``canonical_form`` is timed on 20 uniform matrices
and on the same scrambled template copies: symmetric inputs, which
cost its search the most.  ``equivalent_to_d(a, r)`` is timed on 20
scrambled copies of each D_(6,r), r = 0..6: the calls the sweeps make on
their extremal representatives.
One pass makes one call per input, and the best of ``REPEATS`` passes is
reported as microseconds per call, one line per outcome.  The best pass
is the one least disturbed by other load on the machine.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

MATRICES = 20
REPEATS = 7


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from permax import (
        RankError,
        SignMatrix,
        apply,
        canonical_form,
        classify_form,
        d_matrix,
        equivalent_to_d,
        p_matrix,
    )

    rng = random.Random(13)

    def uniform(n: int = 6) -> SignMatrix:
        return SignMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))

    def scrambled(template: SignMatrix) -> SignMatrix:
        n = template.rows
        steps = [("negR", i) for i in range(1, n + 1) if rng.random() < 0.5]
        steps += [("negC", j) for j in range(1, n + 1) if rng.random() < 0.5]
        steps += [("swapR", i, rng.randint(i, n)) for i in range(1, n + 1)]
        steps += [("swapC", j, rng.randint(j, n)) for j in range(1, n + 1)]
        if rng.random() < 0.5:
            steps.append(("T",))
        return apply(template, steps)

    def tag(a: SignMatrix) -> str:
        try:
            return classify_form(a).tag
        except RankError:
            return "RankError"

    def drawn(want: str, n: int = 6) -> list[SignMatrix]:
        mats: list[SignMatrix] = []
        while len(mats) < MATRICES:
            a = uniform(n)
            if tag(a) == want:
                mats.append(a)
        return mats

    def classify(a: SignMatrix) -> None:
        try:
            classify_form(a)
        except RankError:
            pass

    templates = {
        "DnMinus1": d_matrix(6, 6, 5),
        "DnDiag": d_matrix(6, 6, 6),
        "P1": p_matrix(1),
        "P2": p_matrix(2),
    }
    cases = [("classify ConditionA", classify, drawn("ConditionA"))]
    copies = {name: [scrambled(t) for _ in range(MATRICES)] for name, t in templates.items()}
    cases += [(f"classify {name}", classify, mats) for name, mats in copies.items()]
    cases.append(("classify RankError", classify, drawn("RankError")))
    cases.append(("canonical_form uniform", canonical_form, [uniform() for _ in range(MATRICES)]))
    cases += [(f"canonical_form {name}", canonical_form, mats) for name, mats in copies.items()]
    for r in range(7):
        mats = [scrambled(d_matrix(6, 6, r)) for _ in range(MATRICES)]
        cases.append((f"equivalent_to_d D_(6,{r})", lambda a, r=r: equivalent_to_d(a, r), mats))
    # drawn after every order-6 input, so those inputs do not depend on these
    d55 = [scrambled(d_matrix(5, 5, 5)) for _ in range(MATRICES)]
    cases.append(("classify D5Special", classify, d55))
    cases.append(("classify ConditionA order 7", classify, drawn("ConditionA", 7)))
    for label, call, mats in cases:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for a in mats:
                call(a)
            best = min(best, time.perf_counter() - t0)
        print(f"{label} {best / MATRICES * 1e6:.1f}")


if __name__ == "__main__":
    main()
