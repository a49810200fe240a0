"""The four benchmark workloads: inputs, one timed pass, and output checks.

A workload is three functions.  ``inputs(seed, index)`` builds the inputs
of pass ``index`` from the seed before any timing starts.  ``run(inputs)``
makes the timed calls into ``permax`` with one worker and returns a
``Pass``.
``check(inputs, done, checks)`` compares the outputs with expectations
that do not come from the code under test: frozen tables, case counts
derived from the volume, and witness replays done here on raw row words.
Every mismatch and every exception raised by the program is one failed
check.

Program functions are looked up through their modules at call time, so
trace wrappers installed by ``spans.Tracer`` see every call.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from permax import reduction, sign_matrix, verifier

clock = time.perf_counter

# criterion 4: (rank, bound, observed max, extremal orbits, equality class)
SWEEP6_ROWS = (
    (1, 720, 720, 1, "D-only"),
    (2, 480, 480, 1, "D-only"),
    (3, 336, 336, 1, "D-only"),
    (4, 240, 240, 1, "D-only"),
    (5, 176, 176, 1, "D-only"),
    (6, 128, 128, 1, "D-only"),
)

# criterion 7: shape (k, n) -> (bound, equality orbits)
MPER_TABLE = {
    (2, 3): (2, 1),
    (2, 4): (6, 1),
    (2, 5): (12, 1),
    (2, 6): (20, 1),
    (2, 7): (30, 1),
    (2, 8): (42, 1),
    (3, 4): (8, 2),
    (3, 5): (24, 1),
    (3, 6): (56, 1),
    (3, 7): (110, 1),
    (4, 5): (32, 1),
    (4, 6): (120, 1),
}

# The suite's fixed exhaustive part costs about 7 s at any volume; at this
# volume the sampled part is more than half of the run.
PROPS_SAMPLES = 12_000

# full-row-rank sign matrices of shapes (2,3), (2,4) and (3,4): the
# exhaustive part of the rank-vector laws
PROPS_EXHAUSTIVE_WIDE = 2960

# order-6 orbit templates as row words (bit j set: entry -1 in column j+1)
TEMPLATES = {f"D{r}": tuple(1 << i if i < r else 0 for i in range(6)) for r in range(7)}
TEMPLATES.update(P1=(0, 6, 12, 24, 48, 34), P2=(0, 3, 5, 9, 24, 40))
# transformed copies of each template per orbit6 pass; as many uniform
# random matrices again.  Equal counts keep the slow symmetric templates
# (D6, P1, P2) at a fixed share of every pass.
ORBIT6_PER_TEMPLATE = 6
TEMPLATE_TAGS = {"D5": "DnMinus1", "D6": "DnDiag", "P1": "P1", "P2": "P2"}


@dataclass
class Checks:
    """Count of checks attempted and the description of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Pass:
    """One timed pass: its wall time, workload units handled, per-item
    times where the workload has items, and the outputs to check."""

    seconds: float
    items: int
    item_seconds: list[float]
    outputs: object


@dataclass(frozen=True)
class Workload:
    """``par``, where the program takes a worker count, times the pass
    again with that many workers and checks it against a 1-worker pass."""

    name: str
    unit: str
    inputs: Callable
    run: Callable
    check: Callable
    par: Callable | None = None


def _call(fn, *args):
    """Result of ``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a raising program is a failed check, not a crash
        return exc


def _same_report(a, b) -> bool:
    fields = ("n", "rows", "scanned", "checks")
    return all(getattr(a, f, None) == getattr(b, f, None) for f in fields)


# --- independent helpers on raw row words ------------------------------------


def signs(words, cols: int) -> list[list[int]]:
    return [[-1 if (w >> j) & 1 else 1 for j in range(cols)] for w in words]


def own_rank(words, cols: int) -> int:
    """Rank over the rationals by division-free integer elimination."""
    m = signs(words, cols)
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f, g = m[i][c], m[r][c]
            if f:
                m[i] = [g * x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def own_per(words, n: int) -> int:
    """Permanent by Ryser's formula over plain column subsets."""
    rows = signs(words, n)
    total = 0
    for s in range(1, 1 << n):
        cols = [j for j in range(n) if (s >> j) & 1]
        p = 1
        for row in rows:
            p *= sum(row[j] for j in cols)
        total += -p if len(cols) % 2 else p
    return total if n % 2 == 0 else -total


def replay(words, rows: int, cols: int, steps) -> tuple[int, ...]:
    """Apply a transform sequence (1-based steps, as permax emits them)."""
    w = list(words)
    for step in steps:
        kind = step[0]
        if kind == "negR":
            w[step[1] - 1] ^= (1 << cols) - 1
        elif kind == "negC":
            w = [x ^ (1 << (step[1] - 1)) for x in w]
        elif kind == "swapR":
            i, k = step[1] - 1, step[2] - 1
            w[i], w[k] = w[k], w[i]
        elif kind == "swapC":
            j, k = step[1] - 1, step[2] - 1
            w = [x ^ ((1 << j) | (1 << k)) if ((x >> j) ^ (x >> k)) & 1 else x for x in w]
        elif kind == "T":
            if rows != cols:
                raise ValueError("transpose of a non-square matrix")
            w = [sum(((w[i] >> j) & 1) << i for i in range(rows)) for j in range(cols)]
        else:
            raise ValueError(f"unknown step {step!r}")
        if any(not 0 <= x < 1 << cols for x in w) or len(w) != rows:
            raise ValueError(f"step {step!r} left the {rows}x{cols} shape")
    return tuple(w)


def random_steps(rng: random.Random, n: int) -> tuple[tuple, ...]:
    steps: list[tuple] = []
    for _ in range(rng.randint(6, 16)):
        kind = rng.choice(("negR", "negC", "swapR", "swapC", "T"))
        if kind == "T":
            steps.append(("T",))
        elif kind in ("negR", "negC"):
            steps.append((kind, rng.randint(1, n)))
        else:
            steps.append((kind, rng.randint(1, n), rng.randint(1, n)))
    return tuple(steps)


# --- sweep6 ----------------------------------------------------------------


def sweep6_inputs(seed: int, index: int) -> None:
    return None  # the exhaustive sweep has no free input


def sweep6_run(_inputs) -> Pass:
    t0 = clock()
    report = _call(verifier.verify_square, 6, 1)
    return Pass(clock() - t0, 1 << 25, [], report)


def sweep6_check(_inputs, done: Pass, checks: Checks) -> None:
    report = done.outputs
    if isinstance(report, Exception):
        checks.expect(False, f"verify_square(6, 1) raised {report!r}")
        return
    checks.expect(report.scanned == 1 << 25, f"sweep6 scanned {report.scanned}, want 2^25")
    got = [
        (s.rank, s.bound, s.observed_max, s.extremal_orbits, s.equality_class)
        for s in report.rows
    ]
    for want, row in itertools.zip_longest(SWEEP6_ROWS, got):
        checks.expect(row == want, f"sweep6 stratum {row}, want {want}")


def sweep6_par(_inputs, serial: Pass, workers: int, checks: Checks) -> float:
    """Wall time of the sweep with ``workers`` workers; its report must
    equal the 1-worker report apart from timing."""
    t0 = clock()
    report = _call(verifier.verify_square, 6, workers)
    seconds = clock() - t0
    checks.expect(
        not isinstance(report, Exception) and _same_report(report, serial.outputs),
        f"verify_square(6, {workers}) differs from the 1-worker report: {report!r}",
    )
    return seconds


# --- mper12 ----------------------------------------------------------------


def mper12_inputs(seed: int, index: int) -> tuple[tuple[int, int], ...]:
    return tuple(MPER_TABLE)


def mper12_run(shapes) -> Pass:
    reports = []
    t0 = clock()
    for k, n in shapes:
        reports.append(_call(verifier.verify_mper, k, n))
    seconds = clock() - t0
    items = sum(1 << ((k - 1) * (n - 1)) for k, n in shapes)
    return Pass(seconds, items, [], reports)


def mper12_check(shapes, done: Pass, checks: Checks, table=MPER_TABLE) -> None:
    for (k, n), rep in zip(shapes, done.outputs):
        if isinstance(rep, Exception):
            checks.expect(False, f"verify_mper({k}, {n}) raised {rep!r}")
            continue
        want_scanned = 1 << ((k - 1) * (n - 1))
        checks.expect(rep.scanned == want_scanned, f"mper ({k},{n}) scanned {rep.scanned}, want {want_scanned}")
        bound, orbits = table[(k, n)]
        got = [(r.bound, r.observed_max, r.extremal_orbits) for r in rep.rows]
        checks.expect(got == [(bound, bound, orbits)], f"mper ({k},{n}) rows {got}, want {(bound, bound, orbits)}")


# --- props -----------------------------------------------------------------


def props_expected(samples: int) -> dict[str, int]:
    """Per-check case counts of the property suite at this volume."""
    normalized = sum(1 << ((n - 1) ** 2) for n in (2, 3, 4))
    return {
        "ryser_vs_naive": normalized + sum(samples * pct // 100 for pct in (85, 10, 4, 1)),
        "order4_divisibility": 1 << 9,
        "total_bound": normalized + (1 << 16),
        "laplace_expansion": max(1, samples // 100),
        "transform_invariance": max(1, samples // 10),
        "rank_vector_laws": PROPS_EXHAUSTIVE_WIDE + max(1, samples // 200),
    }


def props_inputs(seed: int, index: int) -> tuple[int, int]:
    return seed, PROPS_SAMPLES


def props_run(inputs) -> Pass:
    seed, samples = inputs
    t0 = clock()
    rep = _call(verifier.verify_properties, seed, samples)
    seconds = clock() - t0
    return Pass(seconds, sum(props_expected(samples).values()), [], rep)


def props_check(inputs, done: Pass, checks: Checks) -> None:
    rep = done.outputs
    if isinstance(rep, Exception):
        checks.expect(False, f"verify_properties{inputs} raised {rep!r}")
        return
    want = props_expected(inputs[1])
    got = dict(rep.checks)
    for name, cases in want.items():
        checks.expect(got.get(name) == cases, f"props {name}: {got.get(name)} cases, want {cases}")
    checks.expect(set(got) == set(want), f"props check names {sorted(got)}")
    checks.expect(rep.scanned == sum(want.values()), f"props scanned {rep.scanned}")


# --- orbit6 ----------------------------------------------------------------


@dataclass(frozen=True)
class OrbitItem:
    kind: str  # template name, or "uniform"
    matrix: object  # permax SignMatrix handed to the program
    rank: int
    abs_per: int


@functools.cache
def template_canon() -> dict[str, tuple[int, ...]]:
    """The templates' own canonical forms, computed before any timing."""
    return {
        name: reduction.canonical_form(sign_matrix.SignMatrix(6, 6, words)).words
        for name, words in TEMPLATES.items()
    }


def orbit6_inputs(seed: int, index: int) -> tuple[dict, list[OrbitItem]]:
    """Pass ``index`` of the seeded stream, with the templates' canonical forms."""
    rng = random.Random(f"orbit6:{seed}:{index}")
    raw = [
        (name, replay(words, 6, 6, random_steps(rng, 6)))
        for name, words in TEMPLATES.items()
        for _ in range(ORBIT6_PER_TEMPLATE)
    ]
    raw += [("uniform", tuple(rng.getrandbits(6) for _ in range(6))) for _ in range(len(raw))]
    rng.shuffle(raw)
    items = [
        OrbitItem(kind, sign_matrix.SignMatrix(6, 6, words), own_rank(words, 6), abs(own_per(words, 6)))
        for kind, words in raw
    ]
    return template_canon(), items


def orbit6_run(inputs) -> Pass:
    _canon, items = inputs
    outputs = []
    times = []
    t0 = clock()
    for it in items:
        t = clock()
        outputs.append(_call(_orbit6_item, it))
        times.append(clock() - t)
    seconds = clock() - t0
    return Pass(seconds, len(items), times, outputs)


def _orbit6_item(it: OrbitItem):
    a = it.matrix
    canon = reduction.canonical_form(a)
    witness = reduction.equivalent_to_d(a, it.rank - 1)
    form = reduction.classify_form(a) if it.rank == 6 or it.kind == "P2" else None
    return canon, witness, form


def _form_holds(tag: str, words) -> bool:
    if tag == "ConditionA":
        return words[0] == 0 and words[1].bit_count() == 3
    template = {"DnMinus1": "D5", "DnDiag": "D6", "P1": "P1", "P2": "P2"}.get(tag)
    return template is not None and words == TEMPLATES[template]


def orbit6_check(inputs, done: Pass, checks: Checks) -> None:
    canon_of, items = inputs
    for it, out in zip(items, done.outputs):
        words = it.matrix.words
        if isinstance(out, Exception):
            checks.expect(False, f"orbit6 {it.kind} {words} raised {out!r}")
            continue
        canon, witness, form = out
        cw = canon.words
        checks.expect(
            (it.kind == "uniform" or cw == canon_of[it.kind])
            and own_rank(cw, 6) == it.rank
            and abs(own_per(cw, 6)) == it.abs_per,
            f"orbit6 {it.kind} {words}: canonical form {cw} leaves the orbit",
        )
        in_d_orbit = cw == canon_of[f"D{it.rank - 1}"]
        target = TEMPLATES[f"D{it.rank - 1}"]
        try:
            ok = replay(words, 6, 6, witness) == target if witness is not None else not in_d_orbit
        except (ValueError, IndexError, TypeError):
            ok = False
        checks.expect(ok, f"orbit6 {it.kind} {words}: D_(6,{it.rank - 1}) witness {witness!r}")
        if it.rank == 6 or it.kind == "P2":
            try:
                ok = (
                    form.tag == TEMPLATE_TAGS.get(it.kind, form.tag)
                    and _form_holds(form.tag, replay(words, 6, 6, form.seq))
                )
            except (ValueError, IndexError, TypeError, AttributeError):
                ok = False
            checks.expect(ok, f"orbit6 {it.kind} {words}: classify_form gave {form!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep6", "matrices", sweep6_inputs, sweep6_run, sweep6_check, sweep6_par),
        Workload("mper12", "matrices", mper12_inputs, mper12_run, mper12_check),
        Workload("props", "cases", props_inputs, props_run, props_check),
        Workload("orbit6", "matrices", orbit6_inputs, orbit6_run, orbit6_check),
    )
}
