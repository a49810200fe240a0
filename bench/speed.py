"""Times scaled to a reference CPU speed, for a machine whose speed drifts.

On a shared host the same pure-Python pass can take twice as long in one
minute as in the next, because other tenants load the cores.  Wall time
alone then measures the neighbours.  This module runs a fixed reference
kernel, written here and never touching ``permax``, at short intervals
inside the timed region, on the same thread as the program.  The kernel's
time tells how slow the machine is at that moment, and a pass's wall time
is rescaled to the speed at which the kernel takes ``REF_KERNEL_S``.
Each sample runs the kernel twice and times the second, warm run: on a
loaded 2-vCPU host the warm kernel slowed in step with the ``sweep6``,
``mper12`` and ``props`` passes, where the cold one slowed faster than
they did.

With the kernel sampled at even wall-clock intervals, a pass of wall time
``T`` would have taken ``T * mean(REF_KERNEL_S / k_i)`` at the reference
speed, where ``k_i`` are the sampled kernel times: the mean of the
inverse slowdowns is the share of nominal work done per wall second.  A
sample delayed by preemption adds almost nothing to that mean, so no
outlier rule is needed.

The constant only sets the scale: every comparison of two runs divides
it out.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

clock = time.perf_counter

# Reference kernel time in the fast state of a 2-vCPU Intel Xeon VM under
# CPython 3.11, so scaled times read close to wall seconds there.
REF_KERNEL_S = 150e-6
# one sample every this many seconds while a pass runs (about 0.6% of it)
PERIOD_S = 0.05
# kernel runs around each timed import of the set-up measurement
BURST = 12

_A = [(-1) ** i.bit_count() * (i % 5 + 1) for i in range(64)]
_B = [[s.bit_count() - 2 * ((x << 1) & s).bit_count() for s in range(64)] for x in range(12)]


def kernel() -> int:
    """A fixed mix of the interpreter work the program does: small
    comprehensions and bit counts, zipped products over subset tables,
    and combinations with sorted tuples in a dict."""
    acc = 0
    seen: dict = {}
    for i in range(60):
        v = [(i * j) & 63 for j in range(8)]
        acc += sum(x.bit_count() for x in v)
        seen[i & 15] = acc
    for row in _B:
        acc += sum([a * t for a, t in zip(_A, row)])
    for c in itertools.combinations(range(7), 3):
        t = tuple(sorted((c[2], c[0], c[1])))
        seen[t] = seen.get(t, 0) + 1
    return acc


def kernel_times(n: int) -> list[float]:
    """Seconds of ``n`` back-to-back kernel runs, after one untimed run."""
    kernel()
    out = []
    for _ in range(n):
        t = clock()
        kernel()
        out.append(clock() - t)
    return out


def factor(samples: list[float]) -> float:
    """Reference seconds per wall second over the span the samples cover."""
    return statistics.fmean(REF_KERNEL_S / s for s in samples)


class Sampler:
    """Runs the kernel from a SIGALRM handler every ``PERIOD_S`` seconds
    of wall time while active.  Python runs the handler on the main thread
    between bytecodes, so each sample is taken where the program runs.

    ``scaled(wall)`` removes the samples' own time from ``wall`` and
    rescales the rest to the reference speed.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.own = 0.0
        self._old = None

    def _sample(self, _signum, _frame) -> None:
        t0 = clock()
        kernel()
        t1 = clock()
        kernel()
        t2 = clock()
        self.samples.append(t2 - t1)
        self.own += t2 - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self) -> float:
        # a pass shorter than one period gets a sample taken right after it
        return factor(self.samples or kernel_times(BURST))

    def scaled(self, wall: float) -> float:
        return (wall - self.own) * self.factor()
