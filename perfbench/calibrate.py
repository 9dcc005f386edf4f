"""Machine-speed calibration for a shared, noisy machine.

The machine this benchmark was sized on switches, for seconds at a time,
between a fast state and one where the same op takes up to twice as
long; CPU time follows wall time, so the program is not at fault.  A
fixed kernel, timed just before every round, measures the state the
round ran in, and each op's time is scaled to the reference state:

    normalised = measured * REFERENCE_S[kind] / kernel time

An op of many seconds can span both states, so it is also calibrated
every PERIOD_S of CPU time while it runs (SIGPROF), and the kernel time
spent there is taken out of its time.

Two kernels, because the slow state does not slow all code alike: hash
and tuple work (the classifier, the group code) slows by up to ~1.8x,
big-integer arithmetic (the forge) by much less.  Each op is scaled by
the kernel that resembles it.  The kernels are the benchmark's own code;
no change to the program changes them.
"""

from __future__ import annotations

import signal
from math import gcd
from time import perf_counter

SAMPLES = 3  # kernel runs per calibration; the fastest counts
PERIOD_S = 1.0  # CPU seconds between calibrations inside a long op


def _tuples() -> int:
    """Closure of S_7 under a 7-cycle and a transposition: compose, hash, look up."""
    n = 7
    gens = (tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n)))
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = tuple(e[i] for i in g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def _bigints() -> int:
    """Products, remainders and gcds of 600-bit integers, as in Sturm sequences over Q."""
    m = (1 << 607) - 1
    x = 3**380
    acc = 0
    for k in range(1500):
        x = (x * x + k) % m
        acc ^= gcd(x, m - k)
    return acc


KERNELS = {"classify": _tuples, "forge": _bigints}
# fastest kernel times seen on the sizing machine (Python 3.11, fast state)
REFERENCE_S = {"classify": 0.0083, "forge": 0.0091}


def kernel_seconds(kind: str) -> float:
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(SAMPLES):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Sampler:
    """Calibrates every PERIOD_S of CPU time while the block runs."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = []
        self.spent = 0.0  # seconds of the block taken by the calibrations

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel_seconds(self.kind))
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False
