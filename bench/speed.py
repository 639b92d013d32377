"""Machine-speed sampling, so that run times are comparable across runs.

The host this benchmark was written on changes speed by up to 1.5x within
seconds, because of other tenants: identical runs of one command read
3.2-4.7 s in a row, and medians of 30-second runs spread by 0.10-0.25 of
their median across ten seeds.  While a measured command runs,
``SpeedSampler`` interrupts it every ``INTERVAL`` seconds with SIGALRM and
times one fixed reference slice.  A command's relative time is its wall time,
minus the time spent in slices, divided by the mean slice time during that
command.  On the bounds workload this reads 1486-1648 where the wall time
read 3.19-4.66 s, and its spread over five runs fell from 0.059 to 0.017.

The slice mimics hoij's hot path without importing it: nested forward-mode
dual numbers over numpy row arrays, through exp, products and sums.  Its
work is fixed here and must not change, or relative times stop being
comparable across commits.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05            # seconds between slices, about 3% of the run
ROWS, COLS, DEPTH, REPS = 400, 5, 3, 8
# Seconds one slice is taken to last when a relative time is quoted in
# seconds: the slice's median on the 2-core Xeon VM this was written on.
# Fixed, like the slice's work, so quoted seconds compare across commits.
NOMINAL_SLICE_S = 0.0016


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, self.b + o.b)
        return _Dual(self.a + o, self.b)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return _Dual(self.a * o, self.b * o)

    def exp(self):
        e = self.a.exp() if isinstance(self.a, _Dual) else np.exp(self.a)
        return _Dual(e, self.b * e)


def _nested(value: float, depth: int):
    x = value
    for _ in range(depth):
        x = _Dual(x, x * 0.0 + 1.0 if isinstance(x, _Dual) else 1.0)
    return x


_X = np.random.default_rng(0).random((ROWS, COLS)) * 2.0 - 1.0


def reference_slice() -> float:
    """Wall time of the fixed reference work (about 1.6 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        theta = [_nested(0.1 * (j + 1), DEPTH) for j in range(COLS)]
        z = theta[0] * _X[:, 0]
        for j in range(1, COLS):
            z = z + theta[j] * _X[:, j]
        s = z.exp()
        [s * _X[:, j] for j in range(COLS)]
    return time.perf_counter() - t0


class SpeedSampler:
    """While entered, times one reference slice every INTERVAL seconds;
    ``slices`` holds the slice times of the latest entry."""

    def __init__(self):
        for _ in range(20):            # warm-up
            reference_slice()
        self.slices: list = []

    def _tick(self, signum, frame):
        self.slices.append(reference_slice())

    def __enter__(self):
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def mean_slice(slices: list) -> float:
    """Mean slice time; a fresh slice if there is none (a command shorter
    than INTERVAL)."""
    return statistics.mean(slices) if slices else reference_slice()
