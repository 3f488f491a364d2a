"""Reference-speed clock: wall times scaled to a steady machine speed.

The benchmark's machine is shared: the same op can take 1.7 times as long
for tens of seconds at a stretch while the process keeps its CPU (process
time over wall time stays at 0.99), because a neighbour loads the same
core.  The drift is slow next to one op, so a short fixed kernel timed
between ops gauges the current speed well: over such swings the ratio of
op time to kernel time stays within a few per cent on all three workloads,
while the raw op time moves by up to a factor of two.

:class:`SpeedClock` times the kernel between ops, at most every ``EVERY_S``
seconds, and converts an op's wall time, less the samples taken inside it,
to *reference time*: wall time times ``REFERENCE_S`` over the kernel time
measured around the op.
Reference time is the op's wall time on this machine when nothing else
loads its core; the end-to-end metrics are reported in it, and the raw wall
figures are printed beside them.

The kernel is numpy only and independent of the package, so a change to
the package never moves it.  It repeats the shape of the Gaussian integral
at the heart of the chi engine (a small Cholesky factor, a solve, a log
determinant and an exponential): call-overhead-bound numpy, like every hot
path of the package today.  A change that turns those paths into large
vectorised kernels may slow down under load by another factor than this
kernel does; compare raw wall figures too when that happens.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# kernel time when nothing else loads the core (fast-mode median of
# ``sample()`` on a 2-vCPU x86-64 VM at 2.1 GHz, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.76e-3
KERNEL_STEPS = 40
SAMPLE_REPEATS = 3
EVERY_S = 0.1

_QUAD = np.array([[2.7, 0.3], [0.3, 1.9]])
_LIN = np.array([0.4 + 0.2j, -0.1 + 0.3j])
_EYE = np.eye(2)


def kernel() -> complex:
    total = 0j
    for k in range(KERNEL_STEPS):
        chol = np.linalg.cholesky(_QUAD + 0.01 * k * _EYE)
        z = np.linalg.solve(chol, _LIN)
        total += np.exp(0.5 * np.sum(z * z) - np.sum(np.log(np.diag(chol))))
    return total


def sample() -> float:
    """Kernel seconds now: the fastest of a few back-to-back repeats."""
    best = float("inf")
    for _ in range(SAMPLE_REPEATS):
        begin = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - begin)
    return best


class SpeedClock:
    """Speed samples along a run, and the conversion of wall intervals."""

    def __init__(self):
        kernel()  # first-call set-up of the linalg routines stays out of samples
        self.starts = []  # perf_counter at the start of each sample
        self.ends = []  # ... and at its end
        self.factors = []  # REFERENCE_S / kernel seconds
        self.sample()

    def sample(self) -> None:
        begin = time.perf_counter()
        factor = REFERENCE_S / sample()
        self.starts.append(begin)
        self.ends.append(time.perf_counter())
        self.factors.append(factor)

    def tick(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def split(self, start: float, end: float):
        """(wall seconds, reference seconds) of [start, end], leaving out the
        samples taken inside it.  Each piece between samples is scaled by the
        mean factor of the samples on either side of it (the nearest one at
        the ends of the run)."""
        first = bisect.bisect_left(self.starts, start)
        stop = bisect.bisect_right(self.ends, end)
        edges = [start]
        for k in range(first, stop):
            edges += [self.starts[k], self.ends[k]]
        edges.append(end)
        last = len(self.factors) - 1
        wall = ref = 0.0
        for n, (a, b) in enumerate(zip(edges[::2], edges[1::2])):
            before = self.factors[min(max(first + n - 1, 0), last)]
            after = self.factors[min(first + n, last)]
            wall += b - a
            ref += (b - a) * 0.5 * (before + after)
        return wall, ref
