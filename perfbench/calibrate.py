"""Machine-speed calibration for the benchmark's times.

On the shared 2-core machine this benchmark was built on, the same code
runs at one of two speeds (about 1.5x apart) that switch many times a
minute, and the mix drifts over minutes; process CPU time moves with
wall time. Raw wall times of one workload therefore spread by 15%-30%
between runs. The benchmark runs a fixed kernel before every grid
point; its mean duration over a pass measures the speed the pass ran at,
and every end-to-end time is reported scaled to the kernel's reference
duration: the time the pass would take at reference speed. The kernel
is benchmark code, so no change to the package can move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's fastest duration on the build machine (Xeon, 2.1 GHz,
# Python 3.11, numpy 2.4); scaled times are in seconds at that speed.
REFERENCE_S = 0.0017


def kernel() -> float:
    """An alternating series with exp and fsum, like a density evaluation,
    then a small batch of GSC draws, like a Monte Carlo estimate."""
    total = 0.0
    for k in range(300):
        x = 0.01 * k
        terms = [(-1.0) ** l * math.comb(12, l) * math.exp(-(1.0 + l / 3) * x) for l in range(13)]
        total += math.fsum(terms)
    branches = np.random.Generator(np.random.Philox(key=[0, 0])).exponential(1.0, size=(8192, 4))
    return total + float(np.partition(branches, 2, axis=1)[:, 2:].sum())


class SpeedProbe:
    """Kernel durations sampled between units of work."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def spent(self, start: int = 0) -> float:
        """Seconds spent in the kernel since sample number ``start``."""
        return math.fsum(self.samples[start:])

    def scale(self, start: int = 0) -> float:
        """Factor from measured to reference-speed times, over the samples
        since ``start``."""
        return REFERENCE_S / statistics.fmean(self.samples[start:])
