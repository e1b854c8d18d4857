"""Machine-speed gauge: a fixed reference computation timed during a run.

On a shared host a vCPU can run tens of percent slower for minutes at a
time (another tenant on its sibling hyperthread), which moves every timing
of a run together.  The gauge times a small fixed computation between
requests; it uses only the standard library, mpmath or numpy, never
polyaurn, so no change to the package can move it.  The median of its times
over its time on a quiet host is the run's slowdown factor f.  The
workloads' timings do not slow by f itself but by about f**GAMMA:
regressing log timings on log f over 32 runs of the three workloads in quiet
and busy phases on the reference machine (a 2-vCPU VM on a shared host)
gave 0.6 to 0.84 for every workload and timing (0.7 pooled).  The benchmark
divides the timings of a run by f**GAMMA, a control variate.  Each
workload's reference exercises the same kind of arithmetic as its dominant
layer.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction


def _rational_arithmetic() -> None:
    x = Fraction(1, 3)
    for i in range(400):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 3)


def _mpmath_arithmetic() -> None:
    import mpmath as mp

    with mp.workdps(60):
        x = mp.mpf(1) / 3
        for i in range(400):
            x = (x * (i + 2) + 1) / (i + 3)


def _numpy_vectors() -> None:
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(1))
    w = np.ones(20_000)
    for _ in range(20):
        w += rng.random(20_000) * 4.0 <= w


# reference computation per workload, and its median time when timed between
# that workload's requests on a quiet host (2 vCPUs, Python 3.11, mpmath 1.3
# on its Python backend, numpy 2.4); the references use no cached state of
# the libraries, so what ran before them moves them little
REFERENCES = {
    "exact_laws": (_rational_arithmetic, 2.2e-3),
    "limit_density": (_mpmath_arithmetic, 1.7e-3),
    "montecarlo": (_numpy_vectors, 2.4e-3),
}


GAMMA = 0.7


class SpeedGauge:
    """Samples the reference at most every `every` seconds; tracks the wall
    and CPU time it spends, so callers can leave it out of their timings."""

    def __init__(self, workload: str, every: float = 0.15):
        self.kernel, self.quiet_s = REFERENCES[workload]
        self.every = every
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self._last < self.every:
            return
        c0 = time.process_time()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.wall_spent += end - start
        self.cpu_spent += time.process_time() - c0
        self._last = end

    def factor(self) -> float:
        """Median reference time over its quiet-host time."""
        return statistics.median(self.samples) / self.quiet_s

    def correction(self) -> float:
        """What the run's timings are divided by."""
        return self.factor() ** GAMMA
