"""Special-function kernels used by the exact and asymptotic urn machinery.

Everything here is elementary and dependency-free: a guarded log-gamma,
a rising factorial that works on exact rationals as well as floats, and the
Stirling numbers of the second kind.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "log_gamma",
    "rising_factorial",
    "stirling2",
]


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (math.lgamma), guarded
    against the poles at 0, -1, -2, ... and against NaN."""
    x = float(x)
    if x <= 0.0 or math.isnan(x):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def rising_factorial(x, s: int):
    """x^(s) rising = x (x+1) ... (x+s-1); s=0 gives 1.

    Works with int, Fraction, and float arguments; the result type follows
    the argument so exact-mode callers stay exact.
    """
    if s < 0 or s != int(s):
        raise ValueError(f"rising_factorial order must be a non-negative integer, got {s}")
    result = x * 0 + 1  # 1 in the arithmetic of x
    for k in range(int(s)):
        result = result * (x + k)
    return result


@lru_cache(maxsize=None)
def stirling2(s: int, r: int) -> int:
    """Stirling number of the second kind S(s,r): set partitions of [s] into r blocks."""
    if s < 0 or r < 0:
        raise ValueError(f"stirling2 requires s, r >= 0, got ({s}, {r})")
    if r > s:
        return 0
    if s == 0:
        return 1  # r == 0 here
    if r == 0:
        return 0
    return r * stirling2(s - 1, r) + stirling2(s - 1, r - 1)
