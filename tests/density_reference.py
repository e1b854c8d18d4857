"""The limit density as an alternating reciprocal-Gamma series, in mpmath.

A reference route for the tests, independent of the Mellin-Barnes contour
that `polyaurn.moments.limit_density` integrates in float64:

    f(x) = A * x^(c-1) * sum_j coef_j x^j,
    coef_j = (-1)^j / j! * prod_l rgamma(shift_l - j*step),

with c = w0/sigma, A = prod_r Gamma(r/psi + z) / Gamma(c) and
shift_l = l/psi + (scaled mass of every color but color 0).  The series
cancels catastrophically for moderate x, so it is summed at a working
precision raised until the observed cancellation leaves at least 15 digits.
It needs about x^(1/(1-Lambda)) terms, so it refuses points that would take
more than _MAX_TERMS.  Nothing is kept between calls.
"""

import math
from fractions import Fraction

import mpmath as mp

from polyaurn.moments import asymptotic_constants
from polyaurn.specialfn import log_gamma

# The series stops after a window of terms below _TOL * |partial sum|;
# _MAX_TERMS bounds its length.
_TOL = 1e-12
_MAX_TERMS = 10_000


def _exact(v) -> Fraction:
    return v if isinstance(v, (int, Fraction)) else Fraction(float(v))


class _Series:
    """With every shift_l = n_l/D and step = m/D over one common denominator
    D, the argument of rgamma returns to its residue class every r terms
    shifted down by the integer q (step = q/r), so rgamma(a - q) = rgamma(a)
    * prod_{i=1..q} (a - i) makes coef_j an integer ratio times coef_{j-r}.
    One mp.rgamma call per shift and residue class seeds each list.

    shifts and step are exact rationals: the reciprocal-Gamma arguments feed
    a sum whose cancellation can run to hundreds of digits, so they must be
    formed at working precision, not in float64.
    """

    def __init__(self, spec):
        cst = asymptotic_constants(spec)
        self.Lambda = cst.Lambda
        self.c = float(spec.initial[0] / spec.sigma)
        sigma = _exact(spec.sigma)
        ell1, ell2 = map(_exact, spec.ells)
        sigma_unit = sigma + ell1
        psi = spec.period + (ell2 - ell1) / sigma_unit
        step = (sigma / sigma_unit) / psi
        rest = (_exact(spec.total_initial) - _exact(spec.initial[0])) / (sigma_unit * psi)
        shifts = [Fraction(lam) / psi + rest for lam in range(cst.period)]
        self.log_pref = -log_gamma(self.c)
        for r in range(cst.period):
            self.log_pref += log_gamma(r / cst.psi + cst.z)
        self.q, self.r = step.numerator, step.denominator
        D = math.lcm(self.r, *(sh.denominator for sh in shifts))
        self.D, self.m = D, self.q * (D // self.r)
        self.nums = [sh.numerator * (D // sh.denominator) for sh in shifts]
        # adjacent shifts sit one step apart, so the sign-flip zeros of the
        # reciprocal-Gamma factors suppress runs of consecutive terms; only a
        # window longer than a full residue cycle proves actual convergence
        self.small_needed = 2 * (len(shifts) + self.r) + 3

    def _extend(self, coefs: list) -> None:
        """Append coef_j, j = len(coefs), at the current working precision."""
        j = len(coefs)
        if j < self.r:
            val = mp.mpf(-1 if j % 2 else 1) / mp.factorial(j)
            for n in self.nums:
                a = Fraction(n - j * self.m, self.D)
                val *= mp.rgamma(mp.mpf(a.numerator) / a.denominator)
        else:
            num = -1 if self.r % 2 else 1
            for n in self.nums:
                prev = n - (j - self.r) * self.m
                for i in range(1, self.q + 1):
                    num *= prev - i * self.D
            den = self.D ** (self.q * len(self.nums)) * math.perm(j, self.r)
            val = coefs[j - self.r] * num / den
        coefs.append(val)

    def value(self, xv: float) -> float:
        """f(xv) for xv > 0.  Terms stop counting against an absolute floor
        of 1e-300, so a sum that settles below it returns 0.0."""
        j_min = int(xv ** (1.0 / (1.0 - self.Lambda))) + 5
        if j_min + self.small_needed > _MAX_TERMS:
            raise RuntimeError(
                f"density series at x={xv} with Lambda={self.Lambda:.6g} needs about "
                f"{j_min + self.small_needed} terms, more than {_MAX_TERMS}"
            )
        dps = 30
        while True:
            with mp.workdps(dps + 10):
                coefs = []
                A = mp.e ** mp.mpf(self.log_pref)
                x_mp = mp.mpf(xv)
                tol, tiny = mp.mpf(_TOL), mp.mpf(1e-300)
                xpow = mp.mpf(1)
                total = mp.mpf(0)
                peak = mp.mpf(0)
                small = 0
                converged = False
                for j in range(_MAX_TERMS):
                    self._extend(coefs)
                    term = coefs[j] * xpow
                    total += term
                    xpow *= x_mp
                    mag = abs(term)
                    peak = max(peak, mag)
                    if j >= j_min:
                        bound = tol * max(abs(total), tiny)
                        small = small + 1 if mag < bound else 0
                        if small >= self.small_needed:
                            converged = True
                            break
                if not converged:
                    raise RuntimeError(
                        f"density series at x={xv} did not settle in {_MAX_TERMS} terms"
                    )
                if abs(total) < tiny:
                    return 0.0
                cancelled = mp.log10(peak / abs(total)) if peak > 0 else 0
                if cancelled > dps - 15:
                    if dps > 4000:
                        raise RuntimeError(f"density at x={xv} needs more than 4000 digits")
                    dps = max(int(cancelled) + 30, dps + 40)
                    continue
                return float(A * total * x_mp ** (self.c - 1))


def reference_density(spec, x: float) -> float:
    """The limit density of `spec` at x > 0 from the series, or RuntimeError
    where the series cannot settle."""
    return _Series(spec).value(float(x))
