"""Exact finite-time moments and asymptotic limit laws for balanced urns.

Everything here rests on one closed product: for two-color specs whose totals
T_j are deterministic and whose color-0 count moves by sigma exactly on
color-0 draws, the scaled rising factorial E[rising(W_N/sigma, s)] equals
rising(w0/sigma, s) times prod_{j<N} (T_j + s*sigma)/T_j.  Raw moments, the
draw-count PGF, a full pmf inversion, martingale normalizers, and the limit
constants all derive from that product.  The same product with S = s_1+...+s_t
gives mixed rising moments in the multicolor model.

Limit constants use the Gamma function on the grid r/psi + z, r = 0..p-1,
where psi is the number of steps per unit of scaled time and z the scaled
initial mass.  The limit density is an alternating series over reciprocal
Gamma values; it is evaluated in adaptive arbitrary precision because the
series cancels catastrophically for moderate arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .specialfn import (
    falling_factorial,
    lah_number,
    log_gamma,
    rising_factorial,
    stirling2,
)
from .urns import Pmf, UrnSpec, schedule

__all__ = [
    "product_ratio",
    "log_product_ratio",
    "rising_factorial_moment",
    "raw_moments",
    "g_factor",
    "binomial_moments",
    "pgf",
    "pmf_via_moments",
    "mixed_rising_moment",
    "LimitConstants",
    "asymptotic_constants",
    "limit_Cs",
    "limit_moments",
    "limit_mixed_moment",
    "limit_density",
    "density_cutoff",
    "tilted_density_moment",
]


def _require_product_form(spec: UrnSpec) -> None:
    if spec.kind != "py_like":
        raise ValueError("moment products need a py_like spec")
    if spec.white_immigration is not None and any(v != 0 for v in spec.white_immigration):
        raise ValueError("moment products do not cover immigration variants")


def _scaled_start(spec: UrnSpec):
    return spec.initial[0] / spec.sigma


# ---------------------------------------------------------------------------
# finite-time products


def product_ratio(spec: UrnSpec, N: int, s: int, mode: str = "auto"):
    """P_s(N) = prod_{j=0}^{N-1} (T_j + s*sigma) / T_j.

    Exact mode returns a Fraction (numerator/denominator accumulated as
    integers, reduced once); float mode exponentiates a log-space sum.
    """
    _require_product_form(spec)
    if s == 0:
        return Fraction(1) if spec.is_exact and mode != "float" else 1.0
    exact = spec.is_exact and mode != "float" and (mode == "exact" or N <= 20_000)
    if mode == "exact" and not spec.is_exact:
        raise ValueError("exact mode requires rational spec parameters")
    if exact:
        sched = schedule(spec, N)
        shift = int(s * spec.sigma * sched.d)
        totals = sched.totals[:N].tolist()
        return Fraction(math.prod(t + shift for t in totals), math.prod(totals))
    return math.exp(log_product_ratio(spec, N, s))


def log_product_ratio(spec: UrnSpec, N: int, s, start: int = 0) -> float:
    """log of prod_{j=start}^{N-1} (T_j + s*sigma)/T_j; O(N) vectorized."""
    _require_product_form(spec)
    count = N - start
    if count < 0:
        raise ValueError("start must not exceed N")
    if count == 0 or s == 0:
        return 0.0
    shift = float(s) * float(spec.sigma)
    sched = schedule(spec, N)
    x = sched.real(sched.totals[start:N])
    np.divide(shift, x, out=x)
    return float(np.sum(np.log1p(x, out=x)))


def rising_factorial_moment(spec: UrnSpec, N: int, s: int, mode: str = "auto"):
    """E[rising(W_N/sigma, s)]."""
    _require_product_form(spec)
    P = product_ratio(spec, N, s, mode)
    c = _scaled_start(spec)
    if isinstance(P, Fraction):
        return rising_factorial(c, s) * P
    return rising_factorial(float(c), s) * P


def raw_moments(spec: UrnSpec, N: int, smax: int, mode: str = "auto") -> list:
    """[E[W_N], E[W_N^2], ..., E[W_N^smax]] via the Stirling expansion of
    powers into rising factorials."""
    _require_product_form(spec)
    R = [rising_factorial_moment(spec, N, r, mode) for r in range(smax + 1)]
    exact = isinstance(R[-1], Fraction)
    sigma = spec.sigma if exact else float(spec.sigma)
    out = []
    for s in range(1, smax + 1):
        acc = sum((-1) ** (s - r) * stirling2(s, r) * R[r] for r in range(s + 1))
        out.append(sigma**s * acc)
    return out


def g_factor(spec: UrnSpec, N: int, mode: str = "auto"):
    """Deterministic normalizer g_N with E[g_N * W_N] = w0: g_N = 1/P_1(N)."""
    P = product_ratio(spec, N, 1, mode)
    if isinstance(P, Fraction):
        return 1 / P
    return math.exp(-log_product_ratio(spec, N, 1))


def binomial_moments(spec: UrnSpec, N: int) -> list[Fraction]:
    """B_s = E[binom(K, s)] for s = 0..N, where K is the number of color-0
    draws in N steps (W_N = w0 + sigma*K).  Exact; cost O(N^2) products."""
    _require_product_form(spec)
    if not spec.is_exact:
        raise ValueError("binomial moments are computed exactly; pass a rational spec")
    if N > 600:
        raise ValueError("moment inversion is O(N^2) exact arithmetic; keep N <= 600")
    c = _scaled_start(spec)
    R = [rising_factorial(c, m) * product_ratio(spec, N, m, "exact") for m in range(N + 1)]
    F = [
        sum((-1) ** (j - m) * lah_number(j, m) * R[m] for m in range(j + 1))
        for j in range(N + 1)
    ]
    B = []
    for s in range(N + 1):
        fk = sum(comb(s, j) * falling_factorial(-c, s - j) * F[j] for j in range(s + 1))
        B.append(fk / factorial(s))
    return B


def pgf(spec: UrnSpec, N: int, v) -> Fraction:
    """E[v^K] for the color-0 draw count K, from binomial moments:
    E[v^K] = sum_s B_s (v-1)^s."""
    B = binomial_moments(spec, N)
    v = Fraction(v) if not isinstance(v, float) else v
    return sum(b * (v - 1) ** s for s, b in enumerate(B))


def pmf_via_moments(spec: UrnSpec, N: int) -> Pmf:
    """Exact law of W_N recovered by inverting the rising-moment sequence
    (rising -> falling via Lah numbers, shift by w0/sigma via Vandermonde,
    then inclusion-exclusion on binomial moments).  Independent of the
    step-by-step DP; used as a cross-check against it."""
    B = binomial_moments(spec, N)
    probs = []
    for k in range(N + 1):
        probs.append(sum((-1) ** (s - k) * comb(s, k) * B[s] for s in range(k, N + 1)))
    support = tuple(spec.initial[0] + k * spec.sigma for k in range(N + 1))
    pmf = Pmf(support, tuple(probs))
    pmf.check_total()
    return pmf


def mixed_rising_moment(spec: UrnSpec, N: int, svec, mode: str = "auto"):
    """E[prod_l rising(W_l/sigma, s_l)] for the multicolor model; equals the
    product of the initial rising factorials times P_S(N), S = sum(svec).

    The product form requires the refreshed color (the last one) to carry
    order 0: a deterministic addition to a counted color breaks the telescoping
    one-step identity, while additions entering only the totals do not."""
    if spec.kind != "py_like":
        raise ValueError("mixed moments need a py_like spec")
    if len(svec) != spec.colors:
        raise ValueError("need one order per color")
    refreshed = (spec.phase_ells is not None and any(spec.phase_ells)) or (
        spec.sequence_ells is not None and any(spec.sequence_ells)
    )
    if refreshed and svec[-1] != 0:
        raise ValueError("the refreshed (last) color must carry order 0")
    S = sum(svec)
    P = product_ratio(spec, N, S, mode)
    exact = isinstance(P, Fraction)
    acc = Fraction(1) if exact else 1.0
    for w, s in zip(spec.initial, svec):
        cw = w / spec.sigma if exact else float(w) / float(spec.sigma)
        acc *= rising_factorial(cw, s)
    return acc * P


# ---------------------------------------------------------------------------
# limit constants and moments


@dataclass(frozen=True)
class LimitConstants:
    period: int
    sigma_unit: float  # total added per ordinary step
    psi: float  # steps per unit of scaled time: period + (refresh excess)/sigma_unit
    Lambda: float  # polynomial growth exponent of E[W_N]/N
    delta: float  # sigma/sigma_unit
    z: float  # scaled initial mass
    kappa: float  # g_N ~ kappa * N^(-Lambda)


def asymptotic_constants(spec: UrnSpec) -> LimitConstants:
    if spec.kind != "py_like" or spec.offset != 0 or spec.white_immigration is not None:
        raise ValueError("limit constants cover standard-phase periodic specs")
    if spec.family not in ("polya_young", "triangular", "multicolor"):
        raise ValueError(f"no limit constants for family {spec.family!r}")
    p = spec.period
    sigma = float(spec.sigma)
    ell1 = float(spec.ell1) if spec.ell1 is not None else 0.0
    ell2 = float(spec.ell2) if spec.ell2 is not None else float(spec.ell)
    sigma_unit = sigma + ell1
    psi = p + (ell2 - ell1) / sigma_unit
    delta = sigma / sigma_unit
    Lambda = p * delta / psi
    z = float(spec.total_initial) / (sigma_unit * psi)
    log_kappa = Lambda * math.log(p)
    for r in range(p):
        a = r / psi + z
        log_kappa += log_gamma(a + delta / psi) - log_gamma(a)
    return LimitConstants(p, sigma_unit, psi, Lambda, delta, z, math.exp(log_kappa))


def limit_Cs(spec: UrnSpec, s, constants: LimitConstants | None = None) -> float:
    """C_s = prod_{r<p} Gamma(r/psi + z) / Gamma(r/psi + z + s*delta/psi).
    Real orders s are allowed as long as all Gamma arguments stay positive."""
    cst = constants or asymptotic_constants(spec)
    s = float(s)
    acc = 0.0
    for r in range(cst.period):
        a = r / cst.psi + cst.z
        b = a + s * cst.delta / cst.psi
        if b <= 0:
            raise ValueError(f"order {s} pushes a Gamma argument to {b} <= 0")
        acc += log_gamma(a) - log_gamma(b)
    return math.exp(acc)


def limit_moments(
    spec: UrnSpec, smax: int, normalization: str = "family"
) -> list[float]:
    """Limit moments mu_s, s = 1..smax, of the scaled color-0 count.

    normalization "per_period": mu_s = lim E[(W_N/sigma)^s] / n^(s*Lambda)
    with n = N/period; this is the law the limit density integrates to.
    normalization "per_step": divides by N^(s*Lambda) instead.
    normalization "family" (default): per_period values, with the triangular
    family additionally carrying the conventional period^(s*Lambda) prefactor.
    """
    cst = asymptotic_constants(spec)
    c = float(_scaled_start(spec))
    out = []
    for s in range(1, smax + 1):
        mu = rising_factorial(c, s) * limit_Cs(spec, s, cst)
        if normalization == "per_step":
            mu /= cst.period ** (s * cst.Lambda)
        elif normalization == "family":
            if spec.family == "triangular":
                mu *= cst.period ** (s * cst.Lambda)
        elif normalization != "per_period":
            raise ValueError(f"unknown normalization {normalization!r}")
        out.append(mu)
    return out


def limit_mixed_moment(spec: UrnSpec, svec) -> float:
    """Multicolor limit: lim E[prod (W_l/sigma)^{s_l}] / n^(S*Lambda)
    = prod rising(w0l/sigma, s_l) * C_S."""
    if spec.family != "multicolor":
        raise ValueError("mixed limit moments are for the multicolor family")
    if svec[-1] != 0:
        raise ValueError("the refreshed (last) color must carry order 0")
    cst = asymptotic_constants(spec)
    S = sum(svec)
    acc = limit_Cs(spec, S, cst)
    for w, s in zip(spec.initial, svec):
        acc *= rising_factorial(float(w) / float(spec.sigma), s)
    return acc


# ---------------------------------------------------------------------------
# limit density


def _density_series_params(spec: UrnSpec):
    """Series data for the limit density.

    shifts and step are exact rationals: the reciprocal-Gamma arguments
    shift - j*step feed a sum whose cancellation can run to hundreds of
    digits, so they must be formed at working precision, not in float64.
    """
    cst = asymptotic_constants(spec)
    c = float(_scaled_start(spec))
    sigma = spec.sigma if spec.is_exact else Fraction(float(spec.sigma))
    ell1 = spec.ell1 if spec.ell1 is not None else 0 * sigma
    ell2 = spec.ell2 if spec.ell2 is not None else spec.ell
    if not spec.is_exact:
        ell1 = Fraction(float(ell1))
        ell2 = Fraction(float(ell2))
    sigma_unit = sigma + ell1
    psi = spec.period + (ell2 - ell1) / sigma_unit
    step = (sigma / sigma_unit) / psi
    b0_scaled = spec.initial[-1] / (sigma_unit * psi)
    if not spec.is_exact:
        b0_scaled = Fraction(float(spec.initial[-1])) / (sigma_unit * psi)
    shifts = [Fraction(lam) / psi + b0_scaled for lam in range(cst.period)]
    log_pref = -log_gamma(c)
    for r in range(cst.period):
        log_pref += log_gamma(r / cst.psi + cst.z)
    return cst, c, shifts, step, log_pref


# The series stops after a window of terms below _TOL * |partial sum|;
# _MAX_TERMS bounds its length, and density_cutoff stops at the first probe
# with f(x)*(1+x)^2 below _CUTOFF_THRESHOLD.  Between evaluations a series
# keeps at most _KEEP_TERMS coefficients (about 1 MB at 30-70 digits; a grid
# to the cutoff of a benchmark spec needs up to 2,568); the highest
# precisions go first.
_TOL = 1e-12
_MAX_TERMS = 10_000
_CUTOFF_THRESHOLD = 1e-13
_KEEP_TERMS = 4096


class _DensitySeries:
    """The limit density of one spec as f(x) = A * x^(c-1) * sum_j coef_j x^j,
    coef_j = (-1)^j / j! * prod_l rgamma(shift_l - j*step), c = w0/sigma.

    The coefficients do not depend on x, so each working precision keeps one
    list, grown a term at a time as evaluations reach further.  With every
    shift_l = n_l/D and step = m/D over one common denominator D, the
    argument of rgamma returns to its residue class every r terms shifted
    down by the integer q (step = q/r), so rgamma(a - q) = rgamma(a) *
    prod_{i=1..q} (a - i) makes coef_j an integer ratio times coef_{j-r}.
    One mp.rgamma call per shift and residue class seeds the lists.  Lists
    beyond _KEEP_TERMS are dropped whenever an evaluation leaves a precision
    and rebuilt, to the same digits, when needed again.
    """

    def __init__(self, spec: UrnSpec):
        cst, self.c, shifts, step, self.log_pref = _density_series_params(spec)
        self.Lambda = cst.Lambda
        self.q, self.r = step.numerator, step.denominator
        D = math.lcm(self.r, *(sh.denominator for sh in shifts))
        self.D, self.m = D, self.q * (D // self.r)
        self.nums = [sh.numerator * (D // sh.denominator) for sh in shifts]
        # adjacent shifts sit one step apart, so the sign-flip zeros of the
        # reciprocal-Gamma factors suppress runs of consecutive terms; only a
        # window longer than a full residue cycle proves actual convergence
        self.small_needed = 2 * (len(shifts) + self.r) + 3
        self.coefs: dict[int, list] = {}
        self.cutoff: float | None = None
        self.grid: tuple | None = None  # (upper, points, xs, ws, smooth values)

    def _extend(self, coefs: list) -> None:
        """Append coef_j, j = len(coefs), at the current working precision."""
        import mpmath as mp

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

    def value(self, xv: float, power) -> float:
        """A * sum_j coef_j xv^j * xv^power for xv > 0, at a working precision
        raised until the observed cancellation leaves at least 15 digits."""
        import mpmath as mp

        j_min = int(xv ** (1.0 / (1.0 - self.Lambda))) + 5
        if j_min + self.small_needed > _MAX_TERMS:
            raise RuntimeError(
                f"density series at x={xv} with Lambda={self.Lambda:.6g} needs about "
                f"{j_min + self.small_needed} terms, more than {_MAX_TERMS}"
            )
        try:
            dps = 30
            while True:
                with mp.workdps(dps + 10):
                    coefs = self.coefs.setdefault(dps, [])
                    A = mp.e ** mp.mpf(self.log_pref)
                    x_mp = mp.mpf(xv)
                    tol, tiny = mp.mpf(_TOL), mp.mpf(1e-300)
                    xpow = mp.mpf(1)
                    total = mp.mpf(0)
                    peak = mp.mpf(0)
                    small = 0
                    converged = False
                    for j in range(_MAX_TERMS):
                        if j == len(coefs):
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
                    cancelled = mp.log10(peak / abs(total)) if total != 0 and peak > 0 else 0
                    if cancelled > dps - 15:
                        if dps > 4000:
                            raise RuntimeError(
                                f"density at x={xv} needs more than 4000 digits"
                            )
                        self._trim()
                        dps = max(int(cancelled) + 30, dps + 40)
                        continue
                    return float(A * total * x_mp ** power)
        finally:
            self._trim()

    def _trim(self) -> None:
        held = sum(map(len, self.coefs.values()))
        for dps in sorted(self.coefs, reverse=True):
            if held <= _KEEP_TERMS:
                break
            held -= len(self.coefs.pop(dps))


# Sized from measured reuse.  In the benchmark's shuffled limit_density mix
# (seeds 1-40), 97% of the returns to a shared spec within one pass come
# after fewer than 32 other specs (median 9, most 44); a return in a later
# pass comes after more than 32, but for fresh draws that equal a shared
# spec.  Criterion 6 and `verify --what density` call on one spec back to back.
@functools.lru_cache(maxsize=32)
def _series(spec: UrnSpec) -> _DensitySeries:
    return _DensitySeries(spec)


def limit_density(spec: UrnSpec, x):
    """Density of the per-period-normalized limit law at x (scalar or array).

    f(x) = A * sum_j (-1)^j / j! * prod_l rgamma(shift_l - j*delta/psi)
               * x^(j + w0/sigma - 1),
    an entire alternating series whose partial terms dwarf the result for
    moderate x; evaluated with mpmath at a working precision raised until the
    observed cancellation leaves at least 15 significant digits.
    """
    series = _series(spec)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    for idx, xv in enumerate(xs):
        if xv < 0 or (xv == 0.0 and series.c > 1):
            continue
        if xv == 0.0:
            raise ValueError("density at 0 needs w0/sigma > 1")
        out[idx] = series.value(float(xv), series.c - 1)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def density_cutoff(spec: UrnSpec) -> float:
    """Smallest probed x with f(x)*(1+x)^2 below 1e-13.

    Evaluating the density gets exponentially more expensive in the far tail
    (the series cancellation grows like x^(1/(1-Lambda))), so quadratures stop
    where the integrand mass is already negligible instead of at a fixed
    multiple of the mean.
    """
    series = _series(spec)
    if series.cutoff is None:
        x = limit_moments(spec, 1, "per_period")[0] + 1.0
        while x < 1000.0 and series.value(x, series.c - 1) * (1.0 + x) ** 2 >= _CUTOFF_THRESHOLD:
            x *= 1.2
        series.cutoff = x
    return series.cutoff


def tilted_density_moment(spec: UrnSpec, s: float, upper: float | None = None,
                          points: int = 400) -> float:
    """Quadrature moment integral x^s f(x) dx of the limit density over
    [0, upper]; mostly a validation helper.

    Gauss-Jacobi nodes carry the weight x^(c-1), c = w0/sigma, and integrate
    the smooth part f(x)/x^(c-1), so a density unbounded at 0 (c < 1) loses
    no mass there.  The node values are kept for the next order on the same
    grid.
    """
    series = _series(spec)
    if upper is None:
        upper = density_cutoff(spec)
    if series.grid is None or series.grid[:2] != (upper, points):
        from scipy.special import roots_jacobi

        nodes, weights = roots_jacobi(points, 0.0, series.c - 1.0)
        xs = 0.5 * upper * (nodes + 1.0)
        ws = (0.5 * upper) ** series.c * weights
        gs = np.array([series.value(float(xv), 0) for xv in xs])
        series.grid = (upper, points, xs, ws, gs)
    _, _, xs, ws, gs = series.grid
    return float(np.sum(ws * gs * xs**s))
