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
initial mass.  The same Gamma products, continued to complex orders, are the
Mellin transform of the limit law; the limit density inverts it along a
vertical line at or right of the saddle point, in float64.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .specialfn import log_gamma, rising_factorial, stirling2
from .urns import Pmf, UrnSpec, _exact_pmf, _product, _resolve_mode, schedule

__all__ = [
    "product_ratio",
    "log_product_ratio",
    "rising_factorial_moment",
    "raw_moments",
    "g_factor",
    "binomial_moments",
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
    if spec.white_immigration is not None and any(v != 0 for v in spec.white_immigration):
        raise ValueError("moment products do not cover immigration variants")


def _scaled_start(spec: UrnSpec):
    return spec.initial[0] / spec.sigma


# ---------------------------------------------------------------------------
# finite-time products

# mode="auto" keeps the products exact up to this N: exact P_1 of
# polya_young(2, 1, 1, 1, 1) took 0.007-0.010 s at N = 20,000 and 0.015-0.017 s
# at 40,000 on a 2-vCPU host (best of 3, two runs), against 0.043 and 0.16 s
# when one gcd reduced it.  The limit stays, since moving it would change
# what "auto" returns.
_AUTO_EXACT_MAX_N = 20_000

# An exact product of at least this many factors is reduced through the prime
# exponents of its factors (_ratios_by_primes) instead of by one gcd of its
# numerator and denominator.  Time against the gcd route (best of 5, 2-vCPU
# host) for orders (1,) and (1, 2) on STD, py(3, 2, 7/3, 9/4, 1/4),
# tri(4, 7, 5/3, 8/3, 1/3, 1/4) and a Thue-Morse spec: 1.6-2.5x at 1,000
# factors, 0.76-1.34x at 2,000, 0.53-0.95x at 2,500, 0.35-0.68x at 4,000.
_PRIME_ROUTE_MIN = 2_500
# primes between two drops of the factors _ratios_by_primes has fully split
_SPLIT_CHECK = 8

# a Fraction from a coprime numerator and denominator, without the gcd
# (the classmethod from Python 3.12 on, the keyword before)
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False))


def _factorable(totals: np.ndarray, shifts) -> bool:
    """Whether _ratios_by_primes takes the product over these totals: at
    least _PRIME_ROUTE_MIN positive int64 totals, shifts >= 0, and at most
    as many trial divisors (the integers up to sqrt of the largest factor)
    as factors."""
    n = len(totals)
    if n < _PRIME_ROUTE_MIN or totals.dtype == object or min(shifts) < 0:
        return False
    return int(totals.min()) > 0 and math.isqrt(int(totals.max()) + max(shifts)) <= n


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, by the sieve of Eratosthenes."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


def _power_product(primes: np.ndarray, exps: np.ndarray) -> int:
    """prod p**e over the primes with e > 0."""
    more = exps > 1
    powers = (p**e for p, e in zip(primes[more].tolist(), exps[more].tolist()))
    return _product([*primes[exps == 1].tolist(), *powers])


def _ratios_by_primes(totals: np.ndarray, shifts) -> list[Fraction]:
    """[prod_t (t + h)/t for h in shifts] as reduced Fractions, without a
    gcd.  Trial division by the primes up to sqrt(largest factor) splits
    every factor into small primes and a cofactor that is 1 or one larger
    prime.  Summing the signed exponents per prime leaves a numerator and a
    denominator with no common prime, each multiplied up by _product (a
    coprime base as in Bernstein, "Factoring into coprimes in essentially
    linear time", 2005, here on factors small enough to split outright)."""
    n = len(totals)
    top = int(totals.max()) + max(shifts)
    base = totals.astype(np.int32 if top < 2**31 else np.int64)
    # row 0 the denominator's factors, row r the numerator's of shifts[r-1]
    rest = np.concatenate([base] + [base + h for h in shifts])
    rows = len(shifts) + 1
    bounds = n * np.arange(rows + 1)
    primes = _primes_upto(math.isqrt(top))
    exps = np.zeros((len(primes), rows), dtype=np.int64)
    live = np.arange(rest.size)
    for k, p in enumerate(primes.tolist()):
        if k % _SPLIT_CHECK == 0:
            # a cofactor below p**2 has no prime below p: it is 1 or a prime
            live = live[rest[live] >= p * p]
        hit = live
        while True:
            cofactor = rest[hit]
            quotient = cofactor // p
            divides = quotient * p == cofactor
            hit = hit[divides]
            if not hit.size:
                break
            rest[hit] = quotient[divides]
            exps[k] += np.diff(np.searchsorted(hit, bounds))
    rest = rest.reshape(rows, n)
    den_big = rest[0][rest[0] > 1]
    out = []
    for r in range(1, rows):
        num_big = rest[r][rest[r] > 1]
        # a large prime may also be a trial divisor: merge by value
        ps, where = np.unique(np.concatenate([primes, num_big, den_big]), return_inverse=True)
        signed = np.concatenate([exps[:, r] - exps[:, 0], np.ones(num_big.size),
                                 -np.ones(den_big.size)])
        e = np.bincount(where, signed, minlength=ps.size).astype(np.int64)
        out.append(_coprime_fraction(_power_product(ps, e), _power_product(ps, -e)))
    return out


def _products(spec: UrnSpec, N: int, orders, mode: str, start: int = 0) -> tuple[bool, list]:
    """(exact, values) for P_s = prod_{j=start}^{N-1} (T_j + s*sigma)/T_j,
    one value per s in orders, all read off one schedule.  The arithmetic is
    urns._resolve_mode's, with "auto" exact up to _AUTO_EXACT_MAX_N.  Exact
    values are reduced Fractions of products over b*d*T_j and b*d*T_j + a,
    s*gain = a/b (b = 1 for whole orders): through prime exponents where
    _factorable holds, else numerator and denominator accumulated as
    integers and reduced by one gcd; float values are log P_s."""
    _require_product_form(spec)
    if N < 0:
        raise ValueError("N must be >= 0")
    if not 0 <= start <= N:
        raise ValueError("need 0 <= start <= N")
    exact = _resolve_mode(spec, N, mode, _AUTO_EXACT_MAX_N)
    sched = schedule(spec, N)
    if exact:
        totals = sched.totals[start:N]
        shifts = [Fraction(s) * sched.gain for s in orders]
        b = math.lcm(*(h.denominator for h in shifts))
        if b > 1:  # int64 while b*d*T_j stays below 2**53, as in the schedule
            wide = int(totals.max(initial=0)) * b >= 2**53
            totals = totals.astype(object if wide else totals.dtype) * b
        shifts = [int(h * b) for h in shifts]
        if _factorable(totals, shifts):
            return True, _ratios_by_primes(totals, shifts)
        totals = totals.tolist()
        den = _product(totals)
        return True, [Fraction(_product(t + h for t in totals), den) for h in shifts]
    x = sched.real(sched.totals[start:N])
    sigma = float(spec.sigma)
    return False, [float(np.sum(np.log1p(float(s) * sigma / x))) for s in orders]


def product_ratio(spec: UrnSpec, N: int, s: int, mode: str = "auto"):
    """P_s(N) = prod_{j=0}^{N-1} (T_j + s*sigma) / T_j: a Fraction in exact
    arithmetic, the exponential of the log-space sum in float arithmetic."""
    exact, (P,) = _products(spec, N, (s,), mode)
    return P if exact else math.exp(P)


def log_product_ratio(spec: UrnSpec, N: int, s, start: int = 0) -> float:
    """log of prod_{j=start}^{N-1} (T_j + s*sigma)/T_j for 0 <= start <= N;
    O(N) vectorized."""
    return _products(spec, N, (s,), "float", start)[1][0]


def _rising_moments(spec: UrnSpec, N: int, orders, mode: str) -> tuple[bool, list]:
    """(exact, [E[rising(W_N/sigma, s)] for s in orders]) from _products."""
    exact, P = _products(spec, N, orders, mode)
    c = _scaled_start(spec)
    if exact:
        return True, [rising_factorial(c, s) * p for s, p in zip(orders, P)]
    return False, [rising_factorial(float(c), s) * math.exp(p) for s, p in zip(orders, P)]


def rising_factorial_moment(spec: UrnSpec, N: int, s: int, mode: str = "auto"):
    """E[rising(W_N/sigma, s)]."""
    return _rising_moments(spec, N, (s,), mode)[1][0]


def raw_moments(spec: UrnSpec, N: int, smax: int, mode: str = "auto") -> list:
    """[E[W_N], E[W_N^2], ..., E[W_N^smax]] via the Stirling expansion of
    powers into rising factorials."""
    exact, R = _rising_moments(spec, N, range(smax + 1), mode)
    sigma = spec.sigma if exact else float(spec.sigma)
    out = []
    for s in range(1, smax + 1):
        acc = sum((-1) ** (s - r) * stirling2(s, r) * R[r] for r in range(s + 1))
        out.append(sigma**s * acc)
    return out


def g_factor(spec: UrnSpec, N: int, mode: str = "auto"):
    """Deterministic normalizer g_N with E[g_N * W_N] = w0: g_N = 1/P_1(N)."""
    exact, (P,) = _products(spec, N, (1,), mode)
    return 1 / P if exact else math.exp(-P)


def _law_core(spec: UrnSpec, N: int) -> tuple[int, list[int]]:
    """(Q, [Q*P(K = k) for k = 0..N]) in integers, K the number of color-0
    draws in N steps and Q = prod_{j<N} d*T_j, the denominator of the DP's
    law of K, so that every Q*P(K = k), a sum of path weights, is an integer.

    Newton interpolation of the moment polynomial: with c = w0/sigma = a/b,
    P_s = E[rising(c + s, K)/rising(c, K)], a polynomial of degree <= N in
    y = c + s with coefficients P(K = k)/rising(c, k) in the basis
    rising(y, k).  At y = -i, rising(-i, k) = (-1)^k*k!*binom(i, k), so
    G_i = Q*P_{-c-i} = prod_j (d*T_j - d*w0 - i*d*sigma), i = 0..N, is the
    binomial transform of (-1)^k*k!*Q*P(K = k)/rising(c, k), and forward
    differences invert it: Q*P(K = k) = (-1)^k*rho_k*Delta^k G_0/(k!*b^k),
    rho_k = prod_{i<k} (a + i*b), a quotient that divides exactly."""
    _require_product_form(spec)
    if not spec.is_exact:
        raise ValueError("binomial moments are computed exactly; pass a rational spec")
    if N > 600:
        raise ValueError("moment inversion is O(N^2) exact arithmetic; keep N <= 600")
    sched = schedule(spec, N)
    totals = sched.totals[:N].tolist()
    h, w = sched.gain, sched.w0
    a, b = Fraction(w, h).as_integer_ratio()  # c = w0/sigma
    diff = [_product(t - w - i * h for t in totals) for i in range(N + 1)]
    law, num, den = [], 1, 1  # num = (-1)^k*rho_k, den = k!*b^k
    for k in range(N + 1):
        law.append(num * diff[0] // den)
        diff = [v - u for u, v in zip(diff, diff[1:])]
        num, den = -num * (a + k * b), den * (k + 1) * b
    return _product(totals), law


def binomial_moments(spec: UrnSpec, N: int) -> list[Fraction]:
    """B_s = E[binom(K, s)] for s = 0..N, where K is the number of color-0
    draws in N steps (W_N = w0 + sigma*K).  Exact: the law of K by Newton
    interpolation of the moment polynomial (_law_core), Taylor-shifted by +1,
    since sum_k P(K = k)*v^k = sum_s B_s*(v - 1)^s."""
    Q, QB = _law_core(spec, N)
    for i in range(N):
        for j in range(N - 1, i - 1, -1):
            QB[j] += QB[j + 1]
    return [Fraction(v, Q) for v in QB]


def pmf_via_moments(spec: UrnSpec, N: int) -> Pmf:
    """Exact law of W_N recovered from the rising moments alone, by Newton
    interpolation of the moment polynomial (_law_core).  Independent of the
    step-by-step DP; used as a cross-check against it.  Counts of
    probability 0 (unreachable when the black side starts empty) are
    dropped, as exact_pmf_dp drops them."""
    Q, law = _law_core(spec, N)
    sched = schedule(spec, N)
    return _exact_pmf((Fraction(sched.w0 + k * sched.gain, sched.d) for k in range(N + 1)), law, Q)


def mixed_rising_moment(spec: UrnSpec, N: int, svec, mode: str = "auto"):
    """E[prod_l rising(W_l/sigma, s_l)] for the multicolor model; equals the
    product of the initial rising factorials times P_S(N), S = sum(svec).

    The product form requires the refreshed color (the last one) to carry
    order 0: a deterministic addition to a counted color breaks the telescoping
    one-step identity, while additions entering only the totals do not."""
    if len(svec) != spec.colors:
        raise ValueError("need one order per color")
    if any(spec.phase_ells or spec.ells) and svec[-1] != 0:
        raise ValueError("the refreshed (last) color must carry order 0")
    exact, (P,) = _products(spec, N, (sum(svec),), mode)
    acc = Fraction(1) if exact else 1.0
    for w, s in zip(spec.initial, svec):
        cw = w / spec.sigma if exact else float(w) / float(spec.sigma)
        acc *= rising_factorial(cw, s)
    return acc * P if exact else acc * math.exp(P)


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
    if spec.offset != 0 or spec.white_immigration is not None:
        raise ValueError("limit constants cover standard-phase periodic specs")
    if spec.family not in ("polya_young", "triangular", "multicolor"):
        raise ValueError(f"no limit constants for family {spec.family!r}")
    p = spec.period
    sigma = float(spec.sigma)
    ell1, ell2 = map(float, spec.ells)
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

# density_cutoff stops at the first probe with f(x)*(1+x)^2 below this.
_CUTOFF_THRESHOLD = 1e-13
# It evaluates the probes this many to an engine call; the specs in the
# tests and the benchmark stop at the 8th to 13th probe.
_CUTOFF_BATCH = 4
# The trapezoid rule on the contour.  With step h, the first pole of M(u)
# a distance d left of the line costs about exp(-2*pi*d/h); ending the range
# at T drops about exp(-pi*(1-Lambda)*T/2).  Both are held to exp(-_LOG_ERR)
# of the integrand's height on the line.  Without the pole term, 8 of 300
# fresh benchmark specs missed the 1e-9 gate.  The step also resolves the
# Gaussian bump at the saddle with _PER_SD nodes per standard deviation, and
# the range spans at least _SD_SPAN of them.
_LOG_ERR = 40.0
_PER_SD = 4.0
_SD_SPAN = 12.0
# Near the pole (small x) the pole term sets the step at the saddle u0, and
# the line may move right, to u0 + k*d0 for k in _MOVES, d0 the saddle's
# distance to the pole: the step grows with the distance.  Every such line
# carries the same integral, but the integrand there stands exp(excess)
# above the saddle's height, excess = phi(u) - phi(u0), and so does its
# roundoff.  So the step and the span on a moved line hold the error to
# exp(-_LOG_ERR - excess), and of the candidates whose excess stays within
# _EXCESS_BUDGET the one with the fewest nodes wins, if it has fewer than
# the saddle's line.  On the 4-pass benchmark mix (seed 3) the budget of 1.5
# halves the nodes (320,548 to 152,623); 2 and 3 save 3 % and 18 % more,
# but raise the worst relative change of the mix's 1,540 points from
# 2.9e-14 to 1.8e-13 and 5.2e-13.
_MOVES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_EXCESS_BUDGET = 1.5
# A point whose peak height exp(phi(u0)) lies below the smallest double is 0.
_LOG_TINY = math.log(math.ulp(0.0))
# About this many contour nodes go through one loggamma call.  A 400-point
# quadrature on polya_young(3, 2, 1, 1, 1) has 570,000, whose temporaries
# took 98 MB in one call.
_GRID_NODES = 1 << 13
# The saddle search stops once its bracket is within this fraction of the
# distance to the pole, or at adjacent floats.  The contour need not pass
# through the saddle itself: every line right of the pole carries the same
# integral, and the step h and the span are computed at the line actually
# used (its distance to the pole and phi'' there), so both error bounds above
# hold on it.  A line this close to the saddle also leaves the bump nearly
# real: its height exceeds the saddle's by exp(phi''*du^2/2), du <= 1% of the
# distance to the pole.  At 1e-6 the search took about 24 digamma calls a
# point; at 1e-2 it takes about 10.
_SADDLE_TOL = 1e-2


def _terms(spec: UrnSpec) -> tuple[list, float, float]:
    """(terms, log_const, Lambda) with log M(u) = log_const + sum_k sign_k *
    log Gamma(shift_k + scale_k*u) and terms = [(sign_k, shift_k, scale_k)]
    in Python floats: the numerator first, so the signed scale is the slope
    of each term's digamma in phi'.

    With a_r = r/psi + z, step = delta/psi and c = w0/sigma, M(u) = E[X^(u-1)]
    = Gamma(c+u-1)/Gamma(c) * prod_r Gamma(a_r)/Gamma(a_r+(u-1)*step)."""
    cst = asymptotic_constants(spec)
    if cst.Lambda >= 1.0:
        raise ValueError(f"no density route at Lambda = {cst.Lambda:.6g} >= 1")
    c = float(_scaled_start(spec))
    a = [r / cst.psi + cst.z for r in range(cst.period)]
    step = cst.delta / cst.psi
    shift = [c - 1.0] + [a_r - step for a_r in a]
    log_const = sum(map(math.lgamma, a)) - math.lgamma(c)
    # With rest mass 0, a_0 = step*c and Gamma(step*(c+u-1)) cancels the pole
    # of Gamma(c+u-1) at u = 1-c (for delta = 1, the next p-1 too).  Rewrite
    # each such Gamma(v)/Gamma(step*v) as step*Gamma(v+1)/Gamma(step*v+1), so
    # that u = -shift_0 is the first true pole of M.
    while hit := [k for k in range(1, len(shift)) if abs(shift[k] - step * shift[0]) < 1e-9]:
        shift[0] += 1.0
        shift[hit[0]] += 1.0
        log_const += math.log(step)
    return [(1.0, shift[0], 1.0)] + [(-1.0, v, step) for v in shift[1:]], log_const, cst.Lambda


def _add(vals: list) -> float:
    """sum(vals) in np.add.reduce's order for a float64 array: left to right
    from 0.0 below 8 terms, numpy's pairwise sum from 8 on."""
    if len(vals) >= 8:
        return float(np.add.reduce(vals))
    acc = 0.0
    for v in vals:
        acc += v
    return acc


def _saddle(terms: list, log_x: float) -> float:
    """The real root u0 of phi'(u) = sum_k sign_k * scale_k *
    digamma(shift_k + scale_k*u) - log x above the pole u = -shift_0, by
    bisection on Python floats, terms = [(sign_k, shift_k, scale_k)].  phi is
    convex (a cumulant generating function plus a linear term), and its
    derivative runs from -inf at the pole to +inf.  The slope adds its terms
    in np.add.reduce's order (_add), so u0 is bit for bit the root that the
    same bisection on arrays finds."""
    from scipy.special import digamma

    def slope(u):
        return _add([s * b * float(digamma(a + b * u)) for s, a, b in terms]) - log_x

    pole = -terms[0][1]
    lo, width = pole, 1.0
    while slope(lo + width) < 0.0:
        lo, width = lo + width, 2.0 * width
    hi = lo + width
    while hi - lo > _SADDLE_TOL * (hi - pole) and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    if lo == pole:
        raise ValueError(f"no saddle right of the pole at u = {pole:.6g}")
    return 0.5 * (lo + hi)


def _step(terms: list, trigamma: list, d: float, target: float,
          Lambda: float) -> tuple[float, float, int]:
    """(sd, h, n) on a line a distance d right of the pole, with trigamma =
    [zeta(2, shift_k + scale_k*u)] there: phi'' = 1/sd^2, the trapezoid step
    h and the number n of nodes t >= 0 that hold the error to exp(-target)
    of the integrand's height on the line."""
    sd = 1.0 / math.sqrt(_add([s * b * b * v for (s, _, b), v in zip(terms, trigamma)]))
    h = min(sd / _PER_SD, 2.0 * math.pi * d / target)
    return sd, h, int(max(_SD_SPAN * sd, 2.0 * target / (math.pi * (1.0 - Lambda))) / h) + 1


def _line(terms: list, log_x: float, Lambda: float) -> tuple[float, float, int, float, float]:
    """(u0, h, n, sd, log_m) for one point at its saddle: the line Re u = u0,
    the trapezoid step h on it, the number n of nodes t >= 0, 1/sqrt(phi'')
    and log M(u0) without its constant."""
    from scipy.special import gammaln, zeta

    u0 = _saddle(terms, log_x)
    if u0 == math.inf:  # beyond every double: so is the peak's underflow
        return u0, 0.0, 0, 0.0, -math.inf
    args = [a + b * u0 for _, a, b in terms]
    sd, h, n = _step(terms, [float(zeta(2.0, v)) for v in args], u0 + terms[0][1], _LOG_ERR,
                     Lambda)
    return u0, h, n, sd, _add([s * float(gammaln(v)) for (s, _, _), v in zip(terms, args)])


def _lines(terms: list, log_const: float, Lambda: float, log_xs: np.ndarray,
           tilt: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, h, n), one entry per point of log_xs: the contour's line Re u = u,
    the trapezoid step h on it and the number n of nodes t >= 0, 0 where the
    peak height of x^tilt * f(x) underflows.  The line is _line's through
    the saddle u0 unless the pole sets the step there.  Then the candidate
    lines u0 + k*d0, k in _MOVES, of all such points of the call go through
    one gammaln and one zeta pass, and of the candidates whose excess stays
    within _EXCESS_BUDGET the one with the fewest nodes wins, if it has
    fewer than the saddle's line; otherwise the point keeps that line bit for
    bit.  The excess grows with k (phi is convex), so the search stops at
    the first candidate over the budget."""
    from scipy.special import gammaln, zeta

    lines, moved = [], []
    for i, log_x in enumerate(log_xs.tolist()):
        u, h, n, sd, log_m = _line(terms, log_x, Lambda)
        if log_m + log_const + (tilt - u) * log_x < _LOG_TINY:
            n = 0
        elif h < sd / _PER_SD:  # the pole sets the step
            moved.append(i)
        lines.append([u, h, n, log_m, log_x])
    if moved:
        pole = -terms[0][1]
        args = np.array([[a + b * (lines[i][0] + k * (lines[i][0] - pole)) for k in _MOVES
                          for _, a, b in terms] for i in moved])
        cut = range(0, args.shape[1], len(terms))
        for i, g, z in zip(moved, gammaln(args).tolist(), zeta(2.0, args).tolist()):
            u0, _, _, log_m0, log_x = line = lines[i]
            for k, at in zip(_MOVES, cut):
                u = u0 + k * (u0 - pole)
                log_m = _add([s * v for (s, _, _), v in zip(terms, g[at:])])
                excess = log_m - log_m0 - (u - u0) * log_x
                if excess > _EXCESS_BUDGET:
                    break
                _, h, n = _step(terms, z[at:], u - pole, _LOG_ERR + excess, Lambda)
                if n < line[2]:
                    line[:3] = u, h, n
    return tuple(np.array(v) for v in list(zip(*lines))[:3])


def _mellin_density(spec: UrnSpec, xs: np.ndarray, tilt: float = 0.0) -> np.ndarray:
    """x^tilt * f(x) for each finite x > 0 of the 1-D array xs, by
    Mellin-Barnes inversion of the moments M(u) (see _terms).

    f(x) = (1/2pi) int M(u+it) x^-(u+it) dt on any line right of the first
    pole of M (u = 1-c unless the rest mass is 0).  On the line |M| decays
    like exp(-pi*(1-Lambda)*|t|/2), and the trapezoid rule in t converges
    geometrically (Trefethen & Weideman 2014).  The line runs through (next
    to, see _SADDLE_TOL) the real saddle u0 of phi(u) = log M(u) - u*log x,
    where the integrand is a bump of height exp(phi(u0)) with no
    cancellation, unless the pole sets the step there (small x).  Then the
    line moves right, as far as the roundoff budget _EXCESS_BUDGET allows,
    to the candidate of _MOVES with the fewest nodes.  A point whose peak
    height underflows is 0.0, without nodes.

    The spec's terms are built once per call.  Each point's saddle is a
    scalar search in Python floats, and the candidate lines of all points go
    through one pass (_lines).  The contour nodes of all points then form one
    ragged grid that goes through loggamma together, and np.add.reduceat
    sums each point's nodes.  Sums over the p+1 Gamma terms are elementwise,
    never a matrix product: numpy hands a float-by-complex product to BLAS,
    whose worker thread then spins beside the main one.  Each point's value
    depends on that point alone, not on the batch.
    """
    from scipy.special import loggamma

    terms, log_const, Lambda = _terms(spec)
    log_xs = np.log(xs)
    u, h, n = _lines(terms, log_const, Lambda, log_xs, tilt)
    # runs of whole points whose nodes t = h*k, k < n, go through loggamma
    # together, about _GRID_NODES a run
    runs, size = [[]], 0
    for i, n_i in enumerate(n.tolist()):
        if not n_i:
            continue
        if size >= _GRID_NODES:
            runs.append([])
            size = 0
        runs[-1].append(i)
        size += n_i
    _, shift, scale = (np.array(v)[:, None] for v in zip(*terms))
    values = np.zeros(len(xs))
    for run in filter(None, runs):
        log_x, u_r, h_r, n_r = log_xs[run], u[run], h[run], n[run]
        starts = np.cumsum(n_r) - n_r
        t = np.repeat(h_r, n_r) * (np.arange(starts[-1] + n_r[-1]) - np.repeat(starts, n_r))
        gammas = loggamma(shift + scale * (np.repeat(u_r, n_r) + 1j * t))
        log_m = gammas[0] - np.sum(gammas[1:], axis=0)  # numerator over denominators
        # the integrand over its value at t = 0, real part
        rel = log_m - np.repeat(log_m[starts], n_r)
        bump = np.exp(rel.real) * np.cos(rel.imag - t * np.repeat(log_x, n_r))
        # the t = 0 node (bump exactly 1) counts once; every other node also
        # stands for its conjugate at -t
        total = 2.0 * np.add.reduceat(bump, starts) - 1.0
        log_peak = log_m[starts].real + log_const + (tilt - u_r) * log_x
        values[run] = np.exp(log_peak) * h_r / (2.0 * math.pi) * total
    return values


def limit_density(spec: UrnSpec, x):
    """Density of the per-period-normalized limit law at x (scalar or array),
    by Mellin-Barnes inversion of the limit moments (see _mellin_density);
    float64 throughout, for every Lambda < 1."""
    c = float(_scaled_start(spec))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(xs).any():
        raise ValueError("density needs a number x, got x = nan")
    if c <= 1 and np.any(xs == 0.0):
        raise ValueError("density at 0 needs w0/sigma > 1")
    out = np.zeros_like(xs)
    inside = (xs > 0.0) & (xs < np.inf)
    if inside.any():
        out[inside] = _mellin_density(spec, xs[inside])
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


# cutoffs density_cutoff keeps, least recently used first out: the benchmark's
# limit_density mix asks for the cutoffs of 6 specs 42 times in 4 passes
_CUTOFF_MEMO = 32


def density_cutoff(spec: UrnSpec) -> float:
    """Smallest probed x with f(x)*(1+x)^2 below 1e-13: quadratures stop
    where the integrand mass is already negligible instead of at a fixed
    multiple of the mean.  The probes x0*1.2^k run from x0 = mean + 1 up to
    the larger of 1000 and 10*x0, _CUTOFF_BATCH to an engine call, so a
    mean above 1000 still gets its tail probed.  Cutoffs are memoised; the key
    carries spec.is_exact, since an exact spec equals (and hashes as) its
    float twin, e.g. sigma 1 and 1.0."""
    return _density_cutoff(spec, spec.is_exact)


@functools.lru_cache(maxsize=_CUTOFF_MEMO)
def _density_cutoff(spec: UrnSpec, exact: bool) -> float:
    x = limit_moments(spec, 1, "per_period")[0] + 1.0
    ceiling = max(1000.0, 10.0 * x)
    probes = []
    while x < ceiling:
        probes.append(x)
        x *= 1.2
    for first in range(0, len(probes), _CUTOFF_BATCH):
        xs = np.array(probes[first:first + _CUTOFF_BATCH])
        low = np.flatnonzero(_mellin_density(spec, xs) * (1.0 + xs) ** 2 < _CUTOFF_THRESHOLD)
        if low.size:
            return probes[first + low[0]]
    return x


# tilted_density_moment's default node count, raised to 2*upper/sd nodes
# (sd the law's standard deviation) up to _MAX_POINTS for a law narrow
# against its cutoff, whose peak 400 nodes step over: at w0/sigma = 10^6 (sd
# 1.0, cutoff 1698) 1,700 nodes left 8e-7 of the mass, 3,500 nodes 8e-10;
# roots_jacobi alone took 0.56 s at 4,000 nodes on a 2-vCPU host
_POINTS = 400
_MAX_POINTS = 4_000


def tilted_density_moment(spec: UrnSpec, s, upper: float | None = None,
                          points: int | None = None) -> float | list[float]:
    """Quadrature moment integral x^s f(x) dx of the limit density over
    [0, upper]; mostly a validation helper.  s is one order (the result is a
    float) or a sequence of orders (a list of floats), which share the cutoff
    and one evaluation of the nodes.  points defaults to _POINTS, or more
    for a narrow law (see _MAX_POINTS).

    Gauss-Jacobi nodes carry the weight x^beta and integrate the smooth part
    f(x)/x^beta, so a density unbounded at 0 (c = w0/sigma < 1) loses no mass
    there.  beta = c - 1 up to c < 2; from there on the whole powers of
    x^(c-1) go to the integrand and beta = c - 1 - k, k = floor(c - 1),
    since (upper/2)^c and the Jacobi weights of beta = c - 1 overflow for
    large c (w0/sigma = 300).
    """
    from scipy.special import roots_jacobi

    if points is not None and (not isinstance(points, numbers.Integral) or points < 1):
        raise ValueError(f"points must be a positive integer, got {points!r}")
    if upper is not None and not 0.0 < upper < math.inf:
        raise ValueError(f"upper must be a positive finite number, got {upper!r}")
    c = float(_scaled_start(spec))
    k = max(math.floor(c - 1.0), 0)
    if upper is None:
        upper = density_cutoff(spec)
    if points is None:
        m1, m2 = limit_moments(spec, 2, "per_period")
        sd = math.sqrt(max(m2 - m1 * m1, 0.0))
        points = min(max(_POINTS, math.ceil(2.0 * upper / sd)), _MAX_POINTS) if sd else _MAX_POINTS
    nodes, weights = roots_jacobi(points, 0.0, c - 1.0 - k)
    xs = 0.5 * upper * (nodes + 1.0)
    ws = (0.5 * upper) ** (c - k) * weights
    wgs = ws * _mellin_density(spec, xs, 1.0 - c + k)
    if np.ndim(s):
        return [float(np.sum(wgs * xs**order)) for order in s]
    return float(np.sum(wgs * xs**s))
