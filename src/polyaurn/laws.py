"""Limit-law descriptors: laws as Gamma-term Mellin transforms.

Every law here has moments of one form, the form `moments._terms` writes
the urn limit moments in:

    E[X^u] = exp(log_const + sum_k sign_k * log Gamma(shift_k + scale_k*u)).

A `Law` holds log_const and the (sign, shift, scale) terms, so
`moment_at(law, u)` is one sum at every real order u that keeps the Gamma
arguments positive.  The leaves (beta, generalized gamma, a three-parameter
Mittag-Leffler family, the local time at zero of a Bessel-type bridge, and
a Dirichlet vector) build their own terms and keep their parameters in
`params`.  The transforms act on the terms:
 - an independent product concatenates them and keeps its factors in
   `children`,
 - powering by d scales each term's slope by d,
 - tilting by x^c shifts each term by c*scale and renormalises.
`mixed_moment_at` gives the mixed moments of a Dirichlet leaf.

The factorizations of the urn limit laws live in `decomposition_for`:
 - period-p model with integer ell/sigma: scaled product of a beta factor and
   ell/sigma generalized gamma factors (scale psi),
 - general two-color model: beta factor times a tilted local-time factor
   (no free constant),
 - triangular model: Mittag-Leffler factor times a tilted power of the
   local-time tilt (integer-excess variant with generalized gamma factors
   and scale psi**delta),
 - multicolor model: Dirichlet vector times shared scalar factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .moments import LimitConstants, asymptotic_constants, limit_moments
from .specialfn import log_gamma
from .urns import UrnSpec

__all__ = [
    "Law",
    "UnsupportedLawError",
    "beta_law",
    "gen_gamma_law",
    "ml3_law",
    "local_time_law",
    "dirichlet_law",
    "product_law",
    "powered_law",
    "tilted_law",
    "moment_at",
    "mixed_moment_at",
    "BesselParams",
    "Decomposition",
    "decomposition_for",
    "DecompositionReport",
    "verify_decomposition",
    "verify_multicolor_decomposition",
]


class UnsupportedLawError(NotImplementedError):
    pass


@dataclass(frozen=True)
class Law:
    """E[X^u] = exp(log_const + sum(sign * log Gamma(shift + scale*u))) over
    the (sign, shift, scale) terms.  A leaf keeps its parameters in params,
    a product its factors in children."""

    log_const: float
    terms: tuple
    params: tuple = ()
    children: tuple = ()


class _Dirichlet(Law):
    """A Dirichlet vector, params its alphas.  As a scalar law it is its
    first coordinate."""


def _pos(name, v, zero_ok: bool = False) -> float:
    v = float(v)
    if not (v > 0 or zero_ok and v == 0):
        raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'positive'}, got {v}")
    return v


def beta_law(a, b) -> Law:
    """Beta(a, b); b = 0 is the point mass at 1."""
    a, b = _pos("a", a), _pos("b", b, zero_ok=True)
    return Law(log_gamma(a + b) - log_gamma(a), ((1.0, a, 1.0), (-1.0, a + b, 1.0)), (a, b))


def gen_gamma_law(a, b) -> Law:
    """Density proportional to x**(a-1) * exp(-x**b) on (0, inf)."""
    a, b = _pos("a", a), _pos("b", b)
    return Law(-log_gamma(a / b), ((1.0, a / b, 1.0 / b),), (a, b))


def ml3_law(alpha, beta, gamma) -> Law:
    """Three-parameter Mittag-Leffler law (gamma >= 0) with moments
    Gamma(s + beta/alpha) Gamma(beta + gamma)
    / (Gamma(alpha s + beta + gamma) Gamma(beta/alpha))."""
    alpha, beta = _pos("alpha", alpha), _pos("beta", beta)
    gamma = _pos("gamma", gamma, zero_ok=True)
    return Law(log_gamma(beta + gamma) - log_gamma(beta / alpha),
               ((1.0, beta / alpha, 1.0), (-1.0, beta + gamma, alpha)), (alpha, beta, gamma))


def local_time_law(alpha, beta) -> Law:
    """Local time at zero of the periodic bridge, for alpha/beta = m a whole
    number (from an urn, m is its period).  E[X^u] = E[X] E[T^(u-1)] with
    E[X] = alpha/(beta Gamma(1+alpha)) and T the size-biased tilt, whose
    moments E[T^s] = Gamma(s+1) prod_{j=1..s} Gamma(j beta)/Gamma(alpha + j beta)
    at whole s become, by Gauss multiplication (DLMF 5.5.6) with
    beta = alpha/m, Gamma(s+1) prod_{j=1..m} Gamma(j beta)/Gamma((s+j) beta),
    which holds at every real s > -1."""
    alpha, beta = _pos("alpha", alpha), _pos("beta", beta)
    m = round(alpha / beta)
    if m < 1 or abs(alpha / beta - m) > 1e-9:
        raise ValueError(f"local-time laws need alpha/beta integral, got {alpha / beta}")
    step = alpha / m
    log_const = math.fsum([math.log(alpha / beta), -log_gamma(1.0 + alpha)]
                          + [log_gamma(j * step) for j in range(1, m + 1)])
    terms = ((1.0, 0.0, 1.0), *((-1.0, j * step, step) for j in range(m)))
    return Law(log_const, terms, (alpha, beta))


def dirichlet_law(alphas) -> Law:
    """Dirichlet(alphas); an alpha past the first may be 0: a coordinate 0 surely."""
    alphas = (_pos("alpha", alphas[0]), *(_pos("alpha", a, zero_ok=True) for a in alphas[1:]))
    first = beta_law(alphas[0], math.fsum(alphas[1:]))
    return _Dirichlet(first.log_const, first.terms, alphas)


def product_law(*laws: Law) -> Law:
    flat = [f for law in laws for f in (law.children or (law,))]
    if len(flat) == 1:
        return flat[0]
    return Law(math.fsum(f.log_const for f in flat), tuple(t for f in flat for t in f.terms),
               children=tuple(flat))


def powered_law(law: Law, d) -> Law:
    d = _pos("exponent", d)
    return Law(law.log_const, tuple((s, a, b * d) for s, a, b in law.terms))


def tilted_law(law: Law, c) -> Law:
    """The law reweighted by x^c: E[X^(u+c)] / E[X^c]."""
    c = float(c)
    if c == 0:
        return law
    terms = tuple((s, a + b * c, b) for s, a, b in law.terms)
    return Law(-math.fsum(s * log_gamma(a) for s, a, _ in terms), terms)


def moment_at(law: Law, u) -> float:
    """E[X^u] for real u; 1 at u = 0, else every shift + scale*u must be > 0."""
    u = float(u)
    if u == 0:
        return 1.0
    return math.exp(math.fsum([law.log_const]
                              + [s * log_gamma(a + b * u) for s, a, b in law.terms]))


def mixed_moment_at(law: Law, svec) -> float:
    """E[prod X_i^{s_i}] for a dirichlet leaf.  A coordinate of order 0 gives
    the factor 1; one of alpha 0 (0 surely) at a positive order gives 0."""
    if not isinstance(law, _Dirichlet):
        raise UnsupportedLawError("mixed moments are defined for dirichlet laws")
    alphas = law.params
    if len(svec) != len(alphas):
        raise ValueError("order vector length mismatch")
    if any(a == 0 and s > 0 for a, s in zip(alphas, svec)):
        return 0.0
    total = math.fsum(alphas)
    return math.exp(math.fsum([log_gamma(total), -log_gamma(total + sum(svec))]
                              + [log_gamma(a + s) - log_gamma(a)
                                 for a, s in zip(alphas, svec) if s]))


# ---------------------------------------------------------------------------
# urn limit-law factorizations


@dataclass(frozen=True)
class BesselParams:
    dimension: float  # d in (0, 2)
    index: float  # bridge index, -(p-1)/2
    alpha: float  # 1 - d/2
    beta: float  # alpha / (1 - 2*index)


def _bessel_params(cst: LimitConstants) -> BesselParams:
    p = cst.period
    excess = (cst.psi - p) * cst.sigma_unit  # ell2 - ell1
    d = 2.0 * excess / (p * cst.sigma_unit + excess)
    r = -(p - 1) / 2.0
    alpha = 1.0 - d / 2.0
    return BesselParams(d, r, alpha, alpha / (1.0 - 2.0 * r))


def _local_time(cst: LimitConstants) -> Law:
    bp = _bessel_params(cst)
    return local_time_law(bp.alpha, bp.beta)


def _gen_gammas(cst: LimitConstants, total0: float) -> list[Law]:
    """The psi - p generalized-gamma factors of a spec whose excess psi - p
    is a whole number."""
    sigma = cst.sigma_unit * cst.delta
    return [gen_gamma_law((total0 + r * cst.sigma_unit) / sigma, cst.psi / cst.delta)
            for r in range(cst.period, cst.period + round(cst.psi - cst.period))]


@dataclass(frozen=True)
class Decomposition:
    law: Law
    scale: float | None  # expected scale c*; None when the identity is scale-free
    label: str


def _is_nonneg_int(x: float, tol: float = 1e-9) -> bool:
    return x > -tol and abs(x - round(x)) < tol


def decomposition_for(spec: UrnSpec) -> Decomposition:
    """Factorization of the per-period limit law of spec into independent
    components.  When `scale` is set, the claim is
    mu_s = scale**s * E[law^s]; when None, mu_s = E[law^s] exactly."""
    cst = asymptotic_constants(spec)
    su = cst.sigma_unit
    sigma = su * cst.delta
    w0 = float(spec.initial[0])
    total0 = float(spec.total_initial)
    excess = cst.psi - cst.period  # (ell2 - ell1)/sigma_unit
    whole = _is_nonneg_int(excess)

    if spec.family == "polya_young":
        beta_part = beta_law(w0 / sigma, (total0 - w0) / sigma)
        if whole and excess >= 1:
            law = product_law(beta_part, *_gen_gammas(cst, total0))
            return Decomposition(law, cst.psi, "beta_gengamma")
        tilt = tilted_law(_local_time(cst), total0 / sigma)
        return Decomposition(product_law(beta_part, tilt), None, "beta_local_time")

    if spec.family == "triangular":
        ml = ml3_law(cst.delta, w0 / su, (total0 - w0) / su)
        if whole:
            law = product_law(ml, *_gen_gammas(cst, total0))
            return Decomposition(law, cst.psi**cst.delta, "ml_gengamma")
        T = tilted_law(_local_time(cst), 1.0)
        tilt = tilted_law(powered_law(T, cst.delta), (total0 - su) / sigma)
        return Decomposition(product_law(ml, tilt), None, "ml_local_time")

    if spec.family == "multicolor":
        if not whole:
            raise UnsupportedLawError(
                "multicolor factorization needs ell/sigma integral"
            )
        alphas = [float(w) / sigma for w in spec.initial]
        law = product_law(dirichlet_law(alphas), *_gen_gammas(cst, total0))
        return Decomposition(law, cst.psi, "dirichlet_gengamma")

    raise UnsupportedLawError(f"no factorization for family {spec.family!r}")


@dataclass(frozen=True)
class DecompositionReport:
    label: str
    expected_scale: float | None
    fitted_scale: float
    scale_rel_error: float | None
    moment_rel_errors: tuple
    max_rel_error: float = field(init=False)

    def __post_init__(self):
        errs = list(self.moment_rel_errors)
        if self.scale_rel_error is not None:
            errs.append(self.scale_rel_error)
        object.__setattr__(self, "max_rel_error", max(errs))


def verify_decomposition(spec: UrnSpec, smax: int = 6) -> DecompositionReport:
    """Compare per-period limit moments against the factorized law.

    Scale-free factorizations are compared order by order.  Scaled ones fit
    the scale from the first moment, report its relative error against the
    expected value, and compare the remaining orders under the fitted scale.
    """
    dec = decomposition_for(spec)
    mu = limit_moments(spec, smax, "per_period")
    law_m = [moment_at(dec.law, s) for s in range(1, smax + 1)]
    if dec.scale is None:
        fitted = 1.0
        scale_err = None
        errs = [abs(m / l - 1.0) for m, l in zip(mu, law_m)]
    else:
        fitted = mu[0] / law_m[0]
        scale_err = abs(fitted / dec.scale - 1.0)
        errs = [
            abs(mu[s - 1] / (fitted**s * law_m[s - 1]) - 1.0)
            for s in range(2, smax + 1)
        ]
    return DecompositionReport(dec.label, dec.scale, fitted, scale_err, tuple(errs))


def verify_multicolor_decomposition(spec: UrnSpec, svecs) -> list[tuple]:
    """Mixed-moment checks for the multicolor factorization: for each order
    vector, compare the limit mixed moment with
    scale**S * E[prod D_i^{s_i}] * E[shared^S]; both 0 (an empty color) is no error."""
    from .moments import limit_mixed_moment

    dec = decomposition_for(spec)
    dirichlet, *shared = dec.law.children or (dec.law,)
    rows = []
    for svec in svecs:
        S = sum(svec)
        lhs = limit_mixed_moment(spec, svec)
        rhs = dec.scale**S * mixed_moment_at(dirichlet, svec)
        for g in shared:
            rhs *= moment_at(g, S)
        rows.append((tuple(svec), lhs, rhs, 0.0 if lhs == rhs == 0 else abs(lhs / rhs - 1.0)))
    return rows
