"""Limit-law descriptors: named distributions, transforms, real-order moments.

A Law is a small immutable tree: leaves are named distributions (beta,
generalized gamma, a three-parameter Mittag-Leffler family, the local time at
zero of a squared Bessel-type bridge) and inner nodes are transforms
(independent product, powering, exponential tilt).  The only
operation every law supports is `moment_at(law, u)` for real u >= 0, and
`mixed_moment_at` gives the mixed moments of a Dirichlet leaf.

Tilting is kept structural: tilt(c) reweights by x^c, so its moments are
ratios of the child's moments, and nested tilts compose additively without
being flattened.

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

from .moments import asymptotic_constants, limit_moments
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
    "bessel_params_from_urn",
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
    kind: str
    params: tuple = ()
    children: tuple = ()

    def __str__(self) -> str:
        inner = ", ".join(f"{p:.6g}" if isinstance(p, float) else str(p) for p in self.params)
        if self.children:
            kids = ", ".join(str(c) for c in self.children)
            return f"{self.kind}({inner}{'; ' if inner else ''}{kids})"
        return f"{self.kind}({inner})"


def _pos(name, v) -> float:
    v = float(v)
    if not v > 0:
        raise ValueError(f"{name} must be positive, got {v}")
    return v


def beta_law(a, b) -> Law:
    return Law("beta", (_pos("a", a), _pos("b", b)))


def gen_gamma_law(a, b) -> Law:
    """Density proportional to x**(a-1) * exp(-x**b) on (0, inf)."""
    return Law("gen_gamma", (_pos("a", a), _pos("b", b)))


def ml3_law(alpha, beta, gamma) -> Law:
    """Three-parameter Mittag-Leffler law with moments
    Gamma(s + beta/alpha) Gamma(beta + gamma)
    / (Gamma(alpha s + beta + gamma) Gamma(beta/alpha))."""
    return Law("ml3", (_pos("alpha", alpha), _pos("beta", beta), _pos("gamma", gamma)))


def local_time_law(alpha, beta) -> Law:
    """Local time at zero of the periodic bridge; moments of its size-biased
    tilt T have the closed product form E[T^s] = Gamma(s+1)
    prod_{j=1..s} Gamma(j beta)/Gamma(alpha + j beta), which extends to real
    orders whenever alpha/beta is an integer m (Gauss multiplication)."""
    return Law("local_time", (_pos("alpha", alpha), _pos("beta", beta)))


def dirichlet_law(alphas) -> Law:
    return Law("dirichlet", tuple(_pos("alpha", a) for a in alphas))


def product_law(*laws: Law) -> Law:
    flat = []
    for l in laws:
        flat.extend(l.children if l.kind == "product" else (l,))
    if len(flat) == 1:
        return flat[0]
    return Law("product", (), tuple(flat))


def powered_law(law: Law, d) -> Law:
    return Law("powered", (_pos("exponent", d),), (law,))


def tilted_law(law: Law, c) -> Law:
    c = float(c)
    return law if c == 0 else Law("tilted", (c,), (law,))


# ---------------------------------------------------------------------------
# moments


def _lg_ratio(top: list[float], bottom: list[float]) -> float:
    return math.exp(
        math.fsum(log_gamma(t) for t in top) - math.fsum(log_gamma(b) for b in bottom)
    )


def _local_time_tilt_moment(alpha: float, beta: float, s: float) -> float:
    """E[T^s] for the size-biased tilt T of the local-time law."""
    if s == 0:
        return 1.0
    if s <= -1:
        raise ValueError(f"tilt moments need order > -1, got {s}")
    if abs(s - round(s)) < 1e-12 and s > 0:
        n = round(s)
        return _lg_ratio(
            [n + 1.0] + [j * beta for j in range(1, n + 1)],
            [alpha + j * beta for j in range(1, n + 1)],
        )
    m = alpha / beta
    if abs(m - round(m)) > 1e-9:
        raise UnsupportedLawError(
            "real-order local-time moments need alpha/beta integral"
        )
    m = round(m)
    return _lg_ratio(
        [s + 1.0] + [j * alpha / m for j in range(1, m + 1)],
        [(s + j) * alpha / m for j in range(1, m + 1)],
    )


def moment_at(law: Law, u) -> float:
    """E[X^u] for real u (u >= 0 for leaves; transforms shift as needed)."""
    u = float(u)
    if u == 0:
        return 1.0
    if law.kind == "beta":
        a, b = law.params
        return _lg_ratio([a + u, a + b], [a, a + b + u])
    if law.kind == "gen_gamma":
        a, b = law.params
        return _lg_ratio([(a + u) / b], [a / b])
    if law.kind == "ml3":
        alpha, beta, gamma = law.params
        return _lg_ratio([u + beta / alpha, beta + gamma], [alpha * u + beta + gamma, beta / alpha])
    if law.kind == "local_time":
        alpha, beta = law.params
        mu1 = alpha / (beta * math.exp(log_gamma(1.0 + alpha)))
        return mu1 * _local_time_tilt_moment(alpha, beta, u - 1.0)
    if law.kind == "product":
        return math.prod(moment_at(c, u) for c in law.children)
    if law.kind == "powered":
        return moment_at(law.children[0], law.params[0] * u)
    if law.kind == "tilted":
        c = law.params[0]
        return moment_at(law.children[0], u + c) / moment_at(law.children[0], c)
    if law.kind == "dirichlet":
        raise UnsupportedLawError("dirichlet laws are vector valued; use mixed_moment_at")
    raise UnsupportedLawError(f"unknown law kind {law.kind!r}")


def mixed_moment_at(law: Law, svec) -> float:
    """E[prod X_i^{s_i}] for a dirichlet leaf."""
    if law.kind != "dirichlet":
        raise UnsupportedLawError("mixed moments are defined for dirichlet laws")
    alphas = law.params
    if len(svec) != len(alphas):
        raise ValueError("order vector length mismatch")
    S = sum(svec)
    acc = _lg_ratio([math.fsum(alphas)], [math.fsum(alphas) + S])
    for a, s in zip(alphas, svec):
        acc *= _lg_ratio([a + s], [a])
    return acc


# ---------------------------------------------------------------------------
# urn limit-law factorizations


@dataclass(frozen=True)
class BesselParams:
    dimension: float  # d in (0, 2)
    index: float  # bridge index, -(p-1)/2
    alpha: float  # 1 - d/2
    beta: float  # alpha / (1 - 2*index)


def bessel_params_from_urn(spec: UrnSpec) -> BesselParams:
    cst = asymptotic_constants(spec)
    p = cst.period
    excess = (cst.psi - p) * cst.sigma_unit  # ell2 - ell1
    d = 2.0 * excess / (p * cst.sigma_unit + excess)
    r = -(p - 1) / 2.0
    alpha = 1.0 - d / 2.0
    return BesselParams(d, r, alpha, alpha / (1.0 - 2.0 * r))


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
    p = cst.period
    sigma = cst.sigma_unit * cst.delta
    w0 = float(spec.initial[0])
    total0 = float(spec.total_initial)
    bp = bessel_params_from_urn(spec)

    if spec.family == "polya_young":
        b0 = total0 - w0
        excess = cst.psi - p  # ell/sigma
        beta_part = beta_law(w0 / sigma, b0 / sigma)
        if _is_nonneg_int(excess) and excess >= 1:
            ggs = [
                gen_gamma_law((total0 + r * sigma) / sigma, cst.psi)
                for r in range(p, round(cst.psi))
            ]
            return Decomposition(product_law(beta_part, *ggs), cst.psi, "beta_gengamma")
        tilt = tilted_law(local_time_law(bp.alpha, bp.beta), total0 / sigma)
        return Decomposition(product_law(beta_part, tilt), None, "beta_local_time")

    if spec.family == "triangular":
        su = cst.sigma_unit
        ml = ml3_law(cst.delta, w0 / su, (total0 - w0) / su)
        excess = cst.psi - p  # (ell2-ell1)/sigma_unit
        if _is_nonneg_int(excess):
            ggs = [
                gen_gamma_law((r * su + total0) / sigma, su * cst.psi / sigma)
                for r in range(p, round(cst.psi + 1e-9))
            ]
            return Decomposition(
                product_law(ml, *ggs), cst.psi**cst.delta, "ml_gengamma"
            )
        T = tilted_law(local_time_law(bp.alpha, bp.beta), 1.0)
        tilt = tilted_law(powered_law(T, cst.delta), (total0 - su) / sigma)
        return Decomposition(product_law(ml, tilt), None, "ml_local_time")

    if spec.family == "multicolor":
        excess = cst.psi - p
        if not _is_nonneg_int(excess):
            raise UnsupportedLawError(
                "multicolor factorization needs ell/sigma integral"
            )
        alphas = [float(w) / sigma for w in spec.initial]
        ggs = [
            gen_gamma_law((total0 + r * sigma) / sigma, cst.psi)
            for r in range(p, round(cst.psi))
        ]
        law = Law("product", (), (dirichlet_law(alphas), *ggs))
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
    scale**S * E[prod D_i^{s_i}] * E[shared^S]."""
    from .moments import limit_mixed_moment

    dec = decomposition_for(spec)
    dirichlet = dec.law.children[0]
    shared = list(dec.law.children[1:])
    rows = []
    for svec in svecs:
        S = sum(svec)
        lhs = limit_mixed_moment(spec, svec)
        rhs = dec.scale**S * mixed_moment_at(dirichlet, svec)
        for g in shared:
            rhs *= moment_at(g, S)
        rows.append((tuple(svec), lhs, rhs, abs(lhs / rhs - 1.0)))
    return rows
