"""Limit-law algebra, closed-form moments, samplers, factorization checks."""

import math
from fractions import Fraction

import pytest
import scipy.stats

from polyaurn import moments
from polyaurn.moments import asymptotic_constants
from polyaurn.laws import (
    UnsupportedLawError,
    _bessel_params,
    beta_law,
    decomposition_for,
    dirichlet_law,
    gen_gamma_law,
    local_time_law,
    mixed_moment_at,
    moment_at,
    powered_law,
    product_law,
    tilted_law,
    verify_decomposition,
    verify_multicolor_decomposition,
)
from polyaurn.urns import multicolor_polya_young, polya_young, triangular

STD = polya_young(2, 1, 1, 1, 1)
TRI = triangular(2, 1, 1, 2, 1, 1)


def test_gen_gamma_moment_frozen():
    # E[X^s] = Gamma((a+s)/b)/Gamma(a/b); a=4, b=3, s=3 telescopes to 4/3
    assert moment_at(gen_gamma_law(4, 3), 3) == pytest.approx(4 / 3, rel=1e-14)


def test_leaf_moments_match_scipy():
    bl = beta_law(2.5, 1.5)
    frozen = scipy.stats.beta(2.5, 1.5)
    for s in (1, 2, 3, 4):
        assert moment_at(bl, s) == pytest.approx(frozen.moment(s), rel=1e-12)
    gg = gen_gamma_law(4.0, 3.0)
    frozen = scipy.stats.gengamma(4.0 / 3.0, 3.0)
    for s in (1, 2, 3, 4):
        assert moment_at(gg, s) == pytest.approx(frozen.moment(s), rel=1e-12)


def test_law_algebra_moment_relations():
    base = beta_law(2.0, 3.0)
    for s in (1, 2, 3):
        assert moment_at(powered_law(base, 0.5), s) == pytest.approx(
            moment_at(base, 0.5 * s), rel=1e-13
        )
        assert moment_at(tilted_law(base, 2.0), s) == pytest.approx(
            moment_at(base, s + 2.0) / moment_at(base, 2.0), rel=1e-13
        )
        prod = product_law(base, gen_gamma_law(4, 3))
        assert moment_at(prod, s) == pytest.approx(
            moment_at(base, s) * moment_at(gen_gamma_law(4, 3), s), rel=1e-13
        )
    assert tilted_law(base, 0) is base


def test_positive_parameter_validation():
    with pytest.raises(ValueError):
        beta_law(0, 1)
    with pytest.raises(ValueError):
        gen_gamma_law(1, -2)


def test_local_time_moments():
    lt = local_time_law(0.8, 0.4)  # alpha/beta = 2
    mu1 = 0.8 / (0.4 * math.gamma(1.8))
    assert moment_at(lt, 1) == pytest.approx(mu1, rel=1e-13)
    # whole orders against the size-biased tilt's product form, which the
    # law's Gauss-multiplication terms rewrite:
    # E[X^n] = E[X] Gamma(n) prod_{j<n} Gamma(j beta)/Gamma(alpha + j beta)
    for n in (2, 3, 5):
        tilt = math.gamma(n) * math.prod(math.gamma(0.4 * j) / math.gamma(0.8 + 0.4 * j)
                                         for j in range(1, n))
        assert moment_at(lt, n) == pytest.approx(mu1 * tilt, rel=1e-13)
    assert moment_at(lt, 1.5) > 0
    with pytest.raises(ValueError):
        local_time_law(0.7, 0.3)  # alpha/beta not an integer


def test_dirichlet_mixed_moments():
    dl = dirichlet_law((1.0, 2.0, 3.0))
    # E[X_0] = 1/6, E[X_0 X_1] = (1*2)/(6*7)
    assert mixed_moment_at(dl, (1, 0, 0)) == pytest.approx(1 / 6, rel=1e-13)
    assert mixed_moment_at(dl, (1, 1, 0)) == pytest.approx(2 / 42, rel=1e-13)
    # as a scalar law, a Dirichlet vector is its first coordinate
    for s in (1, 2, 2.5):
        assert moment_at(dl, s) == pytest.approx(mixed_moment_at(dl, (s, 0, 0)), rel=1e-13)
    with pytest.raises(UnsupportedLawError):
        mixed_moment_at(beta_law(1.0, 5.0), (1, 0))


def test_bessel_params_frozen():
    bp = _bessel_params(asymptotic_constants(STD))
    assert (bp.dimension, bp.index) == pytest.approx((2 / 3, -0.5), rel=1e-13)
    assert bp.alpha == pytest.approx(1 - bp.dimension / 2, rel=1e-13)
    assert bp.beta == pytest.approx(bp.alpha / (1 - 2 * bp.index), rel=1e-13)
    bp = _bessel_params(asymptotic_constants(TRI))
    assert (bp.dimension, bp.index, bp.alpha, bp.beta) == pytest.approx(
        (0.4, -0.5, 0.8, 0.4), rel=1e-13
    )


DECOMPOSITION_SPECS = [
    (polya_young(2, 1, 1, 1, 1), "beta_gengamma"),
    (polya_young(3, 1, 2, 1, 1), "beta_gengamma"),
    (polya_young(2, 1, Fraction(1, 2), 1, 1), "beta_local_time"),
    (polya_young(2, 2, 1, 1, 1), "beta_local_time"),
    (triangular(2, 1, 1, 3, 1, 1), "ml_gengamma"),
    (triangular(2, 1, 1, 2, 1, 1), "ml_local_time"),
    # b0 = 0: the Beta factor is the point mass at 1, and ML3 has gamma = 0
    (polya_young(2, 1, 1, 1, 0), "beta_gengamma"),
    (polya_young(2, 1, Fraction(1, 2), 1, 0), "beta_local_time"),
    (triangular(2, 1, 1, 3, 1, 0), "ml_gengamma"),
    (triangular(2, 1, 1, 2, 1, 0), "ml_local_time"),
]


@pytest.mark.parametrize("spec,label", DECOMPOSITION_SPECS)
def test_decompositions_match_limit_moments(spec, label):
    report = verify_decomposition(spec, smax=6)
    assert report.label == label
    assert report.max_rel_error < 1e-9
    if report.expected_scale is not None:
        assert report.scale_rel_error < 1e-9


# Six specs covering the four two-colour labels, and the b0 = 0 specs of each
# label.  The worst relative error measured on them is 1.2e-14 (PY312 at
# u = 20.5); the gate leaves room for a few ulps more from another libm.
REAL_ORDER_SPECS = [
    polya_young(2, 1, 1, 1, 1),
    polya_young(3, 1, Fraction(1, 2), 2, 1),
    polya_young(3, 1, 2, 1, 1),
    triangular(2, 1, 1, 2, 1, 1),
    triangular(3, 1, Fraction(1, 2), Fraction(5, 3), 1, 2),
    triangular(2, 1, 1, 3, 2, 1),
    polya_young(2, 1, 1, 1, 0),
    polya_young(2, 1, Fraction(1, 2), 1, 0),
    triangular(2, 1, 1, 3, 1, 0),
    triangular(2, 1, 1, 2, 1, 0),
]
REAL_ORDER_GATE = 3e-14


@pytest.mark.parametrize("spec", REAL_ORDER_SPECS)
def test_decompositions_match_the_density_terms_at_real_orders(spec):
    # E[X^u] * scale^u of the factorization against the density engine's
    # Mellin transform M(u + 1) of the same limit law
    dec = decomposition_for(spec)
    terms, log_const, _ = moments._terms(spec)
    for u in (0.3, 0.5, 1.5, 2.7, 4, 7.3, 12.1, 20.5):
        mellin = math.exp(math.fsum([log_const] + [s * math.lgamma(a + b * (u + 1))
                                                   for s, a, b in terms]))
        got = moment_at(dec.law, u) * (dec.scale or 1.0) ** u
        assert abs(got / mellin - 1.0) < REAL_ORDER_GATE, (dec.label, u)


def test_multicolor_decomposition_matches_mixed_moments():
    spec = multicolor_polya_young(2, 1, 2, (1, 1, 1))
    dec = decomposition_for(spec)
    assert dec.label == "dirichlet_gengamma"
    rows = verify_multicolor_decomposition(
        spec, [(1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (3, 2, 0)]
    )
    for _, lhs, rhs, rel in rows:
        assert rel < 1e-9, (lhs, rhs)
    # colour 0 alone: the Dirichlet leaf's scalar moments are its first coordinate's
    assert verify_decomposition(spec, smax=6).max_rel_error < 1e-9
    with pytest.raises(UnsupportedLawError):
        decomposition_for(multicolor_polya_young(2, 2, 1, (1, 1, 1)))
