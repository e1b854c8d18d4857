"""Exact moments, moment-inverted pmfs, limit constants, limit density."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from polyaurn import moments
from polyaurn.laws import decomposition_for

from polyaurn.specialfn import rising_factorial
from polyaurn.urns import (
    enumerate_histories,
    exact_pmf_dp,
    polya_young,
    sequence_urn,
    triangular,
    with_white_immigration,
)
from polyaurn.moments import (
    asymptotic_constants,
    binomial_moments,
    density_cutoff,
    g_factor,
    limit_Cs,
    limit_density,
    limit_mixed_moment,
    limit_moments,
    mixed_rising_moment,
    pgf,
    pmf_via_moments,
    product_ratio,
    raw_moments,
    rising_factorial_moment,
    tilted_density_moment,
)
from polyaurn.urns import multicolor_polya_young

STD = polya_young(2, 1, 1, 1, 1)
TRI = triangular(2, 1, 1, 2, 1, 1)
PY312 = polya_young(3, 1, 2, 1, 1)
SINGULAR = polya_young(1, 2, 1, 1, 1)  # w0/sigma = 1/2: density unbounded at 0
STALLED = polya_young(2, 1, Fraction(1, 2), 1, 1)  # Lambda = 4/5


def test_product_ratio_frozen():
    # totals 2, 3: P_s(2) = (2+s)(3+s)/(2*3)
    assert product_ratio(STD, 2, 1) == Fraction(2)
    assert product_ratio(STD, 2, 2) == Fraction(10, 3)
    assert product_ratio(STD, 2, 3) == Fraction(5)
    assert product_ratio(STD, 0, 3) == 1


def test_g_factor_frozen_and_martingale_identity():
    assert g_factor(STD, 2) == Fraction(1, 2)
    # E[g_N * W_N] == w0 with E[W_N] = sigma * E[rising(W_N/sigma, 1)]
    for spec in (STD, polya_young(2, 2, 1, 1, 1), TRI):
        for N in range(0, 9):
            mean = spec.sigma * rising_factorial_moment(spec, N, 1)
            assert g_factor(spec, N) * mean == spec.initial[0]


def test_rising_factorial_moments_match_exact_law():
    # uniform {1,2,3}: E[W] = 2, E[W(W+1)] = 20/3, E[W(W+1)(W+2)] = 30
    assert rising_factorial_moment(STD, 2, 1) == 2
    assert rising_factorial_moment(STD, 2, 2) == Fraction(20, 3)
    assert rising_factorial_moment(STD, 2, 3) == 30
    for spec in (STD, polya_young(2, 2, 1, 1, 1), TRI):
        for N in (1, 3, 5):
            law = exact_pmf_dp(spec, N)
            for s in (1, 2, 3):
                expect = law.expect(lambda w: rising_factorial(w / spec.sigma, s))
                assert rising_factorial_moment(spec, N, s) == expect


def test_raw_moments_frozen_and_vs_law():
    assert raw_moments(STD, 2, 2) == [2, Fraction(14, 3)]
    law = exact_pmf_dp(TRI, 4)
    assert raw_moments(TRI, 4, 3) == [law.moment(s) for s in (1, 2, 3)]


def test_pmf_via_moments_equals_dp():
    cases = [(STD, 6), (polya_young(2, 2, 1, 1, 1), 5), (TRI, 5), (PY312, 5)]
    for spec, nmax in cases:
        for N in range(1, nmax + 1):
            assert pmf_via_moments(spec, N).as_dict() == exact_pmf_dp(spec, N).as_dict()


def test_binomial_moments_and_pgf():
    # N=2: color-0 draw count K is uniform on {0,1,2}
    assert binomial_moments(STD, 2) == [1, 1, Fraction(1, 3)]
    assert pgf(STD, 2, Fraction(1, 2)) == Fraction(7, 12)
    assert pgf(STD, 2, 1) == 1
    for spec, N in ((STD, 4), (polya_young(2, 2, 1, 1, 1), 3)):
        law = exact_pmf_dp(spec, N)
        ks = {(w - spec.initial[0]) / spec.sigma for w in law.support}
        assert all(k.denominator == 1 for k in ks)
        bs = binomial_moments(spec, N)
        for s in range(N + 1):
            expect = law.expect(
                lambda w: math.comb(int((w - spec.initial[0]) / spec.sigma), s)
            )
            assert bs[s] == expect
        v = Fraction(1, 3)
        assert pgf(spec, N, v) == law.expect(
            lambda w: v ** int((w - spec.initial[0]) / spec.sigma)
        )


def test_mixed_rising_moment_vs_enumeration():
    spec = multicolor_polya_young(2, 1, 1, (1, 1, 1))
    joint = enumerate_histories(spec, 4)
    for svec in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 3, 0)):
        expect = joint.expect(
            lambda counts: math.prod(
                rising_factorial(c / spec.sigma, s) for c, s in zip(counts, svec)
            )
        )
        assert mixed_rising_moment(spec, 4, svec) == expect
    # a deterministic refresh into a counted color breaks the product form,
    # so orders on the refreshed color are rejected rather than miscomputed
    with pytest.raises(ValueError):
        mixed_rising_moment(spec, 4, (2, 0, 1))


def test_asymptotic_constants_frozen():
    cst = asymptotic_constants(STD)
    assert (cst.psi, cst.Lambda, cst.delta, cst.z) == (3.0, 2 / 3, 1.0, 2 / 3)
    expected = 2 ** (2 / 3) * math.gamma(4 / 3) / math.gamma(2 / 3)
    assert cst.kappa == pytest.approx(expected, rel=1e-13)

    cst = asymptotic_constants(TRI)
    assert (cst.sigma_unit, cst.psi) == (2, 2.5)
    assert (cst.Lambda, cst.delta, cst.z) == (0.4, 0.5, 0.4)
    assert cst.kappa == pytest.approx(0.7609065209342839, rel=1e-13)

    cst = asymptotic_constants(PY312)
    assert (cst.psi, cst.Lambda, cst.z) == (5, 0.6, 0.4)


def test_asymptotic_constants_reject_unsupported():
    with pytest.raises(ValueError):
        asymptotic_constants(polya_young(2, 1, 1, 1, 1, offset=1))
    with pytest.raises(ValueError):
        asymptotic_constants(with_white_immigration(TRI, [0, 1]))
    with pytest.raises(ValueError):
        asymptotic_constants(sequence_urn("thue_morse", 1, (1, 2), 1, 1))


def test_limit_mean_closed_forms():
    # mu1 collapses to Gamma ratios of the constants
    mu1_std = limit_moments(STD, 1)[0]
    assert mu1_std == pytest.approx(math.gamma(2 / 3) / math.gamma(4 / 3), rel=1e-13)
    mu1_py312 = limit_moments(PY312, 1)[0]
    assert mu1_py312 == pytest.approx(math.gamma(0.4), rel=1e-13)
    mu1_tri = limit_moments(TRI, 1, "per_period")[0]
    expected = math.gamma(0.4) * math.gamma(0.8) / math.gamma(0.6)
    assert mu1_tri == pytest.approx(expected, rel=1e-13)


def test_normalizer_times_limit_mean_identity():
    # sigma * mu1 * kappa == w0 * period**Lambda on the whole parameter grid
    for p in (1, 2, 3):
        for sigma, ell in ((1, 1), (1, Fraction(1, 2)), (2, 1)):
            spec = polya_young(p, sigma, ell, 1, 1)
            cst = asymptotic_constants(spec)
            lhs = float(spec.sigma) * limit_moments(spec, 1)[0] * cst.kappa
            assert lhs == pytest.approx(1.0 * p ** float(cst.Lambda), rel=1e-12)


def test_limit_moment_normalizations_are_consistent():
    for spec in (STD, TRI, PY312):
        cst = asymptotic_constants(spec)
        per_period = limit_moments(spec, 3, "per_period")
        per_step = limit_moments(spec, 3, "per_step")
        family = limit_moments(spec, 3, "family")
        for s in (1, 2, 3):
            scale = float(cst.period) ** (s * float(cst.Lambda))
            assert per_step[s - 1] == pytest.approx(per_period[s - 1] / scale, rel=1e-13)
            if spec.family == "triangular":
                assert family[s - 1] == pytest.approx(per_period[s - 1] * scale, rel=1e-13)
            else:
                assert family[s - 1] == per_period[s - 1]
    with pytest.raises(ValueError):
        limit_moments(STD, 2, "per_draw")


def test_limit_Cs_rejects_bad_order():
    assert limit_Cs(STD, 0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        limit_Cs(STD, -2)


def test_limit_mixed_moment_consistency():
    spec = multicolor_polya_young(2, 1, 1, (1, 1, 1))
    assert limit_mixed_moment(spec, (1, 0, 0)) == pytest.approx(limit_Cs(spec, 1), rel=1e-13)
    # the first two colors start symmetric: swapping their orders changes nothing
    assert limit_mixed_moment(spec, (2, 1, 0)) == pytest.approx(
        limit_mixed_moment(spec, (1, 2, 0)), rel=1e-13
    )
    with pytest.raises(ValueError):
        limit_mixed_moment(spec, (0, 1, 2))


def test_limit_density_frozen_values():
    std_vals = {
        0.5: 0.37155800989482735,
        2.0: 0.2775603357719529,
        5.0: 0.003642626554805361,
        10.0: 3.0694208541119394e-17,
        12.0: 5.986740157603507e-29,
    }
    for x, f in std_vals.items():
        assert float(limit_density(STD, x)) == pytest.approx(f, rel=1e-9)
    tri_vals = {
        0.5: 0.3659377381710574,
        5.0: 0.02755850069096031,
        16.0: 6.958652725799893e-10,
        28.0: 9.268423666011033e-24,
    }
    for x, f in tri_vals.items():
        assert float(limit_density(TRI, x)) == pytest.approx(f, rel=1e-9)


def test_density_cutoff_probes_negligible_tail():
    cut = density_cutoff(STD)
    assert cut == pytest.approx(10.820077734576975, rel=1e-9)
    assert float(limit_density(STD, cut)) * (1 + cut) ** 2 < 1e-13


def test_density_quadrature_recovers_mass_and_mean():
    upper = density_cutoff(STD)
    q0 = tilted_density_moment(STD, 0, upper=upper, points=120)
    q1 = tilted_density_moment(STD, 1, upper=upper, points=120)
    assert q0 == pytest.approx(1.0, abs=1e-7)
    assert q1 == pytest.approx(limit_moments(STD, 1)[0], rel=1e-7)


def test_density_series_values_do_not_depend_on_call_order():
    xs = np.linspace(0.3, 10.5, 13)
    moments._series.cache_clear()
    cold = limit_density(STD, xs).tolist()
    moments._series.cache_clear()
    backward = limit_density(STD, xs[::-1])[::-1].tolist()
    moments._series.cache_clear()
    density_cutoff(STD)
    assert limit_density(STD, xs).tolist() == cold == backward
    # more specs than the cache holds evict STD; a rebuilt series agrees
    first = moments._series(STD)
    for k in range(moments._series.cache_info().maxsize + 1):
        limit_density(polya_young(1, 1, 1, k + 1, 1), 1.0)
    assert moments._series(STD) is not first
    assert limit_density(STD, xs).tolist() == cold


def test_density_series_keeps_few_coefficients_between_calls():
    # x = 16 on STD climbs to 151 digits with 4,113 terms at each precision
    moments._series.cache_clear()
    assert limit_density(STD, 16.0) == 4.874789285212977e-67
    held = moments._series(STD).coefs
    assert sum(map(len, held.values())) <= moments._KEEP_TERMS
    assert limit_density(STD, 16.0) == 4.874789285212977e-67


def test_density_series_fails_fast_when_it_cannot_settle():
    # about x^(1/(1-Lambda)) = 8^5 terms are needed, more than the series allows
    moments._series.cache_clear()
    with pytest.raises(RuntimeError, match=r"x=8.0 with Lambda=0.8 needs about 32790 terms"):
        limit_density(STALLED, 8.0)
    assert not any(moments._series(STALLED).coefs.values())
    with pytest.raises(RuntimeError, match="Lambda=0.8"):
        density_cutoff(STALLED)


def test_singular_density_quadrature_recovers_moments():
    mus = limit_moments(SINGULAR, 2, "per_period")
    assert tilted_density_moment(SINGULAR, 0, points=20) == pytest.approx(1.0, abs=1e-6)
    assert tilted_density_moment(SINGULAR, 1, points=20) == pytest.approx(mus[0], rel=1e-6)
    assert tilted_density_moment(SINGULAR, 2, points=20) == pytest.approx(mus[1], rel=1e-6)


def _factorized_density(spec, x):
    """Density at x of scale * Beta * GenGamma from decomposition_for, by
    quadrature over the Beta factor, whose weight u^(a-1) (1-u)^(b-1) the
    QAWS rule integrates exactly."""
    dec = decomposition_for(spec)
    assert dec.label == "beta_gengamma" and len(dec.law.children) == 2
    (a, b), (ga, gb) = (law.params for law in dec.law.children)
    log_norm = (math.log(gb) - math.lgamma(ga / gb)
                - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))

    def gen_gamma_part(u):
        if u == 0.0:
            return 0.0
        log_y = math.log(x / (dec.scale * u))
        return math.exp(log_norm + (ga - 1) * log_y - math.exp(min(gb * log_y, 700.0))) / (
            dec.scale * u
        )

    val, _ = integrate.quad(gen_gamma_part, 0.0, 1.0, weight="alg", wvar=(a - 1, b - 1),
                            epsabs=0.0, epsrel=1e-11, limit=200)
    return val


_RATIONALS = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3)]


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=2),
    sigma=st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2]),
    w0=st.sampled_from(_RATIONALS),
    b0=st.sampled_from(_RATIONALS),
    x=st.floats(min_value=0.05, max_value=6.0),
)
def test_limit_density_matches_beta_gengamma_factorization(p, sigma, w0, b0, x):
    # ell = sigma leaves one GenGamma factor next to the Beta factor
    spec = polya_young(p, sigma, sigma, w0, b0)
    assert limit_density(spec, x) == pytest.approx(_factorized_density(spec, x), rel=1e-9)
