"""Exact moments, moment-inverted pmfs, limit constants, limit density."""

import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from density_reference import reference_density
from polyaurn import moments
from polyaurn.cli import run
from polyaurn.laws import decomposition_for
from polyaurn.martingale import mean_square

from polyaurn.specialfn import rising_factorial
from polyaurn.urns import (
    enumerate_histories,
    exact_pmf_dp,
    marginal_pmf,
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
    log_product_ratio,
    mixed_rising_moment,
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


def test_product_ratio_frozen():
    # totals 2, 3: P_s(2) = (2+s)(3+s)/(2*3)
    assert product_ratio(STD, 2, 1) == Fraction(2)
    assert product_ratio(STD, 2, 2) == Fraction(10, 3)
    assert product_ratio(STD, 2, 3) == Fraction(5)
    assert product_ratio(STD, 0, 3) == 1


def test_log_product_ratio_needs_start_within_0_to_N():
    # totals 14, 15 before steps 9 and 10: P_1 from step 8 to 10 is 16/14
    assert log_product_ratio(STD, 10, 1, start=8) == pytest.approx(math.log(16 / 14), rel=1e-15)
    assert log_product_ratio(STD, 10, 1, start=10) == 0.0
    for start in (-3, -1, 11):  # -3 once sliced the totals from the end, as start = 8
        with pytest.raises(ValueError, match="^need 0 <= start <= N$"):
            log_product_ratio(STD, 10, 1, start=start)


def test_products_build_one_schedule_per_call(monkeypatch):
    builds = []
    build = moments.schedule
    monkeypatch.setattr(moments, "schedule", lambda spec, N: builds.append(N) or build(spec, N))
    for call in (lambda: raw_moments(PY312, 60, 3), lambda: binomial_moments(PY312, 60),
                 lambda: mean_square(PY312, 60), lambda: mean_square(PY312, 60, "exact")):
        builds.clear()
        call()
        assert builds == [60]


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


def test_pmf_via_moments_drops_impossible_atoms():
    # the black side starts empty and gains its first ball at step 2, so the
    # first two draws are white: W_4 = 1 or 2 has probability 0, and all three
    # exact routes leave those counts out
    spec = polya_young(2, 1, 1, 1, 0)
    law = pmf_via_moments(spec, 4)
    assert law == exact_pmf_dp(spec, 4) == marginal_pmf(enumerate_histories(spec, 4), 0)
    assert law.support == (3, 4, 5) and 0 not in law.probs


@pytest.mark.parametrize("spec", [multicolor_polya_young(2, 1, 1, (2, 1, 1)),
                                  polya_young(2, 2, Fraction(1, 2), 3, 0, offset=1)],
                         ids=["multicolour", "py_offset_b0_0"])
def test_pmf_via_moments_equals_the_enumerated_colour_0_law(spec):
    # the multicolour spec's colour 0 moves by sigma only when drawn, as in
    # two colours; the py spec has c = w0/sigma = 3/2 and an empty black side
    # that the refresh at step 1 fills
    for N in range(9):
        assert pmf_via_moments(spec, N) == marginal_pmf(enumerate_histories(spec, N), 0), N


def test_moment_inversion_at_its_guard():
    assert pmf_via_moments(STD, 600) == exact_pmf_dp(STD, 600, "exact")
    with pytest.raises(ValueError, match="keep N <= 600"):
        binomial_moments(STD, 601)


def test_binomial_moments():
    # N=2: color-0 draw count K is uniform on {0,1,2}
    assert binomial_moments(STD, 2) == [1, 1, Fraction(1, 3)]
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


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan, 2.0], np.array([[math.nan]])],
                         ids=["scalar", "list", "array"])
def test_limit_density_rejects_nan(x):
    # the saddle search once failed first, with "no saddle right of the pole"
    with pytest.raises(ValueError, match="^density needs a number x, got x = nan$"):
        limit_density(STD, x)


# Criterion 6's specs, the benchmark's two density-grid specs and SINGULAR,
# with the cutoff that the probe-by-probe search returned for each.
CUTOFF_SPECS = [
    (STD, 10.820077734576978),
    (PY312, 16.604996383482195),
    (TRI, 24.377743568719655),
    (polya_young(1, 1, 1, 1, 1), 13.178362809582657),
    (polya_young(1, 1, Fraction(1, 2), 1, 1), 6.78288784064831),
    (SINGULAR, 6.299956122740407),
]


def test_density_cutoff_probes_negligible_tail():
    for spec, frozen in CUTOFF_SPECS:
        cut = density_cutoff(spec)
        assert cut == frozen
        # cut is x0*1.2^k for the smallest k whose probe is below 1e-13
        x, probes = limit_moments(spec, 1, "per_period")[0] + 1.0, []
        while x < cut:
            probes.append(x)
            x *= 1.2
        assert x == cut
        xs = np.array([*probes, cut])
        tail = limit_density(spec, xs) * (1.0 + xs) ** 2
        assert np.all(tail[:-1] >= 1e-13) and tail[-1] < 1e-13


def test_density_quadrature_recovers_mass_and_mean():
    upper = density_cutoff(STD)
    q0 = tilted_density_moment(STD, 0, upper=upper, points=120)
    q1 = tilted_density_moment(STD, 1, upper=upper, points=120)
    assert q0 == pytest.approx(1.0, abs=1e-7)
    assert q1 == pytest.approx(limit_moments(STD, 1)[0], rel=1e-7)


def test_density_series_values_do_not_depend_on_call_order():
    xs = np.linspace(0.3, 10.5, 13)
    forward = [reference_density(STD, x) for x in xs]
    assert [reference_density(STD, x) for x in xs[::-1]][::-1] == forward
    assert limit_density(STD, xs[::-1])[::-1].tolist() == limit_density(STD, xs).tolist()
    assert limit_density(STD, xs) == pytest.approx(forward, rel=1e-9)


def test_limit_density_does_not_depend_on_the_batch():
    xs = np.concatenate((np.linspace(0.02, 3.0, 9), [4.5, 7.0, 11.0, 19.0, 30.0]))
    for spec in (STD, PY312, TRI, SINGULAR):
        batch = limit_density(spec, xs)
        assert batch.tolist() == [limit_density(spec, float(x)) for x in xs]


def _array_saddle(terms, log_x):
    """The saddle bisection with its slope summed by np.add.reduce over
    arrays, as the engine once ran it: the reference for the float search."""
    from scipy.special import digamma

    sign, shift, scale = map(np.array, zip(*terms))

    def slope(u):
        return float(np.add.reduce(sign * scale * digamma(shift + scale * u))) - log_x

    pole = -shift[0]
    lo, width = pole, 1.0
    while slope(lo + width) < 0.0:
        lo, width = lo + width, 2.0 * width
    hi = lo + width
    while hi - lo > moments._SADDLE_TOL * (hi - pole) and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_saddle_matches_the_array_bisection():
    # polya_young(8, ...) has 9 Gamma terms, past the 8 where numpy's sum
    # turns pairwise
    for spec in (STD, PY312, TRI, SINGULAR, polya_young(8, 1, 1, 1, 1)):
        terms = moments._terms(spec)[0]
        for log_x in np.log(np.geomspace(0.01, 30.0, 25)).tolist():
            assert moments._saddle(terms, log_x) == _array_saddle(terms, log_x)


# Points where the pole, not the bump, sets the step at the saddle, and the
# zero-rest-mass spec, whose first pole is the rewritten one.
POLE_BOUND = ([STD, PY312, TRI, SINGULAR, polya_young(2, 1, 1, 1, 0)],
              np.geomspace(0.01, 0.5, 8))


def test_moved_lines_match_the_reference_series():
    specs, xs = POLE_BOUND
    for spec in specs:
        terms, log_const, Lambda = moments._terms(spec)
        saddle = [moments._line(terms, log_x, Lambda) for log_x in np.log(xs).tolist()]
        assert all(h < sd / moments._PER_SD for _, h, _, sd, _ in saddle)
        u = moments._lines(terms, log_const, Lambda, np.log(xs))[0]
        assert np.all(u > [line[0] for line in saddle])  # every line moved
        # worst measured relative error 9.5e-15 (the zero-rest-mass spec);
        # the gate leaves a margin of 5x
        for x, f in zip(xs, limit_density(spec, xs)):
            assert f == pytest.approx(reference_density(spec, x), rel=5e-14)


def test_moved_lines_raise_their_error_target_by_the_excess():
    # the moved line's integrand stands exp(excess) above the saddle's, and
    # both the step and the span answer to exp(-_LOG_ERR - excess) of it
    from scipy.special import gammaln

    specs, xs = POLE_BOUND
    for spec in specs:
        terms, log_const, Lambda = moments._terms(spec)
        sign, shift, scale = map(np.array, zip(*terms))
        for log_x in np.log(xs).tolist():
            u0 = moments._line(terms, log_x, Lambda)[0]
            (u,), (h,), (n,) = moments._lines(terms, log_const, Lambda, np.array([log_x]))

            def phi(v):
                return math.fsum(sign * gammaln(shift + scale * v)) - v * log_x

            excess = phi(u) - phi(u0)
            assert 0.0 < excess <= moments._EXCESS_BUDGET
            target = moments._LOG_ERR + excess
            assert h <= 2.0 * math.pi * (u + shift[0]) / target * (1.0 + 1e-9)
            assert n * h >= 2.0 * target / (math.pi * (1.0 - Lambda)) * (1.0 - 1e-9)


def test_moved_line_cuts_the_nodes_next_to_the_pole():
    terms, log_const, Lambda = moments._terms(STD)
    # x = 0.1: the saddle line needs 1,581 nodes, the moved one 552
    assert moments._line(terms, math.log(0.1), Lambda)[2] == 1581
    assert moments._lines(terms, log_const, Lambda, np.log([0.1]))[2].tolist() == [552]
    # x = 5: the bump sets the step, and the saddle line stays
    u0, h, n = moments._line(terms, math.log(5.0), Lambda)[:3]
    assert n == 49
    assert [v.tolist() for v in moments._lines(terms, log_const, Lambda, np.log([5.0]))] == [
        [u0], [h], [n]]


def test_density_far_tail_is_positive_zero(capsys):
    # the peak height underflows: +0.0 without contour nodes, where the
    # engine returned -0.0 (1e4, 1e5), NaN (1e6) or raised (1e300, inf)
    xs = [1e4, 1e5, 1e6, 1e300, math.inf]
    for values in (limit_density(STD, np.array(xs)).tolist(),
                   [limit_density(STD, x) for x in xs]):
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)
    terms, log_const, Lambda = moments._terms(STD)
    assert moments._lines(terms, log_const, Lambda, np.log(xs[:4]))[2].tolist() == [0] * 4
    assert run(["urn-limit", "--p", "2", "--density-grid", "1e4,1e6,1e300,inf"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()
            if row.startswith("density,")]
    assert [value for _, _, value in rows] == ["0"] * 4


def test_tilted_moments_of_several_orders_equal_single_calls():
    for spec in (STD, SINGULAR):
        orders = (0, 1, 2.5)
        together = tilted_density_moment(spec, orders, points=40)
        assert together == [tilted_density_moment(spec, s, points=40) for s in orders]
        assert isinstance(tilted_density_moment(spec, 1, points=40), float)


# STD, PY312, TRI, the benchmark's two grid specs, SINGULAR and four more,
# among them a zero-rest-mass, a three-colour and a float spec
DENSITY_SPECS = [
    STD, PY312, TRI, polya_young(1, 1, 1, 1, 1), polya_young(1, 1, Fraction(1, 2), 1, 1),
    SINGULAR, polya_young(2, Fraction(3, 2), Fraction(3, 2), Fraction(4, 3), Fraction(5, 2)),
    polya_young(2, 1, 1, 1, 0), multicolor_polya_young(2, 1, 1, (1, 1, 1)),
    polya_young(1, 0.7, 0.3, 0.9, 1.3),
]


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def test_memoised_density_values_equal_fresh_ones_bit_for_bit():
    xs = np.geomspace(0.02, 20.0, 9)
    uncached = moments._density_cutoff.__wrapped__
    for spec in DENSITY_SPECS:
        moments._density_cutoff.cache_clear()
        fresh = uncached(spec, spec.is_exact)
        cold = _hex(limit_density(spec, xs)), _hex(tilted_density_moment(spec, (0, 1, 2),
                                                                       points=40))
        assert moments._density_cutoff.cache_info().currsize == 1
        assert _hex(density_cutoff(spec)) == _hex(fresh)
        hot = _hex(limit_density(spec, xs)), _hex(tilted_density_moment(spec, (0, 1, 2),
                                                                      points=40))
        assert hot == cold
        assert _hex(tilted_density_moment(spec, (0, 1, 2), upper=fresh, points=40)) == cold[1]


def test_exact_and_float_twins_keep_their_own_cutoffs():
    exact, twin = polya_young(2, 1, 1, 1, 1), polya_young(2, 1.0, 1.0, 1.0, 1.0)
    assert exact == twin and hash(exact) == hash(twin)
    assert exact.is_exact and not twin.is_exact
    moments._density_cutoff.cache_clear()
    assert density_cutoff(exact) == density_cutoff(twin)
    info = moments._density_cutoff.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)


def test_the_cutoff_memo_is_bounded():
    maxsize = moments._density_cutoff.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0


@pytest.mark.parametrize("kw,message", [
    ({"upper": 0.0}, "upper must be a positive finite number, got 0.0"),
    ({"upper": -2.0}, "upper must be a positive finite number, got -2.0"),
    ({"upper": math.nan}, "upper must be a positive finite number, got nan"),
    ({"upper": math.inf}, "upper must be a positive finite number, got inf"),
    ({"points": 0}, "points must be a positive integer, got 0"),
    ({"points": -3}, "points must be a positive integer, got -3"),
    ({"points": 2.5}, "points must be a positive integer, got 2.5"),
], ids=["upper_0", "upper_negative", "upper_nan", "upper_inf", "points_0", "points_negative",
        "points_float"])
def test_tilted_moment_names_a_bad_argument(kw, message):
    # upper <= 0 once warned from a log and then found "no saddle right of
    # the pole"; points = 0 surfaced scipy's "n must be a positive integer."
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tilted_density_moment(STD, 1, **kw)


def test_tilted_moment_at_a_large_start():
    # w0/sigma = 300: (upper/2)^c and the Jacobi weights of x^(c-1) overflowed
    # (OverflowError, and an overflow warning from roots_jacobi)
    spec = polya_young(1, 1, 1, 300, 1)
    mus = limit_moments(spec, 2, "per_period")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q0, q1, q2 = tilted_density_moment(spec, (0, 1, 2))
    assert q0 == pytest.approx(1.0, abs=1e-9)
    assert q1 == pytest.approx(mus[0], rel=1e-9)
    assert q2 == pytest.approx(mus[1], rel=1e-9)
    # c <= 1 keeps the weight x^(c-1) and the parent's values bit for bit
    assert _hex(tilted_density_moment(STD, (0, 1, 2), points=40)) == [
        "0x1.0000000000008p+0", "0x1.843311e367fc2p+0", "0x1.ae0564790117ap+1"]
    assert _hex(tilted_density_moment(SINGULAR, (0, 1, 2), points=40)) == [
        "0x1.0000000000151p+0", "0x1.843311e367ad4p-1", "0x1.03fd9ade925a3p+0"]


# Runs in a fresh interpreter: prints the CPU ticks (utime + stime) that a
# 200-point density grid, repeated until the main thread has spent at least
# 0.2 s, puts on the main thread and on every other thread of the process.
_THREAD_TICKS = """
import os
import numpy as np
from polyaurn.moments import limit_density
from polyaurn.urns import polya_young

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        out[int(tid)] = int(fields[11]) + int(fields[12])
    return out

spec, xs = polya_young(2, 1, 1, 1, 1), np.linspace(0.05, 12.0, 200)
limit_density(spec, xs)
before, hz, pid = ticks(), os.sysconf("SC_CLK_TCK"), os.getpid()
for _ in range(200):
    limit_density(spec, xs)
    spent = {tid: t - before.get(tid, 0) for tid, t in ticks().items()}
    if spent[pid] >= 0.2 * hz:
        break
print(spent[pid], sum(t for tid, t in spent.items() if tid != pid))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_density_engine_keeps_to_the_calling_thread():
    # a float-by-complex matrix product on the contour once sent the sum to
    # BLAS, whose worker thread then spun beside the main thread as long
    # as the grid ran
    root = os.path.dirname(os.path.dirname(moments.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _THREAD_TICKS], env=env, check=True,
                         capture_output=True, text=True).stdout
    main, others = map(int, out.split())
    assert others < 0.1 * main, (main, others)


def test_reference_series_frozen_far_tail_value():
    # x = 16 on STD climbs to 151 digits with 4,113 terms at each precision
    assert reference_density(STD, 16.0) == 4.874789285212977e-67
    assert limit_density(STD, 16.0) == pytest.approx(4.874789285212977e-67, rel=1e-9)


def test_density_below_the_series_floor_is_zero():
    # the density is about exp(-1400) here, far below the smallest double;
    # the series left rounding noise of about -4e-315 in its place
    assert limit_density(polya_young(1, 1, 1, 1, 1), 75.0) == 0.0


def test_singular_density_quadrature_recovers_moments():
    mus = limit_moments(SINGULAR, 2, "per_period")
    q0, q1, q2 = tilted_density_moment(SINGULAR, (0, 1, 2), points=20)
    assert q0 == pytest.approx(1.0, abs=1e-6)
    assert q1 == pytest.approx(mus[0], rel=1e-6)
    assert q2 == pytest.approx(mus[1], rel=1e-6)


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


# Out of the series' reach: Lambda > 2/3 (the five criterion-1 grid specs
# (p, sigma, ell) it could not settle), a float spec whose step is no short
# rational, and a three-colour spec, whose rest mass is every color but 0.
BEYOND_THE_SERIES = [
    polya_young(2, 1, Fraction(1, 2), 1, 1),
    polya_young(2, 2, 1, 1, 1),
    polya_young(3, 1, 1, 1, 1),
    polya_young(3, 1, Fraction(1, 2), 1, 1),
    polya_young(3, 2, 1, 1, 1),
    polya_young(1, 0.7, 0.3, 0.9, 1.3),
    multicolor_polya_young(2, 1, 1, (1, 1, 1)),
]


@pytest.mark.parametrize("spec", BEYOND_THE_SERIES, ids=[
    "py2_1_half", "py2_2_1", "py3_1_1", "py3_1_half", "py3_2_1", "py_float", "multi3"])
def test_density_quadrature_beyond_the_series(spec):
    mus = limit_moments(spec, 2, "per_period")
    q0, q1, q2 = tilted_density_moment(spec, (0, 1, 2))
    assert q0 == pytest.approx(1.0, abs=1e-6)
    assert q1 == pytest.approx(mus[0], rel=1e-6)
    assert q2 == pytest.approx(mus[1], rel=1e-6)


_ELLS = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2]


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=3),
    sigma=st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2]),
    ells=st.tuples(st.sampled_from(_ELLS), st.sampled_from(_ELLS)),
    triangular_family=st.booleans(),
    w0=st.sampled_from(_RATIONALS),
    b0=st.sampled_from([0] + _RATIONALS),
    x=st.floats(min_value=0.05, max_value=8.0),
)
# with b0 = 0 the pole of Gamma(c+u-1) at u = 1-c cancels (for p = 2 and
# ell1 = 0, the next one too), so the saddle can lie left of 1-c
@example(p=1, sigma=1, ells=(1, 1), triangular_family=False, w0=1, b0=0, x=0.05)
@example(p=2, sigma=1, ells=(1, 1), triangular_family=False, w0=1, b0=0, x=0.5)
@example(p=2, sigma=1, ells=(Fraction(1, 2), 1), triangular_family=True, w0=1, b0=0, x=0.3)
def test_limit_density_matches_the_reference_series(p, sigma, ells, triangular_family,
                                                     w0, b0, x):
    if triangular_family:
        spec = triangular(p, sigma, *ells, w0, b0)
    else:
        spec = polya_young(p, sigma, ells[0], w0, b0)
    try:
        ref = reference_density(spec, x)
    except RuntimeError:  # more terms or digits than the series allows
        return
    # the series returns 0.0 for a sum that settles below its 1e-300 floor
    assert limit_density(spec, x) == pytest.approx(ref, rel=1e-9, abs=1e-300)
