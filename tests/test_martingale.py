"""Martingale normalizer, tail variances, and the tail-sum CLT experiment."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyaurn.martingale import (
    _conditional_variance,
    _tail_norm,
    lil_diagnostic,
    limit_mean_square,
    mean_square,
    tail_sum_experiment,
    tail_variance,
    tail_variance_asymptotic,
)
from polyaurn.moments import asymptotic_constants, g_factor, rising_factorial_moment
from polyaurn.urns import exact_pmf_dp, multicolor_polya_young, polya_young, triangular

STD = polya_young(2, 1, 1, 1, 1)
TRI = triangular(2, 1, 1, 2, 1, 1)
SIG2 = polya_young(2, 2, 1, 1, 1)


def test_martingale_value_exact():
    assert g_factor(STD, 0) * Fraction(1) == 1
    # one step from (1,1): white value 4/3, black value 2/3, mean 1
    assert g_factor(STD, 1) * Fraction(2) == Fraction(4, 3)
    assert g_factor(STD, 1) * Fraction(1) == Fraction(2, 3)


def test_mean_over_exact_law_is_initial_white_mass():
    for spec in (STD, SIG2, TRI):
        for N in (1, 3, 6, 8):
            law = exact_pmf_dp(spec, N)
            mean = law.expect(lambda w: g_factor(spec, N) * w)
            assert mean == spec.initial[0]


def test_one_step_conditional_identity():
    # E[M_{i+1} | W_i] = M_i reduces to g_{i+1} * (T_i + sigma) / T_i == g_i,
    # which must hold exactly at every step
    from polyaurn.urns import schedule

    for spec in (STD, SIG2, TRI):
        for i in range(0, 12):
            T = schedule(spec, i).total(i)
            assert g_factor(spec, i + 1) * (T + spec.sigma) / T == g_factor(spec, i)


def test_exact_identity_at_large_N():
    # E[g_N W_N] = w0 stays exact in rational arithmetic at N = 300
    N = 300
    mean = STD.sigma * rising_factorial_moment(STD, N, 1, mode="exact")
    assert g_factor(STD, N, mode="exact") * mean == 1


def test_mean_square_exact_and_float_agree():
    # E[M_1^2] = (4/9)(5/2) = 10/9, so E[X_1^2] = 10/9 - 1 = 1/9
    assert mean_square(STD, 1, mode="exact") == Fraction(10, 9)
    for spec in (STD, TRI):
        for K in (5, 50):
            exact = float(mean_square(spec, K, mode="exact"))
            assert mean_square(spec, K) == pytest.approx(exact, rel=1e-12)


def test_tail_variance_positive_decreasing_to_zero():
    prev = None
    for N in (1, 10, 100, 1000, 10_000):
        s2 = tail_variance(STD, N)
        assert s2 > 0
        if prev is not None:
            assert s2 < prev
        prev = s2
    assert tail_variance(STD, 1) == pytest.approx(
        limit_mean_square(STD) - mean_square(STD, 0), rel=1e-12
    )
    with pytest.raises(ValueError):
        tail_variance(STD, 0)


def test_tail_variance_asymptotic_two_term_within_2_percent():
    for spec in (STD, SIG2, TRI, polya_young(3, 1, Fraction(1, 2), 1, 1)):
        for N in (1_000, 10_000, 100_000):
            exact = tail_variance(spec, N)
            asym = tail_variance_asymptotic(spec, N)
            assert abs(exact / asym - 1.0) < 0.02


def test_tail_variance_frozen_value():
    # exact tail sum at N=1e4 for the standard urn; the one-term rate with an
    # extra 1/Lambda factor would give 3.38e-3 instead
    assert tail_variance(STD, 10_000) == pytest.approx(2.1903e-3, rel=1e-3)


def test_conditional_tail_variance_identity():
    for spec in (STD, TRI):
        N, far = 20, 500
        law = exact_pmf_dp(spec, N)
        ws = np.array([float(w) for w in law.support])
        ps = np.array([float(p) for p in law.probs])
        cv = _conditional_variance(ws, *_tail_norm(spec, N, far))
        assert np.all(cv > 0)
        total = float(np.sum(ps * cv))
        expected = mean_square(spec, far) - mean_square(spec, N)
        assert total == pytest.approx(expected, rel=1e-12)


def test_tail_sum_experiment_smoke():
    rep = tail_sum_experiment(STD, 40, 640, 20_000, master_seed=777)
    assert rep.n_reps == 20_000
    # the conditional statistic is exactly mean-0 variance-1 in expectation
    assert abs(rep.conditional.mean) < 0.05
    assert abs(rep.conditional.variance - 1.0) < 0.1
    cst = asymptotic_constants(STD)
    assert rep.plugin_expected_attenuation == pytest.approx(
        1.0 - (40 / 640) ** cst.Lambda, rel=1e-13
    )
    assert rep.plugin_expected_variance_factor == pytest.approx(
        cst.Lambda / float(STD.sigma), rel=1e-13
    )
    # plugin variance tracks its corrected prediction (finite-N wiggle allowed)
    predicted = rep.plugin_expected_attenuation * rep.plugin_expected_variance_factor
    assert rep.plugin.variance == pytest.approx(predicted, rel=0.15)
    assert rep.tail_sd == pytest.approx(
        math.sqrt(tail_variance(STD, 41) - tail_variance(STD, 641)), rel=1e-12
    )


def test_tail_sum_experiment_thread_invariance():
    a = tail_sum_experiment(STD, 40, 640, 10_000, master_seed=5, threads=1)
    b = tail_sum_experiment(STD, 40, 640, 10_000, master_seed=5, threads=3)
    assert a == b
    c = tail_sum_experiment(STD, 40, 640, 10_000, master_seed=6)
    assert a != c
    with pytest.raises(ValueError):
        tail_sum_experiment(STD, 640, 40, 100, master_seed=1)


def test_tail_sum_with_alike_replicates_has_no_shape():
    # the 16 replicates of this run are alike, so both statistics have sample
    # variance 0, and skewness and kurtosis were a ZeroDivisionError
    # (`tail-sum` exited 1)
    spec = multicolor_polya_young(1, 2, 2, (Fraction(1, 2), 1, 2))
    rep = tail_sum_experiment(spec, 2, 4, 16, master_seed=0)
    for stat in (rep.conditional, rep.plugin):
        assert stat.variance == 0.0
        assert stat.skewness is None and stat.excess_kurtosis is None


def test_lil_diagnostic_shape():
    rows = lil_diagnostic(STD, [10, 100, 1000], 5_000, seed=21)
    assert [r["N"] for r in rows] == [10, 100, 1000]
    for r in rows:
        assert r["tail_sd"] > 0
        assert r["ratio"] is None or math.isfinite(r["ratio"])
    with pytest.raises(ValueError):
        lil_diagnostic(STD, [10, 6000], 5_000, seed=21)
    with pytest.raises(ValueError, match="checkpoints must be non-empty and >= 0"):
        lil_diagnostic(STD, [], 50, seed=1)
