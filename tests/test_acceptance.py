"""Acceptance gate: one test per criterion, one summary line per criterion.

Each test drives the library at the pinned scales and tolerances and records
a PASS/FAIL line through the session `acceptance` fixture.  Statistical gates
use fixed seeds, so every run is reproducible bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import kernel_reference as ref
from polyaurn.crp import (
    CrpParams,
    capacity,
    seating_probabilities,
    simulate_table_count_batch,
    table_count_pmf,
    tree_equivalents,
)
from polyaurn.laws import verify_decomposition
from polyaurn.martingale import tail_sum_experiment
from polyaurn.moments import (
    asymptotic_constants,
    g_factor,
    limit_mixed_moment,
    limit_moments,
    mixed_rising_moment,
    pmf_via_moments,
    raw_moments,
    rising_factorial_moment,
    tilted_density_moment,
)
from polyaurn.stirling import (
    all_words,
    block_count_pmf_from_urn,
    block_count_urn,
    forest_to_word,
    gap_count,
    random_word,
    simulate_block_counts,
    stirling_count,
    word_to_forest,
)
from polyaurn.trees import (
    dary_family,
    gport_family,
    recursive_family,
    simulate_statistic_batch,
    statistic_pmf,
)
from polyaurn.urns import (
    enumerate_histories,
    exact_pmf_dp,
    marginal_pmf,
    multicolor_polya_young,
    polya_young,
    schedule,
    simulate_counts_batch,
    triangular,
)

GRID = [
    polya_young(p, sigma, ell, 1, 1)
    for p in (1, 2, 3)
    for sigma, ell in ((1, 1), (1, Fraction(1, 2)), (2, 1))
]
STD = polya_young(2, 1, 1, 1, 1)
PY312 = polya_young(3, 1, 2, 1, 1)
TRI = triangular(2, 1, 1, 2, 1, 1)


def _rising(x: Fraction, s: int) -> Fraction:
    out = Fraction(1)
    for i in range(s):
        out = out * (x + i)
    return out


def _tv(values: np.ndarray, law: dict) -> float:
    emp = {int(v): c / len(values) for v, c in zip(*np.unique(values, return_counts=True))}
    keys = set(emp) | set(law)
    return 0.5 * sum(abs(emp.get(k, 0.0) - float(law.get(k, 0))) for k in keys)


def _tv_emp(a: np.ndarray, b: np.ndarray) -> float:
    ea = {int(v): c / len(a) for v, c in zip(*np.unique(a, return_counts=True))}
    eb = {int(v): c / len(b) for v, c in zip(*np.unique(b, return_counts=True))}
    return 0.5 * sum(abs(ea.get(k, 0.0) - eb.get(k, 0.0)) for k in set(ea) | set(eb))


def test_criterion_01_four_route_exact_agreement(acceptance):
    worst = None
    for spec in GRID:
        for N in range(1, 9):
            en = marginal_pmf(enumerate_histories(spec, N), 0)
            assert exact_pmf_dp(spec, N) == en
            assert pmf_via_moments(spec, N) == en
            for s in (1, 2, 3):
                direct = rising_factorial_moment(spec, N, s)
                from_law = sum(
                    q * _rising(w / spec.sigma, s) for w, q in en.as_dict().items()
                )
                assert direct == from_law
                worst = (spec.period, N, s)
    acceptance(1, "four exact routes agree on the 9-spec grid, N <= 8, s <= 3", True,
               f"last checked {worst}")


def test_criterion_02_martingale_identities(acceptance):
    # product-form identity at the full pinned horizon, all grid specs
    for spec in GRID:
        e_w = spec.sigma * rising_factorial_moment(spec, 10_000, 1, mode="exact")
        assert g_factor(spec, 10_000, mode="exact") * e_w == spec.initial[0]
    # distribution-level identity: expectation summed over the exact pmf
    for N in (1, 2, 3, 5, 8, 16, 32, 48):
        g = g_factor(STD, N, mode="exact")
        mean = sum(q * w for w, q in exact_pmf_dp(STD, N).as_dict().items())
        assert g * mean == STD.initial[0]
    # conditional one-step identity on every reachable prefix state: the
    # conditional law of step i+1 depends on the prefix only through (i, W_i)
    for spec in GRID:
        for i in range(8):
            T = schedule(spec, i).total(i)
            g_now, g_next = g_factor(spec, i), g_factor(spec, i + 1)
            for w in exact_pmf_dp(spec, i).support:
                cond_mean = w + spec.sigma * w / T
                assert g_next * cond_mean == g_now * w
    acceptance(2, "martingale identities exact to N=1e4 plus one-step at N <= 8", True,
               "E[g_N W_N] = w0 on all routes")


def test_criterion_03_asymptotic_constants(acceptance):
    cst = asymptotic_constants(STD)
    kappa_closed = 2 ** Fraction(2, 3) * math.gamma(4 / 3) / math.gamma(2 / 3)
    g_scaled = float(g_factor(STD, 10**6, mode="float")) * (10**6) ** cst.Lambda
    ratio = g_scaled / cst.kappa
    ok = abs(ratio - 1.0) < 0.01 and abs(cst.kappa / float(kappa_closed) - 1.0) < 1e-12
    worst_identity = 0.0
    for spec in GRID:
        c = asymptotic_constants(spec)
        mu1 = limit_moments(spec, 1, normalization="per_period")[0]
        lhs = float(spec.sigma) * mu1 * c.kappa
        rhs = float(spec.initial[0]) * spec.period**c.Lambda
        worst_identity = max(worst_identity, abs(lhs / rhs - 1.0))
    ok = ok and worst_identity < 1e-10
    acceptance(3, "g_N N^Lambda -> kappa at N=1e6; sigma*mu1*kappa identity on grid", ok,
               f"g ratio {ratio:.6f}, worst identity residual {worst_identity:.2e}")
    assert ok


def test_criterion_04_limit_moment_convergence(acceptance):
    N = 10**5
    worst = 0.0
    for spec in GRID:
        cst = asymptotic_constants(spec)
        mus = limit_moments(spec, 3, normalization="per_period")
        raws = raw_moments(spec, N, 3, mode="float")
        n = N / spec.period
        for s in (1, 2, 3):
            scaled = raws[s - 1] / float(spec.sigma) ** s / n ** (s * cst.Lambda)
            worst = max(worst, abs(scaled / mus[s - 1] - 1.0))
    ok = worst < 0.02
    acceptance(4, "finite-N raw moments within 2% of limit moments at N=1e5, s <= 3", ok,
               f"worst relative gap {worst:.4f}")
    assert ok


def test_criterion_05_decompositions(acceptance):
    cases = [
        (STD, "beta_gengamma"),
        (PY312, "beta_gengamma"),
        (polya_young(2, 1, Fraction(1, 2), 1, 1), "beta_local_time"),
        (triangular(2, 1, 1, 3, 1, 1), "ml_gengamma"),
        (TRI, "ml_local_time"),
    ]
    details = []
    ok = True
    for spec, label in cases:
        report = verify_decomposition(spec, smax=6)
        ok = ok and report.label == label and report.max_rel_error < 1e-9
        if report.expected_scale is not None:
            ok = ok and report.scale_rel_error < 1e-9
            details.append(f"{label}: scale {report.fitted_scale:.6g}")
    acceptance(5, "limit-law factorizations reproduce moments s <= 6 to 1e-9", ok,
               "; ".join(details))
    assert ok


def test_criterion_06_density_quadrature(acceptance):
    worst = 0.0
    for spec in (STD, PY312, TRI):
        mus = limit_moments(spec, 2, normalization="per_period")
        q0, q1, q2 = tilted_density_moment(spec, (0, 1, 2))
        worst = max(worst, abs(q0 - 1.0), abs(q1 / mus[0] - 1.0), abs(q2 / mus[1] - 1.0))
    ok = worst < 1e-6
    acceptance(6, "limit density integrates to 1 and matches mu1, mu2 (two PY + one tri)",
               ok, f"worst quadrature residual {worst:.2e}")
    assert ok


def test_criterion_07_tail_sum_clt(acceptance):
    report = tail_sum_experiment(STD, 1_000, 64_000, 100_000, master_seed=2026, threads=1)
    c = report.conditional
    checks = {
        "mean": abs(c.mean) < 0.02,
        "variance": abs(c.variance - 1.0) < 0.05,
        "skewness": abs(c.skewness) < 0.05,
        "excess_kurtosis": abs(c.excess_kurtosis) < 0.1,
    }
    ok = all(checks.values())
    detail = (f"mean {c.mean:.4f}, var {c.variance:.4f}, skew {c.skewness:.4f}, "
              f"exkurt {c.excess_kurtosis:.4f}; "
              f"third moment decays ~N^(-Lambda/2)")
    acceptance(7, "tail-sum CLT bounds at N=1e3, far=6.4e4, 1e5 reps", ok, detail)
    assert ok, detail


def test_criterion_08_multicolor(acceptance):
    spec = multicolor_polya_young(2, 1, 1, (2, 1, 1))
    svecs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0), (3, 0, 0)]
    for N in range(1, 7):
        joint = enumerate_histories(spec, N)
        for svec in svecs:
            direct = mixed_rising_moment(spec, N, svec)
            from_law = sum(
                q * math.prod(_rising(c / spec.sigma, s) for c, s in zip(counts, svec))
                for counts, q in joint.as_dict().items()
            )
            assert direct == from_law, (N, svec)
    counts = simulate_counts_batch(spec, 10_000, 100_000, seed=108)
    m = [limit_mixed_moment(spec, (1, 0, 0)), limit_mixed_moment(spec, (0, 1, 0))]
    pred = [v / sum(m) for v in m]
    worst_se = 0.0
    ok = True
    plain = counts[:, 0] + counts[:, 1]
    for i in (0, 1):
        ratio = counts[:, i] / plain
        se = ratio.std(ddof=1) / math.sqrt(len(ratio))
        gap = abs(ratio.mean() - pred[i]) / se
        worst_se = max(worst_se, gap)
        ok = ok and gap < 4.0
    acceptance(8, "multicolor mixed moments exact (t=3, N <= 6); Dirichlet means at N=1e4",
               ok, f"worst component gap {worst_se:.2f} s.e.")
    assert ok


CRITERION_9_SETTINGS = [
    (recursive_family(1), 2, ("descendants", 1)),
    (recursive_family(2), 3, ("descendants", 2)),
    (dary_family(3, 2), 2, ("descendants", 1)),
    (recursive_family(1), 2, ("root_descendants", 1)),
    (recursive_family(2), 3, ("root_descendants", 1)),
    (dary_family(3, 2), 2, ("root_descendants", 2)),
    (gport_family(1, 1), 2, ("outdegree", 1)),
    (gport_family(Fraction(1, 2), 2), 2, ("outdegree", 3)),
    (gport_family(2, 1), 3, ("outdegree", 1)),
]


def test_criterion_09_tree_statistics_match_urn_laws(acceptance):
    # each TV prints next to its noise floor, the expected TV of an exact
    # sample of the same size
    N, reps = 24, 100_000
    worst, details = 0.0, []
    for k, (family, p, statistic) in enumerate(CRITERION_9_SETTINGS):
        law = statistic_pmf(family, p, N, statistic).as_dict()
        vals = simulate_statistic_batch(family, p, N, reps, seed=900 + k,
                                        statistic=statistic)
        tv = _tv(vals, law)
        worst = max(worst, tv)
        details.append(f"set {k} {tv:.4f} (floor {ref.tv_floor(law, reps):.4f})")
    ok = worst < 0.01
    acceptance(9, "tree statistics vs urn laws, TV < 0.01, nine settings at N=24", ok,
               f"worst TV {worst:.4f}; " + "; ".join(details))
    assert ok


def test_criterion_10_stirling_words(acceptance):
    # counting, including the eight-gap case for the second label
    assert gap_count(3, 2, 1, 2) == 8
    for d, p, t, N in [(3, 2, 1, 3), (1, 2, 1, 5), (2, 1, 1, 3)]:
        words = all_words(d, p, t, N)
        assert len(words) == stirling_count(d, p, t, N)
        assert len(set(words)) == len(words)
    # bijection round-trips on 10^4 random instances
    configs = [(2, 2, 1), (1, 2, 1), (3, 2, 2), (2, 3, 3)]
    rng = np.random.Generator(np.random.PCG64(1010))
    for k in range(10_000):
        d, p, t = configs[k % len(configs)]
        w = random_word(d, p, t, 12, rng)
        assert forest_to_word(word_to_forest(w, d, p, t), d, p, t, 12) == w
    # block-count law against the urn route at N=30; the TV prints next to
    # its noise floor
    d, p, t, N, reps = 2, 2, 1, 30, 100_000
    law = block_count_pmf_from_urn(block_count_urn(d, p, t), N).as_dict()
    vals = simulate_block_counts(d, p, t, N, reps, seed=1030)
    tv = _tv(vals, law)
    ok = tv < 0.01
    acceptance(10, "word counts, bijection (1e4 round-trips), block-count urn TV at N=30",
               ok, f"TV {tv:.4f} (floor {ref.tv_floor(law, reps):.4f}; urn with refresh d+t-2 "
               "and unit white input)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the historical urn, shifted by the thick-label count, does not "
    "reproduce the word process (TV grows with N)",
)
def test_criterion_10_printed_urn_mapping():
    d, p, t, N = 2, 2, 1, 30
    # the historical claim adds the thick-label count N // p to the blocks
    law = block_count_pmf_from_urn(ref.historical_block_count_urn(d, p, t), N)
    law = law.map_support(lambda b: b + N // p).as_dict()
    vals = simulate_block_counts(d, p, t, N, 20_000, seed=1031)
    assert _tv(vals, law) < 0.01


@pytest.mark.slow
def test_criterion_11_crp(acceptance):
    p = 2
    param_grid = [
        CrpParams(Fraction(1, 2), Fraction(1, 2), p, bar)
        for bar in (None, 1)
    ] + [
        CrpParams(Fraction(1, 3), 1, p, bar) for bar in (None, 1)
    ]
    # exact join probabilities against the scaled-forest closed form
    for params in param_grid:
        alpha, ell, beta = tree_equivalents(params)
        scale = 1 + alpha
        for sizes, N in [((3, 2), 5), ((1, 1, 4), 8), ((2,), 4)]:
            bar = N - sum(sizes)
            if bar and params.theta_bar is None:
                continue
            probs, fresh, barp = seating_probabilities(params, sizes, bar)
            c = capacity(params, N)
            for s, q in zip(sizes, probs):
                assert q == (s * scale - 1) / (scale * c)
            n = N // params.period
            assert fresh == (len(sizes) + (n + 1) * ell) / (scale * c)
            if barp is not None:
                assert barp == (bar * scale + beta) / (scale * c)
    # table-count laws at N=50: the seating process at the pinned 1e5 reps,
    # against the forest reference estimated with 4x the replicates (two
    # equally sized samples would put the noise floor of the TV statistic at
    # the 0.01 gate itself), and both against the exact law.  Each TV prints
    # next to its noise floor: the pair of samples of sizes n and 4n from one
    # law sits at the floor of a single sample of size 4n/5.
    N, reps = 50, 100_000
    worst_pair, worst_exact, details = 0.0, 0.0, []
    for k, params in enumerate(param_grid):
        alpha, ell, beta = tree_equivalents(params)
        crp_vals = simulate_table_count_batch(params, N, reps, seed=1100 + k)
        tree_vals = simulate_statistic_batch(
            gport_family(alpha, ell), p, N, 4 * reps, seed=1150 + k,
            statistic=("table_count",), mode="crp", bar_beta=beta,
        )
        law = table_count_pmf(params, N).as_dict()
        pair, exact = _tv_emp(crp_vals, tree_vals), _tv(crp_vals, law)
        worst_pair, worst_exact = max(worst_pair, pair), max(worst_exact, exact)
        details.append(f"set {k} pair {pair:.4f} (floor {ref.tv_floor(law, 0.8 * reps):.4f}), "
                       f"exact {exact:.4f} (floor {ref.tv_floor(law, reps):.4f})")
    ok = worst_pair < 0.01 and worst_exact < 0.01
    acceptance(11, "seating joins exact; seating vs forest and exact table counts TV < 0.01",
               ok, "TV " + "; ".join(details))
    assert ok


def test_criterion_12_thread_count_reproducibility(acceptance):
    reports = [
        tail_sum_experiment(STD, 100, 6_400, 20_000, master_seed=12, threads=t)
        for t in (1, 2, 8)
    ]
    worst = 0.0
    base = reports[0]
    for other in reports[1:]:
        for stat in ("conditional", "plugin"):
            a, b = getattr(base, stat), getattr(other, stat)
            for field in ("mean", "variance", "skewness", "excess_kurtosis"):
                worst = max(worst, abs(getattr(a, field) - getattr(b, field)))
        worst = max(worst, abs(base.tail_sd - other.tail_sd))
    ok = worst <= 1e-12
    acceptance(12, "same master seed, thread counts 1/2/8 agree to 1e-12", ok,
               f"max disagreement {worst:.2e}")
    assert ok
