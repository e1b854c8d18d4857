"""Seating process with periodically opening restaurants and optional bar."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from polyaurn.crp import (
    CrpParams,
    capacity,
    seating_probabilities,
    seating_weights,
    simulate_table_count_batch,
    table_count_pmf,
    table_count_urn,
    tree_equivalents,
)
from polyaurn.trees import forest_total_weight, gport_family

HALF = CrpParams(Fraction(1, 2), Fraction(1, 2), 2)
THIRD = CrpParams(Fraction(1, 3), 1, 3)


def exact_table_count_law(params: CrpParams, N: int) -> dict:
    """Exact table-count law by dynamic programming over (sizes, bar) states;
    tables of equal size are exchangeable, so sorted size tuples suffice."""
    states = {((), 0): Fraction(1)}
    for step in range(N):
        nxt: dict = {}

        def put(key, prob):
            nxt[key] = nxt.get(key, Fraction(0)) + prob

        for (sizes, bar), prob in states.items():
            tables, fresh, barw = seating_weights(params, sizes, step, bar)
            c = capacity(params, step)
            for s in set(sizes):
                k = sizes.count(s)
                grown = list(sizes)
                grown.remove(s)
                put((tuple(sorted(grown + [s + 1])), bar), prob * k * (s - params.a) / c)
            put((tuple(sorted(sizes + (1,))), bar), prob * fresh / c)
            if barw is not None:
                put((sizes, bar + 1), prob * barw / c)
        states = nxt
    law: dict = {}
    for (sizes, _), prob in states.items():
        law[len(sizes)] = law.get(len(sizes), Fraction(0)) + prob
    return law


def test_params_validation():
    for bad in [dict(a=0), dict(a=1), dict(theta=0), dict(period=0), dict(theta_bar=0)]:
        kwargs = dict(a=Fraction(1, 2), theta=1, period=2)
        kwargs.update(bad)
        with pytest.raises((ValueError, TypeError)):
            CrpParams(**kwargs)


def test_capacity_frozen():
    assert capacity(HALF, 0) == Fraction(1, 2)
    assert capacity(HALF, 3) == 4
    bar = CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=1)
    assert capacity(bar, 3) == 5


def test_seating_probabilities_sum_to_one():
    cases = [
        (HALF, (3, 2, 1), 0),
        (THIRD, (4, 1), 0),
        (CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=2), (2, 2), 3),
    ]
    for params, sizes, bar in cases:
        probs, fresh, barp = seating_probabilities(params, sizes, bar)
        total = sum(probs) + fresh + (barp or 0)
        assert total == 1
        assert all(q > 0 for q in probs) and fresh > 0


def test_tree_equivalents_frozen():
    assert tree_equivalents(HALF) == (1, 1, None)
    assert tree_equivalents(THIRD) == (2, 3, None)
    bar = CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=2)
    assert tree_equivalents(bar) == (1, 1, 4)


@pytest.mark.parametrize(
    "params",
    [HALF, THIRD, CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=2)],
)
def test_weights_match_scaled_forest_exactly(params):
    alpha, ell, beta = tree_equivalents(params)
    family = gport_family(alpha, ell)
    scale = 1 + alpha
    for N in range(8):
        assert scale * capacity(params, N) == forest_total_weight(
            family, params.period, N, mode="crp", bar_beta=beta
        )
        sizes = (1,) * min(N, 3)
        bar = N - len(sizes)
        tables, fresh, barw = seating_weights(params, sizes, N, bar)
        for s, w in zip(sizes, tables):
            assert scale * w == s * scale - 1  # branch weight of a size-s branch
        n = N // params.period
        # total root weight: one unit per existing branch plus ell per root
        assert scale * fresh == len(sizes) + (n + 1) * ell
        if barw is not None:
            assert scale * barw == bar * scale + beta


def test_table_count_urn_structure():
    urn = table_count_urn(HALF)
    assert urn.initial == (Fraction(1, 2), 0)
    assert urn.sigma == Fraction(1, 2)
    assert urn.white_immigration == (0, Fraction(1, 2))
    # joins and bar visits both add 1 to black: the bar only starts black
    bar = table_count_urn(CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=Fraction(5, 2)))
    assert bar == replace(urn, initial=(Fraction(1, 2), Fraction(5, 2)))


BAR_PARAMS = [
    CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=1),
    CrpParams(Fraction(1, 3), 1, 3, theta_bar=Fraction(1, 7)),
    CrpParams(Fraction(2, 3), Fraction(3, 2), 1, theta_bar=Fraction(5, 2)),
]


@pytest.mark.parametrize("params", [HALF, THIRD] + BAR_PARAMS)
def test_table_count_pmf_matches_state_enumeration(params):
    for N in range(0, 8):
        law = exact_table_count_law(params, N)
        pmf = table_count_pmf(params, N)
        assert pmf.as_dict() == law


def test_table_count_pmf_integer_support():
    pmf = table_count_pmf(HALF, 9)
    assert all(type(m) is int for m in pmf.support)
    assert min(pmf.support) >= 1 and max(pmf.support) <= 9


@pytest.mark.parametrize("params,N,support", [
    (CrpParams(Fraction(1, 10), Fraction(1, 4), 1, 1.0), 1, (0, 1)),
    (CrpParams(0.3, 0.7, 2), 5, (1, 2, 3, 4, 5)),
])
def test_table_count_pmf_float_parameters_give_integer_keys(params, N, support):
    # (w - shift)/a in float lands next to the table count (0.9999999999999998,
    # 5.000000000000002); the keys must be the counts themselves
    pmf = table_count_pmf(params, N)
    assert pmf.support == support
    assert all(type(m) is int for m in pmf.support)


@pytest.mark.parametrize("params", [HALF, THIRD])
def test_batch_matches_exact_pmf(params):
    N, reps = 30, 30_000
    vals = simulate_table_count_batch(params, N, reps, seed=23)
    law = {int(m): float(q) for m, q in table_count_pmf(params, N).as_dict().items()}
    emp = {int(v): c / reps for v, c in zip(*np.unique(vals, return_counts=True))}
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - law.get(k, 0.0)) for k in set(emp) | set(law))
    assert tv < 0.02, tv


def test_bar_batch_matches_state_enumeration():
    params = CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=1)
    N, reps = 8, 30_000
    law = {int(k): float(v) for k, v in exact_table_count_law(params, N).items()}
    vals = simulate_table_count_batch(params, N, reps, seed=29)
    emp = {int(v): c / reps for v, c in zip(*np.unique(vals, return_counts=True))}
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - law.get(k, 0.0)) for k in set(emp) | set(law))
    assert tv < 0.02, tv


@pytest.mark.parametrize("N,n_reps,message", [(-3, 5, "N must be >= 0"),
                                               (5, 0, "n_reps must be >= 1"),
                                               (5, -1, "n_reps must be >= 1")])
def test_batch_rejects_bad_sizes(N, n_reps, message):
    with pytest.raises(ValueError, match=message):
        simulate_table_count_batch(HALF, N, n_reps, seed=1)
    if N < 0:
        with pytest.raises(ValueError, match=message):
            table_count_pmf(HALF, N)


def test_batch_deterministic():
    a = simulate_table_count_batch(HALF, 12, 400, seed=5)
    b = simulate_table_count_batch(HALF, 12, 400, seed=5)
    assert np.array_equal(a, b)


BAR = CrpParams(Fraction(1, 2), Fraction(1, 2), 2, theta_bar=1)


@pytest.mark.parametrize("params,sizes,N,bar,message", [
    (HALF, (3, 0), 3, 0, "table sizes must be >= 1"),
    (HALF, (3, 2), 7, 2, "bar_count > 0 needs a bar"),
    (BAR, (3, 2), 4, -1, "bar_count must be >= 0"),
])
def test_seating_probabilities_reject_unreachable_states(params, sizes, N, bar, message):
    # seating_weights still takes any state; the probabilities need a real one
    seating_weights(params, sizes, N, bar)
    with pytest.raises(ValueError, match=message):
        seating_probabilities(params, sizes, bar)
