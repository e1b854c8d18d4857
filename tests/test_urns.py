"""Urn constructors, exact laws, enumeration agreement, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_reference import apply_draw, immigration_at, thue_morse_index
from polyaurn.crp import CrpParams, table_count_urn
from polyaurn.urns import (
    _AUTO_EXACT_MAX_N,
    Pmf,
    _thue_morse_prefix,
    empirical_pmf,
    enumerate_histories,
    exact_pmf_dp,
    marginal_pmf,
    multicolor_polya_young,
    polya_young,
    schedule,
    sequence_urn,
    simulate_counts_batch,
    simulate_white_batch,
    spec_from_json,
    spec_to_json,
    triangular,
    with_white_immigration,
)

STD = polya_young(2, 1, 1, 1, 1)


def test_auto_mode_is_exact_up_to_the_cutoff():
    at = exact_pmf_dp(STD, _AUTO_EXACT_MAX_N)
    above = exact_pmf_dp(STD, _AUTO_EXACT_MAX_N + 1)
    assert all(isinstance(q, Fraction) for q in at.probs)
    assert all(isinstance(q, float) for q in above.probs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        polya_young(2, 0, 1, 1, 1)  # sigma must be positive
    with pytest.raises(ValueError):
        polya_young(2, 1, 1, 0, 1)  # color 0 must start positive
    with pytest.raises(ValueError):
        polya_young(0, 1, 1, 1, 1)  # period >= 1
    with pytest.raises(ValueError):
        polya_young(2, 1, -1, 1, 1)  # additions must be non-negative
    with pytest.raises(ValueError, match="immigration amounts must be non-negative"):
        with_white_immigration(polya_young(1, 1, 1, 1, 1), [-3])


def _total(spec, N):
    """T_N, the total mass after N steps."""
    return schedule(spec, N).total(N)


def test_total_balls_closed_form():
    # first totals: 2, 3, 5, 6, 8 (refresh adds the extra ball on even steps)
    assert [_total(STD, N) for N in range(5)] == [2, 3, 5, 6, 8]
    for N in range(0, 25):
        n, k = divmod(N, 2)
        assert _total(STD, N) == n * 3 + k + 2


def test_total_balls_general_grid():
    for p in (1, 2, 3):
        for sigma, ell in ((1, 1), (Fraction(1, 2), Fraction(3, 2)), (2, 1)):
            spec = polya_young(p, sigma, ell, 1, 1)
            for N in range(0, 3 * p + 2):
                n, k = divmod(N, p)
                assert _total(spec, N) == n * (p * sigma + ell) + k * sigma + 2


def test_exact_pmf_small_frozen():
    one = exact_pmf_dp(STD, 1).as_dict()
    assert one == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    # N=2: white prob 1/2 then W/3 makes all three values equally likely
    two = exact_pmf_dp(STD, 2).as_dict()
    assert two == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}


def test_exact_pmf_mean_and_second_moment():
    law = exact_pmf_dp(STD, 2)
    assert law.mean() == 2
    assert law.moment(2) == Fraction(14, 3)


def test_dp_matches_enumeration_std():
    for N in range(1, 9):
        dp = exact_pmf_dp(STD, N)
        en = marginal_pmf(enumerate_histories(STD, N), 0)
        assert dp.as_dict() == en.as_dict()


def test_dp_matches_enumeration_offsets_and_triangular():
    specs = [
        polya_young(3, 1, 2, 1, 1, offset=1),
        polya_young(2, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1),
        triangular(2, 1, 1, 2, 1, 1),
        triangular(3, 2, 1, 3, 2, 1, offset=2),
        triangular(2, 1, Fraction(1, 3), Fraction(7, 5), 1, 2, offset=1),
        table_count_urn(CrpParams(Fraction(1, 3), Fraction(2, 5), 3)),
        polya_young(3, 2, 2, Fraction(9, 4), Fraction(3, 4)),
    ]
    for spec in specs:
        for N in range(1, 7):
            en = marginal_pmf(enumerate_histories(spec, N), 0)
            assert exact_pmf_dp(spec, N).as_dict() == en.as_dict()
        # float mode runs the same update in float64
        exact, flt = exact_pmf_dp(spec, 60, "exact"), exact_pmf_dp(spec, 60, "float")
        assert flt.support == pytest.approx([float(w) for w in exact.support], rel=1e-15)
        assert flt.probs == pytest.approx([float(q) for q in exact.probs], rel=1e-12, abs=1e-12)


def test_float_dp_keeps_the_support_of_the_exact_law():
    # the black side starts empty, so the first draws are white for certain;
    # float mode once summed the white count in float, read up = white/T just
    # above 1 and gave the impossible all-black count probability -2.2e-16
    pairs = [
        (multicolor_polya_young(2, 1.0, 1.0, (Fraction(5, 3), 0)),
         multicolor_polya_young(2, 1, 1, (Fraction(5, 3), 0))),
        (polya_young(3, 0.5, 0.25, Fraction(7, 3), 0),
         polya_young(3, Fraction(1, 2), Fraction(1, 4), Fraction(7, 3), 0)),
        (triangular(2, 1.5, 0.25, 0.75, Fraction(2, 3), 0),
         triangular(2, Fraction(3, 2), Fraction(1, 4), Fraction(3, 4), Fraction(2, 3), 0)),
    ]
    for flt_spec, exact_spec in pairs:
        for N in range(1, 9):
            flt, exact = exact_pmf_dp(flt_spec, N), exact_pmf_dp(exact_spec, N)
            assert min(flt.probs) >= 0.0, (flt_spec, N)
            assert flt.support == pytest.approx([float(w) for w in exact.support], rel=1e-15)


def test_zero_refresh_reduces_to_classical_polya():
    # sigma=1, ell=0, w0=b0=1: color-0 count is uniform on {1..N+1}
    for p in (1, 2, 3):
        spec = polya_young(p, 1, 0, 1, 1)
        for N in (1, 2, 5, 8):
            law = exact_pmf_dp(spec, N).as_dict()
            assert law == {w: Fraction(1, N + 1) for w in range(1, N + 2)}


def test_polya_young_is_triangular_with_zero_ordinary_refresh():
    a = polya_young(2, 1, 1, 1, 1)
    b = triangular(2, 1, 0, 1, 1, 1)
    for N in range(1, 7):
        assert exact_pmf_dp(a, N).as_dict() == exact_pmf_dp(b, N).as_dict()


def test_white_immigration_changes_law_and_totals():
    spec = with_white_immigration(triangular(2, 1, 1, 1, 1, 1), [0, 1])
    # immigration adds one white ball after every second step
    assert _total(spec, 4) == _total(triangular(2, 1, 1, 1, 1, 1), 4) + 2
    law = exact_pmf_dp(spec, 4)
    law.check_total()
    assert marginal_pmf(enumerate_histories(spec, 4), 0).as_dict() == law.as_dict()


def test_multicolor_marginal_is_two_color_law():
    spec = multicolor_polya_young(2, 1, 1, (1, 1, 1))
    joint = enumerate_histories(spec, 4)
    marg = marginal_pmf(joint, 0)
    two = exact_pmf_dp(polya_young(2, 1, 1, 1, 2), 4)
    assert marg.as_dict() == two.as_dict()


def test_multicolor_joint_sums_to_one_and_conserves_total():
    spec = multicolor_polya_young(3, 1, 2, (1, 2, 1))
    joint = enumerate_histories(spec, 5)
    joint.check_total()
    for state in joint.support:
        assert sum(state) == _total(spec, 5)


def test_trajectory_totals_follow_the_schedule():
    # the oracle's apply_draw over a random colour sequence, one spec of every
    # family: the total after step i is the schedule's T_i whatever was drawn,
    # and colour 0 moves by sigma exactly when it is drawn (plus its
    # immigration).  The
    # float spec's denominator 2**55 takes d*T_N past 2**63, which the
    # schedule must hold
    floats = polya_young(1, 0.1, 0.1, 1.0, 1.0)
    specs = [
        (STD, 40),
        (polya_young(3, 1, 2, 1, 1, offset=1), 40),
        (triangular(2, 1, Fraction(1, 3), Fraction(7, 5), 1, 2, offset=1), 40),
        (multicolor_polya_young(3, 1, 2, (1, 2, 1)), 40),
        (sequence_urn("thue_morse", 1, (1, 2), 1, 1), 40),
        (with_white_immigration(triangular(2, 1, 1, 1, 1, 1), [0, 1]), 40),
        (floats, 10_000),
    ]
    rng = np.random.default_rng(11)
    for spec, N in specs:
        sched = schedule(spec, N)
        totals = [sched.total(j) for j in range(N + 1)]
        counts = tuple(spec.initial)
        for i, T in enumerate(totals):
            if spec.is_exact:
                assert sum(counts) == T
            else:
                assert sum(counts) == pytest.approx(T, rel=1e-12)
            if i == N:
                break
            drawable = [c for c, w in enumerate(counts) if w > 0]
            color = drawable[int(rng.integers(len(drawable)))]
            after = apply_draw(spec, counts, i + 1, color)
            moved = after[0] - counts[0] - immigration_at(spec, i + 1)
            assert moved == pytest.approx(spec.sigma if color == 0 else 0, abs=1e-9)
            counts = after
    assert schedule(floats, 10_000).totals[-1] > 2**63
    assert _total(floats, 10_000) == float(2 + 20_000 * Fraction(0.1))


def test_simulate_white_batch_matches_exact_mean():
    (w,) = simulate_white_batch(STD, [64], n_reps=20_000, seed=9)
    law = exact_pmf_dp(STD, 64)
    exact_mean = float(law.mean())
    exact_sd = float(law.moment(2) - law.mean() ** 2) ** 0.5
    assert abs(np.mean(w) - exact_mean) < 5 * exact_sd / (20_000**0.5)


def test_simulate_counts_batch_total_is_deterministic():
    spec = multicolor_polya_young(2, 1, 1, (1, 1, 1))
    counts = simulate_counts_batch(spec, 12, n_reps=256, seed=5)
    assert counts.shape == (256, 3)
    assert np.all(counts.sum(axis=1) == float(_total(spec, 12)))


def test_sequence_urn_thue_morse():
    # 1-based labels: 1 + Thue-Morse bit-parity
    assert [thue_morse_index(n) for n in range(8)] == [1, 2, 2, 1, 2, 1, 1, 2]
    spec = sequence_urn("thue_morse", 1, (1, 2), 1, 1)
    # step i adds sigma + ells[b_i - 1]
    expect = 2
    for i in range(1, 8):
        assert _total(spec, i - 1) == expect
        expect += 1 + (1, 2)[thue_morse_index(i) - 1]
    law = exact_pmf_dp(spec, 5)
    assert marginal_pmf(enumerate_histories(spec, 5), 0).as_dict() == law.as_dict()


def test_thue_morse_prefix_is_the_scalar_index():
    # the doubling prefix against the oracle's bit-parity definition
    n = 2**14
    assert _thue_morse_prefix(n).tolist() == [thue_morse_index(k) for k in range(n)]
    assert _thue_morse_prefix(1000).tolist() == _thue_morse_prefix(n)[:1000].tolist()
    assert _thue_morse_prefix(0).tolist() == []


def test_spec_json_roundtrip():
    specs = [
        STD,
        polya_young(3, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), 1, offset=2),
        triangular(2, 1, 1, 2, 1, 1),
        multicolor_polya_young(2, 1, 1, (1, 2, 3)),
        with_white_immigration(triangular(2, 1, 1, 1, 1, 1), [0, 1]),
        sequence_urn("thue_morse", 1, (1, 2), 1, 1),
    ]
    for spec in specs:
        back = spec_from_json(spec_to_json(spec))
        assert back == spec
        assert back.initial == spec.initial  # Fractions survive, not floats
        if spec.is_exact:
            assert all(isinstance(v, Fraction) for v in back.initial)


def test_spec_json_rejects_other_kinds():
    # the spec echo carries kind "py_like"; any other kind read back is refused
    payload = json.loads(spec_to_json(STD))
    for kind in ("branch", "matrix", ""):
        with pytest.raises(ValueError, match=f"^unknown urn kind {kind!r}$"):
            spec_from_json(json.dumps({**payload, "kind": kind}))


_MALFORMED = {  # field overrides of a valid spec's JSON -> the rule they break
    "period 3, 2 phase_ells": (STD, {"period": 3}, "one phase_ells entry per phase"),
    "3 sequence_ells": (sequence_urn("thue_morse", 1, (1, 2), 1, 1),
                        {"sequence_ells": [1, 2, 3]}, "exactly two off-diagonal values"),
    "unknown sequence": (sequence_urn("thue_morse", 1, (1, 2), 1, 1),
                         {"sequence": "fib"}, "unknown sequence 'fib'"),
    "3-colour immigration": (multicolor_polya_young(1, 1, 1, (1, 1, 1)),
                             {"white_immigration": [1]}, "two-color"),
    "1 amount, period 2": (with_white_immigration(STD, [1, 0]),
                           {"white_immigration": [1]}, "one immigration amount per phase"),
    # the limit constants read ell, ell1, ell2 and offset, the laws phase_ells
    "phase_ells off ell": (STD, {"phase_ells": [5, 0]}, "phase_ells disagree with the "
                           "polya_young family's ell and offset"),
    "phase_ells off offset": (STD, {"offset": 1}, "phase_ells disagree"),
    "offset past the period": (STD, {"offset": 2}, r"offset must be in \[0, period\)"),
    "phase_ells off ell1": (triangular(2, 1, 1, 2, 1, 1), {"ell1": 3},
                            "triangular family's ell1, ell2 and offset"),
    "multicolour ell": (multicolor_polya_young(2, 1, 1, (1, 1, 1)), {"ell": 2},
                        "phase_ells disagree"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_spec_json_rejects_malformed_shapes(case):
    # spec_from_json once read each of these; later calls then raised an
    # IndexError or KeyError, dropped a value, or simulated a 3-colour urn
    # that with_white_immigration refuses
    spec, fields, rule = _MALFORMED[case]
    payload = {**json.loads(spec_to_json(spec)), **fields}
    with pytest.raises(ValueError, match=rule):
        spec_from_json(json.dumps(payload))


def test_pmf_helpers():
    law = Pmf((1, 2), (Fraction(1, 2), Fraction(1, 2)))
    law.check_total()
    bad = Pmf((1, 2), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(AssertionError):
        bad.check_total()
    emp = empirical_pmf([1, 1, 2, 2])
    assert emp.as_dict() == {1: 0.5, 2: 0.5}
    assert law.tv_distance(emp) == pytest.approx(0.0)
    other = Pmf((1, 2), (Fraction(3, 4), Fraction(1, 4)))
    assert law.tv_distance(other) == pytest.approx(0.25)
    assert other.tv_distance(law) == pytest.approx(0.25)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=3),
    sigma=st.sampled_from([1, 2, Fraction(1, 2)]),
    ell=st.sampled_from([0, 1, Fraction(1, 2), 2]),
    w0=st.sampled_from([1, 2, Fraction(1, 2)]),
    b0=st.sampled_from([0, 1, 2]),
    offset=st.integers(min_value=0, max_value=2),
    N=st.integers(min_value=1, max_value=5),
)
def test_dp_equals_enumeration_property(p, sigma, ell, w0, b0, offset, N):
    spec = polya_young(p, sigma, ell, w0, b0, offset=offset % p)
    dp = exact_pmf_dp(spec, N)
    en = marginal_pmf(enumerate_histories(spec, N), 0)
    assert dp.as_dict() == en.as_dict()
    dp.check_total()
    # support is an arithmetic progression starting at w0 with step sigma
    ws = sorted(dp.support)
    assert ws[0] >= w0
    for w in ws:
        k = (w - w0) / sigma
        assert k == int(k) and 0 <= k <= N
