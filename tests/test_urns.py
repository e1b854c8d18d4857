"""Urn constructors, exact laws, enumeration agreement, serialization."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_reference import apply_draw, immigration_at, thue_morse_index
from polyaurn import urns
from polyaurn.crp import CrpParams, table_count_urn
from polyaurn.urns import (
    _AUTO_EXACT_MAX_N,
    Pmf,
    UrnSpec,
    _exact_pmf,
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
MULTI = multicolor_polya_young(2, 1, 1, (1, 1, 1))
THUE_MORSE = sequence_urn("thue_morse", 1, (1, 2), 1, 1)


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
    # the last colour takes the refresh; one colour left colour 0 to take it
    # as well, and urn-exact printed E[W_6] = 81/14 where W_6 = 10 surely
    one = {"family": "multicolor", "period": 2, "initial": [1], "sigma": 1, "ells": [0, 1]}
    for build in (lambda: multicolor_polya_young(2, 1, 1, (1,)),
                  lambda: UrnSpec("multicolor", 2, (Fraction(1),), Fraction(1),
                                  (Fraction(0), Fraction(1))),
                  lambda: spec_from_json(json.dumps(one))):
        with pytest.raises(ValueError, match="^a spec needs at least two colors: the last "
                                             "takes the refresh$"):
            build()
    # floats that are not finite once passed, to fail later in schedule
    for build, field in ((lambda: polya_young(1, 1, 1, 1, math.nan), "initial"),
                         (lambda: polya_young(1, 1, 1, 1, math.inf), "initial"),
                         (lambda: polya_young(1, math.nan, 1, 1, 1), "sigma"),
                         (lambda: triangular(2, 1, math.nan, 1, 1, 1), "ells"),
                         (lambda: with_white_immigration(STD, [0, math.nan]),
                          "white_immigration")):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            build()


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


MULTI_DP_SPECS = {
    "2_1_1": multicolor_polya_young(2, 1, 1, (2, 1, 1)),
    "rational": multicolor_polya_young(3, Fraction(1, 2), Fraction(2, 3),
                                       (1, Fraction(1, 3), 2, 1)),
    "empty_middle": multicolor_polya_young(2, 1, 2, (1, 0, 1)),
    "empty_last": multicolor_polya_young(1, Fraction(3, 2), 1, (Fraction(1, 2), 2, 0)),
}


@pytest.mark.parametrize("name", list(MULTI_DP_SPECS))
def test_dp_is_the_colour_0_marginal_of_a_multicolour_spec(name):
    # only the last colour takes the refresh, so colour 0 gains sigma exactly
    # on its own draws against deterministic totals: a two-colour urn
    spec = MULTI_DP_SPECS[name]
    for N in (0, 1, 5, 9):
        exact = exact_pmf_dp(spec, N, "exact")
        assert exact == marginal_pmf(enumerate_histories(spec, N), 0), N
        flt = exact_pmf_dp(spec, N, "float")
        assert flt.support == pytest.approx([float(w) for w in exact.support], rel=1e-14)
        assert flt.probs == pytest.approx([float(q) for q in exact.probs], rel=1e-14, abs=1e-14)


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
        with_white_immigration(polya_young(3, 2, 1, 1, 0, offset=1), [1, 0, Fraction(1, 2)]),
        THUE_MORSE,
        with_white_immigration(THUE_MORSE, [2]),
        polya_young(2, 1.5, 0.5, 1.0, 2.0),
    ]
    for spec in specs:
        back = spec_from_json(spec_to_json(spec))
        assert back == spec
        assert back.initial == spec.initial  # Fractions survive, not floats
        if spec.is_exact:
            assert all(isinstance(v, Fraction) for v in back.initial)


def test_spec_stores_each_fact_once():
    assert list(UrnSpec.__dataclass_fields__) == [
        "family", "period", "initial", "sigma", "ells", "offset", "sequence_name",
        "white_immigration"]
    tri = triangular(3, 1, Fraction(1, 2), 2, 1, 1, offset=1)
    assert (tri.ells, tri.colors, tri.phase_ells) == ((Fraction(1, 2), 2), 2, (2, 0.5, 0.5))
    assert MULTI.colors == 3
    assert THUE_MORSE.phase_ells is None
    # immigration keeps the base family
    for base in (STD, tri, THUE_MORSE):
        assert with_white_immigration(base, [1] * base.period).family == base.family
    # the shape rule runs on every instance, not only in the constructors
    with pytest.raises(ValueError, match="ordinary ell must be 0"):
        UrnSpec("polya_young", 2, (1, 1), 1, (1, 1))


# the keys the schema-2 spec echo wrote that schema 3 drops, with values it wrote
_DROPPED_KEYS = {"kind": "py_like", "colors": 2, "phase_ells": [0, 1], "sequence_ells": [1, 2],
                 "ell": 1, "ell1": 0, "ell2": 1}


@pytest.mark.parametrize("key", list(_DROPPED_KEYS))
def test_spec_json_rejects_each_dropped_key(key):
    payload = {**json.loads(spec_to_json(STD)), key: _DROPPED_KEYS[key]}
    with pytest.raises(ValueError, match=f"^unknown spec keys: {key}$"):
        spec_from_json(json.dumps(payload))


def test_spec_json_rejects_a_schema_2_echo():
    schema_2 = {"colors": 2, "ell": 1, "family": "polya_young", "initial": [1, 1],
                "kind": "py_like", "offset": 0, "period": 2, "phase_ells": [0, 1], "sigma": 1}
    with pytest.raises(ValueError, match="^unknown spec keys: colors, ell, kind, phase_ells$"):
        spec_from_json(json.dumps(schema_2))


_MALFORMED = {  # field overrides of a valid spec's JSON -> the rule they break
    "3 sequence_ells": (THUE_MORSE, {"ells": [1, 2, 3]}, "exactly two ells, got 3"),
    "three ells": (STD, {"ells": [0, 1, 2]}, "exactly two ells, got 3"),
    "unknown sequence": (THUE_MORSE, {"sequence": "fib"}, "unknown sequence 'fib'"),
    "sequence on a periodic family": (STD, {"sequence": "thue_morse"}, "only a sequence spec"),
    "sequence family without a sequence": (STD, {"family": "sequence"}, "names its sequence"),
    "unknown family": (STD, {"family": "mystery"}, "unknown family 'mystery'"),
    "polya_young ordinary ell": (STD, {"ells": [1, 1]},
                                 "the polya_young family's ordinary ell must be 0"),
    "multicolour ordinary ell": (MULTI, {"ells": [2, 1]},
                                 "the multicolor family's ordinary ell must be 0"),
    "3-colour immigration": (multicolor_polya_young(1, 1, 1, (1, 1, 1)),
                             {"white_immigration": [1]}, "two-color"),
    "1 amount, period 2": (with_white_immigration(STD, [1, 0]),
                           {"white_immigration": [1]}, "one immigration amount per phase"),
    "offset past the period": (STD, {"offset": 2}, r"offset must be in \[0, period\)"),
    # the first three once loaded as period 2, offset 1 and period 1
    "fractional period": (STD, {"period": 2.5}, "^spec key 'period' must be a JSON integer"),
    "fractional offset": (STD, {"offset": 1.9}, "^spec key 'offset' must be a JSON integer"),
    "boolean period": (STD, {"period": True}, "^spec key 'period' must be a JSON integer"),
    "string period": (STD, {"period": "2"}, "^spec key 'period' must be a JSON integer"),
    # these once loaded, and schedule then raised on NaN's integer ratio or
    # overflowed
    "NaN initial": (STD, {"initial": [1, math.nan]}, "^initial must be finite$"),
    "infinite ell": (THUE_MORSE, {"ells": [1, math.inf]}, "^ells must be finite$"),
    # schema 2 stored the ells up to three times; a stray copy is refused by name
    "phase_ells off ell": (STD, {"phase_ells": [5, 0]}, "^unknown spec keys: phase_ells$"),
    "phase_ells off ell1": (triangular(2, 1, 1, 2, 1, 1), {"ell1": 3},
                            "^unknown spec keys: ell1$"),
    "multicolour ell": (MULTI, {"ell": 2}, "^unknown spec keys: ell$"),
    "multicolour ell2": (MULTI, {"ell2": 5}, "^unknown spec keys: ell2$"),
    # the first two once loaded as (1, 2) and (0, 1); the last two raised a
    # TypeError that named no key
    "string initial": (STD, {"initial": "12"}, "^spec key 'initial' must be a JSON array"),
    "string ells": (STD, {"ells": "01"}, "^spec key 'ells' must be a JSON array"),
    "number initial": (STD, {"initial": 5}, "^spec key 'initial' must be a JSON array"),
    "list family": (STD, {"family": [1]}, "^spec key 'family' must be a JSON string"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_spec_json_rejects_malformed_shapes(case):
    # spec_from_json once read each of these; later calls then raised an
    # IndexError or KeyError, dropped a value, changed the limit constants but
    # not the law, or simulated a 3-colour urn that with_white_immigration refuses
    spec, fields, rule = _MALFORMED[case]
    payload = {**json.loads(spec_to_json(spec)), **fields}
    with pytest.raises(ValueError, match=rule):
        spec_from_json(json.dumps(payload))


@pytest.mark.parametrize("text,rule", [
    ('{"family": "polya_young"}', "^missing spec keys: ells, initial, period, sigma$"),
    ('{"family": "polya_young", "period": 2, "initial": [1, 1], "sigma": 1}',
     "^missing spec keys: ells$"),
    ("[1, 2]", "^a spec is a JSON object$"),
    ("3", "^a spec is a JSON object$"),
])
def test_spec_json_names_a_missing_key_or_a_non_object(text, rule):
    # these once raised KeyError: 'period', and TypeError for the non-objects
    with pytest.raises(ValueError, match=rule):
        spec_from_json(text)


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


def test_schedule_memo_keeps_exact_and_float_twins_apart():
    # the twins are equal and hash alike, yet one is exact and one is not
    exact, floats = polya_young(2, 1, 1, 1, 1), polya_young(2, 1.0, 1, 1, 1)
    assert exact == floats and hash(exact) == hash(floats)
    for first, second in ((exact, floats), (floats, exact)):
        urns._schedule.cache_clear()
        for spec in (first, second):
            kind = Fraction if spec.is_exact else float
            sched = schedule(spec, 9)
            assert sched.exact is spec.is_exact and type(sched.total(9)) is kind
            for law in (exact_pmf_dp(spec, 9), enumerate_histories(spec, 9)):
                assert all(type(q) is kind for q in law.probs)


def test_schedule_arrays_are_read_only():
    sched = schedule(STD, 10)
    assert sched is schedule(STD, 10)
    for name in ("totals", "ells", "imm"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sched, name)[0] = 1
    assert schedule(STD, 10).totals.tolist() == [2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17]


def test_exact_total_is_checked_in_integers():
    law = _exact_pmf(["a", "b", "c"], [1, 0, 2], 3)
    assert law == Pmf(("a", "c"), (Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(AssertionError, match="^exact pmf sums to 2/3$"):
        _exact_pmf(["a", "b"], [1, 1], 3)
