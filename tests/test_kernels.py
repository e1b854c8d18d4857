"""The Monte Carlo kernels against their copies in kernel_reference.py (same
seed, same arrays), the two-colour, seating and forest kernels against their
exact laws, the shared cumulative draw against the scalar
`kernel_reference.draw_color`, and the array history enumeration against the
recursive `kernel_reference.enumerate_histories`."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kernel_reference as ref
from test_acceptance import CRITERION_9_SETTINGS, GRID
from test_trees import _exact_branch_mean, enumerate_forest
from polyaurn.crp import (CrpParams, simulate_table_count_batch, table_count_pmf,
                          table_count_urn, tree_equivalents)
from polyaurn import moments, trees, urns
from polyaurn.stirling import (_span_block_counts, all_words, block_count, block_count_urn,
                               simulate_block_counts)
from polyaurn.trees import (
    _FOREST_BLOCK,
    _room_dtype,
    dary_family,
    descendants_urn,
    gport_family,
    outdegree_urn,
    recursive_family,
    simulate_statistic_batch,
    statistic_pmf,
)
from polyaurn.urns import (
    _cumulative_draw,
    enumerate_histories,
    exact_pmf_dp,
    multicolor_polya_young,
    polya_young,
    sequence_urn,
    simulate_counts_batch,
    simulate_white_batch,
    triangular,
    with_white_immigration,
)

# small tree-sim runs up to the wide batches of the Monte Carlo criteria
REPS = st.sampled_from([1, 7, 100, 549])
SEEDS = st.integers(0, 2**32 - 1)
RATIONAL = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=6)
# floats make the running sums round
PARAM = st.one_of(RATIONAL, st.floats(0.25, 3.0))


@pytest.mark.parametrize("n_reps", [1, 512])
def test_cumulative_draw_shortfall_takes_the_last_positive_slot(n_reps):
    # 0.3 + 0.6 rounds to 0.8999999999999999, short of x = 0.9; the rows
    # after the first two have weight 0 (the old kernels took row K - 1)
    cols = np.repeat([[0.3], [0.6], [0.0], [0.0]], n_reps, axis=1)
    assert np.sum(cols[:3, 0]) < 0.9
    for K in (3, 4):
        assert list(_cumulative_draw(n_reps)(cols, K, np.full(n_reps, 0.9))) == [1] * n_reps
    assert list(_cumulative_draw(n_reps)(cols, 3, np.full(n_reps, 0.5))) == [1] * n_reps
    # a tie with a partial sum resolves to the lower row
    cols[2] = 0.5
    for x, row in ((0.3, 0), (0.3 + 0.6, 1)):
        assert list(_cumulative_draw(n_reps)(cols, 3, np.full(n_reps, x))) == [row] * n_reps
    # x = 0 skips a leading zero row, as draw_color does at u = 0
    assert list(_cumulative_draw(n_reps)(cols[::-1], 4, np.zeros(n_reps))) == [1] * n_reps


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 6), n=REPS, seed=SEEDS, zeros=st.floats(0.0, 0.8))
def test_cumulative_draw_is_draw_color_per_column(K, n, seed, zeros):
    rng = np.random.default_rng(seed)
    cols = rng.random((K, n)) * (rng.random((K, n)) >= zeros)
    cols[0, cols.sum(axis=0) == 0] = 0.5
    # every third total a few ulps above the running sum, so that the
    # largest uniform leaves the sum short, and every third uniform 0
    totals = np.cumsum(cols, axis=0)[-1]
    totals[::3] *= 1 + 2**-50
    u = rng.random(n)
    u[::3], u[1::3] = np.nextafter(1.0, 0.0), 0.0
    assert np.any(u * totals > np.cumsum(cols, axis=0)[-1])
    target = _cumulative_draw(n)(cols, K, u * totals)
    assert list(target) == [ref.draw_color(cols[:, r], totals[r], u[r]) for r in range(n)]


@st.composite
def forest_cases(draw):
    name = draw(st.sampled_from(["recursive", "dary", "gport"]))
    if name == "recursive":
        family = recursive_family(draw(PARAM))
    elif name == "dary":  # an integer ell gives capacity roots, any other a trimmed tree
        family = dary_family(draw(st.integers(2, 4)), draw(st.one_of(st.integers(1, 3), PARAM)))
    else:
        family = gport_family(draw(PARAM), draw(PARAM))
    p = draw(st.integers(1, 3))
    N = draw(st.integers(p, 12))
    mode = draw(st.sampled_from(["standard", "crp"])) if name == "gport" else "standard"
    bar = draw(st.one_of(st.none(), PARAM)) if mode == "crp" else None
    kind = draw(st.sampled_from(["descendants", "root_descendants", "outdegree", "table_count"]))
    if kind == "table_count":
        statistic = (kind,)
    else:
        statistic = (kind, draw(st.integers(1, N // p if kind == "root_descendants" else N)))
    return family, p, N, statistic, mode, bar


# derandomized, as the other moment tests: the 4 s.e. checks cannot flake
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=forest_cases(), n_reps=REPS, seed=SEEDS)
@example(case=(dary_family(3, Fraction(1, 2)), 2, 12, ("descendants", 2), "standard", None),
         n_reps=512, seed=5)
@example(case=(gport_family(Fraction(1, 3), 1), 2, 12, ("table_count",), "crp", Fraction(3, 2)),
         n_reps=512, seed=1150)
# node 2 is never born where customer 2 sits at the bar
@example(case=(gport_family(1, 1), 2, 8, ("descendants", 2), "crp", Fraction(2)),
         n_reps=20_000, seed=3)
@example(case=(gport_family(1, 1), 2, 8, ("outdegree", 2), "crp", Fraction(2)),
         n_reps=20_000, seed=4)
# a trimmed root keeps weight 3/2, and its children start one short of d
@example(case=(dary_family(2, Fraction(3, 2)), 1, 8, ("root_descendants", 1), "standard", None),
         n_reps=20_000, seed=8)
def test_forest_kernel_moments_match_the_exact_law(case, n_reps, seed):
    family, p, N, statistic, mode, bar = case
    law = enumerate_forest(family, p, N, statistic, mode, bar)
    for kernel in (simulate_statistic_batch, ref.simulate_statistic_batch):
        sample = kernel(family, p, N, n_reps, seed, statistic, mode, bar)
        assert sample.dtype == np.int64 and sample.shape == (n_reps,)
        _assert_moments_match(sample, law, kernel.__module__)


BRANCH_SETTINGS = [  # (alpha, p, ell, N, max_size)
    (Fraction(1, 2), 1, 2, 10, 3),
    (2, 3, Fraction(1, 3), 12, 2),
    (Fraction(3, 2), 2, Fraction(1, 2), 8, 4),
    (1, 2, 1, 18, 4),
]


@pytest.mark.parametrize("alpha,p,ell,N,max_size", BRANCH_SETTINGS,
                         ids=lambda v: str(v).replace("/", "_"))
def test_branch_profile_means_match_the_branch_urn(alpha, p, ell, N, max_size):
    # colour m of the urn holds weight m*(alpha+1) - 1 per branch of size m
    reps = 20_000
    exact = _exact_branch_mean(alpha, p, ell, max_size, N)
    ours = simulate_statistic_batch(gport_family(alpha, ell), p, N, reps, 12,
                                    ("branch_profile", max_size), mode="crp")
    theirs = ref.simulate_branch_profile_batch(alpha, p, ell, N, reps, 12, max_size)
    for label, profile in (("package", ours), ("row-major reference", theirs)):
        for m in range(1, max_size + 1):
            expected = float(exact[m]) / (m * (alpha + 1) - 1)
            column = profile[:, m].astype(float)
            se = column.std(ddof=1) / math.sqrt(reps)
            assert abs(column.mean() - expected) <= 4 * se, (label, m, expected)


def _forest_tv_cases():
    """The benchmark's forest calls: the nine tree settings (criterion 9's) at
    N = 10 with 1e5 replicates, and crp-mode table counts at the four
    benchmark seating settings at N = 20 with 2e5 replicates."""
    cases = [(family, p, 10, statistic, "standard", 100_000)
             for family, p, statistic in CRITERION_9_SETTINGS]
    for params in SEATING_TV_PARAMS[:4]:
        alpha, ell, _ = tree_equivalents(params)
        cases.append((gport_family(alpha, ell), params.period, 20, ("table_count",), "crp",
                      200_000))
    return cases


@pytest.mark.parametrize("k", range(13))
def test_forest_kernel_tv_at_the_noise_floor(k):
    # each TV prints next to its noise floor; it must stay below the 0.999
    # quantile of the TV of exact samples of its size, which for a law with
    # few likely values sits far above the floor
    family, p, N, statistic, mode, n_reps = _forest_tv_cases()[k]
    law = {v: float(q) for v, q in statistic_pmf(family, p, N, statistic, mode).as_dict().items()}
    floor, limit = ref.tv_floor(law, n_reps), ref.tv_null_quantile(law, n_reps)
    args = (family, p, N, n_reps, 1200 + k, statistic, mode)
    ours = _tv_to_law(simulate_statistic_batch(*args), law)
    # the row-major reference takes 1.7 s per crp setting, so it runs the trees only
    theirs = _tv_to_law(ref.simulate_statistic_batch(*args), law) if mode == "standard" else None
    reference = "not run" if theirs is None else f"{theirs:.4f}"
    print(f"{family.name} p={p} {statistic} {mode}: TV {ours:.4f}, row-major reference "
          f"{reference}, noise floor {floor:.4f}, limit {limit:.4f}")
    assert ours < limit and (theirs is None or theirs < limit), (ours, theirs, limit)


@st.composite
def urn_specs(draw):
    kind = draw(st.sampled_from(["multi", "py", "tri", "sequence", "immigration"]))
    p = draw(st.integers(1, 3))
    if kind == "multi":
        rest = draw(st.lists(st.one_of(st.just(0), PARAM), min_size=1, max_size=3))
        initial = [draw(PARAM), *rest]
        return multicolor_polya_young(p, draw(PARAM), draw(PARAM), initial)
    offset = draw(st.integers(0, p - 1))
    w0, b0 = draw(PARAM), draw(st.one_of(st.just(0), PARAM))
    if kind == "py":
        return polya_young(p, draw(PARAM), draw(PARAM), w0, b0, offset)
    if kind == "sequence":
        return sequence_urn("thue_morse", draw(PARAM), (draw(PARAM), draw(PARAM)), w0, b0)
    spec = triangular(p, draw(PARAM), draw(PARAM), draw(PARAM), w0, b0, offset)
    if kind == "immigration":
        amounts = draw(st.lists(st.one_of(st.just(0), PARAM), min_size=p, max_size=p))
        spec = with_white_immigration(spec, amounts)
    return spec


@settings(max_examples=80, deadline=None)
@given(spec=urn_specs(), N=st.integers(0, 40), n_reps=REPS, seed=SEEDS)
@example(spec=multicolor_polya_young(2, 1, 1, (2, 1, 1)), N=40, n_reps=512, seed=108)
def test_multicolor_kernel_matches_the_row_major_reference(spec, N, n_reps, seed):
    assert np.array_equal(simulate_counts_batch(spec, N, n_reps, seed),
                          ref.simulate_counts_batch(spec, N, n_reps, seed))


def _tv_to_law(values: np.ndarray, law: dict) -> float:
    keys, counts = np.unique(values, return_counts=True)
    emp = {int(k): c / len(values) for k, c in zip(keys, counts)}
    return 0.5 * sum(abs(emp.get(k, 0.0) - law.get(k, 0.0)) for k in set(emp) | set(law))


def _moments(law: dict):
    """Mean, variance and fourth central moment of a law {value: probability}."""
    x = np.array([float(w) for w in law])
    q = np.array([float(v) for v in law.values()])
    mean = q @ x
    return mean, q @ (x - mean) ** 2, q @ (x - mean) ** 4


def _assert_moments_match(sample: np.ndarray, law: dict, label):
    """Sample mean and variance within 4 standard errors of the law's."""
    mean, var, m4 = _moments(law)
    n = len(sample)
    slack = 1e-9 * (1.0 + abs(mean))  # floating sums of a deterministic value
    assert abs(sample.mean() - mean) <= 4 * math.sqrt(var / n) + slack, (label, sample.mean(), mean)
    if n > 1:
        se_var = math.sqrt(max(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
        assert abs(sample.var(ddof=1) - var) <= 4 * se_var + slack, (label, sample.var(ddof=1), var)


# derandomized: a fixed set of examples, so the 4 s.e. checks cannot flake
@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=urn_specs(),
       checkpoints=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       n_reps=REPS, seed=SEEDS)
@example(spec=polya_young(2, 1, 1, 1, 0), checkpoints=[0, 1, 9, 40], n_reps=549, seed=0)
def test_two_colour_kernel_moments_match_the_exact_law(spec, checkpoints, n_reps, seed):
    ours = simulate_white_batch(spec, checkpoints, n_reps, seed)
    assert len(ours) == len(set(checkpoints))
    for N, W in zip(sorted(set(checkpoints)), ours):
        _assert_moments_match(W, exact_pmf_dp(spec, N).as_dict(), N)


def _draw_count_law(spec, N, W) -> tuple[np.ndarray, dict]:
    """The white-draw counts of the sampled W at step N, and their exact law
    from the DP."""
    base = float(spec.initial[0]) + sum(float(ref.immigration_at(spec, i))
                                        for i in range(1, N + 1))
    law = exact_pmf_dp(spec, N)
    exact = {round((float(w) - base) / float(spec.sigma)): float(q)
             for w, q in zip(law.support, law.probs)}
    return np.rint((W - base) / float(spec.sigma)), exact


# immigration at two of three phases, none of its values dyadic
MIXED_IMMIGRATION = with_white_immigration(
    polya_young(3, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)),
    [Fraction(1, 3), 0, Fraction(2, 7)])

TV_SPECS = {
    "STD": polya_young(2, 1, 1, 1, 1),
    "py(3,2,1,3/2,1/2)": polya_young(3, 2, 1, Fraction(3, 2), Fraction(1, 2)),
    "py b0=0": polya_young(2, 1, 1, 1, 0),
    "Lambda near 1": polya_young(1, 1, Fraction(1, 10), 1, 1),
    "triangular": triangular(2, 1, 2, Fraction(1, 2), 1, 1, 1),
    "sigma 2": triangular(2, 2, 1, 3, 2, 1),
    "thue-morse": sequence_urn("thue_morse", 1, (1, 2), 1, 1),
    "immigration": with_white_immigration(triangular(2, 1, 1, 2, 1, 1), [0, 1]),
    "mixed immigration": MIXED_IMMIGRATION,
    "table counts": table_count_urn(CrpParams(Fraction(1, 2), Fraction(1, 2), 2)),
}


@pytest.mark.parametrize("name", sorted(TV_SPECS))
def test_two_colour_kernel_tv_to_the_exact_law(name):
    # 1e5 replicates; each checkpoint's marginal of one call, and the
    # per-step reference at N = 60, stay under the 0.999 quantile of the TV
    # of exact samples of that size
    spec, n_reps = TV_SPECS[name], 100_000
    checkpoints = [0, 7, 60, 240]
    ours = simulate_white_batch(spec, checkpoints, n_reps, seed=60)
    for N, W in zip(checkpoints, ours):
        counts, law = _draw_count_law(spec, N, W)
        tv, gate = _tv_to_law(counts, law), ref.tv_null_quantile(law, n_reps)
        print(f"{name} N={N}: TV {tv:.4f}, gate {gate:.4f}, "
              f"noise floor {ref.tv_floor(law, n_reps):.4f}")
        assert tv <= gate, (N, tv, gate)
    counts, law = _draw_count_law(spec, 60, ref.simulate_white_batch(spec, [60], n_reps, 60)[0])
    assert _tv_to_law(counts, law) <= ref.tv_null_quantile(law, n_reps)


@pytest.mark.parametrize("N", [20, 60])
def test_two_colour_kernel_gives_equal_counts_equal_floats(N):
    # W is formed once from the count at each checkpoint; summed step by
    # step, the 21 counts at N = 20 came out as 50 floats
    W = simulate_white_batch(MIXED_IMMIGRATION, [N], 20_000, seed=N)[0]
    counts, _ = _draw_count_law(MIXED_IMMIGRATION, N, W)
    assert len(np.unique(W)) == len(np.unique(counts))
    assert len(urns.empirical_pmf(W).support) == len(np.unique(counts))


# the two-colour kernel's round scratch per replicate of a block: its 2K
# draws, K candidate values, steps and flags, four block vectors, and seven
# index vectors when the whole block lands on a checkpoint
WHITE_BLOCK_BYTES = (32 * urns._SKIP_K + urns._SKIP_K + 25 + 7 * 8) * urns._SKIP_BLOCK


def test_two_colour_kernel_peak_memory_is_its_state_and_one_block(traced_peak):
    # per replicate: the four out rows, its index, step, white draws and
    # barrier (8 bytes each), and one index and one flag of a compaction
    n_reps, checkpoints = 200_000, [0, 7, 60, 240]
    simulate_white_batch(MIXED_IMMIGRATION, [1], 1, 1)  # numpy.random's lazy imports
    peak = traced_peak(lambda: simulate_white_batch(MIXED_IMMIGRATION, checkpoints, n_reps, 1))
    assert peak < (8 * len(checkpoints) + 4 * 8 + 9) * n_reps + WHITE_BLOCK_BYTES, peak


def test_white_batch_draws_colour_0_of_a_multicolour_spec():
    # colour 0 is a two-colour urn against the deterministic totals; its TV to
    # the DP law stays under the 0.999 quantile of exact samples of that size
    spec, N, n_reps = multicolor_polya_young(2, 1, 1, (2, 1, 1)), 60, 200_000
    W = simulate_white_batch(spec, [N], n_reps, seed=60)[0]
    exact = {int(w) - 2: float(q) for w, q in exact_pmf_dp(spec, N).as_dict().items()}
    tv, gate = _tv_to_law(W - 2.0, exact), ref.tv_null_quantile(exact, n_reps)
    print(f"TV {tv:.4f}, gate {gate:.4f}, noise floor {ref.tv_floor(exact, n_reps):.4f}")
    assert tv < gate


def test_two_colour_kernel_with_an_empty_black_side_raises_no_warning():
    # b0 = 0 puts q = W/T at 1, where the skip divides by log1p(-1) = -inf
    spec = polya_young(2, 1, 1, 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, last = simulate_white_batch(spec, [1, 30], 549, seed=3)
    assert np.all(first == 2)  # step 1 draws white with probability 1
    mean, var, _ = _moments(exact_pmf_dp(spec, 30).as_dict())
    assert abs(last.mean() - mean) < 4 * math.sqrt(var / 549)


@pytest.mark.parametrize("checkpoints", [[], [-3, 5], [-1]])
def test_two_colour_kernel_rejects_bad_checkpoints(checkpoints):
    with pytest.raises(ValueError, match="checkpoints must be non-empty and >= 0"):
        simulate_white_batch(polya_young(2, 1, 1, 1, 1), checkpoints, 4, 1)


def _table_law(params, N) -> dict:
    return {m: float(q) for m, q in table_count_pmf(params, N).as_dict().items()}


# derandomized, as the two-colour moment test: the 4 s.e. checks cannot flake
@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=10), theta=RATIONAL,
       period=st.integers(1, 3), bar=st.none() | RATIONAL | st.floats(0.25, 3.0),
       N=st.integers(0, 20), n_reps=REPS, seed=SEEDS)
@example(a=Fraction(1, 2), theta=Fraction(1, 2), period=2, bar=None, N=20, n_reps=20_000, seed=7)
@example(a=Fraction(1, 2), theta=Fraction(1, 2), period=2, bar=1, N=20, n_reps=20_000, seed=7)
def test_seating_kernel_moments_match_the_exact_law(a, theta, period, bar, N, n_reps, seed):
    params = CrpParams(a, theta, period, bar)
    m = simulate_table_count_batch(params, N, n_reps, seed)
    assert m.dtype == np.int64 and m.shape == (n_reps,)
    _assert_moments_match(m, _table_law(params, N), N)


SEATING_TV_PARAMS = [  # the four benchmark settings, then two with a bar
    CrpParams(Fraction(1, 2), Fraction(1, 2), 2),
    CrpParams(Fraction(1, 3), 1, 2),
    CrpParams(Fraction(1, 4), Fraction(3, 2), 1),
    CrpParams(Fraction(2, 3), 2, 3),
    CrpParams(Fraction(1, 2), Fraction(1, 2), 2, 1),
    CrpParams(Fraction(1, 3), 1, 3, Fraction(5, 2)),
]


@pytest.mark.parametrize("k", range(len(SEATING_TV_PARAMS)))
def test_seating_kernel_tv_to_the_exact_law(k):
    # 2e5 replicates at N = 20, as the benchmark runs them; the per-customer
    # reference sits at the noise floor of the same sample size
    params, N, n_reps = SEATING_TV_PARAMS[k], 20, 200_000
    law = _table_law(params, N)
    floor = ref.tv_floor(law, n_reps)
    m = simulate_table_count_batch(params, N, n_reps, seed=2000 + k)
    ours = _tv_to_law(m, law)
    theirs = _tv_to_law(ref.simulate_table_count_batch(params, N, n_reps, seed=2000 + k), law)
    print(f"{params}: TV {ours:.4f}, per-customer reference {theirs:.4f}, "
          f"noise floor {floor:.4f}")
    assert ours < 1.5 * floor and theirs < 1.5 * floor, (ours, theirs, floor)
    # the replicates are iid, not only their multiset: each tenth of the array
    # has the mean of the law
    mean, var, _ = _moments(law)
    for block in m.reshape(10, -1):
        assert abs(block.mean() - mean) <= 4 * math.sqrt(var / len(block)), block.mean()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), p=st.integers(1, 3), t=st.integers(1, 3), N=st.integers(0, 10),
       n_reps=REPS, seed=SEEDS)
@example(d=2, p=2, t=1, N=0, n_reps=7, seed=1)  # the empty word has no blocks
@example(d=1, p=1, t=2, N=1, n_reps=100, seed=2)  # label 1 is thick
@example(d=3, p=2, t=3, N=2, n_reps=549, seed=3)
# one replicate either side of the span blocks' edges, and a word with no thick label
@example(d=2, p=2, t=1, N=8, n_reps=4095, seed=4)
@example(d=3, p=3, t=2, N=10, n_reps=4096, seed=5)
@example(d=1, p=2, t=3, N=9, n_reps=4097, seed=6)
@example(d=2, p=1, t=1, N=7, n_reps=8193, seed=7)
@example(d=2, p=3, t=2, N=2, n_reps=4097, seed=8)
# the word length passes 127 -> 128 at label 86 and ends at 150: int16 gaps
@example(d=1, p=4, t=2, N=100, n_reps=549, seed=9)
def test_block_counts_match_the_row_loop_reference(d, p, t, N, n_reps, seed):
    assert np.array_equal(simulate_block_counts(d, p, t, N, n_reps, seed),
                          ref.simulate_block_counts(d, p, t, N, n_reps, seed))


def test_word_kernel_peak_memory_is_its_gaps_and_one_block(traced_peak):
    # the (N, n_reps) int8 gaps (the word has 75 symbols) and one block's
    # spans, not the (symbols, 2, n_reps) spans of all replicates at once,
    # which peak at 80 MB; int32 gaps peak at 16.8 MB
    N, n_reps = 30, 100_000
    peak = traced_peak(lambda: simulate_block_counts(2, 2, 1, N, n_reps, 1))
    assert peak < N * n_reps + 6 * 2**20, peak


# the forest kernel's scratch: the block's float and index vectors and masks,
# and the temporaries of its steps
FOREST_BLOCK_BYTES = 128 * _FOREST_BLOCK

FOREST_MEMORY = {  # name -> (kernel arguments, per-replicate state in bytes)
    # x and counter (8 bytes each; the int64 output takes x's place), a flag
    # byte per node, a room byte per node and root, the drawn row in a byte,
    # and at most one redraw index; a float32 room would take 64 bytes
    "dary_descendants": ((dary_family(3, 2), 2, 10, 100_000, 1, ("descendants", 1)),
                         16 + 10 + 16 + 1 + 8),
    "gport_outdegree": ((gport_family(1, 1), 2, 10, 100_000, 1, ("outdegree", 1)), 16 + 10),
    # the table count keeps no flags; 2e5 replicates at N = 20, as the
    # benchmark runs it
    "crp_table_count": ((gport_family(1, 1), 2, 20, 200_000, 1, ("table_count",), "crp"), 16),
}


@pytest.mark.parametrize("name", list(FOREST_MEMORY))
def test_forest_kernel_peak_memory_is_its_state_and_one_block(name, traced_peak):
    # full-size scratch peaks at 15.5, 7.9 and 13.6 MB
    args, per_replicate = FOREST_MEMORY[name]
    peak = traced_peak(lambda: simulate_statistic_batch(*args))
    assert peak < per_replicate * args[3] + FOREST_BLOCK_BYTES, peak


def test_dary_room_is_float64_where_float32_would_round():
    # float32 holds every whole number up to 2**24
    assert _room_dtype(dary_family(2**24 - 1, 2**24 - 1), 10) is np.float32
    assert _room_dtype(dary_family(2**24, 1), 10) is np.float64
    assert _room_dtype(dary_family(2, 2**24), 10) is np.float64


# families at N = 10 on both sides of N + max(d, ell) < 255: a wide node, a
# wide capacity root and a wide trimmed root
ROOM_LIMIT = [(dary_family(244, 2), True), (dary_family(245, 2), False),
              (dary_family(2, 244), True), (dary_family(2, 245), False),
              (dary_family(2, Fraction(489, 2)), True), (dary_family(2, Fraction(491, 2)), False)]


def test_dary_room_is_uint8_where_every_value_fits():
    # a node holds up to d, a capacity root up to ell, and a trimmed root
    # starts at 255, above every position in its slot (< ell) after N
    # decrements
    for family, fits in ROOM_LIMIT:
        assert (_room_dtype(family, 10) is np.uint8) == fits, family
    assert _room_dtype(dary_family(3, 2), 251) is np.uint8  # and so does N
    assert _room_dtype(dary_family(3, 2), 252) is np.float32


@pytest.mark.parametrize("k", [k for k, (_, fits) in enumerate(ROOM_LIMIT) if fits])
def test_uint8_room_gives_the_float32_room_bytes_at_the_limit(k, monkeypatch):
    args = (ROOM_LIMIT[k][0], 1, 10, 2_000, 40 + k, ("root_descendants", 1))
    ours = simulate_statistic_batch(*args)
    monkeypatch.setattr(trees, "_room_dtype", lambda family, N: np.float32)
    assert np.array_equal(simulate_statistic_batch(*args), ours)


@pytest.mark.parametrize("d,p,t,N", [(1, 1, 1, 4), (2, 2, 1, 4), (1, 2, 2, 5), (3, 2, 1, 3),
                                     (2, 3, 2, 4), (1, 1, 3, 3)])
def test_vectorised_block_count_on_every_word(d, p, t, N):
    # the count from each symbol's first and last position, as the kernel
    # tracks them, against the interval merge of `block_count`
    words = all_words(d, p, t, N)
    ends = np.zeros((len(set(words[0])), 2, len(words)), dtype=np.int32)
    for r, word in enumerate(words):
        for k, sym in enumerate(sorted(set(word))):
            ends[k, :, r] = word.index(sym), len(word) - 1 - word[::-1].index(sym)
    assert list(_span_block_counts(ends)) == [block_count(w) for w in words]


def _same_law(spec, N):
    """enumerate_histories returns the recursive oracle's Pmf: the same
    support and probability tuples, Fraction for Fraction or float bit for
    bit."""
    ours, theirs = enumerate_histories(spec, N), ref.enumerate_histories(spec, N)
    assert ours.support == theirs.support, (spec.family, N)
    assert [q.hex() if isinstance(q, float) else q for q in ours.probs] == \
        [q.hex() if isinstance(q, float) else q for q in theirs.probs], (spec.family, N)
    assert ours.is_exact == spec.is_exact


_RATIONAL_ENUM_SPECS = [
    triangular(2, 1, Fraction(1, 3), Fraction(7, 5), 1, 2, offset=1),
    triangular(3, Fraction(3, 2), Fraction(2, 3), Fraction(1, 4), Fraction(5, 6), 1),
    sequence_urn("thue_morse", Fraction(1, 2), (1, Fraction(2, 3)), 1, Fraction(1, 3)),
    with_white_immigration(triangular(2, 1, Fraction(1, 2), 1, 1, 1), [Fraction(1, 3), 0]),
    block_count_urn(2, 2, 2),
    block_count_urn(1, 3, 2),
    table_count_urn(CrpParams(Fraction(1, 3), Fraction(2, 5), 3)),
    table_count_urn(CrpParams(Fraction(1, 2), Fraction(1, 2), 1, Fraction(3, 2))),
]


@pytest.mark.parametrize("spec", GRID, ids=lambda s: f"{s.period}_{s.sigma}_{s.ells[1]}")
def test_enumeration_matches_the_recursion_on_the_criterion_1_grid(spec):
    for N in range(9):
        _same_law(spec, N)


@pytest.mark.parametrize("k", range(len(_RATIONAL_ENUM_SPECS)))
def test_enumeration_matches_the_recursion_on_rational_specs(k):
    for N in range(11):
        _same_law(_RATIONAL_ENUM_SPECS[k], N)


def test_enumeration_matches_the_recursion_on_multicolour_and_tree_urns():
    for N in range(7):
        _same_law(multicolor_polya_young(2, 1, 1, (2, 1, 1)), N)
    families = [recursive_family(1), dary_family(2, 1), gport_family(Fraction(1, 2), 1)]
    urns = [descendants_urn(f, p, j) for f in families for p, j in ((1, 2), (2, 3))]
    urns += [outdegree_urn(families[2], p, j) for p, j in ((1, 1), (3, 2))]
    for spec in urns:
        for N in range(8):
            _same_law(spec, N)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_the_recursion_bit_for_bit_on_float_specs(seed):
    rng = np.random.default_rng(300 + seed)
    def x():
        return float(rng.uniform(0.1, 3.0))
    p = int(rng.integers(1, 4))
    tri = triangular(p, x(), x(), x(), x(), x(), offset=int(rng.integers(p)))
    specs = [polya_young(p, x(), x(), x(), x()), tri,
             with_white_immigration(tri, [x() for _ in range(p)]),
             multicolor_polya_young(p, x(), x(), (x(), x(), x())),
             multicolor_polya_young(p, x(), x(), [x() for _ in range(9)]),  # 9-term totals
             # Fractions that floats cannot hold, next to float parameters
             with_white_immigration(triangular(p, x(), Fraction(1, 3), x(), Fraction(2, 7), x()),
                                    [Fraction(1, 5)] + [x() for _ in range(p - 1)])]
    for spec in specs:
        for N in range({2: 9, 3: 6, 9: 4}[spec.colors]):
            _same_law(spec, N)


def test_enumeration_in_small_chunks_is_unchanged(monkeypatch):
    # four rows a chunk split the frontier from the third step on
    monkeypatch.setattr(urns, "_ENUM_CHUNK", 4)
    for spec in (polya_young(2, Fraction(1, 2), 1, 1, Fraction(1, 3)),
                 with_white_immigration(triangular(2, 0.7, 0.3, 1.1, 0.9, 1.3), [0.2, 0.5]),
                 multicolor_polya_young(2, 1, 1, (2, 1, 1))):
        for N in range(8):
            _same_law(spec, N)


def test_enumeration_keeps_its_guard_and_errors():
    std = polya_young(2, 1, 1, 1, 1)
    message = f"enumeration of 2**24 histories exceeds guard {urns._ENUM_GUARD}"
    for enumerate_ in (enumerate_histories, ref.enumerate_histories):
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_(std, 24)


# ---------------------------------------------------------------------------
# the exact layer against its earlier Fraction and allocating code

_TM = sequence_urn("thue_morse", 1, (1, 2), 1, 1)


@pytest.mark.parametrize("spec", [
    _TM,
    sequence_urn("thue_morse", Fraction(1, 2), (Fraction(1, 3), Fraction(5, 2)), Fraction(3, 4),
                 Fraction(2, 5)),
    with_white_immigration(_TM, [Fraction(1, 3)]),
    sequence_urn("thue_morse", 0.7, (0.3, 1.1), 0.9, 1.3),  # object totals over d = 2^k
    sequence_urn("thue_morse", 1, (10**17, 1), 1, 1),  # ells[0] unused up to N = 2
    polya_young(3, 1, 2, 1, 1),
    triangular(3, Fraction(2, 3), Fraction(1, 4), Fraction(5, 2), Fraction(7, 3), 1, offset=1),
    multicolor_polya_young(2, 1, 1, (2, 1, 1)),
    # periodic immigration: one cycle's columns repeated, with an offset
    with_white_immigration(polya_young(3, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
                                       Fraction(1, 5), offset=2), [Fraction(1, 3), 0, Fraction(2, 7)]),
    with_white_immigration(triangular(3, 1.5, 0.5, 1.25, 2.0, 0.25, offset=1), [0.1, 0.0, 0.7]),
], ids=["tm", "tm_rational", "tm_immigration", "tm_float", "tm_huge_ell", "py", "tri",
        "multicolour", "py_immigration", "tri_float_immigration"])
def test_schedule_matches_the_per_step_reference(spec):
    for N in (0, 1, 2, 3, 7, 64, 65, 1000, 5000):
        got, want = urns.schedule(spec, N), ref.per_step_schedule(spec, N)
        assert (got.d, got.exact, got.w0, got.gain) == (want.d, want.exact, want.w0, want.gain)
        for name in ("totals", "ells", "imm"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), (N, name)


@pytest.mark.parametrize("spec", [
    polya_young(3, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)),
    triangular(3, Fraction(2, 3), Fraction(1, 4), Fraction(5, 2), Fraction(7, 3), Fraction(1, 6)),
    sequence_urn("thue_morse", Fraction(1, 2), (Fraction(1, 3), Fraction(5, 2)), Fraction(3, 4),
                 Fraction(2, 5)),
], ids=["py", "tri", "seq"])
def test_moment_inversion_matches_the_fraction_reference(spec):
    for N in range(61):
        B = ref.binomial_moments(spec, N)
        assert moments.binomial_moments(spec, N) == B
        assert moments.pmf_via_moments(spec, N) == ref.pmf_via_moments(spec, B)


@pytest.mark.parametrize("spec", [polya_young(2, 1, 1, 1, 1),
                                  with_white_immigration(triangular(2, 0.7, 0.3, 1.1, 0.9, 1.3),
                                                         [0.2, 0.5])],
                         ids=["std", "immigration"])
def test_float_dp_matches_the_allocating_loop(spec):
    def hexes(pmf):
        return [x.hex() for x in pmf.support], [q.hex() for q in pmf.probs]
    for N in (1, 7, 500, 2000):
        assert hexes(exact_pmf_dp(spec, N, "float")) == hexes(ref.exact_pmf_dp_float(spec, N))


@pytest.mark.parametrize("spec", [
    with_white_immigration(polya_young(2, 1, 1, 1, 1), [Fraction(1, 2), 0]),
    polya_young(2, 1, 1, 1, 0),
    multicolor_polya_young(2, 1, 1, (2, 1, 1)),
    with_white_immigration(triangular(3, 1.5, 0.5, 1.25, 2.0, 0.25), [0.1, 0.0, 0.7]),
], ids=["immigration", "b0_0", "multicolour", "float"])
def test_float_dp_chunks_match_the_sliced_loop(spec):
    # chunk edges at multiples of urns._DP_CHUNK (64): the chunked update
    # writes +0 above the support, where the sliced loop never wrote
    for N in (0, 1, 63, 64, 65, 127, 128, 129, 1000):
        assert repr(exact_pmf_dp(spec, N, "float")) == repr(ref.exact_pmf_dp_slices(spec, N))
