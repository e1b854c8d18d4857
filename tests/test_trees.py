"""Forest growth, tree-statistic urn correspondences, branch profiles."""

from fractions import Fraction

import numpy as np
import pytest

from polyaurn.trees import (
    Forest,
    dary_family,
    descendants_urn,
    forest_total_weight,
    gport_family,
    outdegree_urn,
    recursive_family,
    root_descendants_urn,
    simulate_branch_profile_batch,
    simulate_statistic_batch,
    statistic_pmf,
)
from polyaurn.urns import branch_urn, ell_at, simulate_counts_batch, total_balls


def enumerate_forest(family, p, N, statistic, mode="standard", bar_beta=None):
    """Exact law of a forest statistic by exhaustive enumeration of every
    attachment history (rational probabilities)."""

    def clone(f):
        g = Forest.__new__(Forest)
        g.family, g.p, g.mode, g.time = f.family, f.p, f.mode, f.time
        g.weights = list(f.weights)
        g.parents = list(f.parents)
        g.is_root = list(f.is_root)
        g.labels = list(f.labels)
        g.bar_index = f.bar_index
        g.bar_count = f.bar_count
        return g

    def apply_growth(g, target, i):
        if g.bar_index is not None and target == g.bar_index:
            g.weights[target] += g.family.sigma
            g.bar_count += 1
        else:
            root_t = g.is_root[target]
            g.weights[target] = g.weights[target] + g.family.parent_delta(root_t)
            g._add(g.family.child_weight(root_t), target, False, ("node", i))
        if i % g.p == 0:
            g._add(g.family.ell, None, True, ("root", i // g.p))
        g.time = i

    def value(f):
        kind = statistic[0]
        if kind == "descendants":
            return f.descendants(statistic[1])
        if kind == "root_descendants":
            return f.root_descendants(statistic[1])
        if kind == "outdegree":
            return f.outdegree_of(("node", statistic[1]))
        if kind == "table_count":
            return f.table_count()
        raise ValueError(statistic)

    out: dict = {}

    def rec(f, prob):
        if f.time == N:
            v = value(f)
            out[v] = out.get(v, Fraction(0)) + prob
            return
        i = f.time + 1
        if f.mode == "standard" and i == 1:
            g = clone(f)
            g.grow(None)
            rec(g, prob)
            return
        total = f.total_weight
        for t, w in enumerate(f.weights):
            if w == 0:
                continue
            g = clone(f)
            apply_growth(g, t, i)
            rec(g, prob * Fraction(w) / Fraction(total))

    rec(Forest(family, p, mode, bar_beta), Fraction(1))
    return out


def test_family_constructors():
    rf = recursive_family(2)
    assert (rf.sigma, rf.kappa, rf.new_node_weight) == (1, 0, 1)
    df = dary_family(3, 2)
    assert (df.sigma, df.kappa, df.new_node_weight) == (2, 1, 3)
    assert df.root_is_capacity
    assert not dary_family(3, Fraction(3, 2)).root_is_capacity
    gf = gport_family(1, 1)
    assert (gf.sigma, gf.kappa, gf.new_node_weight) == (2, -1, 1)
    with pytest.raises(ValueError):
        dary_family(1, 1)
    with pytest.raises(ValueError):
        recursive_family(0)
    with pytest.raises(ValueError):
        gport_family(0, 1)


def test_forest_totals_track_closed_form():
    # Forest.grow asserts the closed form after every step, so growing is
    # itself the check; exercise all modes
    rng = np.random.Generator(np.random.PCG64(7))
    for family, mode, bar in [
        (recursive_family(1), "standard", None),
        (dary_family(3, 2), "standard", None),
        (dary_family(3, Fraction(3, 2)), "standard", None),
        (gport_family(Fraction(1, 2), 1), "standard", None),
        (gport_family(Fraction(1, 2), 1), "crp", None),
        (gport_family(Fraction(1, 2), 1), "crp", Fraction(2)),
    ]:
        f = Forest(family, 2, mode, bar)
        f.grow_many(20, rng)
        assert f.time == 20
    with pytest.raises(ValueError):
        Forest(recursive_family(1), 2, "standard", Fraction(1))
    with pytest.raises(ValueError):
        forest_total_weight(recursive_family(1), 2, 10, mode="crp")


EXACT_CASES = [
    (recursive_family(1), 2, 5, ("descendants", 1)),
    (recursive_family(1), 2, 5, ("descendants", 2)),
    (recursive_family(1), 2, 5, ("root_descendants", 1)),
    (dary_family(3, 2), 2, 5, ("descendants", 1)),
    (dary_family(3, Fraction(3, 2)), 2, 6, ("root_descendants", 1)),
    (gport_family(1, 1), 2, 5, ("outdegree", 1)),
    (gport_family(Fraction(1, 2), 2), 2, 6, ("outdegree", 3)),
]


@pytest.mark.parametrize("family,p,N,statistic", EXACT_CASES)
def test_statistic_law_equals_urn_law_exactly(family, p, N, statistic):
    law = statistic_pmf(family, p, N, statistic)
    assert all(type(v) is int for v in law.support)
    assert enumerate_forest(family, p, N, statistic) == law.as_dict()


@pytest.mark.parametrize("family", [gport_family(1, 1), gport_family(Fraction(1, 2), 2),
                                    gport_family(3, Fraction(1, 3))])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("bar_beta", [None, Fraction(5, 2)])
def test_crp_table_count_law_equals_enumeration_exactly(family, p, bar_beta):
    # the seating urn through a = 1/(1+alpha), theta = ell*a, theta_bar = beta*a
    for N in range(7):
        law = statistic_pmf(family, p, N, ("table_count",), "crp", bar_beta)
        assert all(type(v) is int for v in law.support)
        assert enumerate_forest(family, p, N, ("table_count",), "crp", bar_beta) == law.as_dict()


@pytest.mark.parametrize("statistic,mode,bar_beta,message", [
    (("descendants", 1), "crp", None, "no exact law for .'descendants', 1. in crp mode"),
    (("outdegree", 2), "crp", 1, "no exact law for .'outdegree', 2. in crp mode"),
    (("table_count",), "standard", None, "no exact law for .'table_count',. in standard mode"),
    (("branch_profile", 3), "crp", None, "no exact law"),
    (("descendants", 1), "standard", 1, "the bar is a crp-mode feature"),
])
def test_statistic_pmf_names_the_missing_route(statistic, mode, bar_beta, message):
    with pytest.raises(ValueError, match=message):
        statistic_pmf(gport_family(1, 1), 2, 6, statistic, mode, bar_beta)


def test_kernel_rejects_a_bar_in_standard_mode():
    # Forest refuses it, so the kernel must not sample a model the package lacks
    with pytest.raises(ValueError, match="the bar is a crp-mode feature"):
        simulate_statistic_batch(recursive_family(1), 2, 6, 10, 1, ("descendants", 1),
                                 bar_beta=1)


def test_descendants_urn_rejects_trimmed_dary():
    with pytest.raises(ValueError):
        descendants_urn(dary_family(3, Fraction(3, 2)), 2, 1)
    with pytest.raises(ValueError):
        outdegree_urn(recursive_family(1), 2, 1)
    with pytest.raises(ValueError):
        root_descendants_urn(recursive_family(1), 2, 0)


def test_node_count_conservation():
    # first node's subtree plus all immigrant subtrees partition the nodes
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(25):
        f = Forest(recursive_family(2), 3, "standard")
        f.grow_many(23, rng)
        total = f.descendants(1) + sum(f.root_descendants(m) for m in range(1, 8))
        assert total == 23


BATCH_CASES = [
    (recursive_family(1), 2, 14, ("descendants", 1)),
    (recursive_family(2), 3, 14, ("root_descendants", 1)),
    (dary_family(3, 2), 2, 14, ("descendants", 2)),
    (gport_family(1, 1), 2, 14, ("outdegree", 1)),
]


@pytest.mark.parametrize("family,p,N,statistic", BATCH_CASES)
def test_batch_simulator_matches_urn_law(family, p, N, statistic):
    urn_law = statistic_pmf(family, p, N, statistic).as_dict()
    vals = simulate_statistic_batch(family, p, N, 40_000, seed=91, statistic=statistic)
    emp = {int(v): c / len(vals) for v, c in zip(*np.unique(vals, return_counts=True))}
    tv = 0.5 * sum(
        abs(emp.get(k, 0.0) - float(urn_law.get(k, 0)))
        for k in set(emp) | set(urn_law)
    )
    assert tv < 0.025, f"TV {tv:.4f}"


def test_batch_simulator_deterministic():
    fam = recursive_family(1)
    a = simulate_statistic_batch(fam, 2, 10, 500, seed=3, statistic=("descendants", 1))
    b = simulate_statistic_batch(fam, 2, 10, 500, seed=3, statistic=("descendants", 1))
    c = simulate_statistic_batch(fam, 2, 10, 500, seed=4, statistic=("descendants", 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        simulate_statistic_batch(fam, 2, 10, 10, seed=1, statistic=("median",))


def _exact_branch_mean(spec, N):
    """Exact mean counts of a balanced matrix urn by the linear recursion."""
    means = [Fraction(v) for v in spec.initial]
    for i in range(1, N + 1):
        T = total_balls(spec, i - 1)
        draw_mean = [m / T for m in means]
        delta = [Fraction(0)] * spec.colors
        for c, pc in enumerate(draw_mean):
            for k, add in enumerate(spec.matrices[c]):
                delta[k] += pc * Fraction(add)
        means = [m + d for m, d in zip(means, delta)]
        extra = ell_at(spec, i)
        if extra:
            means[-1] += Fraction(extra)
    return means


def test_branch_profile_batches_match_exact_means():
    alpha, p, ell, N, max_size = 1, 2, 1, 18, 4
    spec = branch_urn(alpha, p, ell, max_size)
    exact = _exact_branch_mean(spec, N)
    reps = 20_000
    counts = simulate_counts_batch(spec, N, n_reps=reps, seed=11)
    assert np.allclose(counts.sum(axis=1), float(total_balls(spec, N)))
    profile = simulate_branch_profile_batch(alpha, p, ell, N, reps, seed=12, max_size=max_size)
    for m in range(1, max_size + 1):
        weight = m * (alpha + 1) - 1
        expected = float(exact[m]) / weight
        for emp in (counts[:, m] / weight, profile[:, m].astype(float)):
            se = emp.std(ddof=1) / np.sqrt(reps)
            assert abs(emp.mean() - expected) < 5 * se + 1e-9, (m, emp.mean(), expected)
