"""Forest growth, tree-statistic urn correspondences, branch profiles."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyaurn.trees import (
    dary_family,
    descendants_urn,
    forest_total_weight,
    gport_family,
    outdegree_urn,
    recursive_family,
    root_descendants_urn,
    simulate_statistic_batch,
    statistic_pmf,
)


def enumerate_forest(family, p, N, statistic, mode="standard", bar_beta=None):
    """Exact law of a forest statistic by enumerating every attachment
    history (rational probabilities for rational parameters).

    An entity is (kind, draws, mark): its weight is its kind's start weight
    plus a step per draw.  A parent gains 1 per child in gport forests, keeps
    its weight in recursive ones and loses 1 in d-ary ones, where a root with
    integer ell loses 1 as well; a trimmed root (non-integer ell) keeps ell,
    and its children start one draw down, at d - 1.  A bar visit adds sigma
    to the bar.  Histories that reach the same value and the same multiset
    of entities that can still be drawn have one future, so each step keeps
    one state per such class.  The mark is what the statistic follows:
    membership of the watched subtree, or being the watched node.  Every
    state's total weight is checked against `forest_total_weight` at every
    step."""
    kind, watched = statistic[0], statistic[1:]
    node_step = {"recursive": 0, "gport": 1, "dary": -1}[family.name]
    trimmed = family.name == "dary" and not family.root_is_capacity
    rules = {  # kind: (start weight, step per draw)
        "bar": (bar_beta, family.sigma),
        "root": (family.ell, 0 if trimmed else node_step),
        "node": (family.new_node_weight, node_step),
    }
    root_child = int(trimmed)

    @functools.cache
    def weight(entity):
        start, step = rules[entity[0]]
        return start + step * entity[1]

    def add(entities, entity):
        entities[entity] = entities.get(entity, 0) + 1

    @functools.cache
    def closed_form(i):
        return forest_total_weight(family, p, i, mode, bar_beta)

    def total_weight(state, i):
        """The state's total weight, which must be the closed form after step i."""
        total = sum(weight(entity) * count for entity, count in state)
        expected = closed_form(i)
        assert total == expected or math.isclose(total, expected, rel_tol=1e-12), (i, total)
        return total

    start: dict = {}
    if bar_beta is not None:
        add(start, ("bar", 0, False))
    if mode == "crp":
        add(start, ("root", 0, kind == "root_descendants" and watched == (0,)))
    level = {(0, tuple(sorted(start.items()))): Fraction(1)}
    for i in range(1, N + 1):
        is_j = kind in ("descendants", "outdegree") and watched == (i,)
        merged: dict = {}
        for (value, state), prob in level.items():
            if mode == "standard" and i == 1:  # node 1 needs no draw
                moves = [(None, prob)]
            else:
                total = total_weight(state, i - 1)
                moves = [(entity, prob * count * weight(entity) / total)
                         for entity, count in state]
            for target, q in moves:
                entities, gained, child = dict(state), 0, None
                if target is None:
                    child, gained = ("node", 0, is_j), int(kind == "descendants" and is_j)
                else:
                    what, draws, mark = target
                    entities[target] -= 1
                    add(entities, (what, draws + 1, mark))
                if target is not None and what != "bar":
                    start = root_child if what == "root" else 0
                    if kind == "outdegree":
                        child, gained = ("node", start, is_j), int(mark)
                    elif kind == "table_count":
                        child, gained = ("node", start, False), int(what == "root")
                    else:
                        inside = mark or (kind == "descendants" and is_j)
                        child, gained = ("node", start, inside), int(inside)
                if child is not None:
                    add(entities, child)
                if i % p == 0:
                    add(entities, ("root", 0, kind == "root_descendants" and watched == (i // p,)))
                key = (value + gained, tuple(sorted((e, c) for e, c in entities.items()
                                                    if c and weight(e) != 0)))
                merged[key] = merged.get(key, 0) + q
        level = merged
    out: dict = {}
    for (value, state), prob in level.items():
        if N or mode == "crp":
            total_weight(state, N)
        out[value] = out.get(value, 0) + prob
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
    # enumerate_forest checks every state's total weight against the closed
    # form after every step, so enumerating is itself the check; exercise all
    # modes
    for family, mode, bar, statistic in [
        (recursive_family(1), "standard", None, ("descendants", 1)),
        (dary_family(3, 2), "standard", None, ("descendants", 1)),
        (dary_family(3, Fraction(3, 2)), "standard", None, ("root_descendants", 1)),
        (gport_family(Fraction(1, 2), 1), "standard", None, ("outdegree", 1)),
        (gport_family(Fraction(1, 2), 1), "crp", None, ("table_count",)),
        (gport_family(Fraction(1, 2), 1), "crp", Fraction(2), ("table_count",)),
    ]:
        assert sum(enumerate_forest(family, 2, 8, statistic, mode, bar).values()) == 1
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
    # the package has no standard-mode model with a bar, so the kernel must not sample one
    with pytest.raises(ValueError, match="the bar is a crp-mode feature"):
        simulate_statistic_batch(recursive_family(1), 2, 6, 10, 1, ("descendants", 1),
                                 bar_beta=1)


@pytest.mark.parametrize("statistic,mode,message", [
    (("descendants", 5), "standard", "node 5 never appears by N = 3"),
    (("outdegree", 0), "standard", "node 0 never appears by N = 3"),
    (("root_descendants", 2), "standard", "root 2 never appears by N = 3"),
    (("root_descendants", 0), "standard", "root 0 never appears by N = 3"),
    (("descendants", 4), "crp", "node 4 never appears by N = 3"),
    (("root_descendants", 2), "crp", "root 2 never appears by N = 3"),
])
def test_a_watched_entity_that_never_appears_is_named(statistic, mode, message):
    # roots join after steps 2, 4, ...; crp mode starts with root 0
    family = gport_family(1, 1)
    with pytest.raises(ValueError, match=message):
        simulate_statistic_batch(family, 2, 3, 10, 1, statistic, mode)
    if mode == "standard":
        with pytest.raises(ValueError, match=message):
            statistic_pmf(family, 2, 3, statistic, mode)


@pytest.mark.parametrize("bar_beta", [0, -1, Fraction(-1, 2)])
def test_a_bar_that_is_not_positive_is_rejected(bar_beta):
    family = gport_family(1, 1)
    with pytest.raises(ValueError, match="bar_beta must be positive"):
        simulate_statistic_batch(family, 2, 6, 10, 1, ("table_count",), "crp", bar_beta)
    with pytest.raises(ValueError, match="bar_beta must be positive"):
        statistic_pmf(family, 2, 6, ("table_count",), "crp", bar_beta)


@pytest.mark.parametrize("route", [
    lambda p: statistic_pmf(recursive_family(1), p, 5, ("descendants", 1)),
    lambda p: statistic_pmf(recursive_family(1), p, 5, ("root_descendants", 1)),
    lambda p: statistic_pmf(gport_family(1, 1), p, 5, ("table_count",), "crp"),
    lambda p: forest_total_weight(recursive_family(1), p, 5),
    lambda p: simulate_statistic_batch(recursive_family(1), p, 5, 10, 1, ("descendants", 1)),
], ids=["pmf_descendants", "pmf_root_descendants", "pmf_table_count", "total_weight",
        "kernel"])
@pytest.mark.parametrize("p", [0, -2])
def test_every_forest_route_checks_the_period(route, p):
    # statistic_pmf and forest_total_weight divided by p and raised ZeroDivisionError
    with pytest.raises(ValueError, match="^period must be >= 1$"):
        route(p)


def test_descendants_urn_rejects_trimmed_dary():
    with pytest.raises(ValueError):
        descendants_urn(dary_family(3, Fraction(3, 2)), 2, 1)
    with pytest.raises(ValueError):
        outdegree_urn(recursive_family(1), 2, 1)
    with pytest.raises(ValueError):
        root_descendants_urn(recursive_family(1), 2, 0)


def test_node_count_conservation():
    # node 1's subtree plus all immigrant subtrees partition the nodes in every
    # replicate: one seed grows the same forests for every statistic
    p, N, reps = 3, 23, 2_000
    parts = [("descendants", 1)] + [("root_descendants", m) for m in range(1, N // p + 1)]
    for family in (recursive_family(2), gport_family(Fraction(1, 2), 1), dary_family(3, 2),
                   dary_family(3, Fraction(3, 2))):
        total = sum(simulate_statistic_batch(family, p, N, reps, 42, part) for part in parts)
        assert np.all(total == N), family


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


def _exact_branch_mean(alpha, p, ell, max_size, N):
    """Exact mean counts of the balanced matrix urn of root-0 branch weights,
    by the linear mean recursion.

    Colours: 0 = root-0 weight, m = branches of size m (1 <= m <= max_size,
    weight m*(alpha+1) - 1 each), last = everything else.  Drawing colour 0
    grows the root and starts a size-1 branch; drawing colour m moves one
    size-m branch up a size; each drawn entity also adds alpha for its new
    child, and steps that are multiples of p add ell (a new root) to the
    last colour."""
    alpha, ell = Fraction(alpha), Fraction(ell)
    K = max_size + 2
    rows = [[Fraction(0)] * K for _ in range(K)]
    rows[0][0], rows[0][1] = Fraction(1), alpha
    for m in range(1, max_size + 1):
        rows[m][m] -= m * (alpha + 1) - 1
        rows[m][m + 1 if m < max_size else K - 1] += (m + 1) * (alpha + 1) - 1
    rows[K - 1][K - 1] = 1 + alpha
    means = [ell] + [Fraction(0)] * (K - 1)
    T = ell
    for i in range(1, N + 1):
        means = [mk + sum(mc / T * row[k] for mc, row in zip(means, rows))
                 for k, mk in enumerate(means)]
        T += 1 + alpha
        if i % p == 0:
            means[-1] += ell
            T += ell
    assert sum(means) == T  # balanced: every row adds 1 + alpha
    return means
