"""Chinese restaurant seating with periodically opening restaurants.

Customers arrive one at a time.  After every block of `period` arrivals a new
restaurant opens, raising the pull of fresh tables, so the seating weights at
time N = n*p + k use the capacity c_N = N + (n+1)*theta (plus theta_bar when
a cocktail bar with infinite capacity competes for customers as well):

 - an occupied table with s customers attracts the next one with weight s - a,
 - a new table gets weight m*a + (n+1)*theta with m the occupied-table count,
 - the bar, if present, gets weight b + theta_bar with b its customer count.

The bar enters the new-table chance only through c_N, so the table count m is
a Markov chain on its own, with or without a bar: its exact law is a
two-color urn (table_count_urn) and the batch kernel simulates m alone.

The partition process is the branch structure of a plane-oriented forest with
immigrating roots: scaling all weights by 1 + alpha with a = 1/(1+alpha)
turns table weights into branch weights (a size-s branch holds weight
s*(1+alpha) - 1), new-table weight into total root weight, and the bar into
a pseudo-root of weight theta_bar/a whose subtree never spawns tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .urns import Pmf, _check_sizes, _num, exact_pmf_dp, triangular, with_white_immigration

__all__ = [
    "CrpParams",
    "capacity",
    "seating_weights",
    "seating_probabilities",
    "tree_equivalents",
    "simulate_table_count_batch",
    "table_count_urn",
    "table_count_pmf",
]


@dataclass(frozen=True)
class CrpParams:
    a: object
    theta: object
    period: int
    theta_bar: object = None

    def __post_init__(self):
        object.__setattr__(self, "a", _num(self.a))
        object.__setattr__(self, "theta", _num(self.theta))
        if self.theta_bar is not None:
            object.__setattr__(self, "theta_bar", _num(self.theta_bar))
        if not 0 < self.a < 1:
            raise ValueError("need 0 < a < 1")
        if not self.theta > 0:
            raise ValueError("need theta > 0")
        if self.theta_bar is not None and not self.theta_bar > 0:
            raise ValueError("theta_bar must be positive when present")
        if self.period < 1:
            raise ValueError("period must be >= 1")


def capacity(params: CrpParams, N: int):
    """Total seating weight facing customer N+1."""
    n = N // params.period
    c = N + (n + 1) * params.theta
    if params.theta_bar is not None:
        c = c + params.theta_bar
    return c


def seating_weights(params: CrpParams, table_sizes, N: int, bar_count: int = 0):
    """(per-table weights, new-table weight, bar weight or None) at time N."""
    n = N // params.period
    m = len(table_sizes)
    tables = [s - params.a for s in table_sizes]
    fresh = m * params.a + (n + 1) * params.theta
    bar = None if params.theta_bar is None else bar_count + params.theta_bar
    return tables, fresh, bar


def seating_probabilities(params: CrpParams, table_sizes, bar_count: int = 0):
    """Same split as seating_weights, normalized by the capacity, at the time
    N = sum(table_sizes) + bar_count of the state.  The state must be one the
    process reaches: every table seats at least one customer and only a bar
    holds bar customers."""
    if any(s < 1 for s in table_sizes):
        raise ValueError("table sizes must be >= 1")
    if bar_count < 0:
        raise ValueError("bar_count must be >= 0")
    if bar_count and params.theta_bar is None:
        raise ValueError("bar_count > 0 needs a bar (theta_bar)")
    N = sum(table_sizes) + bar_count
    tables, fresh, bar = seating_weights(params, table_sizes, N, bar_count)
    c = capacity(params, N)
    probs = [w / c for w in tables]
    return probs, fresh / c, None if bar is None else bar / c


def tree_equivalents(params: CrpParams):
    """(alpha, ell, beta) of the matching plane-oriented forest; beta is None
    without a bar.  All seating weights scale by 1 + alpha."""
    alpha = 1 / params.a - 1
    ell = params.theta / params.a
    beta = None if params.theta_bar is None else params.theta_bar / params.a
    return alpha, ell, beta


def simulate_table_count_batch(
    params: CrpParams, N: int, n_reps: int, seed: int
) -> np.ndarray:
    """Occupied-table counts after N customers for n_reps runs.

    The table count m is a Markov chain on its own: a new table opens at step
    t with probability (m*a + (n+1)*theta) / c_t, and the bar enters only
    through c_t.  So the kernel evolves the count vector of n_reps iid chains
    over m, one Binomial(count_m, p_t(m)) split per occupied m, in a window
    [lo, hi) of occupied counts.  The closing shuffle, most of the run time
    at small N, gives the array the joint law of n_reps iid runs, not only
    their multiset.
    """
    _check_sizes(N, n_reps)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    a = float(params.a)
    theta = float(params.theta)
    theta_bar = 0.0 if params.theta_bar is None else float(params.theta_bar)
    m = np.arange(N + 1)
    counts = np.zeros(N + 1, np.int64)
    counts[0] = n_reps
    lo, hi = 0, 1
    for t in range(N):
        n = t // params.period
        c = t + (n + 1) * theta + theta_bar
        moved = rng.binomial(counts[lo:hi], (m[lo:hi] * a + (n + 1) * theta) / c)
        counts[lo:hi] -= moved
        counts[lo + 1:hi + 1] += moved
        hi += bool(moved[-1])
        while not counts[lo]:
            lo += 1
    out = np.repeat(m, counts)
    rng.shuffle(out)
    return out


def table_count_urn(params: CrpParams):
    """Two-color urn whose white count tracks the table count exactly.

    White weight after N customers equals m*a + (n+1)*theta where m is the
    table count and n = N // period: a new table adds a to white and 1-a to
    black (the join weight of its seated customer), a join or a bar visit
    adds 1 to black, and each refresh adds theta to white.  So the bar only
    starts black at theta_bar.
    """
    a, theta = params.a, params.theta
    b0 = 0 * a if params.theta_bar is None else params.theta_bar
    spec = triangular(params.period, a, 1 - a, 1 - a, theta, b0)
    imm = [0 * a] * params.period
    imm[params.period - 1] = theta
    return with_white_immigration(spec, imm)


def table_count_pmf(params: CrpParams, N: int) -> Pmf:
    """Exact distribution of the number of tables after N customers, on
    integer support (rounded, so float parameters give integer keys too)."""
    spec = table_count_urn(params)
    pmf = exact_pmf_dp(spec, N)
    n = N // params.period
    shift = (n + 1) * params.theta
    return pmf.map_support(lambda w: round((w - shift) / params.a))
