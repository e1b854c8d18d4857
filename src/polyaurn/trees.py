"""Randomly growing forests with periodically immigrating roots.

Three weight families drive the attachment step:
 - "recursive": every node has attachment weight 1; immigrant roots have
   constant weight ell.
 - "dary": nodes have weight d - outdegree; immigrant roots have weight
   ell - outdegree when ell is an integer, otherwise the trimmed rule applies
   (the root keeps constant weight ell and its direct children start at
   weight d-1 instead of d).
 - "gport": plane-oriented style, node weight alpha + outdegree; immigrant
   roots have weight ell + outdegree.

Standard mode starts empty: step 1 creates node 1 deterministically, each
later step attaches a node proportionally to weights, and after every step
that is a multiple of the period a fresh root joins the forest.  CRP mode
(gport only) starts with a root labeled 0 that follows the immigrant-root
rule, so every insertion is a weighted draw.

Node-level statistics (subtree sizes, root subtree sizes, outdegrees) match
two-color urns whose refresh phase is shifted by the node's birth time; the
builders below construct those urns and statistic_pmf maps them to laws.  The
batch simulator never touches the urn code path: it grows actual forests,
tracking only the counters a statistic needs, so the comparisons are genuine
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crp import CrpParams, table_count_pmf
from .urns import (Pmf, UrnSpec, _cumulative_draw, _num, draw_color, exact_pmf_dp,
                   polya_young, triangular)

__all__ = [
    "TreeFamily",
    "recursive_family",
    "dary_family",
    "gport_family",
    "forest_total_weight",
    "Forest",
    "descendants_urn",
    "root_descendants_urn",
    "outdegree_urn",
    "statistic_pmf",
    "simulate_statistic_batch",
    "simulate_branch_profile_batch",
]


@dataclass(frozen=True)
class TreeFamily:
    """Attachment rules: sigma is the total weight added per insertion and
    every ordinary node arrives with weight sigma + kappa."""

    name: str
    sigma: object
    kappa: object
    ell: object  # immigrant root arrival weight
    d: int | None = None
    alpha: object = None

    @property
    def new_node_weight(self):
        return self.sigma + self.kappa

    @property
    def root_is_capacity(self) -> bool:
        """True when roots consume capacity like ell-ary nodes."""
        if self.name != "dary":
            return False
        return isinstance(self.ell, Fraction) and self.ell.denominator == 1

    def parent_delta(self, parent_is_root: bool):
        """Weight change of the attachment target."""
        if self.name == "recursive":
            return self.ell * 0
        if self.name == "gport":
            return self.ell * 0 + 1
        if parent_is_root and not self.root_is_capacity:
            return self.ell * 0
        return self.ell * 0 - 1

    def child_weight(self, parent_is_root: bool):
        if self.name == "dary" and parent_is_root and not self.root_is_capacity:
            return self.new_node_weight - 1  # trimmed root child
        return self.new_node_weight


def recursive_family(ell) -> TreeFamily:
    ell = _num(ell)
    if not ell > 0:
        raise ValueError("ell must be positive")
    return TreeFamily("recursive", ell * 0 + 1, ell * 0, ell)


def dary_family(d: int, ell) -> TreeFamily:
    if int(d) != d or d < 2:
        raise ValueError("d must be an integer >= 2")
    ell = _num(ell)
    if not ell > 0:
        raise ValueError("ell must be positive")
    one = ell * 0 + 1
    return TreeFamily("dary", one * (d - 1), one, ell, d=int(d))


def gport_family(alpha, ell) -> TreeFamily:
    alpha, ell = _num(alpha), _num(ell)
    if not alpha > 0 or not ell > 0:
        raise ValueError("alpha and ell must be positive")
    return TreeFamily("gport", alpha + 1, alpha * 0 - 1, ell, alpha=alpha)


def forest_total_weight(family: TreeFamily, p: int, N: int, mode: str = "standard",
                        bar_beta=None):
    """Total attachment weight after N insertions (deterministic)."""
    n, k = divmod(N, p)
    if mode == "standard":
        if N < 1:
            raise ValueError("standard mode total weight is defined from N = 1")
        return n * (p * family.sigma + family.ell) + k * family.sigma + family.kappa
    if mode == "crp":
        if family.name != "gport":
            raise ValueError("crp mode uses the gport family")
        total = N * family.sigma + (n + 1) * family.ell
        if bar_beta is not None:
            total = total + bar_beta
        return total
    raise ValueError(f"unknown mode {mode!r}")


def _check_bar(mode: str, bar_beta) -> None:
    if bar_beta is not None and mode != "crp":
        raise ValueError("the bar is a crp-mode feature")


# ---------------------------------------------------------------------------
# object forest (reference implementation)


class Forest:
    """Explicit forest with per-entity bookkeeping; grows one step at a time.

    Entities are nodes and immigrant roots in creation order; parents always
    precede children.  The running total weight is checked against the closed
    form after every step.
    """

    def __init__(self, family: TreeFamily, p: int, mode: str = "standard",
                 bar_beta=None):
        if p < 1:
            raise ValueError("period must be >= 1")
        _check_bar(mode, bar_beta)
        self.family = family
        self.p = p
        self.mode = mode
        self.time = 0
        self.weights: list = []
        self.parents: list = []
        self.is_root: list = []
        self.labels: list = []  # ("node", i) or ("root", m) or ("bar",)
        self.bar_index = None
        self.bar_count = 0
        if bar_beta is not None:
            self.bar_index = self._add(_num(bar_beta), None, False, ("bar",))
        if mode == "crp":
            self._add(family.ell, None, True, ("root", 0))

    def _add(self, weight, parent, is_root, label) -> int:
        self.weights.append(weight)
        self.parents.append(parent)
        self.is_root.append(is_root)
        self.labels.append(label)
        return len(self.weights) - 1

    @property
    def total_weight(self):
        return sum(self.weights)

    def index_of(self, label) -> int:
        return self.labels.index(label)

    def grow(self, u: float | None) -> None:
        """One insertion step; u is the uniform draw (ignored at the
        deterministic first step of standard mode)."""
        i = self.time + 1
        if self.mode == "standard" and i == 1:
            self._add(self.family.new_node_weight, None, False, ("node", 1))
        else:
            target = draw_color(self.weights, self.total_weight, u)
            if target == self.bar_index:
                self.weights[target] = self.weights[target] + self.family.sigma
                self.bar_count += 1
            else:
                root_target = self.is_root[target]
                self.weights[target] = self.weights[target] + self.family.parent_delta(root_target)
                self._add(self.family.child_weight(root_target), target, False, ("node", i))
        if i % self.p == 0:
            self._add(self.family.ell, None, True, ("root", i // self.p))
        self.time = i
        expected = forest_total_weight(
            self.family, self.p, i, self.mode,
            None if self.bar_index is None else self.weights[self.bar_index] - self.bar_count * self.family.sigma,
        )
        if abs(float(self.total_weight) - float(expected)) > 1e-9:
            raise AssertionError(
                f"total weight {self.total_weight} != closed form {expected} at step {i}"
            )

    def grow_many(self, N: int, rng) -> None:
        for _ in range(N):
            skip = self.mode == "standard" and self.time == 0
            self.grow(None if skip else float(rng.random()))

    def subtree_sizes(self) -> list[int]:
        """Entity count in each entity's subtree (itself included; immigrant
        roots count as entities but only ever appear as their own subtree
        roots)."""
        sizes = [1] * len(self.weights)
        if self.bar_index is not None:
            sizes[self.bar_index] = 0
        for idx in range(len(self.weights) - 1, -1, -1):
            parent = self.parents[idx]
            if parent is not None:
                sizes[parent] += sizes[idx]
        return sizes

    def descendants(self, j: int) -> int:
        """Subtree size of node j, node included."""
        return self.subtree_sizes()[self.index_of(("node", j))]

    def root_descendants(self, m: int) -> int:
        """Nodes below immigrant root m (root excluded)."""
        return self.subtree_sizes()[self.index_of(("root", m))] - 1

    def outdegree_of(self, label) -> int:
        idx = self.index_of(label)
        return sum(1 for parent in self.parents if parent == idx)

    def table_count(self) -> int:
        """Direct children of all roots (crp mode: occupied tables)."""
        return sum(
            1
            for parent in self.parents
            if parent is not None and self.is_root[parent]
        )


# ---------------------------------------------------------------------------
# urn correspondences


def descendants_urn(family: TreeFamily, p: int, j: int) -> UrnSpec:
    """Two-color urn whose color-0 count tracks the attachment weight of node
    j's subtree: the subtree size (node included) is
    (W - kappa)/sigma = draws + 1.  Needs a family whose ordinary-node rule
    applies below roots uniformly (capacity-style roots for dary)."""
    if family.name == "dary" and not family.root_is_capacity:
        raise ValueError("descendant urns for dary trees need integer root capacity")
    w0 = family.new_node_weight
    b0 = forest_total_weight(family, p, j) - w0
    return polya_young(p, family.sigma, family.ell, w0, b0, offset=(-j) % p)


def root_descendants_urn(family: TreeFamily, p: int, m: int) -> UrnSpec:
    """Urn for the subtree weight of immigrant root m (arrival at step m*p):
    nodes below the root number (W - ell)/sigma = draws."""
    if m < 1:
        raise ValueError("immigrant roots are numbered from 1")
    b0 = forest_total_weight(family, p, m * p) - family.ell
    return polya_young(p, family.sigma, family.ell, family.ell, b0, offset=0)


def outdegree_urn(family: TreeFamily, p: int, j: int) -> UrnSpec:
    """Triangular urn tracking node j's own weight in a gport forest: the
    outdegree equals the number of color-0 draws."""
    if family.name != "gport":
        raise ValueError("outdegree urns are for the gport family")
    b0 = forest_total_weight(family, p, j) - family.alpha
    return triangular(
        p, 1, family.alpha, family.alpha + family.ell, family.alpha, b0, offset=(-j) % p
    )


def statistic_pmf(family: TreeFamily, p: int, N: int, statistic: tuple,
                  mode: str = "standard", bar_beta=None) -> Pmf:
    """Exact law of the statistic simulate_statistic_batch draws, on integer
    support.

    Standard mode: a node statistic counts the color-0 draws of its urn (plus
    node j itself for descendants) over the steps after the node is born.
    CRP mode: the table count is the seating table count with a = 1/(1+alpha),
    theta = ell*a and theta_bar = beta*a.  No other pair has a route; with a
    bar, node j may never be born, so no node urn has a fixed start.
    """
    _check_bar(mode, bar_beta)
    kind = statistic[0]
    if mode == "crp" and kind == "table_count":
        if family.name != "gport":
            raise ValueError("crp mode uses the gport family")
        a = 1 / (1 + family.alpha)
        bar = None if bar_beta is None else _num(bar_beta) * a
        return table_count_pmf(CrpParams(a, family.ell * a, p, bar), N)
    if mode != "standard" or kind not in ("descendants", "root_descendants", "outdegree"):
        raise ValueError(f"no exact law for {statistic!r} in {mode} mode (standard mode: "
                         "node statistics; crp mode: the table count)")
    arg = statistic[1]
    if kind == "descendants":
        urn, steps, itself = descendants_urn(family, p, arg), N - arg, 1
    elif kind == "root_descendants":
        urn, steps, itself = root_descendants_urn(family, p, arg), N - arg * p, 0
    else:
        urn, steps, itself = outdegree_urn(family, p, arg), N - arg, 0
    w0 = urn.initial[0]
    return exact_pmf_dp(urn, steps).map_support(lambda w: round((w - w0) / urn.sigma) + itself)


# ---------------------------------------------------------------------------
# vectorized batch simulation


def _slot_schedule(p: int, N: int, mode: str, bar: bool):
    labels = []
    if bar:
        labels.append(("bar",))
    if mode == "crp":
        labels.append(("root", 0))
    for i in range(1, N + 1):
        labels.append(("node", i))
        if i % p == 0:
            labels.append(("root", i // p))
    return labels


def simulate_statistic_batch(
    family: TreeFamily,
    p: int,
    N: int,
    n_reps: int,
    seed: int,
    statistic: tuple,
    mode: str = "standard",
    bar_beta=None,
) -> np.ndarray:
    """Grow n_reps forests and return one integer statistic per replicate.

    statistic is ("descendants", j), ("root_descendants", m),
    ("outdegree", j), or ("table_count",).  In crp mode, ("branch_profile",
    max_size) returns an (n_reps, max_size+1) matrix instead: column m counts
    the root-0 branches of size m, column 0 those beyond max_size.
    The growth loop keeps one slot per scheduled entity, with the weights
    held column-major as a (slots, n_reps) array.  Step i draws with the
    scalar engine's cumulative rule as one running sum over the slots before
    node i only: every later slot still has weight 0.
    """
    _check_bar(mode, bar_beta)
    kind = statistic[0]
    labels = _slot_schedule(p, N, mode, bar_beta is not None)
    slot_of = {lab: i for i, lab in enumerate(labels)}
    M = len(labels)
    is_root_slot = np.array([lab[0] == "root" for lab in labels])
    bar_slot = slot_of.get(("bar",), -1)

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    weights = np.zeros((M, n_reps))
    if mode == "crp":
        weights[slot_of[("root", 0)]] = float(family.ell)

    sigma, ell, w_new = (float(v) for v in (family.sigma, family.ell, family.new_node_weight))
    # by target slot: the weight it gains and the weight of the node it spawns
    slot_delta = np.where(is_root_slot, float(family.parent_delta(True)),
                          float(family.parent_delta(False)))
    trimmed = family.name == "dary" and not family.root_is_capacity
    slot_child = np.where(is_root_slot & trimmed, w_new - 1.0, w_new)
    if bar_beta is not None:
        weights[bar_slot] = float(bar_beta)
        slot_delta[bar_slot], slot_child[bar_slot] = sigma, 0.0

    counter = np.zeros(n_reps, dtype=np.int64)
    member, watch_slot = None, -1
    if kind in ("descendants", "root_descendants"):
        member = np.zeros((M, n_reps), dtype=bool)
        watch_slot = slot_of[("node" if kind == "descendants" else "root", statistic[1])]
        member[watch_slot] = True  # node j counts itself once it is created
    elif kind == "outdegree":
        watch_slot = slot_of[("node", statistic[1])]
    elif kind == "branch_profile" and mode == "crp":
        branch = np.full((M, n_reps), -1, dtype=np.int32)
        watch_slot = slot_of[("root", 0)]
    elif kind != "table_count":
        raise ValueError(f"unknown statistic {statistic!r}")

    idx, u, draw = np.arange(n_reps), np.empty(n_reps), _cumulative_draw(n_reps)
    if mode == "crp":
        total = float(forest_total_weight(family, p, 0, mode, bar_beta))
    else:
        total = float(family.kappa)  # bookkeeping origin so total tracks the closed form
    for i in range(1, N + 1):
        node_slot = slot_of[("node", i)]
        if mode == "standard" and i == 1:
            weights[node_slot] = w_new
            if member is not None:
                counter += member[node_slot]
        else:
            rng.random(out=u)
            u *= total
            target = draw(weights, node_slot, u)
            weights[target, idx] += slot_delta[target]
            weights[node_slot] = slot_child[target]
            created = target != bar_slot
            if member is not None:
                member[node_slot] |= member[target, idx]
                member[node_slot] &= created
                counter += member[node_slot]
            elif kind == "outdegree":
                counter += target == watch_slot
            elif kind == "table_count":
                counter += is_root_slot[target] & created
            elif kind == "branch_profile":
                branch[node_slot] = np.where(target == watch_slot, node_slot, branch[target, idx])
        total += sigma
        if i % p == 0:
            weights[slot_of[("root", i // p)]] = ell
            total += ell
    if kind == "branch_profile":
        return _size_profile(branch, statistic[1])
    return counter


def simulate_branch_profile_batch(
    alpha, p: int, ell, N: int, n_reps: int, seed: int, max_size: int,
) -> np.ndarray:
    """CRP-mode gport forests: counts of root-0 branches by subtree size.
    Returns an (n_reps, max_size+1) matrix; column m holds the number of
    branches of size m (column 0 collects sizes beyond max_size)."""
    return simulate_statistic_batch(gport_family(alpha, ell), p, N, n_reps, seed,
                                    ("branch_profile", max_size), mode="crp")


def _size_profile(branch: np.ndarray, max_size: int) -> np.ndarray:
    """Per replicate (column of branch), how many branch ids have each size:
    column m of the result counts size m, column 0 the sizes beyond max_size."""
    M, n_reps = branch.shape
    kept = branch >= 0
    sizes = np.bincount(np.nonzero(kept)[1] * M + branch[kept], minlength=n_reps * M)
    heads = np.flatnonzero(sizes)
    size = np.where(sizes[heads] > max_size, 0, sizes[heads])
    return np.bincount(heads // M * (max_size + 1) + size,
                       minlength=n_reps * (max_size + 1)).reshape(n_reps, max_size + 1)
