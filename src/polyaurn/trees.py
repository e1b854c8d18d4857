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
batch simulator never touches the urn or seating code: it grows actual
forests, so the comparisons are genuine cross-checks.  It splits the total
weight into classes (roots, edges, nodes, the bar), each a count times a unit
weight, and draws one uniform per step and replicate: u*total picks the class
and the entity inside it, so a step costs the same however large the forest.
d-ary forests draw against an envelope of d per node and redraw the rest.
Each replicate keeps per node only what its statistic reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .crp import CrpParams, table_count_pmf
from .urns import Pmf, UrnSpec, _check_sizes, _num, exact_pmf_dp, polya_young, triangular

__all__ = [
    "TreeFamily",
    "recursive_family",
    "dary_family",
    "gport_family",
    "forest_total_weight",
    "descendants_urn",
    "root_descendants_urn",
    "outdegree_urn",
    "statistic_pmf",
    "simulate_statistic_batch",
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
    _check_period(p)
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


def _check_period(p: int) -> None:
    """The one period check of the forest routes: the kernel, statistic_pmf
    and forest_total_weight."""
    if p < 1:
        raise ValueError("period must be >= 1")


def _check_bar(mode: str, bar_beta) -> None:
    if bar_beta is not None and mode != "crp":
        raise ValueError("the bar is a crp-mode feature")
    if bar_beta is not None and not bar_beta > 0:
        raise ValueError("bar_beta must be positive when present")


_NODE_STATISTICS = ("descendants", "root_descendants", "outdegree")


def _watched(statistic: tuple, p: int, N: int, mode: str):
    """Index of the node or root a node statistic watches; raises ValueError
    when the forest never has it by step N (roots number from 0 in crp mode)."""
    kind = statistic[0]
    if kind not in _NODE_STATISTICS:
        return None
    index = statistic[1]
    if kind == "root_descendants":
        name, first, last = "root", 0 if mode == "crp" else 1, N // p
    else:
        name, first, last = "node", 1, N
    if not first <= index <= last:
        raise ValueError(f"{name} {index} never appears by N = {N}")
    return index


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
    _check_period(p)
    _check_bar(mode, bar_beta)
    kind = statistic[0]
    if mode == "crp" and kind == "table_count":
        if family.name != "gport":
            raise ValueError("crp mode uses the gport family")
        a = 1 / (1 + family.alpha)
        bar = None if bar_beta is None else _num(bar_beta) * a
        return table_count_pmf(CrpParams(a, family.ell * a, p, bar), N)
    if mode != "standard" or kind not in _NODE_STATISTICS:
        raise ValueError(f"no exact law for {statistic!r} in {mode} mode (standard mode: "
                         "node statistics; crp mode: the table count)")
    arg = _watched(statistic, p, N, mode)
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

def _room_dtype(family: TreeFamily):
    """The d-ary room's dtype.  Room is a whole number up to max(d, ell)
    (integer ell on capacity roots) or inf (trimmed roots), and a kept draw
    needs room > s >= 0, so it never goes negative: below 2**24 float32 holds
    every value and every decrement exactly, and the test s < room widens it
    to float64 with the same outcome."""
    return np.float32 if max(family.d, float(family.ell)) < 2**24 else np.float64


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
    the root-0 branches of size m, column 0 those beyond max_size.  A watched
    node or root that never appears by step N raises ValueError; in crp mode
    with a bar, node j is missing where customer j sat at the bar, and its
    statistic there is 0.

    The weight classes lie end to end on [0, total): the roots (ell each),
    the edges (1 each, gport only: an edge stands for the unit of outdegree
    it gives its parent), the nodes (alpha for gport, 1 for recursive, an
    envelope of d for d-ary) and the bar (beta + sigma per visit).  u*total
    picks the class, and the remainder divided by the class's unit weight the
    entity inside it.  Nodes count in creation order; edge e stands for node
    e + 1 in standard mode (node 1 has no parent) and for node e in crp mode.
    A d-ary replicate keeps its draw when the remainder inside the envelope
    slot is below the entity's weight (d - outdegree, ell - outdegree for a
    capacity root), and otherwise redraws; trimmed roots always keep it.
    Each replicate keeps per node a membership bit (descendants), an
    is-a-child-of-j bit (outdegree) or a branch id (branch profile), and the
    room left below each d-ary node and capacity root.  The table count needs
    only itself: it is also the number of edges from a root, which come first
    in their class.
    """
    _check_bar(mode, bar_beta)
    if mode not in ("standard", "crp"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "crp" and family.name != "gport":
        raise ValueError("crp mode uses the gport family")
    _check_period(p)
    _check_sizes(N, n_reps)
    kind = statistic[0]
    if kind not in _NODE_STATISTICS + ("table_count",) and (kind, mode) != ("branch_profile", "crp"):
        raise ValueError(f"unknown statistic {statistic!r}")
    watch = _watched(statistic, p, N, mode)

    crp, bar = mode == "crp", bar_beta is not None
    gport, dary = family.name == "gport", family.name == "dary"
    ell, sigma = float(family.ell), float(family.sigma)
    unit = float(family.alpha if gport else family.d if dary else 1)  # node weight or envelope
    off = 0 if crp else 1  # edge e stands for node e + off
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    idx = np.arange(n_reps)
    counter = np.zeros(n_reps)  # whole numbers; a float compares with positions directly
    x, y, z = np.empty(n_reps), np.empty(n_reps), np.empty(n_reps)
    row, at = np.empty(n_reps, dtype=np.intp), np.empty(n_reps, dtype=np.intp)
    past_roots, past_edges = np.empty(n_reps, dtype=bool), np.empty(n_reps, dtype=bool)
    at_node, at_edge = np.empty(n_reps, dtype=bool), np.empty(n_reps, dtype=bool)
    # per node, by creation order: membership or child-of-j bit, or branch id
    flag = (np.full((N, n_reps), -1, dtype=np.int32) if kind == "branch_profile"
            else np.zeros((0 if kind == "table_count" else N, n_reps), dtype=bool))
    flat = flag.reshape(-1)
    if dary:  # the weight left to each node (rows 0..N-1) and root (rows N + r)
        room = np.zeros((N + N // p + 1, n_reps), dtype=_room_dtype(family))
        room_flat, drawn = room.reshape(-1), np.empty(n_reps, dtype=np.intp)
        # a trimmed root never fills; a row not yet born has no room
        root_room = float(family.ell) if family.root_is_capacity else np.inf
    # creation index of the watched node, -1 until it is born, or of the root
    node_at = watch - 1 if kind in ("descendants", "outdegree") else -1
    if bar and node_at >= 0:
        node_at = np.full(n_reps, -1)
    root_at = watch - off if kind == "root_descendants" else -1
    n = np.zeros(n_reps, dtype=np.int64) if bar else 0  # nodes born
    R = int(crp)  # roots present

    def classify(c1, c2, c3):
        """Class masks of the positions in x, and in `row` the node each one
        names: the node itself in the node class, an edge's child in the
        edge class, clipped into range elsewhere; `at` is its flat index."""
        np.greater_equal(x, c1, out=past_roots)
        np.greater_equal(x, c2, out=past_edges)
        np.bitwise_xor(past_roots, past_edges, out=at_edge)
        np.copyto(at_node, past_edges)
        if bar:
            np.logical_and(at_node, x < c3, out=at_node)
        np.subtract(x, c2, out=y)
        np.divide(y, unit, out=y)
        if gport:  # blend in the edge class's row, x - c1 + off
            np.subtract(x, c1 - off, out=z)
            np.subtract(y, z, out=y)
            np.multiply(y, at_node, out=y)
            np.add(y, z, out=y)
        np.clip(y, 0, np.maximum(n - 1, 0), out=y)
        np.copyto(row, y, casting="unsafe")
        np.multiply(row, n_reps, out=at)
        np.add(at, idx, out=at)

    def kept(pos, c1, reps, e):
        """d-ary envelope test at positions pos for replicates reps: writes
        the room row drawn into e (node k, or N + root r) and returns whether
        the position lies inside the entity's weight.  Rounding past the last
        node or root lands on a row with no room, so it is redrawn."""
        m = len(pos)
        roots, s, w = past_roots[:m], y[:m], z[:m]  # classify's buffers, refilled after
        np.less(pos, c1, out=roots)
        np.subtract(pos, c1, out=s)  # node slots of width d from c1 on
        np.divide(s, unit, out=s)
        np.divide(pos, ell, out=w)  # root slots of width ell, moved to N + r
        np.add(w, N, out=w)
        np.subtract(w, s, out=w)
        np.multiply(w, roots, out=w)
        np.add(s, w, out=s)
        np.copyto(e, s, casting="unsafe")
        np.subtract(s, e, out=s)  # the position inside the slot, in weight units
        np.multiply(roots, ell - unit, out=w)
        np.add(w, unit, out=w)
        np.multiply(s, w, out=s)
        return s < room_flat[e * n_reps + reps]

    for i in range(1, N + 1):
        new, created = n, True  # the creation index of the node this step may create
        if i == 1 and not crp:  # node 1 needs no draw
            if kind == "descendants" and watch == 1:
                flag[0] = True
                counter += 1
            if dary:
                room[0] = family.d
        else:
            c1 = ell * R
            c2 = c1 + n - off if gport else c1
            c3 = c2 + unit * n
            total = c1 + float(bar_beta) + sigma * (i - 1) if bar else c3
            rng.random(out=x)
            x *= total
            if kind == "table_count" and not dary:
                x -= c1  # below the roots or the edges from a root
                counter += x < (counter if gport else 0)
                if bar:
                    created = x < c3 - c1
            else:
                if dary:
                    redo = np.flatnonzero(~kept(x, c1, idx, drawn))
                    while redo.size:
                        xr, e = rng.random(redo.size) * total, np.empty(redo.size, dtype=np.intp)
                        ok = kept(xr, c1, redo, e)
                        x[redo], drawn[redo] = xr, e
                        redo = redo[~ok]
                    room_flat[drawn * n_reps + idx] -= 1
                classify(c1, c2, c3)
                if bar:
                    created = x < c3
                birth = (new, idx) if bar else new
                if kind == "branch_profile":
                    parent = flat[at]
                    head = np.where(x < ell, new, -1)  # root 0 is the first root
                    branch = np.where(past_roots,
                                      np.where(at_edge & (parent == row), new, parent), head)
                    flag[birth] = np.where(created, branch, -1)
                elif kind == "table_count":  # d-ary: a kept root
                    counter += ~past_roots
                else:
                    if kind == "outdegree":
                        hit = at_node & (row == node_at)
                        hit |= at_edge & flat[at]
                    elif kind == "descendants" and i == watch:
                        hit = np.broadcast_to(created, (n_reps,))
                    else:  # membership passes down, except from node j's parent
                        hit = flat[at] & past_roots & (at_node | (row != node_at))
                        if bar:
                            hit &= created
                        if 0 <= root_at < R:
                            hit |= (x >= ell * root_at) & (x < ell * (root_at + 1))
                    flag[birth] = hit
                    counter += hit
                if dary:  # a trimmed root's child starts one short
                    room[new] = family.d - (0 if family.root_is_capacity else ~past_roots)
        if bar:
            if i == watch and kind != "root_descendants":
                node_at = np.where(created, new, -1)
            n = n + created
        else:
            n = i
        if i % p == 0:
            if dary:
                room[N + R] = root_room
            R += 1
    if kind == "branch_profile":
        return _size_profile(flag, statistic[1])
    return counter.astype(np.int64)


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
