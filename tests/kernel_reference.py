"""Earlier Monte Carlo kernels and exact laws built another way, kept as oracles.

The word kernel here is the row-major copy of the package kernel: fresh
arrays every step, one row per replicate, and one Python `block_count` call
per word; the tests assert that both return the same arrays for the same
seeds.  `enumerate_histories` is the recursive history enumeration that
`polyaurn.urns.enumerate_histories` runs as integer-weight arrays: one step
by its own `apply_draw` (the step rule spelled out by `ell_at` and
`immigration_at` here, with Thue-Morse by bit parity, not read from the
package) and one Fraction (or float) product per history node; the tests
assert that both return the same `Pmf`, Fraction for Fraction and bit for
bit.  `collapse_joint_pmf` is the multicolour joint law by the collapse
that `polyaurn.urns.simulate_counts_batch` samples: the exact DP law of the
non-refreshed colours' sum times the Dirichlet-multinomial split of its
draws, in Fractions; the tests assert that it equals the enumeration.

The other kernels agree with the package in law, not in values, and the
tests compare both with exact laws.  The two-colour kernel here draws one
uniform per step and replicate (white iff u*T <= W); the package kernel skips
from white draw to white draw.  The multicolour kernel here draws every step
for every replicate by one `np.cumsum(..., axis=1)` over the colours; the
package kernel runs the two-colour kernel on the non-refreshed sum and
splits its draws.  The seating kernel here draws one uniform per customer
and replicate and tracks the bar count b; the package kernel moves the
vector of table-count occupancies by binomial splits.  The forest kernel
here keeps one weight slot per entity the forest may create and draws by a
running sum over the slots; the package kernel draws a weight class and an
entity inside it.  `tv_floor` is the noise floor that the TV checks print
next to each TV, and `tv_null_quantile` the bound they hold the TV to.
`historical_block_count_urn` is the block-count urn as once stated, which
the strict xfail of criterion 10 and `test_stirling` show to be wrong.

The exact layer keeps its earlier code here as oracles, from before it moved
to integer and vector arithmetic; the tests assert that both return the same
values, Fraction for Fraction and bit for bit.  `per_step_schedule` resolves
each of steps 1..N by this file's `ell_at` and `immigration_at` (one
Fraction each), with no cycle, and takes the lcm over all of them.  `binomial_moments`
inverts the rising moments with Fraction sums over `lah_number` and
`falling_factorial`, which live here since no package code needs them (the
package interpolates the moment polynomial instead, so this route is an
independent derivation); `pmf_via_moments` reads from it and drops atoms
of probability 0 as the package does.
`exact_pmf_dp_float` is the float DP that allocates a fresh row every step,
and `exact_pmf_dp_slices` the one that slices its three rows to the support
every step and sets the two end cells one by one, as the package did before
it ran chunks of steps on full-length rows.

One line differs from the old kernels on purpose: when the float cumulative
sum falls short of u*total, they took the last colour or slot (M - 1), which
can have weight 0; `_clamp` takes the last one with positive weight.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from polyaurn.moments import product_ratio
from polyaurn.specialfn import rising_factorial
from polyaurn.stirling import _check_params, block_count
from polyaurn.trees import forest_total_weight, gport_family
from polyaurn.urns import (_ENUM_GUARD, Pmf, Schedule, UrnSpec, exact_pmf_dp, schedule,
                           triangular)


def thue_morse_index(n: int) -> int:
    """b_n = t_n + 1 in {1, 2}, with t_n the parity of the binary digits of n
    (the Thue-Morse sequence)."""
    return (bin(n).count("1") & 1) + 1


def ell_at(spec: UrnSpec, i: int):
    """Addition to the last colour at step i (1-based): phase_ells[(i - 1) %
    period], or ells[b_i - 1] for a Thue-Morse spec."""
    if spec.sequence_name is not None:
        assert spec.sequence_name == "thue_morse"
        return spec.ells[thue_morse_index(i) - 1]
    return spec.phase_ells[(i - 1) % spec.period]


def immigration_at(spec: UrnSpec, i: int):
    """Addition to colour 0 at step i (1-based)."""
    if spec.white_immigration is None:
        return 0
    return spec.white_immigration[(i - 1) % spec.period]


def apply_draw(spec: UrnSpec, counts, i: int, color: int) -> tuple:
    """Counts after step i given that `color` was drawn, each term spelled out
    so that the oracle shares no step rule with the package."""
    counts = list(counts)
    counts[color] = counts[color] + spec.sigma
    counts[-1] = counts[-1] + ell_at(spec, i)
    counts[0] = counts[0] + immigration_at(spec, i)
    return tuple(counts)


def enumerate_histories(spec: UrnSpec, N: int) -> Pmf:
    """Joint law of the count vector after N steps by brute-force enumeration
    of all color sequences.  Exact when the spec is; the cost guard rejects
    colors**N above _ENUM_GUARD."""
    if spec.colors**N > _ENUM_GUARD:
        raise ValueError(f"enumeration of {spec.colors}**{N} histories exceeds guard {_ENUM_GUARD}")
    exact = spec.is_exact
    one = Fraction(1) if exact else 1.0
    acc: dict[tuple, object] = {}

    def recurse(i: int, counts: tuple, prob):
        if i > N:
            acc[counts] = acc.get(counts, one * 0) + prob
            return
        total = sum(counts)
        for color in range(spec.colors):
            w = counts[color]
            if w == 0:
                continue
            p = (w / total) if exact else float(w) / float(total)
            recurse(i + 1, apply_draw(spec, counts, i, color), prob * p)

    recurse(1, tuple(spec.initial), one)
    support = sorted(acc)
    pmf = Pmf(tuple(support), tuple(acc[s] for s in support))
    pmf.check_total(tol=1e-9)
    return pmf


def _compositions(n: int, parts: int):
    """Every tuple of `parts` non-negative integers that sums to n."""
    if parts == 1:
        yield (n,)
        return
    for c in range(n + 1):
        for rest in _compositions(n - c, parts - 1):
            yield (c, *rest)


def collapse_joint_pmf(spec: UrnSpec, N: int) -> Pmf:
    """Joint law of the count vector after N steps of an exact spec without
    immigration, in Fractions: the sum S of the non-refreshed colours is the
    white side of a two-colour urn, whose exact DP law gives the number n of
    draws into S, and those n draws split over the colours that start
    positive as Dirichlet-multinomial(n; a), a_k = initial_k/sigma:
    n!/prod c_k! * prod rising(a_k, c_k) / rising(sum a, n).  The last
    colour holds T_N minus the others."""
    sigma = Fraction(spec.sigma)
    initial = [Fraction(c) for c in spec.initial]
    summed = replace(spec, initial=(sum(initial[:-1]), initial[-1]))
    total = schedule(spec, N).total(N)
    live = [k for k, c in enumerate(initial[:-1]) if c > 0]
    a = [initial[k] / sigma for k in live]

    def rising(x):  # [rising(x, c) for c = 0..N]
        out = [Fraction(1)]
        for j in range(N):
            out.append(out[-1] * (x + j))
        return out

    # rising(a_k, c)/c! for each colour and c, and n!/rising(sum a, n)
    per_colour = [[r / math.factorial(c) for c, r in enumerate(rising(x))] for x in a]
    whole = [math.factorial(n) / r for n, r in enumerate(rising(sum(a)))]
    acc = {}
    for s, q in exact_pmf_dp(summed, N, "exact").as_dict().items():
        n = (s - summed.initial[0]) / sigma
        assert n.denominator == 1
        n = int(n)
        for c in _compositions(n, len(live)):
            counts = initial[:-1]
            for k, ck in zip(live, c):
                counts[k] += sigma * ck
            split = math.prod((f[ck] for f, ck in zip(per_colour, c)), start=whole[n])
            acc[(*counts, total - sum(counts))] = q * split
    support = sorted(acc)
    return Pmf(tuple(support), tuple(acc[x] for x in support))


def per_step_schedule(spec: UrnSpec, N: int) -> Schedule:
    """Chain of colour 0 in `spec` for steps 1..N, each step resolved on its
    own by ell_at and immigration_at.  The denominator also covers the steps
    up to the period, which a chain shorter than one period does not reach."""
    if N < 0:
        raise ValueError("N must be >= 0")
    base, w0 = Fraction(spec.sigma), Fraction(spec.initial[0])
    steps = range(1, max(N, spec.period) + 1)
    ells = [Fraction(ell_at(spec, i)) for i in steps]
    imms = [Fraction(immigration_at(spec, i)) for i in steps]
    t0 = Fraction(spec.total_initial)
    values = [t0, base, *map(Fraction, spec.initial), *ells, *imms]
    d = math.lcm(*(v.denominator for v in values))
    d_ells = [int(v * d) for v in ells]
    d_imms = [int(v * d) for v in imms]
    d_adds = [int(base * d) + e + m for e, m in zip(d_ells, d_imms)]
    big = max(abs(v) for v in (d, int(t0 * d), *d_ells, *d_imms, *d_adds))
    dtype = np.int64 if big * (N + 1) < 2**53 else object
    totals = np.empty(N + 1, dtype=dtype)
    totals[0] = int(t0 * d)
    for i in range(1, N + 1):
        totals[i] = totals[i - 1] + d_adds[i - 1]
    return Schedule(d, spec.is_exact, int(w0 * d), int(base * d), totals,
                    np.array(d_ells[:N], dtype=dtype), np.array(d_imms[:N], dtype=dtype))


def falling_factorial(x, s: int):
    """x^(s) falling = x (x-1) ... (x-s+1); s=0 gives 1."""
    if s < 0 or s != int(s):
        raise ValueError(f"falling_factorial order must be a non-negative integer, got {s}")
    result = x * 0 + 1
    for k in range(int(s)):
        result = result * (x - k)
    return result


def lah_number(s: int, r: int) -> int:
    """Lah number L(s,r) = C(s,r) * (s-1)!/(r-1)! for 1 <= r <= s.

    Boundary convention: L(0,0) = 1 and L(s,0) = 0 for s >= 1, which is the
    convention under which the recurrence
        L(s+1,r) = L(s,r-1) + (s+r) L(s,r)
    closes; see test_specialfn.
    """
    if s < 0 or r < 0:
        raise ValueError(f"lah_number requires s, r >= 0, got ({s}, {r})")
    if r > s:
        raise ValueError(f"lah_number requires r <= s, got ({s}, {r})")
    if r == 0:
        return 1 if s == 0 else 0
    return math.comb(s, r) * math.factorial(s - 1) // math.factorial(r - 1)


def binomial_moments(spec: UrnSpec, N: int) -> list[Fraction]:
    """B_s = E[binom(K, s)], s = 0..N, by Fraction sums: rising moments to
    falling moments by signed Lah numbers, then the Vandermonde shift by
    c = w0/sigma."""
    c = spec.initial[0] / spec.sigma
    R = [rising_factorial(c, m) * product_ratio(spec, N, m, "exact") for m in range(N + 1)]
    F = [sum((-1) ** (j - m) * lah_number(j, m) * R[m] for m in range(j + 1))
         for j in range(N + 1)]
    falling = [falling_factorial(-c, m) for m in range(N + 1)]
    return [sum(math.comb(s, j) * falling[s - j] * F[j] for j in range(s + 1)) / math.factorial(s)
            for s in range(N + 1)]


def pmf_via_moments(spec: UrnSpec, B: list) -> Pmf:
    """Law of W_N by inclusion-exclusion on the binomial moments B (N + 1 of
    them), without the atoms of probability 0."""
    N = len(B) - 1
    probs = [sum((-1) ** (s - k) * math.comb(s, k) * B[s] for s in range(k, N + 1))
             for k in range(N + 1)]
    kept = [(spec.initial[0] + k * spec.sigma, q) for k, q in enumerate(probs) if q != 0]
    return Pmf(tuple(w for w, _ in kept), tuple(q for _, q in kept))


def exact_pmf_dp_float(spec: UrnSpec, N: int) -> Pmf:
    """The float DP over the color-0 draw count, one fresh row per step;
    draw probabilities are ratios of counts over the schedule's denominator."""
    sched = schedule(spec, N)
    imm_d = np.concatenate(([0], np.cumsum(sched.imm)))
    imm = sched.real(imm_d).tolist()
    w0, sigma, d = Fraction(spec.initial[0]), Fraction(spec.sigma), sched.d
    draws = np.arange(N + 1) * float(sigma)
    draws_d = np.arange(N + 1) * float(sigma * d)
    probs = np.ones(1)
    for i in range(N):
        white_d = float(w0 * d) + draws_d[: i + 1] + float(imm_d[i])
        up = white_d / float(sched.totals[i])
        stay = 1 - up
        nxt = np.zeros(i + 2)
        nxt[1:] = probs * up
        nxt[:-1] += probs * stay
        probs = nxt
    kept = [(w, q) for w, q in zip((float(w0) + draws + imm[N]).tolist(), probs.tolist())
            if q != 0]
    return Pmf(tuple(w for w, _ in kept), tuple(q for _, q in kept))


def exact_pmf_dp_slices(spec: UrnSpec, N: int) -> Pmf:
    """The float DP over the color-0 draw count on three rows sliced to the
    support each step: the update in place, then the end cells set apart."""
    sched = schedule(spec, N)
    imm = np.concatenate(([0], np.cumsum(sched.imm)))
    w0, gain = (int(Fraction(v) * sched.d) for v in (spec.initial[0], spec.sigma))
    support = (float(spec.initial[0]) + np.arange(N + 1) * float(spec.sigma)
               + sched.real(imm[N])).tolist()
    totals = np.asarray(sched.totals, dtype=float).tolist()
    imm = np.asarray(imm, dtype=float).tolist()
    white = float(w0) + np.arange(N + 1) * float(gain)
    probs, up, stay = np.zeros(N + 1), np.empty(N + 1), np.empty(N + 1)
    probs[0] = 1.0
    for i in range(N):
        p, u, s = probs[: i + 1], up[: i + 1], stay[: i + 1]
        np.divide(np.add(white[: i + 1], imm[i], out=u) if imm[i] else white[: i + 1],
                  totals[i], out=u)
        np.subtract(1, u, out=s)
        np.multiply(p, u, out=u)
        np.multiply(p, s, out=s)
        probs[i + 1] = u[i]
        np.add(u[:i], s[1:], out=probs[1 : i + 1])
        probs[0] = s[0]
    kept = [(w, q) for w, q in zip(support, probs.tolist()) if q != 0]
    return Pmf(tuple(w for w, _ in kept), tuple(q for _, q in kept))


def _clamp(target: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows whose cumulative sum stayed below x get their last positive slot."""
    M = weights.shape[1]
    short = target == M
    if short.any():
        target[short] = M - 1 - np.argmax(weights[short][:, ::-1] > 0, axis=1)
    return target


def simulate_white_batch(spec, checkpoints, n_reps, seed):
    checkpoints = sorted(set(int(c) for c in checkpoints))
    N = checkpoints[-1]
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    sigma = float(spec.sigma)
    W = np.full(n_reps, float(spec.initial[0]))
    sched = schedule(spec, N)
    totals, imms = (sched.real(v).tolist() for v in (sched.totals, sched.imm))
    out = []
    if checkpoints and checkpoints[0] == 0:
        out.append(W.copy())
        checkpoints = checkpoints[1:]
    pending = list(checkpoints)
    for i in range(1, N + 1):
        u = rng.random(n_reps)
        W += sigma * (u * totals[i - 1] <= W)
        if imms[i - 1]:
            W += imms[i - 1]
        if pending and i == pending[0]:
            out.append(W.copy())
            pending.pop(0)
    return out


def tv_floor(law: dict, n: float) -> float:
    """Expected TV distance between the exact law and an n-sample empirical
    law drawn from it (normal approximation to E|p_hat - p| per atom)."""
    return 0.5 * sum(math.sqrt(2 * float(q) * (1 - float(q)) / (math.pi * n))
                     for q in law.values())


def tv_null_quantile(law: dict, n: int, q: float = 0.999, draws: int = 20_000) -> float:
    """The q-quantile of the TV distance between the exact law and an
    n-sample drawn from it, over `draws` multinomial samples (fixed seed).
    A law with few likely values spreads its TV far above the floor.  The
    samples are drawn about 2**20 counts at a time, which gives the same
    samples as one call."""
    probs = np.array([float(v) for v in law.values()])
    rng, rows = np.random.default_rng(0), max(1, 2**20 // probs.size)
    tv = [0.5 * np.abs(rng.multinomial(n, probs / probs.sum(), size=min(rows, draws - i)) / n
                       - probs).sum(axis=1) for i in range(0, draws, rows)]
    return float(np.quantile(np.concatenate(tv), q))


def simulate_table_count_batch(params, N, n_reps, seed):
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    a = float(params.a)
    theta = float(params.theta)
    theta_bar = 0.0 if params.theta_bar is None else float(params.theta_bar)
    has_bar = params.theta_bar is not None
    m = np.zeros(n_reps)
    b = np.zeros(n_reps)
    for N_cur in range(N):
        n = N_cur // params.period
        c = N_cur + (n + 1) * theta + theta_bar
        x = rng.random(n_reps) * c
        fresh = m * a + (n + 1) * theta
        if has_bar:
            at_bar = x < b + theta_bar
            at_new = ~at_bar & (x < b + theta_bar + fresh)
            b += at_bar
        else:
            at_new = x < fresh
        m += at_new
    return m.astype(np.int64)


def simulate_counts_batch(spec, N, n_reps, seed):
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    counts = np.tile([float(c) for c in spec.initial], (n_reps, 1))
    sigma = float(spec.sigma)
    sched = schedule(spec, N)
    totals, ells, imms = (sched.real(v).tolist() for v in (sched.totals, sched.ells, sched.imm))
    idx = np.arange(n_reps)
    for i in range(1, N + 1):
        u = rng.random(n_reps)
        x = (u * totals[i - 1])[:, None]
        cum = np.cumsum(counts, axis=1)
        color = _clamp((cum < x).sum(axis=1), counts)
        counts[idx, color] += sigma
        if ells[i - 1]:
            counts[:, -1] += ells[i - 1]
        if imms[i - 1]:
            counts[:, 0] += imms[i - 1]
    return counts


def _slot_schedule(p, N, mode, bar):
    """Entity labels in creation order: one slot per entity the forest may
    create by step N, whether or not a replicate creates it."""
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


def simulate_statistic_batch(family, p, N, n_reps, seed, statistic, mode="standard",
                             bar_beta=None):
    kind = statistic[0]
    labels = _slot_schedule(p, N, mode, bar_beta is not None)
    slot_of = {lab: i for i, lab in enumerate(labels)}
    M = len(labels)
    is_root_slot = np.array([lab[0] == "root" for lab in labels])
    bar_slot = slot_of.get(("bar",), -1)

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    weights = np.zeros((n_reps, M))
    if bar_beta is not None:
        weights[:, bar_slot] = float(bar_beta)
    if mode == "crp":
        weights[:, slot_of[("root", 0)]] = float(family.ell)

    sigma = float(family.sigma)
    ell = float(family.ell)
    w_new = float(family.new_node_weight)
    trimmed = family.name == "dary" and not family.root_is_capacity
    # a parent gains 1 per child (gport), keeps its weight (recursive, and a
    # trimmed d-ary root) or loses 1 (d-ary)
    delta_ord = {"recursive": 0.0, "gport": 1.0, "dary": -1.0}[family.name]
    delta_root = 0.0 if trimmed else delta_ord

    counter = np.zeros(n_reps, dtype=np.int64)
    member = None
    watch_slot = -1
    if kind == "descendants":
        member = np.zeros((n_reps, M), dtype=bool)
        watch_slot = slot_of[("node", statistic[1])]
    elif kind == "root_descendants":
        member = np.zeros((n_reps, M), dtype=bool)
        watch_slot = slot_of[("root", statistic[1])]
        member[:, watch_slot] = True
    elif kind == "outdegree":
        watch_slot = slot_of[("node", statistic[1])]
    elif kind != "table_count":
        raise ValueError(f"unknown statistic {statistic!r}")

    idx = np.arange(n_reps)
    if mode == "crp":
        total = float(forest_total_weight(family, p, 0, mode, bar_beta))
    else:
        total = float(family.kappa)
    for i in range(1, N + 1):
        node_slot = slot_of[("node", i)]
        if mode == "standard" and i == 1:
            weights[:, node_slot] = w_new
            if kind == "descendants" and watch_slot == node_slot:
                member[:, node_slot] = True
                counter += 1
        else:
            x = (rng.random(n_reps) * total)[:, None]
            target = _clamp((np.cumsum(weights, axis=1) < x).sum(axis=1), weights)
            at_bar = target == bar_slot if bar_slot >= 0 else np.zeros(n_reps, dtype=bool)
            root_target = is_root_slot[target]
            delta = np.where(root_target, delta_root, delta_ord)
            delta = np.where(at_bar, sigma, delta)
            weights[idx, target] += delta
            created = ~at_bar
            child_w = np.where(trimmed & root_target, w_new - 1.0, w_new)
            weights[idx, node_slot] = np.where(created, child_w, 0.0)
            if member is not None:
                inherits = member[idx, target] & created
                if kind == "descendants" and watch_slot == node_slot:
                    inherits = created.copy()
                member[idx, node_slot] = inherits
                counter += inherits
            elif kind == "outdegree":
                counter += target == watch_slot
            elif kind == "table_count":
                counter += root_target & created
        total += sigma
        if i % p == 0:
            weights[:, slot_of[("root", i // p)]] = ell
            total += ell
    return counter


def simulate_branch_profile_batch(alpha, p, ell, N, n_reps, seed, max_size):
    family = gport_family(alpha, ell)
    labels = _slot_schedule(p, N, "crp", False)
    slot_of = {lab: i for i, lab in enumerate(labels)}
    M = len(labels)
    root0 = slot_of[("root", 0)]

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    weights = np.zeros((n_reps, M))
    weights[:, root0] = float(ell)
    sigma = float(family.sigma)
    branch = np.full((n_reps, M), -1, dtype=np.int32)
    idx = np.arange(n_reps)
    total = float(ell)
    for i in range(1, N + 1):
        node_slot = slot_of[("node", i)]
        x = (rng.random(n_reps) * total)[:, None]
        target = _clamp((np.cumsum(weights, axis=1) < x).sum(axis=1), weights)
        weights[idx, target] += 1.0
        weights[idx, node_slot] = float(family.alpha)
        branch[idx, node_slot] = np.where(
            target == root0, node_slot, branch[idx, target]
        )
        total += sigma
        if i % p == 0:
            weights[:, slot_of[("root", i // p)]] = float(ell)
            total += float(ell)
    counts = np.zeros((n_reps, max_size + 1), dtype=np.int64)
    for r in range(n_reps):
        ids, sizes = np.unique(branch[r][branch[r] >= 0], return_counts=True)
        for s in sizes:
            counts[r, s if s <= max_size else 0] += 1
    return counts


def simulate_block_counts(d, p, t, N, n_reps, seed):
    _check_params(d, p, t)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    words = np.zeros((n_reps, 0), dtype=np.int32)
    rows = np.arange(n_reps)[:, None]
    for i in range(1, N + 1):
        L = words.shape[1]
        gap = rng.integers(0, L + 1, size=n_reps)[:, None]
        cols = np.arange(L + d)[None, :]
        src = np.where(cols < gap, cols, np.maximum(cols - d, 0))
        vals = words[rows, np.minimum(src, max(L - 1, 0))] if L else np.zeros(
            (n_reps, L + d), dtype=np.int32
        )
        words = np.where((cols >= gap) & (cols < gap + d), np.int32(i), vals)
        if i % p == 0:
            marks = np.full((n_reps, t), np.int32(-i))
            words = np.hstack([words, marks])
    return np.array([block_count(row) for row in words], dtype=np.int64)


def historical_block_count_urn(d: int, p: int, t: int) -> UrnSpec:
    """Block-count urn as once stated (thick refresh d-1+t to black, no
    deterministic white input).  Kept for comparison; it does not reproduce
    the word process, which `polyaurn.stirling.block_count_urn` does."""
    _check_params(d, p, t)
    return triangular(p, 1, d - 1, d - 1 + t, 2, d - 1, offset=(p - 1) % p)
