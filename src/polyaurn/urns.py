"""Urn engine: model specifications, exact dynamics, batch simulation,
enumeration.

The engine covers balanced affine urns whose replacement rule is "the drawn
color reinforces itself by sigma, and in addition a deterministic amount is
added to the last color at schedule-selected steps".  That shape includes the
two-color periodic models (diagonal phase with a triangular refresh step),
their phase-rotated variants needed for node-level laws in growth processes,
the multicolor variant (refresh feeds the last color), and sequence-driven
two-matrix urns (e.g. Thue-Morse).

Every step adds sigma to the drawn color and fixed non-negative amounts
elsewhere, so the totals are deterministic and no count goes negative; that
is what makes the exact DP over white-draw counts linear in state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "UrnSpec",
    "Pmf",
    "polya_young",
    "triangular",
    "multicolor_polya_young",
    "sequence_urn",
    "thue_morse_index",
    "totals_list",
    "Schedule",
    "schedule",
    "ell_at",
    "immigration_at",
    "apply_draw",
    "simulate_white_batch",
    "simulate_counts_batch",
    "exact_pmf_dp",
    "enumerate_histories",
    "spec_to_json",
    "spec_from_json",
]


def _num(x):
    """Numeric coercion: ints/strings become Fractions (exact); floats stay floats."""
    if isinstance(x, bool):
        raise TypeError("bool is not a valid model parameter")
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"unsupported numeric parameter {x!r}")


def _num_tuple(xs) -> tuple:
    return tuple(_num(x) for x in xs)


def _is_exact(x) -> bool:
    return isinstance(x, Fraction)


def _json_num(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    return x


def thue_morse_index(n: int) -> int:
    """Index b_n in {1,2} of the matrix applied at step n: b_n = t_n + 1 where
    t is the Thue-Morse sequence (t_0 = 0, t_{2n} = t_n, t_{2n+1} = 1 - t_n)."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    return (bin(n).count("1") & 1) + 1


def _thue_morse_prefix(n: int) -> np.ndarray:
    """[b_0, ..., b_{n-1}] of thue_morse_index, with t built by doubling: the
    next 2^k terms of t are 1 - (the first 2^k), since t_{n + 2^k} = 1 - t_n
    for n < 2^k."""
    t = np.zeros(1, dtype=np.intp)
    while t.size < n:
        t = np.concatenate((t, 1 - t))
    return t[:n] + 1


# sequence name -> (scalar b_n, vector [b_0, ..., b_{n-1}])
_SEQUENCES: dict[str, tuple[Callable[[int], int], Callable[[int], np.ndarray]]] = {
    "thue_morse": (thue_morse_index, _thue_morse_prefix),
}


@dataclass(frozen=True)
class UrnSpec:
    """Immutable urn model description.

    The drawn color gains sigma; the last color additionally gains ell_at(i)
    at step i; color 0 may receive a deterministic immigration amount per
    step (white_immigration, periodic).  kind is always "py_like".
    """

    kind: str
    family: str
    colors: int
    period: int
    initial: tuple
    sigma: object = None
    phase_ells: tuple | None = None  # ell applied at step i is phase_ells[(i-1) % period]
    sequence_name: str | None = None
    sequence_ells: tuple | None = None
    white_immigration: tuple | None = None  # per-phase additions to color 0
    ell: object | None = None  # canonical parameters for asymptotics
    ell1: object | None = None
    ell2: object | None = None
    offset: int = 0  # refresh applied at steps i = offset (mod period); 0 is the standard phase

    @property
    def is_exact(self) -> bool:
        vals = [*self.initial, self.sigma]
        for group in (self.phase_ells, self.sequence_ells, self.white_immigration):
            if group is not None:
                vals.extend(group)
        if self.ell is not None:
            vals.append(self.ell)
        return all(_is_exact(v) for v in vals)

    @property
    def total_initial(self):
        return sum(self.initial)

    def validate(self) -> None:
        if self.colors != len(self.initial):
            raise ValueError("initial counts length must equal number of colors")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.kind != "py_like":
            raise ValueError(f"unknown urn kind {self.kind!r}")
        if self.sigma is None or not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.initial[0] > 0:
            raise ValueError("color 0 must start positive")
        if any(c < 0 for c in self.initial):
            raise ValueError("initial counts must be non-negative")
        groups = self.phase_ells if self.phase_ells is not None else self.sequence_ells
        if groups is None or any(e < 0 for e in groups):
            raise ValueError("schedule additions must be non-negative")
        if any(v < 0 for v in self.white_immigration or ()):
            raise ValueError("immigration amounts must be non-negative")


def polya_young(p: int, sigma, ell, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic urn: diagonal steps plus an off-diagonal refresh of
    size ell into the black column at steps = offset (mod p)."""
    if p < 1:
        raise ValueError("period must be a positive integer")
    sigma, ell, w0, b0 = _num(sigma), _num(ell), _num(w0), _num(b0)
    phase = [sigma * 0] * p
    phase[(offset - 1) % p] = ell
    spec = UrnSpec(
        kind="py_like", family="polya_young", colors=2, period=p,
        initial=(w0, b0), sigma=sigma, phase_ells=tuple(phase),
        ell=ell, offset=offset % p,
    )
    spec.validate()
    return spec


def triangular(p: int, sigma, ell1, ell2, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic triangular urn: off-diagonal ell1 at ordinary steps,
    ell2 at steps = offset (mod p)."""
    if p < 1:
        raise ValueError("period must be a positive integer")
    sigma, ell1, ell2, w0, b0 = map(_num, (sigma, ell1, ell2, w0, b0))
    phase = [ell1] * p
    phase[(offset - 1) % p] = ell2
    spec = UrnSpec(
        kind="py_like", family="triangular", colors=2, period=p,
        initial=(w0, b0), sigma=sigma, phase_ells=tuple(phase),
        ell1=ell1, ell2=ell2, offset=offset % p,
    )
    spec.validate()
    return spec


def multicolor_polya_young(p: int, sigma, ell, initial) -> UrnSpec:
    """t-color periodic urn: drawn color gains sigma; the last color gains ell
    at steps that are multiples of p."""
    if p < 1:
        raise ValueError("period must be a positive integer")
    sigma, ell = _num(sigma), _num(ell)
    initial = _num_tuple(initial)
    phase = [sigma * 0] * p
    phase[p - 1] = ell
    spec = UrnSpec(
        kind="py_like", family="multicolor", colors=len(initial), period=p,
        initial=initial, sigma=sigma, phase_ells=tuple(phase), ell=ell,
    )
    spec.validate()
    return spec


def sequence_urn(sequence: str, sigma, ells, w0, b0) -> UrnSpec:
    """Two-color urn driven by a named {1,2}-valued sequence: step i applies
    the matrix with off-diagonal ells[b_i - 1]."""
    if sequence not in _SEQUENCES:
        raise ValueError(f"unknown sequence {sequence!r}; known: {sorted(_SEQUENCES)}")
    sigma, w0, b0 = _num(sigma), _num(w0), _num(b0)
    ells = _num_tuple(ells)
    if len(ells) != 2:
        raise ValueError("sequence urns take exactly two off-diagonal values")
    spec = UrnSpec(
        kind="py_like", family="sequence", colors=2, period=1,
        initial=(w0, b0), sigma=sigma, sequence_name=sequence, sequence_ells=ells,
    )
    spec.validate()
    return spec


def with_white_immigration(spec: UrnSpec, per_phase: Sequence) -> UrnSpec:
    """Attach deterministic per-phase additions to color 0 (applied at every
    step i with amount per_phase[(i-1) % period], after the draw)."""
    if spec.colors != 2:
        raise ValueError("white immigration is defined for two-color py_like specs")
    amounts = _num_tuple(per_phase)
    if len(amounts) != spec.period:
        raise ValueError("need one immigration amount per phase")
    spec = replace(spec, white_immigration=amounts, family="custom")
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# per-step schedule resolution and totals


def ell_at(spec: UrnSpec, i: int):
    """Off-diagonal addition applied at step i (1-based)."""
    if i < 1:
        raise ValueError("steps are 1-based")
    if spec.sequence_name is not None:
        return spec.sequence_ells[_SEQUENCES[spec.sequence_name][0](i) - 1]
    return spec.phase_ells[(i - 1) % spec.period]


def immigration_at(spec: UrnSpec, i: int):
    if spec.white_immigration is None:
        return 0
    return spec.white_immigration[(i - 1) % spec.period]


@dataclass(frozen=True)
class Schedule:
    """Deterministic step schedule up to step N, as integers over one common
    denominator d: totals[j] = d*T_j for j = 0..N; ells and imm hold
    d*ell_at(i) and d*immigration_at(i) over one cycle of steps i = 1, 2, ...,
    which repeats to cover steps 1..N.  The arrays are int64 while every
    value stays below 2**53 and hold Python ints beyond, so they never wrap."""

    d: int
    exact: bool
    totals: np.ndarray
    ells: np.ndarray
    imm: np.ndarray

    def real(self, values) -> np.ndarray:
        """values/d as float64, correctly rounded."""
        return np.asarray(values / self.d, dtype=float)

    def total(self, j: int):
        """T_j: a Fraction for exact specs, a float otherwise."""
        t = int(self.totals[j])
        return Fraction(t, self.d) if self.exact else t / self.d


def _per_step(row: np.ndarray, N: int) -> np.ndarray:
    """A one-cycle row repeated over steps 1..N."""
    return np.tile(row, -(-N // len(row)))[:N]


def schedule(spec: UrnSpec, N: int) -> Schedule:
    """Step schedule of `spec` for steps 1..N.

    A cycle of steps (the period, or all N steps for a sequence-driven spec)
    picks each step's (ell_at, immigration_at) from a short table: one row per
    phase, or one per sequence value.  The common denominator covers the rows
    the cycle uses.  The totals are the running sum of the per-step additions,
    which by balance do not depend on the drawn color."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if spec.sequence_name is not None:
        kind = _SEQUENCES[spec.sequence_name][1](max(N, 1) + 1)[1:] - 1
        rows = [(e, immigration_at(spec, 1)) for e in spec.sequence_ells]
    else:
        kind = np.arange(spec.period)
        rows = [(ell_at(spec, i), immigration_at(spec, i)) for i in range(1, spec.period + 1)]
    used = np.bincount(kind, minlength=len(rows)) > 0  # drop the rows no step reads
    rows = [tuple(map(Fraction, row)) for row, u in zip(rows, used) if u]
    kind = (np.cumsum(used) - 1)[kind]
    base = Fraction(spec.sigma)
    t0 = Fraction(spec.total_initial)
    values = [t0, base, *map(Fraction, spec.initial), *(v for row in rows for v in row)]
    d = math.lcm(*(v.denominator for v in values))
    d_rows = [(int(e * d), int(m * d), int((base + e + m) * d)) for e, m in rows]
    big = max(abs(v) for v in (d, int(t0 * d), *(v for row in d_rows for v in row)))
    dtype = np.int64 if big * (N + 1) < 2**53 else object
    # ell, immigration and total addition of each step of the cycle
    ells, imms, adds = (np.array(col, dtype=dtype)[kind] for col in zip(*d_rows))
    totals = np.empty(N + 1, dtype=dtype)
    totals[0] = int(t0 * d)
    totals[1:] = _per_step(adds, N)
    np.cumsum(totals, out=totals)
    return Schedule(d, spec.is_exact, totals, ells, imms)


def _product(values) -> int:
    """Product of integers (1 for none), multiplied pairwise up a balanced
    tree so that each product joins operands of similar size, which CPython
    multiplies by Karatsuba rather than one short factor at a time
    (Bernstein, "Fast multiplication and its applications", 2008).  The
    package's one product over schedule totals."""
    xs = list(values)
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0] if xs else 1


def totals_list(spec: UrnSpec, N: int) -> list:
    """[T_0, T_1, ..., T_{N-1}]: the totals seen by steps 1..N."""
    sched = schedule(spec, N)
    return [sched.total(j) for j in range(N)]


# ---------------------------------------------------------------------------
# draws and batch simulation


def _cumulative_draw(n_reps: int):
    """Colour draw for batches of n_reps replicates held column by column:
    draw(cols, K, x) gives, for each column r of cols, the first of the rows
    0..K-1 (colours) whose running sum reaches x[r] = u*total, so a tie with
    a partial sum resolves to the lower row.  The sum runs left to right by
    in-place row additions in float64.  x = 0 skips leading zero rows, and a
    prefix that rounding leaves short of x falls back to its last positive
    row.  x is raised to the least positive float in place, and the
    result is a buffer that the next draw overwrites."""
    acc, hit, target = np.empty(n_reps), np.empty(n_reps, bool), np.empty(n_reps, np.int32)

    def draw(cols: np.ndarray, K: int, x: np.ndarray) -> np.ndarray:
        np.maximum(x, np.nextafter(0.0, 1.0), out=x)
        acc[:], target[:] = 0.0, 0
        for k in range(K):  # in place: acc and target belong to the closure
            np.add(acc, cols[k], out=acc)
            np.less(acc, x, out=hit)
            np.add(target, hit, out=target)
        if np.equal(target, K, out=hit).any():
            short = np.flatnonzero(hit)
            target[short] = K - 1 - np.argmax(cols[K - 1::-1, short] > 0, axis=0)
        return target

    return draw


def _step_terms(spec: UrnSpec, i: int) -> list:
    """The additions of step i in apply_draw's order, each a vector per drawn
    colour (term[color]) with int 0 where the step adds nothing: sigma to the
    drawn colour, ell_at(i) to the last and immigration_at(i) to colour 0."""
    K = spec.colors
    def at(k: int, value) -> list:
        return [[value if c == k else 0 for c in range(K)]] * K
    sigma = [[spec.sigma if c == k else 0 for c in range(K)] for k in range(K)]
    return [sigma, at(K - 1, ell_at(spec, i)), at(0, immigration_at(spec, i))]


def apply_draw(spec: UrnSpec, counts: Sequence, i: int, color: int) -> tuple:
    """Counts after step i given that `color` was drawn."""
    for term in _step_terms(spec, i):
        counts = [c + a for c, a in zip(counts, term[color])]
    return tuple(counts)


def _check_sizes(N: int, n_reps: int) -> None:
    """The size checks every batch kernel makes before it draws."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")


def _checkpoint_list(checkpoints) -> list[int]:
    """Sorted distinct checkpoint steps; raises on an empty or negative list."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 0:
        raise ValueError("checkpoints must be non-empty and >= 0")
    return checkpoints


def simulate_white_batch(
    spec: UrnSpec, checkpoints: Sequence[int], n_reps: int, seed: int
) -> list[np.ndarray]:
    """Vectorized two-color simulation of n_reps independent trajectories.

    Returns the array of white counts at each checkpoint time (ascending).
    Step j draws white with probability W/T_{j-1}.  W is fixed between white
    draws and T grows, so each round thins a geometric skip: from step `pos`,
    rate q = W/T_pos proposes step j, white iff v*T_{j-1} <= T_pos, for one
    (u, v) pair per unfinished replicate.  No skip passes a barrier (a
    checkpoint or a step with white immigration), where the immigration is
    added and the checkpoint recorded.
    """
    if spec.colors != 2:
        raise ValueError("white-batch simulation needs a two-color py_like spec")
    checkpoints = _checkpoint_list(checkpoints)
    N = checkpoints[-1]
    _check_sizes(N, n_reps)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    sigma = float(spec.sigma)
    sched = schedule(spec, N)
    T, imm = sched.real(sched.totals), sched.real(_per_step(sched.imm, N))
    row = np.full(N + 1, -1)  # row of out recording each step, -1 for none
    row[checkpoints] = np.arange(len(checkpoints))
    bars = np.sort(np.append(np.flatnonzero(imm) + 1, [c for c in checkpoints if c] + [N + 1]))
    after = bars[np.searchsorted(bars, np.arange(N + 1), side="right")]  # first barrier > step
    out = np.empty((len(checkpoints), n_reps))
    W = out[0] = np.full(n_reps, float(spec.initial[0]))  # row 0 is step 0 or is overwritten
    live = np.arange(n_reps if N else 0)
    pos, b = np.zeros(live.size, dtype=np.int64), np.full(live.size, after[0])
    with np.errstate(divide="ignore", over="ignore"):  # q = 1: log1p(-1) = -inf, skip 0
        while live.size:
            u, v = rng.random((2, live.size))
            t_pos = T[pos]
            q = np.minimum(W / t_pos, 1.0)
            j = pos + 1 + np.floor(np.log1p(-u) / np.log1p(-q))
            white = j <= b
            pos = np.minimum(j, b).astype(np.int64)
            white &= v * T[pos - 1] <= t_pos
            W += white if sigma == 1.0 else sigma * white
            land = pos == b
            if land.any():
                W += land * imm[b - 1]
                rec = land & (row[b] >= 0)
                out[row[b[rec]], live[rec]] = W[rec]
                b[land] = after[b[land]]
                keep = b <= N
                if not keep.all():
                    live, W, pos, b = live[keep], W[keep], pos[keep], b[keep]
    return list(out)


def simulate_counts_batch(spec: UrnSpec, N: int, n_reps: int, seed: int) -> np.ndarray:
    """Vectorized multicolor simulation; returns counts array (n_reps, colors),
    grown colour by colour as shape (colors, n_reps)."""
    _check_sizes(N, n_reps)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    counts = np.repeat([[float(c)] for c in spec.initial], n_reps, axis=1)
    sigma = float(spec.sigma)
    sched = schedule(spec, N)
    totals, ells, imms = (sched.real(v).tolist() for v in
                          (sched.totals, _per_step(sched.ells, N), _per_step(sched.imm, N)))
    u, draw = np.empty(n_reps), _cumulative_draw(n_reps)
    colours, hit = np.arange(spec.colors, dtype=np.int32)[:, None], np.empty(counts.shape, bool)
    for i in range(1, N + 1):
        rng.random(out=u)
        u *= totals[i - 1]
        color = draw(counts, spec.colors, u)
        np.equal(color, colours, out=hit)
        counts += hit if sigma == 1.0 else sigma * hit
        if ells[i - 1]:
            counts[-1] += ells[i - 1]
        if imms[i - 1]:
            counts[0] += imms[i - 1]
    return counts.T


# ---------------------------------------------------------------------------
# exact distributions


@dataclass(frozen=True)
class Pmf:
    """Finite probability mass function with ordered support."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support/probs length mismatch")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.probs)

    def check_total(self, tol: float = 1e-12) -> None:
        total = sum(self.probs)
        if self.is_exact:
            if total != 1:
                raise AssertionError(f"exact pmf sums to {total}")
        elif abs(float(total) - 1.0) > tol:
            raise AssertionError(f"pmf sums to {float(total)}")

    def map_support(self, fn) -> "Pmf":
        return Pmf(tuple(fn(x) for x in self.support), self.probs)

    def mean(self):
        return sum(p * x for x, p in zip(self.support, self.probs))

    def moment(self, s: int):
        return sum(p * x**s for x, p in zip(self.support, self.probs))

    def expect(self, fn):
        return sum(p * fn(x) for x, p in zip(self.support, self.probs))

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def tv_distance(self, other: "Pmf") -> float:
        mine = self.as_dict()
        theirs = other.as_dict()
        keys = set(mine) | set(theirs)
        return 0.5 * float(sum(abs(float(mine.get(k, 0)) - float(theirs.get(k, 0))) for k in keys))


def empirical_pmf(samples: Iterable) -> Pmf:
    counts: dict = {}
    n = 0
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
        n += 1
    support = sorted(counts)
    return Pmf(tuple(support), tuple(Fraction(counts[s], n) for s in support))


# mode="auto" runs exact arithmetic up to about 1 s of work.  Measured on
# polya_young(2, 1, 1, 1, 1), 2-vCPU host: exact 0.012 s at N = 200, 0.44 s
# at 800, 0.85 s at 1,000 and 1.5 s at 1,200; float 0.017 s at 1,200.
_AUTO_EXACT_MAX_N = 1_000


def _resolve_mode(spec: UrnSpec, N: int, mode: str, auto_max_n: int = _AUTO_EXACT_MAX_N) -> bool:
    """The package's one exact/float rule; True = exact rational arithmetic.
    "auto" is exact for rational specs up to N = auto_max_n."""
    if mode == "exact":
        if not spec.is_exact:
            raise ValueError("exact mode requires rational spec parameters")
        return True
    if mode == "float":
        return False
    if mode == "auto":
        return spec.is_exact and N <= auto_max_n
    raise ValueError(f"unknown mode {mode!r}")


def exact_pmf_dp(spec: UrnSpec, N: int, mode: str = "auto") -> Pmf:
    """Law of the color-0 count after N steps, by dynamic programming over the
    number of color-0 draws.  Needs deterministic totals and a color-0
    increment of sigma exactly on color-0 draws, which holds for every
    two-color py_like spec (including immigration variants).

    Both modes run one two-slice update over the draw count.  Exact mode
    carries integer path weights (d*white and d*(T - white) per step, d the
    schedule's common denominator) and divides once by prod_j d*T_j, so the
    result sums to 1 exactly; float mode carries float64 probabilities in one
    buffer, updated in place.  Its draw probability d*white / d*T is one
    correctly rounded division of numerators over d (exact in float64 below
    2**53), so a white count equal to the total gives exactly 1 and no atom
    of probability 0 picks up rounding noise.
    """
    if spec.colors != 2:
        raise ValueError("exact_pmf_dp supports two-color py_like specs")
    exact = _resolve_mode(spec, N, mode)
    sched = schedule(spec, N)
    d = sched.d
    # counts over d: imm[i] is the immigration into color 0 before step
    # i+1, w0 the start of color 0 and gain its gain per color-0 draw
    imm = np.concatenate(([0], np.cumsum(_per_step(sched.imm, N))))
    w0, gain = (int(Fraction(v) * d) for v in (spec.initial[0], spec.sigma))
    if exact:
        totals = sched.totals.tolist()
        imm = imm.tolist()
        draws = np.arange(N + 1, dtype=object) * gain
        probs = np.ones(1, dtype=object)
        for i in range(N):
            white = w0 + draws[: i + 1] + imm[i]
            nxt = np.zeros(i + 2, dtype=object)
            nxt[1:] = probs * white
            nxt[:-1] += probs * (totals[i] - white)
            probs = nxt
        den = _product(totals[:N])
        support = [Fraction(w, d) for w in (w0 + draws + imm[N]).tolist()]
        probs = [Fraction(q, den) for q in probs]
    else:
        support = (float(spec.initial[0]) + np.arange(N + 1) * float(spec.sigma)
                   + sched.real(imm[N])).tolist()
        totals = np.asarray(sched.totals, dtype=float).tolist()
        imm = np.asarray(imm, dtype=float).tolist()
        white = float(w0) + np.arange(N + 1) * float(gain)
        # probs[:i+1] is the law before step i+1; up and stay are work rows
        probs, up, stay = np.zeros(N + 1), np.empty(N + 1), np.empty(N + 1)
        probs[0] = 1.0
        for i in range(N):
            p, u, s = probs[: i + 1], up[: i + 1], stay[: i + 1]
            np.add(white[: i + 1], imm[i], out=u)
            np.divide(u, totals[i], out=u)
            np.subtract(1, u, out=s)
            np.multiply(p, u, out=u)
            np.multiply(p, s, out=s)
            probs[i + 1] = u[i]
            np.add(u[:i], s[1:], out=probs[1 : i + 1])
            probs[0] = s[0]
        probs = probs.tolist()
    # unreachable counts (e.g. "all draws black" when the black side starts
    # empty) carry probability exactly 0 in both arithmetic modes; drop them
    kept = [(w, q) for w, q in zip(support, probs) if q != 0]
    pmf = Pmf(tuple(w for w, _ in kept), tuple(q for _, q in kept))
    pmf.check_total(tol=1e-9)
    return pmf


_ENUM_GUARD = 10_000_000
_ENUM_CHUNK = 1 << 10  # frontier rows expanded at once


def enumerate_histories(spec: UrnSpec, N: int) -> Pmf:
    """Joint law of the count vector after N steps by brute-force enumeration
    of all color sequences; the cost guard rejects colors**N above
    _ENUM_GUARD.

    The frontier of histories grows one step at a time, one row per colour
    sequence of positive probability in lexicographic order, and histories
    merge only at the leaves.  It is split depth-first into chunks of at most
    _ENUM_CHUNK rows, so memory stays bounded up to the guard.  Exact specs
    carry counts scaled by one common denominator d and each history's path
    weight as an integer, the product of d*w over its drawn colours; the
    total d*T before each step, the same in every row, is read from the first
    row to reach that step, and each leaf state divides its summed weight
    once by prod d*T.  Other specs carry the spec's own numbers as counts and
    float64 probabilities; each step adds its terms in apply_draw's order, so they
    round as the recursive enumeration in tests/kernel_reference.py does."""
    K, exact = spec.colors, spec.is_exact
    if K**N > _ENUM_GUARD:
        raise ValueError(f"enumeration of {K}**{N} histories exceeds guard {_ENUM_GUARD}")
    terms = [_step_terms(spec, i) for i in range(1, N + 1)]
    flat = [*spec.initial, *(a for t in terms for term in t for row in term for a in row)]
    if exact:
        d = math.lcm(*(a.denominator for a in flat))
        num = lambda a: a.numerator * (d // a.denominator)
        big = sum(num(a) for a in flat)  # bounds d*T before every step
        cdtype = np.int64 if big < 2**63 else object
        wdtype = np.int64 if big**N < 2**63 else object
    else:
        num, cdtype, wdtype = (lambda a: a), object, float
    rules = np.array([[[[num(a) for a in row] for row in term] for term in t] for t in terms],
                     cdtype)
    acc, dT = {}, []
    stack = [(0, np.array([[num(c) for c in spec.initial]], cdtype), np.ones(1, wdtype))]
    while stack:
        i, counts, weight = stack.pop()
        if i == N:
            for key, w in zip(map(tuple, counts.tolist()), weight.tolist()):
                acc[key] = acc.get(key, 0) + w
            continue
        total = sum(counts.T)  # left to right, as the recursion's sum(counts)
        if exact:
            if len(dT) == i:  # depth first: the first chunk to reach step i + 1
                dT.append(int(total[0]))
            weight = weight[:, None] * counts
        else:
            weight = weight[:, None] * (counts.astype(float) / total.astype(float)[:, None])
        child = counts[:, None, :]
        for term in rules[i]:
            child = child + term
        drawn = counts != 0
        child, weight = child[drawn], weight[drawn]
        stack.extend((i + 1, child[s:s + _ENUM_CHUNK], weight[s:s + _ENUM_CHUNK])
                     for s in reversed(range(0, len(weight), _ENUM_CHUNK)))
    support, den = sorted(acc), _product(dT)
    pmf = Pmf(tuple(tuple(Fraction(c, d) for c in s) if exact else s for s in support),
              tuple(Fraction(acc[s], den) if exact else acc[s] for s in support))
    pmf.check_total(tol=1e-9)
    return pmf


def marginal_pmf(joint: Pmf, index: int) -> Pmf:
    """Marginal of one coordinate of a tuple-supported Pmf."""
    acc: dict = {}
    for x, p in zip(joint.support, joint.probs):
        key = x[index]
        acc[key] = acc.get(key, p * 0) + p
    support = sorted(acc)
    return Pmf(tuple(support), tuple(acc[s] for s in support))


# ---------------------------------------------------------------------------
# serialization


def spec_to_json(spec: UrnSpec) -> str:
    payload = {
        "kind": spec.kind,
        "family": spec.family,
        "colors": spec.colors,
        "period": spec.period,
        "initial": [_json_num(v) for v in spec.initial],
        "offset": spec.offset,
    }
    if spec.sigma is not None:
        payload["sigma"] = _json_num(spec.sigma)
    if spec.phase_ells is not None:
        payload["phase_ells"] = [_json_num(v) for v in spec.phase_ells]
    if spec.sequence_name is not None:
        payload["sequence"] = spec.sequence_name
        payload["sequence_ells"] = [_json_num(v) for v in spec.sequence_ells]
    if spec.white_immigration is not None:
        payload["white_immigration"] = [_json_num(v) for v in spec.white_immigration]
    for name in ("ell", "ell1", "ell2"):
        v = getattr(spec, name)
        if v is not None:
            payload[name] = _json_num(v)
    return json.dumps(payload, indent=2, sort_keys=True)


def spec_from_json(text: str) -> UrnSpec:
    data = json.loads(text)
    def opt_num(key):
        return _num(data[key]) if key in data else None
    def opt_tuple(key):
        return _num_tuple(data[key]) if key in data else None
    spec = UrnSpec(
        kind=data["kind"],
        family=data["family"],
        colors=int(data["colors"]),
        period=int(data["period"]),
        initial=_num_tuple(data["initial"]),
        sigma=opt_num("sigma"),
        phase_ells=opt_tuple("phase_ells"),
        sequence_name=data.get("sequence"),
        sequence_ells=opt_tuple("sequence_ells"),
        white_immigration=opt_tuple("white_immigration"),
        ell=opt_num("ell"),
        ell1=opt_num("ell1"),
        ell2=opt_num("ell2"),
        offset=int(data.get("offset", 0)),
    )
    spec.validate()
    return spec
