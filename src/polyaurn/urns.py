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

import functools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .rng import derive_seed

__all__ = [
    "UrnSpec",
    "Pmf",
    "polya_young",
    "triangular",
    "multicolor_polya_young",
    "sequence_urn",
    "with_white_immigration",
    "totals_list",
    "Schedule",
    "schedule",
    "immigration_at",
    "simulate_white_batch",
    "simulate_counts_batch",
    "empirical_pmf",
    "exact_pmf_dp",
    "enumerate_histories",
    "marginal_pmf",
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


def _thue_morse_prefix(n: int) -> np.ndarray:
    """[b_0, ..., b_{n-1}] with b_n = t_n + 1, t the Thue-Morse sequence
    (t_0 = 0, t_{2n} = t_n, t_{2n+1} = 1 - t_n), built by doubling: the next
    2^k terms of t are 1 - (the first 2^k), since t_{n + 2^k} = 1 - t_n for
    n < 2^k."""
    t = np.zeros(1, dtype=np.intp)
    while t.size < n:
        t = np.concatenate((t, 1 - t))
    return t[:n] + 1


# sequence name -> its prefix [b_0, ..., b_{n-1}], each b_n in {1, 2}
_SEQUENCES: dict[str, Callable[[int], np.ndarray]] = {"thue_morse": _thue_morse_prefix}


@dataclass(frozen=True)
class UrnSpec:
    """Immutable urn model description; every instance passes validate.

    The drawn color gains sigma; the last color additionally gains an ell at
    every step (see _step_rule): ells = (ordinary, refresh) for a periodic
    family, refresh at steps i = offset (mod period) and ordinary at the
    others, or the two values a named sequence's b_i selects.  Color 0 may
    receive a deterministic immigration amount per step (white_immigration,
    periodic).
    """

    family: str
    period: int
    initial: tuple
    sigma: object
    ells: tuple
    offset: int = 0
    sequence_name: str | None = None
    white_immigration: tuple | None = None  # per-phase additions to color 0

    def __post_init__(self):
        self.validate()

    @property
    def colors(self) -> int:
        return len(self.initial)

    @property
    def phase_ells(self) -> tuple | None:
        """The ell applied at step i is phase_ells[(i-1) % period]; None for a
        sequence spec."""
        if self.sequence_name is not None:
            return None
        ordinary, refresh = self.ells
        return tuple(refresh if (i + 1 - self.offset) % self.period == 0 else ordinary
                     for i in range(self.period))

    @property
    def is_exact(self) -> bool:
        # the values the steps read
        vals = (*self.initial, self.sigma, *(self.phase_ells or self.ells),
                *(self.white_immigration or ()))
        return all(_is_exact(v) for v in vals)

    @property
    def total_initial(self):
        return sum(self.initial)

    def validate(self) -> None:
        """The one shape rule: no value a float that is not finite; a known
        family, a period >= 1, an offset in [0, period) and two colors or more
        (the last takes the refresh); two ells, the ordinary one 0 for the
        polya_young and multicolor families; a registered sequence (and period
        1) for the sequence family and for it only; white immigration only on
        two colors, one amount per phase; then the signs of the values."""
        fields = (("initial", self.initial), ("sigma", (self.sigma,)), ("ells", self.ells),
                  ("white_immigration", self.white_immigration or ()))
        for name, vals in fields:
            if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
                raise ValueError(f"{name} must be finite")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {sorted(_FAMILIES)}")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0 <= self.offset < self.period:
            raise ValueError(f"offset must be in [0, period), got {self.offset}")
        if self.colors < 2:
            raise ValueError("a spec needs at least two colors: the last takes the refresh")
        if len(self.ells) != 2:
            raise ValueError(f"a spec takes exactly two ells, got {len(self.ells)}")
        if self.family in _ZERO_ORDINARY and self.ells[0] != 0:
            raise ValueError(f"the {self.family} family's ordinary ell must be 0")
        if (self.family == "sequence") != (self.sequence_name is not None):
            raise ValueError("a sequence spec names its sequence, and only a sequence spec does")
        if self.sequence_name is not None:
            if self.sequence_name not in _SEQUENCES:
                raise ValueError(f"unknown sequence {self.sequence_name!r}; "
                                 f"known: {sorted(_SEQUENCES)}")
            if self.period != 1:
                raise ValueError("sequence urns have period 1")
        if self.white_immigration is not None:
            if self.colors != 2:
                raise ValueError("white immigration is defined for two-color specs")
            if len(self.white_immigration) != self.period:
                raise ValueError("need one immigration amount per phase")
        if self.sigma is None or not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.initial[0] > 0:
            raise ValueError("color 0 must start positive")
        if any(c < 0 for c in self.initial):
            raise ValueError("initial counts must be non-negative")
        if any(e < 0 for e in self.ells):
            raise ValueError("schedule additions must be non-negative")
        if any(v < 0 for v in self.white_immigration or ()):
            raise ValueError("immigration amounts must be non-negative")


_FAMILIES = {"polya_young", "triangular", "multicolor", "sequence"}
_ZERO_ORDINARY = {"polya_young", "multicolor"}  # families whose ordinary steps add no ell


def polya_young(p: int, sigma, ell, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic urn: diagonal steps plus an off-diagonal refresh of
    size ell into the black column at steps = offset (mod p)."""
    sigma, ell, w0, b0 = map(_num, (sigma, ell, w0, b0))
    return UrnSpec("polya_young", p, (w0, b0), sigma, (sigma * 0, ell), offset % max(p, 1))


def triangular(p: int, sigma, ell1, ell2, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic triangular urn: off-diagonal ell1 at ordinary steps,
    ell2 at steps = offset (mod p)."""
    sigma, ell1, ell2, w0, b0 = map(_num, (sigma, ell1, ell2, w0, b0))
    return UrnSpec("triangular", p, (w0, b0), sigma, (ell1, ell2), offset % max(p, 1))


def multicolor_polya_young(p: int, sigma, ell, initial) -> UrnSpec:
    """t-color periodic urn: drawn color gains sigma; the last color gains ell
    at steps that are multiples of p."""
    sigma, ell = _num(sigma), _num(ell)
    return UrnSpec("multicolor", p, _num_tuple(initial), sigma, (sigma * 0, ell))


def sequence_urn(sequence: str, sigma, ells, w0, b0) -> UrnSpec:
    """Two-color urn driven by a named {1,2}-valued sequence: step i applies
    the matrix with off-diagonal ells[b_i - 1]."""
    return UrnSpec("sequence", 1, (_num(w0), _num(b0)), _num(sigma), _num_tuple(ells),
                   sequence_name=sequence)


def with_white_immigration(spec: UrnSpec, per_phase: Sequence) -> UrnSpec:
    """Attach deterministic per-phase additions to color 0 (applied at every
    step i with amount per_phase[(i-1) % period], after the draw); the spec
    keeps its family."""
    return replace(spec, white_immigration=_num_tuple(per_phase))


# ---------------------------------------------------------------------------
# per-step schedule resolution and totals


def _step_rule(spec: UrnSpec, N: int) -> tuple[list, np.ndarray]:
    """The package's one step rule: (rows, cycle) for steps 1..N.  A row is
    an (ell, immigration) pair of additions in the spec's own numbers, ell
    into the last color and immigration into color 0: one row per phase, or
    one per sequence value, kept if a step of one cycle (the period, or steps
    1..max(N, 1) of a sequence spec) reads it; step i reads row
    cycle[(i - 1) % len(cycle)]."""
    imm = spec.white_immigration or (0,) * spec.period
    if spec.sequence_name is not None:
        cycle = _SEQUENCES[spec.sequence_name](max(N, 1) + 1)[1:] - 1
        rows = [(e, imm[0]) for e in spec.ells]
    else:
        cycle = np.arange(spec.period)
        rows = list(zip(spec.phase_ells, imm))
    used = np.bincount(cycle, minlength=len(rows)) > 0
    return [row for row, u in zip(rows, used) if u], (np.cumsum(used) - 1)[cycle]


def immigration_at(spec: UrnSpec, i: int):
    """Addition to color 0 at step i (1-based), for callers outside the package."""
    return (spec.white_immigration or (0,) * spec.period)[(i - 1) % spec.period]


@dataclass(frozen=True)
class Schedule:
    """Color 0's two-color chain up to step N in integers over one common
    denominator d: start w0 = d*w_0, gain = d*sigma per color-0 draw, totals[j]
    = d*T_j (j = 0..N), ells[i - 1] = d*ell and imm[i - 1] = d*immigration of
    step i = 1..N.  The arrays are int64 while every value stays below 2**53,
    else Python ints, so they never wrap; read-only, as schedule() shares them."""

    d: int
    exact: bool
    w0: int
    gain: int
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


# schedules schedule() keeps, least recently used first out: an exact check
# at small N reads one (spec, N) schedule up to six times
_SCHEDULE_MEMO = 8


def schedule(spec: UrnSpec, N: int) -> Schedule:
    """Chain of color 0 in `spec` for steps 1..N, from the rows of _step_rule.

    The common denominator covers the start, sigma and the rows the cycle
    uses.  The totals are the running sum of the per-step additions, which by
    balance do not depend on the drawn color.  Schedules are memoised; the
    key carries spec.is_exact, since an exact spec equals (and hashes as) its
    float twin, e.g. sigma 1 and 1.0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _schedule(spec, spec.is_exact, N)


@functools.lru_cache(maxsize=_SCHEDULE_MEMO)
def _schedule(spec: UrnSpec, exact: bool, N: int) -> Schedule:
    rows, cycle = _step_rule(spec, N)
    rows = [tuple(map(Fraction, row)) for row in rows]
    base, t0 = Fraction(spec.sigma), Fraction(spec.total_initial)
    d = math.lcm(*(v.denominator for v in (t0, base, *map(Fraction, spec.initial), *chain(*rows))))
    d_rows = [(int(e * d), int(m * d), int((base + e + m) * d)) for e, m in rows]
    big = max(abs(v) for v in (d, int(t0 * d), *(v for row in d_rows for v in row)))
    dtype = np.int64 if big * (N + 1) < 2**53 else object
    # ell, immigration and total addition of each step: one cycle's columns
    # repeated end to end
    table = np.array(d_rows, dtype=dtype)[cycle].T
    ells, imms, adds = np.tile(table, -(-N // cycle.size))[:, :N]
    totals = np.concatenate((np.array([int(t0 * d)], dtype), adds))
    np.cumsum(totals, out=totals)
    for a in (totals, ells, imms):
        a.flags.writeable = False
    return Schedule(d, exact, int(Fraction(spec.initial[0]) * d), int(base * d), totals, ells, imms)


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


# candidate steps each live replicate draws per round of simulate_white_batch
_SKIP_K = 8

# live replicates per block of simulate_white_batch's round scratch.  Best of
# 5 on a 2-vCPU host, STD at checkpoints [1000, 9000] with 8,192 replicates,
# to 1,000 with 10^5 and to 60 with 2*10^5: 102.5 / 310.5 / 180.3 ms at
# 4,096; 82.7 / 276.1 / 156.4 ms at 16,384; 84.4 / 321.1 / 209.5 ms at 65,536.
_SKIP_BLOCK = 16_384


def simulate_white_batch(
    spec: UrnSpec, checkpoints: Sequence[int], n_reps: int, seed: int
) -> list[np.ndarray]:
    """Vectorized simulation of the color-0 (white) count of n_reps
    independent trajectories, as the white side of a two-color urn at every
    color count, since only the last color takes the refresh.

    Returns the array of white counts at each checkpoint time (ascending).
    Step j draws white with probability W_j/T_{j-1}, W_j being W before step
    j.  The steps are thinned from geometric proposals (Lewis & Shedler
    1979): each round, a replicate at step `pos` proposes its next K =
    _SKIP_K candidate steps at one rate q = min(1, max((W_pos + (K - 1)
    sigma)/T_pos, rho)), rho = max_i imm_i/(sigma + ell_i + imm_i) over the
    schedule (0 without immigration).  At most K - 1 white draws come before
    the K-th candidate and the totals never fall, so by the mediant
    inequality q bounds every white probability of the round.  Candidate j
    is white iff v*q*T_{j-1} < W_j, strictly, for W_j = w0 + the immigration
    through step j - 1 + sigma*(white draws so far).  Only checkpoints are
    barriers: candidates past the next one are discarded, and the replicate
    lands on it.

    The replicates carry their white-draw counts, and W = (w0 + immigration
    to t) + sigma*count is formed once at each checkpoint t, so equal counts
    give equal floats.  A round draws 2K uniforms per live replicate as one
    (2K, live) array, gap uniforms first, and works on blocks of
    _SKIP_BLOCK live replicates in scratch of one block; a round of several
    blocks reads each block's columns by advancing the generator, so the
    stream does not depend on the block size.
    """
    checkpoints = _checkpoint_list(checkpoints)
    N = checkpoints[-1]
    _check_sizes(N, n_reps)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    bits, K = rng.bit_generator, _SKIP_K
    sched = schedule(spec, N)
    # w0 + the immigration through step t, and T_t and that sum in units of
    # sigma, each one rounding of the schedule's integers
    base = np.cumsum(np.append(sched.w0, sched.imm))
    T, b_sigma = (np.asarray(v / sched.gain, dtype=float) for v in (sched.totals, base))
    base = sched.real(base)
    rho = float(np.max(sched.imm / np.diff(sched.totals), initial=0.0))
    row = np.zeros(N + 1, np.intp)  # the out row of each checkpoint
    row[checkpoints] = np.arange(len(checkpoints))
    stops = [0] + [c for c in checkpoints if c]
    after = np.full(N + 1, N + 1.0)  # the barrier after step 0 and each barrier; N + 1 ends
    after[stops[:-1]] = stops[1:]
    out = np.zeros((len(checkpoints), n_reps))  # white draws at each checkpoint, then W
    # per live replicate: its index, step, white draws and next barrier
    live = np.arange(n_reps if N else 0)
    pos, drawn = np.zeros(live.size, np.int64), np.zeros(live.size)
    bar = np.full(live.size, after[0])
    B = max(1, min(live.size, _SKIP_BLOCK))
    flat = np.empty(2 * K * B)
    x, at, past = np.empty((K, B)), np.empty((K, B), np.int64), np.empty((K, B), bool)
    q, w, a, hit = np.empty(B), np.empty(B), np.empty(B), np.empty(B, bool)

    def run_block(lo: int, d: np.ndarray) -> bool:
        """Run live replicates lo..lo + m one round on their draws d, shape
        (2K, m); True if one of them passed its last checkpoint."""
        m = d.shape[1]
        u, v = d[:K], d[K:]
        p, c, b = pos[lo:lo + m], drawn[lo:lo + m], bar[lo:lo + m]
        qm, wm, am, hm = q[:m], w[:m], a[:m], hit[:m]
        xm, jm, pm = x[:, :m], at[:, :m], past[:, :m]
        # W_pos/sigma, the rate q and 1/log(1 - q) (-0 at q = 1: every step a
        # candidate)
        np.add(np.take(b_sigma, p, out=wm), c, out=wm)
        np.add(wm, K - 1, out=qm)
        qm /= np.take(T, p, out=am)
        np.minimum(np.maximum(qm, rho, out=qm), 1.0, out=qm)
        np.reciprocal(np.log1p(np.negative(qm, out=am), out=am), out=am)
        # the candidate steps: pos plus the running sum of 1 + geometric gaps
        np.log1p(np.negative(u, out=u), out=u)
        u *= am
        np.floor(u, out=u)
        u += 1.0
        u[0] += p
        for k in range(1, K):
            u[k] += u[k - 1]
        np.greater(u, b, out=pm)
        np.minimum(u, b, out=u)
        p[:] = u[-1]
        np.subtract(u, 1, out=jm, casting="unsafe")  # the step before each candidate
        # candidate j is white iff (v*q*T_{j-1} - W_j without this round's
        # white draws)/sigma < the round's white draws before j; inf past
        # the barrier
        np.take(T, jm, out=xm, mode="clip")  # in range; "clip" skips a bounds copy
        xm *= v
        xm *= qm
        if rho:  # W_j with the immigration through j - 1
            np.take(b_sigma, jm, out=u, mode="clip")
            u += c
            xm -= u
        else:
            xm -= wm
        xm[pm] = np.inf
        am.fill(0.0)
        for xk in xm:
            np.greater(am, xk, out=hm)
            am += hm
        c += am
        landed = np.flatnonzero(np.equal(p, b, out=hm))
        if not landed.size:
            return False
        t = p[landed]
        out[row[t], live[lo + landed]] = c[landed]
        b[landed] = nxt = after[t]
        return nxt.max() > N

    with np.errstate(divide="ignore"):  # q = 1: log1p(-1) = -inf
        while live.size:
            n = live.size
            start = bits.state if n > B else None
            finished = False
            for lo in range(0, n, B):
                d = flat[:2 * K * min(B, n - lo)].reshape(2 * K, -1)
                if start is None:
                    rng.random(out=d)
                else:  # row r of the round's (2K, n) draws, columns lo..
                    for r, line in enumerate(d):
                        bits.state = start
                        bits.advance(r * n + lo)
                        rng.random(out=line)
                finished |= run_block(lo, d)
            if start is not None:
                bits.state = start
                bits.advance(2 * K * n)
            if finished:
                keep = bar <= N
                live = live[keep]
                pos = pos[keep]
                drawn = drawn[keep]
                bar = bar[keep]
    out *= float(spec.sigma)
    out += base[checkpoints, None]
    return list(out)


def simulate_counts_batch(spec: UrnSpec, N: int, n_reps: int, seed: int) -> np.ndarray:
    """Vectorized simulation of the whole count vector at step N; returns the
    counts array (n_reps, colors).

    Only the last color takes the refresh, so the sum S of the others gains
    sigma exactly on its own draws: simulate_white_batch runs it, from the
    same seed, as the white side of the spec with those colors summed into
    color 0.  Within S the draws form a classical Polya urn, so the n draws
    into S split over its colors as Dirichlet-multinomial(n; initial_k/sigma)
    (Johnson & Kotz 1977), drawn as p ~ Dirichlet and C ~ Multinomial(n, p)
    from the stream derive_seed(seed, 0).  A color that starts empty stays
    empty, and the last color is T_N minus the others.
    """
    _check_sizes(N, n_reps)
    summed = replace(spec, initial=(sum(spec.initial[:-1]), spec.initial[-1]))
    (S,) = simulate_white_batch(summed, [N], n_reps, seed)
    counts = np.zeros((n_reps, spec.colors))
    if spec.colors == 2:
        counts[:, 0] = S
    else:  # no immigration: S = S_0 + sigma*n
        split = [k for k, c in enumerate(spec.initial[:-1]) if c > 0]
        start, sigma = [spec.initial[k] for k in split], float(spec.sigma)
        n = np.rint((S - float(summed.initial[0])) / sigma).astype(np.int64)
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
        p = rng.dirichlet([float(c / spec.sigma) for c in start], n_reps)
        counts[:, split] = np.array(start, dtype=float) + sigma * rng.multinomial(n, p)
    counts[:, -1] = float(schedule(summed, N).total(N)) - counts[:, :-1].sum(axis=1)
    return counts


# ---------------------------------------------------------------------------
# exact distributions


class Pmf:
    """Finite probability mass function with ordered support.

    `Pmf(support, probs)` keeps the probabilities it is given, floats or
    Fractions.  The exact routes build the integer form instead
    (`_exact_pmf`): positive integer path weights over one denominator, as
    their arithmetic ends.  There `probs` builds the reduced Fractions on
    first read and keeps them; `repr`, `hash`, `==`, `as_dict` and
    `tv_distance` read them.  `is_exact`, `check_total`, `map_support`,
    `marginal_pmf`, and `mean`, `moment` and `expect` with int- or
    Fraction-valued functions (one integer sum, one division) read the
    integers.  Any other `expect`, float-valued ones included, sums
    p * f(x) over `probs` in atom order on either form.  Immutable.
    """

    def __init__(self, support, probs):
        if len(support) != len(probs):
            raise ValueError("support/probs length mismatch")
        vars(self).update(support=support, probs=probs, _weights=None, _den=None)

    @classmethod
    def _from_weights(cls, support: tuple, weights: tuple, den: int) -> "Pmf":
        pmf = cls.__new__(cls)
        vars(pmf).update(support=support, _weights=weights, _den=den)
        return pmf

    @functools.cached_property
    def probs(self) -> tuple:
        return tuple(Fraction(w, self._den) for w in self._weights)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Pmf(support={self.support!r}, probs={self.probs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.support, self.probs) == (other.support, other.probs)

    def __hash__(self) -> int:
        return hash((self.support, self.probs))

    @property
    def is_exact(self) -> bool:
        return self._den is not None or all(isinstance(p, Fraction) for p in self.probs)

    def check_total(self, tol: float = 1e-12) -> None:
        if self._den is not None:
            total = sum(self._weights)
            if total != self._den:
                raise AssertionError(f"exact pmf sums to {Fraction(total, self._den)}")
            return
        total = sum(self.probs)
        if self.is_exact:
            if total != 1:
                raise AssertionError(f"exact pmf sums to {total}")
        elif abs(float(total) - 1.0) > tol:
            raise AssertionError(f"pmf sums to {float(total)}")

    def map_support(self, fn) -> "Pmf":
        support = tuple(fn(x) for x in self.support)
        if self._den is not None:
            return Pmf._from_weights(support, self._weights, self._den)
        return Pmf(support, self.probs)

    def mean(self):
        return self.expect(lambda x: x)

    def moment(self, s: int):
        return self.expect(lambda x: x**s)

    def expect(self, fn):
        values = [fn(x) for x in self.support]
        if self._den is not None:
            if all(isinstance(v, (int, Fraction)) for v in values):
                scale = math.lcm(*(v.denominator for v in values))
                num = sum(w * v.numerator * (scale // v.denominator)
                          for w, v in zip(self._weights, values))
                return Fraction(num, self._den * scale)
        return sum(p * v for p, v in zip(self.probs, values))

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def tv_distance(self, other: "Pmf") -> float:
        mine = self.as_dict()
        theirs = other.as_dict()
        keys = set(mine) | set(theirs)
        return 0.5 * float(sum(abs(float(mine.get(k, 0)) - float(theirs.get(k, 0))) for k in keys))


def empirical_pmf(samples) -> Pmf:
    """Observed law of an array of samples: sorted distinct values and their
    shares as Fractions."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    n = int(counts.sum())
    return Pmf(tuple(values.tolist()), tuple(Fraction(c, n) for c in counts.tolist()))


def _exact_pmf(support, weights, den: int) -> Pmf:
    """The exact routes' one law: integer path weights over den, checked to
    sum to den in integers; atoms of weight 0 are dropped."""
    kept = [(x, w) for x, w in zip(support, weights) if w]
    pmf = Pmf._from_weights(tuple(x for x, _ in kept), tuple(w for _, w in kept), den)
    pmf.check_total()
    return pmf


# mode="auto" runs exact arithmetic up to about 1 s of work.  Measured on
# polya_young(2, 1, 1, 1, 1), 2-vCPU host shared with other tenants (best of
# 3, two runs): exact 0.004-0.005 s at N = 200, 0.17-0.18 s at 800,
# 0.34-0.41 s at 1,000 and 0.58-0.62 s at 1,200; float 0.004 s at 1,200.
_AUTO_EXACT_MAX_N = 1_000

# steps of the float DP that share one set of row views.  On the same spec
# and host (best of 5, interleaved), N = 500, 1,000 and 2,000 took 1.56,
# 3.53 and 9.11 ms at 8 steps a chunk, 1.48, 3.36 and 8.90 ms at 64, and
# 1.59, 3.51 and 9.27 ms at 256; rows sliced to the support every step took
# 2.1, 4.7 and 11.7 ms (best of 7, a separate run).
_DP_CHUNK = 64


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
    increment of sigma exactly on color-0 draws, which hold at every color
    count (only the last color takes the refresh) and with immigration.

    Both modes run one two-slice update over the draw count on the chain
    schedule(spec, N), where color 0 holds w0 + k*gain + (summed imm) of
    totals[i] over d.  Exact mode carries integer path weights and divides
    once by prod_j d*T_j, so the result sums to 1 exactly; float mode
    carries float64 probabilities in one buffer, updated in place, _DP_CHUNK
    steps on one set of rows as long as the support at the chunk's end.  Its
    draw probability d*white / d*T is one correctly rounded division of
    numerators over d (exact in float64 below 2**53), so a white count equal
    to the total gives exactly 1 and no atom of probability 0 picks up
    rounding noise.
    """
    exact = _resolve_mode(spec, N, mode)
    sched = schedule(spec, N)
    d, w0, gain = sched.d, sched.w0, sched.gain
    # imm[i] is the immigration into color 0 before step i+1, over d
    imm = np.concatenate(([0], np.cumsum(sched.imm)))
    if exact:
        totals = sched.totals.tolist()
        imm = imm.tolist()
        probs = [1]
        for i in range(N):
            # before step i + 1, with k color-0 draws, color 0 holds
            # w + k*gain of t: two products and one add per cell
            w, t = w0 + imm[i], totals[i]
            stay = map(mul, probs, range(t - w, t - w - (i + 1) * gain, -gain))
            up = map(mul, probs, range(w, w + (i + 1) * gain, gain))
            probs = list(map(add, chain(stay, (0,)), chain((0,), up)))
        w = w0 + imm[N]
        support = (Fraction(v, d) for v in range(w, w + (N + 1) * gain, gain))
        # unreachable counts (e.g. "all draws black" when the black side
        # starts empty) carry weight exactly 0 in both arithmetic modes;
        # _exact_pmf drops them, as the float arm does below
        return _exact_pmf(support, probs, _product(totals[:N]))
    support = (float(spec.initial[0]) + np.arange(N + 1) * float(spec.sigma)
               + sched.real(imm[N])).tolist()
    totals = np.asarray(sched.totals, dtype=float).tolist()
    imm = np.asarray(imm, dtype=float).tolist()
    white = float(w0) + np.arange(N + 1) * float(gain)
    # probs[:i+1] is the law before step i+1 and +0 above it; stay is a work
    # row, and up[1:] one whose zero pad up[0] shifts it a cell right
    probs, stay, up = np.zeros(N + 1), np.empty(N + 1), np.zeros(N + 2)
    probs[0] = 1.0
    for first in range(0, N, _DP_CHUNK):
        last = min(first + _DP_CHUNK, N)
        # the chunk's steps run on the cells its last step reaches; a cell
        # above the support holds +0 and keeps it: its stay +0*(1 - u) may be
        # -0 where white > total, but its shifted up is +0, and -0 + +0 = +0
        p, s, w = probs[: last + 1], stay[: last + 1], white[: last + 1]
        u, shifted = up[1 : last + 2], up[: last + 1]
        for i in range(first, last):
            # white >= 0, so white + 0.0 is white: skip the add without immigration
            np.divide(np.add(w, imm[i], out=u) if imm[i] else w, totals[i], out=u)
            np.subtract(1, u, out=s)
            np.multiply(p, u, out=u)
            np.multiply(p, s, out=s)
            np.add(s, shifted, out=p)
    kept = [(w, q) for w, q in zip(support, probs.tolist()) if q != 0]
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
    carry counts scaled by the schedule's common denominator d and each
    history's path weight as an integer, the product of d*w over its drawn
    colours; each leaf state divides its summed weight once by prod d*T_j.
    Other specs carry the spec's own numbers as counts and float64
    probabilities; each step adds sigma to the drawn colour, then ell to the
    last and immigration to colour 0, so they round as the recursive
    enumeration in tests/kernel_reference.py does."""
    K, exact = spec.colors, spec.is_exact
    if K**N > _ENUM_GUARD:
        raise ValueError(f"enumeration of {K}**{N} histories exceeds guard {_ENUM_GUARD}")
    if exact:
        sched = schedule(spec, N)
        d, den = sched.d, _product(sched.totals[:N].tolist())
        # the chain holds color 0 alone: the other colors' starts are scaled here
        sigma, start = sched.gain, [sched.w0, *(int(c * d) for c in spec.initial[1:])]
        ells, imms = sched.ells, sched.imm
        cdtype = np.int64 if int(sched.totals[-1]) < 2**63 else object
        wdtype = np.int64 if den < 2**63 else object  # a path weight is at most den
    else:
        rows, cycle = _step_rule(spec, N)
        sigma, start = spec.sigma, list(spec.initial)
        ells, imms = ([rows[cycle[i % cycle.size]][c] for i in range(N)] for c in (0, 1))
        cdtype, wdtype = object, float
    # the terms of each step, row k when colour k is drawn: sigma to colour k,
    # ell to the last colour, immigration to colour 0; integers add in one go
    rules = np.zeros((N, 3, K, K), cdtype)
    rules[:, 0, range(K), range(K)] = sigma
    rules[:, 1, :, -1] = np.array(ells, cdtype)[:, None]
    rules[:, 2, :, 0] = np.array(imms, cdtype)[:, None]
    if exact:
        rules = rules.sum(axis=1, keepdims=True)
    # leaf states so far: exact ones merged by sort, float ones summed in
    # leaf order, as the recursion sums them
    leaves, acc = (np.empty((0, K), cdtype), np.empty(0, wdtype)), {}
    stack = [(0, np.array([start], cdtype), np.ones(1, wdtype))]
    while stack:
        i, counts, weight = stack.pop()
        if i == N:
            if exact:
                leaves = _merge_rows(np.concatenate((leaves[0], counts)),
                                     np.concatenate((leaves[1], weight)))
            else:
                for key, w in zip(map(tuple, counts.tolist()), weight.tolist()):
                    acc[key] = acc.get(key, 0) + w
            continue
        if exact:
            weight = weight[:, None] * counts
        else:
            total = sum(counts.T)  # left to right, as the recursion's sum(counts)
            weight = weight[:, None] * (counts.astype(float) / total.astype(float)[:, None])
        child = counts[:, None, :]
        for term in rules[i]:
            child = child + term
        drawn = counts != 0
        child, weight = child[drawn], weight[drawn]
        stack.extend((i + 1, child[s:s + _ENUM_CHUNK], weight[s:s + _ENUM_CHUNK])
                     for s in reversed(range(0, len(weight), _ENUM_CHUNK)))
    if exact:
        counts, weight = (v.tolist() for v in leaves)
        return _exact_pmf([tuple(Fraction(c, d) for c in row) for row in counts], weight, den)
    support = sorted(acc)
    pmf = Pmf(tuple(support), tuple(acc[s] for s in support))
    pmf.check_total(tol=1e-9)
    return pmf


def _merge_rows(counts: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of counts in lexicographic order, each with the sum
    of its integer weights: a stable sort puts equal rows side by side."""
    order = np.lexsort(counts.T[::-1])
    counts, weight = counts[order], weight[order]
    first = np.flatnonzero(np.append(True, (counts[1:] != counts[:-1]).any(axis=1)))
    return counts[first], np.add.reduceat(weight, first)


def marginal_pmf(joint: Pmf, index: int) -> Pmf:
    """Marginal of one coordinate of a tuple-supported Pmf; an integer-form
    joint law sums its integer weights per key."""
    integer = joint._den is not None
    acc: dict = {}
    for x, p in zip(joint.support, joint._weights if integer else joint.probs):
        key = x[index]
        acc[key] = acc.get(key, p * 0) + p
    support = tuple(sorted(acc))
    mass = tuple(acc[s] for s in support)
    return Pmf._from_weights(support, mass, joint._den) if integer else Pmf(support, mass)


# ---------------------------------------------------------------------------
# serialization


# the JSON keys: UrnSpec's fields, with sequence_name written as "sequence"
_JSON_REQUIRED = {"family", "period", "initial", "sigma", "ells"}
_JSON_KEYS = _JSON_REQUIRED | {"offset", "sequence", "white_immigration"}


def spec_to_json(spec: UrnSpec) -> str:
    payload = {
        "family": spec.family,
        "period": spec.period,
        "initial": [_json_num(v) for v in spec.initial],
        "sigma": _json_num(spec.sigma),
        "ells": [_json_num(v) for v in spec.ells],
        "offset": spec.offset,
    }
    if spec.sequence_name is not None:
        payload["sequence"] = spec.sequence_name
    if spec.white_immigration is not None:
        payload["white_immigration"] = [_json_num(v) for v in spec.white_immigration]
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_int(data: dict, key: str, default=None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"spec key {key!r} must be a JSON integer, got {value!r}")
    return value


def _json_str(data: dict, key: str, optional: bool = False):
    value = data.get(key)
    if not isinstance(value, str) and not (optional and value is None):
        raise ValueError(f"spec key {key!r} must be a JSON string, got {value!r}")
    return value


def _json_nums(data: dict, key: str, array: bool):
    """The number (array=False) or the JSON array of numbers under key, read
    by _num; a malformed value raises a ValueError that names the key."""
    value = data[key]
    if array and not isinstance(value, list):
        raise ValueError(f"spec key {key!r} must be a JSON array, got {value!r}")
    try:
        return _num_tuple(value) if array else _num(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"spec key {key!r}: {exc}") from None


def spec_from_json(text: str) -> UrnSpec:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a spec is a JSON object")
    stray, missing = sorted(set(data) - _JSON_KEYS), sorted(_JSON_REQUIRED - set(data))
    if stray:
        raise ValueError(f"unknown spec keys: {', '.join(stray)}")
    if missing:
        raise ValueError(f"missing spec keys: {', '.join(missing)}")
    immigration = data.get("white_immigration")
    if immigration is not None:
        immigration = _json_nums(data, "white_immigration", array=True)
    return UrnSpec(
        family=_json_str(data, "family"),
        period=_json_int(data, "period"),
        initial=_json_nums(data, "initial", array=True),
        sigma=_json_nums(data, "sigma", array=False),
        ells=_json_nums(data, "ells", array=True),
        offset=_json_int(data, "offset", 0),
        sequence_name=_json_str(data, "sequence", optional=True),
        white_immigration=immigration,
    )
