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
from typing import Callable, Sequence

import numpy as np

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
    """Immutable urn model description.

    The drawn color gains sigma; the last color additionally gains an ell at
    every step, from phase_ells or from a named sequence (see _step_rule);
    color 0 may receive a deterministic immigration amount per step
    (white_immigration, periodic).  kind is always "py_like".
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
        """The one shape rule, which every constructor and spec_from_json run:
        a period >= 1; either one phase_ells entry per phase or a registered
        sequence with two sequence_ells (and period 1); for the periodic
        families, an offset in [0, period) and the phase_ells that _periodic
        builds from their ell fields; white immigration only on two colors,
        one amount per phase; then the signs of the values."""
        if self.colors != len(self.initial):
            raise ValueError("initial counts length must equal number of colors")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.kind != "py_like":
            raise ValueError(f"unknown urn kind {self.kind!r}")
        if (self.phase_ells is None) == (self.sequence_name is None and self.sequence_ells is None):
            raise ValueError("a spec takes phase_ells or a sequence, exactly one of them")
        if self.phase_ells is not None:
            if len(self.phase_ells) != self.period:
                raise ValueError("need one phase_ells entry per phase")
        else:
            if self.sequence_name not in _SEQUENCES:
                raise ValueError(f"unknown sequence {self.sequence_name!r}; "
                                 f"known: {sorted(_SEQUENCES)}")
            if self.sequence_ells is None or len(self.sequence_ells) != 2:
                raise ValueError("sequence urns take exactly two off-diagonal values")
            if self.period != 1:
                raise ValueError("sequence urns have period 1")
        if self.family in _CANONICAL:
            names = _CANONICAL[self.family]
            ordinary, refresh = (getattr(self, n) if n else 0 for n in names)
            if not 0 <= self.offset < self.period:
                raise ValueError(f"offset must be in [0, period), got {self.offset}")
            if self.phase_ells != _phases(self.period, ordinary, refresh, self.offset):
                raise ValueError(f"phase_ells disagree with the {self.family} family's "
                                 f"{', '.join(filter(None, names))} and offset")
        if self.white_immigration is not None:
            if self.colors != 2:
                raise ValueError("white immigration is defined for two-color py_like specs")
            if len(self.white_immigration) != self.period:
                raise ValueError("need one immigration amount per phase")
        if self.sigma is None or not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.initial or not self.initial[0] > 0:
            raise ValueError("color 0 must start positive")
        if any(c < 0 for c in self.initial):
            raise ValueError("initial counts must be non-negative")
        if any(e < 0 for e in self.phase_ells or self.sequence_ells):
            raise ValueError("schedule additions must be non-negative")
        if any(v < 0 for v in self.white_immigration or ()):
            raise ValueError("immigration amounts must be non-negative")


def _phases(p: int, ordinary, refresh, offset: int) -> tuple:
    """The phase_ells of a periodic spec: `refresh` at steps = offset (mod p),
    `ordinary` at the others."""
    return tuple(refresh if (i + 1 - offset) % p == 0 else ordinary for i in range(p))


# family -> the canonical fields (ordinary ell, refresh ell) that _periodic
# builds its phases from; None stands for an ordinary ell of 0
_CANONICAL = {"polya_young": (None, "ell"), "multicolor": (None, "ell"),
              "triangular": ("ell1", "ell2")}


def _periodic(family: str, p: int, sigma, ordinary, refresh, initial, offset: int = 0,
              **canonical) -> UrnSpec:
    """A periodic spec whose last color gains `refresh` at steps = offset
    (mod p) and `ordinary` at the others.  A period below 1 gives no phases
    and leaves the offset as it is, so it reaches validate, which refuses it."""
    spec = UrnSpec(kind="py_like", family=family, colors=len(initial), period=p,
                   initial=initial, sigma=sigma, phase_ells=_phases(p, ordinary, refresh, offset),
                   offset=offset % max(p, 1), **canonical)
    spec.validate()
    return spec


def polya_young(p: int, sigma, ell, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic urn: diagonal steps plus an off-diagonal refresh of
    size ell into the black column at steps = offset (mod p)."""
    sigma, ell, w0, b0 = _num(sigma), _num(ell), _num(w0), _num(b0)
    return _periodic("polya_young", p, sigma, sigma * 0, ell, (w0, b0), offset, ell=ell)


def triangular(p: int, sigma, ell1, ell2, w0, b0, offset: int = 0) -> UrnSpec:
    """Two-color periodic triangular urn: off-diagonal ell1 at ordinary steps,
    ell2 at steps = offset (mod p)."""
    sigma, ell1, ell2, w0, b0 = map(_num, (sigma, ell1, ell2, w0, b0))
    return _periodic("triangular", p, sigma, ell1, ell2, (w0, b0), offset, ell1=ell1, ell2=ell2)


def multicolor_polya_young(p: int, sigma, ell, initial) -> UrnSpec:
    """t-color periodic urn: drawn color gains sigma; the last color gains ell
    at steps that are multiples of p."""
    sigma, ell = _num(sigma), _num(ell)
    return _periodic("multicolor", p, sigma, sigma * 0, ell, _num_tuple(initial), ell=ell)


def sequence_urn(sequence: str, sigma, ells, w0, b0) -> UrnSpec:
    """Two-color urn driven by a named {1,2}-valued sequence: step i applies
    the matrix with off-diagonal ells[b_i - 1]."""
    spec = UrnSpec(
        kind="py_like", family="sequence", colors=2, period=1,
        initial=(_num(w0), _num(b0)), sigma=_num(sigma), sequence_name=sequence,
        sequence_ells=_num_tuple(ells),
    )
    spec.validate()
    return spec


def with_white_immigration(spec: UrnSpec, per_phase: Sequence) -> UrnSpec:
    """Attach deterministic per-phase additions to color 0 (applied at every
    step i with amount per_phase[(i-1) % period], after the draw)."""
    spec = replace(spec, white_immigration=_num_tuple(per_phase), family="custom")
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# per-step schedule resolution and totals


def _step_rule(spec: UrnSpec, N: int) -> tuple[list, np.ndarray]:
    """The package's one step rule: (rows, kind) for steps 1..N.  A row is an
    (ell, immigration) pair of additions in the spec's own numbers, ell into
    the last color and immigration into color 0: one row per phase, or one
    per sequence value.  kind[i - 1] is the row of step i over one cycle of
    steps (the period, or steps 1..max(N, 1) of a sequence spec), which
    repeats to cover steps 1..N.  Only the rows some step of the cycle reads
    are kept."""
    imm = spec.white_immigration or (0,) * spec.period
    if spec.sequence_name is not None:
        kind = _SEQUENCES[spec.sequence_name](max(N, 1) + 1)[1:] - 1
        rows = [(e, imm[0]) for e in spec.sequence_ells]
    else:
        kind = np.arange(spec.period)
        rows = list(zip(spec.phase_ells, imm))
    used = np.bincount(kind, minlength=len(rows)) > 0
    return [row for row, u in zip(rows, used) if u], (np.cumsum(used) - 1)[kind]


def immigration_at(spec: UrnSpec, i: int):
    """Addition to color 0 at step i (1-based), for callers outside the
    package; the package itself reads _step_rule."""
    if spec.white_immigration is None:
        return 0
    return spec.white_immigration[(i - 1) % spec.period]


@dataclass(frozen=True)
class Schedule:
    """Deterministic step schedule up to step N, as integers over one common
    denominator d: totals[j] = d*T_j for j = 0..N; ells and imm hold d*ell and
    d*immigration of each step over one cycle of steps i = 1, 2, ... (see
    _step_rule), which repeats to cover steps 1..N.  The arrays are int64
    while every value stays below 2**53 and hold Python ints beyond, so they
    never wrap."""

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
    """Step schedule of `spec` for steps 1..N, from the rows of _step_rule.

    The common denominator covers the rows the cycle uses.  The totals are
    the running sum of the per-step additions, which by balance do not depend
    on the drawn color."""
    if N < 0:
        raise ValueError("N must be >= 0")
    rows, kind = _step_rule(spec, N)
    rows = [tuple(map(Fraction, row)) for row in rows]
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


def empirical_pmf(samples) -> Pmf:
    """Observed law of an array of samples: sorted distinct values and their
    shares as Fractions."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    n = int(counts.sum())
    return Pmf(tuple(values.tolist()), tuple(Fraction(c, n) for c in counts.tolist()))


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
        num = lambda a: int(a * d)
        cdtype = np.int64 if int(sched.totals[-1]) < 2**63 else object
        wdtype = np.int64 if den < 2**63 else object  # a path weight is at most den
    else:
        num, cdtype, wdtype = (lambda a: a), object, float
    rows, kind = _step_rule(spec, N)
    ells, imms = ([num(rows[k][c]) for k in _per_step(kind, N)] for c in (0, 1))
    # the terms of each step, row k when colour k is drawn: sigma to colour k,
    # ell to the last colour, immigration to colour 0; integers add in one go
    rules = np.zeros((N, 3, K, K), cdtype)
    rules[:, 0, range(K), range(K)] = num(spec.sigma)
    rules[:, 1, :, -1] = np.array(ells, cdtype)[:, None]
    rules[:, 2, :, 0] = np.array(imms, cdtype)[:, None]
    if exact:
        rules = rules.sum(axis=1, keepdims=True)
    acc = {}
    stack = [(0, np.array([[num(c) for c in spec.initial]], cdtype), np.ones(1, wdtype))]
    while stack:
        i, counts, weight = stack.pop()
        if i == N:
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
    support = sorted(acc)
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
