"""Periodic Stirling-type permutations with thick labels.

A word of order N over labels 1..N is built by repeated gap insertion: label
i contributes d plain copies, inserted as a contiguous run into a uniformly
random gap, and every label divisible by the period additionally appends t
marked copies at the end of the word.  Plain and marked copies of the same
label are distinct symbols.  Words are stored as signed integer sequences
(+i plain, -i marked).

A block is a maximal substring that starts and ends with the same symbol;
equivalently, merge the first-to-last spans of every symbol and count the
top-level intervals.  The batch simulator tracks only those spans, not the
words.  The block count follows a periodic triangular urn with extra
deterministic white input, implemented here next to the word process so the
two can be compared as independent pipelines.

Words are in bijection with forests of (d+1)-ary increasing trees whose
periodically immigrating roots have t usable child slots: read the forest by
a depth-first contour, writing an ordinary label between consecutive child
slots and a marked label before each root slot.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np

from .urns import Pmf, UrnSpec, _check_sizes, exact_pmf_dp, triangular, with_white_immigration

__all__ = [
    "gap_count",
    "stirling_count",
    "random_word",
    "all_words",
    "blocks",
    "block_count",
    "block_count_law",
    "block_count_urn",
    "block_count_pmf_from_urn",
    "simulate_block_counts",
    "word_to_forest",
    "forest_to_word",
]


def _check_params(d: int, p: int, t: int, N: int = 0) -> None:
    if d < 1 or p < 1 or t < 1:
        raise ValueError("need d >= 1, p >= 1, t >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")


def gap_count(d: int, p: int, t: int, N: int) -> int:
    """Number of insertion gaps in a word of order N (length + 1)."""
    return d * N + t * (N // p) + 1


def stirling_count(d: int, p: int, t: int, N: int) -> int:
    """Number of distinct words of order N: the product of the gap counts
    seen by labels 2..N."""
    _check_params(d, p, t, N)
    return prod(gap_count(d, p, t, j) for j in range(1, N))


def _insert(word: list[int], label: int, d: int, p: int, t: int, gap: int) -> list[int]:
    if not 0 <= gap <= len(word):
        raise ValueError("gap out of range")
    out = word[:gap] + [label] * d + word[gap:]
    if label % p == 0:
        out += [-label] * t
    return out


def random_word(d: int, p: int, t: int, N: int, rng) -> list[int]:
    _check_params(d, p, t, N)
    word: list[int] = []
    for i in range(1, N + 1):
        gap = int(rng.integers(0, len(word) + 1))
        word = _insert(word, i, d, p, t, gap)
    return word


# words all_words may build: 329,472 words of order 7 (d = 2, p = 2, t = 1)
# take about 2 s and 160 MB, so the guard admits that order and refuses the next
_WORD_GUARD = 500_000


def all_words(d: int, p: int, t: int, N: int) -> list[tuple[int, ...]]:
    """Exhaustive enumeration in insertion order (all words are distinct and
    equally likely); the cost guard rejects more than _WORD_GUARD words."""
    count = stirling_count(d, p, t, N)
    if count > _WORD_GUARD:
        raise ValueError(f"enumeration of {count} words exceeds guard {_WORD_GUARD}")
    words = [[]]
    for i in range(1, N + 1):
        words = [
            _insert(w, i, d, p, t, gap) for w in words for gap in range(len(w) + 1)
        ]
    return [tuple(w) for w in words]


def blocks(word) -> list[tuple[int, int]]:
    """Top-level [start, end] index intervals after merging every symbol's
    first-to-last span; symbol spans only nest or stay disjoint."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for pos, sym in enumerate(word):
        first.setdefault(sym, pos)
        last[sym] = pos
    out: list[tuple[int, int]] = []
    for sym in sorted(first, key=first.get):
        start, end = first[sym], last[sym]
        if out and start < out[-1][1]:
            if end > out[-1][1]:
                raise ValueError("symbol spans cross; not an insertion word")
            continue
        out.append((start, end))
    return out


def block_count(word) -> int:
    return len(blocks(word))


def block_count_law(d: int, p: int, t: int, N: int) -> Pmf:
    """Exact block-count distribution by exhaustive enumeration."""
    counts: dict[int, int] = {}
    words = all_words(d, p, t, N)
    for w in words:
        s = block_count(w)
        counts[s] = counts.get(s, 0) + 1
    total = len(words)
    support = sorted(counts)
    return Pmf(tuple(support), tuple(Fraction(counts[s], total) for s in support))


def block_count_urn(d: int, p: int, t: int) -> UrnSpec:
    """Two-color urn tracking gaps by kind: white gaps sit outside or between
    blocks (inserting there creates a block), black gaps sit inside one.

    Urn step j handles label j+1, so the thick phase is j = p-1 mod p.  A
    thick label's marked run turns one outside gap into two and leaves t-1
    inside gaps, hence the deterministic white input on the thick phase and
    a black refresh of d+t-2 instead of the ordinary d-1.  The block count
    of an order-N word is the white count after N-1 steps minus one.
    """
    _check_params(d, p, t)
    first = _insert([], 1, d, p, t, 0)
    w0 = block_count(first) + 1
    b0 = gap_count(d, p, t, 1) - w0
    base = triangular(p, 1, d - 1, d + t - 2, w0, b0, offset=(p - 1) % p)
    imm = [0] * p
    imm[(p - 2) % p] = 1
    return with_white_immigration(base, imm)


def block_count_pmf_from_urn(spec: UrnSpec, N: int) -> Pmf:
    """Block-count law of an order-N word from an urn: white after N-1 steps,
    shifted down by one.  The empty word (N = 0) has no blocks."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return Pmf((0,), (Fraction(1),))
    pmf = exact_pmf_dp(spec, N - 1)
    return pmf.map_support(lambda w: w - 1)


# Replicates per block of the span shifts, so one block's spans stay small.
# Measured at N = 8 / N = 30 with 10^5 replicates (2 vCPUs, numpy 2.4.6):
# 24.3 / 161.5 ms at 1,024; 20.0 / 168.6 ms at 4,096; 23.0 / 227.7 ms at
# 16,384; 24.1 / 264.5 ms as one block.
_SPAN_BLOCK = 4096


def simulate_block_counts(
    d: int, p: int, t: int, N: int, n_reps: int, seed: int
) -> np.ndarray:
    """Block counts of n_reps independent random words.  The words are not
    built: each symbol keeps the positions of its first and last copy, one
    row per symbol (plain labels and the marked runs of thick labels), and a
    label's gap shifts every tracked position at or after it by d.  Every
    label's gaps are drawn first, one stream call per label, and the spans
    are then tracked over blocks of _SPAN_BLOCK replicates."""
    _check_params(d, p, t)
    _check_sizes(N, n_reps)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    gaps = np.empty((N, n_reps), dtype=np.int32)  # label i's gap in row i - 1
    for i in range(1, N + 1):
        gaps[i - 1] = rng.integers(0, gap_count(d, p, t, i - 1), size=n_reps)
    out = np.empty(n_reps, dtype=np.int64)
    for lo in range(0, n_reps, _SPAN_BLOCK):
        block = slice(lo, lo + _SPAN_BLOCK)
        out[block] = _span_block_counts(_spans(gaps[:, block], d, p, t))
    return out


def _spans(gaps: np.ndarray, d: int, p: int, t: int) -> np.ndarray:
    """The [symbol, first/last, replicate] positions of the words that the
    (label, replicate) gaps build."""
    N, n_reps = gaps.shape
    ends = np.empty((N + N // p, 2, n_reps), dtype=np.int32)
    k = L = 0  # symbols so far, word length
    for i in range(1, N + 1):
        gap = gaps[i - 1]
        ends[:k] += (ends[:k] >= gap) * np.int32(d)
        ends[k, 0], ends[k, 1] = gap, gap + (d - 1)
        k, L = k + 1, L + d
        if i % p == 0:
            ends[k, 0], ends[k, 1] = L, L + t - 1
            k, L = k + 1, L + t
    return ends


def _span_block_counts(ends: np.ndarray) -> np.ndarray:
    """Block counts from the [symbol, first/last, replicate] positions of
    words whose symbol spans only nest or stay disjoint: with firsts and
    lasts each sorted, a block ends after the j-th smallest last iff the
    (j+1)-th smallest first lies beyond it.  A word with no symbols has no
    blocks."""
    if not len(ends):
        return np.zeros(ends.shape[2], dtype=np.int64)
    ends = np.sort(ends, axis=0)
    return (ends[1:, 0] > ends[:-1, 1]).sum(axis=0) + 1


# ---------------------------------------------------------------------------
# bijection with (d+1)-ary increasing forests

# A forest is a dict: key 1 (the original tree's root label), other ordinary
# labels, and ("root", m) for the m-th immigrant root; value is the list of
# child keys by slot (None for empty), length d+1 for ordinary labels and t
# for immigrant roots.


def forest_to_word(forest: dict, d: int, p: int, t: int, N: int) -> list[int]:
    def code_ordinary(key) -> list[int]:
        if key is None:
            return []
        slots = forest[key]
        if len(slots) != d + 1:
            raise ValueError(f"ordinary label {key!r} needs {d + 1} slots")
        out = code_ordinary(slots[0])
        for child in slots[1:]:
            out += [key] + code_ordinary(child)
        return out

    def code_root(m: int) -> list[int]:
        slots = forest[("root", m)]
        if len(slots) != t:
            raise ValueError(f"immigrant root {m} needs {t} slots")
        out: list[int] = []
        for child in slots:
            out += [-(m * p)] + code_ordinary(child)
        return out

    word = code_ordinary(1 if 1 in forest else None)
    for m in range(1, N // p + 1):
        word += code_root(m)
    return word


def word_to_forest(word, d: int, p: int, t: int) -> dict:
    word = list(word)
    plain = sorted({s for s in word if s > 0})
    N = max(plain) if plain else 0
    forest: dict = {}

    def parse_ordinary(segment) -> object:
        if not segment:
            return None
        if min(segment) < 0:
            raise ValueError("marked copy inside an ordinary segment")
        v = min(segment)
        pos = [i for i, s in enumerate(segment) if s == v]
        if len(pos) != d:
            raise ValueError(f"label {v} occurs {len(pos)} times, expected {d}")
        bounds = [-1] + pos + [len(segment)]
        forest[v] = [
            parse_ordinary(segment[bounds[i] + 1 : bounds[i + 1]])
            for i in range(d + 1)
        ]
        return v

    marks = [i for i, s in enumerate(word) if s < 0]
    n = N // p
    if len(marks) != n * t:
        raise ValueError("marked copy count does not match the period")
    starts = []
    for m in range(1, n + 1):
        label = -(m * p)
        pos = [i for i in marks if word[i] == label]
        if len(pos) != t:
            raise ValueError(f"thick label {m * p} needs {t} marked copies")
        starts.append(pos[0])
    if starts != sorted(starts):
        raise ValueError("immigrant root segments out of creation order")
    boundaries = starts + [len(word)]
    tree1 = word[: boundaries[0]] if starts else word
    parse_ordinary(tree1)
    for m in range(1, n + 1):
        segment = word[boundaries[m - 1] : boundaries[m]]
        label = -(m * p)
        pos = [i for i, s in enumerate(segment) if s == label]
        if pos[0] != 0:
            raise ValueError("root segment must start with its marked copy")
        bounds = pos + [len(segment)]
        forest[("root", m)] = [
            parse_ordinary(segment[bounds[i] + 1 : bounds[i + 1]]) for i in range(t)
        ]
    return forest
