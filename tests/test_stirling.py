"""Thick-label gap-insertion words: counts, blocks, urn route, bijection."""

from fractions import Fraction

import numpy as np
import pytest

from kernel_reference import historical_block_count_urn
from polyaurn.stirling import (
    all_words,
    block_count,
    block_count_law,
    block_count_pmf_from_urn,
    block_count_urn,
    blocks,
    forest_to_word,
    gap_count,
    random_word,
    simulate_block_counts,
    stirling_count,
    word_to_forest,
)

FIGURE_WORD = [2, 3, 3, 2, 1, 1, -2, -2, 4, 4, -2, -4, -4, -4]  # d=2, p=2, t=3


def test_gap_and_word_counts_frozen():
    assert gap_count(3, 2, 1, 2) == 8
    assert stirling_count(1, 2, 1, 5) == 280
    assert stirling_count(2, 1, 1, 3) == 28
    assert stirling_count(3, 2, 1, 3) == 32
    with pytest.raises(ValueError):
        stirling_count(0, 2, 1, 3)


def test_all_words_distinct_and_counted():
    for d, p, t, N in [(1, 2, 1, 4), (2, 2, 1, 3), (2, 3, 2, 3)]:
        words = all_words(d, p, t, N)
        assert len(words) == stirling_count(d, p, t, N)
        assert len(set(words)) == len(words)
        length = d * N + t * (N // p)
        assert all(len(w) == length for w in words)


def test_figure_word_blocks():
    assert blocks(FIGURE_WORD) == [(0, 3), (4, 5), (6, 10), (11, 13)]
    assert block_count(FIGURE_WORD) == 4


def test_blocks_rejects_crossing_spans():
    with pytest.raises(ValueError):
        blocks([1, 2, 1, 2])


def test_thin_words_have_deterministic_block_count():
    # d = 1, t = 1: every symbol occupies a single position, so nothing ever
    # nests and the block count equals the word length
    for N in (3, 4, 5):
        law = block_count_law(1, 2, 1, N)
        assert law.support == (N + N // 2,)
        assert law.probs == (Fraction(1),)


def test_block_count_law_frozen():
    law = block_count_law(2, 2, 1, 3)
    assert law.as_dict() == {
        2: Fraction(1, 6),
        3: Fraction(7, 18),
        4: Fraction(4, 9),
    }


def test_block_count_urn_setup():
    urn = block_count_urn(2, 2, 1)
    assert urn.initial == (2, 1)
    assert urn.offset == 1
    assert urn.white_immigration == (1, 0)


@pytest.mark.parametrize("d,p,t", [(1, 2, 1), (2, 2, 1), (2, 3, 2), (1, 1, 2), (3, 2, 1)])
def test_urn_route_matches_enumeration_exactly(d, p, t):
    urn = block_count_urn(d, p, t)
    for N in range(1, 5):
        assert block_count_pmf_from_urn(urn, N) == block_count_law(d, p, t, N)


def test_historical_urn_does_not_reproduce_the_words():
    d, p, t = 1, 2, 1
    hist = historical_block_count_urn(d, p, t)
    # the historical claim adds the thick-label count N // p to the blocks
    got = block_count_pmf_from_urn(hist, 3).map_support(lambda b: b + 3 // p)
    assert float(got.tv_distance(block_count_law(d, p, t, 3))) == pytest.approx(0.25)


@pytest.mark.parametrize("d,p,t,N", [(1, 2, 1, 4), (2, 2, 1, 4), (2, 3, 2, 4)])
def test_bijection_roundtrip_exhaustive(d, p, t, N):
    for w in all_words(d, p, t, N):
        forest = word_to_forest(w, d, p, t)
        assert tuple(forest_to_word(forest, d, p, t, N)) == w


def test_bijection_roundtrip_random_words():
    for d, p, t in [(2, 2, 1), (3, 2, 2), (2, 3, 3)]:
        for seed in range(3):
            rng = np.random.Generator(np.random.PCG64(seed))
            w = random_word(d, p, t, 300, rng)
            forest = word_to_forest(w, d, p, t)
            assert forest_to_word(forest, d, p, t, 300) == w


def test_figure_word_forest_structure():
    forest = word_to_forest(FIGURE_WORD, 2, 2, 3)
    assert set(forest) == {1, 2, 3, 4, ("root", 1), ("root", 2)}
    assert forest[1] == [2, None, None]
    assert forest[2] == [None, 3, None]
    assert forest[("root", 1)] == [None, 4, None]
    assert forest[("root", 2)] == [None, None, None]
    assert forest_to_word(forest, 2, 2, 3, 4) == FIGURE_WORD


def test_word_to_forest_validates():
    with pytest.raises(ValueError):
        word_to_forest([1, 1, 1], 2, 2, 1)  # wrong plain multiplicity
    with pytest.raises(ValueError):
        word_to_forest([1, -2, 1, -2], 2, 2, 1)  # wrong marked-copy count


def test_random_word_deterministic_and_parseable():
    a = random_word(2, 2, 1, 50, np.random.Generator(np.random.PCG64(5)))
    b = random_word(2, 2, 1, 50, np.random.Generator(np.random.PCG64(5)))
    assert a == b
    word_to_forest(a, 2, 2, 1)


def test_simulated_block_counts_match_law():
    d, p, t, N = 2, 2, 1, 6
    law = block_count_law(d, p, t, N)
    vals = simulate_block_counts(d, p, t, N, n_reps=20_000, seed=17)
    emp = {int(v): c / len(vals) for v, c in zip(*np.unique(vals, return_counts=True))}
    tv = 0.5 * sum(
        abs(emp.get(k, 0.0) - float(prob)) for k, prob in law.as_dict().items()
    ) + 0.5 * sum(v for k, v in emp.items() if k not in law.as_dict())
    assert tv < 0.02, tv
    again = simulate_block_counts(d, p, t, N, n_reps=100, seed=17)
    assert np.array_equal(again, simulate_block_counts(d, p, t, N, n_reps=100, seed=17))
