"""Symbolic words over the level alphabet of a base stage."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import catalog, heights, realize
from rankone.errors import DepthOverBudget
from rankone.words import (
    alphabet_size,
    base_word,
    default_base_stage,
    expand_once,
    level_measures,
    materialize_word,
    spacer_symbol,
    stream_word,
)


def _word_str(arr, star):
    return "".join("*" if int(s) == star else str(int(s)) for s in arr)


def test_chacon_word_expansion_steps():
    rz = realize(catalog("chacon"), 4)
    star = spacer_symbol(rz, 1)
    w1 = base_word(rz, 1)
    assert _word_str(w1, star) == "0"
    r1, vec1 = rz.stage(1)
    w2 = expand_once(w1, r1, vec1, star)
    assert _word_str(w2, star) == "00*"
    r2, vec2 = rz.stage(2)
    w3 = expand_once(w2, r2, vec2, star)
    assert _word_str(w3, star) == "00*00**"


def test_modified_chacon_first_expansion():
    rz = realize(catalog("modified-chacon"), 3)
    star = spacer_symbol(rz, 1)
    r1, vec1 = rz.stage(1)
    w2 = expand_once(base_word(rz, 1), r1, vec1, star)
    assert _word_str(w2, star) == "00*0"


def test_materialize_matches_expansion():
    rz = realize(catalog("chacon"), 6)
    star = spacer_symbol(rz, 1)
    w = materialize_word(rz, 6, 1)
    assert len(w) == 2**6 - 1
    cur = base_word(rz, 1)
    for j in range(1, 6):
        r, vec = rz.stage(j)
        cur = expand_once(cur, r, vec, star)
    assert np.array_equal(w, cur)


def test_words_are_nested_prefixes():
    rz = realize(catalog("modified-chacon"), 7)
    big = materialize_word(rz, 7, 1)
    hs = heights(rz, 7)
    for j in range(2, 7):
        small = materialize_word(rz, j, 1)
        assert np.array_equal(big[: hs[j - 1]], small)


def test_alphabet_size_counts_levels_plus_star():
    rz = realize(catalog("chacon"), 8)
    hs = heights(rz, 8)
    for j0 in (1, 2, 3):
        assert alphabet_size(rz, j0) == hs[j0 - 1] + 1


def test_star_is_last_symbol():
    rz = realize(catalog("chacon"), 8)
    assert spacer_symbol(rz, 3) == alphabet_size(rz, 3) - 1


def test_base_word_at_higher_stage_is_identity_ramp():
    rz = realize(catalog("chacon"), 8)
    w = base_word(rz, 3)
    assert np.array_equal(w, np.arange(2**3 - 1))


def test_stream_equals_materialize():
    rz = realize(catalog("modified-chacon"), 9)
    whole = materialize_word(rz, 9, 2)
    got = np.concatenate(list(stream_word(rz, 9, 2, chunk_size=1000)))
    assert np.array_equal(whole, got)


@given(chunk=st.integers(min_value=1, max_value=5000))
@settings(max_examples=20, deadline=None)
def test_stream_chunking_invariance(chunk):
    rz = realize(catalog("chacon"), 9)
    whole = materialize_word(rz, 9, 1)
    got = np.concatenate(list(stream_word(rz, 9, 1, chunk_size=chunk)))
    assert np.array_equal(whole, got)


def test_default_base_stage_targets_small_alphabet():
    rz = realize(catalog("chacon"), 12)
    j0 = default_base_stage(rz)
    hs = heights(rz, 12)
    assert hs[j0 - 1] >= 8
    assert j0 == 1 or hs[j0 - 2] < 8


def test_level_measures_chacon():
    rz = realize(catalog("chacon"), 3)
    mu = level_measures(rz, 3, 1)
    assert mu == [Fraction(4, 7), Fraction(3, 7)]


def test_level_measures_sum_to_one_and_match_word():
    rz = realize(catalog("modified-chacon"), 8)
    j0 = 2
    mu = level_measures(rz, 8, j0)
    assert sum(mu) == 1
    w = materialize_word(rz, 8, j0)
    counts = np.bincount(w, minlength=alphabet_size(rz, j0))
    for a, m in enumerate(mu):
        assert Fraction(int(counts[a]), len(w)) == m


def test_level_measures_levels_are_equal_mass():
    # every non-star level is one cell of the same tower
    rz = realize(catalog("spaced-odometer5"), 6)
    mu = level_measures(rz, 6, 2)
    levels = mu[:-1]
    assert len(set(levels)) == 1


def test_materialize_budget_guard():
    rz = realize(catalog("chacon"), 40)
    with pytest.raises(DepthOverBudget):
        materialize_word(rz, 40, 1, budget=10**6)


def test_stream_budget_guard():
    rz = realize(catalog("chacon"), 40)
    gen = stream_word(rz, 40, 1, budget=10**6)
    with pytest.raises(DepthOverBudget):
        next(gen)
