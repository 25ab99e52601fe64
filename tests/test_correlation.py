"""Exact pair counts: frozen small-word oracles, engine agreement, and
conservation laws."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone.construction import (
    ConstructionSchedule,
    ConstantCuts,
    ExplicitCuts,
    PatternSpacers,
    StageSpacers,
    catalog,
    catalog_names,
    heights,
    realize,
)
from rankone.correlation import (
    LAG_CAP_DIVISOR,
    PAIR_CELL_LIMIT,
    PairCounter,
    corr_matrix,
    corr_sequence,
    lag_counts_block,
    lag_counts_naive,
)
from rankone.errors import LagOutOfRange, MissingLag
from rankone.words import alphabet_size, materialize_word


def _naive_counts(word, n, S):
    """Oracle: literal O(l^2-ish) pair count over a materialized word."""
    n = int(n)
    C = np.zeros((S, S), dtype=np.int64)
    if n >= 0:
        for p in range(len(word) - n):
            C[word[p], word[p + n]] += 1
    else:
        return _naive_counts(word, -n, S).T
    return C


def test_frozen_chacon_depth3_lag1():
    # W_3 = 00*00**
    rz = realize(catalog("chacon"), 3)
    pc = PairCounter(rz, 3, 1)
    assert pc.counts(1).tolist() == [[2, 2], [1, 1]]


def test_frozen_chacon_depth3_lag3():
    rz = realize(catalog("chacon"), 3)
    pc = PairCounter(rz, 3, 1)
    assert pc.counts(3).tolist() == [[2, 1], [0, 1]]


def test_lag_zero_is_diagonal_of_symbol_counts():
    rz = realize(catalog("modified-chacon"), 6)
    pc = PairCounter(rz, 6, 2)
    w = materialize_word(rz, 6, 2)
    S = alphabet_size(rz, 2)
    assert np.array_equal(
        pc.counts(0), np.diag(np.bincount(w, minlength=S))
    )


def test_negative_lag_is_transpose():
    rz = realize(catalog("chacon"), 8)
    pc = PairCounter(rz, 8, 1)
    for n in (1, 7, 31, 100):
        assert np.array_equal(pc.counts(-n), pc.counts(n).T)


def test_lag_at_word_length_rejected():
    rz = realize(catalog("chacon"), 5)
    pc = PairCounter(rz, 5, 1)
    with pytest.raises(LagOutOfRange):
        pc.counts(31)
    with pytest.raises(LagOutOfRange):
        pc.counts(-31)


def test_counter_matches_naive_oracle_across_lags():
    rz = realize(catalog("modified-chacon"), 7)
    j0 = 2
    pc = PairCounter(rz, 7, j0, materialize_cutoff=64, enum_cutoff=8)
    w = materialize_word(rz, 7, j0)
    S = alphabet_size(rz, j0)
    lJ = heights(rz, 7)[6]
    for n in [1, 2, 3, 5, 13, 40, 121, 364, 365, 1092, lJ - 1, -40, -364]:
        assert np.array_equal(pc.counts(n), _naive_counts(w, n, S)), n


def test_block_equals_naive_engine_every_catalog_map():
    for name in catalog_names():
        sched = catalog(name)
        if sched.kind != "transformation":
            continue
        seed = 9 if sched.stochastic else None
        rz = realize(sched, 30, seed=seed)
        hs = heights(rz, 30)
        J = max(j for j in range(2, 31) if hs[j - 1] <= 3000)
        lJ = hs[J - 1]
        lags = [1, 2, lJ // 3, lJ - 1, -(lJ // 2)]
        blk = lag_counts_block(
            rz, J, 1, lags, materialize_cutoff=32, enum_cutoff=4
        )
        naive = lag_counts_naive(rz, J, 1, lags, chunk_size=500)
        for n in lags:
            assert np.array_equal(blk[n], naive[n]), (name, n)


def test_corr_matrix_normalization_and_boundary():
    rz = realize(catalog("chacon"), 10)
    lJ = heights(rz, 10)[9]
    cm = corr_matrix(rz, 10, 1, 7)
    assert cm.lag == 7
    assert cm.word_length == lJ
    assert cm.boundary_error == 7 / lJ
    pc = PairCounter(rz, 10, 1)
    assert np.allclose(cm.matrix, pc.counts(7) / lJ)
    assert cm.matrix.sum() == pytest.approx(1.0 - 7 / lJ)


def test_corr_sequence_lookup_and_missing_lag():
    rz = realize(catalog("chacon"), 9)
    seq = corr_sequence(rz, 9, 1, [3, -3, 17])
    assert set(seq.lags) == {3, -3, 17}
    assert 3 in seq and 4 not in seq
    assert seq.matrix(17).lag == 17
    with pytest.raises(MissingLag):
        seq.matrix(4)


def test_corr_sequence_preserves_duplicate_free_order():
    rz = realize(catalog("chacon"), 9)
    seq = corr_sequence(rz, 9, 1, [5, 2, 5, 2, 9])
    assert [cm.lag for cm in seq] == [5, 2, 9]


def test_lag_cap_divisor_exported():
    assert LAG_CAP_DIVISOR == 4


@st.composite
def small_realization(draw):
    rs = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    vecs = []
    for r in rs:
        vecs.append(
            tuple(draw(st.integers(0, 2)) for _ in range(r))
        )
    J = draw(st.integers(2, 6))
    sched = ConstructionSchedule(
        "transformation", ExplicitCuts(rs), StageSpacers(vecs)
    )
    return realize(sched, J), J


@given(data=small_realization(), n=st.integers(-60, 60))
@settings(max_examples=60, deadline=None)
def test_pair_total_conservation(data, n):
    rz, J = data
    lJ = int(heights(rz, J)[J - 1])
    if abs(n) >= lJ:
        return
    pc = PairCounter(rz, J, 1, materialize_cutoff=16, enum_cutoff=4)
    assert pc.counts(n).sum() == lJ - abs(n)


@given(data=small_realization(), n=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_counts_match_oracle_on_random_schedules(data, n):
    rz, J = data
    lJ = int(heights(rz, J)[J - 1])
    if n >= lJ:
        return
    pc = PairCounter(rz, J, 1, materialize_cutoff=16, enum_cutoff=4)
    w = materialize_word(rz, J, 1)
    S = alphabet_size(rz, 1)
    assert np.array_equal(pc.counts(n), _naive_counts(w, n, S))


@given(chunk=st.integers(1, 400))
@settings(max_examples=25, deadline=None)
def test_naive_engine_chunking_invariance(chunk):
    rz = realize(catalog("modified-chacon"), 7)
    lags = [2, 121, -40]
    ref = lag_counts_naive(rz, 7, 1, lags, chunk_size=4000)
    got = lag_counts_naive(rz, 7, 1, lags, chunk_size=chunk)
    for n in lags:
        assert np.array_equal(ref[n], got[n])


def _window_kinds(pc, u):
    """One (lo, hi) per kind of window the word admits, placed by the draws u.

    Kinds: inside the prefix; anywhere but no longer than the prefix (so it
    crosses stage and spacer-run boundaries); longer than the prefix (the
    prefix-histogram difference branch of _hist); inside a base word longer
    than the prefix.
    """
    P, lJ, lb = len(pc.prefix), pc.lJ, pc.lengths[pc.j0 - 1]
    lo = u[0] % P
    out = [(lo, lo + 1 + u[1] % (P - lo))]
    lo = u[2] % lJ
    out.append((lo, min(lJ, lo + 1 + u[3] % P)))
    if lJ > P:
        size = P + 1 + u[4] % (lJ - P)
        lo = u[5] % (lJ - size + 1)
        out.append((lo, lo + size))
    if lb > P:
        lo = u[6] % lb
        out.append((lo, lo + 1 + u[7] % (lb - lo)))
    return out


@given(
    data=small_realization(),
    cutoff=st.sampled_from([4, 16]),
    j0=st.sampled_from([1, 2]),
    u=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
)
@example(
    data=(
        realize(
            ConstructionSchedule(
                "transformation", ConstantCuts(3), PatternSpacers((2, 0, 1))
            ),
            5,
        ),
        5,
    ),
    cutoff=4,
    j0=2,
    u=[3, 1, 50, 11, 30, 7, 2, 5],
)
@settings(max_examples=80, deadline=None)
def test_window_and_hist_match_materialized_word(data, cutoff, j0, u):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=4)
    w = materialize_word(rz, J, j0)
    for lo, hi in _window_kinds(pc, u):
        assert np.array_equal(pc._window(lo, hi), w[lo:hi]), (lo, hi)
        assert np.array_equal(
            pc._hist(lo, hi), np.bincount(w[lo:hi], minlength=pc.S)
        ), (lo, hi)


def test_window_every_range_of_a_small_word():
    # l_2 = 6 > cutoff 4, so base-word windows are read without the prefix
    rz = realize(
        ConstructionSchedule(
            "transformation", ConstantCuts(3), PatternSpacers((2, 0, 1))
        ),
        4,
    )
    w = materialize_word(rz, 4, 2)
    pc = PairCounter(rz, 4, 2, materialize_cutoff=4, enum_cutoff=4)
    assert pc.lengths[1] > len(pc.prefix)
    for lo in range(len(w)):
        for hi in range(lo + 1, len(w) + 1):
            assert np.array_equal(pc._window(lo, hi), w[lo:hi]), (lo, hi)
            assert np.array_equal(
                pc._hist(lo, hi), np.bincount(w[lo:hi], minlength=pc.S)
            ), (lo, hi)


@pytest.mark.parametrize("cutoffs", [{}, {"materialize_cutoff": 1024}])
def test_long_spacer_runs_match_naive_oracle(cutoffs):
    sched = ConstructionSchedule(
        "transformation", ConstantCuts(2), PatternSpacers((0, 3000))
    )
    J = 9
    rz = realize(sched, J)
    hs = heights(rz, J)
    assert 7e5 < hs[J - 1] < 2e6
    lags = [int(hs[J - 4]), -int(hs[J - 4]), int(hs[J - 5]) + 5]
    blk = lag_counts_block(rz, J, 1, lags, **cutoffs)
    naive = lag_counts_naive(rz, J, 1, lags)
    for n in lags:
        assert np.array_equal(blk[n], naive[n]), n


def test_corr_engines_agree_and_unknown_engine_rejected():
    rz = realize(catalog("modified-chacon"), 8)
    lags = [4, -13, 121]
    blk = corr_sequence(rz, 8, 2, lags)
    naive = corr_sequence(rz, 8, 2, lags, engine="naive")
    for n in lags:
        assert np.array_equal(blk.matrix(n).matrix, naive.matrix(n).matrix)
        one = corr_matrix(rz, 8, 2, n, engine="naive")
        assert np.array_equal(one.matrix, naive.matrix(n).matrix)
    for bad in ("auto", "Block", ""):
        with pytest.raises(ValueError, match="engine"):
            corr_sequence(rz, 8, 2, lags, engine=bad)
        with pytest.raises(ValueError, match="engine"):
            corr_matrix(rz, 8, 2, 4, engine=bad)


# ---------------------------------------------------------------------------
# k-point counts

# name -> (schedule, seed, depth, largest base stage: l_2 = 3002 on the
# long-spacer schedule, too many symbols for an S**3 tensor)
_TRIPLE_WORDS = {
    "chacon": (catalog("chacon"), None, 9, 2),
    "modified-chacon": (catalog("modified-chacon"), None, 7, 2),
    "stochastic-chacon": (catalog("stochastic-chacon"), 5, 8, 2),
    "long-spacer": (
        ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 3000))
        ),
        None,
        5,
        1,
    ),
}


def _brute_triple_counts(word, m, n, S):
    """Oracle: the triple tensor read off the materialized word."""
    low = min(0, m, n)
    width = max(0, m, n) - low
    L = len(word) - width
    a, b, c = (
        word[o : o + L].astype(np.int64) for o in (-low, m - low, n - low)
    )
    return np.bincount((a * S + b) * S + c, minlength=S**3).reshape(S, S, S)


@given(
    name=st.sampled_from(sorted(_TRIPLE_WORDS)),
    cutoff=st.sampled_from([4, 16, 64]),
    j0=st.sampled_from([1, 2]),
    kind=st.sampled_from(["free", "zero", "duplicate", "negative"]),
    u=st.lists(st.integers(0, 10**9), min_size=2, max_size=2),
)
@example(name="chacon", cutoff=4, j0=1, kind="zero", u=[0, 0])
@example(name="long-spacer", cutoff=16, j0=2, kind="duplicate", u=[3001, 0])
@settings(max_examples=60, deadline=None)
def test_triple_counts_match_brute_force(name, cutoff, j0, kind, u):
    sched, seed, J, top_j0 = _TRIPLE_WORDS[name]
    j0 = min(j0, top_j0)
    rz = realize(sched, J, seed=seed)
    w = materialize_word(rz, J, j0)
    S = alphabet_size(rz, j0)
    reach = len(w) // 3
    m, n = (x % (2 * reach + 1) - reach for x in u)
    if kind == "zero":
        m = 0
    elif kind == "duplicate":
        n = m
    elif kind == "negative":
        m, n = -abs(m) - 1, -abs(n)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=cutoff)
    assert np.array_equal(pc.triple_counts(m, n), _brute_triple_counts(w, m, n, S))


def test_triple_counts_at_depth_40_keep_window_and_marginals():
    rz = realize(catalog("chacon"), 40)
    hs = heights(rz, 40)
    pc = PairCounter(rz, 40, 3)
    for m, n in [(1, 2), (int(hs[36]), -int(hs[36]) - 5), (-int(hs[30]), 0)]:
        low = min(0, m, n)
        window = pc.lJ - (max(0, m, n) - low)
        T = pc.triple_counts(m, n)
        assert T.sum() == window
        for axis, off in enumerate((-low, m - low, n - low)):
            other = tuple(a for a in range(3) if a != axis)
            assert np.array_equal(T.sum(axis=other), pc._hist(off, off + window))


def test_triple_memo_stays_sparse_at_32_symbols():
    rz = realize(catalog("chacon"), 56)
    hs = heights(rz, 56)
    pc = PairCounter(rz, 56, 5)
    assert pc.S == 32
    for m, n in [(1, 2), (int(hs[50]), 2 * int(hs[50]) + 1), (-int(hs[40]) - 7, int(hs[52]))]:
        assert pc.triple_counts(m, n).sum() == pc.lJ - (max(0, m, n) - min(0, m, n))
    held = sum(codes.nbytes + counts.nbytes for codes, counts in pc._tmemo.values())
    # a dense (S, S, S) int64 entry alone takes 256 KiB
    assert len(pc._tmemo) > 100
    assert held < 8 << 20


# ---------------------------------------------------------------------------
# one-symbol spacer edges


@given(
    data=small_realization(),
    cutoff=st.sampled_from([1, 4, 16]),
    j0=st.sampled_from([1, 2]),
)
@example(  # prefix of 4 below the base word, l_2 = 6
    data=(
        realize(
            ConstructionSchedule(
                "transformation", ConstantCuts(3), PatternSpacers((2, 0, 1))
            ),
            5,
        ),
        5,
    ),
    cutoff=4,
    j0=2,
)
@example(data=(realize(catalog("chacon"), 3), 3), cutoff=16, j0=1)  # l_J = 7 < 16
@settings(max_examples=60, deadline=None)
def test_symbol_matches_materialized_word(data, cutoff, j0):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=4)
    w = materialize_word(rz, J, j0)
    for p in range(len(w)):
        assert pc._symbol(p) == w[p], p
    # a second pass reads the memo
    assert [pc._symbol(p) for p in range(len(w))] == w.tolist()


@pytest.mark.parametrize("name", ["chacon", "stochastic-chacon", "long-spacer"])
@pytest.mark.parametrize("cutoff", [1, 16])
def test_symbol_matches_named_words(name, cutoff):
    sched, seed, J, top_j0 = _TRIPLE_WORDS[name]
    rz = realize(sched, J, seed=seed)
    for j0 in sorted({1, top_j0}):
        pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff)
        w = materialize_word(rz, J, j0)
        assert [pc._symbol(p) for p in range(len(w))] == w.tolist(), j0


def _spacer_adjacent_lags(hs, j0, J):
    """l_j - 1, l_j, l_j + 1 and their negatives for j0 < j < J."""
    lags = []
    for j in range(j0 + 1, J):
        for n in (int(hs[j - 1]) - 1, int(hs[j - 1]), int(hs[j - 1]) + 1):
            lags += [n, -n]
    return lags


# name -> (schedule, seed, depth, base stage); every word is longer than
# the default materialize_cutoff
_EDGE_WORDS = {
    "chacon": (catalog("chacon"), None, 18, 2),
    "stochastic-chacon": (catalog("stochastic-chacon"), 5, 9, 2),
    "long-spacer": (
        ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 3000))
        ),
        None,
        7,
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(_EDGE_WORDS))
@pytest.mark.parametrize(
    "cutoffs", [{}, {"materialize_cutoff": 16, "enum_cutoff": 4}], ids=["default", "small"]
)
def test_counts_at_spacer_adjacent_lags_match_naive(name, cutoffs):
    sched, seed, J, j0 = _EDGE_WORDS[name]
    rz = realize(sched, J, seed=seed)
    lags = _spacer_adjacent_lags(heights(rz, J), j0, J)
    pc = PairCounter(rz, J, j0, **cutoffs)
    naive = lag_counts_naive(rz, J, j0, lags)
    for n in lags:
        assert np.array_equal(pc.counts(n), naive[n]), n
    assert pc._symbols  # the one-symbol edge path ran


def test_counts_do_not_depend_on_query_order():
    rz = realize(catalog("chacon"), 24)
    hs = heights(rz, 24)
    lags = _spacer_adjacent_lags(hs, 3, 22) + [int(hs[15]) + 7, -2 * int(hs[19]) + 3]
    shuffled = list(lags)
    random.Random(0).shuffle(shuffled)
    counters = []
    for order in (lags, lags[::-1], shuffled):
        pc = PairCounter(rz, 24, 3)
        got = {n: pc.counts(n) for n in order}
        counters.append((pc, got))
    (ref_pc, ref), *others = counters
    for pc, got in others:
        for n in lags:
            assert np.array_equal(got[n], ref[n]), n
        assert pc._symbols == ref_pc._symbols
    for n in lags[::7]:  # a counter that never saw another lag
        assert np.array_equal(PairCounter(rz, 24, 3).counts(n), ref[n]), n


def test_pair_alphabet_limit_refused_before_allocating():
    # base 2 of this schedule has 20017 symbols: one (S, S) table is 3.2 GB
    sched = ConstructionSchedule(
        "transformation", ConstantCuts(2), PatternSpacers((0, 20000)), h1=7
    )
    rz = realize(sched, 12)
    assert alphabet_size(rz, 2) ** 2 > PAIR_CELL_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="pair-count table"):
            PairCounter(rz, 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
