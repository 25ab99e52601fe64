"""Exact pair counts: frozen small-word oracles, engine agreement, and
conservation laws."""

import hashlib
import random
import tracemalloc
from collections import Counter

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
from rankone import correlation
from rankone.config import parse_config
from rankone.correlation import (
    LAG_CAP_DIVISOR,
    PAIR_CELL_LIMIT,
    PairCounter,
    lag_counts_block,
    lag_counts_naive,
    unit_mass,
)
from rankone.diagnostics import limit_scan
from rankone.errors import LagOutOfRange
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
    with pytest.raises(LagOutOfRange):
        pc.counts_many([1, 2, -31])


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


def test_unit_mass_normalizes_over_the_window():
    rz = realize(catalog("chacon"), 10)
    pc = PairCounter(rz, 10, 1)
    for n in (0, 7, -7, pc.lJ - 1):
        c = pc.counts(n)
        d = unit_mass(c, n, pc.lJ)
        assert d.dtype == np.float64
        assert np.array_equal(d, c / (pc.lJ - abs(n)))
        assert d.sum() == pytest.approx(1.0, abs=1e-12), n


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


@pytest.mark.parametrize("j0", [4, 5])
def test_naive_engine_byte_and_wide_pair_codes(j0):
    # chacon's base j0 has S = 2**j0 symbols: 256 pair codes fit a byte at
    # j0 = 4, 1024 do not at j0 = 5
    rz = realize(catalog("chacon"), 11)
    lags = [1, 2, 31, 300, -17]
    got = lag_counts_naive(rz, 11, j0, lags, chunk_size=333)
    want = PairCounter(rz, 11, j0).counts_many(lags)
    for n in lags:
        assert np.array_equal(got[n], want[n]), n


def _window_kinds(pc, u):
    """One (lo, hi) per kind of window the word admits, placed by the draws u.

    Kinds: inside the prefix; anywhere but no longer than the prefix (so it
    crosses stage and spacer-run boundaries); longer than the prefix; inside
    a base word longer than the prefix. _hist reads the ones of at most
    enum_cutoff symbols and takes the rest by the prefix descent.
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
    w = materialize_word(rz, J, j0)
    for enum in (1, 4):  # at 1 every _hist range of two or more symbols descends
        pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=enum)
        for lo, hi in _window_kinds(pc, u):
            assert np.array_equal(pc._window(lo, hi), w[lo:hi]), (lo, hi)
            assert np.array_equal(
                pc._hist(lo, hi), np.bincount(w[lo:hi], minlength=pc.S)
            ), (enum, lo, hi)


def test_window_every_range_of_a_small_word():
    # l_2 = 6 > cutoff 4, so base-word windows are read without the prefix
    rz = realize(
        ConstructionSchedule(
            "transformation", ConstantCuts(3), PatternSpacers((2, 0, 1))
        ),
        4,
    )
    w = materialize_word(rz, 4, 2)
    for enum in (1, 4):
        pc = PairCounter(rz, 4, 2, materialize_cutoff=4, enum_cutoff=enum)
        assert pc.lengths[1] > len(pc.prefix)
        for lo in range(len(w)):
            for hi in range(lo + 1, len(w) + 1):
                assert np.array_equal(pc._window(lo, hi), w[lo:hi]), (lo, hi)
                assert np.array_equal(
                    pc._hist(lo, hi), np.bincount(w[lo:hi], minlength=pc.S)
                ), (enum, lo, hi)


def test_empty_window_past_the_prefix():
    # chacon J=30, j0=3: 65,541 and l_21 + 7 lie past the prefix and not at
    # a stage end (the layout walk), l_26 at one (the nested-tail jump)
    pc = PairCounter(realize(catalog("chacon"), 30), 30, 3)
    for lo in (65_541, pc.lengths[20] + 7, pc.lengths[25]):
        assert lo > len(pc.prefix)
        got = pc._window(lo, lo)
        assert got.dtype == correlation.DTYPE and got.size == 0, lo
        assert np.array_equal(pc._hist(lo, lo), np.zeros(pc.S, dtype=np.int64)), lo


def _assert_hists_match(pc, w, ranges):
    """_hist over each range, _prefix_hist at each range end and
    _word_counts at each stage against the materialized word."""
    S = pc.S
    for lo, hi in ranges:
        assert np.array_equal(pc._hist(lo, hi), np.bincount(w[lo:hi], minlength=S)), (lo, hi)
        for x in (lo, hi):
            assert np.array_equal(pc._prefix_hist(x), np.bincount(w[:x], minlength=S)), x
    for j in range(pc.j0, pc.J + 1):
        want = np.bincount(w[: pc.lengths[j - 1]], minlength=S)
        assert np.array_equal(pc._word_counts(j), want), j


def test_prefix_descent_through_a_wide_stage():
    # stage 2 has 240 cuts: the descent bisects its layout and reads the
    # block count before the segment it lands in
    rng = random.Random(5)
    vecs = [(1, 0, 2), tuple(rng.choice((0, 0, 1, 3)) for _ in range(240)), (2, 1)]
    sched = ConstructionSchedule(
        "transformation", ExplicitCuts([len(v) for v in vecs]), StageSpacers(vecs), h1=1
    )
    J = 4
    rz = realize(sched, J)
    for j0 in (1, 2):
        w = materialize_word(rz, J, j0)
        pc = PairCounter(rz, J, j0, materialize_cutoff=16, enum_cutoff=4)
        assert len(pc._layout(3)[0]) > 200
        ranges = [(0, x) for x in range(pc.lJ + 1)]
        for _ in range(300):
            lo = rng.randrange(pc.lJ)
            ranges.append((lo, rng.randrange(lo + 1, pc.lJ + 1)))
        _assert_hists_match(pc, w, ranges)


def test_hist_of_whole_spacer_runs_at_default_cutoffs():
    # pattern:0,3000: W_j = W_{j-1} W_{j-1} and 3000 stars, so the star runs
    # (3000 long, or longer where copies end together) exceed enum_cutoff;
    # ranges around each run take the descent, and W_6 is longer than the
    # prefix
    J = 6
    rz = realize(
        ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 3000)), h1=7
        ),
        J,
    )
    w = materialize_word(rz, J, 1)
    pc = PairCounter(rz, J, 1)
    star = w == pc.star
    edges = np.flatnonzero(np.diff(star.astype(np.int8))) + 1
    runs = [(a, b) for a, b in zip(edges, edges[1:]) if star[a]]
    assert len(runs) > 10 and min(b - a for a, b in runs) == 3000
    ranges = []
    for a, b in runs:
        ranges += [(a, b), (a - 1, b + 1), (max(0, a - 5000), min(pc.lJ, b + 7))]
    ranges += [(runs[0][0] - 3, runs[-1][1] + 2), (0, pc.lJ), (1, pc.lJ - 1)]
    assert max(hi - lo for lo, hi in ranges) > len(pc.prefix)
    _assert_hists_match(pc, w, [(int(lo), int(hi)) for lo, hi in ranges])


def test_long_spacer_counts_read_no_long_window(monkeypatch):
    # the benchmark's long-spacer word: its star runs of 20000 are
    # histogrammed by the prefix descent, so no read window is longer than
    # the 4 enum_cutoff bound of a leaf inside the prefix
    sched = ConstructionSchedule(
        "transformation", ConstantCuts(2), PatternSpacers((0, 20000)), h1=7
    )
    J = 12
    pc = PairCounter(realize(sched, J), J, 1)
    asked = []
    window = PairCounter._window

    def spy(self, lo, hi):
        asked.append(hi - lo)
        return window(self, lo, hi)

    monkeypatch.setattr(PairCounter, "_window", spy)
    l = pc.lengths
    for n in (l[J - 4], -l[J - 4], l[J - 5] + 1, l[J - 5] + 17, l[J - 5] + 500):
        pc.counts(n)
    pc.counts_many(range(-4, 5))
    assert asked and max(asked) <= 4 * pc.enum_cutoff


# ---------------------------------------------------------------------------
# stage tilings


@st.composite
def tailed_realization(draw):
    """Random small schedules whose last spacers are 0, 1 or longer."""
    vecs = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 3))
        head = [draw(st.integers(0, 2)) for _ in range(r - 1)]
        vecs.append(tuple(head) + (draw(st.sampled_from([0, 1, 3])),))
    J = draw(st.integers(2, 7))
    sched = ConstructionSchedule(
        "transformation",
        ExplicitCuts([len(v) for v in vecs]),
        StageSpacers(vecs),
        h1=draw(st.integers(0, 2)),
    )
    return realize(sched, J), J


@given(
    data=tailed_realization(),
    j0=st.sampled_from([1, 2]),
    u=st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
)
@example(  # chacon: one-symbol last spacers, a range reaching the word's end
    data=(realize(catalog("chacon"), 7), 7), j0=1, u=[0, 100, 10**6]
)
@settings(max_examples=80, deadline=None)
def test_segments_tile_the_materialized_word(data, j0, u):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=4, enum_cutoff=4)
    w = materialize_word(rz, J, j0)
    d = j0 + u[0] % (J - j0 + 1)
    t0 = u[1] % pc.lJ
    t1 = t0 + 1 + u[2] % (pc.lJ - t0)
    ld = pc.lengths[d - 1]
    segs = pc._segments(d, t0, t1)
    ends = [s[1] + (ld if s[0] == "b" else s[2]) for s in segs]
    # sorted, disjoint and contiguous over [t0, t1)
    assert segs[0][1] <= t0 < ends[0] and segs[-1][1] < t1 <= ends[-1]
    assert all(e == s[1] for e, s in zip(ends, segs[1:])), segs
    for seg, end in zip(segs, ends):
        if seg[0] == "b":
            assert np.array_equal(w[seg[1] : end], w[:ld]), seg
        else:
            assert seg[2] > 0 and (w[seg[1] : end] == pc.star).all(), seg


def test_suffix_tiling_and_tail_window_skip_the_star_runs():
    # chacon's W_J ends with its nested W_d copy and J - d one-symbol last
    # spacers; the tiling takes them as one run, not J - d gaps
    J, j0 = 56, 2
    pc = PairCounter(realize(catalog("chacon"), J), J, j0)
    for d in (5, 20, 40):
        ld = pc.lengths[d - 1]
        segs = pc._segments(d, pc.lJ - ld, pc.lJ)
        assert len(segs) <= 2, (d, segs)
        assert segs[-1] == ("g", pc.lJ - (J - d), J - d)
        if len(segs) == 2:
            assert segs[0] == ("b", pc.lJ - (J - d) - ld)
    # W_56 ends with W_12 and 44 stars; W_12 is small enough to materialize
    w12 = materialize_word(realize(catalog("chacon"), 12), 12, j0)
    tail = np.concatenate([w12[-20:], np.full(44, pc.star)])
    for lo, hi in ((64, 0), (60, 10)):  # symbols before the word's end
        assert np.array_equal(pc._window(pc.lJ - lo, pc.lJ - hi), tail[64 - lo : 64 - hi])
    for J in (8, 12):
        small = PairCounter(realize(catalog("chacon"), J), J, j0, materialize_cutoff=16)
        w = materialize_word(realize(catalog("chacon"), J), J, j0)
        assert np.array_equal(small._window(small.lJ - 64, small.lJ), w[-64:]), J


def test_one_symbol_inside_a_nested_copy_is_one_window_frame(monkeypatch):
    # chacon at depth 56 cannot be materialized: each symbol k before the end
    # of the nested W_d copy (stars, then the 2 and the 0 of W_2 = 0 1 2 at
    # k = d - 1, d + 1) is checked against two prefix histograms, and the
    # read jumps into the deepest nested copy instead of descending the
    # stages one frame at a time
    J, j0 = 56, 2
    pc = PairCounter(realize(catalog("chacon"), J), J, j0)
    frames = []
    window = PairCounter._window

    def spy(self, lo, hi):
        frames.append((lo, hi))
        return window(self, lo, hi)

    monkeypatch.setattr(PairCounter, "_window", spy)
    for d in (5, 20, 40):
        for k in (1, 3, 17, d - 1, d + 1):
            p = pc.lJ - (J - d) - k
            (cell,) = np.flatnonzero(pc._prefix_hist(p + 1) - pc._prefix_hist(p))
            frames.clear()
            assert pc._window(p, p + 1).tolist() == [cell], (d, k)
            assert frames == [(p, p + 1)], (d, k)


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


@pytest.mark.parametrize(
    "m, n",
    [(0, 5), (0, -700), (37, 37), (-300, -300), (-300, -1), (-41, 0), (255, -256), (128, 341)],
)
def test_triple_counts_match_brute_force_at_64_symbols(m, n):
    # base stage 6 of chacon: the level codes reach 64**3 cells, and cutoffs
    # of 4 send every range past the base word through the tiling
    rz = realize(catalog("chacon"), 10)
    w = materialize_word(rz, 10, 6)
    pc = PairCounter(rz, 10, 6, materialize_cutoff=4, enum_cutoff=4)
    assert pc.S == 64
    assert np.array_equal(pc.triple_counts(m, n), _brute_triple_counts(w, m, n, 64))


def test_triple_counts_at_chacon_56_keep_their_permutation_identities():
    # no oracle reaches depth 56: T(m, n) must equal T(n, m) with its last
    # two axes swapped and T(-m, n - m) with its first two swapped
    rz = realize(catalog("chacon"), 56)
    pc = PairCounter(rz, 56, 4)
    lj = [None] + pc.lengths  # lj[j] is l_j, written l[j] in a config
    pairs = [
        (1, 2),
        (lj[21] + 3, -lj[47]),
        (lj[50], 2 * lj[50] + 1),
        (-lj[40] - 7, lj[52]),
        (lj[31], lj[31]),
        (0, lj[45] + 5),
        (-lj[11], -lj[13] - 1),
    ]
    for m, n in pairs:
        T = pc.triple_counts(m, n)
        assert T.sum() == pc.lJ - (max(0, m, n) - min(0, m, n)), (m, n)
        assert np.array_equal(T, pc.triple_counts(n, m).transpose(0, 2, 1)), (m, n)
        assert np.array_equal(T, pc.triple_counts(-m, n - m).transpose(1, 0, 2)), (m, n)


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
    # triple_counts writes flat[codes] = counts, which would drop a repeated code
    for codes, counts in pc._tmemo.values():
        assert np.all(np.diff(codes) > 0) and np.all(counts != 0)
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
        assert np.array_equal(pc._window(p, p + 1), w[p : p + 1]), p


@pytest.mark.parametrize("name", ["chacon", "stochastic-chacon", "long-spacer"])
@pytest.mark.parametrize("cutoff", [1, 16])
def test_symbol_matches_named_words(name, cutoff):
    sched, seed, J, top_j0 = _TRIPLE_WORDS[name]
    rz = realize(sched, J, seed=seed)
    for j0 in sorted({1, top_j0}):
        pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff)
        w = materialize_word(rz, J, j0)
        got = [pc._window(p, p + 1).tolist() for p in range(len(w))]
        assert got == [[x] for x in w.tolist()], j0


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
def test_counts_at_spacer_adjacent_lags_match_naive(name, cutoffs, monkeypatch):
    sched, seed, J, j0 = _EDGE_WORDS[name]
    rz = realize(sched, J, seed=seed)
    lags = _spacer_adjacent_lags(heights(rz, J), j0, J)
    pc = PairCounter(rz, J, j0, **cutoffs)
    widths = []
    edge = PairCounter._edge

    def spy(self, line, lo, hi, n=1):
        widths.append(hi - lo)
        return edge(self, line, lo, hi, n)

    monkeypatch.setattr(PairCounter, "_edge", spy)
    naive = lag_counts_naive(rz, J, j0, lags)
    for n in lags:
        assert np.array_equal(pc.counts(n), naive[n]), n
    assert 1 in widths  # the one-symbol edge path ran


def test_counts_do_not_depend_on_query_order():
    rz = realize(catalog("chacon"), 24)
    hs = heights(rz, 24)
    lags = _spacer_adjacent_lags(hs, 3, 22) + [int(hs[15]) + 7, -2 * int(hs[19]) + 3]
    shuffled = list(lags)
    random.Random(0).shuffle(shuffled)
    runs = []
    for order in (lags, lags[::-1], shuffled):
        pc = PairCounter(rz, 24, 3)
        runs.append({n: pc.counts(n) for n in order})
    ref, *others = runs
    for got in others:
        for n in lags:
            assert np.array_equal(got[n], ref[n]), n
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


# ---------------------------------------------------------------------------
# batched small lags


# l_1 = 8 and l_j = 2 l_{j-1} + 3000: every spacer is longer than enum_cutoff
_LONG_SPACER = (
    realize(
        ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 3000)), h1=7
        ),
        5,
    ),
    5,
)


@given(
    data=st.one_of(small_realization(), st.just(_LONG_SPACER)),
    cutoff=st.sampled_from([4, 16, None]),
    j0=st.sampled_from([1, 2, 3]),
    small=st.lists(st.integers(-70, 70), max_size=12),
    wide=st.lists(st.integers(0, 10**9), max_size=4),
)
@example(  # K = l_J - 1 >= l_{J-1}
    data=(realize(catalog("chacon"), 6), 6), cutoff=None, j0=1, small=[1, 2, 62], wide=[]
)
@example(  # K below l_{j0} = 8, spacers longer than K
    data=_LONG_SPACER, cutoff=None, j0=1, small=[5, -5, 5, 0, 7], wide=[]
)
@example(  # K = enum_cutoff, and lags just past it
    data=_LONG_SPACER, cutoff=None, j0=1, small=[1, -1024, 1024, 1025, -1025], wide=[]
)
@example(  # K below l_{j0} = 7
    data=(realize(catalog("chacon"), 9), 9), cutoff=4, j0=3, small=[3, 4, -2], wide=[]
)
@settings(max_examples=60, deadline=None)
def test_counts_many_matches_naive(data, cutoff, j0, small, wide):
    rz, J = data
    j0 = 1 if data is _LONG_SPACER else min(j0, J)  # its base 2 has 3017 symbols
    lJ = int(heights(rz, J)[J - 1])
    lags = [n for n in small if abs(n) < lJ]
    lags += [x % (2 * lJ - 1) - (lJ - 1) for x in wide]  # anywhere in (-l_J, l_J)
    lags += lags[:2]  # duplicates
    cutoffs = {} if cutoff is None else {"materialize_cutoff": cutoff, "enum_cutoff": cutoff}
    pc = PairCounter(rz, J, j0, **cutoffs)
    got = pc.counts_many(lags)
    assert list(got) == list(dict.fromkeys(lags))
    naive = lag_counts_naive(rz, J, j0, lags)
    for n in lags:
        assert np.array_equal(got[n], naive[n]), n


def test_counts_many_slices_the_bincount(monkeypatch):
    rz = realize(catalog("modified-chacon"), 9)
    pc = PairCounter(rz, 9, 3)
    cells = 3 * pc.S**2
    monkeypatch.setattr(correlation, "PAIR_CELL_LIMIT", cells)
    seen = []
    batch = PairCounter._small_lags

    def spy(self, ms):
        seen.append(list(ms))
        batch(self, ms)

    monkeypatch.setattr(PairCounter, "_small_lags", spy)
    lags = list(range(-40, 41)) + [5000]
    got = pc.counts_many(lags)
    assert sorted(m for ms in seen for m in ms) == list(range(1, 41))
    assert all(len(ms) * pc.S**2 <= cells for ms in seen)
    naive = lag_counts_naive(rz, 9, 3, lags)
    for n in lags:
        assert np.array_equal(got[n], naive[n]), n


def test_counts_after_counts_many_read_the_stored_table():
    rz = realize(catalog("chacon"), 30)
    pc = PairCounter(rz, 30, 3)
    lags = [1, 2, 3, 100, -7, 1024]
    got = pc.counts_many(lags)
    held = dict(pc._memo)
    for n in lags:
        m = abs(n)
        assert (m, pc.lJ - m) in held
        got[n][0, 0] += 1  # returned tables are copies
        again = pc.counts(n)
        assert np.array_equal(again, held[(m, pc.lJ - m)] if n > 0 else held[(m, pc.lJ - m)].T)
        assert np.array_equal(again + (np.arange(pc.S**2) == 0).reshape(pc.S, pc.S), got[n])
    assert pc._memo.keys() == held.keys()  # no counts() call recursed
    # a large lag's descent reads the stage tables the batch left behind
    hs = heights(rz, 30)
    fresh = PairCounter(rz, 30, 3)
    for n in lags + [int(hs[j]) + m for j in (10, 20, 27) for m in (1, 2, 3, -7)]:
        assert np.array_equal(pc.counts(n), fresh.counts(n)), n


@st.composite
def stage_pass_realization(draw):
    """Up to five copies a stage with mixed inner spacers (several spacer
    groups a stage), inner spacers up to 20 and last spacers up to 30, so
    runs longer than K = 4 or 16 and tails filled with stars both occur;
    the depth is cut back until the word fits in 20000 symbols."""
    rs, vecs = [], []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 5))
        inner = [draw(st.integers(0, 20)) for _ in range(r - 1)]
        vecs.append(tuple(inner + [draw(st.integers(0, 30))]))
        rs.append(r)
    sched = ConstructionSchedule("transformation", ExplicitCuts(rs), StageSpacers(vecs))
    J = draw(st.integers(3, 8))
    hs = heights(realize(sched, J), J)
    while J > 3 and hs[J - 1] > 20000:
        J -= 1
    return realize(sched, J), J


def _schedule(rs, vecs, J):
    sched = ConstructionSchedule("transformation", ExplicitCuts(rs), StageSpacers(vecs))
    return realize(sched, J), J


@given(
    data=stage_pass_realization(),
    cutoff=st.sampled_from([4, 16]),
    j0=st.sampled_from([1, 2, 3]),
    lags=st.lists(st.integers(1, 16), min_size=1, max_size=8),
)
@example(  # last spacer 1: the tail takes one star a stage until tau >= K = 4
    data=(realize(catalog("chacon"), 10), 10), cutoff=4, j0=1, lags=[1, 2, 3, 4]
)
@example(  # runs of 20 and 25 longer than K = 16, tau = K after one stage
    data=_schedule([3], [(20, 0, 25)], 5), cutoff=16, j0=2, lags=[1, 5, 16]
)
@example(  # r = 5 with three spacer groups and a last spacer of 0 (tau stays 0)
    data=_schedule([5, 3], [(0, 2, 0, 2, 0), (1, 17, 3)], 6), cutoff=16, j0=3, lags=[2, 7, 9, 15]
)
@settings(max_examples=60, deadline=None)
def test_stage_pass_tables_match_materialized_stage_words(data, cutoff, j0, lags):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=cutoff)
    lags = sorted({m for m in lags if m <= cutoff and m < pc.lJ})
    if not lags:
        return
    pc.counts_many(lags)
    S, K = pc.S, lags[-1]
    first = max(j0, next(d for d in range(1, J + 1) if pc.lengths[d - 1] >= K))
    for d in range(first, J + 1):
        w = materialize_word(rz, d, j0).astype(np.int64)
        ld = len(w)
        for m in lags:
            if m == ld:
                continue  # an empty range, never stored
            want = np.bincount(w[: ld - m] * S + w[m:], minlength=S * S).reshape(S, S)
            assert np.array_equal(pc._memo[(m, ld - m)], want), (d, m)


# ---------------------------------------------------------------------------
# full-range keys: the copy split and the nested-tail jump


@st.composite
def copy_split_realization(draw):
    """Up to six copies a stage, short inner spacers and a long last one,
    with the depth cut back until the word fits in 20000 symbols."""
    rs, vecs = [], []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 6))
        inner = [draw(st.integers(0, 2)) for _ in range(r - 1)]
        vecs.append(tuple(inner + [draw(st.integers(0, 40))]))
        rs.append(r)
    sched = ConstructionSchedule("transformation", ExplicitCuts(rs), StageSpacers(vecs))
    J = draw(st.integers(2, 5))
    hs = heights(realize(sched, J), J)
    while J > 2 and hs[J - 1] > 20000:
        J -= 1
    return realize(sched, J), J


def _structural_lags(pc):
    """Lags whose full-range keys hit the split's edge cases: copy-start
    differences of W_J (a copy pair at shift 0) and the starts of W_J's
    nested last copies (a tail jump landing on a whole W_e)."""
    J, lJ = pc.J, pc.lJ
    starts, kinds, *_ = pc._layout(J)
    copy_starts = [p for p, k in zip(starts, kinds) if not k]
    lags = {q - p for p in copy_starts for q in copy_starts if q > p}
    for e in range(pc.j0, J):
        lags.add(lJ - (pc._T[J] - pc._T[e]) - pc.lengths[e - 1])
    return sorted(m for m in lags if 0 < m < lJ)


@given(
    data=copy_split_realization(),
    cutoff=st.sampled_from([4, 16]),
    j0=st.sampled_from([1, 2]),
    picks=st.lists(st.integers(0, 10**9), min_size=1, max_size=8),
)
@example(  # chacon: one-star last spacers, every lag a tail jump or a split
    data=(realize(catalog("chacon"), 8), 8), cutoff=4, j0=1, picks=[0, 5, 17, 99]
)
@settings(max_examples=80, deadline=None)
def test_full_range_counts_match_materialized_word(data, cutoff, j0, picks):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=4)
    w = materialize_word(rz, J, j0).astype(np.int64)
    S, lJ = pc.S, pc.lJ
    structural = _structural_lags(pc)
    lags = structural + [x % (lJ - 1) + 1 for x in picks]
    lags += [-m for m in lags[::3]]
    for n in lags:
        m = abs(n)
        want = np.bincount(w[: lJ - m] * S + w[m:], minlength=S * S).reshape(S, S)
        assert np.array_equal(pc.counts(n), want if n > 0 else want.T), n


@st.composite
def ladder_realization(draw):
    """Two to five copies a stage and spacers up to 12, so some spacers are
    as long as a lag, some copies meet with no spacer (a zero-shift
    junction at m = l_d), and stages have one to three spacer groups; or a
    stochastic Chacon word. The depth is cut back until the word fits in
    5000 symbols."""
    if draw(st.booleans()):
        return realize(catalog("stochastic-chacon"), 6, seed=draw(st.integers(0, 99))), 6
    rs, vecs = [], []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 5))
        vecs.append(tuple(draw(st.sampled_from([0, 0, 1, 2, 5, 12])) for _ in range(r)))
        rs.append(r)
    sched = ConstructionSchedule("transformation", ExplicitCuts(rs), StageSpacers(vecs))
    J = draw(st.integers(3, 7))
    hs = heights(realize(sched, J), J)
    while J > 3 and hs[J - 1] > 5000:
        J -= 1
    return realize(sched, J), J


@given(
    data=ladder_realization(),
    cutoff=st.sampled_from([1, 2, 4]),
    j0=st.sampled_from([1, 2]),
    picks=st.lists(st.integers(0, 10**9), max_size=6),
)
@example(  # W_3 copies with no spacer between: lag l_3 = 10 is a zero-shift junction
    data=_schedule([4, 2, 2], [(0, 0, 0, 1), (0, 0), (0, 1)], 4), cutoff=4, j0=2, picks=[]
)
@settings(max_examples=60, deadline=None)
def test_climb_matches_materialized_stage_words(data, cutoff, j0, picks):
    rz, J = data
    j0 = min(j0, J)
    cutoffs = {"materialize_cutoff": cutoff, "enum_cutoff": cutoff}
    pc = PairCounter(rz, J, j0, **cutoffs)
    S, l = pc.S, [None] + pc.lengths  # l[d] is the stage-d word length
    structural = {x + k for d in range(j0, J) for x in (l[d], l[d] // 2) for k in (-1, 0, 1)}
    climbed = []
    for D in range(j0 + 1, J + 1):
        w = materialize_word(rz, D, j0).astype(np.int64)
        lags = structural | {x % l[D - 1] + 1 for x in picks}
        for m in sorted(lags):
            if 0 < m <= l[D - 1] < l[D] - m:
                want = np.bincount(w[: l[D] - m] * S + w[m:], minlength=S * S)
                assert np.array_equal(pc._climb(m, D), want.reshape(S, S)), (D, m)
                climbed.append(m)
    assert climbed or J == j0
    # at the top, through counts(): a fresh counter and one warmed by other
    # lags (the small-lag pass and climbs at every stage above) agree
    w = materialize_word(rz, J, j0).astype(np.int64)
    pc.counts_many([1, 2, 3] + [x % (l[J] - 1) + 1 for x in picks])
    for m in sorted(set(climbed)):
        want = np.bincount(w[: l[J] - m] * S + w[m:], minlength=S * S).reshape(S, S)
        fresh = PairCounter(rz, J, j0, **cutoffs)
        for n, tab in ((m, want), (-m, want.T)):
            assert np.array_equal(fresh.counts(n), tab), n
            assert np.array_equal(pc.counts(n), tab), n


def _partial_keys(pc):
    """Partial ranges Phi(m, c) whose split of W_J cuts a source copy short:
    the second W_{J-1} copy paired with itself at a positive shift, cut
    halfway; the first copy against the second at shift 0, cut one symbol
    before its end (a prefix histogram on the diagonal); and the first copy
    against the second at a negative shift."""
    starts, kinds, *_ = pc._layout(pc.J)
    s1 = [p for p, k in zip(starts, kinds) if not k][1]  # the second copy
    lb = pc.lengths[pc.J - 2]
    half = lb // 2
    return [(1 + half // 2, s1 + half), (s1, lb - 1), (s1 - half, lb)]


_CATALOG_WORDS = [
    (realize(catalog("chacon"), 9), 9),
    (realize(catalog("modified-chacon"), 7), 7),
    (realize(catalog("stochastic-chacon"), 8, seed=5), 8),
]


@given(
    data=st.one_of(copy_split_realization(), st.sampled_from(_CATALOG_WORDS)),
    cutoff=st.sampled_from([4, 16]),
    j0=st.sampled_from([1, 2]),
    picks=st.lists(st.integers(0, 10**9), min_size=2, max_size=8),
)
@example(data=_CATALOG_WORDS[0], cutoff=4, j0=1, picks=[0, 5, 17, 99])
@example(data=_CATALOG_WORDS[1], cutoff=16, j0=2, picks=[7, 3])
@example(data=_CATALOG_WORDS[2], cutoff=4, j0=2, picks=[12, 40])
@settings(max_examples=80, deadline=None)
def test_partial_range_counts_match_materialized_word(data, cutoff, j0, picks):
    rz, J = data
    j0 = min(j0, J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=cutoff, enum_cutoff=4)
    with pytest.MonkeyPatch.context() as mp:
        _, sent = _count_full_range_routes(mp)
        w = materialize_word(rz, J, j0).astype(np.int64)
        S, lJ = pc.S, pc.lJ
        keys = _partial_keys(pc)
        for x, y in zip(picks, picks[1:]):
            m = x % (lJ - 1) + 1
            keys.append((m, y % (lJ - m) + 1))
        for m, c in keys:
            want = np.bincount(w[:c] * S + w[m : m + c], minlength=S * S)
            assert np.array_equal(pc._phi(m, c), want.reshape(S, S)), (m, c)
        # the structural keys are not leaves: they reach the split
        for m, c in keys[:3]:
            if c > 16 and c >= pc.lengths[j0 - 1]:
                assert (m, c) in sent, (m, c)


def _chacon_56_lags(pc):
    """The rigidity scan's stage lengths l_j, j0 < j < J, then the lags of
    the chacon-deep benchmark config at seed 0 and its basis lags 0..8."""
    l = [None] + pc.lengths  # l[j] is the stage-j word length
    rigidity = [l[j] for j in range(pc.j0 + 1, pc.J)]
    deep = [
        l[30] + 7, -2 * l[32] + 7, l[34] + 5, -3 * l[36] + 7, l[38] + 5,
        -2 * l[40] + 6, l[42] + 9, -2 * l[44] + 2, l[46] + 6, -3 * l[48] + 7,
        l[50] + 7, -2 * l[52] + 1,  # limit-scan
        l[31] + 2, l[35] + 6, l[39] + 2, l[43] + 3, l[47] + 9, l[50] + 8,
        l[53] + 2,  # mixing
        l[40] + 3, -l[40] + 1, l[50] + 6, -l[50] + 1,  # converge
    ]
    return rigidity + deep + list(range(9))


def test_full_range_counts_at_chacon_56_never_tile(monkeypatch):
    rz = realize(catalog("chacon"), 56)
    pc = PairCounter(rz, 56, 4)

    def refuse(*args):
        raise AssertionError("a pair-count key reached the tiling")

    monkeypatch.setattr(PairCounter, "_segments", refuse)
    lags = _chacon_56_lags(pc)
    assert len(lags) == 51 + 23 + 9
    for n in lags:
        assert pc.counts(n).sum() == pc.lJ - abs(n)
    # partial ranges that triples at this depth read, e.g. (l_21 + 3, -l_46)
    l = [None] + pc.lengths
    partial = [
        (2 * l[45] - l[21] - 2, l[21] + 2), (2 * l[45] - l[21] - 2, 2 * l[20] - 5),
        (l[50], l[51] + 2), (l[40] + 6, 3 * l[40] - 4), (l[40] + 4, 2 * l[39] - 5),
        (l[40] + 5, 2 * l[47] - l[40] - 5), (l[40] + 7, l[52] - l[40] - 6),
        (1, l[27] - 4), (3, 2 * l[21] - 6),
    ]
    for m, c in partial:
        assert m + c not in pc.lengths
        tab = pc._phi(m, c)
        assert np.array_equal(tab.sum(axis=1), pc._prefix_hist(c))
        assert np.array_equal(tab.sum(axis=0), pc._prefix_hist(m + c) - pc._prefix_hist(m))


#: SHA-256 of the int64 tables of _chacon_56_lags as the generic tiling
#: computed them
_CHACON_56_DIGEST = "75b566abe7f691066886657a75a4d737530755b9bf9bba0c5c2f707379bb067b"


def _digest(tables):
    digest = hashlib.sha256()
    for tab in tables:
        digest.update(tab.astype("<i8").tobytes())
    return digest.hexdigest()


def test_full_range_counts_at_chacon_56_keep_their_digest():
    rz = realize(catalog("chacon"), 56)
    pc = PairCounter(rz, 56, 4)
    assert _digest(pc.counts(n) for n in _chacon_56_lags(pc)) == _CHACON_56_DIGEST


def test_long_lag_ranges_inside_the_word_are_stored_when_requested_again(monkeypatch):
    # a range at lag m > enum_cutoff with m + c < l_J is kept in the memo only
    # on its second evaluation; most of the chacon-deep scan's are read once
    rz = realize(catalog("chacon"), 56)
    pc = PairCounter(rz, 56, 4)
    requests = Counter()
    phi = PairCounter._phi

    def spy(self, m, c):
        requests[m, c] += 1
        return phi(self, m, c)

    monkeypatch.setattr(PairCounter, "_phi", spy)
    lags = _chacon_56_lags(pc)
    got = pc.counts_many(lags)
    assert _digest(got[n] for n in lags) == _CHACON_56_DIGEST

    def long_inside(m, c):
        return m > pc.enum_cutoff and c > 0 and m + c < pc.lJ

    # the climbs request only their starting ranges, their junctions' leaves
    # and their nested-tail jumps' inner ranges: 901 of these are read once
    once = {k for k, n in requests.items() if n == 1 and long_inside(*k)}
    assert len(once) > 500
    assert all(requests[k] >= 2 for k in pc._memo if long_inside(*k))
    assert once <= pc._seen
    # whole-word and small-lag ranges are stored at once
    assert all((abs(n), pc.lJ - abs(n)) in pc._memo for n in lags if n)
    m, c = pc.lengths[39] + 6, 3 * pc.lengths[39] - 4  # a partial range triples read
    assert long_inside(m, c) and (m, c) not in requests
    first = pc._phi(m, c)
    assert (m, c) in pc._seen and (m, c) not in pc._memo
    second = pc._phi(m, c)
    assert pc._memo[m, c] is second and np.array_equal(first, second)
    assert np.array_equal(second.sum(axis=1), pc._prefix_hist(c))


def test_triples_after_the_scan_recompute_its_ranges_exactly():
    # the triple pieces request long-lag partial ranges the scan evaluated
    # once; the warm counter computes them again and keeps them
    plan = parse_config(
        "\n".join(
            [
                "construction.catalog = stochastic-chacon",
                "construction.budget = 100000000",
                "construction.seed = 7",
                "experiment.scan.kind = limit-scan",
                "experiment.scan.window = 4",
                "experiment.scan.lags = l[J-3], -l[J-3], l[J-4]+3, -2*l[J-5]+5",
                "experiment.tri.kind = triple",
                "experiment.tri.m = 1, l[J-3]",
                "experiment.tri.n = 2, 2*l[J-3]",
            ]
        )
    )
    scan, tri = plan.experiments
    warm = PairCounter(plan.realized, plan.J, plan.j0)
    limit_scan(warm, scan.params["lags"], K=4)
    once = set(warm._seen)
    fresh = PairCounter(plan.realized, plan.J, plan.j0)
    for m, n in tri.params["pairs"]:
        assert np.array_equal(warm.triple_counts(m, n), fresh.triple_counts(m, n)), (m, n)
    assert once & warm._memo.keys()


def _count_full_range_routes(monkeypatch):
    """Record every full-range key _phi evaluates and every key routed
    past the leaf: sent to _split or climbed by _climb."""
    evaluated, sent = {}, set()
    phi, split, climb = PairCounter._phi, PairCounter._split, PairCounter._climb

    def spy_phi(self, m, c):
        if c > 0 and (m, c) not in self._memo and m + c in self.lengths:
            evaluated[m, c] = len(self.prefix) >= m + c
        return phi(self, m, c)

    def spy_split(self, m, c, D):
        sent.add((m, c))
        return split(self, m, c, D)

    def spy_climb(self, m, D):
        sent.add((m, self.lengths[D - 1] - m))
        return climb(self, m, D)

    monkeypatch.setattr(PairCounter, "_phi", spy_phi)
    monkeypatch.setattr(PairCounter, "_split", spy_split)
    monkeypatch.setattr(PairCounter, "_climb", spy_climb)
    return evaluated, sent


@pytest.mark.parametrize("name,J", [("chacon", 8), ("modified-chacon", 7)])
@pytest.mark.parametrize("j0", [1, 2])
def test_full_ranges_split_inside_the_prefix_match_materialized_word(
    monkeypatch, name, J, j0
):
    # enum_cutoff 4 makes every full range longer than 16 split, even the
    # ones inside the 256-symbol prefix
    rz = realize(catalog(name), J)
    pc = PairCounter(rz, J, j0, materialize_cutoff=256, enum_cutoff=4)
    evaluated, split = _count_full_range_routes(monkeypatch)
    w = materialize_word(rz, J, j0).astype(np.int64)
    S, lJ = pc.S, pc.lJ
    for m in range(1, lJ):
        want = np.bincount(w[: lJ - m] * S + w[m:], minlength=S * S).reshape(S, S)
        assert np.array_equal(pc.counts(m), want), m
    in_prefix = [(m, c) for (m, c), inside in evaluated.items() if inside and c > 16]
    assert len(in_prefix) > 100
    assert set(in_prefix) <= split


def test_full_range_leaves_at_chacon_56_read_short_windows(monkeypatch):
    rz = realize(catalog("chacon"), 56)
    pc = PairCounter(rz, 56, 4)
    evaluated, split = _count_full_range_routes(monkeypatch)
    for n in _chacon_56_lags(pc):
        pc.counts(n)
    leaves = [c for m, c in evaluated if (m, c) not in split]
    assert leaves and split
    assert max(leaves) <= 4 * pc.enum_cutoff
