"""Exact finite-depth lag statistics on cutting-and-stacking words.

Two engines produce identical integer pair counts
C(n)[a][b] = #{p : W[p] = a, W[p+n] = b}:

* a one-pass streaming counter (``lag_counts_naive``) that scans the word in
  chunks holding only a max-lag ring window, and
* a hierarchical counter (``PairCounter`` / ``lag_counts_block``) that never
  builds the word. It evaluates Phi(m, c) = counts of pairs (u, u+m) with
  u < c read against the inductive-limit word (stage words are prefixes of
  one another). Every C(n) is a full range, Phi(m, l_D - m) with D = J:
  the pairs inside W_D at lag m, P_D(m). A range is read in the first
  stage word W_D with l_D >= m + c, one of three ways.

  - A full range whose sources span several W_{D-1} copies at a lag m <=
    l_{D-1} climbs the stages: no pair at lag m <= l_d reaches past the
    W_d copy after its own, so P_{d+1}(m) = r_d P_d(m) plus one junction
    per spacer group of stage d (star edges and, unless the copy is the
    last, a full range of W_d transposed), from the highest stage whose
    range is memoised or read directly.
  - A full range with c <= l_{D-1} takes the nested-tail jump: its
    targets are the last c symbols of W_D, the suffix of a nested W_e copy
    and then a star run, so the table is the full range Phi(l_e - c', c')
    of W_e plus a star column.
  - Any other range (one that stops short of a stage end, or a full range
    at a lag m > l_{D-1}) splits W_D into its copies of W_{D-1} and their
    spacers, the sources cut at c. Copies starting p apart add Phi(m - p,
    v) of W_{D-1} over the v sources they pair (its transpose when m < p,
    the counts of the first v symbols on the diagonal when m = p), a copy
    and a spacer add a star column or row, two spacers their overlap of
    stars; so the recursion stays in prefix ranges.

  A range is read directly (a leaf) only when it is short: c <=
  enum_cutoff, or inside the in-memory prefix with c <= 4 enum_cutoff. A
  longer one is routed even inside the prefix, since the shorter ranges it
  recurses into are mostly memoised. The memo keeps small-lag (m <=
  enum_cutoff) and whole-word (m + c = l_J) ranges at once, and a climb at
  a small lag keeps every stage's table on the way; a range at a longer lag
  that ends inside the word is kept only on its second evaluation, since
  most of those are read once and would hold most of the memo's memory.

  Edges of at most enum_cutoff symbols and small ranges are read directly:
  ``_window`` returns W[lo:hi) in one descent through the stage layouts (an
  edge one symbol wide adds 1 to the cell of its one symbol). A longer edge
  is never read: its histogram is the difference of two prefix histograms
  (``_prefix_hist``). W[0:x) is some whole base-word copies, a head of one
  more and stars, and a descent in Python ints counts those copies with one
  bisect into a stage layout per stage, so a star run costs the same at any
  length.

Every W_h copy ends with its nested last W_e copy and then the last spacers
of stages e+1..h, all stars. The descents (the nested-tail jump of a full
range, the tiling ``_walk`` and ``_window``) do not peel that tail a stage
at a time: one bisect over U[e] = l_e - T[e], with T the prefix sums of the
last spacers, finds the deepest nested copy that holds a position, and the
stars after it are one run. ``_walk`` and ``_window`` narrow by one rule:
while the range lies inside one segment (that copy, the run after it, or
the layout's block or spacer holding its start) they step into it in place,
and a range spanning segments recurses once per segment. So one symbol is
one frame at any depth, a range costs O(depth + length), and the suffix of
W_J at granularity d tiles into one W_d copy and one run, not J - d gaps.

A run of small lags 1 <= m <= K (``PairCounter.counts_many``) is counted in
one pass over the stages instead: no pair at lag m <= l_d reaches past the
next W_d copy, so the counts inside W_{d+1} are r_d times those inside W_d
plus one junction term per spacer. The first K symbols of W_d stay the
same from stage to stage, and its last K only shift in the stars of the
last spacers, so every junction, for all m at once, is one row of a single
cross table (the pairs of the last k symbols of the first W_d against its
first k) plus a star row, a star column and star-star pairs.

The same counter gives exact k-point counts (``PairCounter.triple_counts``
for k = 3). T(U, c) counts (W[u+U_0], ..., W[u+U_{k-1}]) for u < c. Each
coordinate's range is tiled into W_d blocks and gaps, d the coarsest stage
with l_d <= c, and the sources are cut where a coordinate crosses a tile
edge. In a piece each coordinate reads a gap's star or one W_d copy: it
counts T(V, hi) - T(V, lo) over the sorted offsets V in the copy (Phi for
two, a histogram for one). Pieces are summed per pattern, the entry of V
each coordinate reads, and kept sparse: dense S**k is 40x slower at S=256.

Counts become matrices in one place, ``unit_mass``: C(n) over its window of
l_J - |n| sources estimates mu(level_a ∩ T^{-n} level_b) with mass one;
negative lags are transposes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from typing import Dict, Iterable, List

import numpy as np

from .construction import RealizedSchedule, heights
from .errors import DepthOverBudget, LagOutOfRange
from .words import (
    DEFAULT_BUDGET,
    DTYPE,
    alphabet_size,
    base_word,
    check_base_stage,
    expand_once,
    stream_word,
)

__all__ = [
    "PairCounter",
    "lag_counts_naive",
    "lag_counts_block",
    "unit_mass",
    "LAG_CAP_DIVISOR",
    "COUNT_LIMIT",
    "PAIR_CELL_LIMIT",
]

#: Reported correlation matrices require |n| <= l_J / LAG_CAP_DIVISOR.
LAG_CAP_DIVISOR = 4

#: Exact pair counting needs the word length l_J below this.
COUNT_LIMIT = 1 << 62

#: Largest S**2 a pair-count table may have (S symbols per index).
PAIR_CELL_LIMIT = 1 << 22

#: Pairs per bincount when the small-lag pass builds its cross table; a
#: block's int32 index arrays (128 KiB each) then stay in cache.
_CROSS_BLOCK = 1 << 15


# ---------------------------------------------------------------------------
# streaming counter

def _count_into(tables, ext, tail_len, g, lags, S):
    """Add pairs whose target position falls inside the chunk ending ext.

    ext is the previous tail (tail_len symbols) followed by the chunk, which
    starts at word position g.
    """
    if not lags:
        return
    # one cast per chunk, shared by every lag; pair codes below 256 fit a
    # byte, and the sums and bincounts below run about 1.5 times faster on it
    ext = ext.astype(np.uint8 if S * S <= 256 else np.intp)
    src = ext * ext.dtype.type(S)
    end = g + len(ext) - tail_len
    for n in lags:
        lo = max(0, g - n)  # first source position with target in this chunk
        cnt = end - n - lo
        if cnt <= 0:
            continue
        a0 = lo - (g - tail_len)
        tables[n] += np.bincount(
            src[a0 : a0 + cnt] + ext[a0 + n : a0 + n + cnt], minlength=S * S
        ).reshape(S, S)


def lag_counts_naive(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    lags: Iterable[int],
    chunk_size: int = 1 << 22,
    budget: int = DEFAULT_BUDGET,
) -> Dict[int, np.ndarray]:
    """One-pass pair counts for a set of lags; |lag| bounded by the window.

    The word is streamed in chunks; each chunk is read together with the
    max-lag tail of the one before it.
    """
    lag_list = list(dict.fromkeys(int(n) for n in lags))
    S = alphabet_size(realized, j0)
    lJ = int(heights(realized, J)[J - 1])
    for n in lag_list:
        if abs(n) >= lJ:
            raise LagOutOfRange(f"|lag| {n} >= word length {lJ}")
    pos = sorted({abs(n) for n in lag_list if n != 0})
    maxlag = pos[-1] if pos else 0
    tables = {n: np.zeros((S, S), dtype=np.int64) for n in pos}
    hist = np.zeros(S, dtype=np.int64)
    tail = np.empty(0, dtype=DTYPE)
    g = 0
    for chunk in stream_word(realized, J, j0, chunk_size=chunk_size, budget=budget):
        hist += np.bincount(chunk, minlength=S)
        ext = np.concatenate([tail, chunk]) if len(tail) else chunk
        _count_into(tables, ext, len(tail), g, pos, S)
        g += len(chunk)
        if maxlag:
            tail = ext[-maxlag:].copy()

    out = {}
    for n in lag_list:
        if n == 0:
            out[0] = np.diag(hist)
        elif n > 0:
            out[n] = tables[n]
        else:
            out[n] = tables[-n].T.copy()
    return out


# ---------------------------------------------------------------------------
# hierarchical counter

_NO_TUPLES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _sparse_sum(parts) -> tuple:
    """Sum (codes, counts) terms: sorted distinct codes, zero sums dropped."""
    codes = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))
    codes, counts = codes[first], np.add.reduceat(counts, first)
    keep = counts != 0
    return codes[keep], counts[keep]


class PairCounter:
    """Exact pair counts for one realized schedule at depth J, base j0.

    materialize_cutoff bounds the word prefix kept in memory (the recursion
    bottoms out on it). enum_cutoff sends pair ranges up to that length to
    one bincount over two directly read windows, bounds the ranges read that
    way inside the prefix to 4 enum_cutoff sources (longer ones recurse),
    bounds the histograms read symbol by symbol to enum_cutoff symbols
    (longer ones take the prefix descent), and sends counts_many lags up to
    it to one pass over the stages. Both only trade speed; counts are exact.

    A full range at a lag up to the length of the stage below climbs the
    stages (``_climb``); the others take the copy split or the nested-tail
    jump (``_split``).

    Pair ranges are memoised in ``_memo``, except that one at a lag above
    enum_cutoff ending inside the word is stored only on its second request
    (``_seen`` holds those evaluated so far): the small-lag tables and the
    whole-word ranges that counts() returns take nearly all the reads. A
    climb at such a lag stores none of the stages below its top. Symbols are
    not memoised: a read of W[lo:hi), one symbol or more, is one narrowing
    descent (``_window``). The base stage j0 must lie in 1..J.
    """

    def __init__(
        self,
        realized: RealizedSchedule,
        J: int,
        j0: int,
        materialize_cutoff: int = 1 << 16,
        enum_cutoff: int = 1 << 10,
    ):
        check_base_stage(J, j0)
        self.realized = realized
        self.J = J
        self.j0 = j0
        self.lengths = [int(x) for x in heights(realized, J)]
        self.lJ = self.lengths[J - 1]
        if self.lJ >= COUNT_LIMIT:
            raise DepthOverBudget(f"word length {self.lJ} too large for exact counting")
        self.S = alphabet_size(realized, j0)
        if self.S**2 > PAIR_CELL_LIMIT:
            raise ValueError(
                f"alphabet of {self.S} symbols makes the pair-count table too large"
            )
        self.star = self.S - 1
        self.enum_cutoff = enum_cutoff
        w = base_word(realized, j0)
        target = min(self.lJ, materialize_cutoff)
        j = j0
        while len(w) < target:
            r, vec = realized.stage(j)
            w = expand_once(w, r, vec, self.star)
            j += 1
        self.prefix = w[:target]
        # W_h ends with its nested last W_e copy and then T[h] - T[e] stars:
        # T[k] sums the last spacers of the stages up to W_k, and
        # U[e] = l_e - T[e] does not decrease for e >= j0 (entries below j0
        # are never searched).
        self._T = [0] * (J + 1)
        for k in range(j0 + 1, J + 1):
            self._T[k] = self._T[k - 1] + int(realized.stage(k - 1)[1][-1])
        self._U = [0] + [l - t for l, t in zip(self.lengths, self._T[1:])]
        # _copies[g]: the W_{j0} copies in W_g, the product of the cuts of
        # stages j0..g-1 (entries below j0 are never read)
        self._copies = [1] * (J + 1)
        for k in range(j0, J):
            self._copies[k + 1] = self._copies[k] * int(realized.stage(k)[0])
        self._layouts: Dict[int, tuple] = {}
        self._memo: Dict[tuple, np.ndarray] = {}
        self._seen: set = set()  # long-lag ranges inside the word evaluated so far
        self._tmemo: Dict[tuple, tuple] = {}
        self._spacer_groups: Dict[int, List[tuple]] = {}

    # -- layout helpers ----------------------------------------------------

    def _layout(self, g: int):
        """Segments of W_g as (starts, kinds, lens, blocks); kind 0 block, 1
        gap, blocks[i] the number of blocks before segment i."""
        lay = self._layouts.get(g)
        if lay is None:
            r, vec = self.realized.stage(g - 1)
            lb = self.lengths[g - 2]
            starts, kinds, lens, blocks = [], [], [], []
            pos = 0
            for i in range(r):
                starts.append(pos)
                kinds.append(0)
                lens.append(lb)
                blocks.append(i)
                pos += lb
                s = int(vec[i])
                if s:
                    starts.append(pos)
                    kinds.append(1)
                    lens.append(s)
                    blocks.append(i + 1)
                    pos += s
            lay = (starts, kinds, lens, blocks)
            self._layouts[g] = lay
        return lay

    def _segments(self, d: int, t0: int, t1: int) -> List[tuple]:
        """Granularity-d tiling of [t0, t1): ('b', start) blocks, ('g', start, len) gaps."""
        out: List[tuple] = []
        if t0 >= t1:
            return out
        g = d
        while self.lengths[g - 1] < t1:
            g += 1
        self._walk(g, d, 0, t0, t1, out)
        return out

    def _tail(self, g: int, floor: int, x: int):
        """(e, run) for the position x symbols before the end of a W_g copy.

        The copy ends with its nested last W_e copy and then run stars; e is
        the deepest such copy, floor <= e <= g, that starts at or before the
        position. So the position is a star when x <= run, and otherwise lies
        in that W_e copy outside its own nested last copies.
        """
        e = bisect_left(self._U, x - self._T[g], floor, g)
        return e, self._T[g] - self._T[e]

    def _walk(self, g, d, base, lo, hi, out):
        """Append the granularity-d tiles of [lo, hi), inside the W_g copy at
        base, to out. While the range lies inside one segment it narrows in
        place: into the deepest nested last copy holding lo (``_tail``), the
        star run after that copy, or the block of the layout holding lo. A
        range that spans segments recurses once per segment."""
        while g > d:
            end = base + self.lengths[g - 1]
            e, run = self._tail(g, d, end - lo)
            cut = end - run  # the nested W_e copy ends here
            if e < g:
                if hi <= cut:
                    g, base = e, cut - self.lengths[e - 1]
                    continue
                if lo < cut:
                    self._walk(e, d, cut - self.lengths[e - 1], lo, cut, out)
                out.append(("g", cut, run))
                return
            starts, kinds, lens, _ = self._layout(g)
            i = bisect_right(starts, lo - base) - 1
            s0 = base + starts[i]
            if hi <= s0 + lens[i] and not kinds[i]:
                g, base = g - 1, s0
                continue
            while i < len(starts) and base + starts[i] < hi:
                s0 = base + starts[i]
                if kinds[i]:
                    out.append(("g", s0, lens[i]))
                else:
                    self._walk(g - 1, d, s0, max(lo, s0), min(hi, s0 + lens[i]), out)
                i += 1
            return
        out.append(("b", base))

    # -- word access -------------------------------------------------------

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """Symbols of W[lo:hi). While the range lies inside one segment it
        narrows in place, as ``_walk`` does; a range that spans segments
        recurses once per segment, so one symbol is one frame."""
        if lo == hi:
            return np.empty(0, dtype=DTYPE)
        while hi > len(self.prefix):
            if hi <= self.lengths[self.j0 - 1]:
                return np.arange(lo, hi, dtype=DTYPE)  # base word lists its levels in order
            g = bisect_right(self.lengths, hi - 1) + 1  # smallest stage with length >= hi
            end = self.lengths[g - 1]
            e, run = self._tail(g, self.j0, end - lo)
            cut = end - run  # the nested W_e copy ends here
            if lo >= cut:
                return np.full(hi - lo, self.star, dtype=DTYPE)
            if e < g:
                shift = cut - self.lengths[e - 1]
                if hi > cut:
                    stars = np.full(hi - cut, self.star, dtype=DTYPE)
                    return np.concatenate([self._window(lo - shift, cut - shift), stars])
                lo, hi = lo - shift, hi - shift
                continue
            starts, kinds, lens, _ = self._layout(g)
            i = bisect_right(starts, lo) - 1
            s0 = starts[i]
            if hi <= s0 + lens[i] and not kinds[i]:
                lo, hi = lo - s0, hi - s0
                continue
            parts = []
            while lo < hi:
                s0 = starts[i]
                end = min(hi, s0 + lens[i])
                if kinds[i]:
                    parts.append(np.full(end - lo, self.star, dtype=DTYPE))
                else:
                    parts.append(self._window(lo - s0, end - s0))
                lo = end
                i += 1
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        return self.prefix[lo:hi]

    def _hist(self, lo: int, hi: int) -> np.ndarray:
        """Histogram of W[lo:hi). A range of at most enum_cutoff symbols is
        read (one bincount over ``_window``); a longer one is never read: it
        is the difference of two prefix histograms."""
        if hi - lo <= self.enum_cutoff:
            return np.bincount(self._window(lo, hi), minlength=self.S)
        return self._prefix_hist(hi) - self._prefix_hist(lo)

    def _word_counts(self, j: int) -> np.ndarray:
        """Occurrences of each symbol in W_j: _copies[j] of each level, the
        rest stars."""
        return self._prefix_hist(self.lengths[j - 1])

    def _prefix_hist(self, x: int) -> np.ndarray:
        """Histogram of W[0:x), by a descent in Python ints that reads no
        symbol.

        W[0:x) holds some whole copies of the base word W_{j0}, then a head
        of one more (its first levels, once each: the base word lists its
        levels in order) and stars. Each stage is one bisect into the layout
        of the first stage word holding x symbols: the blocks before the
        segment holding position x add their base-word copies, and the
        descent goes on inside that segment if it is a block.
        """
        n, copies, lb = x, 0, self.lengths[self.j0 - 1]
        while x > lb:
            g = bisect_right(self.lengths, x - 1) + 1  # smallest stage with length >= x
            if self.lengths[g - 1] == x:
                copies, x = copies + self._copies[g], 0
            else:
                starts, kinds, _, blocks = self._layout(g)
                i = bisect_right(starts, x) - 1
                copies += blocks[i] * self._copies[g - 1]
                x = 0 if kinds[i] else x - starts[i]
        h = np.full(self.S, copies, dtype=np.int64)
        h[:x] += 1
        h[self.star] = n - lb * copies - x
        return h

    # -- the recursion -----------------------------------------------------

    def _phi(self, m: int, c: int) -> np.ndarray:
        """Counts of pairs (W[u], W[u+m]) for u in [0, c); m >= 1.

        A leaf (``_leaf``) is one bincount over two read windows. A
        whole-word range P_D(m) = Phi(m, l_D - m) with m <= l_{D-1} < c
        climbs the stages (``_climb``); any other range goes to the copy
        split or the nested-tail jump (``_split``). Their sub-ranges are
        shorter and mostly memoised, even inside the prefix. A result is
        memoised at once when m <= enum_cutoff or m + c >= l_J. A long-lag
        range inside the word (m > enum_cutoff, m + c < l_J) is only noted
        in ``_seen`` the first time and memoised when it is evaluated
        again: most such ranges are read once, so storing them all would
        hold tables nothing reads.
        """
        S = self.S
        if c <= 0:
            return np.zeros((S, S), dtype=np.int64)
        key = (m, c)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self._leaf(m, c):
            a = self._window(0, c).astype(np.int64)
            b = self._window(m, m + c)
            tab = np.bincount(a * S + b, minlength=S * S).reshape(S, S)
        else:
            D = bisect_left(self.lengths, m + c) + 1  # first stage with length >= m + c
            if m <= self.lengths[D - 2] < c and m + c == self.lengths[D - 1]:
                tab = self._climb(m, D)
            else:
                tab = self._split(m, c, D)
        if m > self.enum_cutoff and m + c < self.lJ and key not in self._seen:
            self._seen.add(key)
        else:
            self._memo[key] = tab
        return tab

    def _leaf(self, m: int, c: int) -> bool:
        """Whether Phi(m, c) is read directly: c <= enum_cutoff, c < l_{j0},
        or the whole range inside the prefix with c <= 4 enum_cutoff."""
        return (
            c <= self.enum_cutoff
            or c < self.lengths[self.j0 - 1]
            or (c + m <= len(self.prefix) and c <= 4 * self.enum_cutoff)
        )

    def _climb(self, m: int, D: int) -> np.ndarray:
        """P_D(m) = Phi(m, l_D - m) with m <= l_{D-1} < l_D - m, climbed up
        from the highest stage b < D whose P_b(m) is memoised, a leaf, or
        not such a range (``_phi`` counts that one).

        P_{d+1}(m) = r_d P_d(m) plus one junction per spacer group (s, last,
        n) of stage d: the last min(s, m) sources of a copy into its spacer
        (a star column), max(s - m, 0) star-star pairs and, unless the copy
        is the last, the pairs into the next copy: Phi(l_d + s - m, m - s)
        transposed (a leaf, else the nested-tail jump when m - s <= l_{d-1};
        W_d's symbol counts on the diagonal when s = 0 and m = l_d) and a
        star row. A small lag (m <= enum_cutoff) stores every P_d on the
        way; a long one stores none of them.
        """
        star, lengths = self.star, self.lengths
        b = D - 1
        while not (
            (m, lengths[b - 1] - m) in self._memo
            or self._leaf(m, lengths[b - 1] - m)
            or not m <= lengths[b - 2] < lengths[b - 1] - m
        ):
            b -= 1
        P = self._phi(m, lengths[b - 1] - m)
        for d in range(b, D):
            ld = lengths[d - 1]
            P = P * self.realized.stage(d)[0]  # a new array: the stage before may be memoised
            col, row = P[:, star], P[star, :]
            for s, last, n in self._groups(d):
                self._edge(col, ld - m, ld - m + min(s, m), n)
                if s > m:
                    P[star, star] += n * (s - m)
                if last:
                    continue
                c = m - s  # sources paired into the next copy
                if c == ld:  # no spacer and m = l_d: W_d against itself
                    P.reshape(-1)[:: self.S + 1] += n * self._word_counts(d)
                elif c > 0:
                    if d > self.j0 and c <= lengths[d - 2] and not self._leaf(ld - c, c):
                        self._jump(c, d, P.T, n)
                    else:
                        P += n * self._phi(ld - c, c).T
                self._edge(row, max(c, 0), m, n)
            if m <= self.enum_cutoff:
                self._memo[(m, lengths[d] - m)] = P
        return P

    def _groups(self, j: int) -> List[tuple]:
        """The spacer groups (s, last, n) of stage j: the n copies of W_j
        in W_{j+1} followed by a spacer of s, last for the final copy."""
        groups = self._spacer_groups.get(j)
        if groups is None:
            r, vec = self.realized.stage(j)
            count = Counter((int(s), k == r - 1) for k, s in enumerate(vec))
            groups = [(s, last, n) for (s, last), n in count.items()]
            self._spacer_groups[j] = groups
        return groups

    def _split(self, m: int, c: int, D: int) -> np.ndarray:
        """Phi(m, c) with l_{D-1} < m + c <= l_D, read inside W_D.

        A whole-word range (m + c = l_D) with c <= l_{D-1} takes the
        nested-tail jump (``_jump``). Otherwise W_D splits into its copies
        of W_{D-1} and their spacers, the sources cut at c; ``_phi`` sends
        only partial ranges and whole-word ranges with m > l_{D-1} here
        (the rest climb). A copy pair at shift delta whose sources end at
        v1 inside their copy adds Phi(delta, v1) of W_{D-1} (Phi(-delta, v1
        + delta) transposed when delta < 0, the symbol counts of its first
        v1 symbols on the diagonal at delta = 0), a copy and a spacer add a
        star column or row, two spacers their overlap of stars.
        """
        S, star = self.S, self.star
        tab = np.zeros((S, S), dtype=np.int64)
        if c <= self.lengths[D - 2] and m + c == self.lengths[D - 1]:
            self._jump(c, D, tab)
            return tab
        starts, kinds, lens, _ = self._layout(D)
        ends = [p + n for p, n in zip(starts, lens)]
        copies = defaultdict(int)  # (shift, source end) inside W_{D-1} -> copy pairs
        for lo, hi, gap in zip(starts, ends, kinds):
            if lo >= c:
                break
            hi = min(hi, c)
            for k in range(bisect_right(ends, lo + m), bisect_left(starts, hi + m)):
                x0, x1 = max(lo + m, starts[k]), min(hi + m, ends[k])  # targets
                if not gap and not kinds[k]:
                    copies[m - (starts[k] - lo), x1 - m - lo] += 1
                elif not gap:
                    self._edge(tab[:, star], x0 - m - lo, x1 - m - lo)
                elif not kinds[k]:
                    self._edge(tab[star, :], x0 - starts[k], x1 - starts[k])
                else:
                    tab[star, star] += x1 - x0
        for (d, v1), n in copies.items():
            if d:
                sub = self._phi(d, v1) if d > 0 else self._phi(-d, v1 + d).T
                tab += sub if n == 1 else n * sub
            else:
                tab.reshape(-1)[:: S + 1] += n * self._prefix_hist(v1)  # diagonal
        return tab

    def _jump(self, c: int, D: int, out: np.ndarray, n: int = 1) -> None:
        """Add n times the whole-word range Phi(l_D - c, c) of W_D, with c
        <= l_{D-1}, to out (a table, or a transposed view of one).

        Its targets are the last c symbols of W_D: those of its nested last
        W_e copy, then a run of stars. So it is the whole-word range of W_e
        over the sources whose target is in that copy, plus a star column.
        """
        e, run = self._tail(D, self.j0, c)
        inner = max(c - run, 0)  # sources whose target is in the W_e copy
        le = self.lengths[e - 1]
        if inner == le:
            np.einsum("ii->i", out)[:] += n * self._word_counts(e)  # diagonal
        elif inner:
            out += n * self._phi(le - inner, inner)
        self._edge(out[:, self.star], inner, c, n)

    def _edge(self, line: np.ndarray, lo: int, hi: int, n: int = 1) -> None:
        """Add n times the symbols of W[lo:hi) to line, a star row or column
        of a table; a one-symbol edge adds n to the cell of its symbol."""
        if hi - lo == 1:
            line[self._window(lo, hi)[0]] += n
        elif lo < hi:
            line += n * self._hist(lo, hi)

    # -- k-point counts ----------------------------------------------------

    def _tuples(self, U: tuple, c: int) -> tuple:
        """Counts of (W[u+U_0], ..., W[u+U_{k-1}]) for u in [0, c), k >= 3.

        U is sorted and distinct with U_0 = 0. The result is sparse: sorted
        flat codes (base S, U_0 the most significant digit) and their int64
        counts.
        """
        if c <= 0:
            return _NO_TUPLES
        key = (U, c)
        hit = self._tmemo.get(key)
        if hit is not None:
            return hit
        S = self.S
        if (
            c + U[-1] <= len(self.prefix)
            or c <= self.enum_cutoff
            or c < self.lengths[self.j0 - 1]
        ):
            code = np.zeros(c, dtype=np.int64)
            for off in U:
                code *= S
                code += self._window(off, off + c)
            out = np.unique(code, return_counts=True)
        else:
            d = bisect_right(self.lengths, c)  # largest stage with length <= c
            tiles = []
            cuts = {0, c}
            for off in U:
                segs = self._segments(d, off, off + c)
                starts = [seg[1] for seg in segs]
                tiles.append((segs, starts))
                cuts.update(x - off for x in starts if 0 < x - off < c)
            cuts = sorted(cuts)
            pieces = []
            for v0, v1 in zip(cuts, cuts[1:]):
                inner = []  # offset of each coordinate inside its W_d copy at v = 0
                for off, (segs, starts) in zip(U, tiles):
                    seg = segs[bisect_right(starts, v0 + off) - 1]
                    inner.append(None if seg[0] == "g" else off - seg[1])
                pieces.append((inner, v0, v1))
            out = self._gather(pieces)
        self._tmemo[key] = out
        return out

    def _gather(self, pieces: list) -> tuple:
        """Sparse counts summed over pieces (inner, v0, v1): for v in [v0, v1),
        coordinate i reads W[v + inner[i]], or the spacer when it is None."""
        S, sums = self.S, {}
        for inner, v0, v1 in pieces:
            V = sorted({x for x in inner if x is not None})
            pattern = tuple(x if x is None else V.index(x) for x in inner)
            base = V[0] if V else 0
            V, lo, hi = tuple(x - base for x in V), v0 + base, v1 + base
            if len(V) > 2:
                codes, counts = self._tuples(V, lo)
                sums.setdefault(pattern, []).extend([self._tuples(V, hi), (codes, -counts)])
                continue
            if len(V) == 2:
                dense = (self._phi(V[1], hi) - self._phi(V[1], lo)).ravel()
            else:
                dense = self._hist(lo, hi) if V else np.array([v1 - v0])
            acc = sums.setdefault(pattern, dense)
            if acc is not dense:
                acc += dense
        parts = []
        for pattern, acc in sums.items():
            if isinstance(acc, list):
                codes, counts = (np.concatenate(x) for x in zip(*acc))
            else:
                codes = np.flatnonzero(acc)
                counts = acc[codes]
            if pattern != tuple(range(len(pattern))):
                kv = len(set(pattern) - {None})
                full = np.zeros(len(codes), dtype=np.int64)
                for x in pattern:
                    full *= S
                    full += self.star if x is None else codes // S ** (kv - 1 - x) % S
                codes = full
            parts.append((codes, counts))
        return _sparse_sum(parts)

    # -- public ------------------------------------------------------------

    def triple_counts(self, m: int, n: int) -> np.ndarray:
        """Exact (S, S, S) counts of (W[t-low], W[t+m-low], W[t+n-low]) over
        t in [0, l_J - width), where low = min(0, m, n) and width is the
        spread of {0, m, n}."""
        low = min(0, m, n)
        width = max(0, m, n) - low
        if width >= self.lJ:
            raise LagOutOfRange(f"lag spread {width} >= word length {self.lJ}")
        codes, counts = self._gather([([-low, m - low, n - low], 0, self.lJ - width)])
        flat = np.zeros(self.S**3, dtype=np.int64)
        flat[codes] = counts
        return flat.reshape(self.S, self.S, self.S)

    def counts(self, n: int) -> np.ndarray:
        """Exact C(n); negative lags via the transpose identity."""
        return self._table(n)

    def counts_many(self, lags: Iterable[int]) -> Dict[int, np.ndarray]:
        """{lag: C(lag)} for each distinct lag, each equal to counts(lag).

        Lags with 1 <= |lag| <= enum_cutoff are counted together in one pass
        over the stages (``_small_lags``) and memoised, so a later counts()
        of them is a memo hit; the rest go through the per-lag recursion.
        The pass runs in batches of at most PAIR_CELL_LIMIT table cells;
        each batch builds one tail/head cross table, and every spacer
        junction of every stage is a row of it plus star edges.
        """
        lag_list = list(dict.fromkeys(int(n) for n in lags))
        todo = sorted(
            {
                abs(n)
                for n in lag_list
                if 0 < abs(n) <= self.enum_cutoff
                and abs(n) < self.lJ  # the rest are refused by _table
                and (abs(n), self.lJ - abs(n)) not in self._memo
            }
        )
        step = max(1, PAIR_CELL_LIMIT // self.S**2)  # cells per bincount
        for i in range(0, len(todo), step):
            self._small_lags(todo[i : i + step])
        return {n: self._table(n) for n in lag_list}

    def _table(self, n: int) -> np.ndarray:
        if n == 0:
            return np.diag(self._word_counts(self.J))
        if abs(n) >= self.lJ:
            raise LagOutOfRange(f"|lag| {n} >= word length {self.lJ}")
        if n > 0:
            return self._phi(n, self.lJ - n).copy()
        return self._phi(-n, self.lJ + n).T.copy()

    def _small_lags(self, ms: List[int]) -> None:
        """Memoise Phi(m, l_d - m) at every stage d above d* (so Phi(m, l_J - m)
        too) for sorted lags 1 <= m <= K = ms[-1] < l_J.

        P_d(m), the pairs at lag m inside W_d, starts from Phi at the first
        stage d* >= j0 with l_d* >= K. Then W_{d+1} = W_d s_0 W_d ... W_d
        s_{r-1}, and no pair at lag m <= l_d reaches past the copy after its
        own, so P_{d+1}(m) = r P_d(m) plus one junction term per spacer s:
        the pairs from the tail T (last K symbols of W_d) or the run of s
        stars into the run or the head H (first K symbols of W_d), or only
        into the run after the last copy, where the word ends.

        H is the same at every stage, and T is T0[tau:] followed by tau
        stars: T0 is the tail of W_d*, tau the stars the last spacers added
        since, capped at K. With s' = min(s, K) and k0 = max(m - s' - tau, 0)
        a junction is
          * the cross table row Q0[k0] = sum_{y < k0} e(T0[K-k0+y]) x e(H[y])
            and the star row of H[k0:m] (a spacer before a copy only),
          * the star column of T[K-m : K-m+min(m, s')]: the last m - tau
            symbols of T0 less its last k0, and the rest stars,
          * max(s' - m, 0) star-star pairs inside the run, plus s - K more
            for a spacer longer than K (the capped run drops them).
        Q0 is built once, for the rows the batch reads (_cross_table), so a
        spacer group costs O(len(ms) S^2) gathers at each stage.
        """
        K, star, S = ms[-1], self.star, self.S
        d = max(self.j0, bisect_left(self.lengths, K) + 1)  # first stage with l_d >= K
        ld = self.lengths[d - 1]
        P = np.array([self._phi(m, ld - m) for m in ms])
        if d == self.J:
            return
        mv = np.array(ms, dtype=np.int64)
        tail = self._window(ld - K, ld).astype(np.int64)
        head = self._window(0, K).astype(np.int64)
        # the spacer groups (s, last) of every stage, copies with equal
        # (s, last) sharing one junction; first[i] is stage i's first group
        groups, first, taus, tau = [], [], [], 0
        for i, j in enumerate(range(d, self.J)):
            first.append(len(groups))
            groups += [(i, s, last, n) for s, last, n in self._groups(j)]
            taus.append(tau)
            tau = min(tau + int(self.realized.stage(j)[1][-1]), K)
        stage, s, last, copies = (np.array(x)[:, None] for x in zip(*groups))
        joins = ~last[:, 0]
        tau = np.array(taus)[:, None]
        gt, sc = tau[stage[:, 0]], np.minimum(s, K)  # each group's tau and capped run
        k0 = np.maximum(mv - sc - gt, 0)
        # SUF[k] and CH[k]: histograms of the last k symbols of T0 and the
        # first k of H; A[k] = Q0[k] less the star row CH[k] and the star
        # column SUF[k], the parts of a join's edges that depend on k0
        SUF = _cumulative_hist(tail[::-1], S)
        CH = _cumulative_hist(head, S)
        reads = np.flatnonzero(np.bincount(k0[joins].ravel(), minlength=K + 1))
        A = self._cross_table(tail, head, reads)
        A[:, star, :] -= CH[reads]
        A[:, :, star] -= SUF[reads]
        at = np.zeros(K + 1, dtype=np.intp)
        at[reads] = np.arange(len(reads))
        steps = [[] for _ in taus]  # (copies, A row of each lag) of each join
        for g in np.flatnonzero(joins):
            steps[stage[g, 0]].append((int(copies[g, 0]), at[k0[g]]))
        # the rest of each stage's edges: SUF[m - tau] for every copy, less
        # SUF[k0] for the last one (a stage has one), CH[m] for every join,
        # and the stars of the star columns and runs
        stars = copies * (
            np.minimum(mv, gt)
            - np.minimum(np.maximum(mv - sc, 0), gt)
            + np.maximum(sc - mv, 0)
            + np.maximum(s - K, 0)
        )
        star_cols = np.add.reduceat(copies, first)[:, :, None] * np.take(
            SUF, np.maximum(mv - tau, 0), axis=0
        )
        star_cols -= np.take(SUF, k0[~joins], axis=0)
        star_cols[:, :, star] += np.add.reduceat(stars, first)
        star_rows = np.add.reduceat(copies * joins[:, None], first)[:, :, None] * CH[mv]
        for i, j in enumerate(range(d, self.J)):
            P = P * self.realized.stage(j)[0]  # a new array: the stage before stays memoised
            for c, k in steps[i]:
                P += c * np.take(A, k, axis=0)
            P[:, :, star] += star_cols[i]
            P[:, star, :] += star_rows[i]
            for m, tab in zip(ms, P):  # the entries a per-lag descent would leave
                self._memo[(m, self.lengths[j] - m)] = tab

    def _cross_table(self, tail: np.ndarray, head: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(len(rows), S, S) counts of the pairs (tail[K - k + y], head[y]) for
        y < k, one table for each k in rows (sorted, each at most K).

        Rows go to one bincount per block of at most PAIR_CELL_LIMIT cells
        and, where rows are short enough, _CROSS_BLOCK pairs.
        """
        S, K = self.S, len(tail)
        # int32 throughout: every code is below PAIR_CELL_LIMIT, every index below 2K
        X = np.concatenate([tail, head]).astype(np.int32)
        XS = X * np.int32(S)
        out = np.empty((len(rows), S, S), dtype=np.int64)
        ends = np.cumsum(rows)
        i, step = 0, max(1, PAIR_CELL_LIMIT // S**2)
        while i < len(rows):
            n = int(np.searchsorted(ends, ends[i] - rows[i] + _CROSS_BLOCK, "right")) - i
            ks = rows[i : i + min(max(n, 1), step)].astype(np.int32)
            src = np.repeat(K - np.cumsum(ks, dtype=np.int32), ks)  # sources K - k <= x < K
            src += np.arange(len(src), dtype=np.int32)
            codes = np.repeat(np.arange(len(ks), dtype=np.int32) * np.int32(S * S), ks)
            codes += XS[src]
            src += np.repeat(ks, ks)
            codes += X[src]
            out[i : i + len(ks)] = np.bincount(codes, minlength=len(ks) * S * S).reshape(-1, S, S)
            i += len(ks)
        return out


def _cumulative_hist(x: np.ndarray, S: int) -> np.ndarray:
    """(len(x) + 1, S) table whose row i is the histogram of x[:i]."""
    out = np.zeros((len(x) + 1, S), dtype=np.int64)
    out[np.arange(1, len(x) + 1), x] = 1
    return out.cumsum(axis=0)


def lag_counts_block(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    lags: Iterable[int],
    **cutoffs,
) -> Dict[int, np.ndarray]:
    """Hierarchical pair counts for a set of lags (shared recursion cache)."""
    return PairCounter(realized, J, j0, **cutoffs).counts_many(lags)


def unit_mass(c: np.ndarray, n: int, lJ: int) -> np.ndarray:
    """Pair counts at lag n over their window of l_J - |n| sources.

    Every reported matrix is normalized here, so it has mass one and
    compares directly with the limit basis; the flow engine calls it with
    the shift and the column height in ticks. It also serves k-point
    counts over their window: triple counts at offsets (m, n) pass their
    width max(0, m, n) - min(0, m, n) as n.
    """
    return c.astype(np.float64) / (lJ - abs(n))
