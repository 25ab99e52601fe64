"""Exact finite-depth lag statistics on cutting-and-stacking words.

Two engines produce identical integer pair counts
C(n)[a][b] = #{p : W[p] = a, W[p+n] = b}:

* a one-pass streaming counter (``lag_counts_naive``) that scans the word in
  chunks holding only a max-lag ring window, and
* a hierarchical counter (``PairCounter`` / ``lag_counts_block``) that never
  builds the word. It evaluates Phi(m, c) = counts of pairs (u, u+m) with
  u < c read against the inductive-limit word (stage words are prefixes of
  one another). Decomposing the source range at the coarsest stage d with
  l_d <= c turns every fully covered block into complete lower-stage tables
  (a length-l_d window overlapping a length-l_d block always induces a full,
  possibly transposed, pair range) plus small spacer edge terms; the one
  block straddling c recurses with strictly smaller c. An edge one symbol
  wide adds 1 to one cell: ``_symbol`` reads W[p] as a Python int by one
  bisect per stage, memoised by position (edges repeat across lags and
  blocks). Wider edges and small ranges are read directly: ``_window``
  returns W[lo:hi) in one descent through the stage layouts, so a range
  costs O(depth + length).

The same counter gives exact k-point counts (``PairCounter.triple_counts``
for k = 3). T(U, c) counts (W[u+U_0], ..., W[u+U_{k-1}]) for u < c. Each
coordinate's range is tiled at the stage d above, and the sources are cut
wherever a coordinate crosses a block or gap boundary. In each piece the
coordinates in a gap read the spacer, and the rest read one W_d copy each,
so the piece is a range count T(V, hi) - T(V, lo) over their offsets inside
the copy, at hi <= l_d. Ranges with two offsets go to Phi, ranges with one
to a histogram; k >= 3 entries are memoised sparse (sorted flat codes plus
counts), since most of the S**k cells are empty.

Normalized matrices D(n) = C(n)/l_J estimate mu(level_a  T^{-n} level_b)
with boundary error |n|/l_J; negative lags are transposes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .construction import RealizedSchedule, heights
from .errors import DepthOverBudget, LagOutOfRange, MissingLag
from .words import (
    DEFAULT_BUDGET,
    DTYPE,
    alphabet_size,
    base_word,
    expand_once,
    spacer_symbol,
    stream_word,
)

__all__ = [
    "PairCounter",
    "lag_counts_naive",
    "lag_counts_block",
    "CorrMatrix",
    "corr_matrix",
    "CorrSequence",
    "corr_sequence",
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


# ---------------------------------------------------------------------------
# streaming counter

def _count_into(tables, ext, tail_len, g, lags, S):
    """Add pairs whose target position falls inside the chunk ending ext.

    ext is the previous tail (tail_len symbols) followed by the chunk, which
    starts at word position g.
    """
    if not lags:
        return
    ext = ext.astype(np.intp)  # one cast per chunk, shared by every lag
    src = ext * S
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
    if not parts:
        return _NO_TUPLES
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
    bottoms out on it, and it caps the windows read symbol by symbol);
    enum_cutoff sends residual ranges up to that length to one bincount over
    two directly read windows. Both only trade speed; counts are exact.
    """

    def __init__(
        self,
        realized: RealizedSchedule,
        J: int,
        j0: int,
        materialize_cutoff: int = 1 << 16,
        enum_cutoff: int = 1 << 10,
    ):
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
        self._layouts: Dict[int, tuple] = {}
        self._memo: Dict[tuple, np.ndarray] = {}
        self._tmemo: Dict[tuple, tuple] = {}
        self._wcounts: Dict[int, np.ndarray] = {}
        self._symbols: Dict[int, int] = {}

    # -- layout helpers ----------------------------------------------------

    def _layout(self, g: int):
        """Segments of W_g as (starts, kinds, lens); kind 0 block, 1 gap."""
        lay = self._layouts.get(g)
        if lay is None:
            r, vec = self.realized.stage(g - 1)
            lb = self.lengths[g - 2]
            starts, kinds, lens = [], [], []
            pos = 0
            for i in range(r):
                starts.append(pos)
                kinds.append(0)
                lens.append(lb)
                pos += lb
                s = int(vec[i])
                if s:
                    starts.append(pos)
                    kinds.append(1)
                    lens.append(s)
                    pos += s
            lay = (starts, kinds, lens)
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

    def _walk(self, g, d, base, lo, hi, out):
        if g == d:
            out.append(("b", base))
            return
        starts, kinds, lens = self._layout(g)
        rel_lo, rel_hi = lo - base, hi - base
        i = bisect_right(starts, rel_lo) - 1
        if i < 0:
            i = 0
        while i < len(starts) and starts[i] < rel_hi:
            s0 = starts[i]
            if s0 + lens[i] > rel_lo:
                if kinds[i]:
                    out.append(("g", base + s0, lens[i]))
                else:
                    self._walk(
                        g - 1,
                        d,
                        base + s0,
                        max(lo, base + s0),
                        min(hi, base + s0 + lens[i]),
                        out,
                    )
            i += 1

    # -- word access -------------------------------------------------------

    def _window(self, lo: int, hi: int) -> np.ndarray:
        """Symbols of W[lo:hi) in one descent through the stage layouts."""
        if hi <= len(self.prefix):
            return self.prefix[lo:hi]
        if hi <= self.lengths[self.j0 - 1]:
            return np.arange(lo, hi, dtype=DTYPE)  # base word lists its levels in order
        g = bisect_right(self.lengths, hi - 1) + 1  # smallest stage with length >= hi
        starts, kinds, lens = self._layout(g)
        i = bisect_right(starts, lo) - 1
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

    def _symbol(self, p: int) -> int:
        """W[p] as a Python int: one bisect per stage, memoised by position."""
        sym = self._symbols.get(p)
        if sym is None:
            q = p
            while q >= len(self.prefix):
                if q < self.lengths[self.j0 - 1]:
                    sym = q  # base word lists its levels in order
                    break
                g = bisect_right(self.lengths, q) + 1  # smallest stage with length > q
                starts, kinds, _ = self._layout(g)
                i = bisect_right(starts, q) - 1
                if kinds[i]:
                    sym = self.star
                    break
                q -= starts[i]
            else:
                sym = int(self.prefix[q])
            self._symbols[p] = sym
        return sym

    def _hist(self, lo: int, hi: int) -> np.ndarray:
        """Histogram of W[lo:hi); long windows via prefix histograms."""
        if hi - lo <= len(self.prefix):
            return np.bincount(self._window(lo, hi), minlength=self.S)
        return self._prefix_hist(hi) - self._prefix_hist(lo)

    def _word_counts(self, j: int) -> np.ndarray:
        """Occurrences of each symbol in W_j (analytic)."""
        wc = self._wcounts.get(j)
        if wc is None:
            copies = 1
            for k in range(self.j0, j):
                copies *= self.realized.stage(k)[0]
            wc = np.full(self.S, copies, dtype=np.int64)
            l0 = self.lengths[self.j0 - 1]
            wc[self.star] = self.lengths[j - 1] - l0 * copies
            self._wcounts[j] = wc
        return wc

    def _prefix_hist(self, x: int) -> np.ndarray:
        """Histogram of W[0:x)."""
        h = np.zeros(self.S, dtype=np.int64)
        lb = self.lengths[self.j0 - 1]
        while x > 0:
            if x <= len(self.prefix):
                h += np.bincount(self.prefix[:x], minlength=self.S)
                return h
            if x <= lb:
                h[:x] += 1  # base word prefix hits each low level once
                return h
            g = bisect_right(self.lengths, x - 1) + 1  # smallest stage with length >= x
            if self.lengths[g - 1] == x:
                h += self._word_counts(g)
                return h
            starts, kinds, lens = self._layout(g)
            i = 0
            while i < len(starts) and starts[i] < x:
                if starts[i] + lens[i] <= x:
                    if kinds[i]:
                        h[self.star] += lens[i]
                    else:
                        h += self._word_counts(g - 1)
                    i += 1
                else:
                    if kinds[i]:
                        h[self.star] += x - starts[i]
                        return h
                    x -= starts[i]  # descend into the straddling block
                    break
            else:
                return h
        return h

    # -- the recursion -----------------------------------------------------

    def _phi(self, m: int, c: int) -> np.ndarray:
        """Counts of pairs (W[u], W[u+m]) for u in [0, c); m >= 1."""
        S = self.S
        if c <= 0:
            return np.zeros((S, S), dtype=np.int64)
        key = (m, c)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if (
            c + m <= len(self.prefix)
            or c <= self.enum_cutoff
            or c < self.lengths[self.j0 - 1]
        ):
            a = self._window(0, c).astype(np.int64)
            b = self._window(m, m + c)
            tab = np.bincount(a * S + b, minlength=S * S).reshape(S, S)
        else:
            tab = np.zeros((S, S), dtype=np.int64)
            d = bisect_right(self.lengths, c)  # largest stage with length <= c
            ld = self.lengths[d - 1]
            for seg in self._segments(d, 0, c):
                if seg[0] == "g":
                    lo, hi = seg[1], min(seg[1] + seg[2], c)
                    if hi - lo == 1:  # a one-symbol spacer edge
                        tab[self.star, self._symbol(lo + m)] += 1
                    elif lo < hi:
                        tab[self.star, :] += self._hist(lo + m, hi + m)
                else:
                    A = seg[1]
                    span = min(c - A, ld)
                    self._add_block(tab, A, m, span, d, ld)
        self._memo[key] = tab
        return tab

    def _add_block(self, tab, A, m, span, d, ld):
        """Pairs with source in W_d-copy at A, offsets [0, span)."""
        star = self.star
        for seg in self._segments(d, A + m, A + m + span):
            if seg[0] == "g":
                v0 = max(seg[1] - A - m, 0)
                v1 = min(seg[1] + seg[2] - A - m, span)
                if v1 - v0 == 1:
                    tab[self._symbol(v0), star] += 1
                elif v0 < v1:
                    tab[:, star] += self._hist(v0, v1)
            else:
                mp = m + A - seg[1]
                if mp == 0:
                    h = (
                        self._word_counts(d)
                        if span == ld
                        else self._prefix_hist(span)
                    )
                    tab[np.arange(self.S), np.arange(self.S)] += h
                elif mp > 0:
                    tab += self._phi(mp, min(span, ld - mp))
                else:
                    sub = self._phi(-mp, span + mp)  # span-(-mp), sources shifted
                    tab += sub.T

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
            parts = []
            for v0, v1 in zip(cuts, cuts[1:]):
                inner = []  # offset of each coordinate inside its W_d copy at v = 0
                for off, (segs, starts) in zip(U, tiles):
                    seg = segs[bisect_right(starts, v0 + off) - 1]
                    inner.append(None if seg[0] == "g" else off - seg[1])
                parts.extend(self._piece(inner, v0, v1))
            out = _sparse_sum(parts)
        self._tmemo[key] = out
        return out

    def _piece(self, inner: list, v0: int, v1: int) -> list:
        """Sparse k-coordinate counts over sources [v0, v1) where coordinate i
        reads W[v + inner[i]], or the spacer when inner[i] is None."""
        S = self.S
        if all(x is None for x in inner):
            star = sum(self.star * S**i for i in range(len(inner)))
            return [(np.array([star]), np.array([v1 - v0]))]
        base = min(x for x in inner if x is not None)
        V = sorted({x - base for x in inner if x is not None})
        lo, hi = v0 + base, v1 + base
        kv = len(V)
        if kv > 2:
            lo_codes, lo_counts = self._tuples(tuple(V), lo)
            terms = [self._tuples(tuple(V), hi), (lo_codes, -lo_counts)]
        else:
            if kv == 1:
                dense = self._hist(lo, hi)
            else:
                dense = (self._phi(V[1], hi) - self._phi(V[1], lo)).ravel()
            codes = np.flatnonzero(dense)
            terms = [(codes, dense[codes])]
        out = []
        for codes, counts in terms:
            full = np.zeros(len(codes), dtype=np.int64)
            for x in inner:
                full *= S
                if x is None:
                    full += self.star
                else:
                    full += codes // S ** (kv - 1 - V.index(x - base)) % S
            out.append((full, counts))
        return out

    # -- public ------------------------------------------------------------

    def triple_counts(self, m: int, n: int) -> np.ndarray:
        """Exact (S, S, S) counts of (W[t-low], W[t+m-low], W[t+n-low]) over
        t in [0, l_J - width), where low = min(0, m, n) and width is the
        spread of {0, m, n}."""
        low = min(0, m, n)
        width = max(0, m, n) - low
        if width >= self.lJ:
            raise LagOutOfRange(f"lag spread {width} >= word length {self.lJ}")
        codes, counts = _sparse_sum(
            self._piece([-low, m - low, n - low], 0, self.lJ - width)
        )
        flat = np.zeros(self.S**3, dtype=np.int64)
        flat[codes] = counts
        return flat.reshape(self.S, self.S, self.S)

    def counts(self, n: int) -> np.ndarray:
        """Exact C(n); negative lags via the transpose identity."""
        if n == 0:
            return np.diag(self._word_counts(self.J))
        if abs(n) >= self.lJ:
            raise LagOutOfRange(f"|lag| {n} >= word length {self.lJ}")
        if n > 0:
            return self._phi(n, self.lJ - n).copy()
        return self._phi(-n, self.lJ + n).T.copy()


def lag_counts_block(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    lags: Iterable[int],
    **cutoffs,
) -> Dict[int, np.ndarray]:
    """Hierarchical pair counts for a set of lags (shared recursion cache)."""
    pc = PairCounter(realized, J, j0, **cutoffs)
    return {int(n): pc.counts(int(n)) for n in dict.fromkeys(lags)}


# ---------------------------------------------------------------------------
# normalized matrices

@dataclass(frozen=True)
class CorrMatrix:
    """D(n) = C(n)/l_J plus its boundary error bound |n|/l_J."""

    lag: int
    matrix: np.ndarray
    boundary_error: float
    word_length: int


_ENGINES = {"block": lag_counts_block, "naive": lag_counts_naive}


def _engine(name: str):
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(f"engine must be 'block' or 'naive', got {name!r}") from None


def _normalized(n: int, c: np.ndarray, lJ: int) -> CorrMatrix:
    return CorrMatrix(
        lag=n,
        matrix=c.astype(np.float64) / lJ,
        boundary_error=abs(n) / lJ,
        word_length=lJ,
    )


def corr_matrix(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    n: int,
    engine: str = "block",
    counter: Optional[PairCounter] = None,
) -> CorrMatrix:
    """Normalized correlation matrix at one lag.

    Any |n| < l_J is accepted; boundary_error = |n|/l_J tells the caller how
    much of the window was lost to truncation.  Experiment configs apply the
    stricter l_J/LAG_CAP_DIVISOR cap before ever reaching this function.
    engine "block" is the hierarchical counter (or the given counter),
    "naive" the streaming oracle.
    """
    count = _engine(engine)
    lJ = int(heights(realized, J)[J - 1])
    if abs(n) >= lJ:
        raise LagOutOfRange(f"|lag| {n} >= word length {lJ}")
    c = counter.counts(n) if counter is not None else count(realized, J, j0, [n])[n]
    return _normalized(n, c, lJ)


class CorrSequence:
    """Correlation matrices for a family of lags, queried by lag."""

    def __init__(self, word_length: int):
        self.word_length = word_length
        self._by_lag: Dict[int, CorrMatrix] = {}

    def add(self, cm: CorrMatrix) -> None:
        self._by_lag[cm.lag] = cm

    @property
    def lags(self) -> List[int]:
        return list(self._by_lag)

    def matrix(self, lag: int) -> CorrMatrix:
        try:
            return self._by_lag[lag]
        except KeyError:
            raise MissingLag(f"lag {lag} was not computed") from None

    def __contains__(self, lag: int) -> bool:
        return lag in self._by_lag

    def __iter__(self):
        return iter(self._by_lag.values())


def corr_sequence(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    lags: Sequence[int],
    engine: str = "block",
) -> CorrSequence:
    """Correlation matrices for each distinct lag, order-preserving.

    engine "block" shares one hierarchical counter's cache across the lags;
    "naive" counts them all in one streaming pass (the oracle).
    """
    count = _engine(engine)
    lag_list = list(dict.fromkeys(int(n) for n in lags))
    lJ = int(heights(realized, J)[J - 1])
    tables = count(realized, J, j0, lag_list)
    seq = CorrSequence(lJ)
    for n in lag_list:
        seq.add(_normalized(n, tables[n], lJ))
    return seq
