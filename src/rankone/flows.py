"""Exact rational-time engine for rank-one flows over a staircase column.

The depth-J column is an ordered list of segments: base copies of duration
h_{j0} and real-duration spacers. Times are exact rationals; internally
every duration is scaled to integer ticks on a common denominator, so set
measures come out as integer tick counts with no floating-point error.

Correlations live on a slab algebra: the base fiber [0, h_{j0}) cut into L
equal slabs, spacers mapped to a star symbol. C(t)[a][b] is the Lebesgue
measure, in ticks, of {u : phi(u) in slab_a, phi(u+t) in slab_b}
(FlowColumn.pair_counts), found by the copy recursion below;
correlation.unit_mass turns it into the unit-mass matrix D(t) over its
window of H - |t| ticks.

Time averages P_m = (1/m) * integral of T_t over an m-long window are exact:
the integral of the pair measure over a window [lo, hi] is, for each
b-interval [s, e), A_a(e-lo) - A_a(s-lo) - A_a(e-hi) + A_a(s-hi), where A_a
is the second antiderivative of symbol a's occupation. It is evaluated in
integer ticks, one symbol at a time. The limit check compares D(q*h_j)
against the averaged window, resolving the sign of the lag empirically, and
reports the lag's exact copy-split kernel: the small shifts that the copy
recursion leaves, each weighted by the mass of its pairs.

A shift follows the copy recursion. The column W_J is r_e copies of the
stage-e column W_e, each followed by a spacer, so a pair of copies of
W_{J-1} starting p apart adds C_{t-p}(W_{J-1}), split the same way one stage
down, until the shift is 0 or the copies are base copies. A base-copy pair
at shift a = k*w + r (w the slab width) adds w - r to every slab pair
(i, i+k) and r to every (i, i+k+1), and shift 0 adds a copy's slab measure
to the diagonal, so the slab block of C_t is one band of diagonals. The
pairs with a spacer are what the two marginals leave: the symbols below
H - |t| and above |t|, less the slab block's row and column sums.

A window of small shifts reads a stage view instead of the whole column.
For |t| <= h_d the pair counts of W_J are N_d times those of W_d plus, for
each copy at each stage e >= d, N_{e+1} times the counts of the junction
(tail, spacer, head) less those of its tail and head alone. The view lays
these column windows out with their integer weights, apart by voids longer
than h_d, and a window on it sums lengths times weights; counts stay exact.
Only a window too long for a view reads the whole column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .construction import RealizedSchedule, heights
from .correlation import unit_mass
from .errors import SegmentBudgetExceeded, TimeOutOfRange

__all__ = [
    "SegmentList",
    "SlabAlgebra",
    "FlowColumn",
    "segment_counts",
    "flow_segments",
    "PmResult",
    "flow_Pm_matrix",
    "pm_identity_gap",
    "FlowLimitReport",
    "flow_limit_check",
    "SEGMENT_BUDGET",
    "BREAK_BUDGET",
    "MIN_SLABS",
]

SEGMENT_BUDGET = 10**7
BREAK_BUDGET = 3 * 10**7
#: The slab algebra cuts the base fiber into at least this many slabs.
MIN_SLABS = 2
_TICK_LIMIT = 1 << 62

COPY = 0
SPACER = 1


@dataclass(frozen=True)
class SegmentList:
    """Ordered exact decomposition of the depth-J column.

    kinds[i] is COPY or SPACER; durations are nums[i]/dens[i]. Every copy
    has duration base_duration; total is the exact tower height. stages
    holds (r_e, spacer durations) for e = j0..J-1, zeros included: stage
    e+1 is r_e copies of stage e, each followed by its spacer.
    """

    kinds: np.ndarray
    nums: np.ndarray
    dens: np.ndarray
    base_duration: Fraction
    total: Fraction
    copies: int
    stages: Tuple[Tuple[int, Tuple[Fraction, ...]], ...]

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Tuple[str, Fraction]]:
        for k, n, d in zip(self.kinds, self.nums, self.dens):
            yield ("copy" if k == COPY else "spacer", Fraction(int(n), int(d)))


def segment_counts(realized: RealizedSchedule, J: int, j0: int = 1) -> Tuple[int, int]:
    """(copies, spacer runs) of the depth-J segment list, without building it.

    Raises SegmentBudgetExceeded once the segment count passes SEGMENT_BUDGET.
    """
    copies, spacers = 1, 0
    for j in range(j0, J):
        r, vec = realized.stage(j)
        copies, spacers = copies * r, spacers * r + sum(1 for s in vec if s != 0)
        if copies + spacers > SEGMENT_BUDGET:
            raise SegmentBudgetExceeded(
                f"depth {J} needs {copies + spacers}+ segments (budget {SEGMENT_BUDGET})"
            )
    return copies, spacers


def flow_segments(realized: RealizedSchedule, J: int, j0: int = 1) -> SegmentList:
    """Segment decomposition: stage j+1 = r_j copies of stage j, a spacer
    run after each copy; zero-duration spacers are dropped."""
    if realized.kind != "flow":
        raise ValueError("flow_segments wants a flow schedule")
    if not 1 <= j0 <= J:
        raise ValueError(f"need 1 <= j0 <= J, got j0={j0}, J={J}")
    segment_counts(realized, J, j0)
    hs = heights(realized, J)
    base = hs[j0 - 1]

    kinds = np.array([COPY], dtype=np.int8)
    nums = np.array([base.numerator], dtype=np.int64)
    dens = np.array([base.denominator], dtype=np.int64)
    stages = []
    for j in range(j0, J):
        r, vec = realized.stage(j)
        stages.append((r, tuple(Fraction(s) for s in vec)))
        parts_k, parts_n, parts_d = [], [], []
        for i in range(r):
            parts_k.append(kinds)
            parts_n.append(nums)
            parts_d.append(dens)
            s = vec[i]
            if s != 0:
                sf = Fraction(s)
                parts_k.append(np.array([SPACER], dtype=np.int8))
                parts_n.append(np.array([sf.numerator], dtype=np.int64))
                parts_d.append(np.array([sf.denominator], dtype=np.int64))
        kinds = np.concatenate(parts_k)
        nums = np.concatenate(parts_n)
        dens = np.concatenate(parts_d)
    copies = int((kinds == COPY).sum())
    return SegmentList(
        kinds=kinds,
        nums=nums,
        dens=dens,
        base_duration=base,
        total=hs[J - 1],
        copies=copies,
        stages=tuple(stages),
    )


@dataclass(frozen=True)
class SlabAlgebra:
    """Base fiber [0, h_{j0}) cut into L equal slabs; spacers map to star."""

    L: int

    def __post_init__(self):
        if self.L < MIN_SLABS:
            raise ValueError(f"slab algebra wants L >= {MIN_SLABS}")

    @property
    def size(self) -> int:
        return self.L + 1

    @property
    def star(self) -> int:
        return self.L


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


@dataclass(frozen=True)
class _View:
    """A weighted column: interval i of [breaks[i], breaks[i+1]) (the last
    one ends at height) carries codes[i] and counts weights[i] times. Pair
    counts and windows read on it are the sums over its intervals."""

    breaks: np.ndarray
    codes: np.ndarray
    weights: np.ndarray
    height: int


class FlowColumn:
    """The column at integer ticks: its stages for the copy recursion, and
    its breakpoints for windows.

    Pair counts at one shift follow the copy recursion down to pairs of
    base copies (see pair_counts). Breakpoints mark every segment start
    plus every slab boundary inside a copy; codes give the symbol on the
    interval that follows. A window of shifts is integrated from per-symbol
    antiderivative tables over a stage view (see _pieces), which is much
    shorter than the column when the shifts are small.
    """

    def __init__(self, segments: SegmentList, slabs: SlabAlgebra):
        self.segments = segments
        self.slabs = slabs
        L = slabs.L
        den = 1
        for d in set(segments.dens.tolist()):
            den = _lcm(den, d)
        width = segments.base_duration / L
        den = _lcm(den, width.denominator)
        self.den = den
        self.width_ticks = int(width * den)
        self.H_ticks = int(segments.total * den)
        if self.H_ticks >= _TICK_LIMIT:
            raise SegmentBudgetExceeded("tick scale overflows 63-bit integers")

        durs = segments.nums * (den // segments.dens)
        starts = np.concatenate([[0], np.cumsum(durs)[:-1]])
        n_breaks = int((segments.kinds == COPY).sum()) * L + int(
            (segments.kinds == SPACER).sum()
        )
        if n_breaks > BREAK_BUDGET:
            raise SegmentBudgetExceeded(
                f"column needs {n_breaks} breakpoints (budget {BREAK_BUDGET})"
            )
        copy_mask = segments.kinds == COPY
        copy_starts = starts[copy_mask]
        slab_marks = (
            copy_starts[:, None] + self.width_ticks * np.arange(L, dtype=np.int64)
        ).ravel()
        slab_codes = np.tile(np.arange(L, dtype=np.int16), len(copy_starts))
        gap_marks = starts[~copy_mask]
        gap_codes = np.full(len(gap_marks), slabs.star, dtype=np.int16)
        order = np.argsort(
            np.concatenate([slab_marks, gap_marks]), kind="stable"
        )
        self.breaks = np.concatenate([slab_marks, gap_marks])[order]
        self.codes = np.concatenate([slab_codes, gap_codes])[order]

        # stage heights h_{j0}..h_J and spacers in ticks, for the stage views;
        # W_{e+1}'s parts (start, is a copy, copies before it) and the
        # ticks each symbol takes in W_e, for the copy recursion and the
        # occupations
        self._stages = [
            (r, [int(s * den) for s in gaps]) for r, gaps in segments.stages
        ]
        self._heights = [int(segments.base_duration * den)]
        self._totals = [np.append(np.full(L, self.width_ticks, dtype=np.int64), 0)]
        self._parts = []
        for r, gaps in self._stages:
            h, pos, parts = self._heights[-1], 0, []
            for i, s in enumerate(gaps):
                parts.append((pos, True, i))
                if s:
                    parts.append((pos + h, False, i + 1))
                pos += h + s
            self._parts.append(parts)
            self._heights.append(pos)
            self._totals.append(r * self._totals[-1])
            self._totals[-1][slabs.star] += sum(gaps)
        self._views = {}  # stage views of the column by stage
        self._starts = {}  # copy starts of W_{e+1} by (e, f)
        self._splits = {}  # _split by (e, a, f)

    def _ticks(self, *ts: Fraction) -> Tuple[List[int], int]:
        """([tau, ...], f): each t = tau / (f * den); f is the smallest extra
        scale factor that makes every t a whole number of ticks."""
        raws = [Fraction(t) * self.den for t in ts]
        f = 1
        for raw in raws:
            f = _lcm(f, raw.denominator)
        if self.H_ticks * f >= _TICK_LIMIT:
            raise SegmentBudgetExceeded(
                f"time denominator {f * self.den} overflows the tick scale"
            )
        return [int(raw * f) for raw in raws], f

    def _view(self, reach: int, f: int) -> Optional[_View]:
        """The view of the column that answers every shift of at most reach
        ticks at scale f: the stage view of the first stage d with
        h_d * f >= reach, or None where that view would be no shorter than
        the column."""
        d = bisect_left(self._heights, -(-reach // f))
        if d not in self._views:
            pieces = self._pieces(d)
            self._views[d] = pieces and self._stage_view(d, pieces)
        return self._views[d]

    def _pieces(self, d: int):
        """The pieces of the stage view _stage_view builds, or None when the
        view would not be shorter than the column.

        A stage-(e+1) column is r_e copies of W_e, each followed by its
        spacer s_i, so for d <= e < J and |t| <= K = h_d (stages counted
        from j0)
            C_t(W_J) = N_d C_t(W_d) + sum over e and copies i of
                       N_{e+1} [C_t(tail_K s_i head_K) - C_t(tail_K) - C_t(head_K)]
        with N_e the number of copies of W_e in W_J, tail_K and head_K the
        last and first K ticks of W_e, and no head after the last copy.
        The column starts with W_{e+1} for every e, so every piece is a tick
        window (lo, hi) of it with a weight w, cut from the column's
        breakpoints i0..i1; head_K is W_d itself, and equal junctions share
        one window.
        """
        K = self._heights[d]
        N = 1
        for r, _ in self._stages[d:]:
            N *= r
        weight = defaultdict(int)
        weight[(0, K)] = N
        junction = {}
        for e in range(d, len(self._stages)):
            r, gaps = self._stages[e]
            h = self._heights[e]
            N //= r
            end = h  # where copy i of W_e ends inside the first W_{e+1}
            for i, s in enumerate(gaps):
                last = i == r - 1
                if s or not last:
                    piece = junction.setdefault(
                        (e, s, last), (end - K, end + s + (0 if last else K))
                    )
                    weight[piece] += N
                    weight[(h - K, h)] -= N
                    if not last:
                        weight[(0, K)] -= N
                end += s + h
        pieces = [
            (lo, hi, w,
             int(np.searchsorted(self.breaks, lo, side="right")) - 1,
             int(np.searchsorted(self.breaks, hi, side="left")))
            for (lo, hi), w in weight.items() if w
        ]
        if sum(i1 - i0 + 1 for _, _, _, i0, i1 in pieces) >= len(self.breaks):
            return None
        return pieces

    def _stage_view(self, d: int, pieces: list) -> _View:
        """Column pieces whose weighted pair counts equal those of the
        column for every |t| <= K = h_d (see _pieces). Pieces are laid out
        apart by a void of K + 1 ticks that carries the extra code S, so no
        pair of reach <= K joins two pieces.
        """
        K = self._heights[d]
        void = self.slabs.size
        breaks, codes, weights, pos = [], [], [], 0
        for lo, hi, w, i0, i1 in pieces:
            run = self.breaks[i0:i1] + (pos - lo)
            run[0] = pos
            breaks += [run, [pos + hi - lo]]
            codes += [self.codes[i0:i1], [void]]
            weights += [np.full(i1 - i0, w, dtype=np.int64), [0]]
            pos += hi - lo + K + 1
        return _View(
            np.concatenate(breaks),
            np.concatenate(codes).astype(self.codes.dtype),
            np.concatenate(weights),
            pos,
        )

    def pair_counts(self, t: Fraction) -> Tuple[np.ndarray, int]:
        """Exact tick counts of slab pairs at shift t; returns (C, H_scaled).

        C[a][b] = ticks{u in [0, H-|t|) : phi(u + max(-t,0)) = a,
                                          phi(u + max(t,0)) = b}.

        The copy recursion (see _descend) ends every pair of slabs in a pair
        of base copies at a shift a = k*w + r, which adds w - r ticks to the
        slab pairs (i, i+k) and r to (i, i+k+1), or at shift 0, which adds a
        copy's slab measure to every (i, i). Both depend on j - i only, so
        the slab block is one band of 2L + 1 diagonals. The star column is
        what the slab rows leave of the symbols below H - |t|, the star row
        what the slab columns leave of those above |t|, and [star, star]
        the rest of the H - |t| ticks; C_{-t} is C_t transposed.
        """
        (tau,), f = self._ticks(t)
        H = self.H_ticks * f
        if abs(tau) >= H:
            raise TimeOutOfRange(f"|t| = {abs(Fraction(t))} >= height {self.segments.total}")
        L, w = self.slabs.L, self.width_ticks * f
        band = [0] * (2 * L + 1)  # band[L + j - i]: the ticks of slab pair (i, j)
        for e, a, fwd, bwd, copies in self._descend(tau, f, lambda a, e: a == 0 or e == 0):
            if copies is not None:
                continue
            if a == 0:
                band[L] += fwd * f * int(self._totals[e][0])
                continue
            k, r = divmod(a, w)
            for d, n in ((k, w - r), (k + 1, r)):
                band[L + d] += fwd * n
                band[L - d] += bwd * n
        i = np.arange(L)
        block = np.array(band, dtype=np.int64)[L + i[None, :] - i[:, None]]
        a, top = abs(tau), len(self._stages)
        below = self._occupation(top, H - a, f)  # the symbols of [0, H - a)
        above = f * self._totals[top] - self._occupation(top, a, f)  # of [a, H)
        src, dst = (below, above) if tau >= 0 else (above, below)
        C = np.zeros((L + 1, L + 1), dtype=np.int64)
        C[:L, :L] = block
        C[:L, L] = src[:L] - block.sum(axis=1)
        C[L, :L] = dst[:L] - block.sum(axis=0)
        C[L, L] = H - a - C.sum()
        return C, H

    def _descend(self, tau: int, f: int, leaf):
        """Follow C_tau of the column down the copy recursion (see _split):
        yields (e, a, fwd, bwd, copies) for each shift size a >= 0 of W_e
        reached, which adds fwd C_a(W_e) + bwd C_a(W_e)^T. copies is None
        where leaf(a, e) holds; otherwise a is split once, and copies holds
        the split's copy pairs, which go one stage down. The pairs with a
        spacer are left to the caller."""
        shifts = {tau: 1}  # shifts of W_e with their multiplicities
        for e in range(len(self._stages), -1, -1):
            below = defaultdict(int)
            for a in {abs(d) for d in shifts}:
                fwd, bwd = shifts.get(a, 0), shifts.get(-a, 0) if a else 0
                copies = None
                if not leaf(a, e):
                    copies = self._split(e - 1, a, f)
                    for d, n in copies.items():  # C_{-a} splits into the C_{-d}
                        below[d] += n * fwd
                        below[-d] += n * bwd
                yield e, a, fwd, bwd, copies
            shifts = {d: n for d, n in below.items() if n}

    def _split(self, e: int, a: int, f: int) -> Dict[int, int]:
        """The copy pairs of C_a of W_{e+1} at scale f, a >= 0: a pair of its
        r_e copies of W_e whose starts lie p apart and that overlap at shift
        a adds C_{a-p}(W_e). Returns {a - p: how many pairs}, memoised by
        (e, a, f); the pairs with a spacer are not listed."""
        key = (e, a, f)
        copies = self._splits.get(key)
        if copies is None:
            starts = self._starts.get((e, f))
            if starts is None:
                starts = [lo * f for lo, is_copy, _ in self._parts[e] if is_copy]
                self._starts[e, f] = starts
            h = self._heights[e] * f
            copies = defaultdict(int)
            for lo in starts:
                for l2 in starts[bisect_right(starts, lo + a - h):bisect_left(starts, lo + a + h)]:
                    copies[a - (l2 - lo)] += 1
            self._splits[key] = copies
        return copies

    def _occupation(self, e: int, x: int, f: int) -> np.ndarray:
        """Ticks (scale f) each symbol takes in [0, x) of W_e, 0 <= x <= h_e * f,
        found by descending through the part of each stage that holds x."""
        star = self.slabs.star
        occ = np.zeros(star + 1, dtype=np.int64)
        while e:
            e -= 1
            parts = self._parts[e]
            lo, is_copy, n = parts[bisect_right(parts, (x // f, 2)) - 1]
            occ += n * f * self._totals[e]
            occ[star] += (lo - n * self._heights[e]) * f
            x -= lo * f
            if not is_copy:
                occ[star] += x
                return occ
        n, rest = divmod(x, self.width_ticks * f)
        occ[:n] += self.width_ticks * f
        if rest:
            occ[n] += rest
        return occ

    def window_counts(self, lo: Fraction, hi: Fraction) -> Tuple[np.ndarray, int]:
        """Exact integral of the pair measure over the shifts t in [lo, hi];
        returns (W, Z) with W / Z = (1/(hi-lo)) * integral of D(t) dt.

        W holds int64, or Python ints when its entries may reach 2**63.
        """
        (LO, HI), f = self._ticks(lo, hi)
        H = self.H_ticks * f
        if not -H < LO < HI < H:
            raise TimeOutOfRange(
                f"window [{lo}, {hi}] is empty or reaches height {self.segments.total}"
            )
        M = HI - LO
        # an entry over a window of M ticks lies in [0, 2*H*M]; past int64,
        # compute in Python ints
        dtype = np.int64 if 2 * H * M < (1 << 63) else object
        view = self._view(max(-LO, HI), f) or _View(
            self.breaks, self.codes, np.broadcast_to(np.int64(1), self.breaks.shape),
            self.H_ticks)
        return self._window_table(view, LO, HI, f, dtype), 2 * M * H

    def _window_table(self, view: _View, LO: int, HI: int, f: int, dtype) -> np.ndarray:
        """2 * integral over tau in [LO, HI] of the tick pair counts C_tau.

        Per symbol a, F_a (occupation of a below z) and 2*A_a (twice its
        antiderivative) are tabulated at the interval edges, then
        W[a][b] = sum over b-intervals [s, e) of
        2*(A_a(e-LO) - A_a(s-LO) - A_a(e-HI) + A_a(s-HI)), each term times
        the interval's weight. A void between view pieces is longer than
        the window, so the occupation earlier pieces add to F_a cancels in
        that difference. int64 arithmetic wraps mod 2**64, so the table
        values (up to (height + HI - LO)**2) may wrap and entries below
        2**63 still come out exact.
        """
        edges = np.append(view.breaks * f, view.height * f)
        lens = np.diff(edges).astype(dtype, copy=False)
        codes = view.codes
        # where each shifted edge e - c falls: interval index j (n past the
        # top) and its offset r into that interval; below 0 reads as 0
        evals = []
        for c in (LO, HI):
            z = np.maximum(edges - c, 0)
            j = np.searchsorted(edges, z, side="right") - 1
            z -= edges[j]
            evals.append((j, z.astype(dtype, copy=False)))
        del edges, z
        (j0, r0), (j1, r1) = evals
        order = np.argsort(codes, kind="stable")
        weights = view.weights[order].astype(dtype)
        present, starts = np.unique(codes[order], return_index=True)
        S = self.slabs.size + 1  # the symbols and the view's void code
        W = np.zeros((S, S), dtype=dtype)
        for a in present:
            own = np.append(codes == a, False)
            mass = np.where(own[:-1], lens, 0)
            Fa = np.zeros(len(own), dtype=dtype)
            np.cumsum(mass, out=Fa[1:])
            # across an interval, 2*A_a grows by (2*F_a + mass) * length
            rise = mass
            rise += 2 * Fa[:-1]
            rise *= lens
            A2 = np.zeros(len(own), dtype=dtype)
            np.cumsum(rise, out=A2[1:])
            del mass, rise
            # D = 2*A_a(e - LO) - 2*A_a(e - HI) at every edge e
            D = _twice_antiderivative(A2, Fa, own, j0, r0)
            D -= _twice_antiderivative(A2, Fa, own, j1, r1)
            W[a, present] = np.add.reduceat(np.diff(D)[order] * weights, starts)
        return W[:-1, :-1]


def _twice_antiderivative(A2, Fa, own, j, r):
    """2*A_a at the points x_j + r, from its tables at the interval edges:
    A2[j] + 2*Fa[j]*r + r**2 where the interval j belongs to symbol a."""
    v = own[j] * r
    v += 2 * Fa[j]
    v *= r
    v += A2[j]
    return v


# ---------------------------------------------------------------------------
# time averages

@dataclass(frozen=True)
class PmResult:
    """(1/m) * integral of D(t) over the window, exactly counts / scale.

    counts holds int64, or Python ints when the tick scale needs them;
    matrix is the float value of the average.
    """

    counts: np.ndarray
    scale: int
    matrix: np.ndarray
    window: Tuple[Fraction, Fraction]

    # the average is exact, so there are no quadrature halvings; kept for
    # perfbench/spans.py, which counts them
    halvings = 0


def flow_Pm_matrix(
    segments: SegmentList,
    slabs: SlabAlgebra,
    m: Fraction,
    orientation: str = "negative",
    column: Optional[FlowColumn] = None,
) -> PmResult:
    """Markov average over an m-long window of flow times.

    orientation "negative" averages t in [-m, 0] (the window behind the
    present), "positive" averages [0, m].
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("flow_Pm_matrix wants m > 0")
    if orientation not in ("negative", "positive"):
        raise ValueError(f"unknown orientation {orientation!r}")
    lo, hi = (-m, Fraction(0)) if orientation == "negative" else (Fraction(0), m)
    col = column if column is not None else FlowColumn(segments, slabs)
    W, Z = col.window_counts(lo, hi)
    return PmResult(
        counts=W, scale=Z, matrix=W.astype(np.float64) / Z, window=(lo, hi)
    )


def pm_identity_gap(
    segments: SegmentList,
    slabs: SlabAlgebra,
    m: Fraction,
    column: Optional[FlowColumn] = None,
) -> float:
    """Max-abs gap between the two routes to the backward average:
    the direct window [-m, 0] versus the transposed forward window [0, m]
    (the matrix form of 'shift back, then average ahead, then adjoint').
    Both are exact tables on the same scale, so the gap is 0 unless the
    engine is wrong."""
    col = column if column is not None else FlowColumn(segments, slabs)
    back = flow_Pm_matrix(segments, slabs, m, orientation="negative", column=col)
    fwd = flow_Pm_matrix(segments, slabs, m, orientation="positive", column=col)
    return float(np.abs(back.counts - fwd.counts.T).max()) / back.scale


# ---------------------------------------------------------------------------
# limit check

@dataclass(frozen=True)
class FlowLimitReport:
    """flow_limit_check's result. kernel holds (shift, weight) pairs, taken
    in the reported orientation; its weights and spacer_share sum to 1."""

    lag_time: Fraction
    q: int
    stage: int
    orientation: str
    residual: float
    residual_mirror: float
    kernel: Tuple[Tuple[Fraction, Fraction], ...]
    spacer_share: Fraction
    kernel_defect: float
    kernel_distance: float


def flow_limit_check(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    q: int,
    j: int,
    L: int = 16,
) -> FlowLimitReport:
    """Compare D(q*h_j) at depth J against the q-long Markov average.

    The sign of the lag is resolved empirically: both D(+q h_j) and
    D(-q h_j) are measured (unit mass) and the closer one is
    reported, with the other as the mirror. The lag's copy-split kernel
    nu (see _lag_kernel) is reported too, with kernel_defect, the max-abs
    gap between the measured D and sum nu(d) D(d), and kernel_distance,
    the max-abs gap between that sum and the Markov average.
    """
    segments = flow_segments(realized, J, j0)
    slabs = SlabAlgebra(L)
    col = FlowColumn(segments, slabs)
    hs = heights(realized, J)
    lag = q * hs[j - 1]
    if lag >= segments.total:
        raise TimeOutOfRange(f"q*h_j = {lag} >= height {segments.total}")

    pm = flow_Pm_matrix(segments, slabs, Fraction(q), orientation="negative",
                        column=col)

    def unit(t: Fraction) -> np.ndarray:
        C, H = col.pair_counts(t)
        (tau,), _ = col._ticks(t)  # the shift on the scale pair_counts used
        return unit_mass(C, tau, H)

    pos = unit(lag)
    neg = pos.T  # C_{-t} is the transpose of C_t on the finite column
    d_pos = float(np.abs(pos - pm.matrix).max())
    d_neg = float(np.abs(neg - pm.matrix).max())
    if d_pos <= d_neg:
        orientation, residual, mirror, measured = "positive-lag", d_pos, d_neg, pos
    else:
        orientation, residual, mirror, measured = "negative-lag", d_neg, d_pos, neg

    signed = lag if orientation == "positive-lag" else -lag
    kernel, share = _lag_kernel(col, signed, Fraction(q))
    fit = sum(float(w) * unit(d) for d, w in kernel)
    return FlowLimitReport(
        lag_time=lag,
        q=q,
        stage=j,
        orientation=orientation,
        residual=residual,
        residual_mirror=mirror,
        kernel=kernel,
        spacer_share=share,
        kernel_defect=float(np.abs(measured - fit).max()),
        kernel_distance=float(np.abs(fit - pm.matrix).max()),
    )


def _lag_kernel(
    col: FlowColumn, lag: Fraction, reach: Fraction
) -> Tuple[Tuple[Tuple[Fraction, Fraction], ...], Fraction]:
    """((shift d, weight nu(d)), ...) in increasing d, and the spacer share,
    of the lag: together they sum to exactly 1.

    _split writes C_lag as a sum of C_d(W_e) over pairs of copies of W_e
    plus pairs with a spacer; a shift with |d| > reach is split again one
    stage down. n pairs at |d| <= reach (or of the base stage) weigh
    n (h_e - |d|), and the pairs with a spacer their ticks; both are taken
    over H - |lag|. A split of C_a(W_e) holds h_e - a ticks, so its pairs
    with a spacer hold what its copy pairs leave:
    (h_e - a) - sum n (h_{e-1} - |d|).
    """
    (tau, K), f = col._ticks(lag, reach)
    weights = defaultdict(int)
    star = 0
    h = [x * f for x in col._heights]
    for e, a, fwd, bwd, copies in col._descend(tau, f, lambda a, e: a <= K or not e):
        if copies is None:
            weights[a] += fwd * (h[e] - a)
            weights[-a] += bwd * (h[e] - a)
        else:
            inner = sum(n * (h[e - 1] - abs(d)) for d, n in copies.items())
            star += (fwd + bwd) * (h[e] - a - inner)
    Z = col.H_ticks * f - abs(tau)
    kernel = tuple(
        (Fraction(d, col.den * f), Fraction(w, Z))
        for d, w in sorted(weights.items()) if w
    )
    return kernel, Fraction(star, Z)
