"""Exact rational-time engine for rank-one flows over a staircase column.

The depth-J column is held as its stages: stage e+1 is r_e copies of stage
e, each followed by a real-duration spacer, down to the base copy of
duration h_{j0}. Times are exact rationals; internally every duration is
scaled to integer ticks on a common denominator, so set measures come out
as integer tick counts with no floating-point error. Every sum is a Python
int, so TICK_BOUND (2**150 ticks) bounds a column's cost, not an overflow;
a returned table holds int64 when its entries' bound is below 2**63 (_table).

Correlations live on the base fiber [0, h_{j0}) cut into L equal slabs,
spacers mapped to a star symbol L: the engine FlowColumn(realized, J, j0, L)
is built as PairCounter(realized, J, j0) is. C(t)[a][b] is the Lebesgue
measure, in ticks, of {u : phi(u) in slab_a, phi(u+t) in slab_b}
(FlowColumn.pair_counts), found by the copy recursion below;
correlation.unit_mass turns it into the unit-mass matrix D(t) over its
window of H - |t| ticks.

Time averages P_m = (1/m) * integral of T_t over an m-long window are exact.
Every breakpoint is a whole tick, so C_t is linear between ticks and
2 * the integral of C_t over a window [LO, HI] of ticks is an integer
table (FlowColumn.window_counts). The limit check compares D(q*h_j)
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

A window is a band of shifts [a, b] and follows the same split: a pair of
copies p apart adds the band [a - p, b - p] of W_{J-1}, clipped to the
shifts it has. A band that covers all of W_e's shifts adds the product of
the slab measures to every slab pair, and a band of a base copy adds the
integral of the slab tent to each diagonal, so the slab block is again one
band of diagonals. The marginals' integrals come from the second
antiderivative of the occupation at the window's ends. No count reads the
column's breakpoints; they are built only when first read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Dict, List, Tuple

import numpy as np

from ._record import record
from .construction import RealizedSchedule, heights
from .correlation import unit_mass
from .errors import SegmentBudgetExceeded, TimeOutOfRange

__all__ = [
    "SegmentList",
    "FlowColumn",
    "flow_segments",
    "tick_scale",
    "PmResult",
    "flow_Pm_matrix",
    "pm_identity_gap",
    "FlowLimitReport",
    "flow_limit_check",
    "MIN_SLABS",
    "TICK_BOUND",
]

#: A flow column cuts the base fiber into at least this many slabs.
MIN_SLABS = 2
#: A flow's column must stay below this many ticks high (see tick_scale).
TICK_BOUND = 1 << 150


@record
class SegmentList:
    """The depth-J column, exactly, as its stages.

    stages holds (r_e, spacer durations) for e = j0..J-1, zeros included:
    stage e+1 is r_e copies of stage e, each followed by its spacer. The
    base copy has duration base_duration; total is the exact tower height.
    """

    base_duration: Fraction
    total: Fraction
    stages: Tuple[Tuple[int, Tuple[Fraction, ...]], ...]


def flow_segments(realized: RealizedSchedule, J: int, j0: int = 1) -> SegmentList:
    """The stages of the depth-J column from base stage j0: stage j+1 is
    r_j copies of stage j, a spacer after each copy."""
    if realized.kind != "flow":
        raise ValueError("flow_segments wants a flow schedule")
    if not 1 <= j0 <= J:
        raise ValueError(f"need 1 <= j0 <= J, got j0={j0}, J={J}")
    hs = heights(realized, J)
    stages = []
    for j in range(j0, J):
        r, vec = realized.stage(j)
        stages.append((r, tuple(Fraction(s) for s in vec)))
    return SegmentList(base_duration=hs[j0 - 1], total=hs[J - 1], stages=tuple(stages))


def tick_scale(base: Fraction, stages, L: int, *times: Fraction) -> Tuple[int, int]:
    """(den, H) for the column of base height `base`, cut into L slabs and
    built by `stages`, (r_e, spacer durations) from the base stage up as in
    SegmentList.stages: den ticks make one unit of time (the lcm of the
    slab width's and the spacers' denominators), and the column is H ticks
    high. Raises SegmentBudgetExceeded when H, on the finer scale that makes
    each of `times` a whole number of ticks, reaches TICK_BOUND, and stops
    folding stages once one reaches it. This bounds a flow's depth: no count
    builds the column (staircase reaches depth 30)."""
    height = Fraction(base)
    den = (height / L).denominator
    for r, gaps in stages:
        den = lcm(den, *(Fraction(s).denominator for s in gaps))
        height = r * height + sum(gaps)
        _check_ticks(int(height * den))  # heights and den only grow
    H = int(height * den)
    _check_ticks(H * lcm(*((Fraction(t) * den).denominator for t in times)))
    return den, H


def _check_ticks(ticks: int) -> None:
    """Refuse a column at least `ticks` high once that reaches TICK_BOUND."""
    if ticks >= TICK_BOUND:
        raise SegmentBudgetExceeded(
            f"tick scale too fine: the column is 2^{ticks.bit_length() - 1} ticks "
            f"high or more, past the bound 2^{TICK_BOUND.bit_length() - 1}"
        )


def _tent(x: int, w: int) -> int:
    """2 * the integral up to x of the tent max(0, w - |s|)."""
    if x <= 0:
        return max(x + w, 0) ** 2
    return 2 * w * w - max(w - x, 0) ** 2


class FlowColumn:
    """The depth-J column of a flow from base stage j0, its base fiber cut
    into L slabs (symbols 0..L-1, the star L), at integer ticks, held as
    its stages (segments, from flow_segments) for the copy recursion.

    Pair counts at one shift (pair_counts) and their integral over a band
    of shifts (window_counts) follow the copy recursion down to pairs of
    base copies, and take the pairs with a spacer from the symbol
    marginals, which one descent per end point reads (_occupation, and
    _area for its integral).

    The breakpoint column (breaks, codes) is built from the stages only
    when first read; no count reads it.
    """

    def __init__(self, realized: RealizedSchedule, J: int, j0: int, L: int):
        if L < MIN_SLABS:
            raise ValueError(f"a flow column wants L >= {MIN_SLABS} slabs, got {L}")
        self.realized, self.J, self.j0, self.L = realized, J, j0, L
        self.segments = segments = flow_segments(realized, J, j0)
        star = L
        base = segments.base_duration
        den, self.H_ticks = tick_scale(base, segments.stages, L)
        self.den = den
        self.width_ticks = w = int(base / L * den)

        # in ticks: the stage heights h_{j0}..h_J and spacers, and the ticks
        # each symbol takes in W_e. W_{e+1}'s parts are (start, is a copy,
        # F, 2A): F the ticks of each symbol before the start, and 2A twice
        # the integral of F. `area` is 2A of all of W_e, which is
        # (2(L - i) - 1) w**2 for the base slab i. All are Python ints
        self._stages = [(r, [int(s * den) for s in gaps]) for r, gaps in segments.stages]
        self._heights = [int(base * den)]
        self._totals = [np.array([w] * L + [0], dtype=object)]
        area = np.array([(2 * (L - i) - 1) * w * w for i in range(L)] + [0], dtype=object)
        self._parts = []
        for r, gaps in self._stages:
            h, total = self._heights[-1], self._totals[-1]
            occ = np.zeros(L + 1, dtype=object)
            A, pos, parts = occ.copy(), 0, []
            for s in gaps:
                parts.append((pos, True, occ, A))
                A, occ = A + 2 * h * occ + area, occ + total
                pos += h
                if s:
                    parts.append((pos, False, occ, A))
                    A, occ = A + 2 * s * occ, occ.copy()
                    A[star] += s * s
                    occ[star] += s
                    pos += s
            self._parts.append(parts)
            self._heights.append(pos)
            self._totals.append(r * total)
            self._totals[-1][star] += sum(gaps)
            area = A
        self._starts = {}  # copy starts of W_{e+1} by (e, f)
        self._splits = {}  # _split by (e, a, b, f)

    @cached_property
    def _column(self) -> Tuple[np.ndarray, np.ndarray]:
        """(breaks, codes) in column order: a copy's L slab starts, coded
        0..L-1, or a spacer's start, coded star; W_{e+1} repeats W_e's
        breakpoints at each copy start and adds each nonzero spacer's."""
        L = self.L
        breaks = self.width_ticks * np.arange(L, dtype=np.int64)
        codes = np.arange(L, dtype=np.int16)
        star = np.array([L], dtype=np.int16)
        for (_, gaps), h in zip(self._stages, self._heights):
            bs, cs, pos = [], [], 0
            for s in gaps:
                bs.append(breaks + pos)
                cs.append(codes)
                pos += h
                if s:
                    bs.append(np.array([pos], dtype=np.int64))
                    cs.append(star)
                    pos += s
            breaks, codes = np.concatenate(bs), np.concatenate(cs)
        return breaks, codes

    @property
    def breaks(self) -> np.ndarray:
        """Every breakpoint of the column in ticks: each slab start inside a
        copy and each spacer start, in column order. An aid for oracles
        (the tests' column sweeps) and for counting breakpoints; no run path
        reads it, and it is built on the first read."""
        return self._column[0]

    @property
    def codes(self) -> np.ndarray:
        """The symbol on the interval from each breakpoint (see breaks)."""
        return self._column[1]

    def _ticks(self, *ts: Fraction) -> Tuple[List[int], int]:
        """([tau, ...], f): each t = tau / (f * den); f is the smallest extra
        scale factor that makes every t a whole number of ticks."""
        raws = [Fraction(t) * self.den for t in ts]
        f = lcm(*(raw.denominator for raw in raws))
        _check_ticks(self.H_ticks * f)
        return [int(raw * f) for raw in raws], f

    def pair_counts(self, t: Fraction) -> Tuple[np.ndarray, int]:
        """Exact tick counts of slab pairs at shift t; returns (C, H_scaled).

        C[a][b] = ticks{u in [0, H-|t|) : phi(u + max(-t,0)) = a,
                                          phi(u + max(t,0)) = b}.

        The copy recursion (see _descend) ends every pair of slabs in a pair
        of base copies at a shift a = k*w + r, which adds w - r ticks to the
        slab pairs (i, i+k) and r to (i, i+k+1), or at shift 0, which adds a
        copy's slab measure to every (i, i). Both depend on j - i only, so
        the slab block is one band of diagonals, and the marginals, the
        symbols below H - |t| and above |t|, give the rest (see _table).
        C_{-t} is C_t transposed.
        """
        (tau,), f = self._ticks(t)
        H = self.H_ticks * f
        if abs(tau) >= H:
            raise TimeOutOfRange(f"|t| = {abs(Fraction(t))} >= height {self.segments.total}")
        L, w = self.L, self.width_ticks * f
        band = [0] * (2 * L + 1)  # band[L + j - i]: the ticks of slab pair (i, j)
        for e, a, _, fwd, bwd, copies in self._descend(
                tau, tau, f, lambda a, b, e: a == 0 or e == 0):
            if copies is not None:
                continue
            if a == 0:
                band[L] += fwd * f * self._totals[e][0]
                continue
            k, r = divmod(a, w)
            for d, n in ((k, w - r), (k + 1, r)):
                band[L + d] += fwd * n
                band[L - d] += bwd * n
        a, top = abs(tau), len(self._stages)
        below = self._occupation(top, H - a, f)  # the symbols of [0, H - a)
        above = f * self._totals[top] - self._occupation(top, a, f)  # of [a, H)
        src, dst = (below, above) if tau >= 0 else (above, below)
        return _table(band[1:-1], src, dst, H), H

    def _descend(self, a: int, b: int, f: int, leaf):
        """Follow the band [a, b] of shifts of the column (a == b for one
        shift) down the copy recursion (see _split): yields
        (e, a, b, fwd, bwd, copies) for each band of W_e reached, with
        a + b >= 0, which adds fwd times its counts of W_e and bwd times
        the transpose (the counts of [-b, -a]). copies is None where
        leaf(a, b, e) holds; otherwise the band is split once, and copies
        holds the split's copy pairs, which go one stage down. The pairs
        with a spacer are left to the caller."""
        bands = {(a, b): 1}  # bands of W_e with their multiplicities
        for e in range(len(self._stages), -1, -1):
            below = defaultdict(int)
            for a, b in {(a, b) if a + b >= 0 else (-b, -a) for a, b in bands}:
                fwd, bwd = bands.get((a, b), 0), bands.get((-b, -a), 0) if a + b else 0
                copies = None
                if not leaf(a, b, e):
                    copies = self._split(e - 1, a, b, f)
                    for (c, d), n in copies.items():  # [-b, -a] splits into the [-d, -c]
                        if fwd:
                            below[c, d] += n * fwd
                        if bwd:
                            below[-d, -c] += n * bwd
                yield e, a, b, fwd, bwd, copies
            bands = below

    def _split(self, e: int, a: int, b: int, f: int) -> Dict[Tuple[int, int], int]:
        """The copy pairs of the band [a, b] of shifts of W_{e+1} at scale f:
        a pair of its r_e copies of W_e whose starts lie p apart adds the
        band [a - p, b - p] of W_e, clipped to the shifts (-h_e, h_e) it
        has, where that is not empty. Returns {(a', b'): how many pairs},
        memoised by (e, a, b, f); the pairs with a spacer are not listed.
        For one shift, a == b and each pair adds the shift a - p."""
        key = (e, a, b, f)
        copies = self._splits.get(key)
        if copies is None:
            starts = self._starts.get((e, f))
            if starts is None:
                starts = [lo * f for lo, is_copy, _, _ in self._parts[e] if is_copy]
                self._starts[e, f] = starts
            h = self._heights[e] * f
            copies = defaultdict(int)
            for lo in starts:
                for l2 in starts[bisect_right(starts, lo + a - h):bisect_left(starts, lo + b + h)]:
                    c, d = a - l2 + lo, b - l2 + lo
                    copies[c if c > -h else -h, d if d < h else h] += 1
            self._splits[key] = copies
        return copies

    def _occupation(self, e: int, x: int, f: int) -> np.ndarray:
        """Ticks (scale f) each symbol takes in [0, x) of W_e, 0 <= x <= h_e * f,
        in Python ints, found by descending through the part of each stage
        that holds x."""
        star = self.L
        occ = np.zeros(star + 1, dtype=object)
        while e:
            e -= 1
            parts = self._parts[e]
            lo, is_copy, F, _ = parts[bisect_right(parts, (x // f, 2)) - 1]
            occ += f * F
            x -= lo * f
            if not is_copy:
                occ[star] += x
                return occ
        n, rest = divmod(x, self.width_ticks * f)
        occ[:n] += self.width_ticks * f
        occ[n] += rest  # n = L, the star, only when rest = 0
        return occ

    def _area(self, e: int, x: int, f: int) -> np.ndarray:
        """Twice the integral of _occupation(e, y, f) over y in [0, x], in
        Python ints. Each stage adds 2A at the start lo of the part that
        holds x plus 2 F(lo) times the offset of x into it, and the base
        copy what each slab's ramp min(max(y - i*w, 0), w) adds."""
        star = self.L
        area = np.zeros(star + 1, dtype=object)
        while e:
            e -= 1
            parts = self._parts[e]
            lo, is_copy, F, A = parts[bisect_right(parts, (x // f, 2)) - 1]
            x -= lo * f
            area += f * f * A + 2 * f * x * F
            if not is_copy:
                area[star] += x * x
                return area
        w = self.width_ticks * f
        for i in range(self.L):
            area[i] += max(x - i * w, 0) ** 2 - max(x - (i + 1) * w, 0) ** 2
        return area

    def window_counts(self, lo: Fraction, hi: Fraction) -> Tuple[np.ndarray, int]:
        """Exact integral of the pair measure over the shifts t in [lo, hi];
        returns (W, Z) with W / Z = (1/(hi-lo)) * integral of D(t) dt.

        W is 2 * the integral of C_t over the band [LO, HI] of tick shifts,
        which _descend splits down the copy recursion like one shift. A band
        of W_e that covers all its shifts (-h_e, h_e) adds the product of
        the two slab measures, 2 (n_e w)**2, to every slab pair; a band of
        a base copy adds 2 * the integral of the slab tent
        max(0, w - |t - k*w|) to the diagonal j - i = k. The star row and
        column are what the slab block leaves of the two marginals'
        integrals, from 2A at the window's ends (see _area and _table).
        """
        (LO, HI), f = self._ticks(lo, hi)
        H = self.H_ticks * f
        if not -H < LO < HI < H:
            raise TimeOutOfRange(
                f"window [{lo}, {hi}] is empty or reaches height {self.segments.total}"
            )
        L, w = self.L, self.width_ticks * f
        h = [x * f for x in self._heights]
        band = [0] * (2 * L - 1)  # band[L - 1 + j - i]: slab pair (i, j)
        full = 0  # what the bands covering a whole W_e add to every slab pair
        for e, a, b, fwd, bwd, copies in self._descend(
                LO, HI, f, lambda a, b, e: e == 0 or b - a == 2 * h[e]):
            if copies is not None:
                continue
            if e:
                full += (fwd + bwd) * 2 * (f * self._totals[e][0]) ** 2
                continue
            for k in range(1 - L, L):
                v = _tent(b - k * w, w) - _tent(a - k * w, w)
                band[L - 1 + k] += fwd * v
                band[L - 1 - k] += bwd * v
        # 2 * the integral of the marginals: over shifts s >= 0 of one sign,
        # the source holds the symbols of [0, H - s) and the target those of
        # [s, H); a negative shift swaps them
        top = len(self._stages)
        total = f * self._totals[top]
        rows = np.zeros(L + 1, dtype=object)
        cols = rows.copy()
        for s0, s1, forward in ((max(LO, 0), HI, True), (max(-HI, 0), -LO, False)):
            if s0 < s1:
                below = self._area(top, H - s0, f) - self._area(top, H - s1, f)
                above = 2 * (s1 - s0) * total - self._area(top, s1, f) + self._area(top, s0, f)
                rows += below if forward else above
                cols += above if forward else below
        Z = 2 * H * (HI - LO)  # an entry lies in [0, Z]
        return _table([v + full for v in band], rows, cols, Z), Z


def _table(band: List[int], rows: np.ndarray, cols: np.ndarray, bound: int) -> np.ndarray:
    """The (L+1)**2 table with band[L - 1 + j - i] at slab pair (i, j) and
    row and column sums rows and cols: the star column and row are what the
    slab block's rows and columns, runs of the band read off its prefix
    sums, leave of them. It holds int64 when `bound`, a bound on its
    entries, is below 2**63, else Python ints."""
    L = len(rows) - 1
    P = np.array([0, *accumulate(band)], dtype=object)  # P[k]: the sum of band[:k]
    i = np.arange(L)
    row_sums, col_sums = P[2 * L - 1 - i] - P[L - 1 - i], P[L + i] - P[i]
    T = np.empty((L + 1, L + 1), dtype=np.int64 if bound < 1 << 63 else object)
    T[:L, :L] = np.array(band, dtype=T.dtype)[L - 1 + i[None, :] - i[:, None]]
    T[:L, L] = rows[:L] - row_sums
    T[L, :L] = cols[:L] - col_sums
    T[L, L] = rows[L] - cols[:L].sum() + col_sums.sum()
    return T


# ---------------------------------------------------------------------------
# time averages

@record
class PmResult:
    """(1/m) * integral of D(t) over the window, exactly counts / scale.

    counts holds int64 when scale, which bounds its entries, is below 2**63,
    else Python ints (see _table); matrix is the float value of the average.
    """

    counts: np.ndarray
    scale: int
    matrix: np.ndarray
    window: Tuple[Fraction, Fraction]

    # the average is exact, so there are no quadrature halvings; kept for
    # perfbench/spans.py, which counts them
    halvings = 0


def flow_Pm_matrix(col: FlowColumn, m: Fraction, orientation: str = "negative") -> PmResult:
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
    W, Z = col.window_counts(lo, hi)
    return PmResult(counts=W, scale=Z, matrix=unit_mass(W, 0, Z), window=(lo, hi))


def pm_identity_gap(col: FlowColumn, m: Fraction) -> float:
    """Max-abs gap between the two routes to the backward average:
    the direct window [-m, 0] versus the transposed forward window [0, m]
    (the matrix form of 'shift back, then average ahead, then adjoint').
    Both are exact tables on the same scale, so the gap is 0 unless the
    engine is wrong."""
    back = flow_Pm_matrix(col, m, orientation="negative")
    fwd = flow_Pm_matrix(col, m, orientation="positive")
    return float(np.abs(back.counts - fwd.counts.T).max()) / back.scale


# ---------------------------------------------------------------------------
# limit check

@record
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


def flow_limit_check(col: FlowColumn, q: int, j: int) -> FlowLimitReport:
    """Compare D(q*h_j) on the column against the q-long Markov average;
    the stage j lies in 1..J-1 and q >= 1.

    The sign of the lag is resolved empirically: both D(+q h_j) and
    D(-q h_j) are measured (unit mass) and the closer one is
    reported, with the other as the mirror. The lag's copy-split kernel
    nu (see _lag_kernel) is reported too, with kernel_defect, the max-abs
    gap between the measured D and sum nu(d) D(d), and kernel_distance,
    the max-abs gap between that sum and the Markov average.
    """
    if not 1 <= j <= col.J - 1:
        raise ValueError(f"stage {j} outside 1..{col.J - 1}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    lag = q * heights(col.realized, col.J)[j - 1]
    if lag >= col.segments.total:
        raise TimeOutOfRange(f"q*h_j = {lag} >= height {col.segments.total}")

    pm = flow_Pm_matrix(col, Fraction(q), orientation="negative")

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
    for e, a, _, fwd, bwd, copies in col._descend(tau, tau, f, lambda a, b, e: a <= K or not e):
        if copies is None:
            weights[a] += fwd * (h[e] - a)
            weights[-a] += bwd * (h[e] - a)
        else:
            inner = sum(n * (h[e - 1] - abs(d)) for (d, _), n in copies.items())
            star += (fwd + bwd) * (h[e] - a - inner)
    Z = col.H_ticks * f - abs(tau)
    kernel = tuple(
        (Fraction(d, col.den * f), Fraction(w, Z))
        for d, w in sorted(weights.items()) if w
    )
    return kernel, Fraction(star, Z)
