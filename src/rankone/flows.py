"""Exact rational-time engine for rank-one flows over a staircase column.

The depth-J column is an ordered list of segments: base copies of duration
h_{j0} and real-duration spacers. Times are exact rationals; internally
every duration is scaled to integer ticks on a common denominator, so set
measures come out as integer tick counts with no floating-point error.

Correlations live on a slab algebra: the base fiber [0, h_{j0}) cut into L
equal slabs, spacers mapped to a star symbol. D(t)[a][b] is the Lebesgue
measure of {u : phi(u) in slab_a, phi(u+t) in slab_b} divided by the total
height, computed by one sweep over the merged breakpoints of the column and
its t-shift.

Time averages P_m = (1/m) * integral of T_t over an m-long window are exact:
the integral of the pair measure over a window [lo, hi] is, for each
b-interval [s, e), A_a(e-lo) - A_a(s-lo) - A_a(e-hi) + A_a(s-hi), where A_a
is the second antiderivative of symbol a's occupation. It is evaluated in
integer ticks, one symbol at a time. The limit check compares D(q*h_j)
against the averaged window, resolving the sign of the lag empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .construction import RealizedSchedule, heights
from .errors import SegmentBudgetExceeded, TimeOutOfRange

__all__ = [
    "SegmentList",
    "SlabAlgebra",
    "FlowColumn",
    "segment_counts",
    "flow_segments",
    "flow_corr",
    "FlowCorrMatrix",
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
    has duration base_duration; total is the exact tower height.
    """

    kinds: np.ndarray
    nums: np.ndarray
    dens: np.ndarray
    base_duration: Fraction
    total: Fraction
    copies: int

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
    for j in range(j0, J):
        r, vec = realized.stage(j)
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


def _merge_views(
    breaks: np.ndarray, offs: Tuple[int, int], span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge what two views of the column, u -> u + off, see for u in [0, span).

    Returns (lens, ia, ib): the length of every merged interval and the
    index of the column interval each view reads on it.
    """
    # each view's breakpoints inside (0, span), and the interval it starts in
    runs, heads = [], []
    for off in offs:
        lo = int(np.searchsorted(breaks, off, side="right"))
        hi = int(np.searchsorted(breaks, off + span, side="left"))
        runs.append(breaks[lo:hi] - off)
        heads.append(lo - 1)
    # a stable sort merges the two sorted runs in linear time (ties in either
    # order leave a zero-length interval); the count of view-a points up to
    # each merged point is view a's interval index there. Temporaries are
    # dropped as soon as they are used, to keep the sweep's peak memory low
    na = len(runs[0])
    both = np.concatenate(runs)
    del runs
    order = np.argsort(both, kind="stable")
    pts = np.empty(len(both) + 2, dtype=np.int64)
    pts[0] = 0
    np.take(both, order, out=pts[1:-1])
    pts[-1] = span
    del both
    lens = np.diff(pts)
    del pts
    ia = np.empty(len(lens), dtype=np.intp)
    ia[0] = 0
    np.cumsum(order < na, out=ia[1:])
    del order
    ib = np.arange(heads[1], heads[1] + len(lens))
    ib -= ia
    ia += heads[0]
    return lens, ia, ib


class FlowColumn:
    """Breakpoint representation of the column at integer ticks.

    Breakpoints mark every segment start plus every slab boundary inside a
    copy; codes give the symbol on the interval that follows. A sweep at
    one shift merges the breakpoints with their shifted copy; a window of
    shifts is integrated from per-symbol antiderivative tables.
    """

    def __init__(self, segments: SegmentList, slabs: SlabAlgebra):
        self.segments = segments
        self.slabs = slabs
        L = slabs.L
        den = 1
        for d in set(int(x) for x in np.unique(segments.dens)):
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

    def phi_codes(self, u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, u, side="right") - 1
        return self.codes[idx]

    def pair_counts(self, t: Fraction) -> Tuple[np.ndarray, int]:
        """Exact tick counts of slab pairs at shift t; returns (C, H_scaled).

        C[a][b] = ticks{u in [0, H-|t|) : phi(u + max(-t,0)) = a,
                                          phi(u + max(t,0)) = b}.
        """
        (tau,), f = self._ticks(t)
        H = self.H_ticks * f
        if abs(tau) >= H:
            raise TimeOutOfRange(f"|t| = {abs(Fraction(t))} >= height {self.segments.total}")
        breaks = self.breaks * f if f != 1 else self.breaks
        span = H - abs(tau)
        offs = (-tau, 0) if tau < 0 else (0, tau)
        lens, ia, ib = _merge_views(breaks, offs, span)
        S = self.slabs.size
        a = self.codes[ia].astype(np.intp)
        b = self.codes[ib]
        del ia, ib
        if H < (1 << 53):
            # float64 holds these integers exactly
            flat = np.bincount(a * S + b, weights=lens.astype(np.float64),
                               minlength=S * S)
            C = np.rint(flat).astype(np.int64).reshape(S, S)
        else:
            C = np.zeros((S, S), dtype=np.int64)
            np.add.at(C, (a, b), lens)
        return C, H

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
        return self._window_table(LO, HI, f, dtype), 2 * M * H

    def _window_table(self, LO: int, HI: int, f: int, dtype) -> np.ndarray:
        """2 * integral over tau in [LO, HI] of the tick pair counts C_tau.

        Per symbol a, F_a (occupation of a below z) and 2*A_a (twice its
        antiderivative) are tabulated at the interval edges, then
        W[a][b] = sum over b-intervals [s, e) of
        2*(A_a(e-LO) - A_a(s-LO) - A_a(e-HI) + A_a(s-HI)). int64 arithmetic
        wraps mod 2**64, so the table values (up to (H + HI - LO)**2) may
        wrap and entries below 2**63 still come out exact.
        """
        edges = np.append(self.breaks * f, self.H_ticks * f)
        lens = np.diff(edges).astype(dtype, copy=False)
        codes = self.codes
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
        present, starts = np.unique(codes[order], return_index=True)
        S = self.slabs.size
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
            W[a, present] = np.add.reduceat(np.diff(D)[order], starts)
        return W


def _twice_antiderivative(A2, Fa, own, j, r):
    """2*A_a at the points x_j + r, from its tables at the interval edges:
    A2[j] + 2*Fa[j]*r + r**2 where the interval j belongs to symbol a."""
    v = own[j] * r
    v += 2 * Fa[j]
    v *= r
    v += A2[j]
    return v


@dataclass(frozen=True)
class FlowCorrMatrix:
    """Normalized flow correlation at one time shift."""

    time: Fraction
    matrix: np.ndarray
    boundary_error: float
    total_duration: Fraction


def flow_corr(
    segments: SegmentList,
    slabs: SlabAlgebra,
    t: Fraction,
    column: Optional[FlowColumn] = None,
    exact: bool = False,
):
    """D(t) = pair measure / total height. Pass a prebuilt FlowColumn when
    sweeping many times; exact=True returns a Fraction matrix instead."""
    col = column if column is not None else FlowColumn(segments, slabs)
    C, H = col.pair_counts(Fraction(t))
    if exact:
        S = slabs.size
        return [[Fraction(int(C[i, j]), H) for j in range(S)] for i in range(S)]
    tf = Fraction(t)
    return FlowCorrMatrix(
        time=tf,
        matrix=C.astype(np.float64) / H,
        boundary_error=float(abs(tf) / segments.total),
        total_duration=segments.total,
    )


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

def _unit(C: np.ndarray) -> np.ndarray:
    s = C.sum()
    return C.astype(np.float64) / s if s else C.astype(np.float64)


@dataclass(frozen=True)
class FlowLimitReport:
    lag_time: Fraction
    q: int
    stage: int
    orientation: str
    residual: float
    residual_mirror: float
    family_best: Tuple[Fraction, Tuple[int, ...]]
    family_distance: float


def flow_limit_check(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    q: int,
    j: int,
    L: int = 16,
    shifts: Sequence[Fraction] = (),
    factors_grid: Sequence[Tuple[int, ...]] = ((1,), (2,), (1, 1), (1, 2), (2, 2)),
) -> FlowLimitReport:
    """Compare D(q*h_j) at depth J against the q-long Markov average.

    The sign of the lag is resolved empirically: both D(+q h_j) and
    D(-q h_j) are measured (window-normalized) and the closer one is
    reported, with the other as the mirror. A small exact grid over
    shifted products T_a * prod_i P_{m_i} is also fitted; the kernel of a
    product of window averages is the convolution of their boxes, so its
    matrix is a weighted sum of already swept D(t) nodes.
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
    Cp, _ = col.pair_counts(lag)
    Cm, _ = col.pair_counts(-lag)
    d_pos = float(np.abs(_unit(Cp) - pm.matrix).max())
    d_neg = float(np.abs(_unit(Cm) - pm.matrix).max())
    if d_pos <= d_neg:
        orientation, residual, mirror = "positive-lag", d_pos, d_neg
        measured = _unit(Cp)
    else:
        orientation, residual, mirror = "negative-lag", d_neg, d_pos
        measured = _unit(Cm)

    # family grid: T_a prod P_{m_i} has kernel box(m_1) * ... (convolution)
    # supported on [a - sum m_i, a]; sample everything on one coarse grid
    # so candidates share their sweeps. Descriptive output, not a verdict.
    delta_fit = Fraction(1, 8)
    shift_grid = list(shifts) if shifts else [Fraction(k, 2) for k in range(-4, 5)]
    best = (Fraction(0), (q,))
    best_dist = float("inf")
    cache = {}

    def node(t: Fraction) -> np.ndarray:
        if t not in cache:
            C, H = col.pair_counts(t)
            cache[t] = C.astype(np.float64) / H
        return cache[t]

    for a in shift_grid:
        for ms in factors_grid:
            span = Fraction(sum(ms))
            lo = a - span
            if abs(lo) >= segments.total or abs(a) >= segments.total:
                continue
            n = int(span / delta_fit)
            ts = [lo + delta_fit * k for k in range(n + 1)]
            w = _box_convolution_weights(ms, n)
            mat = sum(wk * node(t) for wk, t in zip(w, ts))
            dist = float(np.abs(mat - measured).max())
            if dist < best_dist - 1e-15:
                best_dist = dist
                best = (a, tuple(ms))
    return FlowLimitReport(
        lag_time=lag,
        q=q,
        stage=j,
        orientation=orientation,
        residual=residual,
        residual_mirror=mirror,
        family_best=best,
        family_distance=best_dist,
    )


def _box_convolution_weights(ms: Tuple[int, ...], n: int) -> np.ndarray:
    """Trapezoid weights for the kernel = convolution of boxes of widths ms,
    normalized to integrate to 1, sampled on n+1 equally spaced nodes."""
    span = float(sum(ms))
    xs = np.linspace(-span, 0.0, n + 1)
    k = np.ones(n + 1)
    # evaluate the convolution kernel by repeated numeric smoothing
    kern = None
    for m in ms:
        if kern is None:
            kern = np.where((xs >= -m) & (xs <= 0), 1.0 / m, 0.0)
        else:
            # convolve with box of width m on the same grid
            step = span / n
            box_n = max(int(round(m / step)), 1)
            box = np.ones(box_n) / box_n
            kern = np.convolve(kern, box, mode="full")[: n + 1]
    k = kern
    w = k.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    s = w.sum()
    return w / s if s else w
