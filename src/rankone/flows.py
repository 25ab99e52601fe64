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

Time averages P_m = (1/m) * integral of T_t over an m-long window are
evaluated by composite trapezoid quadrature with step halving until two
successive estimates agree; the limit check compares D(q*h_j) against the
averaged window, resolving the sign of the lag empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .construction import RealizedSchedule, heights
from .errors import (
    NoConvergence,
    SegmentBudgetExceeded,
    TimeOutOfRange,
)

__all__ = [
    "SegmentList",
    "SlabAlgebra",
    "FlowColumn",
    "flow_heights",
    "flow_segments",
    "flow_corr",
    "FlowCorrMatrix",
    "PmResult",
    "flow_Pm_matrix",
    "pm_identity_gap",
    "FlowLimitReport",
    "flow_limit_check",
    "SEGMENT_BUDGET",
]

SEGMENT_BUDGET = 10**7
_BREAK_BUDGET = 3 * 10**7
_TICK_LIMIT = 1 << 62

COPY = 0
SPACER = 1


def flow_heights(realized: RealizedSchedule, J: int) -> List[Fraction]:
    """Exact tower heights h_1..h_J of a flow schedule."""
    return heights(realized, J)


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


def flow_segments(realized: RealizedSchedule, J: int, j0: int = 1) -> SegmentList:
    """Segment decomposition: stage j+1 = r_j copies of stage j, a spacer
    run after each copy; zero-duration spacers are dropped."""
    if realized.kind != "flow":
        raise ValueError("flow_segments wants a flow schedule")
    if not 1 <= j0 <= J:
        raise ValueError(f"need 1 <= j0 <= J, got j0={j0}, J={J}")
    hs = heights(realized, J)
    base = hs[j0 - 1]

    # budget precheck: copies * (1 + spacer share) bounded by the recursion
    count = 1
    for j in range(j0, J):
        r, vec = realized.stage(j)
        nonzero = sum(1 for s in vec if s != 0)
        count = count * r + nonzero
        if count > SEGMENT_BUDGET:
            raise SegmentBudgetExceeded(
                f"depth {J} needs {count}+ segments (budget {SEGMENT_BUDGET})"
            )

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
        if self.L < 2:
            raise ValueError("slab algebra wants L >= 2")

    @property
    def size(self) -> int:
        return self.L + 1

    @property
    def star(self) -> int:
        return self.L


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class FlowColumn:
    """Breakpoint representation of the column at integer ticks.

    Breakpoints mark every segment start plus every slab boundary inside a
    copy; codes give the symbol on the interval that follows. phi lookups
    and sweeps are vectorized searchsorted + histogram passes.
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
        if n_breaks > _BREAK_BUDGET:
            raise SegmentBudgetExceeded(
                f"column needs {n_breaks} breakpoints (budget {_BREAK_BUDGET})"
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

    def _ticks(self, t: Fraction) -> Tuple[int, int]:
        """(tau, f): t = tau / (f * den); f is the extra scale factor."""
        t = Fraction(t)
        raw = t * self.den
        f = raw.denominator
        if self.H_ticks * f >= _TICK_LIMIT:
            raise SegmentBudgetExceeded(
                f"time denominator {t.denominator} overflows the tick scale"
            )
        return int(raw * f), f

    def phi_codes(self, u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, u, side="right") - 1
        return self.codes[idx]

    def pair_counts(self, t: Fraction) -> Tuple[np.ndarray, int]:
        """Exact tick counts of slab pairs at shift t; returns (C, H_scaled).

        C[a][b] = ticks{u in [0, H-|t|) : phi(u + max(-t,0)) = a,
                                          phi(u + max(t,0)) = b}.
        """
        tau, f = self._ticks(t)
        H = self.H_ticks * f
        if abs(tau) >= H:
            raise TimeOutOfRange(f"|t| = {abs(Fraction(t))} >= height {self.segments.total}")
        breaks = self.breaks * f if f != 1 else self.breaks
        off_a, off_b = (-tau, 0) if tau < 0 else (0, tau)
        span = H - abs(tau)
        # merged breakpoints of both shifted copies, clipped to [0, span);
        # duplicates survive as zero-length intervals and contribute nothing
        cands = []
        for off in (off_a, off_b):
            c = breaks - off
            c = c[(c >= 0) & (c < span)]
            cands.append(c)
        pts = np.sort(np.concatenate(cands + [np.zeros(1, dtype=np.int64)]))
        lens = np.diff(np.concatenate([pts, [span]]))
        a = self.codes[
            np.searchsorted(breaks, pts + off_a, side="right") - 1
        ].astype(np.int64)
        b = self.codes[
            np.searchsorted(breaks, pts + off_b, side="right") - 1
        ].astype(np.int64)
        S = self.slabs.size
        if H < (1 << 53):
            # float64 holds these integers exactly
            flat = np.bincount(a * S + b, weights=lens.astype(np.float64),
                               minlength=S * S)
            C = np.rint(flat).astype(np.int64).reshape(S, S)
        else:
            C = np.zeros((S, S), dtype=np.int64)
            np.add.at(C, (a, b), lens)
        return C, H


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
    """(1/m) * integral of D(t) over the window, with quadrature evidence."""

    matrix: np.ndarray
    window: Tuple[Fraction, Fraction]
    delta: Fraction
    quadrature_error: float
    halvings: int


def _node(column: FlowColumn, t: Fraction) -> np.ndarray:
    C, H = column.pair_counts(t)
    return C.astype(np.float64) / H


def _trapezoid(column: FlowColumn, lo: Fraction, hi: Fraction, n: int) -> np.ndarray:
    step = (hi - lo) / n
    total = None
    for k in range(n + 1):
        D = _node(column, lo + step * k)
        w = 0.5 if k in (0, n) else 1.0
        total = D * w if total is None else total + D * w
    return total / n


def flow_Pm_matrix(
    segments: SegmentList,
    slabs: SlabAlgebra,
    m: Fraction,
    delta: Optional[Fraction] = None,
    orientation: str = "negative",
    tol: float = 1e-4,
    max_halvings: int = 12,
    column: Optional[FlowColumn] = None,
) -> PmResult:
    """Markov average over an m-long window of flow times.

    orientation "negative" averages t in [-m, 0] (the window behind the
    present), "positive" averages [0, m]. The trapezoid step starts at
    delta (default m/4) and is halved until two successive estimates agree
    within tol in max-abs.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("flow_Pm_matrix wants m > 0")
    if orientation not in ("negative", "positive"):
        raise ValueError(f"unknown orientation {orientation!r}")
    lo, hi = (-m, Fraction(0)) if orientation == "negative" else (Fraction(0), m)
    col = column if column is not None else FlowColumn(segments, slabs)
    delta = Fraction(delta) if delta is not None else m / 4
    n = int(m / delta)
    if n * delta != m:
        raise ValueError("delta must divide m")
    prev = _trapezoid(col, lo, hi, n)
    for halving in range(1, max_halvings + 1):
        # refine: old nodes are reused, only the midpoints are swept
        step = (hi - lo) / (2 * n)
        mids = None
        for k in range(n):
            D = _node(col, lo + step * (2 * k + 1))
            mids = D if mids is None else mids + D
        n *= 2
        cur = prev / 2 + mids / n
        err = float(np.abs(cur - prev).max())
        prev = cur
        if err < tol:
            return PmResult(
                matrix=cur,
                window=(lo, hi),
                delta=(hi - lo) / n,
                quadrature_error=err,
                halvings=halving,
            )
    raise NoConvergence(
        f"quadrature did not reach {tol} after {max_halvings} halvings"
    )


def pm_identity_gap(
    segments: SegmentList,
    slabs: SlabAlgebra,
    m: Fraction,
    delta: Optional[Fraction] = None,
    tol: float = 1e-4,
    column: Optional[FlowColumn] = None,
) -> float:
    """Max-abs gap between the two routes to the backward average:
    direct sweeps over [-m, 0] versus transposed forward sweeps (the
    matrix form of 'shift back, then average ahead, then adjoint')."""
    col = column if column is not None else FlowColumn(segments, slabs)
    back = flow_Pm_matrix(segments, slabs, m, delta=delta, orientation="negative",
                          tol=tol, column=col)
    fwd = flow_Pm_matrix(segments, slabs, m, delta=delta, orientation="positive",
                         tol=tol, column=col)
    return float(np.abs(back.matrix - fwd.matrix.T).max())


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
    quadrature_error: float
    family_best: Tuple[Fraction, Tuple[int, ...]]
    family_distance: float


def flow_limit_check(
    realized: RealizedSchedule,
    J: int,
    j0: int,
    q: int,
    j: int,
    L: int = 16,
    tol: float = 1e-4,
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
                        tol=tol, column=col)
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
        quadrature_error=pm.quadrature_error,
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
