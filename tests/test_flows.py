"""Suspension-flow correlation machinery: exact segments, sweeps, window
averages, and the finite-depth limit check."""

from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import flows
from rankone.construction import catalog, heights, realize
from rankone.errors import SegmentBudgetExceeded, TimeOutOfRange
from rankone.flows import (
    FlowColumn,
    SlabAlgebra,
    flow_Pm_matrix,
    flow_corr,
    flow_limit_check,
    flow_segments,
    pm_identity_gap,
)

F = Fraction


def test_flow_heights_exact_fractions():
    rz = realize(catalog("staircase-flow"), 3)
    assert heights(rz, 3) == [F(1), F(5, 2), F(17, 2)]


def test_segment_decomposition_depth2():
    # two unit copies, then the half-length spacer (the zero run is dropped)
    rz = realize(catalog("staircase-flow"), 2)
    seg = flow_segments(rz, 2)
    assert seg.kinds.tolist() == [0, 0, 1]
    durations = [F(int(n), int(d)) for n, d in zip(seg.nums, seg.dens)]
    assert durations == [F(1), F(1), F(1, 2)]
    assert seg.base_duration == F(1)
    assert sum(durations) == F(5, 2)


def test_segment_total_matches_height():
    rz = realize(catalog("staircase-flow"), 6)
    seg = flow_segments(rz, 6)
    total = sum(
        F(int(n), int(d)) for n, d in zip(seg.nums, seg.dens)
    )
    assert total == heights(rz, 6)[5]


def test_segment_budget_guard():
    rz = realize(catalog("staircase-flow"), 40)
    with pytest.raises(SegmentBudgetExceeded):
        flow_segments(rz, 40)


def test_time_zero_is_diagonal_slab_measure():
    rz = realize(catalog("staircase-flow"), 2)
    cm = flow_corr(flow_segments(rz, 2), SlabAlgebra(4), F(0))
    assert np.allclose(cm.matrix, np.diag([0.2] * 5), atol=1e-15)
    assert cm.boundary_error == 0.0


def test_single_column_shift_is_superdiagonal():
    rz = realize(catalog("staircase-flow"), 1)
    cm = flow_corr(flow_segments(rz, 1), SlabAlgebra(4), F(1, 4))
    want = np.zeros((5, 5))
    want[0, 1] = want[1, 2] = want[2, 3] = 0.25
    assert np.allclose(cm.matrix, want, atol=1e-15)
    assert cm.boundary_error == pytest.approx(0.25)


def test_mass_conservation_inside_window():
    rz = realize(catalog("staircase-flow"), 5)
    seg = flow_segments(rz, 5)
    sl = SlabAlgebra(8)
    H = heights(rz, 5)[4]
    col = FlowColumn(seg, sl)
    for t in (F(1, 3), F(2), F(7, 2)):
        cm = flow_corr(seg, sl, t, column=col)
        assert cm.matrix.sum() == pytest.approx(float((H - t) / H), abs=1e-12)
        assert cm.boundary_error == pytest.approx(float(t / H))


def test_negative_time_is_transpose():
    rz = realize(catalog("staircase-flow"), 5)
    seg = flow_segments(rz, 5)
    sl = SlabAlgebra(6)
    col = FlowColumn(seg, sl)
    for t in (F(1, 2), F(3), F(22, 7)):
        fwd = flow_corr(seg, sl, t, column=col).matrix
        bwd = flow_corr(seg, sl, -t, column=col).matrix
        assert np.array_equal(bwd, fwd.T)


def test_time_beyond_height_rejected():
    rz = realize(catalog("staircase-flow"), 3)
    seg = flow_segments(rz, 3)
    with pytest.raises(TimeOutOfRange):
        flow_corr(seg, SlabAlgebra(4), F(17, 2))


def test_exact_mode_agrees_with_float():
    rz = realize(catalog("staircase-flow"), 4)
    seg = flow_segments(rz, 4)
    sl = SlabAlgebra(5)
    t = F(5, 3)
    ex = flow_corr(seg, sl, t, exact=True)
    fl = flow_corr(seg, sl, t)
    H = heights(rz, 4)[3]
    assert all(isinstance(v, F) for row in ex for v in row)
    assert sum(v for row in ex for v in row) == (H - t) / H
    exf = np.array([[float(v) for v in row] for row in ex])
    assert np.allclose(fl.matrix, exf, atol=1e-15)


def test_window_average_row_mass():
    rz = realize(catalog("staircase-flow"), 5)
    seg = flow_segments(rz, 5)
    sl = SlabAlgebra(4)
    res = flow_Pm_matrix(seg, sl, F(1))
    # the sweep at t has mass 1 - |t|/H, so the [-1, 0] average has 1 - 1/(2H)
    H = heights(rz, 5)[4]
    assert res.window == (F(-1), F(0))
    assert F(int(res.counts.sum()), res.scale) == 1 - 1 / (2 * H)
    assert res.matrix.sum() == pytest.approx(float(1 - 1 / (2 * H)), abs=1e-12)
    assert res.halvings == 0


def test_pm_identity_gap_machine_small():
    rz = realize(catalog("staircase-flow"), 5)
    seg = flow_segments(rz, 5)
    assert pm_identity_gap(seg, SlabAlgebra(6), F(2)) == 0.0
    assert pm_identity_gap(seg, SlabAlgebra(6), heights(rz, 5)[3]) == 0.0


def test_flow_limit_check_small_depth():
    rz = realize(catalog("staircase-flow"), 6)
    rep = flow_limit_check(rz, 6, 1, 1, 5, L=8)
    assert rep.q == 1 and rep.stage == 5
    assert rep.lag_time == heights(rz, 6)[4]
    assert rep.residual < 0.2
    assert rep.residual_mirror == pytest.approx(rep.residual, abs=1e-9)


# ---------------------------------------------------------------------------
# exact oracles: every slab and spacer interval as Fractions, and the overlap
# measure of each interval pair, summed without ticks or breakpoint merging

def _intervals(seg, L):
    out, pos = [], F(0)
    w = seg.base_duration / L
    for kind, dur in seg:
        if kind == "copy":
            out += [(pos + w * i, pos + w * (i + 1), i) for i in range(L)]
        else:
            out.append((pos, pos + dur, L))
        pos += dur
    return out


def _pair_oracle(ivs, S, t):
    """measure{u : phi(u) = a, phi(u + t) = b}, summed over interval pairs."""
    starts = [s for s, _, _ in ivs]
    ends = [e for _, e, _ in ivs]
    C = [[F(0)] * S for _ in range(S)]
    for p, q, a in ivs:
        for s, e, b in ivs[bisect_right(ends, p + t) : bisect_left(starts, q + t)]:
            C[a][b] += min(q, e - t) - max(p, s - t)
    return C


def _window_oracle(ivs, S, lo, hi):
    """Integral over t in [lo, hi] of _pair_oracle; each pair's overlap is
    piecewise linear in t, so the trapezoid rule on its kinks is exact."""
    starts = [s for s, _, _ in ivs]
    ends = [e for _, e, _ in ivs]
    W = [[F(0)] * S for _ in range(S)]
    for p, q, a in ivs:
        for s, e, b in ivs[bisect_right(ends, p + lo) : bisect_left(starts, q + hi)]:
            def g(t):
                return max(F(0), min(q, e - t) - max(p, s - t))

            kinks = {k for k in (s - q, s - p, e - q, e - p) if lo < k < hi}
            knots = sorted(kinks | {lo, hi})
            W[a][b] += sum((g(u) + g(v)) * (v - u) / 2 for u, v in zip(knots, knots[1:]))
    return W


@settings(max_examples=60, deadline=None)
@given(
    J=st.integers(1, 5),
    L=st.integers(2, 5),
    frac=st.fractions(-1, 1, max_denominator=1000).filter(lambda x: abs(x) < 1),
)
@example(J=5, L=2, frac=F(-1, 2))
@example(J=3, L=3, frac=F(2, 17))
@example(J=3, L=3, frac=F(-1, 7**17))  # tick scale past 2**53: integer sums
def test_pair_counts_match_interval_oracle(J, L, frac):
    rz = realize(catalog("staircase-flow"), J)
    seg = flow_segments(rz, J)
    t = seg.total * frac
    C, H = FlowColumn(seg, SlabAlgebra(L)).pair_counts(t)
    want = _pair_oracle(_intervals(seg, L), L + 1, t)
    assert [[F(int(c), H) for c in row] for row in C] == [
        [w / seg.total for w in row] for row in want
    ]


@pytest.mark.parametrize("J, L", [(3, 3), (4, 2)])
def test_window_counts_match_interval_oracle(J, L):
    rz = realize(catalog("staircase-flow"), J)
    seg = flow_segments(rz, J)
    col = FlowColumn(seg, SlabAlgebra(L))
    ivs = _intervals(seg, L)
    hj = heights(rz, J)[J - 2]
    # windows on a tick scale 7**12 finer, whose squares wrap int64; the
    # longest window whose entries stay below 2**63 there is `piece`
    tiny = F(1, 7**12)
    H = col.H_ticks * 7**12
    piece = F(((1 << 63) - 1) // (2 * H), col.den * 7**12)

    def check(lo, hi):
        W, Z = col.window_counts(lo, hi)
        want = _window_oracle(ivs, L + 1, lo, hi)
        scale = (hi - lo) * seg.total
        assert [[F(int(w), Z) for w in row] for row in W] == [
            [w / scale for w in row] for row in want
        ], (lo, hi)
        return W

    for lo, hi in [
        (F(-1), F(0)),
        (F(0), F(1)),
        (F(-3, 2), F(1, 4)),  # crosses 0
        (F(-2, 3), F(5, 7)),
        (-hj, F(0)),  # m = h_j
        (F(0), hj),
    ]:
        check(lo, hi)
    assert check(-tiny, F(0)).dtype == np.int64
    assert check(-tiny, piece - tiny).dtype == np.int64
    # one tick past int64, and a long window, in Python ints
    assert check(-tiny, piece).dtype == object
    check(F(0), seg.total - tiny)


def test_window_counts_rejects_empty_or_too_long_windows():
    rz = realize(catalog("staircase-flow"), 3)
    seg = flow_segments(rz, 3)
    col = FlowColumn(seg, SlabAlgebra(4))
    for lo, hi in ((F(1), F(1)), (F(1), F(0)), (-seg.total, F(0)), (F(0), seg.total)):
        with pytest.raises(TimeOutOfRange):
            col.window_counts(lo, hi)


def test_exact_window_matches_fine_trapezoid():
    # D(t) is piecewise linear in t; 2048 trapezoid panels resolve its
    # average over these windows to well below 1e-6
    rz = realize(catalog("staircase-flow"), 5)
    seg = flow_segments(rz, 5)
    sl = SlabAlgebra(6)
    col = FlowColumn(seg, sl)
    n = 2048
    for lo, hi in ((F(-1), F(0)), (F(0), F(1)), (F(-3, 2), F(1, 4))):
        W, Z = col.window_counts(lo, hi)
        trap = sum(
            (0.5 if k in (0, n) else 1.0) * flow_corr(seg, sl, lo + (hi - lo) * k / n,
                                                       column=col).matrix
            for k in range(n + 1)
        ) / n
        assert np.abs(W / Z - trap).max() < 1e-6, (lo, hi)
