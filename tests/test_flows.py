"""Suspension-flow correlation machinery: the column's exact stages, pair
counts, window averages, and the finite-depth limit check."""

import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import flows
from rankone.config import parse_config
from rankone.construction import (
    AffineCuts,
    ConstantCuts,
    ConstructionSchedule,
    PatternSpacers,
    StaircaseSpacers,
    catalog,
    heights,
    realize,
)
from rankone.correlation import unit_mass
from rankone.errors import SegmentBudgetExceeded, TimeOutOfRange
from rankone.flows import (
    FlowColumn,
    flow_Pm_matrix,
    flow_limit_check,
    flow_segments,
    pm_identity_gap,
)
from rankone.runner import run_plan

F = Fraction


def test_flow_heights_exact_fractions():
    rz = realize(catalog("staircase-flow"), 3)
    assert heights(rz, 3) == [F(1), F(5, 2), F(17, 2)]


def test_segment_decomposition_depth2():
    # two unit copies, a zero spacer after the first and a half-length one
    # after the second
    rz = realize(catalog("staircase-flow"), 2)
    seg = flow_segments(rz, 2)
    assert seg.stages == ((2, (F(0), F(1, 2))),)
    assert seg.base_duration == F(1)
    assert seg.total == F(5, 2)


def test_segment_total_matches_height():
    rz = realize(catalog("staircase-flow"), 6)
    seg = flow_segments(rz, 6, 2)
    assert len(seg.stages) == 4
    total = seg.base_duration
    for r, gaps in seg.stages:
        assert len(gaps) == r
        total = r * total + sum(gaps)
    assert seg.base_duration == heights(rz, 6)[1]
    assert total == seg.total == heights(rz, 6)[5]


def test_segment_budget_guard():
    # the staircase column is 2^149.4 ticks high at depth 30 and 2^159.3 at 31
    rz = realize(catalog("staircase-flow"), 31)
    assert FlowColumn(rz, 30, 1, 16).H_ticks < flows.TICK_BOUND
    with pytest.raises(SegmentBudgetExceeded, match=r"tick scale too fine: .* 2\^159 ticks"):
        FlowColumn(rz, 31, 1, 16)


def _counts(rz, J, L):
    """The pair_counts of the depth-J column cut into L slabs."""
    return FlowColumn(rz, J, 1, L).pair_counts


def test_time_zero_is_diagonal_slab_measure():
    rz = realize(catalog("staircase-flow"), 2)
    C, H = _counts(rz, 2, 4)(F(0))
    assert np.array_equal(5 * C, np.diag([H] * 5))


def test_single_column_shift_is_superdiagonal():
    rz = realize(catalog("staircase-flow"), 1)
    C, H = _counts(rz, 1, 4)(F(1, 4))
    want = np.zeros((5, 5))
    want[0, 1] = want[1, 2] = want[2, 3] = 1 / 3  # the window is 3/4 of the column
    assert np.allclose(unit_mass(C, H // 4, H), want, atol=1e-15)


def test_mass_conservation_inside_window():
    rz = realize(catalog("staircase-flow"), 5)
    col = FlowColumn(rz, 5, 1, 8)
    seg = col.segments
    for t in (F(1, 3), F(2), F(7, 2)):
        C, H = col.pair_counts(t)
        assert F(int(C.sum()), H) == 1 - t / seg.total


def test_negative_time_is_transpose():
    rz = realize(catalog("staircase-flow"), 5)
    col = FlowColumn(rz, 5, 1, 6)
    for t in (F(1, 2), F(3), F(22, 7)):
        fwd, _ = col.pair_counts(t)
        bwd, _ = col.pair_counts(-t)
        assert np.array_equal(bwd, fwd.T)


def test_time_beyond_height_rejected():
    rz = realize(catalog("staircase-flow"), 3)
    with pytest.raises(TimeOutOfRange):
        _counts(rz, 3, 4)(F(17, 2))


def test_exact_mode_agrees_with_float():
    # the exact tick counts over their window, as Fractions, against unit_mass
    rz = realize(catalog("staircase-flow"), 4)
    col = FlowColumn(rz, 4, 1, 5)
    seg = col.segments
    t = F(5, 3)
    C, H = col.pair_counts(t)
    tau = t * H / seg.total
    assert tau.denominator == 1  # a whole number of ticks
    ex = [[F(int(c), H - int(tau)) for c in row] for row in C]
    assert sum(v for row in ex for v in row) == 1
    exf = np.array([[float(v) for v in row] for row in ex])
    assert np.allclose(unit_mass(C, int(tau), H), exf, atol=1e-15)


def test_window_average_row_mass():
    rz = realize(catalog("staircase-flow"), 5)
    res = flow_Pm_matrix(FlowColumn(rz, 5, 1, 4), F(1))
    # the sweep at t has mass 1 - |t|/H, so the [-1, 0] average has 1 - 1/(2H)
    H = heights(rz, 5)[4]
    assert res.window == (F(-1), F(0))
    assert F(int(res.counts.sum()), res.scale) == 1 - 1 / (2 * H)
    assert res.matrix.sum() == pytest.approx(float(1 - 1 / (2 * H)), abs=1e-12)
    assert res.halvings == 0


def test_pm_identity_gap_machine_small():
    rz = realize(catalog("staircase-flow"), 5)
    col = FlowColumn(rz, 5, 1, 6)
    assert pm_identity_gap(col, F(2)) == 0.0
    assert pm_identity_gap(col, heights(rz, 5)[3]) == 0.0


def test_flow_limit_check_small_depth():
    rz = realize(catalog("staircase-flow"), 6)
    rep = flow_limit_check(FlowColumn(rz, 6, 1, 8), 1, 5)
    assert rep.q == 1 and rep.stage == 5
    assert rep.lag_time == heights(rz, 6)[4]
    assert rep.residual < 0.2
    assert rep.residual_mirror == pytest.approx(rep.residual, abs=1e-9)


@pytest.mark.parametrize(
    "q, j, refusal",
    [(1, -1, "stage -1 outside 1..6"), (1, 0, "stage 0 outside 1..6"),
     (1, 7, "stage 7 outside 1..6"), (1, 8, "stage 8 outside 1..6"),
     (0, 6, "q must be >= 1, got 0"), (-1, 6, "q must be >= 1, got -1")],
    ids=["stage-minus-1", "stage-0", "stage-J", "stage-past-J", "q-0", "q-minus-1"],
)
def test_flow_limit_check_refuses_stage_and_q_out_of_range(q, j, refusal):
    col = FlowColumn(realize(catalog("staircase-flow"), 7), 7, 1, 16)
    with pytest.raises(ValueError, match=refusal):
        flow_limit_check(col, q, j)
    assert not col._splits  # refused before any count


def test_flow_experiments_share_one_column_per_slab_count(monkeypatch):
    # two flow-limit experiments at 16 slabs read one column, the one at 5
    # slabs its own; each reports what it reports alone
    built = []
    init = FlowColumn.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self.L)

    monkeypatch.setattr(FlowColumn, "__init__", spy)
    head = "construction.catalog = staircase-flow\nconstruction.depth = 9\n"
    experiments = {
        "a": "experiment.a.kind = flow-limit\n",
        "b": "experiment.b.kind = flow-limit\nexperiment.b.q = 2\nexperiment.b.stage = J-3\n",
        "c": "experiment.c.kind = flow-limit\nexperiment.c.slabs = 5\n",
    }
    report = run_plan(parse_config(head + "".join(experiments.values())))
    assert sorted(built) == [5, 16]
    assert [r.status for r in report.results] == ["ok"] * 3
    together = {r.label: r.payload for r in report.results}
    assert together["a"]["slabs"] == together["b"]["slabs"] == 16
    for label in ("a", "b"):
        (alone,) = run_plan(parse_config(head + experiments[label])).results
        assert alone.payload == together[label], label


def test_flow_limit_and_window_identity_at_depth_15():
    # the residual measures 0.0166
    J = 15
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    rep = flow_limit_check(col, 1, J - 1)
    assert rep.residual <= 0.05
    m = heights(rz, J)[J - 2]  # h_14
    assert pm_identity_gap(col, m) == 0.0


def test_flow_limit_and_window_identity_at_depth_30():
    # the deepest staircase under TICK_BOUND, a 150-bit column; the residual
    # measures 0.008067
    J = 30
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    rep = flow_limit_check(col, 1, J - 1)
    assert rep.residual <= 0.01
    m = heights(rz, J)[J - 2]  # h_29
    assert pm_identity_gap(col, m) == 0.0


# ---------------------------------------------------------------------------
# exact oracles: every slab and spacer interval as Fractions, and the overlap
# measure of each interval pair, summed without ticks or breakpoint merging

def _intervals(seg, L):
    """Every slab and spacer interval of the column in order, built from its
    stages: W_{e+1} repeats W_e's intervals at each copy start, and adds
    each nonzero spacer."""
    w, h = seg.base_duration / L, seg.base_duration
    out = [(w * i, w * (i + 1), i) for i in range(L)]
    for _, gaps in seg.stages:
        stage, pos = [], F(0)
        for s in gaps:
            stage += [(p + pos, q + pos, a) for p, q, a in out]
            pos += h
            if s:
                stage.append((pos, pos + s, L))
                pos += s
        out, h = stage, pos
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


# spacers of every kind: growing staircase spacers, damped ones, an inline
# flow whose spacers (7/2, and zeros in the middle and at the end) are
# longer than its stage-1 height 1/2, and one with equal spacers
FLOWS = {
    "staircase": catalog("staircase-flow"),
    "damped": ConstructionSchedule("flow", AffineCuts(1, 1), StaircaseSpacers(damping=True)),
    "inline": ConstructionSchedule(
        "flow", ConstantCuts(3), PatternSpacers((F(0), F(7, 2), F(0))), h1=F(1, 2)
    ),
    "repeated": ConstructionSchedule(
        "flow", ConstantCuts(3), PatternSpacers((F(1, 3), F(1, 3), F(0)))
    ),
}

# a shift at q times a stage height h_d (d = 0 is the base copy), or one tick
# either side of it, possibly on a 7 times finer scale (f > 1)
EDGES = st.tuples(
    st.integers(1, 4), st.integers(0, 4), st.sampled_from([-1, 0, 1]),
    st.sampled_from([1, 7]), st.sampled_from([1, -1]),
)


def _edge_shift(col, edge):
    q, d, ticks, finer, sign = edge
    h = col._heights[min(d, len(col._heights) - 1)]
    return sign * F(q * h * finer + ticks, col.den * finer)


@settings(max_examples=120, deadline=None)
@given(
    flow=st.sampled_from(sorted(FLOWS)),
    J=st.integers(1, 5),
    j0=st.integers(1, 2),
    L=st.integers(2, 5),
    frac=st.fractions(-1, 1, max_denominator=1000).filter(lambda x: abs(x) < 1),
    edge=st.none() | EDGES,
)
@example(flow="staircase", J=5, j0=1, L=2, frac=F(-1, 2), edge=None)
@example(flow="staircase", J=3, j0=1, L=3, frac=F(2, 17), edge=None)
@example(flow="staircase", J=3, j0=1, L=3, frac=F(-1, 7**17), edge=None)  # past 2**53
@example(flow="inline", J=5, j0=1, L=2, frac=F(0), edge=(1, 0, 0, 1, -1))  # t = -K
@example(flow="staircase", J=5, j0=2, L=2, frac=F(0), edge=(1, 0, 0, 1, 1))  # t = K
@example(flow="damped", J=5, j0=1, L=3, frac=F(0), edge=(1, 1, 0, 1, 1))
@example(flow="repeated", J=5, j0=1, L=2, frac=F(0), edge=(1, 0, 0, 1, -1))
@example(flow="inline", J=5, j0=2, L=3, frac=F(0), edge=(1, 0, 1, 1, -1))  # next stage
@example(flow="damped", J=5, j0=2, L=2, frac=F(0), edge=(1, 1, -1, 7, 1))
@example(flow="staircase", J=5, j0=1, L=2, frac=F(0), edge=(1, 3, 0, 1, 1))  # h_{J-1}
@example(flow="staircase", J=5, j0=1, L=3, frac=F(0), edge=(3, 2, 1, 1, -1))
@example(flow="inline", J=5, j0=1, L=2, frac=F(0), edge=(1, 3, -1, 1, 1))
@example(flow="repeated", J=5, j0=2, L=2, frac=F(0), edge=(2, 2, 0, 7, -1))
@example(flow="damped", J=4, j0=1, L=3, frac=F(0), edge=(1, 2, 1, 1, 1))
# base-copy pairs one slab width apart (k = 1, r = 0), and one tick below the
# base height (k = L - 1, r = w - 1, the band's last diagonal)
@example(flow="staircase", J=4, j0=2, L=2, frac=F(5, 142), edge=None)
@example(flow="staircase", J=4, j0=2, L=2, frac=F(0), edge=(1, 0, -1, 1, 1))
def test_pair_counts_match_interval_oracle(flow, J, j0, L, frac, edge):
    j0 = min(j0, J)
    col = FlowColumn(realize(FLOWS[flow], J), J, j0, L)
    seg = col.segments
    t = seg.total * frac if edge is None else _edge_shift(col, edge)
    if abs(t) >= seg.total:
        return
    C, H = col.pair_counts(t)
    want = _pair_oracle(_intervals(seg, L), L + 1, t)
    assert [[F(int(c), H) for c in row] for row in C] == [
        [w / seg.total for w in row] for row in want
    ]


def test_counts_and_windows_leave_the_column_unbuilt():
    J = 7
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    hs = heights(rz, J)
    lag = hs[J - 2]  # the flow-limit lag q * h_{J-1}, q = 1
    for t in (F(1, 2), lag, -lag):
        col.pair_counts(t)
    for lo, hi in ((F(-1), F(0)), (-hs[J - 2], F(0)), (F(-3, 2), F(1, 4))):
        col.window_counts(lo, hi)
    flows._lag_kernel(col, lag, F(1))
    assert "_column" not in vars(col)
    # the first read builds the breakpoints
    assert len(col.breaks) == len(col.codes) == 85_679
    assert "_column" in vars(col)


def test_breakpoint_column_of_a_hand_built_depth_3_column():
    # staircase J=3 in 2 slabs: 6 ticks a unit, slabs of 3 ticks. W_2 is two
    # base copies, a zero spacer and a 3-tick one (15 ticks); W_3 is three
    # copies of W_2 with spacers of 0, 2 and 4 ticks (51 ticks)
    col = FlowColumn(realize(catalog("staircase-flow"), 3), 3, 1, 2)
    assert col.segments == flows.SegmentList(
        base_duration=F(1),
        total=F(17, 2),
        stages=((2, (F(0), F(1, 2))), (3, (F(0), F(1, 3), F(2, 3)))),
    )
    assert (col.den, col.width_ticks, col.H_ticks) == (6, 3, 51)
    assert col.breaks.dtype == np.int64 and col.codes.dtype == np.int16
    assert col.breaks.tolist() == [
        0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 32, 35, 38, 41, 44, 47,
    ]
    assert col.codes.tolist() == [0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 2, 0, 1, 0, 1, 2, 2]


def _column_counts(col, t):
    """C_t from one merge of the whole column's breakpoints with their
    t-shift: a reference that shares nothing with the copy recursion."""
    (tau,), f = col._ticks(t)
    # in Python ints where the scaled column passes int64
    dtype = np.int64 if col.H_ticks * f < 1 << 63 else object
    breaks = col.breaks.astype(dtype) * f
    src, dst = max(-tau, 0), max(tau, 0)
    span = col.H_ticks * f - abs(tau)
    pts = np.union1d(breaks - src, breaks - dst)
    pts = np.concatenate([[0], pts[(pts > 0) & (pts < span)], [span]])
    a = col.codes[np.searchsorted(breaks, pts[:-1] + src, side="right") - 1]
    b = col.codes[np.searchsorted(breaks, pts[:-1] + dst, side="right") - 1]
    S = col.L + 1
    C = np.zeros((S, S), dtype=dtype)
    np.add.at(C, (a, b), np.diff(pts))
    return C


def test_pair_counts_match_the_column_sweep():
    # staircase J=7: the flow-limit lags q*h_stage at the default keys
    # (q = 1, stage J-1) and at three other (q, stage), either sign, and
    # the small shifts of their kernels
    J = 7
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    hs = heights(rz, J)
    for q, stage in [(1, J - 1), (2, J - 1), (1, J - 3), (3, J - 2)]:
        for lag in (q * hs[stage - 1], -q * hs[stage - 1]):
            kernel, _ = flows._lag_kernel(col, lag, F(q))
            assert len(kernel) > 1
            for t in [lag] + [d for d, _ in kernel]:
                C, H = col.pair_counts(t)
                assert np.array_equal(C, _column_counts(col, t)), (q, stage, t)
                assert int(C.sum()) == H - abs(t) * H / col.segments.total


def test_python_int_tables_match_the_column_sweeps():
    # staircase J=4 in 16 slabs is 1,704 ticks high; shifts h_3 + 1/(3*2**64)
    # and 5/7 - 2**-70 put it on a 71- and an 80-bit tick scale, where the
    # tables hold Python ints
    J = 4
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    assert col.H_ticks == 1704
    for t in (heights(rz, J)[2] + F(1, 3 << 64), F(5, 7) - F(1, 1 << 70)):
        for t in (t, -t):
            C, H = col.pair_counts(t)
            assert C.dtype == object and H >= 1 << 63
            assert np.array_equal(C, _column_counts(col, t)), t
            lo, hi = sorted((t, F(0)))
            W, Z = col.window_counts(lo, hi)
            want, scale = _column_windows(col, lo, hi)
            assert W.dtype == want.dtype == object
            assert Z == scale and np.array_equal(W, want), (lo, hi)


def test_flow_run_does_not_import_numpy_ma():
    # numpy 2's plain np.unique imports numpy.ma on its first call; older
    # numpy imports it with numpy itself, and then there is nothing to check
    code = (
        "import sys, rankone\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from rankone.flows import FlowColumn, flow_limit_check\n"
        "rz = rankone.realize(rankone.catalog('staircase-flow'), 5)\n"
        "flow_limit_check(FlowColumn(rz, 5, 1, 16), 1, 4)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flows.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    before, after = proc.stdout.split()
    assert before == "True" or after == "False", "flow_limit_check imported numpy.ma"


@pytest.mark.parametrize(
    "flow, J, j0, L",
    [
        pytest.param("staircase", 3, 1, 3, id="3-3"),
        pytest.param("staircase", 4, 1, 2, id="4-2"),
        pytest.param("staircase", 5, 2, 2, id="staircase-5-2-2"),
        pytest.param("damped", 5, 1, 2, id="damped-5-1-2"),
        pytest.param("inline", 5, 1, 2, id="inline-5-1-2"),
        pytest.param("repeated", 4, 1, 2, id="repeated-4-1-2"),
    ],
)
def test_window_counts_match_interval_oracle(flow, J, j0, L):
    col = FlowColumn(realize(FLOWS[flow], J), J, j0, L)
    seg = col.segments
    ivs = _intervals(seg, L)
    hj = F(col._heights[-2], col.den)
    tick = F(1, col.den)
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
    ]:
        check(lo, hi)
    # windows reaching a stage height h_d exactly or one tick past it, on
    # the column's tick scale and a 7 times finer one
    for h in col._heights[:2]:
        h = F(h, col.den)
        for lo, hi in [(-h, F(1, 3)), (-h, -h + tick), (F(-1, 5), h + tick),
                       (-h - tick / 7, tick / 7), (h - tick / 7, h)]:
            if -seg.total < lo < hi < seg.total:
                check(lo, hi)
    if len(ivs) > 100:
        # the oracle is quadratic in the intervals over a long window; the
        # deeper columns check only the short windows above
        return
    check(-hj, F(0))  # m = h_j
    check(F(0), hj)
    assert check(-tiny, F(0)).dtype == np.int64
    assert check(-tiny, piece - tiny).dtype == np.int64
    # one tick past int64, and a long window, in Python ints
    assert check(-tiny, piece).dtype == object
    check(F(0), seg.total - tiny)


def _column_windows(col, lo, hi):
    """(W, Z) of window_counts from the whole column's breakpoints, one
    symbol at a time: a reference that shares nothing with the copy
    recursion. Per symbol a, F_a (its occupation below z) and 2A_a (twice
    the integral of F_a) are tabulated at the interval edges, and W[a][b]
    sums 2A_a(e-LO) - 2A_a(s-LO) - 2A_a(e-HI) + 2A_a(s-HI) over the
    b-intervals [s, e). int64 arithmetic wraps mod 2**64, so the tables may
    wrap while the entries, below 2**63, still come out exact."""
    (LO, HI), f = col._ticks(lo, hi)
    H = col.H_ticks * f
    dtype = np.int64 if 2 * H * (HI - LO) < (1 << 63) else object
    edges = np.append(col.breaks.astype(dtype) * f, H)
    lens = np.diff(edges).astype(dtype)
    ends = []  # the interval j holding each edge e - c (the top edge past
    for c in (LO, HI):  # the last one), and the offset r of e - c into it
        z = np.maximum(edges - c, 0)
        j = np.searchsorted(edges, z, side="right") - 1
        ends.append((j, (z - edges[j]).astype(dtype)))
    S = col.L + 1
    W = np.zeros((S, S), dtype=dtype)
    for a in range(S):
        own = np.append(col.codes == a, False)
        mass = np.where(own[:-1], lens, 0)
        Fa = np.zeros(len(own), dtype=dtype)
        np.cumsum(mass, out=Fa[1:])
        A2 = np.zeros(len(own), dtype=dtype)
        np.cumsum((mass + 2 * Fa[:-1]) * lens, out=A2[1:])
        (j0, r0), (j1, r1) = ends
        D = A2[j0] + (2 * Fa[j0] + own[j0] * r0) * r0
        D -= A2[j1] + (2 * Fa[j1] + own[j1] * r1) * r1
        np.add.at(W[a], col.codes, np.diff(D))
    return W, 2 * H * (HI - LO)


def test_window_counts_match_the_column_windows():
    # staircase J=7 with 16 slabs: windows of one time unit, one crossing 0,
    # the window m = h_{J-1} either side of 0, and windows on a tick scale
    # 7**12 finer, in int64 and in Python ints
    J = 7
    rz = realize(catalog("staircase-flow"), J)
    col = FlowColumn(rz, J, 1, 16)
    h = heights(rz, J)[J - 2]
    tick = F(1, col.den * 7**12)
    for lo, hi, dtype in [
        (F(-1), F(0), np.int64), (F(0), F(1), np.int64), (F(-3, 2), F(1, 4), np.int64),
        (-h, F(0), np.int64), (F(0), h, np.int64),
        (-tick, 2 * tick, np.int64), (-1 - tick, tick, object),
    ]:
        W, Z = col.window_counts(lo, hi)
        want, scale = _column_windows(col, lo, hi)
        assert W.dtype == want.dtype == dtype, (lo, hi)
        assert Z == scale and np.array_equal(W, want), (lo, hi)


def test_window_counts_rejects_empty_or_too_long_windows():
    rz = realize(catalog("staircase-flow"), 3)
    col = FlowColumn(rz, 3, 1, 4)
    seg = col.segments
    for lo, hi in ((F(1), F(1)), (F(1), F(0)), (-seg.total, F(0)), (F(0), seg.total)):
        with pytest.raises(TimeOutOfRange):
            col.window_counts(lo, hi)


def test_exact_window_matches_fine_trapezoid():
    # D(t) is piecewise linear in t; 2048 trapezoid panels resolve its
    # average over these windows to well below 1e-6
    rz = realize(catalog("staircase-flow"), 5)
    col = FlowColumn(rz, 5, 1, 6)
    n = 2048
    for lo, hi in ((F(-1), F(0)), (F(0), F(1)), (F(-3, 2), F(1, 4))):
        W, Z = col.window_counts(lo, hi)
        trap = 0.0
        for k in range(n + 1):
            C, H = col.pair_counts(lo + (hi - lo) * k / n)
            trap += (0.5 if k in (0, n) else 1.0) * C / H
        trap /= n
        assert np.abs(W / Z - trap).max() < 1e-6, (lo, hi)


# ---------------------------------------------------------------------------
# the lag's copy-split kernel

def _lags(rz, J):
    """(q, +-q*h_stage) for q in 1..3 and every stage the config allows."""
    hs = heights(rz, J)
    return [(q, sign * q * hs[j - 1]) for q in (1, 2, 3) for j in range(1, J)
            for sign in (1, -1) if max(q, q * hs[j - 1]) < hs[J - 1]]


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_kernel_and_spacer_share_sum_to_one(flow):
    # the node weights come from the copy pairs and the share from the star
    # terms of the same splits; together they are all of C_lag's mass
    for J in range(2, 6):
        rz = realize(FLOWS[flow], J)
        col = FlowColumn(rz, J, 1, 3)
        for q, lag in _lags(rz, J):
            kernel, share = flows._lag_kernel(col, lag, F(q))
            assert sum(w for _, w in kernel) + share == 1, (J, q, lag)
            assert all(w > 0 and abs(d) < col.segments.total for d, w in kernel)
            assert 0 <= share < 1


def _kernel_oracle(col, lag, reach):
    """The lag's kernel from every pair of copies of every stage column W_e
    in the column, as Fractions: the pair (i, k) at shift
    d = lag - (start_k - start_i) is a node when |d| <= reach (or W_e is the
    base) and the pairs of copies holding it at every stage above it have
    |d| > reach; it weighs h_e - |d|. The base copies start at the
    breakpoints coded 0."""
    seg = col.segments
    starts = [F(int(b), col.den) for b in col.breaks[col.codes == 0]]
    size, h, stages = 1, seg.base_duration, []  # (base copies in W_e, h_e)
    for r, gaps in seg.stages:
        stages.append((size, h))
        size, h = size * r, r * h + sum(gaps)
    stages.append((size, h))

    def shift(e, i, k):
        size = stages[e][0]
        return lag - (starts[k * size] - starts[i * size])

    weights = {}
    for e, (size, h) in enumerate(stages):
        n = len(starts) // size
        for i in range(n):
            for k in range(n):
                d = shift(e, i, k)
                if abs(d) >= h or (e and abs(d) > reach):
                    continue
                up, i2, k2 = e, i, k
                while up + 1 < len(stages):
                    r = seg.stages[up][0]
                    up, i2, k2 = up + 1, i2 // r, k2 // r
                    if abs(shift(up, i2, k2)) <= reach:
                        break
                else:
                    weights[d] = weights.get(d, 0) + h - abs(d)
    return {d: w / (seg.total - abs(lag)) for d, w in weights.items()}


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_kernel_matches_copy_pair_oracle(flow):
    for J in range(2, 5):
        for j0 in range(1, J):
            rz = realize(FLOWS[flow], J)
            col = FlowColumn(rz, J, j0, 2)
            for q, lag in _lags(rz, J):
                kernel, _ = flows._lag_kernel(col, lag, F(q))
                assert dict(kernel) == _kernel_oracle(col, lag, q), (J, j0, q, lag)


def test_default_lag_kernel_nodes_at_depth_7():
    # q = 1 at stage J-1: W_7 is seven copies of W_6, and the pairs of copies
    # one apart leave the six shifts -i/7 (one spacer of i/7 or none)
    rz = realize(catalog("staircase-flow"), 7)
    rep = flow_limit_check(FlowColumn(rz, 7, 1, 16), 1, 6)
    assert rep.orientation == "positive-lag"
    assert [d for d, _ in rep.kernel] == [F(-i, 7) for i in range(5, -1, -1)]
    assert sum(w for _, w in rep.kernel) + rep.spacer_share == 1


def test_kernel_defect_is_small_and_falls_with_depth():
    # measured at the default keys: 1.0e-3, 3.3e-4, 6.9e-5, 1.1e-5 at J=5..8
    defects = []
    for J in range(5, 9):
        col = FlowColumn(realize(catalog("staircase-flow"), J), J, 1, 16)
        rep = flow_limit_check(col, 1, J - 1)
        assert rep.kernel_defect < 5e-3, J
        # |max|A - P| - max|B - P|| <= max|A - B|
        assert abs(rep.kernel_distance - rep.residual) <= rep.kernel_defect + 1e-12
        defects.append(rep.kernel_defect)
    assert all(b < a / 2 for a, b in zip(defects, defects[1:])), defects
