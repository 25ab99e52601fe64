"""Acceptance gate: one test per published behavior guarantee.

Each test prints one machine-greppable line, `acceptance NN <name>: PASS
(...)`, on success; a failed assertion leaves the FAILED line to pytest.
Run with `pytest tests/test_acceptance.py -v -s` to see both.
"""

import json
import re
import sys
import time
from fractions import Fraction

import numpy as np

from rankone.config import parse_config
from rankone.construction import catalog, catalog_names, heights, realize
from rankone.correlation import (
    PairCounter,
    lag_counts_block,
    lag_counts_naive,
)
from rankone.diagnostics import limit_basis, limit_scan, rigidity_scan
from rankone.operators import (
    build_family,
    classify_limit,
    identity_op,
    joining_matrix,
    op_add,
    op_adjoint,
    op_convolve,
    op_power,
    op_scale,
    predicted_matrix,
    shift_op,
)
from rankone.flows import (
    SlabAlgebra,
    flow_limit_check,
    flow_segments,
    pm_identity_gap,
)
from rankone.reports import report_to_json
from rankone.runner import run_plan
from rankone.words import default_base_stage

F = Fraction


def _ok(num, name, detail):
    print(f"acceptance {num:02d} {name}: PASS ({detail})", file=sys.stderr)


def test_criterion_01_heights_closed_forms():
    t0 = time.perf_counter()
    cz = realize(catalog("chacon"), 200)
    mz = realize(catalog("modified-chacon"), 200)
    sz = realize(catalog("spaced-odometer5"), 200)
    ch, mh, sh = heights(cz, 200), heights(mz, 200), heights(sz, 200)
    assert ch[:5] == [1, 3, 7, 15, 31]
    assert mh[:4] == [1, 4, 13, 40]
    assert sh[0] == 1
    prev = 1
    for j in range(1, 201):
        assert ch[j - 1] == 2**j - 1
        assert mh[j - 1] == (3**j - 1) // 2
        if j > 1:
            prev = 5 * prev + 8
            assert sh[j - 1] == prev
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, "heights exactness", f"J<=200 exact, {elapsed:.2f}s")


def test_criterion_02_block_equals_naive_everywhere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    pairs = checked = 0
    for name in catalog_names():
        sched = catalog(name)
        if sched.kind != "transformation":
            continue  # the word engines are symbol-based
        seed = 1234 if sched.stochastic else None
        rz = realize(sched, 64, seed=seed)
        hs = heights(rz, 64)
        for J in range(2, 65):
            lJ = int(hs[J - 1])
            if lJ > 10**5:
                break
            lags = {int(hs[J - 2]), int(hs[J - 2]) + 1, int(hs[J - 2]) - 1}
            while len(lags) < 50 and len(lags) < 2 * lJ - 1:
                lags.add(int(rng.integers(-(lJ - 1), lJ)))
            lags = sorted(v for v in lags if abs(v) < lJ)
            blk = lag_counts_block(
                rz, J, 1, lags, materialize_cutoff=512, enum_cutoff=64
            )
            nai = lag_counts_naive(rz, J, 1, lags)
            for n in lags:
                assert np.array_equal(blk[n], nai[n]), (name, J, n)
                checked += 1
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(2, "counter oracle equivalence",
        f"{pairs} schedule/depth pairs, {checked} lag matrices, {elapsed:.1f}s")


def test_criterion_03_modified_chacon_half_shift_limit():
    t0 = time.perf_counter()
    J, j0 = 12, 3
    rz = realize(catalog("modified-chacon"), J)
    hs = heights(rz, J)
    assert 8 <= hs[j0 - 1] <= 64
    assert hs[j0 - 1] / hs[J - 1] <= 1e-4
    pc = PairCounter(rz, J, j0)
    basis = limit_basis(rz, J, j0, K=8, counter=pc)
    lag = -int(hs[J - 2])
    measured = pc.counts(lag).astype(np.float64) / (pc.lJ - abs(lag))
    res = classify_limit(measured, basis)
    c0 = res.coefficients.get(0, 0.0)
    c1 = res.coefficients.get(1, 0.0)
    assert 0.47 <= c0 <= 0.53
    assert 0.47 <= c1 <= 0.53
    assert res.theta <= 0.03
    assert res.residual <= 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(3, "modified Chacon limit",
        f"c0={c0:.4f} c1={c1:.4f} theta={res.theta:.4f} "
        f"resid={res.residual:.5f}, {elapsed:.2f}s")


def test_criterion_04_classic_chacon_geometric_limit():
    # the geometric limit needs the lag stage well below the word depth:
    # at stage J-1 the finite window degenerates to the identity pattern,
    # so the check runs at stage J-8 (same depth regime, stable coefficients)
    t0 = time.perf_counter()
    J, j0 = 18, 4
    rz = realize(catalog("chacon"), J)
    hs = heights(rz, J)
    assert 8 <= hs[j0 - 1] <= 64
    assert hs[j0 - 1] / hs[J - 1] <= 1e-4
    pc = PairCounter(rz, J, j0)
    basis = limit_basis(rz, J, j0, K=21, counter=pc)
    lag = -int(hs[J - 9])
    measured = pc.counts(lag).astype(np.float64) / (pc.lJ - abs(lag))
    predicted = predicted_matrix(build_family("chacon-geometric", M=20), basis)
    dist = float(np.abs(measured - predicted).max())
    assert dist <= 0.03
    res = classify_limit(measured, basis)
    errs = []
    for i in range(5):
        err = abs(res.coefficients.get(i, 0.0) - 2.0 ** -(i + 1))
        errs.append(err)
        assert err <= 0.02, (i, err)
    elapsed = time.perf_counter() - t0
    _ok(4, "classic Chacon geometric limit",
        f"dist={dist:.5f} max coeff err={max(errs):.4f}, {elapsed:.2f}s")


def test_criterion_05_stochastic_chacon_bernoulli_powers():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 6):
        rz = realize(catalog("stochastic-chacon"), 11, seed=seed)
        hs = heights(rz, 11)
        j0 = default_base_stage(rz)
        pc = PairCounter(rz, 11, j0)
        basis = limit_basis(rz, 11, j0, K=8, counter=pc)
        for q in (1, 2, 3):
            lag = q * int(hs[7])  # positive lags per the P convention
            measured = pc.counts(lag).astype(np.float64) / (pc.lJ - lag)
            jm = joining_matrix(
                build_family("stochastic", m=q, n=0, a=F(1, 2)), basis
            )
            dist = float(np.abs(measured - jm.matrix).max())
            worst = max(worst, dist)
            assert dist <= 0.05, (seed, q, dist)
    # exact rational product P P* at a = 1/2
    pq = build_family("stochastic", m=1, n=1, a=F(1, 2))
    assert pq.as_dict() == {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}
    assert pq.theta == 0
    elapsed = time.perf_counter() - t0
    _ok(5, "stochastic Chacon powers",
        f"worst dist={worst:.4f} over 5 seeds x q in 1..3, {elapsed:.1f}s")


def test_criterion_06_balanced_power_collapse():
    # at a = 1/2 every mixed power P^m (P*)^n is a pure shift of the
    # symmetric average, so the identity must hold exactly over Fractions
    t0 = time.perf_counter()
    a = F(1, 2)
    P = op_add(op_scale(identity_op(), a), op_scale(shift_op(-1), 1 - a))
    half = build_family("modified-chacon-limit")
    count = 0
    for m in range(9):
        for n in range(9 - m):
            built = build_family("stochastic", m=m, n=n, a=a)
            composed = op_convolve(op_power(P, m), op_power(op_adjoint(P), n))
            collapsed = op_convolve(shift_op(-m), op_power(half, m + n))
            assert built == composed, (m, n)
            assert built == collapsed, (m, n)
            count += 1
    elapsed = time.perf_counter() - t0
    _ok(6, "balanced power collapse", f"{count} (m, n) pairs exact, {elapsed:.2f}s")


def test_criterion_07_rigidity_contrast():
    t0 = time.perf_counter()
    J, j0 = 14, 3
    rz = realize(catalog("dyadic-odometer"), J)
    hs = heights(rz, J)
    lags = [int(hs[j - 1]) for j in range(j0 + 1, J - 2)]  # j <= J-3
    scan = rigidity_scan(rz, J, j0, lags=lags, slack=1e-12)
    for row in scan.rows:
        assert row.dist_l1 <= row.boundary + 1e-12, row
    assert scan.vanishing
    Jm = 12
    rzm = realize(catalog("modified-chacon"), Jm)
    hsm = heights(rzm, Jm)
    lagsm = [int(hsm[j - 1]) for j in range(j0 + 1, Jm - 2)]
    scm = rigidity_scan(rzm, Jm, j0, lags=lagsm)
    min_dist = min(r.dist_l1 for r in scm.rows)
    assert min_dist >= 0.2
    assert not scm.vanishing
    elapsed = time.perf_counter() - t0
    _ok(7, "rigidity contrast",
        f"odometer seam-bounded at {len(lags)} stages, "
        f"modified Chacon min dist={min_dist:.3f}, {elapsed:.2f}s")


def test_criterion_08_limit_scan_band():
    t0 = time.perf_counter()
    J, j0 = 12, 3
    rz = realize(catalog("modified-chacon"), J)
    hs = heights(rz, J)
    lags = []
    for j in range(6, 11):
        l = int(hs[j - 1])
        lags += [l, -l, l + 1, -(l + 1), 2 * l, -2 * l]
    scan = limit_scan(rz, J, j0, lags, K=8, tol=0.05)
    assert len(scan.rows) == 30
    for row in scan.rows:
        assert row.result.residual <= 0.05, (row.lag, row.result.residual)
    assert scan.fraction_identified == 1.0
    elapsed = time.perf_counter() - t0
    _ok(8, "limit-scan band",
        f"30 lags, worst resid={scan.worst_residual:.5f}, {elapsed:.1f}s")


def test_criterion_09_flow_limit_and_window_identity():
    t0 = time.perf_counter()
    J, j = 8, 7
    rz = realize(catalog("staircase-flow"), J)
    hs = heights(rz, J)
    assert float(hs[0] / hs[J - 1]) <= 1e-4
    rep = flow_limit_check(rz, J, 1, 1, j, L=16)
    assert rep.residual <= 0.05
    seg = flow_segments(rz, J)
    gap = pm_identity_gap(seg, SlabAlgebra(16), hs[j - 1])
    assert gap == 0.0
    elapsed = time.perf_counter() - t0
    _ok(9, "flow limit",
        f"resid={rep.residual:.4f} window-identity gap={gap:.1e}, {elapsed:.0f}s")


def test_criterion_10_performance():
    rz = realize(catalog("chacon"), 36)
    hs = heights(rz, 36)
    assert hs[35] >= 2**35
    t0 = time.perf_counter()
    blk = lag_counts_block(rz, 36, 1, [int(hs[34]), -int(hs[34])])
    block_time = time.perf_counter() - t0
    assert block_time < 5.0
    assert blk[int(hs[34])].sum() == hs[35] - hs[34]

    rz30 = realize(catalog("chacon"), 30)
    h30 = heights(rz30, 30)
    l30 = int(h30[29])
    assert l30 >= 10**9
    lags = [1, int(h30[1]), 12345]  # 1, the base length, and an odd offset
    t0 = time.perf_counter()
    seq = lag_counts_naive(rz30, 30, 2, lags)
    naive_time = time.perf_counter() - t0
    assert naive_time < 60.0
    for n in lags:
        assert seq[n].sum() == l30 - n
    _ok(10, "performance",
        f"block {block_time:.2f}s at l_J=2^36-1, naive {naive_time:.0f}s "
        f"at l_J={l30}")


def test_criterion_11_reproducible_reports():
    text = (
        "construction.catalog = stochastic-chacon\n"
        "construction.depth = 9\n"
        "construction.seed = 31\n"
        "experiment.scan.kind = limit-scan\n"
        "experiment.scan.lags = l[J-1], -l[J-1], 2*l[J-2]\n"
        "experiment.scan.window = 4\n"
        "experiment.rig.kind = rigidity\n"
        "experiment.dj.kind = disjointness\n"
        "experiment.dj.p = 1\nexperiment.dj.q = 2\nexperiment.dj.N = 32\n"
    )
    t0 = time.perf_counter()
    texts = []
    for _ in range(2):
        report = run_plan(parse_config(text))
        assert not report.failed
        texts.append(report_to_json(report))

    def strip(s):
        return re.sub(r'^\s*"wall_time_s": .*\n', "", s, flags=re.M)

    assert strip(texts[0]) == strip(texts[1])
    parsed = json.loads(texts[0])
    assert set(parsed) == {"version", "plan", "experiments", "wall_time_s"}
    elapsed = time.perf_counter() - t0
    _ok(11, "reproducible reports",
        f"two runs byte-identical minus wall time, {elapsed:.1f}s")
