"""Scans and probes over the level algebra: basis construction, limit
classification sweeps, rigidity, mixing tails, product averages, triples."""

import json
import warnings

import numpy as np
import pytest

from rankone import diagnostics
from rankone.cli import main
from rankone.config import EXPERIMENT_KINDS, parse_config
from rankone.construction import catalog, heights, realize
from rankone.correlation import PairCounter
from rankone.diagnostics import (
    cesaro_disjointness_probe,
    limit_basis,
    limit_scan,
    mixing_diagnostics,
    rigidity_scan,
    triple_corr_probe,
)
from rankone.errors import LagOutOfRange
from rankone.runner import run_plan
from rankone.words import alphabet_size, level_measures, materialize_word


def test_limit_basis_keys_and_unit_mass():
    rz = realize(catalog("modified-chacon"), 10)
    basis = limit_basis(PairCounter(rz, 10, 3), K=5)
    assert set(basis) == set(range(-5, 6)) | {"theta"}
    for i in range(-5, 6):
        assert basis[i].sum() == pytest.approx(1.0, abs=1e-12), i
    mu = np.array([float(m) for m in level_measures(rz, 10, 3)])
    assert np.allclose(basis["theta"], np.outer(mu, mu), atol=1e-15)


def test_limit_basis_negative_powers_transposed():
    rz = realize(catalog("modified-chacon"), 10)
    basis = limit_basis(PairCounter(rz, 10, 3), K=4)
    for i in range(1, 5):
        assert np.array_equal(basis[-i], basis[i].T)


def test_limit_basis_shares_counter():
    rz = realize(catalog("chacon"), 10)
    pc = PairCounter(rz, 10, 2)
    basis = limit_basis(pc, K=3)
    direct = pc.counts(2).astype(float) / (pc.lJ - 2)
    assert np.array_equal(basis[2], direct)


ALL_MAP_KINDS = """
construction.catalog = modified-chacon
construction.depth = 10
experiment.s.kind = limit-scan
experiment.s.lags = l[8], -l[8]
experiment.c.kind = converge
experiment.c.family = modified-chacon-limit
experiment.c.lags = -l[8]
experiment.r.kind = rigidity
experiment.m.kind = mixing
experiment.m.lags = 1, l[7]
experiment.d.kind = disjointness
experiment.d.p = 1
experiment.d.q = 2
experiment.d.N = 8
experiment.t.kind = triple
experiment.t.m = 1
experiment.t.n = 2
"""


# each kind's payload keys, and the keys of each row of its "rows"
_CLASSIFY_KEYS = {"coefficients", "theta", "residual", "residual_frobenius", "identified"}
PAYLOAD_KEYS = {
    "limit-scan": (
        {"window", "tolerance", "fraction_identified", "worst_residual", "best_family", "rows"},
        {"lag", "family", "family_distance", "matrix"} | _CLASSIFY_KEYS,
    ),
    "converge": (
        {"family", "family_params", "window", "tolerance", "predicted", "max_distance",
         "converged", "rows"},
        {"lag", "distance_max", "distance_frobenius", "matrix"} | _CLASSIFY_KEYS,
    ),
    "rigidity": ({"slack", "vanishing", "rows"}, {"lag", "dist_max", "dist_l1", "boundary"}),
    "mixing": ({"lags", "measures", "self_peak", "pair_floor"}, None),
    "disjointness": ({"p", "q", "N", "deviation", "curve"}, None),
    "triple": ({"rows"}, {"m", "n", "window", "deviation_max"}),
    "flow-limit": (
        {"q", "stage", "slabs", "time", "orientation", "residual", "residual_mirror",
         "kernel", "spacer_share", "kernel_defect", "kernel_distance"},
        None,
    ),
}


def _assert_payload_keys(result):
    keys, row_keys = PAYLOAD_KEYS[result.kind]
    payload = result.payload
    assert set(payload) == keys, result.kind
    for row in payload.get("rows", ()):
        assert set(row) == row_keys, result.kind
    for name in ("matrix", "predicted", "pair_floor"):
        for matrix in [payload.get(name)] + [row.get(name) for row in payload.get("rows", ())]:
            assert matrix is None or set(matrix) == {"labels", "rows"}, result.kind


def test_run_plan_builds_one_counter_for_all_kinds(monkeypatch):
    built = []
    real = PairCounter.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PairCounter, "__init__", spy)
    report = run_plan(parse_config(ALL_MAP_KINDS))
    kinds = {r.kind for r in report.results}
    assert kinds == set(EXPERIMENT_KINDS) - {"flow-limit"}
    assert all(r.status == "ok" for r in report.results), report.results
    assert len(built) == 1
    flow = parse_config(
        "construction.catalog = staircase-flow\nconstruction.depth = 5\n"
        "experiment.f.kind = flow-limit\n"
    )
    flow_result = run_plan(flow).results[0]
    assert flow_result.status == "ok"
    assert len(built) == 1
    for result in report.results + [flow_result]:
        _assert_payload_keys(result)


def test_limit_scan_identifies_rigid_and_half_shift_lags():
    rz = realize(catalog("modified-chacon"), 12)
    hs = heights(rz, 12)
    scan = limit_scan(PairCounter(rz, 12, 3), [hs[10], -hs[10], 3 * hs[9]], K=4)
    by_lag = {row.lag: row for row in scan.rows}
    # D(-l_j) tends to (I + T)/2; the positive lag gives its adjoint
    assert by_lag[-hs[10]].family == "modified-chacon-limit"
    assert by_lag[hs[10]].family == "modified-chacon-limit*"
    assert by_lag[-hs[10]].family_distance <= 1e-3
    # 3 * l_j is one full copy shift at the next stage: near-rigid again
    assert by_lag[3 * hs[9]].result.residual <= scan.tolerance
    assert scan.fraction_identified == 1.0
    assert scan.worst_residual <= 1e-4


def test_limit_scan_deduplicates_lags():
    rz = realize(catalog("modified-chacon"), 10)
    scan = limit_scan(PairCounter(rz, 10, 2), [40, 40, 40, -40], K=3)
    assert [r.lag for r in scan.rows] == [40, -40]


def test_limit_scan_rejects_out_of_range_lag():
    rz = realize(catalog("chacon"), 8)
    lJ = heights(rz, 8)[7]
    with pytest.raises(LagOutOfRange):
        limit_scan(PairCounter(rz, 8, 1), [lJ], K=2)


def test_limit_scan_at_window_zero_offers_no_chacon_limit():
    # K = 0 leaves T^0 alone in the basis; both Chacon limits need T^1
    rz = realize(catalog("chacon"), 12)
    pc = PairCounter(rz, 12, 1)
    scan = limit_scan(pc, [int(heights(rz, 12)[4])], K=0)
    assert scan.window == 0
    assert [row.family for row in scan.rows] == ["identity"]


def test_limit_scan_at_window_zero_runs_from_a_config(tmp_path):
    cfg = tmp_path / "k0.cfg"
    cfg.write_text(
        "construction.catalog = chacon\nconstruction.depth = 12\n"
        "experiment.t.kind = limit-scan\nexperiment.t.lags = l[5]\n"
        "experiment.t.window = 0\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (exp,) = json.loads((tmp_path / "out" / "k0.json").read_text())["experiments"]
    assert exp["status"] == "ok"
    assert [row["family"] for row in exp["result"]["rows"]] == ["identity"]


def test_limit_scan_stochastic_grid_contains_named_power():
    rz = realize(catalog("stochastic-chacon"), 9, seed=2)
    hs = heights(rz, 9)
    scan = limit_scan(
        PairCounter(rz, 9, 3), [-hs[7]], K=4, stochastic_a=0.5, max_power=3
    )
    families = scan.rows[0].family
    # the candidate list must include the Bernoulli powers; whichever wins,
    # the distance to the declared best is the minimum over the grid
    assert scan.rows[0].family_distance <= 0.25


def test_stochastic_grid_builds_no_family_past_the_window(monkeypatch):
    # stochastic(m, n) has a shift k in [m - K, K - n] only when m + n <= 2K
    K, built = 4, []
    real = diagnostics.build_family

    def counting(name, **params):
        built.append(params)
        return real(name, **params)

    monkeypatch.setattr(diagnostics, "build_family", counting)
    wide = diagnostics._named_candidates(K, 0.5, max_power=3 * K)
    assert built and all(p.get("m", 0) + p.get("n", 0) <= 2 * K for p in built)
    monkeypatch.setattr(diagnostics, "build_family", real)
    narrow = diagnostics._named_candidates(K, 0.5, max_power=2 * K)
    assert [name for name, _ in wide] == [name for name, _ in narrow]
    assert all(w.terms == n.terms for (_, w), (_, n) in zip(wide, narrow))
    for power in (0, 3, 2 * K, 3 * K):  # the count the config bounds
        grid = diagnostics._named_candidates(K, 0.5, max_power=power)
        stochastic = [name for name, _ in grid if name.startswith("stochastic")]
        assert len(stochastic) == diagnostics.stochastic_grid_size(K, power)


def test_rigidity_dyadic_odometer_vanishes_exactly():
    # D(2^j) differs from D(0) only through the window boundary
    rz = realize(catalog("dyadic-odometer"), 14)
    scan = rigidity_scan(PairCounter(rz, 14, 3), slack=1e-9)
    assert scan.vanishing
    for row in scan.rows:
        assert row.dist_l1 <= row.boundary + 1e-12
        assert row.lag in [int(h) for h in heights(rz, 14)]


def test_rigidity_modified_chacon_does_not_vanish():
    rz = realize(catalog("modified-chacon"), 12)
    scan = rigidity_scan(PairCounter(rz, 12, 3))
    assert not scan.vanishing
    worst = max(row.dist_l1 for row in scan.rows)
    assert worst >= 0.2


def test_rigidity_refuses_an_empty_lag_list():
    # chacon at depth 5, base 4: no stage length l[j] with j0 < j < J
    pc = PairCounter(realize(catalog("chacon"), 5), 5, 4)
    for lags in (None, []):
        with pytest.raises(ValueError, match="at least one lag"):
            rigidity_scan(pc, lags=lags)


def test_rigidity_explicit_lag_list():
    rz = realize(catalog("chacon"), 10)
    scan = rigidity_scan(PairCounter(rz, 10, 2), lags=[1, 7, 31])
    assert [r.lag for r in scan.rows] == [1, 7, 31]
    assert all(r.boundary == r.lag / heights(rz, 10)[9] for r in scan.rows)


def test_mixing_masks_zero_measure_letters():
    # at j0 = 1 the dyadic odometer has no spacers: star has measure zero
    rz = realize(catalog("dyadic-odometer"), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mixing_diagnostics(PairCounter(rz, 12, 1), [1, 3, 9])
    assert rep.measures[-1] == 0.0
    assert np.isnan(rep.pair_floor[1, 1])
    assert np.isfinite(rep.pair_floor[0, 0])


def test_mixing_self_peak_bounded_by_one():
    rz = realize(catalog("modified-chacon"), 11)
    hs = heights(rz, 11)
    rep = mixing_diagnostics(PairCounter(rz, 11, 3), [hs[8], hs[9], hs[8] + 1])
    assert rep.lags == (hs[8], hs[9], hs[8] + 1)
    assert np.all(rep.self_peak <= 1.0 + 1e-12)
    # near a rigidity lag the diagonal return is half the level mass,
    # far above the independent-mass baseline mu_a^2
    assert rep.self_peak[0] == pytest.approx(rep.measures[0] / 2, rel=0.05)
    assert rep.self_peak[0] > 5.0 * rep.measures[0] ** 2


def test_cesaro_requires_reach_inside_word():
    rz = realize(catalog("chacon"), 8)
    lJ = heights(rz, 8)[7]
    with pytest.raises(LagOutOfRange):
        cesaro_disjointness_probe(PairCounter(rz, 8, 1), 1, 2, lJ)


def test_cesaro_degenerate_equal_powers_allowed():
    rz = realize(catalog("modified-chacon"), 9)
    rep = cesaro_disjointness_probe(PairCounter(rz, 9, 2), 2, 2, 40)
    assert rep.p == rep.q == 2
    assert rep.N == 40
    assert rep.deviation >= 0
    assert rep.curve[-1][0] == 40


def test_cesaro_curve_checkpoints_double():
    rz = realize(catalog("modified-chacon"), 10)
    rep = cesaro_disjointness_probe(PairCounter(rz, 10, 2), 1, 3, 100)
    ns = [n for n, _ in rep.curve]
    assert ns == [1, 2, 4, 8, 16, 32, 64, 100]


def test_cesaro_decay_for_coprime_powers():
    rz = realize(catalog("modified-chacon"), 12)
    rep = cesaro_disjointness_probe(PairCounter(rz, 12, 3), 1, 2, 256)
    first = rep.curve[0][1]
    assert rep.deviation < first / 10
    assert rep.deviation < 0.01


def test_cesaro_normalises_each_distinct_lag_once(monkeypatch):
    # with p = 1 and q = 2 the lag q*n is also p*(2n): 384 distinct lags of 512
    lags, real = [], diagnostics.unit_mass

    def spy(c, n, lJ):
        lags.append(n)
        return real(c, n, lJ)

    monkeypatch.setattr(diagnostics, "unit_mass", spy)
    rz = realize(catalog("modified-chacon"), 12)
    pc = PairCounter(rz, 12, 3)
    rep = cesaro_disjointness_probe(pc, 1, 2, 256)
    assert sorted(lags) == sorted(set(range(1, 257)) | set(range(2, 513, 2)))
    # the same bits as normalising both lags at every n
    mu = np.array([float(m) for m in level_measures(rz, 12, 3)])
    target = np.multiply.outer(np.outer(mu, mu), np.outer(mu, mu))
    total = 0
    for n in range(1, 257):
        total = total + np.multiply.outer(
            real(pc.counts(n), n, pc.lJ), real(pc.counts(2 * n), 2 * n, pc.lJ)
        )
    assert rep.deviation == float(np.abs(total / 256 - target).max())


def test_cesaro_guards_alphabet_growth():
    rz = realize(catalog("chacon"), 12)
    with pytest.raises(ValueError):
        cesaro_disjointness_probe(PairCounter(rz, 12, 6), 1, 2, 8)


def _brute_triple(word, m, n, S):
    low = min(0, m, n)
    width = max(0, m, n) - low
    offs = (-low, m - low, n - low)
    T = np.zeros((S, S, S), dtype=np.int64)
    for p in range(len(word) - width):
        T[word[p + offs[0]], word[p + offs[1]], word[p + offs[2]]] += 1
    return T / (len(word) - width)


def test_triple_matches_brute_force():
    rz = realize(catalog("modified-chacon"), 7)
    j0 = 1
    S = alphabet_size(rz, j0)
    w = materialize_word(rz, 7, j0)
    pairs = [(1, 2), (0, 0), (5, -3), (13, 13), (-4, 9)]
    pc = PairCounter(rz, 7, j0)
    rep = triple_corr_probe(pc, pairs)
    for row, (m, n) in zip(rep.rows, pairs):
        oracle = _brute_triple(w, m, n, S)
        tensor = pc.triple_counts(m, n) / row.window
        assert np.allclose(tensor, oracle, atol=1e-15), (m, n)
        mu = np.array([float(x) for x in level_measures(rz, 7, j0)])
        dev = np.abs(oracle - mu[:, None, None] * mu[None, :, None] * mu[None, None, :]).max()
        assert row.deviation_max == pytest.approx(dev, abs=1e-12)


def test_triple_zero_pair_is_symbol_frequency():
    rz = realize(catalog("chacon"), 8)
    pc = PairCounter(rz, 8, 1)
    row = triple_corr_probe(pc, [(0, 0)]).rows[0]
    tensor = pc.triple_counts(0, 0) / row.window
    mu = np.array([float(x) for x in level_measures(rz, 8, 1)])
    diag = np.array([tensor[a, a, a] for a in range(len(mu))])
    assert np.allclose(diag, mu, atol=1e-12)
    assert tensor.sum() == pytest.approx(1.0)


def test_triple_at_depth_40_is_exact_and_shares_the_counter():
    # 2 * l_J symbols per pair: a streamed probe would refuse this depth
    rz = realize(catalog("chacon"), 40)
    hs = heights(rz, 40)
    pc = PairCounter(rz, 40, 2)
    pairs = [(1, 2), (int(hs[37]), 2 * int(hs[37]))]
    rep = triple_corr_probe(pc, pairs)
    mu = np.array([float(x) for x in level_measures(rz, 40, 2)])
    for row, (m, n) in zip(rep.rows, pairs):
        assert row.window == pc.lJ - max(m, n)
        tensor = pc.triple_counts(m, n) / row.window
        assert tensor.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(tensor.sum(axis=(1, 2)), mu, atol=1e-9)
        target = mu[:, None, None] * mu[None, :, None] * mu[None, None, :]
        assert row.deviation_max == np.abs(tensor - target).max()
    # the pair sub-counts went through the shared pair memo
    assert pc._memo and pc._tmemo


def test_triple_guards_alphabet_growth():
    rz = realize(catalog("chacon"), 12)
    with pytest.raises(ValueError):
        triple_corr_probe(PairCounter(rz, 12, 9), [(1, 2)])
