"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

Crafted reports are built here from real run_plan output; nothing under
src/ is touched.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from rankone import parse_config, report_to_json, run_plan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
EXACT_COUNTS = (
    "correlation.counts_calls",
    "operators.classify_calls",
    "flows.sweeps",
    "flows.breakpoints",
    "words.stream_symbols",
)


def _report(name: str, seed: int = SEED) -> tuple:
    text = WORKLOADS[name].generate(seed)
    return text, json.loads(report_to_json(run_plan(parse_config(text))))


@pytest.fixture(scope="module")
def spacer():
    return _report("long-spacer")


def _scan_row(report: dict, seed: int = SEED) -> dict:
    exp = next(e for e in report["experiments"] if e["kind"] == "limit-scan")
    rows = exp["result"]["rows"]
    return rows[seed % len(rows)]


def test_clean_report_passes_every_check(spacer):
    text, report = spacer
    reference = json.loads(run.REFERENCE.read_text())["long-spacer"][str(SEED)]
    assert checks.report_problems(report) == {}
    assert checks.verdict_mismatches(report, reference) == {}
    assert checks.oracle_mismatch(text, report, SEED) == {}


def test_nudged_matrix_entry_is_rejected(spacer):
    _, report = spacer
    bad = copy.deepcopy(report)
    _scan_row(bad)["matrix"]["rows"][0][1] += 1e-6
    assert set(checks.report_problems(bad)) == {"scan"}


def test_mass_preserving_swap_is_caught_by_the_oracle(spacer):
    text, report = spacer
    bad = copy.deepcopy(report)
    rows = _scan_row(bad)["matrix"]["rows"]
    i, j = next((i, j) for i in range(len(rows)) for j in range(len(rows))
                if rows[i][j] != rows[j][i])
    rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
    assert checks.report_problems(bad) == {}
    assert set(checks.oracle_mismatch(text, bad, SEED)) == {"scan"}


def test_error_status_is_rejected(spacer):
    _, report = spacer
    bad = copy.deepcopy(report)
    exp = bad["experiments"][0]
    exp["status"], exp["error"] = "error", "ValueError: crafted"
    del exp["result"]
    assert set(checks.report_problems(bad)) == {"scan"}


def test_changed_verdict_is_rejected(spacer):
    _, report = spacer
    reference = checks.verdicts(report)
    bad = copy.deepcopy(report)
    row = _scan_row(bad)
    row["identified"] = not row["identified"]
    assert set(checks.verdict_mismatches(bad, reference)) == {"scan"}


def test_flow_residual_over_bound_is_rejected():
    crafted = {"experiments": [{"label": "flow", "kind": "flow-limit", "status": "ok",
                                "result": {"residual": checks.FLOW_RESIDUAL_BOUND * 1.2}}]}
    assert set(checks.report_problems(crafted)) == {"flow"}


def test_failed_process_fails_every_experiment():
    rep = run.Rep(traced=False, exit_code=1, wall_s=0.1, result=None, report=None)
    assert set(run.rep_problems(rep, ["a", "b"], None)) == {"a", "b"}


def test_generators_are_seeded():
    for name, w in WORKLOADS.items():
        assert w.generate(5) == w.generate(5)
        if name == "staircase-flow":
            assert w.generate(5) == w.generate(6)
        else:
            assert w.generate(5) != w.generate(6)


def test_highest_tail_percentile():
    assert run.highest_tail_percentile(list(range(10))) is None
    assert run.highest_tail_percentile(list(range(20))) == (50.0, 9)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    derived = set(spans.layer_metrics([], {}, 1.0)) | {"trace.overhead_s"}
    assert derived == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_self_times_add_up(name, tmp_path):
    config = tmp_path / f"{name}.cfg"
    config.write_text(WORKLOADS[name].generate(SEED))
    runs = []
    for k in range(2):
        rep = run.run_rep(config, tmp_path / f"out{k}", name, traced=True)
        assert rep.exit_code == 0 and rep.result is not None
        m = spans.layer_metrics(rep.result["spans"], rep.result["counts"], rep.result["run_s"])
        layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.RUN_LAYERS)
        assert abs(layer_sum - m["trace.run_s"]) <= 1e-3 + 1e-3 * m["trace.run_s"]
        runs.append(m)
    for key in EXACT_COUNTS:
        assert runs[0][key] == runs[1][key], key
    assert any(runs[0][key] > 0 for key in EXACT_COUNTS)
