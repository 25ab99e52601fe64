"""Command line behavior: exit codes, report files, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankone
from rankone.cli import main

GOOD = """
construction.catalog = modified-chacon
construction.depth = 10
construction.base = 2

experiment.scan.kind = limit-scan
experiment.scan.lags = l[8], -l[8]
experiment.scan.window = 4

experiment.rig.kind = rigidity
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return p


def _strip_wall(text):
    return re.sub(r'^\s*"wall_time_s": .*\n', "", text, flags=re.M)


def test_run_success_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scan" in out and "ok" in out
    assert (tmp_path / "out" / "run.json").exists()


def test_json_reruns_byte_identical_except_wall_time(tmp_path):
    cfg = _write(tmp_path, GOOD)
    assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "run.json").read_text()
    b = (tmp_path / "b" / "run.json").read_text()
    assert _strip_wall(a) == _strip_wall(b)
    assert '"wall_time_s"' in a


def test_report_plan_echo_completeness(tmp_path):
    cfg = _write(tmp_path, GOOD)
    main(["run", str(cfg), "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "run.json").read_text())
    plan = rep["plan"]
    scan = plan["experiments"][0]
    # defaults the config never wrote still show up resolved
    assert scan["tolerance"] == 0.03
    assert scan["max_power"] == 6
    assert plan["base"]["j0"] == 2
    assert plan["lag_cap_divisor"] == 4
    assert plan["construction"]["kind"] == "transformation"
    rig = plan["experiments"][1]
    assert rig["slack"] == 0.01
    assert rig["lags"]  # default stage lags were materialized
    assert rep["version"] == "3"


def test_csv_format_emits_tables_with_headers(tmp_path):
    cfg = _write(tmp_path, GOOD)
    rc = main(
        ["run", str(cfg), "--out", str(tmp_path / "out"), "--format", "both"]
    )
    assert rc == 0
    mat = tmp_path / "out" / "run.scan.matrix.csv"
    cls = tmp_path / "out" / "run.scan.classify.csv"
    assert mat.exists() and cls.exists()
    with mat.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lag", "a", "b", "value"]
    S = 5  # base stage 2 of the modified Chacon map: 4 levels + star
    assert len(rows) == 1 + 2 * S * S
    with cls.open() as fh:
        crows = list(csv.reader(fh))
    assert crows[0] == ["lag", "coeff_index", "coeff", "theta", "residual"]
    # values round-trip through float() exactly
    assert all(float(r[2]) >= 0 for r in crows[1:])


def test_csv_lines_match_the_csv_module(tmp_path):
    # the writer lays each line out itself; csv.writer would quote no field
    from rankone.reports import ExperimentResult, Report, write_report

    nan, inf = float("nan"), float("inf")
    labels = ["10", "*"]
    payload = {
        "rows": [
            {
                "lag": -3,
                "matrix": {"labels": labels, "rows": [[nan, inf], [-inf, -0.0]]},
                "coefficients": [[1, 0.25], [5, 1 / 3]],
                "theta": 2.5e-17,
                "residual": -0.0,
            }
        ],
        "predicted": {"labels": labels, "rows": [[1 / 3, 2.5e-17], [0.0, nan]]},
    }
    result = ExperimentResult(label="x", kind="converge", status="ok", payload=payload)
    report = Report(plan={}, results=[result], wall_time_s=0.0, stem="r")
    written = write_report(report, tmp_path / "out", fmt="csv")
    want = {
        "classify": (
            ["lag", "coeff_index", "coeff", "theta", "residual"],
            [[-3, 1, 0.25, 2.5e-17, -0.0], [-3, 5, 1 / 3, 2.5e-17, -0.0]],
        ),
        "matrix": (
            ["lag", "a", "b", "value"],
            [[-3, "10", "10", nan], [-3, "10", "*", inf],
             [-3, "*", "10", -inf], [-3, "*", "*", -0.0]],
        ),
        "predicted": (
            ["lag", "a", "b", "value"],
            [[0, "10", "10", 1 / 3], [0, "10", "*", 2.5e-17],
             [0, "*", "10", 0.0], [0, "*", "*", nan]],
        ),
    }
    out = tmp_path / "out"
    assert written == [out / f"r.x.{name}.csv" for name in want]
    for name, (header, rows) in want.items():
        theirs = tmp_path / f"{name}.csv"
        with theirs.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
        assert (out / f"r.x.{name}.csv").read_bytes() == theirs.read_bytes(), name
    assert (out / "r.x.matrix.csv").read_bytes().splitlines()[1] == b"-3,10,10,nan"


def test_failed_and_mixing_experiments_write_no_csv(tmp_path, monkeypatch):
    text = GOOD + (
        "\nexperiment.conv.kind = converge\n"
        "experiment.conv.family = chacon-geometric\n"
        "experiment.conv.lags = l[8]\n"
        "\nexperiment.mix.kind = mixing\nexperiment.mix.lags = 5\n"
    )

    def boom(*args, **kwargs):
        raise ValueError("joining failed")

    monkeypatch.setattr(rankone.runner, "build_family", boom)
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--format", "both"]) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "run.json", "run.scan.classify.csv", "run.scan.matrix.csv"
    ]
    rep = json.loads((out / "run.json").read_text())
    by_label = {e["label"]: e for e in rep["experiments"]}
    assert by_label["conv"]["status"] == "error"
    floor = by_label["mix"]["result"]["pair_floor"]
    assert floor["labels"][-1] == "*" and len(floor["rows"]) == len(floor["labels"])


def test_csv_only_format_skips_json(tmp_path):
    cfg = _write(tmp_path, GOOD)
    main(["run", str(cfg), "--out", str(tmp_path / "out"), "--format", "csv"])
    assert not (tmp_path / "out" / "run.json").exists()
    assert (tmp_path / "out" / "run.scan.matrix.csv").exists()


def test_validation_error_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD.replace("l[8], -l[8]", "l[J-1]"))
    rc = main(["run", str(cfg)])
    assert rc == 1
    assert "l_J/4" in capsys.readouterr().err


def test_parse_error_exit_one(tmp_path, capsys):
    cfg = _write(tmp_path, "construction.catalog chacon\n")
    rc = main(["run", str(cfg)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


INLINE = """
experiment.rig.kind = rigidity
construction.kind = transformation
construction.depth = 6
construction.cuts = 2
construction.spacers = pattern:0,1
"""


CATALOG_A = """
construction.catalog = stochastic-chacon
construction.a = 3
construction.seed = 1
construction.depth = 6
experiment.rig.kind = rigidity
"""


# a in range, but chacon has no Bernoulli parameter to set
CATALOG_A_DETERMINISTIC = """
construction.catalog = chacon
construction.a = 3/10
construction.depth = 6
experiment.rig.kind = rigidity
"""


@pytest.mark.parametrize(
    "text, line",
    [
        (INLINE.replace("cuts = 2", "cuts = 1"), 5),
        (INLINE.replace("cuts = 2", "cuts = affine:-1,3"), 5),
        (INLINE.replace("cuts = 2", "cuts = affine:x,1"), 5),
        (INLINE.replace("pattern:0,1", "pattern:0,1,0"), 6),
        (INLINE + "construction.h1 = -2\n", 7),
        (INLINE.replace("cuts = 2", "cuts = 99999999999999999999"), 5),
        (CATALOG_A, 3),
        (CATALOG_A_DETERMINISTIC, 3),
    ],
    ids=["cuts-1", "affine-cut-below-2", "affine-not-int", "pattern-length",
         "negative-h1", "cuts-over-budget", "catalog-a", "catalog-a-not-stochastic"],
)
def test_bad_construction_rule_exit_one_without_traceback(tmp_path, text, line):
    _assert_config_error_at(tmp_path, text, line)


CONVERGE = """
construction.catalog = modified-chacon
construction.depth = 10
experiment.c.kind = converge
experiment.c.lags = l[8]
experiment.c.family = stochastic
experiment.c.a = 1/2
"""


STOCHASTIC = """
construction.catalog = stochastic-chacon
construction.a = 1/2
construction.depth = 6
construction.seed = 1
experiment.r.kind = rigidity
"""
CHACON10 = "construction.catalog = chacon\nconstruction.depth = 10\n"
FLOW = "construction.catalog = staircase-flow\nconstruction.depth = {J}\nexperiment.f.kind = flow-limit\n"
# a spacer of 1/(2**150 - 3) puts the column past 2**150 ticks
TICKS = """
construction.kind = flow
construction.cuts = 3
construction.spacers = pattern:0,1/1427247692705959881058285969449495136382746621,0
construction.h1 = 1
construction.depth = 3
experiment.f.kind = flow-limit
"""


@pytest.mark.parametrize(
    "text, line",
    [
        (CONVERGE.replace("a = 1/2", "a = 2"), 6),
        (GOOD.replace("window = 4", "window = -1"), 8),
        ("construction.catalog = chacon\nconstruction.depth = 63\n"
         "experiment.m.kind = mixing\nexperiment.m.lags = 1\n", 2),
        # each of these used to pass the config and fail at run time (exit 2)
        (CHACON10 + "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n"
         "experiment.s.window = 100000000\n", 5),
        (CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = chacon-geometric\nexperiment.c.M = 100000\n", 5),
        (FLOW.format(J=5) + "experiment.f.slabs = 1\n", 4),
        (FLOW.format(J=40), 2),
        # used to pass the config, with tables of (L + 1)**2 ~ 1e14 cells
        (FLOW.format(J=2) + "experiment.f.slabs = 10000000\n", 4),
        (TICKS, 6),
        # messages that used to carry no line number
        (GOOD.replace("l[8], -l[8]", "l[J-1]"), 7),
        (FLOW.format(J=6) + "experiment.f.q = 0\n", 4),
        (FLOW.format(J=6) + "experiment.f.stage = 99\n", 4),
        (GOOD.replace("base = 2", "base = 11"), 4),
        # floats too large for a float used to raise OverflowError
        (GOOD + "experiment.scan.tolerance = 1e400\n", 11),
        (GOOD + "experiment.rig.slack = 1e400\n", 11),
        # a negative bound used to be accepted, and no residual can meet it
        (GOOD + "experiment.scan.tolerance = -0.03\n", 11),
        (GOOD + "experiment.rig.slack = -1/100\n", 11),
        (STOCHASTIC.replace("a = 1/2", "a = 1e400"), 3),
        (STOCHASTIC.replace("a = 1/2", "a = -1e400"), 3),
        (STOCHASTIC.replace("a = 1/2", "a = inf"), 3),
        # messages that used to carry no line number
        (CHACON10 + "experiment.s.kind = limit-scan\n", 3),
        (CHACON10 + "experiment.d.kind = disjointness\nexperiment.d.p = 1\n", 3),
        (CHACON10 + "experiment.m.kind = mixing\n", 3),
        (CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n", 3),
        (CHACON10 + "experiment.t.kind = triple\nexperiment.t.m = 1\n", 3),
        (CHACON10 + "experiment.r.slack = 0.1\nexperiment.r.lags = 1\n", 3),
        (CHACON10 + "construction.cuts = 3\nexperiment.r.kind = rigidity\n", 3),
        ("construction.depth = 6\nconstruction.kind = transformation\n"
         "experiment.r.kind = rigidity\n", 1),
        (CHACON10 + "construction.budget = 100\nexperiment.m.kind = mixing\n"
         "experiment.m.lags = 1\n", 3),
        ("construction.catalog = chacon\nexperiment.m.kind = mixing\n"
         "experiment.m.lags = 1\n", 1),
        ("construction.catalog = chacon\nconstruction.budget = 0\n"
         "experiment.m.kind = mixing\nexperiment.m.lags = 1\n", 2),
        ("construction.catalog = chacon\nconstruction.budget = 2\n"
         "experiment.m.kind = mixing\nexperiment.m.lags = 1\n", 2),
        (INLINE.replace("kind = transformation", "kind = map"), 3),
        (STOCHASTIC.replace("construction.seed = 1\n", ""), 2),
        (CONVERGE.replace("experiment.c.a = 1/2\n", ""), 6),
        (CONVERGE.replace("family = stochastic", "family = poisson"), 6),
        # used to report "vanishing": true over no lags (the auto base of
        # chacon at depth 5 is j0 = 4: no l[j] with j0 < j < J)
        ("construction.catalog = chacon\nconstruction.depth = 5\n"
         "experiment.r.kind = rigidity\n", 3),
    ],
    ids=["stochastic-a", "scan-window", "word-length", "window-beyond-word",
         "geometric-M-beyond-word", "slabs-1", "flow-depth-tick-scale", "flow-slab-cells",
         "flow-tick-scale",
         "lag-cap", "flow-q",
         "flow-stage", "base-stage", "tolerance-overflow", "slack-overflow",
         "tolerance-negative", "slack-negative",
         "construction-a-overflow", "construction-a-negative-overflow",
         "construction-a-inf", "scan-no-lags", "disjointness-no-N", "mixing-no-lags",
         "converge-no-family", "triple-no-n", "no-kind", "catalog-conflict",
         "inline-incomplete", "depth-and-budget", "neither-depth-nor-budget",
         "budget-0", "budget-below-depth-2", "inline-kind", "stochastic-no-seed",
         "stochastic-family-no-a", "unknown-family", "rigidity-no-default-lags"],
)
def test_bad_experiment_parameter_exit_one_without_traceback(tmp_path, text, line):
    _assert_config_error_at(tmp_path, text, line)


def _assert_config_error_at(tmp_path, text, line):
    """Run the CLI in a fresh interpreter: exit 1, the line named, no traceback."""
    cfg = _write(tmp_path, text)
    env = dict(os.environ, PYTHONPATH=str(Path(rankone.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from rankone.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert re.search(rf"line {line}\b", proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


# chacon's l_9 = 511 gives 512 symbols: S**3 = 2**27 and S**4 = 2**36
DEEP_BASE = """
construction.catalog = chacon
construction.depth = 14
construction.base = 9
experiment.rig.kind = rigidity
"""


@pytest.mark.parametrize(
    "extra, line",
    [
        ("experiment.t.m = 1\nexperiment.t.kind = triple\nexperiment.t.n = 2\n", 7),
        ("experiment.d.kind = disjointness\nexperiment.d.p = 1\n"
         "experiment.d.q = 2\nexperiment.d.N = 4\n", 6),
    ],
    ids=["triple", "disjointness"],
)
def test_alphabet_limits_exit_one_at_experiment_line(tmp_path, extra, line):
    _assert_config_error_at(tmp_path, DEEP_BASE + extra, line)


def test_missing_config_exit_three(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.cfg")])
    assert rc == 3
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_config_exit_one_at_its_line(tmp_path):
    _assert_config_error_at(tmp_path, b"construction.catalog = chacon\n\xff\xfe bad\n", 2)


def test_byte_order_mark_is_dropped(tmp_path):
    # the mark sits right before the first key, construction.catalog
    plain = _write(tmp_path, GOOD.lstrip())
    (tmp_path / "bom").mkdir()
    marked = _write(tmp_path / "bom", b"\xef\xbb\xbf" + GOOD.lstrip().encode())
    assert main(["run", str(plain), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(marked), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "run.json").read_text()
    b = (tmp_path / "b" / "run.json").read_text()
    assert _strip_wall(a) == _strip_wall(b)


def test_unwritable_out_dir_exit_three(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = main(["run", str(cfg), "--out", str(blocker)])
    assert rc == 3
    assert "cannot write" in capsys.readouterr().err


def test_experiment_failure_exit_two_and_isolation(tmp_path, monkeypatch):
    text = GOOD + (
        "\nexperiment.boom.kind = disjointness\n"
        "experiment.boom.p = 1\nexperiment.boom.q = 2\n"
        "experiment.boom.N = 100\n"
        "\nexperiment.after.kind = mixing\nexperiment.after.lags = 5\n"
    )

    # parse_config refuses oversized alphabets up front, so the run-time
    # failure of a valid config is injected
    def boom(*args, **kwargs):
        raise ValueError("probe failed")

    monkeypatch.setattr(rankone.runner, "cesaro_disjointness_probe", boom)
    cfg = _write(tmp_path, text)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    rep = json.loads((tmp_path / "out" / "run.json").read_text())
    by_label = {e["label"]: e for e in rep["experiments"]}
    assert by_label["boom"]["status"] == "error"
    assert "ValueError" in by_label["boom"]["error"]
    assert by_label["scan"]["status"] == "ok"
    assert by_label["after"]["status"] == "ok"


def test_seed_flag_overrides_and_is_echoed(tmp_path):
    text = (
        "construction.catalog = stochastic-chacon\n"
        "construction.depth = 8\nconstruction.seed = 1\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 2\n"
    )
    cfg = _write(tmp_path, text)
    main(["run", str(cfg), "--out", str(tmp_path / "o1"), "--seed", "42"])
    rep = json.loads((tmp_path / "o1" / "run.json").read_text())
    assert rep["plan"]["seed"] == 42


def test_budget_flag_overrides_depth(tmp_path):
    # stage-relative lags keep working when the override shrinks the depth
    cfg = _write(tmp_path, GOOD.replace("l[8], -l[8]", "l[J-2], -l[J-2]"))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--budget", "2000"])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "run.json").read_text())
    assert rep["plan"]["depth"] == {"J": 7, "budget": 2000, "source": "budget"}


def test_list_catalog(capsys):
    rc = main(["--list-catalog"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("chacon", "modified-chacon", "staircase-flow"):
        assert name in out
    assert "flow" in out


def test_no_command_prints_usage(capsys):
    rc = main([])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()
