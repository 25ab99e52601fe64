"""The report writer's bytes against the stdlib: the JSON emitter against
json.dumps(obj, sort_keys=True, indent=2, allow_nan=True), the CSV tables
against the csv module writing rows read back from the JSON."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankone
from rankone._record import record
from rankone.config import parse_config
from rankone.reports import (
    ExperimentResult,
    Report,
    _encode,
    _json_text,
    record_payload,
    report_to_json,
    write_report,
)
from rankone.runner import run_plan

ROOT = Path(__file__).resolve().parents[1]


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _ours(obj) -> str:
    return _encode(obj, "") + "\n"


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_emitter_matches_json_dumps(obj):
    assert _ours(obj) == _oracle(obj)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        {"z": [1, [2, [3, {"y": (4, 5)}]]], "a": {"m": {"n": [[]]}}},
        'quote " backslash \\ slash / tab \t newline \n bell \x07 nul \x00',
        "café ☃ \U0001f600 \ud83d",
        {"kéy \"q\"": "\U0001d11e", "\x1f": "\\"},
        [2**64, 2**64 + 1, -(2**64), -(2**100), -1, 0, 10**40],
        [True, 1, False, 0, None, 1.0, "1"],
        {"t": True, "one": 1, "f": False, "zero": 0},
        [NAN, INF, -INF, -0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308],
        [0.5, NAN, 0.25],
        [INF, 1.0],
        [1.0, 2, 3.0],
        [1.0, True],
        [[0.1, 0.2], [NAN, -INF], [1, 2.0]],
        None,
        NAN,
        -0.0,
        "",
        {"": ""},
        {"b": 1, "a": 2, "B": 3, "é": 4, "aa": 5},
        [np.float64(0.1), np.float64(NAN), 2.5],
        [np.float64(1e16)],
    ],
)
def test_emitter_fixed_cases(obj):
    assert _ours(obj) == _oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [{1: "a"}, {None: 1}, {"a": {2.5: 1}}, [{"a": 1, (1, 2): 2}], {True: 1}],
)
def test_emitter_rejects_non_str_keys(obj):
    with pytest.raises(TypeError):
        _encode(obj, "")


@pytest.mark.parametrize(
    "obj", [{1, 2}, [object()], {"a": np.int64(3)}, [1.0, np.bool_(True)], b"x"]
)
def test_emitter_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        _oracle(obj)
    with pytest.raises(TypeError):
        _encode(obj, "")


@record
class _Leaf:
    value: float
    exact: Fraction


@record
class _Tree:
    leaves: tuple
    grid: np.ndarray
    count: int
    flag: bool
    label: str
    plain: bool
    missing: object = None


def _plain_types(o):
    """Every type in o, looking inside dicts and lists."""
    if isinstance(o, dict):
        return {t for v in o.values() for t in _plain_types(v)}
    if isinstance(o, list):
        return {t for v in o for t in _plain_types(v)}
    return {type(o)}


def test_record_payload_gives_what_json_dumps_writes():
    tree = _Tree(
        leaves=(_Leaf(np.float64(0.1), Fraction(-3, 7)), _Leaf(2.5, Fraction(4))),
        grid=np.array([[1.0, NAN], [0.0, -2.0]]),
        count=np.int64(5),
        flag=np.bool_(True),
        label="a*",
        plain=False,
    )
    payload = record_payload(tree)
    assert payload == {
        "leaves": [{"value": 0.1, "exact": "-3/7"}, {"value": 2.5, "exact": "4"}],
        "grid": [[1.0, payload["grid"][0][1]], [0.0, -2.0]],
        "count": 5,
        "flag": True,
        "label": "a*",
        "plain": False,
        "missing": None,
    }
    assert payload["grid"][0][1] != payload["grid"][0][1]  # nan stays nan
    assert _plain_types(payload) == {str, int, float, bool, type(None)}
    assert _ours(payload) == _oracle(payload)
    # a bare tuple of records is a list of dicts; a plain value passes through
    assert record_payload((tree.leaves[1],)) == [{"value": 2.5, "exact": "4"}]
    assert record_payload("x") == "x" and record_payload(None) is None


def _csv_oracle(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])


def _matrix_rows(lag, matrix):
    labels = matrix["labels"]
    return [
        (lag, labels[a], labels[b], v)
        for a, row in enumerate(matrix["rows"])
        for b, v in enumerate(row)
    ]


def _csv_oracle_tables(result):
    """name -> (header, rows) of the CSV tables an experiment's JSON entry
    holds: the per-lag rows of limit-scan and converge, and converge's
    predicted matrix."""
    if result["status"] != "ok" or result["kind"] not in ("limit-scan", "converge"):
        return {}
    payload = result["result"]
    rows = payload["rows"]
    tables = {
        "classify": (
            ("lag", "coeff_index", "coeff", "theta", "residual"),
            [
                (r["lag"], i, c, r["theta"], r["residual"])
                for r in rows
                for i, c in r["coefficients"]
            ],
        ),
        "matrix": (
            ("lag", "a", "b", "value"),
            [t for r in rows for t in _matrix_rows(r["lag"], r["matrix"])],
        ),
    }
    if result["kind"] == "converge":
        tables["predicted"] = (
            ("lag", "a", "b", "value"),
            _matrix_rows(0, payload["predicted"]),
        )
    return tables


def _workload_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks its module up there
    spec.loader.exec_module(mod)
    cfgs = [
        pytest.param(w.generate(seed), id=f"{name}-seed{seed}")
        for name, w in mod.WORKLOADS.items()
        for seed in (0, 1)
    ]
    readme = (ROOT / "README.md").read_text()
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", readme, flags=re.M | re.S)
    (survey,) = [b for tag, b in fenced if tag == "" and "construction.catalog" in b]
    return cfgs + [pytest.param(survey, id="readme-survey")]


@pytest.mark.parametrize("text", _workload_configs())
def test_reports_match_the_stdlib_writers(tmp_path, text):
    report = run_plan(parse_config(text))
    written = write_report(report, tmp_path / "out", fmt="both")
    obj = {
        "version": report.version,
        "plan": report.plan,
        "experiments": [r.as_json_obj() for r in report.results],
        "wall_time_s": report.wall_time_s,
    }
    want = _oracle(obj)
    assert report_to_json(report) == want
    assert (tmp_path / "out" / f"{report.stem}.json").read_text() == want
    expected = {tmp_path / "out" / f"{report.stem}.json"}
    written_json = (tmp_path / "out" / f"{report.stem}.json").read_text()
    for r in json.loads(written_json)["experiments"]:
        for name, (header, rows) in _csv_oracle_tables(r).items():
            if not rows:
                continue
            theirs = tmp_path / f"{r['label']}.{name}.csv"
            _csv_oracle(theirs, header, rows)
            ours = tmp_path / "out" / f"{report.stem}.{r['label']}.{name}.csv"
            assert ours.read_bytes() == theirs.read_bytes(), ours.name
            expected.add(ours)
    assert set(written) == expected


def test_both_formats_write_what_each_writes_alone(tmp_path):
    # under fmt="both" the matrix CSV reuses the float reprs the JSON
    # emitter made; a row that is not all floats, and nan or inf (which the
    # JSON spells NaN and Infinity), still write what fmt="csv" writes
    nan, inf = float("nan"), float("inf")
    labels = ["0", "*"]
    rows = [[nan, inf], [-inf, -0.0]]
    predicted = [[1 / 3, 2], [0.0, 2.5e-17]]
    payload = {
        "rows": [
            {
                "lag": 7,
                "matrix": {"labels": labels, "rows": rows},
                "coefficients": [[0, 0.5]],
                "theta": 0.1,
                "residual": 1e-300,
            }
        ],
        "predicted": {"labels": labels, "rows": predicted},
    }
    result = ExperimentResult(label="x", kind="converge", status="ok", payload=payload)
    report = Report(plan={}, results=[result], wall_time_s=0.0, stem="r")
    both = write_report(report, tmp_path / "both", fmt="both")
    alone = write_report(report, tmp_path / "alone", fmt="json")
    alone += write_report(report, tmp_path / "alone", fmt="csv")
    assert [p.name for p in both] == [p.name for p in alone]
    for ours, theirs in zip(both, alone):
        assert ours.read_bytes() == theirs.read_bytes(), ours.name
    reprs = {}
    _json_text(report, reprs)
    assert [reprs.get(id(row)) for row in rows + predicted] == [
        ["nan", "inf"], ["-inf", "-0.0"], None, ["0.0", "2.5e-17"]
    ]


def test_import_loads_no_json_package():
    # the JSON string escaper comes from _json, CPython's C module, so
    # importing rankone does not load json, json.decoder or json.scanner
    code = (
        "import sys, rankone\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rankone.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
