"""Report objects plus their JSON and CSV serializations.

A Report is the runner's output: the resolved plan echo, one entry per
experiment (payload on success, error string on failure), and the wall
time. JSON serialization is canonical: sorted keys, two-space indent,
floats through repr (shortest round-trip). The JSON is laid out by hand
around C-level scalar encoders (the string escaper of _json, the C
module behind the json package, which is itself never imported;
float.__repr__, int.__repr__) and has the same bytes as
json.dumps(obj, sort_keys=True, indent=2), whose indented form runs the
json package's pure-Python encoder. Two runs of the same plan differ at
most in the wall_time_s line.

Each CSV file is a flat view of one experiment's JSON payload, laid out
by one format per table:

    <stem>.<label>.classify.csv    lag, coeff_index, coeff, theta, residual
        from each per-lag row's lag, coefficients, theta and residual
    <stem>.<label>.matrix.csv      lag, a, b, value
        from each per-lag row's lag and matrix (labels, rows)
    <stem>.<label>.predicted.csv   lag, a, b, value
        from the payload's predicted matrix, at lag 0

A matrix value is formatted once: the CSV lines reuse the reprs the JSON
emitter made for its row. Only limit-scan and converge payloads hold these
keys (converge alone a predicted matrix). Rigidity, mixing, disjointness, triple and flow-limit
results, and every failed experiment, appear only in the JSON.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._record import record
from .errors import IoError

__all__ = [
    "SCHEMA_VERSION",
    "alphabet_labels",
    "matrix_payload",
    "record_payload",
    "ExperimentResult",
    "Report",
    "report_to_json",
    "write_report",
]

SCHEMA_VERSION = "3"


def alphabet_labels(S: int) -> List[str]:
    """Level names 0..S-2 plus the star (spacer) cell."""
    return [str(i) for i in range(S - 1)] + ["*"]


def matrix_payload(matrix: np.ndarray, labels: Sequence[str]) -> Dict[str, object]:
    return {
        "labels": list(labels),
        "rows": np.asarray(matrix, dtype=np.float64).tolist(),
    }


def record_payload(obj):
    """obj as JSON data: a record is the dict of its fields, tuples, lists and
    arrays are lists, numpy scalars Python numbers and a Fraction its str."""
    if hasattr(obj, "_fields"):
        return {name: record_payload(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [record_payload(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


@record
class ExperimentResult:
    label: str
    kind: str
    status: str  # "ok" or "error"
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def as_json_obj(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "label": self.label,
            "kind": self.kind,
            "status": self.status,
        }
        if self.status == "ok":
            out["result"] = self.payload
        else:
            out["error"] = self.error
        return out


@record
class Report:
    plan: Dict[str, object]
    results: List[ExperimentResult]
    wall_time_s: float
    stem: str
    version: str = SCHEMA_VERSION

    @property
    def failed(self) -> List[str]:
        return [r.label for r in self.results if r.status != "ok"]


def report_to_json(report: Report) -> str:
    return _json_text(report, None)


def _json_text(report: Report, reprs: Optional[Dict[int, List[str]]]) -> str:
    obj = {
        "version": report.version,
        "plan": report.plan,
        "experiments": [r.as_json_obj() for r in report.results],
        "wall_time_s": report.wall_time_s,
    }
    return _encode(obj, "", reprs) + "\n"


_float_repr = float.__repr__
_int_repr = int.__repr__
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


def _encode(o, indent: str, reprs: Optional[Dict[int, List[str]]] = None) -> str:
    """o as json.dumps(o, sort_keys=True, indent=2) lays it out at the
    given indent; a type json would refuse, or a non-str key, raises
    TypeError. reprs, when given, maps the id of every float-only list to
    its items' reprs, so the CSV tables can reuse them."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_repr(o)
    if isinstance(o, float):
        return _float(o)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = None
        if isinstance(o[0], float):
            try:  # a float-only list (a matrix row): one join of reprs
                strs = list(map(_float_repr, o))
            except TypeError:  # some later item is not a float
                pass
            else:
                if reprs is not None:
                    reprs[id(o)] = strs
                body = sep.join(strs)
                if "n" in body:  # nan or inf, which json spells otherwise
                    body = sep.join(map(_float, o))
        if body is None:
            body = sep.join([_encode(v, inner, reprs) for v in o])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _quote raises TypeError on a key that is not a str
        body = sep.join([_quote(k) + ": " + _encode(o[k], inner, reprs) for k in sorted(o)])
        return "{\n" + inner + body + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _matrix_lines(lag: int, matrix: Dict[str, list], reprs: Dict[int, List[str]]) -> List[str]:
    labels = matrix["labels"]
    return [
        f"{lag},{a},{b},{v}"
        for a, row in zip(labels, matrix["rows"])
        for b, v in zip(labels, reprs.get(id(row)) or map(repr, row))
    ]


def _csv_tables(
    payload: Dict[str, object], reprs: Dict[int, List[str]]
) -> Dict[str, Tuple[str, List[str]]]:
    """The CSV tables of one payload: name -> (header, data lines).

    No field needs quoting: ints, float reprs (the shortest decimal that
    round-trips), level labels and "*". A matrix row whose reprs the JSON
    emitter already made (reprs, by the row's id) reuses them.
    """
    rows = [r for r in payload.get("rows", ()) if "matrix" in r]
    predicted = payload.get("predicted")
    return {
        "classify": (
            "lag,coeff_index,coeff,theta,residual",
            [
                f"{head}{i},{c!r}{tail}"
                for r in rows  # a row's lag, theta and residual formatted once
                for head, tail in [(f"{r['lag']},", f",{r['theta']!r},{r['residual']!r}")]
                for i, c in r["coefficients"]
            ],
        ),
        "matrix": (
            "lag,a,b,value",
            [line for r in rows for line in _matrix_lines(r["lag"], r["matrix"], reprs)],
        ),
        "predicted": (
            "lag,a,b,value",
            _matrix_lines(0, predicted, reprs) if predicted is not None else [],
        ),
    }


def write_report(report: Report, out_dir, fmt: str = "json") -> List[Path]:
    """Write the report under out_dir; returns the paths written.

    fmt is json, csv, or both. Directory creation and every write error
    surface as IoError so the command line can map them to one exit code.
    """
    if fmt not in ("json", "csv", "both"):
        raise IoError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    written: List[Path] = []
    # float reprs by list id, shared by the JSON and the CSV tables; every
    # list stays alive in the report while it is written, so ids are unique
    reprs: Dict[int, List[str]] = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        if fmt in ("json", "both"):
            p = out / f"{report.stem}.json"
            p.write_text(_json_text(report, reprs))
            written.append(p)
        if fmt in ("csv", "both"):
            for r in report.results:
                if r.status != "ok":
                    continue
                for name, (header, lines) in _csv_tables(r.payload, reprs).items():
                    if not lines:
                        continue
                    p = out / f"{report.stem}.{r.label}.{name}.csv"
                    p.write_text(header + "\n" + "\n".join(lines) + "\n", newline="")
                    written.append(p)
    except OSError as exc:
        raise IoError(f"cannot write report: {exc}") from None
    return written
