"""Report objects plus their JSON and CSV serializations.

A Report is the runner's output: the resolved plan echo, one entry per
experiment (payload on success, error string on failure), and the wall
time. JSON serialization is canonical: sorted keys, two-space indent,
floats through repr (shortest round-trip). Two runs of the same plan
differ at most in the wall_time_s line.

CSV emission covers the two flat table schemas:

    <stem>.<label>.matrix.csv      lag, a, b, value
    <stem>.<label>.classify.csv    lag, coeff_index, coeff, theta, residual

plus <stem>.<label>.predicted.csv for experiments that carry a predicted
matrix. Experiments without tabular payloads appear only in the JSON.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import IoError

__all__ = [
    "SCHEMA_VERSION",
    "alphabet_labels",
    "matrix_payload",
    "ExperimentResult",
    "Report",
    "report_to_json",
    "write_report",
]

SCHEMA_VERSION = "2"

_HEADERS = {
    "matrix": ("lag", "a", "b", "value"),
    "predicted": ("lag", "a", "b", "value"),
    "classify": ("lag", "coeff_index", "coeff", "theta", "residual"),
}


def alphabet_labels(S: int) -> List[str]:
    """Level names 0..S-2 plus the star (spacer) cell."""
    return [str(i) for i in range(S - 1)] + ["*"]


def matrix_payload(matrix: np.ndarray, labels: Sequence[str]) -> Dict[str, object]:
    m = np.asarray(matrix, dtype=np.float64)
    return {
        "labels": list(labels),
        "rows": [[float(v) for v in row] for row in m],
    }


def matrix_rows(lag: int, matrix: np.ndarray, labels: Sequence[str]) -> List[tuple]:
    """(lag, a, b, value) rows for one matrix, row-major."""
    m = np.asarray(matrix, dtype=np.float64)
    return [
        (lag, labels[a], labels[b], float(m[a, b]))
        for a in range(m.shape[0])
        for b in range(m.shape[1])
    ]


def classify_rows(
    lag: int,
    coefficients: Sequence[Tuple[int, float]],
    theta: float,
    residual: float,
) -> List[tuple]:
    """(lag, coeff_index, coeff, theta, residual) rows, one per power."""
    return [(lag, i, c, theta, residual) for i, c in coefficients]


@dataclass
class ExperimentResult:
    label: str
    kind: str
    status: str  # "ok" or "error"
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    tables: Dict[str, List[tuple]] = field(default_factory=dict)

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


@dataclass
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
    obj = {
        "version": report.version,
        "plan": report.plan,
        "experiments": [r.as_json_obj() for r in report.results],
        "wall_time_s": report.wall_time_s,
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _fmt(v) -> str:
    # repr keeps the shortest decimal that round-trips the float
    return repr(v) if isinstance(v, float) else str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[tuple]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_report(report: Report, out_dir, fmt: str = "json") -> List[Path]:
    """Write the report under out_dir; returns the paths written.

    fmt is json, csv, or both. Directory creation and every write error
    surface as IoError so the command line can map them to one exit code.
    """
    if fmt not in ("json", "csv", "both"):
        raise IoError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    written: List[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        if fmt in ("json", "both"):
            p = out / f"{report.stem}.json"
            p.write_text(report_to_json(report))
            written.append(p)
        if fmt in ("csv", "both"):
            for r in report.results:
                for name, rows in sorted(r.tables.items()):
                    header = _HEADERS.get(name)
                    if header is None or not rows:
                        continue
                    p = out / f"{report.stem}.{r.label}.{name}.csv"
                    _write_csv(p, header, rows)
                    written.append(p)
    except OSError as exc:
        raise IoError(f"cannot write report: {exc}") from None
    return written
