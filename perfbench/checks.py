"""Output checks for one `rankone run` report.

Reports are not compared byte for byte: fields such as the flow
`quadrature_error` may legitimately change. The checks are instead
- every experiment has status ok;
- every reported transformation matrix (limit-scan and converge rows, the
  converge prediction) is nonnegative with unit mass;
- the flow-limit residual is at most FLOW_RESIDUAL_BOUND;
- the verdict fields equal the recorded reference, where one exists;
- one reported lag equals the streaming oracle exactly (`oracle_mismatch`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional

#: Allowed distance of a matrix's total mass from 1 (float rounding only).
MASS_TOL = 1e-9
#: The acceptance-09 bound on the staircase flow residual.
FLOW_RESIDUAL_BOUND = 0.05
VERDICT_FIELDS = ("best_family", "vanishing", "converged", "orientation")


def _matrices(exp: dict) -> Iterator[List[List[float]]]:
    res = exp["result"]
    if exp["kind"] in ("limit-scan", "converge"):
        for row in res["rows"]:
            yield row["matrix"]["rows"]
    if exp["kind"] == "converge":
        yield res["predicted"]["rows"]


def _matrix_problem(rows: List[List[float]]) -> Optional[str]:
    vals = [v for row in rows for v in row]
    if not all(math.isfinite(v) and v >= 0 for v in vals):
        return "matrix has a negative or non-finite entry"
    mass = math.fsum(vals)
    if abs(mass - 1.0) > MASS_TOL:
        return f"matrix mass {mass!r} is not 1"
    return None


def report_problems(report: dict) -> Dict[str, str]:
    """Experiment label -> first problem found; empty when the report passes."""
    out: Dict[str, str] = {}
    for exp in report["experiments"]:
        label = exp["label"]
        if exp["status"] != "ok":
            out[label] = f"status {exp['status']}: {exp.get('error')}"
            continue
        for rows in _matrices(exp):
            problem = _matrix_problem(rows)
            if problem:
                out[label] = problem
                break
        if exp["kind"] == "flow-limit":
            residual = exp["result"]["residual"]
            if not residual <= FLOW_RESIDUAL_BOUND:
                out[label] = f"flow residual {residual} > {FLOW_RESIDUAL_BOUND}"
    return out


def verdicts(report: dict) -> Dict[str, dict]:
    """The verdict fields of each ok experiment, keyed by label."""
    out: Dict[str, dict] = {}
    for exp in report["experiments"]:
        if exp["status"] != "ok":
            continue
        res = exp["result"]
        v = {k: res[k] for k in VERDICT_FIELDS if k in res}
        rows = res.get("rows") or []
        if rows and "identified" in rows[0]:
            v["identified"] = [r["identified"] for r in rows]
        if v:
            out[exp["label"]] = v
    return out


def verdict_mismatches(report: dict, reference: Dict[str, dict]) -> Dict[str, str]:
    got = verdicts(report)
    return {
        label: f"verdicts {got.get(label)} differ from reference {want}"
        for label, want in reference.items()
        if got.get(label) != want
    }


def oracle_mismatch(config_text: str, report: dict, seed: int) -> Dict[str, str]:
    """Recount one limit-scan lag (picked by the seed) with the streaming
    counter and compare the unit-mass matrix exactly."""
    import numpy as np
    from rankone import heights, lag_counts_naive, parse_config

    exp = next(e for e in report["experiments"] if e["kind"] == "limit-scan")
    rows = exp["result"]["rows"]
    row = rows[seed % len(rows)]
    lag = int(row["lag"])
    plan = parse_config(config_text)
    counts = lag_counts_naive(plan.realized, plan.J, plan.j0, [lag])[lag]
    lJ = int(heights(plan.realized, plan.J)[plan.J - 1])
    expected = (counts.astype(np.float64) / (lJ - abs(lag))).tolist()
    if expected != row["matrix"]["rows"]:
        return {exp["label"]: f"lag {lag} differs from the streaming oracle"}
    return {}
