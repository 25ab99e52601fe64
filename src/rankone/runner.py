"""Executes a resolved ExperimentPlan and assembles the Report.

Experiments run sequentially in declaration order and share their engines:
one pair counter, and one flow column per slab count, so a scan over many
lags pays the word recursion once. Each experiment's runner returns its
payload, and run_plan alone wraps it in an ExperimentResult. A payload is
the result record (record_payload) plus what the record does not hold,
except limit-scan's and converge's. Both run limit_scan, converge with its
one family as the only candidate, and one row builder writes each scan row
as a labelled matrix and its flattened ClassifyResult; converge repeats a
row for a repeated lag. A failure inside one experiment is caught and
recorded on its entry; the remaining experiments still run. Everything here
is deterministic given the plan (the seed lives in the realized schedule),
so reruns produce identical reports up to the wall time.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Dict, List

import numpy as np

from .config import ExperimentPlan, ExperimentSpec
from .correlation import PairCounter
from .diagnostics import (
    LimitScanRow,
    cesaro_disjointness_probe,
    limit_scan,
    mixing_diagnostics,
    rigidity_scan,
    triple_corr_probe,
)
from .flows import FlowColumn, flow_limit_check
from .operators import build_family
from .reports import ExperimentResult, Report, alphabet_labels, matrix_payload, record_payload

__all__ = ["run_plan"]

_FAMILY_KWARGS = ("M", "m", "n", "k", "a")


class _Ctx:
    """Lazy per-plan shared state: the engines the experiments read (one
    PairCounter, and one FlowColumn per slab count, so flow experiments
    with the same slabs share its memo) and the alphabet labels."""

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        self.columns: Dict[int, FlowColumn] = {}

    @cached_property
    def counter(self) -> PairCounter:
        p = self.plan
        return PairCounter(p.realized, p.J, p.j0)

    def column(self, L: int) -> FlowColumn:
        if L not in self.columns:
            p = self.plan
            self.columns[L] = FlowColumn(p.realized, p.J, p.j0, L)
        return self.columns[L]

    @cached_property
    def labels(self) -> List[str]:
        return alphabet_labels(self.counter.S)


def _row_payload(ctx: _Ctx, row: LimitScanRow, **extra) -> Dict[str, object]:
    res = row.result
    return {
        "lag": row.lag,
        "matrix": matrix_payload(row.matrix, ctx.labels),
        "coefficients": sorted([int(i), float(c)] for i, c in res.coefficients.items()),
        "theta": float(res.theta),
        "residual": float(res.residual),
        "residual_frobenius": float(res.residual_frobenius),
        "identified": bool(res.identified),
        **extra,
    }


def _run_limit_scan(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    params = spec.params
    scan = limit_scan(
        ctx.counter,
        params["lags"],
        K=params["window"],
        tol=params["tolerance"],
        stochastic_a=params.get("stochastic_a"),
        max_power=params["max_power"],
    )
    return {
        "window": scan.window,
        "tolerance": scan.tolerance,
        "fraction_identified": float(scan.fraction_identified),
        "worst_residual": float(scan.worst_residual),
        "best_family": scan.best_family,
        "rows": [
            _row_payload(ctx, row, family=row.family, family_distance=row.family_distance)
            for row in scan.rows
        ],
    }


def _run_converge(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    params = spec.params
    family = {k: params[k] for k in _FAMILY_KWARGS if k in params}
    expr = build_family(params["family"], **family)
    scan = limit_scan(
        ctx.counter,
        params["lags"],
        K=max([params["window"]] + [abs(i) for i in expr.powers()]),
        tol=params["tolerance"],
        candidates=[(params["family"], expr, 0)],
    )
    (predicted,) = scan.predicted
    by_lag = {row.lag: row for row in scan.rows}
    rows = [by_lag[int(lag)] for lag in params["lags"]]  # repeated lags keep their rows
    distance = max((row.family_distance for row in rows), default=0.0)
    return {
        "family": params["family"],
        "family_params": family,
        "window": params["window"],
        "tolerance": params["tolerance"],
        "predicted": matrix_payload(predicted, ctx.labels),
        "max_distance": distance,
        "converged": bool(rows) and distance <= params["tolerance"],
        "rows": [
            _row_payload(
                ctx,
                row,
                distance_max=row.family_distance,
                distance_frobenius=float(np.sqrt(((row.matrix - predicted) ** 2).sum())),
            )
            for row in rows
        ],
    }


def _run_rigidity(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    slack = spec.params["slack"]
    scan = rigidity_scan(ctx.counter, lags=spec.params["lags"], slack=slack)
    return {**record_payload(scan), "slack": slack}


def _run_mixing(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    rep = mixing_diagnostics(ctx.counter, spec.params["lags"])
    return {**record_payload(rep), "pair_floor": matrix_payload(rep.pair_floor, ctx.labels)}


def _run_disjointness(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    params = spec.params
    rep = cesaro_disjointness_probe(ctx.counter, params["p"], params["q"], params["N"])
    return record_payload(rep)


def _run_triple(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    return record_payload(triple_corr_probe(ctx.counter, spec.params["pairs"]))


def _run_flow_limit(ctx: _Ctx, spec: ExperimentSpec) -> Dict[str, object]:
    params = spec.params
    rep = flow_limit_check(ctx.column(params["slabs"]), params["q"], params["stage"])
    out = record_payload(rep)
    out["time"] = out.pop("lag_time")
    out["slabs"] = params["slabs"]
    return out


_RUNNERS = {
    "limit-scan": _run_limit_scan,
    "converge": _run_converge,
    "rigidity": _run_rigidity,
    "mixing": _run_mixing,
    "disjointness": _run_disjointness,
    "triple": _run_triple,
    "flow-limit": _run_flow_limit,
}


def run_plan(plan: ExperimentPlan) -> Report:
    """Run every experiment in the plan; failures are recorded, not raised."""
    ctx = _Ctx(plan)
    t0 = time.perf_counter()
    results: List[ExperimentResult] = []
    for spec in plan.experiments:
        try:
            status, payload, error = "ok", _RUNNERS[spec.kind](ctx, spec), None
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            status, payload, error = "error", None, f"{type(exc).__name__}: {exc}"
        results.append(
            ExperimentResult(
                label=spec.label, kind=spec.kind, status=status, payload=payload, error=error
            )
        )
    wall = time.perf_counter() - t0
    return Report(plan=plan.echo, results=results, wall_time_s=wall, stem=plan.stem)
