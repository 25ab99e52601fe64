"""Executes a resolved ExperimentPlan and assembles the Report.

Experiments run sequentially in declaration order and share one pair
counter, so a scan over many lags pays the word recursion once. A failure
inside one experiment is caught and recorded on its entry; the remaining
experiments still run. Everything here is deterministic given the plan
(the seed lives in the realized schedule), so reruns produce identical
reports up to the wall time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import ExperimentPlan, ExperimentSpec
from .correlation import PairCounter, unit_mass
from .diagnostics import (
    cesaro_disjointness_probe,
    limit_basis,
    limit_scan,
    mixing_diagnostics,
    rigidity_scan,
    triple_corr_probe,
)
from .flows import flow_limit_check
from .operators import build_family, classify_limit, joining_matrix
from .reports import (
    ExperimentResult,
    Report,
    alphabet_labels,
    classify_rows,
    matrix_payload,
    matrix_rows,
)
from .words import alphabet_size

__all__ = ["run_plan"]

_FAMILY_KWARGS = ("M", "m", "n", "k", "a")


class _Ctx:
    """Lazy per-plan shared state (pair counter, labels)."""

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        self._counter: Optional[PairCounter] = None
        self._labels: Optional[List[str]] = None

    @property
    def counter(self) -> PairCounter:
        if self._counter is None:
            p = self.plan
            self._counter = PairCounter(p.realized, p.J, p.j0)
        return self._counter

    @property
    def labels(self) -> List[str]:
        if self._labels is None:
            p = self.plan
            self._labels = alphabet_labels(alphabet_size(p.realized, p.j0))
        return self._labels

    def unit(self, n: int) -> np.ndarray:
        return unit_mass(self.counter.counts(n), n, self.counter.lJ)


def _coeff_list(coefficients: Dict[int, float]) -> List[Tuple[int, float]]:
    return sorted((int(i), float(c)) for i, c in coefficients.items())


def _classify_payload(res) -> Dict[str, object]:
    return {
        "coefficients": [[i, c] for i, c in _coeff_list(res.coefficients)],
        "theta": float(res.theta),
        "residual": float(res.residual),
        "residual_frobenius": float(res.residual_frobenius),
        "identified": bool(res.identified),
    }


def _run_limit_scan(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    params = spec.params
    scan = limit_scan(
        p.realized,
        p.J,
        p.j0,
        params["lags"],
        K=params["window"],
        tol=params["tolerance"],
        stochastic_a=params.get("stochastic_a"),
        max_power=params["max_power"],
        counter=ctx.counter,
    )
    rows = []
    mat_table: List[tuple] = []
    cls_table: List[tuple] = []
    for row in scan.rows:
        measured = ctx.unit(row.lag)
        rows.append(
            {
                "lag": row.lag,
                "family": row.family,
                "family_distance": float(row.family_distance),
                "matrix": matrix_payload(measured, ctx.labels),
                **_classify_payload(row.result),
            }
        )
        mat_table.extend(matrix_rows(row.lag, measured, ctx.labels))
        cls_table.extend(
            classify_rows(
                row.lag,
                _coeff_list(row.result.coefficients),
                float(row.result.theta),
                float(row.result.residual),
            )
        )
    payload = {
        "window": scan.window,
        "tolerance": scan.tolerance,
        "fraction_identified": float(scan.fraction_identified),
        "worst_residual": float(scan.worst_residual),
        "best_family": scan.best_family,
        "rows": rows,
    }
    return ExperimentResult(
        label=spec.label,
        kind=spec.kind,
        status="ok",
        payload=payload,
        tables={"matrix": mat_table, "classify": cls_table},
    )


def _run_converge(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    params = spec.params
    kwargs = {k: params[k] for k in _FAMILY_KWARGS if k in params}
    expr = build_family(params["family"], **kwargs)
    K = max([params["window"]] + [abs(i) for i in expr.powers()])
    basis = limit_basis(p.realized, p.J, p.j0, K=K, counter=ctx.counter)
    jm = joining_matrix(expr, basis)
    rows = []
    mat_table: List[tuple] = []
    cls_table: List[tuple] = []
    distances = []
    for lag in params["lags"]:
        measured = ctx.unit(lag)
        diff = measured - jm.matrix
        dmax = float(np.abs(diff).max())
        distances.append(dmax)
        cls = classify_limit(measured, basis, tol=params["tolerance"])
        rows.append(
            {
                "lag": lag,
                "distance_max": dmax,
                "distance_frobenius": float(np.sqrt((diff * diff).sum())),
                "matrix": matrix_payload(measured, ctx.labels),
                **_classify_payload(cls),
            }
        )
        mat_table.extend(matrix_rows(lag, measured, ctx.labels))
        cls_table.extend(
            classify_rows(
                lag,
                _coeff_list(cls.coefficients),
                float(cls.theta),
                float(cls.residual),
            )
        )
    payload = {
        "family": params["family"],
        "family_params": {k: params[k] for k in _FAMILY_KWARGS if k in params},
        "window": params["window"],
        "tolerance": params["tolerance"],
        "predicted": matrix_payload(jm.matrix, ctx.labels),
        "max_distance": max(distances) if distances else 0.0,
        "converged": bool(distances) and max(distances) <= params["tolerance"],
        "rows": rows,
    }
    tables = {
        "matrix": mat_table,
        "classify": cls_table,
        "predicted": matrix_rows(0, jm.matrix, ctx.labels),
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload, tables=tables
    )


def _run_rigidity(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    scan = rigidity_scan(
        p.realized,
        p.J,
        p.j0,
        lags=spec.params["lags"],
        slack=spec.params["slack"],
        counter=ctx.counter,
    )
    payload = {
        "slack": spec.params["slack"],
        "vanishing": bool(scan.vanishing),
        "rows": [
            {
                "lag": r.lag,
                "dist_max": float(r.dist_max),
                "dist_l1": float(r.dist_l1),
                "boundary": float(r.boundary),
            }
            for r in scan.rows
        ],
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload
    )


def _run_mixing(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    rep = mixing_diagnostics(
        p.realized, p.J, p.j0, spec.params["lags"], counter=ctx.counter
    )
    payload = {
        "lags": list(rep.lags),
        "measures": [float(v) for v in rep.measures],
        "self_peak": [float(v) for v in rep.self_peak],
        "pair_floor": matrix_payload(rep.pair_floor, ctx.labels),
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload
    )


def _run_disjointness(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    rep = cesaro_disjointness_probe(
        p.realized,
        p.J,
        p.j0,
        spec.params["p"],
        spec.params["q"],
        spec.params["N"],
        counter=ctx.counter,
    )
    payload = {
        "p": rep.p,
        "q": rep.q,
        "N": rep.N,
        "deviation": float(rep.deviation),
        "curve": [[int(n), float(d)] for n, d in rep.curve],
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload
    )


def _run_triple(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    rep = triple_corr_probe(
        p.realized, p.J, p.j0, spec.params["pairs"], counter=ctx.counter
    )
    payload = {
        "rows": [
            {
                "m": r.m,
                "n": r.n,
                "window": r.window,
                "deviation_max": float(r.deviation_max),
            }
            for r in rep.rows
        ]
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload
    )


def _run_flow_limit(ctx: _Ctx, spec: ExperimentSpec) -> ExperimentResult:
    p = ctx.plan
    params = spec.params
    rep = flow_limit_check(
        p.realized,
        p.J,
        p.j0,
        params["q"],
        params["stage"],
        L=params["slabs"],
    )
    width, factors = rep.family_best
    payload = {
        "q": rep.q,
        "stage": rep.stage,
        "slabs": params["slabs"],
        "time": str(rep.lag_time),
        "orientation": rep.orientation,
        "residual": float(rep.residual),
        "residual_mirror": float(rep.residual_mirror),
        "family_best": {"width": str(width), "factors": list(factors)},
        "family_distance": float(rep.family_distance),
    }
    return ExperimentResult(
        label=spec.label, kind=spec.kind, status="ok", payload=payload
    )


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
            results.append(_RUNNERS[spec.kind](ctx, spec))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            results.append(
                ExperimentResult(
                    label=spec.label,
                    kind=spec.kind,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    wall = time.perf_counter() - t0
    return Report(plan=plan.echo, results=results, wall_time_s=wall, stem=plan.stem)
