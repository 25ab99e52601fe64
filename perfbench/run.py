"""Benchmark for `rankone run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run from the root of a checkout. The workload seed is turned into one
config (see workloads.py); the benchmark then runs that config in fresh
processes, one at a time, for about S seconds, and checks every report.

With --trace 0 each repetition is timed from outside and the end-to-end
metrics of BENCHMARK.json are reported: run_s (run_plan plus write_report),
setup_s (import rankone plus parse_config) and peak_rss_mb (peak RSS of the
repetition process), each the median over repetitions.

The two times are in reference seconds. On a shared virtual machine the
speed a process gets moves by 20-40% from one second to the next, and raw
medians of runs a few minutes apart spread by 20-35%. So each repetition
also times a fixed interpreted loop that does not touch rankone, right
before its setup and right after its run (rep.py), and its times are
scaled by CAL_REF_S over the mean of the two loop times before the median
is taken. A change to the program moves the scaled times as much as the
raw ones; a change in host speed moves them much less. The raw medians and
the median scale are printed beside them.

With --trace 1 traced and untraced repetitions alternate; the traced ones
record spans around each module's public functions (spans.py) and the
per-layer metrics are reported in raw seconds, except trace.overhead_s:
traced minus untraced run_s, both in reference seconds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. attempted and failed count experiments: one
fails when its status is error, its process exits non-zero, or its output
check fails (checks.py), so error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: Kept at one thread in each repetition so BLAS threads do not contend
#: with the program for the machine's cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: A repetition that takes longer than this is killed and counted failed.
REP_TIMEOUT_S = 120.0
#: Typical calibration_s (rep.py) on the machine the benchmark was tuned on,
#: a 2-vCPU Xeon KVM guest with Python 3.11. It fixes the scale of the
#: reported seconds and nothing else.
CAL_REF_S = 0.035


@dataclass
class Rep:
    traced: bool
    exit_code: int
    wall_s: float
    result: Optional[dict]
    report: Optional[dict]

    @property
    def scale(self) -> float:
        """CAL_REF_S over the calibration kernel time around this repetition."""
        return CAL_REF_S / self.result["calibration_s"]


def run_rep(config: Path, out_dir: Path, stem: str, traced: bool) -> Rep:
    """Run rep.py once in a fresh process and wait for it to end."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = out_dir.parent / f"{out_dir.name}.result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "rep.py"), str(config), str(out_dir),
           str(result_path), "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    report_path = out_dir / f"{stem}.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return Rep(traced, proc.returncode, wall, result, report)


def rep_problems(rep: Rep, labels: List[str], reference: Optional[dict]) -> Dict[str, str]:
    """Experiment label -> reason, for every experiment of the rep that failed."""
    out: Dict[str, str] = {}
    if rep.report is not None:
        out.update(checks.report_problems(rep.report))
        if reference is not None:
            for label, why in checks.verdict_mismatches(rep.report, reference).items():
                out.setdefault(label, why)
    if rep.exit_code != 0 or rep.report is None or rep.result is None:
        for label in labels:
            out.setdefault(label, f"repetition exited with code {rep.exit_code}")
    return out


def experiment_labels(config_text: str) -> List[str]:
    labels = []
    for line in config_text.splitlines():
        key = line.split("=", 1)[0].strip()
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "experiment" and parts[2] == "kind":
            labels.append(parts[1])
    return labels


def highest_tail_percentile(values: List[float]) -> Optional[tuple]:
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None with ten samples or fewer."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


# ---------------------------------------------------------------------------
# machine description, printed with every result

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> List[str]:
    out = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }


# ---------------------------------------------------------------------------
# one workload

def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds`; returns its result object."""
    workload = WORKLOADS[name]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    text = workload.generate(seed)
    labels = experiment_labels(text)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = references.get(name, {}).get(str(seed))

    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / f"{name}.cfg"
        config.write_text(text)
        reps: List[Rep] = []
        last_report = None
        attempted = 0
        problems: Dict[str, str] = {}
        n_failed = 0
        min_reps = 4 if trace else 3
        start = time.perf_counter()
        while True:
            rep = run_rep(config, run_dir / "out", name, traced=trace and len(reps) % 2 == 1)
            reps.append(rep)
            attempted += len(labels)
            bad = rep_problems(rep, labels, reference)
            n_failed += len(bad)
            problems.update(bad)
            if rep.report is not None:
                last_report, rep.report = rep.report, None
            elapsed = time.perf_counter() - start
            typical = statistics.median([r.wall_s for r in reps])
            if len(reps) >= min_reps and elapsed + typical > seconds:
                break

        oracle_note = "not used on this workload"
        if workload.oracle and last_report is not None:
            bad = checks.oracle_mismatch(text, last_report, seed)
            n_failed += len(bad)
            problems.update(bad)
            oracle_note = "mismatch" if bad else "exact match on one reported lag"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in reps if not r.traced and r.result is not None]
    traced = [r for r in reps if r.traced and r.result is not None]
    if not plain or (trace and not traced):
        raise SystemExit(f"perfbench: {name}: no repetition finished: {problems}")

    raw_run_s = statistics.median([r.result["run_s"] for r in plain])
    raw_setup_s = statistics.median([r.result["setup_s"] for r in plain])
    values: Dict[str, float] = {
        "run_s": statistics.median([r.result["run_s"] * r.scale for r in plain]),
        "setup_s": statistics.median([r.result["setup_s"] * r.scale for r in plain]),
        "peak_rss_mb": statistics.median([r.result["peak_rss_mib"] for r in plain]),
    }
    if trace:
        per_rep = [spans.layer_metrics(r.result["spans"], r.result["counts"], r.result["run_s"])
                   for r in traced]
        # counts repeat exactly across repetitions; median_low keeps them whole
        values = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                      [m[k] for m in per_rep]) for k, v in per_rep[0].items()}
        # in reference seconds, like run_s: raw differences drown in host noise
        values["trace.overhead_s"] = (
            statistics.median([r.result["run_s"] * r.scale for r in traced])
            - statistics.median([r.result["run_s"] * r.scale for r in plain]))

    # report
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed {seed}  {mode}: {len(reps)} repetitions in "
          f"{time.perf_counter() - start:.1f} s ({len(plain)} untraced, {len(traced)} traced)")
    print(f"   why: {why}")
    metric_list = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in metric_list:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if trace:
        _print_layers(workload, values, len(traced))
    else:
        n = len(plain)
        tail = highest_tail_percentile([r.result["run_s"] * r.scale for r in plain])
        tail_note = (f"p{tail[0]:.0f} {tail[1]:.4f} s (10 samples beyond)" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"   calibration  median scale {statistics.median([r.scale for r in plain]):.4f}"
              f" = {CAL_REF_S} s / kernel time")
        print(f"   run_s        {values['run_s']:10.4f} s    median of {n} (raw {raw_run_s:.4f} s); "
              f"{tail_note}")
        print(f"   setup_s      {values['setup_s']:10.4f} s    median of {n} (raw {raw_setup_s:.4f} s)")
        print(f"   peak_rss_mb  {values['peak_rss_mb']:10.1f} MiB  median of {n}")
    print(f"   error_rate   {n_failed / attempted:10.4f}      {n_failed} of {attempted} experiments failed")
    print(f"   oracle: {oracle_note}; verdicts: "
          + ("checked against the recorded reference" if reference is not None
             else f"no recorded reference for seed {seed}"))
    for label, why_bad in sorted(problems.items()):
        print(f"   FAILED {label}: {why_bad}")
    return {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }


def _print_layers(workload, values: dict, n: int) -> None:
    run_s = values["trace.run_s"]
    print(f"   traced run_s {run_s:.4f} s (median of {n}); "
          f"trace.overhead_s {values['trace.overhead_s']:+.4f} s")
    layers = sorted(spans.RUN_LAYERS, key=lambda l: -values[f"{l}.self_s"])
    print("   self time by layer: " + ", ".join(
        f"{l} {values[f'{l}.self_s']:.3f} s ({100 * values[f'{l}.self_s'] / run_s:.0f}%)"
        for l in layers))
    sums = [sum(values[m] for m in group) for group in workload.dominant]
    ordered = all(a > b for a, b in zip(sums, sums[1:]))
    holds = ordered and sums[0] >= 0.5 * run_s
    desc = " > ".join(
        f"{'+'.join(g)} {s:.3f} s ({100 * s / run_s:.0f}%)" for g, s in zip(workload.dominant, sums))
    print(f"   predicted dominant layer {'confirmed' if holds else 'CONTRADICTED'}: {desc}")
    for name in sorted(values):
        print(f"   {name:34s} {values[name]}")


# ---------------------------------------------------------------------------

def _stop(signum, frame):
    # unwinds through run_rep's finally, which kills the running repetition
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rankone" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no rankone sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark `rankone run` workloads.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    print("machine " + json.dumps(machine_info()))
    chosen = names if args.workload == "all" else [args.workload]
    results = {n: measure(spec, n, args.seed, args.seconds, bool(args.trace)) for n in chosen}
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()
    if len(results) == 1:
        out = results[chosen[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
