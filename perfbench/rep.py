"""One repetition of a workload, run in a fresh process.

    python3 perfbench/rep.py CONFIG OUT_DIR RESULT_JSON TRACE(0|1)

Imports rankone from the checkout's `src` (never an installed copy), then
does what `rankone run CONFIG --out OUT_DIR --format both` does:
parse_config, run_plan, write_report. setup_s covers the import and
parse_config; run_s covers run_plan and write_report. With TRACE=1 the
spans recorded around the package's public functions go into the result
too. Exits 2 when an experiment failed, as the command line does.

peak_rss_mib is this process's VmHWM. getrusage's ru_maxrss is not used:
on Linux it also counts the spawning parent's memory, which the process
shares until exec.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def peak_rss_mib() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def calibration_s() -> float:
    """Time of a fixed interpreted loop that does not touch rankone; run in
    this process right before and after the measured work, it tracks how
    fast the host is running this process at that moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    return time.perf_counter() - t0


def main(argv) -> int:
    config_path, out_dir, result_path, traced = argv[0], argv[1], argv[2], argv[3] == "1"
    text = Path(config_path).read_text()
    sys.path.insert(0, str(SRC))

    before = calibration_s()
    t0 = time.perf_counter()
    import rankone

    t_import = time.perf_counter() - t0
    if not Path(rankone.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rep: rankone imported from {rankone.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    t1 = time.perf_counter()
    plan = rankone.config.parse_config(text, stem=Path(config_path).stem)
    t2 = time.perf_counter()
    report = rankone.runner.run_plan(plan)
    rankone.reports.write_report(report, out_dir, fmt="both")
    t3 = time.perf_counter()
    after = calibration_s()

    result = {
        "setup_s": t_import + (t2 - t1),
        "run_s": t3 - t2,
        "calibration_s": (before + after) / 2,
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result))
    return 2 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
