"""Record the verdict fields of every workload for a range of seeds.

    python3 perfbench/make_reference.py FIRST LAST

Writes perfbench/reference.json. The benchmark compares the verdicts
(identified, best_family, vanishing, converged, orientation) of each
report against it for the seeds it lists. Re-record only in a change that
means to alter a verdict, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from rankone import parse_config, report_to_json, run_plan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    by_text = {}
    lines = []
    for name, workload in WORKLOADS.items():
        rows = []
        for seed in range(first, last + 1):
            text = workload.generate(seed)
            if text not in by_text:
                report = json.loads(report_to_json(run_plan(parse_config(text))))
                problems = checks.report_problems(report)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                by_text[text] = checks.verdicts(report)
            rows.append(f"  {json.dumps(str(seed))}: {json.dumps(by_text[text], sort_keys=True)}")
            print(f"{name} seed {seed} recorded", flush=True)
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
