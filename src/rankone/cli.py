"""Command line front end.

    rankone run experiment.cfg --out results --format both
    rankone --list-catalog

Exit codes: 0 success, 1 config problem (parse or validation), 2 at least
one experiment failed at runtime, 3 I/O failure reading the config or
writing reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import parse_config
from .construction import catalog, catalog_names
from .errors import IoError, ParseError, ValidationError
from .reports import write_report
from .runner import run_plan

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Run correlation and limit-operator experiments on "
        "rank-one cutting-and-stacking constructions.",
    )
    parser.add_argument(
        "--list-catalog",
        action="store_true",
        help="print the built-in construction names and exit",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run the experiments in a config file")
    runp.add_argument("config", help="path to the experiment config")
    runp.add_argument(
        "--out", default=".", help="directory for report files (default: .)"
    )
    runp.add_argument(
        "--format",
        choices=("json", "csv", "both"),
        default="json",
        help="report serialization (default: json)",
    )
    runp.add_argument(
        "--seed", type=int, default=None, help="override construction.seed"
    )
    runp.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the depth choice: deepest stage whose word fits the budget",
    )
    return parser


def _list_catalog() -> int:
    for name in catalog_names():
        sched = catalog(name)
        print(f"{name:24s} {sched.kind}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_catalog:
        return _list_catalog()
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 1

    path = Path(args.config)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"rankone: cannot read {path}: {exc}", file=sys.stderr)
        return 3

    try:
        text = data.decode("utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:  # exc.object is the data after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"rankone: {path}: line {line}: not UTF-8 ({exc.reason})", file=sys.stderr)
        return 1

    try:
        plan = parse_config(
            text, seed=args.seed, budget=args.budget, stem=path.stem
        )
    except (ParseError, ValidationError) as exc:
        print(f"rankone: {path}: {exc}", file=sys.stderr)
        return 1

    report = run_plan(plan)
    try:
        written = write_report(report, args.out, fmt=args.format)
    except IoError as exc:
        print(f"rankone: {exc}", file=sys.stderr)
        return 3

    for r in report.results:
        line = f"{r.label:20s} {r.kind:12s} {r.status}"
        if r.status != "ok":
            line += f"  ({r.error})"
        print(line)
    for p in written:
        print(f"wrote {p}")
    return 2 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
