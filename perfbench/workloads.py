"""Seeded generators for the four pinned `rankone run` workloads.

Each generator turns the workload seed into one config text; the program
only ever sees that config. The seed draws lag offsets (and, for
stochastic-budget, `construction.seed`). Stage indices, multipliers, signs
and, for stochastic-budget, the word length stay fixed, so that the amount
of work barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


def _offsets(seed: int, tag: str, n: int) -> List[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randint(1, 9) for _ in range(n)]


def _lag(sign: int, mult: int, stage: str, off: int) -> str:
    """One config lag token, [-][mult*]l[stage]+off."""
    head = ("-" if sign < 0 else "") + (f"{mult}*" if mult != 1 else "")
    return f"{head}l[{stage}]+{off}"


def chacon_deep(seed: int) -> str:
    scan_stages = range(30, 54, 2)
    scan_mults = (1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 2)
    scan = [
        _lag(-1 if i % 2 else 1, k, str(j), o)
        for i, (j, k, o) in enumerate(
            zip(scan_stages, scan_mults, _offsets(seed, "chacon-scan", 12))
        )
    ]
    mix = [
        _lag(1, 1, str(j), o)
        for j, o in zip((31, 35, 39, 43, 47, 50, 53), _offsets(seed, "chacon-mix", 7))
    ]
    conv = [
        _lag(s, 1, str(j), o)
        for s, j, o in zip((1, -1, 1, -1), (40, 40, 50, 50), _offsets(seed, "chacon-conv", 4))
    ]
    return "\n".join(
        [
            "construction.catalog = chacon",
            "construction.depth = 56",
            "construction.base = auto",
            "output.stem = chacon-deep",
            "experiment.scan.kind = limit-scan",
            "experiment.scan.window = 8",
            "experiment.scan.lags = " + ", ".join(scan),
            "experiment.rig.kind = rigidity",
            "experiment.mix.kind = mixing",
            "experiment.mix.lags = " + ", ".join(mix),
            "experiment.conv.kind = converge",
            "experiment.conv.family = chacon-geometric",
            "experiment.conv.M = 7",
            "experiment.conv.lags = " + ", ".join(conv),
            "",
        ]
    )


def long_spacer(seed: int) -> str:
    (o,) = _offsets(seed, "spacer", 1)
    lags = ["l[J-3]", "-l[J-3]", _lag(1, 1, "J-4", o)]
    return "\n".join(
        [
            "construction.kind = transformation",
            "construction.cuts = 2",
            "construction.spacers = pattern:0,20000",
            "construction.h1 = 7",
            "construction.depth = 12",
            "output.stem = long-spacer",
            "experiment.scan.kind = limit-scan",
            "experiment.scan.window = 4",
            "experiment.scan.lags = " + ", ".join(lags),
            "",
        ]
    )


#: Word-length band for stochastic-budget realizations. Across construction
#: seeds the word length at budget 1e8 ranges from 9e6 to 1e8, and run time
#: scales with it, so the generator keeps the first seed-derived
#: construction seed whose word falls in this band.
STOCHASTIC_BAND = (70_000_000, 72_000_000)


def stochastic_construction_seed(seed: int) -> int:
    from rankone import catalog, heights, realize

    schedule = catalog("stochastic-chacon")
    rng = random.Random(f"stochastic-seed:{seed}")
    while True:
        candidate = rng.randrange(1 << 31)
        hs = heights(realize(schedule, 12, seed=candidate), 12)
        lJ = max(l for l in hs if l <= 100_000_000)
        if STOCHASTIC_BAND[0] <= lJ <= STOCHASTIC_BAND[1]:
            return candidate


def stochastic_budget(seed: int) -> str:
    o = _offsets(seed, "stochastic", 2)
    lags = ["l[J-3]", "-l[J-3]", _lag(1, 1, "J-4", o[0]), _lag(-1, 2, "J-5", o[1])]
    return "\n".join(
        [
            "construction.catalog = stochastic-chacon",
            "construction.budget = 100000000",
            f"construction.seed = {stochastic_construction_seed(seed)}",
            "output.stem = stochastic-budget",
            "experiment.scan.kind = limit-scan",
            "experiment.scan.window = 4",
            "experiment.scan.lags = " + ", ".join(lags),
            "experiment.dis.kind = disjointness",
            "experiment.dis.p = 1",
            "experiment.dis.q = 2",
            "experiment.dis.N = 256",
            "experiment.tri.kind = triple",
            "experiment.tri.m = 1, l[J-3]",
            "experiment.tri.n = 2, 2*l[J-3]",
            "",
        ]
    )


def staircase_flow(seed: int) -> str:
    # no random input: the same config for every seed
    return "\n".join(
        [
            "construction.catalog = staircase-flow",
            "construction.depth = 7",
            "output.stem = staircase-flow",
            "experiment.flow.kind = flow-limit",
            "experiment.flow.q = 1",
            "experiment.flow.slabs = 16",
            "",
        ]
    )


@dataclass(frozen=True)
class Workload:
    """A seeded config generator plus what its traced run should show.

    dominant lists groups of per-layer metrics; their summed values are
    predicted to fall in this order, and the first group to take at least
    half of the traced run_s. oracle marks the workloads whose reported
    lags are checked against the streaming counter.
    """

    name: str
    generate: Callable[[int], str]
    dominant: Tuple[Tuple[str, ...], ...]
    oracle: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("chacon-deep", chacon_deep, (("correlation.counts_s",),)),
        Workload("long-spacer", long_spacer, (("correlation.counts_s",),), oracle=True),
        Workload(
            "stochastic-budget",
            stochastic_budget,
            (
                ("words.stream_s", "diagnostics.triple_self_s"),
                ("correlation.counts_s",),
            ),
            oracle=True,
        ),
        Workload("staircase-flow", staircase_flow, (("flows.sweep_s",),)),
    )
}
