"""Declarative schedules for rank-one cutting-and-stacking constructions.

A schedule says, for every stage j >= 1, into how many columns the stage-j
tower is cut (r_j >= 2) and how many spacer levels go on top of each column
(s_j(1..r_j), >= 0; rational durations for flows). Everything downstream
(words, correlations, flows) consumes a realized schedule, i.e. one whose
per-stage cut and spacer values have been made explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, Optional, Sequence, Union

from . import _rng
from .errors import (
    CutBudgetExceeded,
    MalformedRule,
    NegativeSpacer,
    NonPositiveCut,
    UnknownName,
    UnrealizedStochastic,
)

__all__ = [
    "CUT_BUDGET",
    "ConstantCuts",
    "ExplicitCuts",
    "AffineCuts",
    "PatternSpacers",
    "StageSpacers",
    "BernoulliSpacers",
    "StaircaseSpacers",
    "ConstructionSchedule",
    "RealizedSchedule",
    "validate_schedule",
    "iter_stages",
    "realize",
    "heights",
    "catalog",
    "catalog_names",
]

#: How many leading stages validate_schedule checks eagerly.
VALIDATION_HORIZON = 64

#: The most cuts realize or validate_schedule reads over the stages it
#: covers; each cut holds one spacer value in memory.
CUT_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# cut rules

@dataclass(frozen=True)
class ConstantCuts:
    """r_j = r for every stage."""

    r: int

    def value(self, j: int) -> int:
        return self.r


@dataclass(frozen=True)
class ExplicitCuts:
    """Explicit per-stage cut counts; the final entry repeats forever."""

    values: tuple

    def __init__(self, values: Sequence[int]):
        if not values:
            raise MalformedRule("explicit cut rule needs at least one value")
        object.__setattr__(self, "values", tuple(int(v) for v in values))

    def value(self, j: int) -> int:
        return self.values[min(j - 1, len(self.values) - 1)]


@dataclass(frozen=True)
class AffineCuts:
    """r_j = a*j + b."""

    a: int
    b: int

    def value(self, j: int) -> int:
        return self.a * j + self.b


# ---------------------------------------------------------------------------
# spacer rules

@dataclass(frozen=True)
class PatternSpacers:
    """The same spacer vector at every stage; length must match r_j."""

    pattern: tuple

    def __init__(self, pattern: Sequence[int]):
        object.__setattr__(self, "pattern", tuple(pattern))

    def value(self, j: int, r: int, schedule: "ConstructionSchedule", draw_base: int):
        if len(self.pattern) != r:
            raise MalformedRule(
                f"spacer pattern has {len(self.pattern)} entries but stage {j} cuts into {r}"
            )
        return self.pattern

    @property
    def stochastic(self) -> bool:
        return False


@dataclass(frozen=True)
class StageSpacers:
    """Explicit spacer vectors per stage; the final vector repeats forever."""

    stages: tuple

    def __init__(self, stages: Sequence[Sequence[int]]):
        if not stages:
            raise MalformedRule("explicit spacer rule needs at least one stage")
        object.__setattr__(self, "stages", tuple(tuple(s) for s in stages))

    def value(self, j: int, r: int, schedule: "ConstructionSchedule", draw_base: int):
        vec = self.stages[min(j - 1, len(self.stages) - 1)]
        if len(vec) != r:
            raise MalformedRule(
                f"stage {j} spacer vector has {len(vec)} entries but cuts into {r}"
            )
        return vec

    @property
    def stochastic(self) -> bool:
        return False


@dataclass(frozen=True)
class BernoulliSpacers:
    """Independent spacers: s_j(i) = 0 with probability a, else 1.

    Needs a seed at realization time; draws are counter-based (see _rng),
    indexed stage-major then slot-minor, so realizations are prefix-stable
    across depths.
    """

    a: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise MalformedRule(f"Bernoulli parameter must lie in (0, 1), got {self.a}")

    def value(self, j: int, r: int, schedule: "ConstructionSchedule", draw_base: int):
        raise UnrealizedStochastic(
            "Bernoulli spacers need realize(schedule, J, seed=...) before use"
        )

    def draw(self, seed: int, r: int, draw_base: int):
        return tuple((_rng.uniforms(seed, draw_base, r) >= self.a).astype(int).tolist())

    @property
    def stochastic(self) -> bool:
        return True


@dataclass(frozen=True)
class StaircaseSpacers:
    """Flow spacers s_j(i) = (i-1)/r_j; with damping, (i-1)/(j*r_j)."""

    damping: bool = False

    def value(self, j: int, r: int, schedule: "ConstructionSchedule", draw_base: int):
        den = j * r if self.damping else r
        return tuple(Fraction(i, den) for i in range(r))

    @property
    def stochastic(self) -> bool:
        return False


CutRule = Union[ConstantCuts, ExplicitCuts, AffineCuts]
SpacerRule = Union[PatternSpacers, StageSpacers, BernoulliSpacers, StaircaseSpacers]


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class ConstructionSchedule:
    """Declarative description of a cutting-and-stacking construction.

    kind is "transformation" (integer spacers, discrete time) or "flow"
    (rational spacer durations, continuous time). h1 is the stage-1 height:
    top level index for transformations (default 0, a single level), column
    duration for flows (default 1).
    """

    kind: str
    cuts: CutRule
    spacers: SpacerRule
    h1: Union[int, Fraction, None] = None
    bounds: Optional[tuple] = None  # (spacer_bound, cut_bound), exclusive
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("transformation", "flow"):
            raise MalformedRule(f"unknown schedule kind {self.kind!r}")
        if self.h1 is None:
            object.__setattr__(
                self, "h1", 0 if self.kind == "transformation" else Fraction(1)
            )

    @property
    def stochastic(self) -> bool:
        return self.spacers.stochastic


@dataclass(frozen=True)
class RealizedSchedule:
    """A schedule whose stages 1..J-1 have explicit (r_j, spacer vector)."""

    kind: str
    h1: Union[int, Fraction]
    stages: tuple  # tuple of (r_j, (s_j(1), ..., s_j(r_j)))
    name: str = ""
    seed: Optional[int] = None

    @property
    def depth(self) -> int:
        """Largest stage index J this realization supports."""
        return len(self.stages) + 1

    def stage(self, j: int):
        """(r_j, spacer vector) for 1 <= j <= depth-1."""
        return self.stages[j - 1]


def _check_stage(kind: str, j: int, r, vec, bounds) -> None:
    if r < 2:
        raise NonPositiveCut(f"stage {j}: cut count {r} < 2")
    # min, max and the set of types take one pass in C; a stage they flag is
    # walked in order to name its first bad spacer
    ints = kind != "transformation" or all(issubclass(t, int) for t in set(map(type, vec)))
    if not ints or min(vec, default=0) < 0:
        for i, s in enumerate(vec, start=1):
            if s < 0:
                raise NegativeSpacer(f"stage {j}, column {i}: spacer {s} < 0")
            if kind == "transformation" and not isinstance(s, int):
                raise MalformedRule(f"stage {j}: transformation spacers must be integers")
    if bounds is not None:
        s_bound, r_bound = bounds
        if r_bound is not None and not r < r_bound:
            raise MalformedRule(f"stage {j}: cut count {r} violates declared bound < {r_bound}")
        if s_bound is not None and vec and not max(vec) < s_bound:
            for i, s in enumerate(vec, start=1):
                if not s < s_bound:
                    raise MalformedRule(
                        f"stage {j}, column {i}: spacer {s} violates declared bound < {s_bound}"
                    )


def validate_schedule(schedule: ConstructionSchedule) -> ConstructionSchedule:
    """Check rule arity, signs, and declared bounds on the leading stages.

    Stochastic spacer values are not drawn here; only their parameters are
    checked. Returns the schedule unchanged on success.
    """
    if schedule.h1 is None or (schedule.kind == "transformation" and schedule.h1 < 0):
        raise MalformedRule(f"stage-1 height {schedule.h1!r} invalid")
    if schedule.kind == "flow" and schedule.h1 <= 0:
        raise MalformedRule("flow stage-1 duration must be positive")
    _cut_counts(schedule, VALIDATION_HORIZON + 1)
    if not schedule.spacers.stochastic:  # build and check each stage's spacers
        list(islice(iter_stages(schedule), VALIDATION_HORIZON))
    return schedule


def _cuts(schedule: ConstructionSchedule) -> Iterator[int]:
    """r_1, r_2, ..., each checked, the running total held to CUT_BUDGET."""
    total = 0
    for j in count(1):
        r = schedule.cuts.value(j)
        if r < 2:
            raise NonPositiveCut(f"stage {j}: cut count {r} < 2")
        total += r
        if total > CUT_BUDGET:
            raise CutBudgetExceeded(
                f"stages 1..{j} make {total} cuts, more than {CUT_BUDGET}"
            )
        yield r


def _cut_counts(schedule: ConstructionSchedule, J: int) -> list:
    """r_1..r_{J-1}, checked before any spacer is drawn."""
    return list(islice(_cuts(schedule), J - 1))


def iter_stages(
    schedule: ConstructionSchedule, seed: Optional[int] = None
) -> Iterator[tuple]:
    """Stages (r_j, spacer vector) for j = 1, 2, ... without end, checked as
    realize checks them; a stage's cut is checked against CUT_BUDGET before
    its spacers are built. Lets a caller grow one realization until some
    size is reached (see config's depth budget)."""
    if schedule.stochastic and seed is None:
        raise UnrealizedStochastic("stochastic schedule needs an explicit seed")
    draw_base = 0
    for j, r in enumerate(_cuts(schedule), start=1):
        if schedule.spacers.stochastic:
            vec = schedule.spacers.draw(seed, r, draw_base)
        else:
            vec = tuple(schedule.spacers.value(j, r, schedule, draw_base))
        _check_stage(schedule.kind, j, r, vec, schedule.bounds)
        yield r, vec
        draw_base += r


def realize(
    schedule: Union[ConstructionSchedule, RealizedSchedule],
    J: int,
    seed: Optional[int] = None,
) -> RealizedSchedule:
    """Materialize stages 1..J-1 of a schedule.

    Deterministic schedules realize without a seed. Bernoulli spacers raise
    UnrealizedStochastic unless a seed is given; the draw for stage j, slot i
    has global index sum(r_1..r_{j-1}) + i - 1, so deeper realizations extend
    shallower ones exactly.
    """
    if isinstance(schedule, RealizedSchedule):
        if schedule.depth < J:
            raise UnrealizedStochastic(
                f"realization covers depth {schedule.depth}, need {J}"
            )
        return schedule
    if J < 1:
        raise MalformedRule(f"depth must be >= 1, got {J}")
    if schedule.stochastic and seed is None:
        raise UnrealizedStochastic("stochastic schedule needs an explicit seed")
    _cut_counts(schedule, J)  # every cut is checked before any spacer is drawn
    return RealizedSchedule(
        kind=schedule.kind,
        h1=schedule.h1,
        stages=tuple(islice(iter_stages(schedule, seed), J - 1)),
        name=schedule.name,
        seed=seed if schedule.stochastic else None,
    )


def heights(realized: RealizedSchedule, J: Optional[int] = None) -> list:
    """Exact stage sizes for stages 1..J.

    For transformations this is the level count l_j (l_1 = h1 + 1,
    l_{j+1} = l_j * r_j + sum of stage-j spacers), as arbitrary-precision
    integers. For flows it is the column duration h_j as exact Fractions
    (h_{j+1} = r_j * h_j + sum of stage-j spacer durations).
    """
    if J is None:
        J = realized.depth
    if J > realized.depth:
        raise UnrealizedStochastic(f"realization covers depth {realized.depth}, need {J}")
    if realized.kind == "transformation":
        out = [int(realized.h1) + 1]
    else:
        out = [Fraction(realized.h1)]
    for j in range(1, J):
        r, vec = realized.stage(j)
        out.append(out[-1] * r + sum(vec))
    return out


# ---------------------------------------------------------------------------
# catalog

def catalog_names() -> list:
    return [
        "chacon",
        "modified-chacon",
        "odometer5",
        "dyadic-odometer",
        "spaced-odometer5",
        "stochastic-chacon",
        "staircase-flow",
    ]


def catalog(name: str, a: float = 0.5) -> ConstructionSchedule:
    """Named schedules used throughout the tests and the CLI.

    stochastic-chacon takes the Bernoulli parameter a (default 0.5) and uses
    the growing cut rule r_j = j + 1; staircase-flow is the only flow entry.
    """
    if name == "chacon":
        sched = ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 1)), name=name
        )
    elif name == "modified-chacon":
        sched = ConstructionSchedule(
            "transformation", ConstantCuts(3), PatternSpacers((0, 1, 0)), name=name
        )
    elif name == "odometer5":
        sched = ConstructionSchedule(
            "transformation", ConstantCuts(5), PatternSpacers((0,) * 5), name=name
        )
    elif name == "dyadic-odometer":
        sched = ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 0)), name=name
        )
    elif name == "spaced-odometer5":
        sched = ConstructionSchedule(
            "transformation", ConstantCuts(5), PatternSpacers((2, 2, 2, 2, 0)), name=name
        )
    elif name == "stochastic-chacon":
        sched = ConstructionSchedule(
            "transformation",
            AffineCuts(1, 1),
            BernoulliSpacers(a),
            name=f"stochastic-chacon({a})",
        )
    elif name == "staircase-flow":
        sched = ConstructionSchedule(
            "flow", AffineCuts(1, 1), StaircaseSpacers(), h1=Fraction(1), name=name
        )
    else:
        raise UnknownName(f"no catalog entry {name!r}; known: {', '.join(catalog_names())}")
    return validate_schedule(sched)
