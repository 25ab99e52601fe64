"""Line-oriented experiment configs and their resolution into runnable plans.

The format is deliberately flat: one `section.key = value` assignment per
line, `#` starts a comment, lists are comma-separated, rationals are written
p/q. Stage-relative lags are spelled with bracket tokens resolved against
the realized heights, so one config works across constructions:

    construction.catalog = modified-chacon
    construction.depth = 10
    experiment.scan.kind = limit-scan
    experiment.scan.lags = l[6], -l[6], 2*l[6]+1

parse_config does all resolution up front (catalog expansion, depth from
budget, base stage, lag arithmetic, cap and alphabet-size checks) and
returns a plan whose echo carries every filled-in default. Reported lags
obey the engine cap |n| <= l_J / LAG_CAP_DIVISOR; the programmatic library
deliberately accepts more, but configs are the reporting surface, so the
cap is enforced here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .construction import (
    AffineCuts,
    BernoulliSpacers,
    ConstantCuts,
    ConstructionSchedule,
    ExplicitCuts,
    PatternSpacers,
    RealizedSchedule,
    StaircaseSpacers,
    catalog,
    catalog_names,
    heights,
    realize,
    validate_schedule,
)
from .correlation import COUNT_LIMIT, LAG_CAP_DIVISOR, PAIR_CELL_LIMIT
from .diagnostics import DISJOINTNESS_CELL_LIMIT, TRIPLE_CELL_LIMIT
from .errors import (
    CutBudgetExceeded,
    MalformedRule,
    NonPositiveCut,
    ParseError,
    ScheduleError,
    SegmentBudgetExceeded,
    ValidationError,
)
from .flows import BREAK_BUDGET, MIN_SLABS, segment_counts
from .operators import check_family, family_reach
from .words import alphabet_size, default_base_stage

__all__ = [
    "ExperimentSpec",
    "ExperimentPlan",
    "parse_config",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "limit-scan",
    "converge",
    "rigidity",
    "mixing",
    "disjointness",
    "triple",
    "flow-limit",
)

_MAX_DEPTH = 200

_LAG_TOKEN = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:(?P<mult>\d+)\s*\*\s*)?
        (?P<kind>[lh])\[\s*(?P<stage>J(?:\s*-\s*\d+)?|\d+)\s*\]
        (?:\s*(?P<offsign>[+-])\s*(?P<off>\d+))?\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment with fully resolved parameters."""

    label: str
    kind: str
    params: Dict[str, object]


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything run_plan needs, resolved and validated."""

    schedule: ConstructionSchedule
    realized: RealizedSchedule
    J: int
    j0: int
    seed: Optional[int]
    experiments: Tuple[ExperimentSpec, ...]
    stem: str
    echo: Dict[str, object]


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    col: int
    used: bool = False


def _tokenize(text: str) -> List[_Entry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(
                "expected 'section.key = value'",
                line=lineno,
                column=len(line) - len(line.lstrip()) + 1,
            )
        key, value = line.split("=", 1)
        if not key.strip():
            raise ParseError("missing key before '='", line=lineno, column=1)
        if "." not in key.strip():
            raise ParseError(
                f"key {key.strip()!r} has no section prefix",
                line=lineno,
                column=line.find(key.strip()) + 1,
            )
        entries.append(
            _Entry(
                key=key.strip(),
                value=value.strip(),
                line=lineno,
                col=line.index("=") + 2,
            )
        )
    return entries


def _to_int(e: _Entry) -> int:
    try:
        return int(e.value)
    except ValueError:
        raise ParseError(
            f"{e.key} wants an integer, got {e.value!r}", line=e.line, column=e.col
        ) from None


def _to_fraction(e: _Entry, value: Optional[str] = None) -> Fraction:
    text = e.value if value is None else value
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"{e.key} wants a number or p/q, got {text!r}",
            line=e.line,
            column=e.col,
        ) from None


def _to_float(e: _Entry) -> float:
    """A finite float: Fraction refuses inf and nan, and an overflow is refused here."""
    try:
        return float(_to_fraction(e))
    except OverflowError:
        raise ParseError(
            f"{e.key} is too large for a float, got {e.value!r}",
            line=e.line,
            column=e.col,
        ) from None


def _nonnegative(e: _Entry) -> int:
    v = _to_int(e)
    if v < 0:
        raise ValidationError(f"line {e.line}: {e.key} must be >= 0, got {v}")
    return v


def _split_list(e: _Entry) -> List[str]:
    parts = [p.strip() for p in e.value.split(",")]
    if any(not p for p in parts):
        raise ParseError(
            f"{e.key} has an empty list element", line=e.line, column=e.col
        )
    return parts


def _resolve_stage(token: str, J: int, e: _Entry) -> int:
    t = token.replace(" ", "")
    try:
        if t == "J":
            return J
        if t.startswith("J-"):
            return J - int(t[2:])
        return int(t)
    except ValueError:
        raise ParseError(
            f"{e.key} wants a stage (INT, J, or J-k), got {token!r}",
            line=e.line,
            column=e.col,
        ) from None


def _resolve_lag(token: str, hs: Sequence[int], e: _Entry) -> int:
    """One lag: a plain integer, or [-][mult*]l[stage][+/-off] read as
    ordinary arithmetic (the leading sign binds to the l-term, the trailing
    offset carries its own sign, so -l[6]-1 is -(l_6) - 1)."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    m = _LAG_TOKEN.match(token)
    if m is None:
        raise ParseError(
            f"bad lag expression {token!r} in {e.key}", line=e.line, column=e.col
        )
    J = len(hs)
    stage = _resolve_stage(m.group("stage"), J, e)
    if not 1 <= stage <= J:
        raise ValidationError(
            f"{e.key}: stage {stage} outside 1..{J} (line {e.line})"
        )
    base = int(hs[stage - 1])
    if m.group("kind") == "h":
        base -= 1  # top level index; l[j] = h[j] + 1
    val = base * int(m.group("mult") or 1)
    if m.group("sign") == "-":
        val = -val
    if m.group("off"):
        off = int(m.group("off"))
        val += off if m.group("offsign") == "+" else -off
    return val


def _rule_error(e: _Entry, exc: ScheduleError) -> ValidationError:
    """A construction rule error, reported at the line of the key that set it."""
    return ValidationError(f"line {e.line}: {e.key}: {exc}")


def _build_cuts(e: _Entry):
    v = e.value
    try:
        if v.startswith("affine:"):
            a, b = (int(p) for p in v[len("affine:") :].split(","))
            return AffineCuts(a, b)
        if v.startswith("explicit:"):
            return ExplicitCuts([int(p) for p in v[len("explicit:") :].split(",")])
        return ConstantCuts(int(v))
    except ValueError:
        raise ParseError(
            f"construction.cuts wants INT, 'affine:a,b' or 'explicit:...', got {v!r}",
            line=e.line,
            column=e.col,
        ) from None


def _build_spacers(e: _Entry, kind: str):
    v = e.value
    try:
        if v.startswith("pattern:"):
            body = v[len("pattern:") :]
            if kind == "flow":
                vals = [Fraction(p.strip()) for p in body.split(",")]
            else:
                vals = [int(p) for p in body.split(",")]
            return PatternSpacers(tuple(vals))
        if v.startswith("bernoulli:"):
            return BernoulliSpacers(float(Fraction(v[len("bernoulli:") :])))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(
            f"construction.spacers has a malformed number in {v!r}",
            line=e.line,
            column=e.col,
        ) from None
    except MalformedRule as exc:
        raise _rule_error(e, exc) from None
    if v == "staircase":
        return StaircaseSpacers()
    if v == "staircase-damped":
        return StaircaseSpacers(damping=True)
    raise ParseError(
        f"construction.spacers wants 'pattern:...', 'bernoulli:a' or 'staircase', got {v!r}",
        line=e.line,
        column=e.col,
    )


def _rule_echo(rule) -> str:
    if isinstance(rule, ConstantCuts):
        return str(rule.r)
    if isinstance(rule, AffineCuts):
        return f"affine:{rule.a},{rule.b}"
    if isinstance(rule, ExplicitCuts):
        return "explicit:" + ",".join(str(v) for v in rule.values)
    if isinstance(rule, PatternSpacers):
        return "pattern:" + ",".join(str(v) for v in rule.pattern)
    if isinstance(rule, BernoulliSpacers):
        return f"bernoulli:{rule.a}"
    if isinstance(rule, StaircaseSpacers):
        return "staircase-damped" if rule.damping else "staircase"
    return repr(rule)


class _Section:
    """Grouped entries with usage tracking so leftovers can be rejected."""

    def __init__(self, entries: List[_Entry]):
        self.by_key: Dict[str, _Entry] = {}
        for e in entries:
            if e.key in self.by_key:
                raise ValidationError(
                    f"duplicate key {e.key} (lines {self.by_key[e.key].line} and {e.line})"
                )
            self.by_key[e.key] = e

    def take(self, key: str) -> Optional[_Entry]:
        e = self.by_key.get(key)
        if e is not None:
            e.used = True
        return e

    def unused(self) -> List[_Entry]:
        return [e for e in self.by_key.values() if not e.used]


def _resolve_depth(
    schedule: ConstructionSchedule,
    depth_e: Optional[_Entry],
    budget_e: Optional[_Entry],
    seed: Optional[int],
) -> Tuple[int, Dict[str, object], RealizedSchedule]:
    """(J, depth echo, a realization at depth >= J).

    A budget keeps the realization of its last probe: deeper realizations
    extend shallower ones exactly (see realize), so its first J - 1 stages
    are realize(schedule, J, seed).
    """
    if (depth_e is None) == (budget_e is None):
        raise ValidationError(
            "construction needs exactly one of 'depth' or 'budget'"
        )
    if depth_e is not None:
        J = _to_int(depth_e)
        if not 2 <= J <= _MAX_DEPTH:
            raise ValidationError(
                f"line {depth_e.line}: {depth_e.key}: depth {J} outside 2..{_MAX_DEPTH}"
            )
        return J, {"J": J, "source": "depth"}, realize(schedule, J, seed=seed)
    budget = _to_int(budget_e)
    if budget < 1:
        raise ValidationError(f"budget must be positive, got {budget}")
    probe = 8
    while True:
        probe = min(probe, _MAX_DEPTH)
        rz = realize(schedule, probe, seed=seed)
        hs = heights(rz, probe)
        best = max((j for j in range(2, probe + 1) if hs[j - 1] <= budget), default=0)
        if best == 0:
            raise ValidationError(
                f"budget {budget} is below the depth-2 size {hs[1]}"
            )
        if best < probe or probe == _MAX_DEPTH:
            return best, {"J": best, "source": "budget", "budget": budget}, rz
        probe *= 2


def _cap_check(lag: int, lJ: int, cap: int, e: _Entry) -> int:
    if abs(lag) > cap:
        raise ValidationError(
            f"line {e.line}: {e.key}: lag {lag} exceeds the reporting cap "
            f"l_J/{LAG_CAP_DIVISOR} = {cap} (l_J = {lJ})"
        )
    return lag


def _reach_check(reach: int, lJ: int, e: _Entry, what: str) -> None:
    """The limit basis reads lags 0..reach, and counts need |lag| < l_J."""
    if reach >= lJ:
        raise ValidationError(
            f"line {e.line}: {e.key}: {what} needs lags up to {reach}, "
            f"beyond the word length l_J = {lJ}"
        )


def _family_params(
    kind_e: _Entry, sec: _Section, label: str, lJ: int
) -> Dict[str, object]:
    name = kind_e.value
    out: Dict[str, object] = {}
    if name == "chacon-geometric":
        m = sec.take(f"experiment.{label}.M")
        out["M"] = _to_int(m) if m is not None else 16
    elif name == "stochastic":
        for p in ("m", "n", "k"):
            e = sec.take(f"experiment.{label}.{p}")
            out[p] = _to_int(e) if e is not None else 0
        a_e = sec.take(f"experiment.{label}.a")
        if a_e is None:
            raise ValidationError(
                f"experiment {label}: stochastic family needs 'a'"
            )
        out["a"] = str(_to_fraction(a_e))
    elif name not in ("identity", "modified-chacon-limit"):
        raise ValidationError(
            f"experiment {label}: unknown family {name!r}"
        )
    # the parameter ranges live in operators.check_family, which the runner's
    # build_family also applies; the family is built only once, by the runner
    _reach_check(family_reach(name, **out), lJ, kind_e, f"family {name}")
    try:
        check_family(name, **out)
    except ValueError as exc:
        raise ValidationError(f"line {kind_e.line}: {kind_e.key}: {exc}") from None
    return {"family": name, **out}


def parse_config(
    text: str,
    seed: Optional[int] = None,
    budget: Optional[int] = None,
    stem: str = "report",
) -> ExperimentPlan:
    """Parse, resolve, and validate one experiment config.

    seed and budget override the corresponding config values (the CLI wires
    its flags through here). stem names emitted files unless the config's
    output.stem says otherwise.
    """
    entries = _tokenize(text)
    sec = _Section(entries)

    # --- construction
    cat_e = sec.take("construction.catalog")
    if cat_e is not None:
        a_e = sec.take("construction.a")
        for k in ("construction.kind", "construction.cuts", "construction.spacers",
                  "construction.h1"):
            e = sec.take(k)
            if e is not None:
                raise ValidationError(
                    f"line {e.line}: {k} conflicts with construction.catalog"
                )
        if cat_e.value not in catalog_names():
            raise ValidationError(
                f"line {cat_e.line}: unknown catalog entry {cat_e.value!r}; "
                f"known: {', '.join(catalog_names())}"
            )
        if a_e is not None and not catalog(cat_e.value).stochastic:
            raise ValidationError(
                f"line {a_e.line}: {a_e.key} applies only to stochastic "
                f"catalog entries, not {cat_e.value!r}"
            )
        try:
            schedule = (
                catalog(cat_e.value, a=_to_float(a_e))
                if a_e is not None
                else catalog(cat_e.value)
            )
        except MalformedRule as exc:
            raise _rule_error(a_e, exc) from None
    else:
        kind_e = sec.take("construction.kind")
        cuts_e = sec.take("construction.cuts")
        spac_e = sec.take("construction.spacers")
        if kind_e is None or cuts_e is None or spac_e is None:
            at = next((e for e in entries if e.key.startswith("construction.")), None)
            raise ValidationError(
                (f"line {at.line}: " if at else "")
                + "inline construction needs kind, cuts, and spacers "
                "(or use construction.catalog)"
            )
        if kind_e.value not in ("transformation", "flow"):
            raise ValidationError(
                f"construction.kind must be transformation or flow, got {kind_e.value!r}"
            )
        h1_e = sec.take("construction.h1")
        h1 = None
        if h1_e is not None:
            h1 = (
                _to_fraction(h1_e)
                if kind_e.value == "flow"
                else _to_int(h1_e)
            )
            if h1 < 0 or (h1 == 0 and kind_e.value == "flow"):
                raise ValidationError(
                    f"line {h1_e.line}: {h1_e.key}: stage-1 height {h1} invalid"
                )
        schedule = ConstructionSchedule(
            kind_e.value,
            _build_cuts(cuts_e),
            _build_spacers(spac_e, kind_e.value),
            h1=h1,
            name="inline",
        )
        try:
            validate_schedule(schedule)
        except (NonPositiveCut, CutBudgetExceeded) as exc:
            raise _rule_error(cuts_e, exc) from None
        except ScheduleError as exc:  # negative spacers, or vectors not fitting the cuts
            raise _rule_error(spac_e, exc) from None

    seed_e = sec.take("construction.seed")
    plan_seed = seed if seed is not None else (
        _to_int(seed_e) if seed_e is not None else None
    )
    if schedule.stochastic and plan_seed is None:
        raise ValidationError(
            "stochastic spacers need a seed (construction.seed or --seed)"
        )

    depth_e = sec.take("construction.depth")
    budget_e = sec.take("construction.budget")
    if budget is not None:
        depth_e = None

        class _B:  # synthesized entry for the CLI override
            key, value, line, col = "construction.budget", str(budget), 0, 0

        budget_e = _B()
    e = depth_e if depth_e is not None else budget_e
    # where a size refusal points: the key that set the depth, or the flag
    depth_at = f"line {e.line}: {e.key}" if e is not None and e.line else "--budget"
    try:
        J, depth_echo, realized = _resolve_depth(schedule, depth_e, budget_e, plan_seed)
    except CutBudgetExceeded as exc:  # deep stages of a wide cut rule
        raise ValidationError(f"{depth_at}: {exc}") from None
    realized = replace(realized, stages=realized.stages[: J - 1])
    hs = heights(realized, J)
    if schedule.kind == "transformation" and hs[J - 1] >= COUNT_LIMIT:
        raise ValidationError(
            f"{depth_at}: depth {J} word has {hs[J - 1]} symbols; "
            f"exact counting needs fewer than {COUNT_LIMIT}"
        )

    base_e = sec.take("construction.base")
    if base_e is not None and base_e.value != "auto":
        j0 = _to_int(base_e)
        if not 1 <= j0 <= J:
            raise ValidationError(
                f"line {base_e.line}: {base_e.key}: base stage {j0} outside 1..{J}"
            )
    else:
        j0 = 1 if schedule.kind == "flow" else default_base_stage(realized)
    if schedule.kind == "flow":
        try:
            copies, spacers = segment_counts(realized, J, j0)
        except SegmentBudgetExceeded as exc:
            raise ValidationError(f"{depth_at}: {exc}") from None

    stem_e = sec.take("output.stem")
    if stem_e is not None:
        stem = stem_e.value

    # --- experiments, in first-appearance order
    order: Dict[str, _Entry] = {}  # label -> its first entry
    for e in entries:
        parts = e.key.split(".")
        if parts[0] == "experiment":
            if len(parts) != 3:
                raise ValidationError(
                    f"experiment keys look like experiment.<label>.<key>, got {e.key} "
                    f"(line {e.line})"
                )
            order.setdefault(parts[1], e)
    if not order:
        raise ValidationError("config declares no experiments")

    lJ = int(hs[J - 1]) if schedule.kind == "transformation" else None
    cap = lJ // LAG_CAP_DIVISOR if lJ is not None else None

    def cell_check(power: int, limit: int, what: str) -> None:
        S = alphabet_size(realized, j0)
        if S**power > limit:
            raise ValidationError(
                f"line {kind_e.line}: experiment {label}: alphabet of {S} "
                f"symbols makes the {what} too large "
                f"({S}**{power} > {limit}); use a lower construction.base"
            )

    def lag_list(e: _Entry) -> List[int]:
        return [
            _cap_check(_resolve_lag(tok, hs, e), lJ, cap, e)
            for tok in _split_list(e)
        ]

    def window(e: Optional[_Entry]) -> int:
        """The limit basis window K; the basis reads lags 0..K."""
        K = _nonnegative(e) if e is not None else 8
        _reach_check(K, lJ, e or kind_e, f"window {K}")
        return K

    experiments: List[ExperimentSpec] = []
    for label, first in order.items():
        kind_e = sec.take(f"experiment.{label}.kind")
        if kind_e is None:
            raise ValidationError(f"line {first.line}: experiment {label} has no kind")
        kind = kind_e.value
        if kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"line {kind_e.line}: experiment {label}: unknown kind {kind!r}; "
                f"known: {', '.join(EXPERIMENT_KINDS)}"
            )
        wants_flow = kind == "flow-limit"
        if wants_flow != (schedule.kind == "flow"):
            raise ValidationError(
                f"line {kind_e.line}: experiment {label}: kind {kind} does not apply to a "
                f"{schedule.kind} schedule"
            )
        if not wants_flow:  # every transformation experiment reads pair counts
            cell_check(2, PAIR_CELL_LIMIT, "pair-count table")
        params: Dict[str, object] = {}
        take = lambda key: sec.take(f"experiment.{label}.{key}")
        if kind == "limit-scan":
            lags_e = take("lags")
            if lags_e is None:
                raise ValidationError(
                    f"line {kind_e.line}: experiment {label}: limit-scan needs lags"
                )
            params["lags"] = lag_list(lags_e)
            params["window"] = window(take("window"))
            t = take("tolerance")
            params["tolerance"] = _to_float(t) if t is not None else 0.03
            mp = take("max-power")
            params["max_power"] = _to_int(mp) if mp is not None else 6
            if isinstance(schedule.spacers, BernoulliSpacers):
                params["stochastic_a"] = schedule.spacers.a
        elif kind == "converge":
            lags_e = take("lags")
            fam_e = take("family")
            if lags_e is None or fam_e is None:
                raise ValidationError(
                    f"line {kind_e.line}: experiment {label}: "
                    "converge needs lags and family"
                )
            params["lags"] = lag_list(lags_e)
            params.update(_family_params(fam_e, sec, label, lJ))
            params["window"] = window(take("window"))
            t = take("tolerance")
            params["tolerance"] = _to_float(t) if t is not None else 0.03
        elif kind == "rigidity":
            lags_e = take("lags")
            if lags_e is not None:
                params["lags"] = lag_list(lags_e)
            else:
                params["lags"] = [
                    int(hs[j - 1]) for j in range(j0 + 1, J) if int(hs[j - 1]) <= cap
                ]
            s = take("slack")
            params["slack"] = _to_float(s) if s is not None else 0.01
        elif kind == "mixing":
            lags_e = take("lags")
            if lags_e is None:
                raise ValidationError(
                    f"line {kind_e.line}: experiment {label}: mixing needs lags"
                )
            params["lags"] = lag_list(lags_e)
        elif kind == "disjointness":
            for p in ("p", "q", "N"):
                e = take(p)
                if e is None:
                    raise ValidationError(
                        f"line {kind_e.line}: experiment {label}: "
                        "disjointness needs p, q, and N"
                    )
                params[p] = _to_int(e)
            N_e = take("N")
            if params["N"] < 1:
                raise ValidationError(f"line {N_e.line}: {N_e.key}: N must be >= 1")
            reach = max(abs(params["p"]), abs(params["q"])) * params["N"]
            _cap_check(reach, lJ, cap, N_e)
            cell_check(4, DISJOINTNESS_CELL_LIMIT, "4-index tensor")
        elif kind == "triple":
            m_e, n_e = take("m"), take("n")
            if m_e is None or n_e is None:
                raise ValidationError(
                    f"line {kind_e.line}: experiment {label}: "
                    "triple needs m and n lag lists"
                )
            ms = lag_list(m_e)
            ns = lag_list(n_e)
            if len(ms) != len(ns):
                raise ValidationError(
                    f"line {n_e.line}: experiment {label}: m and n lists differ in length "
                    f"({len(ms)} vs {len(ns)})"
                )
            params["pairs"] = list(zip(ms, ns))
            cell_check(3, TRIPLE_CELL_LIMIT, "triple tensor")
        else:  # flow-limit
            q_e = take("q")
            params["q"] = _to_int(q_e) if q_e is not None else 1
            if params["q"] < 1:
                raise ValidationError(f"line {q_e.line}: {q_e.key}: q must be >= 1")
            st_e = take("stage")
            j = J - 1 if st_e is None else _resolve_stage(st_e.value, J, st_e)
            if not 1 <= j <= J - 1:
                raise ValidationError(
                    f"line {st_e.line}: {st_e.key}: stage {j} outside 1..{J - 1}"
                )
            params["stage"] = j
            sl = take("slabs")
            L = _to_int(sl) if sl is not None else 16
            if L < MIN_SLABS:
                raise ValidationError(
                    f"line {sl.line}: {sl.key}: slabs must be >= {MIN_SLABS}, got {L}"
                )
            if copies * L + spacers > BREAK_BUDGET:
                at = f"line {sl.line}: {sl.key}" if sl is not None else depth_at
                raise ValidationError(
                    f"{at}: the column needs {copies * L + spacers} "
                    f"breakpoints (budget {BREAK_BUDGET})"
                )
            params["slabs"] = L
        experiments.append(ExperimentSpec(label=label, kind=kind, params=params))

    leftovers = sec.unused()
    if leftovers:
        e = leftovers[0]
        raise ValidationError(f"unknown key {e.key} (line {e.line})")

    echo: Dict[str, object] = {
        "construction": {
            "kind": schedule.kind,
            "name": schedule.name,
            "cuts": _rule_echo(schedule.cuts),
            "spacers": _rule_echo(schedule.spacers),
            "h1": str(schedule.h1),
        },
        "depth": depth_echo,
        "base": {"j0": j0},
        "seed": plan_seed,
        "lag_cap_divisor": LAG_CAP_DIVISOR,
        "experiments": [
            {"label": x.label, "kind": x.kind, **_echo_params(x.params)}
            for x in experiments
        ],
        "stem": stem,
    }
    return ExperimentPlan(
        schedule=schedule,
        realized=realized,
        J=J,
        j0=j0,
        seed=plan_seed,
        experiments=tuple(experiments),
        stem=stem,
        echo=echo,
    )


def _echo_params(params: Dict[str, object]) -> Dict[str, object]:
    out = {}
    for k, v in params.items():
        if isinstance(v, list) and v and isinstance(v[0], tuple):
            out[k] = [list(t) for t in v]
        else:
            out[k] = v
    return out
