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
returns a plan whose echo carries every filled-in default. Each experiment
kind's keys, readers and defaults are one entry of EXPERIMENT_KEYS. Reported lags
obey the engine cap |n| <= l_J / LAG_CAP_DIVISOR; the programmatic library
deliberately accepts more, but configs are the reporting surface, so the
cap is enforced here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    iter_stages,
    realize,
    validate_schedule,
)
from .correlation import COUNT_LIMIT, LAG_CAP_DIVISOR, PAIR_CELL_LIMIT
from .diagnostics import (
    DISJOINTNESS_CELL_LIMIT,
    TRIPLE_CELL_LIMIT,
    stochastic_grid_size,
)
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
    "BASIS_REACH_LIMIT",
    "FAMILY_GRID_LIMIT",
    "EXPERIMENT_KEYS",
    "EXPERIMENT_KINDS",
    "FAMILY_KEYS",
    "REQUIRED",
]

_MAX_DEPTH = 200

# the longest limit basis or converge family a config may ask for: PairCounter's
# default enum_cutoff, so every basis lag is counted in its one stage pass
BASIS_REACH_LIMIT = 1 << 10

# the most stochastic candidates a limit-scan on a Bernoulli schedule may fit
# (each is built and compared at every lag)
FAMILY_GRID_LIMIT = 10_000

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


def _refuse(e: _Entry, message, error=ValidationError):
    """The error naming the entry at fault. A ParseError (a value that does not
    parse) carries its line and column; any other refusal reads 'line N: key:
    message', or 'flag: message' for a value a command-line flag set (a flag's
    entry has line 0)."""
    if error is ParseError:
        return ParseError(f"{e.key}: {message}", line=e.line, column=e.col)
    where = f"line {e.line}: {e.key}" if e.line else e.key
    return error(f"{where}: {message}")


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
        raise _refuse(e, f"wants an integer, got {e.value!r}", ParseError) from None


def _to_fraction(e: _Entry) -> Fraction:
    try:
        return Fraction(e.value)
    except (ValueError, ZeroDivisionError):
        raise _refuse(e, f"wants a number or p/q, got {e.value!r}", ParseError) from None


def _finite(e: _Entry, s=None) -> float:
    """finite number or p/q"""
    # Fraction refuses inf and nan, and an overflow is refused here
    try:
        return float(_to_fraction(e))
    except OverflowError:
        raise _refuse(
            e, f"too large for a float, got {e.value!r}", ParseError
        ) from None


def _integer(lo: Optional[int] = None):
    """A reader of an integer, >= lo if lo is given (see the experiment keys)."""

    def read(e: _Entry, s=None) -> int:
        v = _to_int(e)
        if lo is not None and v < lo:
            raise _refuse(e, f"{e.key.rsplit('.', 1)[-1]} must be >= {lo}, got {v}")
        return v

    read.__doc__ = "integer" if lo is None else f"integer ≥ {lo}"
    return read


def _split_list(e: _Entry) -> List[str]:
    parts = [p.strip() for p in e.value.split(",")]
    if any(not p for p in parts):
        raise _refuse(e, "empty list element", ParseError)
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
        raise _refuse(
            e, f"wants a stage (INT, J, or J-k), got {token!r}", ParseError
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
        raise _refuse(e, f"bad lag expression {token!r}", ParseError)
    J = len(hs)
    stage = _resolve_stage(m.group("stage"), J, e)
    if not 1 <= stage <= J:
        raise _refuse(e, f"stage {stage} outside 1..{J}")
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
        raise _refuse(
            e, f"wants INT, 'affine:a,b' or 'explicit:...', got {v!r}", ParseError
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
        raise _refuse(e, f"malformed number in {v!r}", ParseError) from None
    except MalformedRule as exc:
        raise _refuse(e, exc) from None
    if v == "staircase":
        return StaircaseSpacers()
    if v == "staircase-damped":
        return StaircaseSpacers(damping=True)
    raise _refuse(
        e, f"wants 'pattern:...', 'bernoulli:a' or 'staircase', got {v!r}", ParseError
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
    schedule: ConstructionSchedule, e: _Entry, seed: Optional[int]
) -> Tuple[int, Dict[str, object], RealizedSchedule]:
    """(J, depth echo, realize(schedule, J, seed)) from construction.depth,
    or from a budget: construction.budget or the --budget flag.

    A budget grows one realization a stage at a time and stops at the first
    stage whose size passes it (stage sizes grow, since every cut is >= 2),
    or at depth _MAX_DEPTH.
    """
    if e.key == "construction.depth":
        J = _to_int(e)
        if not 2 <= J <= _MAX_DEPTH:
            raise _refuse(e, f"depth {J} outside 2..{_MAX_DEPTH}")
        return J, {"J": J, "source": "depth"}, realize(schedule, J, seed=seed)
    budget = _to_int(e)
    if budget < 1:
        raise _refuse(e, f"budget must be positive, got {budget}")
    rz = realize(schedule, 1, seed=seed)
    stages, size = [], heights(rz)[0]
    for r, vec in islice(iter_stages(schedule, seed), _MAX_DEPTH - 1):
        size = size * r + sum(vec)
        if size > budget:
            break
        stages.append((r, vec))
    if not stages:
        raise _refuse(e, f"budget {budget} is below the depth-2 size {size}")
    J = len(stages) + 1
    echo = {"J": J, "source": "budget", "budget": budget}
    return J, echo, replace(rz, stages=tuple(stages))


def _cap_check(lag: int, lJ: int, cap: int, e: _Entry) -> int:
    if abs(lag) > cap:
        raise _refuse(
            e,
            f"lag {lag} exceeds the reporting cap l_J/{LAG_CAP_DIVISOR} = {cap} "
            f"(l_J = {lJ})",
        )
    return lag


def _reach_check(reach: int, lJ: int, e: _Entry, what: str, span: int = 0) -> None:
    """The limit basis reads lags 0..reach, and counts need |lag| < l_J. Past
    BASIS_REACH_LIMIT the basis leaves the counter's stage pass, and a family
    spanning that many powers (a stochastic one spans m + n) is slow to build."""
    if reach >= lJ:
        raise _refuse(
            e, f"{what} needs lags up to {reach}, beyond the word length l_J = {lJ}"
        )
    if max(reach, span) > BASIS_REACH_LIMIT:
        raise _refuse(
            e,
            f"{what} spans {max(reach, span)} powers, over "
            f"BASIS_REACH_LIMIT = {BASIS_REACH_LIMIT}",
        )


# --- experiment keys. A reader (_finite, _integer(...) and those below) turns
# one entry into a parameter; its docstring is the key's "check" in the README.

REQUIRED = None  # a key with no default


@dataclass(frozen=True)
class _Scope:
    """What one experiment's readers resolve against."""

    hs: Sequence[int]
    J: int
    j0: int
    lJ: Optional[int]  # None for a flow
    take: Callable[[str], Optional[_Entry]]  # the experiment's own keys

    @property
    def cap(self) -> int:
        return self.lJ // LAG_CAP_DIVISOR


def _lags(e: _Entry, s: _Scope) -> List[int]:
    """comma-separated lags, each within the cap l_J/4"""
    return [
        _cap_check(_resolve_lag(tok, s.hs, e), s.lJ, s.cap, e) for tok in _split_list(e)
    ]


def _stage_lengths(s: _Scope) -> List[int]:
    """the stage lengths l[j], j0 < j < J, within the cap"""
    return [int(s.hs[j - 1]) for j in range(s.j0 + 1, s.J) if int(s.hs[j - 1]) <= s.cap]


def _window(e: _Entry, s: _Scope) -> int:
    """integer K, 0 ≤ K < l_J and K ≤ BASIS_REACH_LIMIT"""
    K = _integer(0)(e)
    _reach_check(K, s.lJ, e, f"window {K}")  # the basis reads lags 0..K
    return K


def _stage(e: _Entry, s: _Scope) -> int:
    """stage (INT, J or J-k) in 1..J-1"""
    j = _resolve_stage(e.value, s.J, e)
    if not 1 <= j <= s.J - 1:
        raise _refuse(e, f"stage {j} outside 1..{s.J - 1}")
    return j


def _fraction(e: _Entry, s: _Scope) -> str:
    """number or p/q"""
    return str(_to_fraction(e))


def _family(e: _Entry, s: _Scope) -> Dict[str, object]:
    """family name; its keys and ranges in the family table, reach < l_J"""
    keys = FAMILY_KEYS.get(e.value)
    if keys is None:
        raise _refuse(e, f"unknown family {e.value!r}")
    params = _read_keys(keys, e, s)
    # the parameter ranges live in operators.check_family, which the runner's
    # build_family also applies; the family is built only once, by the runner
    try:
        check_family(e.value, **params)
    except ValueError as exc:
        raise _refuse(e, exc) from None
    span = params.get("m", 0) + params.get("n", 0)
    _reach_check(family_reach(e.value, **params), s.lJ, e, f"family {e.value}", span)
    return {"family": e.value, **params}


# each kind's keys in parameter order: (key, reader, default); a text default
# is read as if written at the kind line, a callable one is computed
EXPERIMENT_KEYS = {
    "limit-scan": (
        ("lags", _lags, REQUIRED),
        ("window", _window, "8"),
        ("tolerance", _finite, "0.03"),
        ("max-power", _integer(0), "6"),
    ),
    "converge": (
        ("lags", _lags, REQUIRED),
        ("family", _family, REQUIRED),
        ("window", _window, "8"),
        ("tolerance", _finite, "0.03"),
    ),
    "rigidity": (("lags", _lags, _stage_lengths), ("slack", _finite, "0.01")),
    "mixing": (("lags", _lags, REQUIRED),),
    "disjointness": (
        ("p", _integer(), REQUIRED),
        ("q", _integer(), REQUIRED),
        ("N", _integer(1), REQUIRED),
    ),
    "triple": (("m", _lags, REQUIRED), ("n", _lags, REQUIRED)),
    "flow-limit": (
        ("q", _integer(1), "1"),
        ("stage", _stage, "J-1"),
        ("slabs", _integer(MIN_SLABS), "16"),
    ),
}
EXPERIMENT_KINDS = tuple(EXPERIMENT_KEYS)

# a converge family's own keys, read at the family line
FAMILY_KEYS = {
    "identity": (),
    "modified-chacon-limit": (),
    "chacon-geometric": (("M", _integer(), "16"),),
    "stochastic": (
        ("m", _integer(), "0"),
        ("n", _integer(), "0"),
        ("k", _integer(), "0"),
        ("a", _fraction, REQUIRED),
    ),
}


def _read_keys(table, at: _Entry, s: _Scope) -> Dict[str, object]:
    """The parameters a key table names, in its order. at is the kind (or
    family) entry: missing required keys are refused together at its line, and
    a text default is read as if written there."""
    found = [(key, reader, default, s.take(key)) for key, reader, default in table]
    missing = [key for key, _, default, e in found if e is None and default is REQUIRED]
    if missing:
        raise _refuse(at, f"{at.value} needs {', '.join(missing)}")
    params: Dict[str, object] = {}
    for key, reader, default, e in found:
        if e is None and callable(default):
            value = default(s)
        else:
            value = reader(e or replace(at, value=default), s)
        if isinstance(value, dict):  # a family and its own keys
            params.update(value)
        else:
            params[key.replace("-", "_")] = value
    return params


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
    # where a construction refusal with no key of its own points
    con_e = next((e for e in entries if e.key.startswith("construction.")), None)

    # --- construction
    cat_e = sec.take("construction.catalog")
    if cat_e is not None:
        a_e = sec.take("construction.a")
        for k in ("construction.kind", "construction.cuts", "construction.spacers",
                  "construction.h1"):
            e = sec.take(k)
            if e is not None:
                raise _refuse(e, "conflicts with construction.catalog")
        if cat_e.value not in catalog_names():
            raise _refuse(
                cat_e,
                f"unknown catalog entry {cat_e.value!r}; "
                f"known: {', '.join(catalog_names())}",
            )
        if a_e is not None and not catalog(cat_e.value).stochastic:
            raise _refuse(
                a_e, f"applies only to stochastic catalog entries, not {cat_e.value!r}"
            )
        try:
            schedule = (
                catalog(cat_e.value, a=_finite(a_e))
                if a_e is not None
                else catalog(cat_e.value)
            )
        except MalformedRule as exc:
            raise _refuse(a_e, exc) from None
    else:
        kind_e = sec.take("construction.kind")
        cuts_e = sec.take("construction.cuts")
        spac_e = sec.take("construction.spacers")
        if con_e is None:
            raise ValidationError("config declares no construction")
        if kind_e is None or cuts_e is None or spac_e is None:
            raise _refuse(
                con_e,
                "inline construction needs kind, cuts, and spacers "
                "(or use construction.catalog)",
            )
        if kind_e.value not in ("transformation", "flow"):
            raise _refuse(kind_e, f"must be transformation or flow, got {kind_e.value!r}")
        h1_e = sec.take("construction.h1")
        h1 = None
        if h1_e is not None:
            h1 = (
                _to_fraction(h1_e)
                if kind_e.value == "flow"
                else _to_int(h1_e)
            )
            if h1 < 0 or (h1 == 0 and kind_e.value == "flow"):
                raise _refuse(h1_e, f"stage-1 height {h1} invalid")
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
            raise _refuse(cuts_e, exc) from None
        except ScheduleError as exc:  # negative spacers, or vectors not fitting the cuts
            raise _refuse(spac_e, exc) from None

    seed_e = sec.take("construction.seed")
    plan_seed = seed if seed is not None else (
        _to_int(seed_e) if seed_e is not None else None
    )
    if schedule.stochastic and plan_seed is None:
        raise _refuse(
            con_e, "stochastic spacers need a seed (construction.seed or --seed)"
        )

    depth_e = sec.take("construction.depth")
    budget_e = sec.take("construction.budget")
    if budget is not None:  # the flag overrides both keys
        depth_e, budget_e = None, _Entry("--budget", str(budget), line=0, col=0)
    if (depth_e is None) == (budget_e is None):
        raise _refuse(
            budget_e or con_e, "construction needs exactly one of 'depth' or 'budget'"
        )
    size_e = depth_e or budget_e  # where a size refusal points
    try:
        J, depth_echo, realized = _resolve_depth(schedule, size_e, plan_seed)
    except CutBudgetExceeded as exc:  # deep stages of a wide cut rule
        raise _refuse(size_e, exc) from None
    hs = heights(realized, J)
    if schedule.kind == "transformation" and hs[J - 1] >= COUNT_LIMIT:
        raise _refuse(
            size_e,
            f"depth {J} word has {hs[J - 1]} symbols; "
            f"exact counting needs fewer than {COUNT_LIMIT}",
        )

    base_e = sec.take("construction.base")
    if base_e is not None and base_e.value != "auto":
        j0 = _to_int(base_e)
        if not 1 <= j0 <= J:
            raise _refuse(base_e, f"base stage {j0} outside 1..{J}")
    else:
        j0 = 1 if schedule.kind == "flow" else default_base_stage(realized)
    if schedule.kind == "flow":
        try:
            copies, spacers = segment_counts(realized, J, j0)
        except SegmentBudgetExceeded as exc:
            raise _refuse(size_e, exc) from None

    stem_e = sec.take("output.stem")
    if stem_e is not None:
        stem = stem_e.value

    # --- experiments, in first-appearance order
    order: Dict[str, _Entry] = {}  # label -> its first entry
    for e in entries:
        parts = e.key.split(".")
        if parts[0] == "experiment":
            if len(parts) != 3:
                raise _refuse(e, "experiment keys look like experiment.<label>.<key>")
            order.setdefault(parts[1], e)
    if not order:
        raise ValidationError("config declares no experiments")

    lJ = int(hs[J - 1]) if schedule.kind == "transformation" else None

    def cell_check(kind_e: _Entry, power: int, limit: int, what: str) -> None:
        S = alphabet_size(realized, j0)
        if S**power > limit:
            raise _refuse(
                kind_e,
                f"alphabet of {S} symbols makes the {what} too large "
                f"({S}**{power} > {limit}); use a lower construction.base",
            )

    experiments: List[ExperimentSpec] = []
    for label, first in order.items():
        take = lambda key: sec.take(f"experiment.{label}.{key}")
        kind_e = take("kind")
        if kind_e is None:
            raise _refuse(first, f"experiment {label} has no kind")
        kind = kind_e.value
        if kind not in EXPERIMENT_KINDS:
            raise _refuse(
                kind_e, f"unknown kind {kind!r}; known: {', '.join(EXPERIMENT_KINDS)}"
            )
        if (kind == "flow-limit") != (schedule.kind == "flow"):
            raise _refuse(
                kind_e, f"kind {kind} does not apply to a {schedule.kind} schedule"
            )
        if kind != "flow-limit":  # every transformation experiment reads pair counts
            cell_check(kind_e, 2, PAIR_CELL_LIMIT, "pair-count table")
        s = _Scope(hs=hs, J=J, j0=j0, lJ=lJ, take=take)
        params = _read_keys(EXPERIMENT_KEYS[kind], kind_e, s)
        # checks across keys
        if kind == "limit-scan" and isinstance(schedule.spacers, BernoulliSpacers):
            params["stochastic_a"] = schedule.spacers.a
            K, power = params["window"], params["max_power"]
            grid = stochastic_grid_size(K, power)
            if grid > FAMILY_GRID_LIMIT:
                raise _refuse(
                    take("max-power") or take("window") or kind_e,
                    f"max-power {power} with window {K} fits {grid} stochastic "
                    f"candidates, over FAMILY_GRID_LIMIT = {FAMILY_GRID_LIMIT}",
                )
        elif kind == "disjointness":
            reach = max(abs(params["p"]), abs(params["q"])) * params["N"]
            _cap_check(reach, lJ, s.cap, take("N"))
            cell_check(kind_e, 4, DISJOINTNESS_CELL_LIMIT, "4-index tensor")
        elif kind == "triple":
            ms, ns = params.pop("m"), params.pop("n")
            if len(ms) != len(ns):
                raise _refuse(
                    take("n"),
                    f"m and n lists differ in length ({len(ms)} vs {len(ns)})",
                )
            params["pairs"] = list(zip(ms, ns))
            cell_check(kind_e, 3, TRIPLE_CELL_LIMIT, "triple tensor")
        elif kind == "flow-limit":
            breaks = copies * params["slabs"] + spacers
            if breaks > BREAK_BUDGET:
                raise _refuse(
                    take("slabs") or size_e,
                    f"the column needs {breaks} breakpoints (budget {BREAK_BUDGET})",
                )
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
