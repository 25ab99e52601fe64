"""Config parsing, lag grammar, and plan resolution."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankone
from rankone import config, operators
from rankone.config import parse_config
from rankone.construction import CUT_BUDGET, BernoulliSpacers, heights, realize
from rankone.correlation import COUNT_LIMIT
from rankone.errors import ParseError, ValidationError

BASE = """
construction.catalog = modified-chacon
construction.depth = 10
experiment.scan.kind = limit-scan
experiment.scan.lags = {lags}
"""


def _plan(lags="l[8], -l[8]", extra=""):
    return parse_config(BASE.format(lags=lags) + extra)


def test_minimal_plan_resolves():
    plan = _plan()
    assert plan.J == 10
    assert plan.schedule.name == "modified-chacon"
    assert plan.seed is None
    assert len(plan.experiments) == 1
    spec = plan.experiments[0]
    assert spec.kind == "limit-scan"
    hs = heights(plan.realized, 10)
    assert spec.params["lags"] == [hs[7], -hs[7]]


def test_echo_lists_every_filled_default():
    plan = _plan()
    exp = plan.echo["experiments"][0]
    assert exp["window"] == 8
    assert exp["tolerance"] == 0.03
    assert exp["max_power"] == 6
    assert plan.echo["base"]["j0"] == plan.j0
    assert plan.echo["depth"] == {"J": 10, "source": "depth"}
    assert plan.echo["seed"] is None
    assert plan.echo["stem"] == "report"
    assert plan.echo["construction"]["cuts"] == "3"
    assert plan.echo["construction"]["spacers"] == "pattern:0,1,0"


def test_lag_grammar_forms():
    plan = _plan(lags="7, -7, l[3], -l[3], 2*l[3], 2*l[3]+1, -3*l[2]-2, h[4], l[J-6]")
    hs = [int(h) for h in heights(plan.realized, 10)]
    want = [
        7,
        -7,
        hs[2],
        -hs[2],
        2 * hs[2],
        2 * hs[2] + 1,
        -(3 * hs[1] + 2),
        hs[3] - 1,
        hs[3],
    ]
    assert plan.experiments[0].params["lags"] == want


def test_lag_grammar_whitespace_tolerant():
    plan = _plan(lags="2 * l[ J - 7 ] + 1")
    hs = heights(plan.realized, 10)
    assert plan.experiments[0].params["lags"] == [2 * hs[2] + 1]


def test_bad_lag_expression_is_parse_error():
    with pytest.raises(ParseError):
        _plan(lags="l[3")
    with pytest.raises(ParseError):
        _plan(lags="l[3]*2")
    with pytest.raises(ParseError):
        _plan(lags="x[3]")


def test_lag_cap_names_the_cap():
    with pytest.raises(ValidationError, match=r"l_J/4"):
        _plan(lags="l[J-1]")


def test_stage_out_of_range():
    with pytest.raises(ValidationError, match="stage"):
        _plan(lags="l[J-12]")


def test_missing_equals_is_parse_error():
    with pytest.raises(ParseError) as e:
        parse_config("construction.catalog modified-chacon\n")
    assert e.value.line == 1


def test_key_without_section_rejected():
    with pytest.raises(ParseError):
        parse_config("depth = 10\n")


def test_comments_and_blank_lines_ignored():
    text = (
        "# leading comment\n\n"
        "construction.catalog = chacon  # trailing\n"
        "construction.depth = 8\n"
        "experiment.m.kind = mixing\n"
        "experiment.m.lags = 3\n"
    )
    plan = parse_config(text)
    assert plan.schedule.name == "chacon"


def test_duplicate_key_rejected():
    text = BASE.format(lags="3") + "construction.depth = 11\n"
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(text)


def test_unknown_key_rejected_with_line():
    text = BASE.format(lags="3") + "experiment.scan.windoww = 4\n"
    with pytest.raises(ValidationError, match="windoww"):
        parse_config(text)


def test_unknown_kind_rejected():
    text = (
        "construction.catalog = chacon\nconstruction.depth = 8\n"
        "experiment.x.kind = scan\nexperiment.x.lags = 1\n"
    )
    with pytest.raises(ValidationError, match="unknown kind"):
        parse_config(text)


def test_depth_and_budget_exclusive():
    text = (
        "construction.catalog = chacon\nconstruction.depth = 8\n"
        "construction.budget = 100\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(text)
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(
            "construction.catalog = chacon\n"
            "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
        )


def test_budget_mode_picks_deepest_fitting_stage():
    text = (
        "construction.catalog = chacon\nconstruction.budget = 100000\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    plan = parse_config(text)
    # chacon: l_J = 2^J - 1; largest under 1e5 is J = 16
    assert plan.J == 16
    assert plan.echo["depth"] == {"J": 16, "source": "budget", "budget": 100000}


def test_budget_override_kwarg():
    plan = parse_config(BASE.format(lags="3"), budget=2000)
    assert plan.J == 7  # (3^7 - 1)/2 = 1093 <= 2000 < 3280
    assert plan.echo["depth"]["source"] == "budget"


@pytest.mark.parametrize(
    "construction",
    [
        "construction.catalog = stochastic-chacon\n",
        "construction.kind = transformation\nconstruction.cuts = 3\n"
        "construction.spacers = bernoulli:1/3\n",
    ],
    ids=["stochastic-chacon", "bernoulli"],
)
def test_budget_keeps_the_probe_realization(construction):
    # a budget grows one realization until a stage passes it; what it keeps
    # is the depth-J realization
    text = construction + (
        "construction.budget = 100000\nconstruction.seed = 7\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    plan = parse_config(text)
    assert plan.echo["depth"]["source"] == "budget"
    assert plan.realized == realize(plan.schedule, plan.J, seed=7)
    assert plan.realized.depth == plan.J


def test_budget_draws_each_stage_once(monkeypatch):
    draws = []
    draw = BernoulliSpacers.draw

    def counted(self, seed, r, draw_base):
        draws.append(draw_base)
        return draw(self, seed, r, draw_base)

    monkeypatch.setattr(BernoulliSpacers, "draw", counted)
    plan = parse_config(
        "construction.catalog = stochastic-chacon\n"
        "construction.budget = 100000\nconstruction.seed = 7\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    # stages 1..J, each once: stage J is the one whose word passes the budget
    assert len(draws) == len(set(draws)) == plan.J


def test_budget_refuses_a_wide_cut_rule_at_the_budget_line():
    # l_84 has under 400 digits, so a 900-digit budget needs stage 84, whose
    # cuts take the running total past CUT_BUDGET
    text = (
        "construction.kind = transformation\nconstruction.cuts = affine:300,0\n"
        "construction.spacers = bernoulli:1/2\n"
        f"construction.budget = {10**900}\nconstruction.seed = 1\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    with pytest.raises(
        ValidationError,
        match=rf"^line 4: construction\.budget: stages 1\.\.84 make 1071000 cuts, "
        rf"more than {CUT_BUDGET}$",
    ):
        parse_config(text)


def test_deep_budget_refusal_is_short():
    # l_77 of this rule has 300 digits: the refusal gives its leading digits
    # and digit count, not the number
    text = (
        "construction.kind = transformation\nconstruction.cuts = affine:300,0\n"
        "construction.spacers = bernoulli:1/2\n"
        f"construction.budget = {10**300}\nconstruction.seed = 1\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    message = str(exc.value)
    assert len(message) < 200, message
    assert re.fullmatch(
        r"line 4: construction\.budget: depth 77 word has 4994\.\.\. \(300 digits\) "
        r"symbols; exact counting needs fewer than 2\^62",
        message,
    ), message
    for n in (10**20 - 1, 10**20, 2**1000 + 1, 10**900, 3 * 10**900 - 1):
        digits = len(str(n))
        want = str(n) if digits <= 20 else f"{str(n)[:4]}... ({digits} digits)"
        assert config._short_int(n) == want


def test_stochastic_requires_seed():
    text = (
        "construction.catalog = stochastic-chacon\nconstruction.depth = 8\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    with pytest.raises(ValidationError, match="seed"):
        parse_config(text)
    plan = parse_config(text, seed=4)
    assert plan.seed == 4 and plan.realized.seed == 4


def test_seed_override_beats_config():
    text = (
        "construction.catalog = stochastic-chacon\nconstruction.depth = 8\n"
        "construction.seed = 1\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    assert parse_config(text).seed == 1
    assert parse_config(text, seed=2).seed == 2


def test_inline_construction_with_affine_cuts():
    text = (
        "construction.kind = transformation\n"
        "construction.cuts = affine:1,1\n"
        "construction.spacers = bernoulli:1/4\n"
        "construction.depth = 6\nconstruction.seed = 3\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    plan = parse_config(text)
    assert plan.realized.stage(3)[0] == 4
    assert plan.echo["construction"]["cuts"] == "affine:1,1"
    assert plan.echo["construction"]["spacers"] == "bernoulli:0.25"


def test_inline_flow_construction():
    text = (
        "construction.kind = flow\n"
        "construction.cuts = 3\n"
        "construction.spacers = staircase\n"
        "construction.h1 = 1/2\n"
        "construction.depth = 5\n"
        "experiment.f.kind = flow-limit\n"
    )
    plan = parse_config(text)
    assert plan.schedule.h1 == Fraction(1, 2)
    assert plan.j0 == 1
    spec = plan.experiments[0]
    assert spec.params == {
        "q": 1,
        "stage": 4,
        "slabs": 16,
    }


def test_catalog_conflicts_with_inline_keys():
    text = (
        "construction.catalog = chacon\nconstruction.cuts = 2\n"
        "construction.depth = 6\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    with pytest.raises(ValidationError, match="conflicts"):
        parse_config(text)


def test_flow_kind_mismatch_both_directions():
    base = "construction.catalog = staircase-flow\nconstruction.depth = 5\n"
    with pytest.raises(ValidationError, match="does not apply"):
        parse_config(base + "experiment.m.kind = mixing\nexperiment.m.lags = 1\n")
    mapcfg = "construction.catalog = chacon\nconstruction.depth = 6\n"
    with pytest.raises(ValidationError, match="does not apply"):
        parse_config(mapcfg + "experiment.f.kind = flow-limit\n")


def test_rigidity_defaults_to_stage_heights_under_cap():
    text = (
        "construction.catalog = chacon\nconstruction.depth = 10\n"
        "construction.base = 2\n"
        "experiment.r.kind = rigidity\n"
    )
    plan = parse_config(text)
    hs = [int(h) for h in heights(plan.realized, 10)]
    cap = hs[9] // 4
    want = [hs[j - 1] for j in range(3, 10) if hs[j - 1] <= cap]
    assert plan.experiments[0].params["lags"] == want
    assert plan.experiments[0].params["slack"] == 0.01


def test_rigidity_with_no_default_lag_names_the_cap_and_asks_for_lags():
    # chacon at depth 5 has l_J = 31 and auto base j0 = 4: no l[j], j0 < j < J
    text = (
        "construction.catalog = chacon\nconstruction.depth = 5\n"
        "experiment.r.kind = rigidity\n"
    )
    with pytest.raises(ValidationError, match=r"^line 3: .*cap l_J/4 = 7; set experiment\.r\.lags"):
        parse_config(text)
    plan = parse_config(text + "experiment.r.lags = 1\n")
    assert plan.experiments[0].params["lags"] == [1]


def test_triple_lists_zip_and_validate():
    text = BASE.format(lags="3") + (
        "experiment.t.kind = triple\n"
        "experiment.t.m = 1, 2\n"
        "experiment.t.n = 3, l[2]\n"
    )
    plan = parse_config(text)
    hs = heights(plan.realized, 10)
    assert plan.experiments[1].params["pairs"] == [(1, 3), (2, hs[1])]
    bad = BASE.format(lags="3") + (
        "experiment.t.kind = triple\nexperiment.t.m = 1\nexperiment.t.n = 3, 4\n"
    )
    with pytest.raises(ValidationError, match="length"):
        parse_config(bad)


@pytest.mark.parametrize(
    "base, experiment, refused",
    [
        (8, "kind = triple\nexperiment.x.m = 1\nexperiment.x.n = 2", False),
        (9, "kind = triple\nexperiment.x.m = 1\nexperiment.x.n = 2", True),
        (5, "kind = disjointness\nexperiment.x.p = 1\n"
            "experiment.x.q = 2\nexperiment.x.N = 4", False),
        (6, "kind = disjointness\nexperiment.x.p = 1\n"
            "experiment.x.q = 2\nexperiment.x.N = 4", True),
        (11, "kind = rigidity", False),
        (12, "kind = rigidity", True),
    ],
)
def test_alphabet_limits_checked_at_config_time(base, experiment, refused):
    # chacon has l_j = 2**j - 1, so base j gives 2**j symbols: the triple
    # limit S**3 <= 2**24 admits base 8, the S**4 <= 2**22 limit base 5,
    # the pair-count limit S**2 <= 2**22 base 11
    text = (
        "construction.catalog = chacon\nconstruction.depth = 14\n"
        f"construction.base = {base}\nexperiment.x.{experiment}\n"
    )
    if refused:
        with pytest.raises(ValidationError, match=r"line 4: .*too large"):
            parse_config(text)
    else:
        assert parse_config(text).j0 == base


def test_catalog_a_only_for_stochastic_entries():
    for name in ("chacon", "staircase-flow"):
        text = (
            f"construction.catalog = {name}\nconstruction.depth = 6\n"
            "construction.a = 1/2\nexperiment.r.kind = rigidity\n"
        )
        with pytest.raises(ValidationError, match=r"line 3: construction\.a"):
            parse_config(text)


CONVERGE = """
construction.catalog = modified-chacon
construction.depth = 10
experiment.c.kind = converge
experiment.c.lags = l[8]
"""

# chacon depth 10: l_J = 1023, and the limit basis reads lags 0..reach
CHACON10 = "construction.catalog = chacon\nconstruction.depth = 10\n"
# chacon depth 30: l_J is far past BASIS_REACH_LIMIT
CHACON30 = "construction.catalog = chacon\nconstruction.depth = 30\n"


@pytest.mark.parametrize(
    "text, line, key",
    [
        (BASE.format(lags="3") + "experiment.scan.window = -1\n", 6, "window"),
        (CONVERGE + "experiment.c.family = identity\nexperiment.c.window = -2\n", 7,
         "window"),
        # family parameters out of range name the family key
        (CONVERGE + "experiment.c.family = stochastic\nexperiment.c.a = 2\n", 6,
         r"family: .*a = 2"),
        (CONVERGE + "experiment.c.family = stochastic\nexperiment.c.a = 0\n", 6,
         r"family: .*a = 0"),
        (CONVERGE + "experiment.c.family = stochastic\nexperiment.c.m = -1\n"
         "experiment.c.a = 1/2\n", 6, r"family: .*m = -1"),
        (CONVERGE + "experiment.c.family = chacon-geometric\nexperiment.c.M = -1\n", 6,
         r"family: .*M >= 0, got -1"),
        # reaches beyond the word: the window's line, else the family's
        (CHACON10 + "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n"
         "experiment.s.window = 1023\n", 5, r"window: .*l_J = 1023"),
        (CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = identity\nexperiment.c.window = 1023\n", 6,
         r"window: .*l_J = 1023"),
        (CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = chacon-geometric\nexperiment.c.M = 100000\n", 5,
         r"family: .*up to 100000, .*l_J = 1023"),
        (CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = stochastic\nexperiment.c.a = 1/2\n"
         "experiment.c.m = 1000\nexperiment.c.k = -23\n", 5,
         r"family: .*up to 1023, .*l_J = 1023"),
        # a defaulted window names the kind line (chacon depth 3: l_J = 7 < 8)
        ("construction.catalog = chacon\nconstruction.depth = 3\n"
         "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n", 3, r"kind: window 8"),
        # past BASIS_REACH_LIMIT, inside the word
        (CHACON30 + "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n"
         "experiment.s.window = 1025\n", 5, r"window: window 1025 spans 1025 .*BASIS_REACH_LIMIT"),
        (CHACON30 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = chacon-geometric\nexperiment.c.M = 1025\n", 5,
         r"family: .*spans 1025 .*BASIS_REACH_LIMIT"),
        (CHACON30 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
         "experiment.c.family = stochastic\nexperiment.c.a = 1/2\n"
         "experiment.c.m = 600\nexperiment.c.n = 600\n", 5,
         r"family: .*spans 1200 .*BASIS_REACH_LIMIT"),
        (BASE.format(lags="3") + "experiment.scan.max-power = -5\n", 6,
         r"max-power: max-power must be >= 0, got -5"),
        # residuals and distances are >= 0: a negative bound can never pass
        (BASE.format(lags="3") + "experiment.scan.tolerance = -0.01\n", 6,
         r"tolerance: tolerance must be >= 0, got -0.01"),
        (CONVERGE + "experiment.c.family = identity\nexperiment.c.tolerance = -1/2\n", 7,
         r"tolerance: tolerance must be >= 0, got -1/2"),
        (CHACON10 + "experiment.r.kind = rigidity\nexperiment.r.slack = -1e-3\n", 4,
         r"slack: slack must be >= 0, got -1e-3"),
    ],
    ids=["scan-window", "converge-window", "a-above-1", "a-zero", "m-negative",
         "M-negative", "scan-window-beyond-word", "converge-window-beyond-word",
         "M-beyond-word", "stochastic-beyond-word", "default-window-beyond-word",
         "window-over-limit", "M-over-limit", "stochastic-span-over-limit",
         "max-power-negative", "tolerance-negative", "converge-tolerance-negative",
         "slack-negative"],
)
def test_bad_experiment_parameters_refused_with_line(text, line, key):
    with pytest.raises(ValidationError, match=rf"line {line}: experiment\.\w+\.{key}"):
        parse_config(text)


STOCHASTIC_SCAN = """
construction.catalog = stochastic-chacon
construction.depth = 14
construction.seed = 1
experiment.s.kind = limit-scan
experiment.s.lags = 1
experiment.s.window = {K}
"""


def test_stochastic_grid_over_limit_refused():
    # sum over s <= min(max-power, 2K) of (s + 1)(2K - s + 1) candidates
    with pytest.raises(
        ValidationError,
        match=r"line 8: experiment\.s\.max-power: .* fits 47905 .*FAMILY_GRID_LIMIT = 10000",
    ):
        parse_config(STOCHASTIC_SCAN.format(K=32) + "experiment.s.max-power = 64\n")
    # with max-power at its default, the window's line
    with pytest.raises(ValidationError, match=r"line 7: experiment\.s\.window: max-power 6"):
        parse_config(STOCHASTIC_SCAN.format(K=1024))
    plan = parse_config(STOCHASTIC_SCAN.format(K=16) + "experiment.s.max-power = 32\n")
    assert plan.experiments[0].params["max_power"] == 32
    # a schedule without Bernoulli spacers fits no stochastic grid
    assert parse_config(
        BASE.format(lags="3") + "experiment.scan.window = 32\nexperiment.scan.max-power = 64\n"
    ).experiments[0].params["max_power"] == 64


def test_basis_reach_just_inside_word_accepted():
    plan = parse_config(
        CHACON10 + "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n"
        "experiment.s.window = 1022\n"
        "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
        "experiment.c.family = chacon-geometric\nexperiment.c.M = 1022\n"
    )
    assert plan.experiments[0].params["window"] == 1022
    assert plan.experiments[1].params["M"] == 1022


def test_basis_reach_limit_accepted():
    plan = parse_config(
        CHACON30 + "experiment.s.kind = limit-scan\nexperiment.s.lags = 1\n"
        f"experiment.s.window = {config.BASIS_REACH_LIMIT}\n"
        "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
        "experiment.c.family = stochastic\nexperiment.c.a = 1/2\n"
        "experiment.c.m = 512\nexperiment.c.n = 512\n"
    )
    assert plan.experiments[0].params["window"] == config.BASIS_REACH_LIMIT == 1024
    assert plan.experiments[1].params["m"] + plan.experiments[1].params["n"] == 1024


def test_converge_family_validated_without_building(monkeypatch):
    # only the runner builds a family; parse_config checks its parameters
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built a family")

    monkeypatch.setattr(operators, "build_family", refuse)
    monkeypatch.setattr(config, "build_family", refuse, raising=False)
    plan = parse_config(
        CHACON10 + "experiment.c.kind = converge\nexperiment.c.lags = 1\n"
        "experiment.c.family = chacon-geometric\nexperiment.c.M = 1022\n"
    )
    assert plan.experiments[0].params["M"] == 1022
    assert parse_config(
        CONVERGE + "experiment.c.family = stochastic\nexperiment.c.a = 1/2\n"
    ).experiments[0].params["a"] == "1/2"
    with pytest.raises(ValidationError, match=r"line 6: experiment\.c\.family: .*a = 2"):
        parse_config(CONVERGE + "experiment.c.family = stochastic\nexperiment.c.a = 2\n")


def test_stochastic_family_in_range_accepted():
    plan = parse_config(
        CONVERGE + "experiment.c.family = stochastic\nexperiment.c.a = 3/4\n"
        "experiment.c.k = -1\n"
    )
    assert plan.experiments[0].params["a"] == "3/4"
    assert plan.experiments[0].params["k"] == -1


def test_word_length_limit_checked_at_config_time():
    # chacon l_J = 2**J - 1: J = 62 is the deepest the exact counter takes
    text = (
        "construction.catalog = chacon\nconstruction.depth = {J}\n"
        "experiment.m.kind = mixing\nexperiment.m.lags = 1\n"
    )
    assert parse_config(text.format(J=62)).J == 62
    assert COUNT_LIMIT == 1 << 62
    with pytest.raises(
        ValidationError,
        match=r"^line 2: construction\.depth: depth 63 word has 9223372036854775807 "
        r"symbols; exact counting needs fewer than 2\^62$",
    ):
        parse_config(text.format(J=63))


def test_flow_limit_tolerance_is_unknown_key():
    text = (
        "construction.catalog = staircase-flow\nconstruction.depth = 5\n"
        "experiment.f.kind = flow-limit\nexperiment.f.tolerance = 1e-4\n"
    )
    with pytest.raises(ValidationError, match=r"unknown key experiment\.f\.tolerance \(line 4\)"):
        parse_config(text)


def test_disjointness_reach_checked_against_cap():
    text = (
        "construction.catalog = chacon\nconstruction.depth = 10\n"
        "experiment.d.kind = disjointness\n"
        "experiment.d.p = 1\nexperiment.d.q = 3\nexperiment.d.N = 200\n"
    )
    with pytest.raises(ValidationError, match=r"l_J/4"):
        parse_config(text)


def test_experiments_keep_declaration_order():
    text = BASE.format(lags="3") + (
        "experiment.b.kind = mixing\nexperiment.b.lags = 1\n"
        "experiment.a.kind = mixing\nexperiment.a.lags = 2\n"
    )
    plan = parse_config(text)
    assert [s.label for s in plan.experiments] == ["scan", "b", "a"]


def test_no_experiments_rejected():
    with pytest.raises(ValidationError, match="no experiments"):
        parse_config("construction.catalog = chacon\nconstruction.depth = 6\n")


def test_no_construction_rejected():
    with pytest.raises(ValidationError, match="no construction"):
        parse_config("experiment.m.kind = mixing\nexperiment.m.lags = 1\n")


def test_output_stem_key():
    plan = _plan(extra="output.stem = night-run\n")
    assert plan.stem == "night-run"
    assert plan.echo["stem"] == "night-run"


def test_base_auto_is_default_stage():
    plan = _plan(extra="construction.base = auto\n")
    hs = heights(plan.realized, 10)
    assert hs[plan.j0 - 1] >= 8
    explicit = _plan(extra="construction.base = 2\n")
    assert explicit.j0 == 2


FLOW = "construction.catalog = staircase-flow\nconstruction.depth = {J}\nexperiment.f.kind = flow-limit\n"


@pytest.mark.parametrize(
    "J, extra, line, message",
    [
        (5, "experiment.f.slabs = 1\n", 4, r"experiment\.f\.slabs: slabs must be >= 2"),
        # the column is 2^159.3 ticks high at depth 31, 2^149.4 at depth 30
        (40, "", 2, r"construction\.depth: tick scale too fine"),
        (31, "", 2, r"construction\.depth: tick scale too fine: the column is 2\^159 ticks"),
        # (L + 1)**2 pair-count cells: 2048 slabs make 2^22 + 4097
        (5, "experiment.f.slabs = 2048\n", 4,
         r"experiment\.f\.slabs: 2048 slabs make the pair-count table too large "
         r"\(2049\*\*2 > 4194304\)"),
        (5, "experiment.f.q = 0\n", 4, r"experiment\.f\.q: q must be >= 1"),
        (6, "experiment.f.stage = 99\n", 4, r"experiment\.f\.stage: stage 99 outside 1\.\.5"),
        # h_4 = 71/2 and h_5 = 359/2: q = 5 is the largest lag q*h_4 inside the column
        (5, "experiment.f.q = 7\n", 4,
         r"experiment\.f\.q: q = 7 reaches the column height 359/2: the lag q\*h_4 = 497/2"),
        (5, "experiment.f.q = 6\n", 4, r"experiment\.f\.q: q = 6 reaches the column height 359/2"),
        (5, "experiment.f.stage = 2\nexperiment.f.q = 180\n", 5,
         r"experiment\.f\.q: q = 180 reaches the column height 359/2"),
    ],
    ids=["slabs-1", "depth-40-tick-scale", "depth-31-tick-scale", "slab-cells", "q-0", "stage-99",
         "q-lag-past-height", "q-lag-at-boundary", "q-past-height-stage-2"],
)
def test_flow_limits_refused_with_line(J, extra, line, message):
    with pytest.raises(ValidationError, match=rf"line {line}: {message}"):
        parse_config(FLOW.format(J=J) + extra)


TICKS = (
    "construction.kind = flow\n"
    "construction.cuts = 3\n"
    "construction.spacers = pattern:0,1/1427247692705959881058285969449495136382746621,0\n"
    "construction.h1 = 1\n"
    "construction.depth = 3\n"
    "experiment.f.kind = flow-limit\n"
)


@pytest.mark.parametrize(
    "extra, line, key",
    [
        ("", 5, r"construction\.depth"),
        ("experiment.f.slabs = 4\n", 7, r"experiment\.f\.slabs"),
    ],
    ids=["size-line", "slabs-line"],
)
def test_flow_tick_scale_past_150_bits_refused_with_line(extra, line, key):
    # a spacer of 1/(2**150 - 3) makes the column 2^157.2 ticks high
    # (2^155.2 at 4 slabs); such a config used to fail at run time with
    # exit 2
    with pytest.raises(ValidationError, match=rf"line {line}: {key}: tick scale too fine"):
        parse_config(TICKS + extra)


def test_deep_flow_refusal_gives_the_height_in_bits():
    # at depth 200 the column is over 10**500 ticks high; the refusal states
    # a power of two, and stops folding stages once the height passes 2**150
    with pytest.raises(ValidationError, match=r"^line 2: construction\.depth: .* 2\^\d+ ticks") as exc:
        parse_config(FLOW.format(J=200))
    assert len(str(exc.value)) < 200


def test_flow_lag_finer_than_the_tick_scale_refused():
    # base stage 2 is h_2 = 1/p + 1 with p = 2**147 - 1, so with 2 slabs the
    # column is 4p + 3 ticks high, under 2**150; the lag h_1 = 1/(3p) needs
    # a 3 times finer scale, 12p + 9 ticks, past 2**150 (it used to exit 2
    # at run time)
    text = (
        "construction.kind = flow\n"
        "construction.cuts = 3\n"
        "construction.spacers = pattern:0,0,1\n"
        "construction.h1 = 1/535217884764734955396857238543560676143529981\n"
        "construction.depth = 3\n"
        "construction.base = 2\n"
        "experiment.f.kind = flow-limit\n"
        "experiment.f.stage = 1\n"
        "experiment.f.slabs = 2\n"
    )
    with pytest.raises(ValidationError, match=r"line 9: experiment\.f\.slabs: tick scale"):
        parse_config(text)
    assert parse_config(text.replace("stage = 1", "stage = 2")).J == 3


def test_largest_flow_lag_inside_the_column_accepted():
    plan = parse_config(FLOW.format(J=5) + "experiment.f.q = 5\n")
    assert plan.experiments[0].params["q"] == 5


def test_defaulted_flow_q_past_height_names_the_kind_line():
    # h_1 = 1/8 and h_2 = 3/4: the default q = 1 leaves no window [-q, 0]
    text = (
        "construction.kind = flow\n"
        "construction.cuts = 2\n"
        "construction.spacers = staircase\n"
        "construction.h1 = 1/8\n"
        "construction.depth = 2\n"
        "experiment.f.kind = flow-limit\n"
    )
    with pytest.raises(ValidationError, match=r"line 6: experiment\.f\.kind: q = 1 reaches"):
        parse_config(text)


def test_budget_flag_refusal_names_the_flag():
    # a budget of 2*10**34 time units grows the staircase to depth 31 (h_31
    # is 1.2e34), past the tick scale
    with pytest.raises(ValidationError, match=r"^--budget: tick scale too fine"):
        parse_config(FLOW.format(J=5), budget=2 * 10**34)


def test_flow_column_within_budgets_accepted():
    # staircase depth 30, the deepest under 2**150 ticks, with 16 slabs
    plan = parse_config(FLOW.format(J=30))
    assert plan.J == 30 and plan.experiments[0].params["slabs"] == 16
    # 2047 slabs make 2048**2 = 2**22 pair-count cells, the most allowed
    plan = parse_config(FLOW.format(J=2) + "experiment.f.slabs = 2047\n")
    assert plan.experiments[0].params["slabs"] == 2047


@pytest.mark.parametrize(
    "text, line, message",
    [
        (BASE.format(lags="l[J-1]"), 5, r"experiment\.scan\.lags: lag \d+ exceeds the reporting cap"),
        (BASE.format(lags="3") + "construction.base = 11\n", 6,
         r"construction\.base: base stage 11 outside 1\.\.10"),
        (BASE.format(lags="3") + "experiment.d.kind = disjointness\nexperiment.d.p = 1\n"
         "experiment.d.q = 3\nexperiment.d.N = 20000\n", 9, r"experiment\.d\.N: lag 60000 exceeds"),
    ],
    ids=["lag-cap", "base-stage", "disjointness-reach"],
)
def test_remaining_validation_errors_name_their_line(text, line, message):
    with pytest.raises(ValidationError, match=rf"line {line}: {message}"):
        parse_config(text)


# ---------------------------------------------------------------------------
# config fuzz: a mutated config is a config error, never anything else

SIX = """
construction.catalog = stochastic-chacon
construction.depth = 8
construction.seed = 3
construction.base = 2
experiment.scan.kind = limit-scan
experiment.scan.lags = l[J-2], -l[6]+1
experiment.scan.window = 4
experiment.scan.tolerance = 0.05
experiment.scan.max-power = 3
experiment.conv.kind = converge
experiment.conv.family = chacon-geometric
experiment.conv.M = 3
experiment.conv.lags = 2*l[5]
experiment.rig.kind = rigidity
experiment.rig.slack = 0.02
experiment.mix.kind = mixing
experiment.mix.lags = 1, l[4]
experiment.dis.kind = disjointness
experiment.dis.p = 1
experiment.dis.q = 2
experiment.dis.N = 16
experiment.tri.kind = triple
experiment.tri.m = 1
experiment.tri.n = -2
"""

FLOW_FUZZ = """
construction.kind = flow
construction.cuts = affine:1,1
construction.spacers = staircase
construction.h1 = 1
construction.depth = 5
experiment.f.kind = flow-limit
experiment.f.q = 1
experiment.f.stage = J-1
experiment.f.slabs = 4
"""

_FUZZ_VALUES = [
    "", "0", "-1", "1", "2", "7", "1e400", "-1e400", "inf", "nan", "1/0", "0.5",
    "3/2", "abc", "l[99]", "l[J]", "l[J]+1", "-l[J-1]-1", "h[2]", "2**70",
    "99999999999999999999", "-99999999999999999999", "1,,2", "1, 2, 3", "J-1",
    "J-40", "auto", "chacon", "stochastic", "identity", "converge", "flow-limit",
    "pattern:0,1", "pattern:-1", "pattern:1/0", "bernoulli:1e400", "bernoulli:2",
    "staircase", "affine:0,1", "explicit:2,x", "limit-scan", "transformation",
]


@st.composite
def _mutated_config(draw):
    base = draw(st.sampled_from([SIX, FLOW_FUZZ]))
    lines = base.strip().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, _ = lines[i].partition(" = ")
        op = draw(st.sampled_from(["value", "value", "drop", "duplicate", "key"]))
        if op == "value":
            lines[i] = f"{key} = {draw(st.sampled_from(_FUZZ_VALUES))}"
        elif op == "drop":
            del lines[i]
            if not lines:
                break
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            section = key.rsplit(".", 1)[0]
            other = draw(st.sampled_from(lines)).partition(" = ")[0].rsplit(".", 1)[-1]
            lines[i] = f"{section}.{other} = {draw(st.sampled_from(_FUZZ_VALUES))}"
    flags = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "seed": st.sampled_from([0, -1, 7, 2**70]),
                "budget": st.sampled_from([0, -5, 1, 100, 10**6, 10**30]),
            },
        )
    )
    return "\n".join(lines) + "\n", flags


# each of these once escaped parse_config as another exception, or hung
_LEAKS = [
    (SIX.replace("tolerance = 0.05", "tolerance = 1e400"), {}),
    (SIX.replace("slack = 0.02", "slack = -1e400"), {}),
    (SIX.replace("depth = 8", "depth = 8\nconstruction.a = 1e400"), {"seed": 2**70}),
    (FLOW_FUZZ.replace("affine:1,1", "99999999999999999999"), {"budget": 10**30}),
]


@given(case=_mutated_config())
@example(case=(SIX, {"budget": 0}))
@example(case=(SIX, {"budget": 1}))
@example(case=_LEAKS[0])
@example(case=_LEAKS[1])
@example(case=_LEAKS[2])
@example(case=_LEAKS[3])
@settings(max_examples=150, deadline=None)
def test_mutated_config_raises_only_config_errors(case):
    text, flags = case
    try:
        parse_config(text, **flags)
    except (ParseError, ValidationError) as exc:
        # every refusal names a line, or the flag that set the value
        message = str(exc)
        assert message == "config declares no experiments" or re.search(
            r"line \d+|lines \d+|--budget|--seed", message
        ), message


def test_mutated_config_sample_exits_one_without_traceback(tmp_path):
    rng = random.Random(0)
    sample = list(_LEAKS)
    while len(sample) < 8:
        lines = SIX.strip().splitlines()
        i = rng.randrange(len(lines))
        lines[i] = lines[i].partition(" = ")[0] + " = " + rng.choice(_FUZZ_VALUES)
        text = "\n".join(lines) + "\n"
        try:
            parse_config(text)
        except (ParseError, ValidationError):
            sample.append((text, {}))
    env = dict(os.environ, PYTHONPATH=str(Path(rankone.__file__).parents[1]))
    for k, (text, flags) in enumerate(sample):
        cfg = tmp_path / f"fuzz{k}.cfg"
        cfg.write_text(text)
        argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
        for flag, value in flags.items():
            argv += [f"--{flag}", str(value)]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rankone.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, (text, flags, proc.stderr)
        assert "Traceback" not in proc.stderr, (text, flags, proc.stderr)
