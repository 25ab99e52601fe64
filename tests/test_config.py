"""Config parsing, lag grammar, and plan resolution."""

from fractions import Fraction

import pytest

from rankone.config import parse_config
from rankone.construction import heights
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
        "tolerance": 1e-4,
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
    ],
)
def test_alphabet_limits_checked_at_config_time(base, experiment, refused):
    # chacon has l_j = 2**j - 1, so base j gives 2**j symbols: the triple
    # limit S**3 <= 2**24 admits base 8, the S**4 <= 2**22 limit base 5
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
