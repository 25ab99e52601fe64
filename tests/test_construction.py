"""Schedules, realization, and exact tower heights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import _rng
from rankone.construction import (
    AffineCuts,
    BernoulliSpacers,
    ConstantCuts,
    ConstructionSchedule,
    ExplicitCuts,
    PatternSpacers,
    StageSpacers,
    CUT_BUDGET,
    StaircaseSpacers,
    catalog,
    catalog_names,
    heights,
    realize,
    validate_schedule,
)
from rankone.errors import (
    CutBudgetExceeded,
    MalformedRule,
    NegativeSpacer,
    NonPositiveCut,
    UnknownName,
    UnrealizedStochastic,
)


def test_chacon_heights_closed_form():
    # l_{j+1} = 2 l_j + 1 with l_1 = 1, so l_j = 2^j - 1
    rz = realize(catalog("chacon"), 200)
    hs = heights(rz, 200)
    for j in (1, 2, 5, 50, 200):
        assert hs[j - 1] == 2**j - 1


def test_modified_chacon_heights_closed_form():
    # l_{j+1} = 3 l_j + 1, l_1 = 1: l_j = (3^j - 1) / 2
    rz = realize(catalog("modified-chacon"), 200)
    hs = heights(rz, 200)
    for j in (1, 3, 10, 100, 200):
        assert hs[j - 1] == (3**j - 1) // 2


def test_odometer_heights():
    rz5 = realize(catalog("odometer5"), 40)
    assert heights(rz5, 40) == [5 ** (j - 1) for j in range(1, 41)]
    rz2 = realize(catalog("dyadic-odometer"), 40)
    assert heights(rz2, 40) == [2 ** (j - 1) for j in range(1, 41)]


def test_spaced_odometer_recursion():
    rz = realize(catalog("spaced-odometer5"), 12)
    hs = heights(rz, 12)
    assert hs[0] == 1
    for j in range(1, 12):
        assert hs[j] == 5 * hs[j - 1] + 8


def test_staircase_flow_heights_exact():
    rz = realize(catalog("staircase-flow"), 3)
    assert heights(rz, 3) == [Fraction(1), Fraction(5, 2), Fraction(17, 2)]
    assert all(isinstance(h, Fraction) for h in heights(rz, 3))


def test_catalog_names_cover_both_kinds():
    names = catalog_names()
    kinds = {catalog(n).kind for n in names}
    assert kinds == {"transformation", "flow"}
    assert "chacon" in names and "staircase-flow" in names


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        catalog("chacon2")


def test_stochastic_catalog_parameter_in_name():
    sched = catalog("stochastic-chacon", a=0.25)
    assert "0.25" in sched.name
    assert sched.stochastic


def test_nonpositive_cut_rejected():
    bad = ConstructionSchedule("transformation", ConstantCuts(1), PatternSpacers((0,)))
    with pytest.raises(NonPositiveCut):
        validate_schedule(bad)
    with pytest.raises(NonPositiveCut):
        realize(bad, 4)


def test_cut_budget_refused_before_any_spacer_is_built():
    wide = ConstructionSchedule("flow", ConstantCuts(10**20), StaircaseSpacers())
    with pytest.raises(CutBudgetExceeded):
        validate_schedule(wide)
    with pytest.raises(CutBudgetExceeded):
        realize(wide, 2)
    # each stage fits, but the deep stages of the rule add up past the budget
    deep = ConstructionSchedule(
        "transformation", AffineCuts(300, 0), BernoulliSpacers(0.5)
    )
    validate_schedule(deep)  # 624,000 cuts over the validation horizon
    assert realize(deep, 3, seed=1).depth == 3
    with pytest.raises(CutBudgetExceeded):
        realize(deep, 90, seed=1)  # refused before any spacer is drawn
    assert sum(300 * j for j in range(1, 89)) > CUT_BUDGET


def test_negative_spacer_rejected():
    bad = ConstructionSchedule(
        "transformation", ConstantCuts(2), PatternSpacers((0, -1))
    )
    with pytest.raises(NegativeSpacer):
        realize(bad, 4)


def test_pattern_length_must_match_cuts():
    bad = ConstructionSchedule(
        "transformation", ConstantCuts(3), PatternSpacers((0, 1))
    )
    with pytest.raises(MalformedRule):
        realize(bad, 4)


def test_flow_spacers_on_transformation_rejected():
    bad = ConstructionSchedule(
        "transformation", ConstantCuts(2), PatternSpacers((Fraction(1, 2), 0))
    )
    with pytest.raises(MalformedRule):
        realize(bad, 3)


def test_unknown_kind_rejected():
    with pytest.raises(MalformedRule):
        ConstructionSchedule("semiflow", ConstantCuts(2), PatternSpacers((0, 0)))


def test_stochastic_needs_seed():
    sched = catalog("stochastic-chacon")
    with pytest.raises(UnrealizedStochastic):
        realize(sched, 6)


def test_realize_deterministic_and_prefix_stable():
    sched = catalog("stochastic-chacon")
    a = realize(sched, 12, seed=5)
    b = realize(sched, 12, seed=5)
    assert a.stages == b.stages
    short = realize(sched, 6, seed=5)
    assert short.stages == a.stages[:5]
    other = realize(sched, 12, seed=6)
    assert other.stages != a.stages


def test_realize_records_seed_and_depth():
    rz = realize(catalog("stochastic-chacon"), 9, seed=3)
    assert rz.seed == 3
    assert rz.depth == 9
    r, vec = rz.stage(4)
    assert r == 5 and len(vec) == 5  # affine cuts: r_j = j + 1


def test_bernoulli_draw_statistics():
    sched = ConstructionSchedule(
        "transformation", ConstantCuts(40), BernoulliSpacers(0.3), name="b"
    )
    rz = realize(sched, 60, seed=11)
    flat = [s for _, vec in rz.stages for s in vec]
    assert set(flat) <= {0, 1}
    zero_rate = flat.count(0) / len(flat)
    assert abs(zero_rate - 0.3) < 0.04  # 2360 draws, sigma ~ 0.009


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -12345, 2**64 + 987])
def test_uniforms_equal_the_reference_draws(seed):
    # uniform is the reference; uniforms reduces the seed mod 2**64 first
    u = _rng.uniforms(seed, 0, 10**6 + 1)
    ks = list(range(0, 10**6 + 1, 997)) + [10**6]
    assert [u[k] for k in ks] == [_rng.uniform(seed, k) for k in ks]
    assert _rng.uniforms(seed, 10**6 - 50, 51).tolist() == [
        _rng.uniform(seed, k) for k in range(10**6 - 50, 10**6 + 1)
    ]
    rule = BernoulliSpacers(0.3)
    assert rule.draw(seed, 500, 77) == tuple(
        0 if _rng.uniform(seed, 77 + i) < 0.3 else 1 for i in range(500)
    )


def test_explicit_cuts_last_value_repeats():
    sched = ConstructionSchedule(
        "transformation",
        ExplicitCuts([2, 3]),
        StageSpacers([(0, 0), (1, 0, 1)]),
    )
    rz = realize(sched, 5)
    assert [rz.stage(j)[0] for j in range(1, 5)] == [2, 3, 3, 3]
    assert rz.stage(4)[1] == (1, 0, 1)


def test_staircase_damping_divides_by_stage():
    plain = StaircaseSpacers()
    damped = StaircaseSpacers(damping=True)
    assert plain.value(3, 4, None, 0) == tuple(Fraction(i, 4) for i in range(4))
    assert damped.value(3, 4, None, 0) == tuple(Fraction(i, 12) for i in range(4))


@given(
    rs=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
    J=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_heights_match_direct_recursion(rs, J):
    spacer_stages = [tuple(range(r))[:r] for r in rs]  # s_j(i) = i - 1
    sched = ConstructionSchedule(
        "transformation", ExplicitCuts(rs), StageSpacers(spacer_stages)
    )
    rz = realize(sched, J)
    hs = heights(rz, J)
    cur = 1
    assert hs[0] == 1
    for j in range(1, J):
        r, vec = rz.stage(j)
        cur = cur * r + sum(vec)
        assert hs[j] == cur


@given(seed=st.integers(min_value=0, max_value=2**32), J=st.integers(4, 10))
@settings(max_examples=25, deadline=None)
def test_stochastic_prefix_property(seed, J):
    sched = catalog("stochastic-chacon", a=0.5)
    deep = realize(sched, J, seed=seed)
    shallow = realize(sched, max(2, J - 2), seed=seed)
    assert deep.stages[: len(shallow.stages)] == shallow.stages
