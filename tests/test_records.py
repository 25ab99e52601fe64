"""The record helper behind every result and schedule type: equality, hash,
repr, replace, immutability, argument binding and the validations the
records run when they are built."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rankone
from rankone import config
from rankone._record import record, replace
from rankone.construction import (
    BernoulliSpacers,
    ConstantCuts,
    ConstructionSchedule,
    ExplicitCuts,
    PatternSpacers,
    StaircaseSpacers,
    catalog,
    realize,
)
from rankone.errors import MalformedRule
from rankone.flows import FlowColumn
from rankone.reports import ExperimentResult, Report

CHACON = ConstructionSchedule("transformation", ConstantCuts(3), PatternSpacers((0, 1, 0)))


def test_equality_within_a_type_only():
    assert ConstantCuts(3) == ConstantCuts(r=3)
    assert ConstantCuts(3) != ConstantCuts(4)
    assert ExplicitCuts([2, 3]) == ExplicitCuts((2, 3))
    # one field each, the same value: still unequal, and never a tuple
    assert ExplicitCuts([4]) != PatternSpacers([4])
    assert ConstantCuts(4) != (4,)


def test_hash_repr_and_replace():
    assert hash(ConstantCuts(3)) == hash(ConstantCuts(3)) == hash((3,))
    assert len({CHACON, replace(CHACON, name="")}) == 1
    assert repr(ConstantCuts(3)) == "ConstantCuts(r=3)"
    assert repr(StaircaseSpacers()) == "StaircaseSpacers(damping=False)"
    assert repr(ExplicitCuts([2])) == "ExplicitCuts(values=(2,))"
    renamed = replace(CHACON, name="chacon")
    assert renamed.name == "chacon" and CHACON.name == ""
    assert (renamed.kind, renamed.cuts, renamed.spacers, renamed.h1) == (
        CHACON.kind, CHACON.cuts, CHACON.spacers, CHACON.h1
    )
    assert replace(ExplicitCuts([2, 3]), values=[4]) == ExplicitCuts([4])
    with pytest.raises(TypeError):
        replace(CHACON, depth=3)


def test_fields_cannot_be_assigned_or_deleted():
    result = ExperimentResult(label="a", kind="mixing", status="ok")
    report = Report(plan={}, results=[result], wall_time_s=0.0, stem="r")
    for obj, name in [(CHACON, "name"), (result, "status"), (report, "stem")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, "x")
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        CHACON.extra = 1


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3), {}), ((1,), {"b": 2, "c": 3}), ((1,), {"a": 1, "b": 2})],
    ids=["missing", "too-many", "unexpected", "repeated"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    @record
    class Pair:
        a: int
        b: int = 0

    assert Pair(1) == Pair(a=1, b=0) == Pair(1, 0)
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_validations_still_raise():
    with pytest.raises(MalformedRule):
        ExplicitCuts([])
    with pytest.raises(MalformedRule):
        BernoulliSpacers(1.5)
    with pytest.raises(MalformedRule):
        ConstructionSchedule("map", ConstantCuts(2), PatternSpacers((0, 0)))
    with pytest.raises(ValueError):
        FlowColumn(realize(catalog("staircase-flow"), 2), 2, 1, 1)


def test_custom_init_and_post_init_still_run():
    assert ExplicitCuts([2, 3.0]).values == (2, 3)
    assert CHACON.h1 == 0
    flow = ConstructionSchedule("flow", ConstantCuts(2), StaircaseSpacers())
    assert flow.h1 == Fraction(1) and isinstance(flow.h1, Fraction)
    assert replace(CHACON, h1=5).h1 == 5


def test_section_names_the_keys_left_unused():
    sec = config._Section(config._tokenize("a.x = 1\na.y = 2\na.z = 3\n"))
    assert sec.take("a.x").value == "1"
    assert sec.take("a.w") is None
    assert [e.key for e in sec.unused()] == ["a.y", "a.z"]


def test_no_class_is_a_dataclass():
    classes = [
        obj
        for name, mod in list(sys.modules.items())
        if name.startswith("rankone.")
        for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == name
    ]
    assert sum(hasattr(cls, "_fields") for cls in classes) >= 29
    assert not [cls for cls in classes if hasattr(cls, "__dataclass_fields__")]


def test_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(Path(rankone.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import rankone, sys; sys.exit('dataclasses' in sys.modules)"],
        env=env, timeout=60,
    )
    assert proc.returncode == 0
