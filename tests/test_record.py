"""The value-record base: construction, equality, hashing, repr and replace as
the package's value classes rely on them, and an import of tacsim that loads
neither ``dataclasses`` nor ``configparser``."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacsim
from tacsim.disturbance import SnrReport
from tacsim.grasp import (
    TRACE_DTYPE,
    Egg,
    GraspTrace,
    GripperGeometry,
    GripperState,
    HysteresisPolicy,
    NoObject,
    RigidObject,
    SingleThreshold,
    Tweezers,
)
from tacsim.magnets import MagnetSpec
from tacsim.pipeline import StreamConfig
from tacsim.record import Record, astuple, fresh, replace
from tacsim.sensor import ContactStimulus, Environment


class Point(Record):
    x: float
    y: float = 0.0


class Pair(Record):
    x: float
    y: float = 0.0


class Frozen(Record, frozen=True):
    x: float
    y: float = 0.0


class Bag(Record):
    items: list = fresh(list)


def test_fields_by_position_or_keyword_with_class_defaults():
    assert astuple(Point(1.0)) == (1.0, 0.0)
    assert astuple(Point(1.0, 2.0)) == astuple(Point(y=2.0, x=1.0)) == (1.0, 2.0)
    spec = MagnetSpec(0.01, diameter_mm=2.0)
    assert astuple(spec) == (0.01, 1.0, 2.0, 2)
    assert astuple(NoObject()) == ()


def test_equality_is_by_value_and_type_strict():
    assert Point(1.0, 2.0) == Point(1.0, 2.0)
    assert Point(1.0, 2.0) != Point(1.0, 3.0)
    assert Point(1.0, 2.0) != Pair(1.0, 2.0)
    assert Point(1.0, 2.0) != (1.0, 2.0)
    # the grasp's replay key holds policies and geometry: equal fields, other class
    assert SingleThreshold(blend=0.3) != HysteresisPolicy(blend=0.3)
    assert RigidObject(45.0, 5.0) != Egg(45.0, 5.0)
    assert GripperGeometry() == GripperGeometry()
    assert GripperGeometry() != astuple(GripperGeometry())
    assert NoObject() == NoObject()


def test_frozen_fields_refuse_assignment_and_deletion():
    point = Frozen(1.0)
    with pytest.raises(AttributeError):
        point.x = 2.0
    with pytest.raises(AttributeError):
        del point.y
    with pytest.raises(AttributeError):
        Tweezers().object_size_mm = 1.0
    assert point.x == 1.0
    loose = Point(1.0)
    loose.x = 2.0
    assert loose.x == 2.0


def test_frozen_records_hash_by_value_and_key_caches():
    assert hash(Frozen(1.0, 2.0)) == hash(Frozen(1.0, 2.0))
    assert hash(ContactStimulus(force_n=(0.0, 0.0, 1.0))) == hash(ContactStimulus(force_n=(0.0, 0.0, 1.0)))
    assert len({MagnetSpec(0.01), MagnetSpec(0.01), MagnetSpec(0.02)}) == 2
    calls = []

    @functools.lru_cache
    def seen(key):
        calls.append(key)
        return len(calls)

    assert seen(Frozen(1.0)) == seen(Frozen(1.0)) == 1
    assert seen(Frozen(2.0)) == 2
    # mutable records are unhashable, as their fields may change
    for record in (Point(1.0), StreamConfig(), GripperState()):
        with pytest.raises(TypeError):
            hash(record)


def test_replace_builds_a_new_record_and_checks_it_again():
    tweezers = Tweezers()
    smaller = replace(tweezers, object_size_mm=4.0)
    assert smaller == Tweezers(object_size_mm=4.0) and smaller is not tweezers
    assert tweezers.object_size_mm == 6.0
    with pytest.raises(ValueError, match="fit between the open tips"):
        replace(tweezers, object_size_mm=tweezers.tip_gap_mm + 1.0)
    with pytest.raises(ValueError):
        replace(StreamConfig(), baseline_tail=400)
    with pytest.raises(TypeError):
        replace(tweezers, size_mm=4.0)


@pytest.mark.parametrize("make", [
    lambda: MagnetSpec(),  # missing a field without a default
    lambda: Point(),
    lambda: StreamConfig(rate_hz=250),  # a name that is no field
    lambda: StreamConfig(250, sample_rate_hz=250),  # a field given twice
    lambda: Point(1.0, 2.0, 3.0),  # more positions than fields
    lambda: NoObject(1.0),
], ids=["missing", "missing-first", "unexpected", "duplicated", "too-many", "too-many-none"])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_defaults_are_not_shared_between_instances():
    a, b = GripperState(), GripperState()
    a.halted[0] = True
    a.motor_deg += 1.5
    assert not b.halted.any() and not b.motor_deg.any()
    assert not GripperState().halted.any()
    assert Bag().items is not Bag().items
    report = SnrReport(*[np.zeros(1)] * 5)
    report.out_files.append("x.csv")
    assert SnrReport(*[np.zeros(1)] * 5).out_files == []
    # defaults that __post_init__ turns into arrays are made anew too
    assert Environment().earth_field_ut is not Environment().earth_field_ut


def test_post_init_runs_after_the_fields_are_set():
    env = Environment(earth_field_ut=[1, 2, 3], seed=5)
    assert env.earth_field_ut.dtype == float
    assert env.rng.integers(1 << 30) == np.random.default_rng(5).integers(1 << 30)
    with pytest.raises(ValueError):
        StreamConfig(ma_window=0)


def test_repr_names_every_shown_field_in_order():
    assert repr(GripperGeometry()) == (
        "GripperGeometry(opening_mm=50.0, pinion_radius_mm=6.0, increment_deg=1.5, max_travel_deg=200.0)")
    assert repr(NoObject()) == "NoObject()"
    env = Environment(seed=3)
    assert "rng" not in repr(env) and "seed=3" in repr(env)
    # a trace's replay data is set after construction, as rng is: no field, so not shown or compared
    rows, state = np.recarray(0, TRACE_DTYPE), GripperState()
    trace = GraspTrace(rows, [], state)
    assert trace.replay is None
    trace.replay = ("key",)
    assert "replay" not in repr(trace) and "'key'" not in repr(trace)
    assert trace == GraspTrace(rows, [], state)
    with pytest.raises(TypeError):
        GraspTrace(rows, [], state, replay=("key",))


def test_import_tacsim_loads_neither_dataclasses_nor_configparser():
    src = str(Path(tacsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy, numpy.random\n"
            "before = set(sys.modules)\n"
            "import tacsim\n"
            "print(' '.join(sorted({'dataclasses', 'configparser'} & (set(sys.modules) - before))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
