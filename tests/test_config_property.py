"""Property tests over every config key: a value is refused at load, or its study runs.

Hypothesis draws raw values for each key: integers, floats with their
extremes, comma lists, location lists, junk text and values within the key's
entry.  A value either loads into a Config whose numbers are all finite or
raises ConfigError.  Every value that loads is given to the study that reads
the key, through ``tacsim.cli.main``: it exits 0 or 1 with no traceback, and
on exit 0 every number it wrote is finite.  The studies run on a small base
config (short windows, few grid points, few grasp ticks) so that the sweep over
all keys stays quick; the key under test always takes the drawn value.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tacsim import cli
from tacsim.config import SCHEMA, load_config
from tacsim.errors import ConfigError
from tacsim.pipeline import decode_frames

KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys]

# Small windows and grids per study; every one is overridden by the key under test.
BASE = {
    "characterize": ["characterize.locations=6.25,6.25", "characterize.force_max_n=0.5",
                     "characterize.shear_max_n=0.25", "characterize.dwell_frames=4",
                     "characterize.tail_frames=2"],
    "disturbance": ["disturbance.dwell_frames=4", "disturbance.tail_frames=2",
                    "disturbance.repeats=1"],
    "grasp": ["grasp.max_ticks=100", "grasp.tweezers_sizes_mm=2,4", "stream.ma_window=1"],
    "snr-sweep": [],
    "stream": ["stream.rate_hz=1", "stream.duration_s=2"],
}
INIT = ["stream.init_samples=20", "stream.baseline_tail=10"]

# The study that reads each section's keys, and the exceptions to it.
STUDY = {
    "sensor": "disturbance",
    "elastomer": "characterize",
    "noise": "stream",
    "environment": "disturbance",
    "stream": "characterize",
    "characterize": "characterize",
    "disturbance": "disturbance",
    "snr": "snr-sweep",
    "grasp": "grasp",
}
STUDY_OF_KEY = {
    "stream.fingers": "stream",
    "stream.duration_s": "stream",
    "stream.binary": "stream",
    "stream.rate_hz": "grasp",
}
# Grasp keys are read only with the object or policy they belong to.
GRASP_CONTEXT = {
    "close_above": ["grasp.policy=hysteresis"],
    "release_below": ["grasp.policy=hysteresis"],
    "hold_s": ["grasp.policy=hysteresis"],
    "rigid_": ["grasp.object=rigid"],
    "tweezers_": ["grasp.object=tweezers", "grasp.policy=hysteresis", "grasp.opening_mm=32"],
}

NUMBERS = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "1e-300", "1e300", "-1e300"]),
)
LOCATIONS = st.lists(
    st.tuples(st.floats(-2.0, 12.0), st.floats(-2.0, 12.0)), min_size=1, max_size=3
).map(lambda pairs: ";".join(f"{x!r},{y!r}" for x, y in pairs))


def in_range(spec):
    """Values within the key's own entry (cross-key rules may still refuse them)."""
    if isinstance(spec.default, bool) or spec.choices:
        return st.sampled_from([str(c) for c in spec.choices] or ["true", "false"])
    if isinstance(spec.default, str):
        return LOCATIONS
    low = spec.gt if spec.gt is not None else spec.ge
    if isinstance(spec.default, int):
        return st.integers(low, spec.le).map(str)
    number = st.floats(low, spec.le, exclude_min=spec.gt is not None)
    if isinstance(spec.default, tuple):
        sizes = {"min_size": spec.length or 1, "max_size": spec.length or 6}
        return st.lists(number, **sizes).map(lambda values: ",".join(map(repr, values)))
    return number.map(repr)


def raw_values(key):
    section, name = key.split(".")
    return st.one_of(
        NUMBERS,
        st.lists(NUMBERS, min_size=1, max_size=6).map(",".join),
        LOCATIONS,
        st.text(max_size=12),
        in_range(SCHEMA[section][name]),
    )


def study_argv(key):
    section, name = key.split(".")
    study = STUDY_OF_KEY.get(key, STUDY[section])
    context = [o for prefix, ctx in GRASP_CONTEXT.items() if name.startswith(prefix) for o in ctx]
    return [study], INIT + BASE[study] + (context if section == "grasp" else [])


def _finite_numbers(cfg):
    for section in SCHEMA:
        for value in cfg.section(section).values():
            if isinstance(value, float) and not math.isfinite(value):
                return False
            if isinstance(value, tuple) and not all(map(math.isfinite, value)):
                return False
    return all(math.isfinite(v) for pair in cfg.locations() for v in pair)


def _loads(override):
    try:
        load_config(overrides=[override])
    except ConfigError:
        return False
    return True


NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _assert_outputs_finite(out):
    for path in out.iterdir():
        if path.suffix == ".bin":
            for frame in decode_frames(path.read_bytes()):
                assert np.isfinite(frame.sa2).all(), path.name
        else:
            assert not NON_FINITE.search(path.read_text()), f"non-finite number in {path.name}"


@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_value_loads_with_finite_numbers_or_is_refused(key, data):
    override = f"{key}={data.draw(raw_values(key), label='raw')}"
    try:
        cfg = load_config(overrides=[override])
    except ConfigError:
        return
    assert _finite_numbers(cfg), override


@pytest.mark.parametrize("key", KEYS)
@settings(
    max_examples=2,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_accepted_value_runs_its_study(key, data, tmp_path_factory):
    section, name = key.split(".")
    values = st.one_of(in_range(SCHEMA[section][name]), raw_values(key))
    override = data.draw(values.map(lambda raw: f"{key}={raw}").filter(_loads), label="override")
    command, base = study_argv(key)
    try:
        load_config(overrides=base + [override])
        allowed = {0, 1}
    except ConfigError:
        allowed = {2}  # the drawn value breaks a cross-key rule with the small base
    out = tmp_path_factory.mktemp("run")
    argv = command + ["--out", str(out)] + [a for o in base + [override] for a in ("--set", o)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in allowed, f"{override}: exit {code}: {err.getvalue()}"
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _assert_outputs_finite(out)
