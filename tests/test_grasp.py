import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tacsim import grasp, pipeline
from tacsim.errors import CrushDetected, GraspFailed, RankDeficientFit
from tacsim.grasp import (
    TRACE_DTYPE,
    Egg,
    GraspSimulation,
    GraspTrace,
    GripperGeometry,
    GripperState,
    HysteresisPolicy,
    NoObject,
    Phase,
    RigidObject,
    SingleThreshold,
    Tweezers,
    controller_step,
    grip_signal,
    tweezers_linearity_study,
)
from tacsim.pipeline import RelativeFrame, StreamConfig, StreamProcessor
from tacsim.sensor import ContactStimulus, Environment, TactileSensor, travel_stop_force_n

DT = 1.0 / 250.0
GEO = GripperGeometry()
QUIET = {"fa1_noise_counts": 0.0, "sa2_noise_ut": 0.0, "quantization_ut": 0.0}


def simulation(obj, policy, seed, **env_kwargs):
    """Library-default fingertips, no earth field, finger f seeded (seed, f)."""
    sensors = [
        TactileSensor(env=Environment(seed=(seed, f), **env_kwargs), finger_id=f)
        for f in range(2)
    ]
    return GraspSimulation(obj, policy, sensors)


def tweezers_grasp(seed, max_ticks=2500, **env_kwargs):
    """The linearity study's per-size grasp: hysteresis policy on default tweezers."""
    def grasp(size):
        sim = simulation(Tweezers(object_size_mm=size), HysteresisPolicy(), seed, **env_kwargs)
        return sim.run(max_ticks=max_ticks)
    return grasp


def rel(fa1_sum=0.0, sa2=(0.0, 0.0, 0.0)):
    """One (19,) relative row: 16 equal taxels, then the 3 flux axes."""
    return np.concatenate([np.full(16, fa1_sum / 16.0), sa2])


def scalar_grip_signal(rel_frame, blend):
    """The grip signal as it was written per ``RelativeFrame``, scalar by scalar."""
    db = np.asarray(rel_frame.sa2, dtype=float)
    normal = blend * db[2] + (1.0 - blend) * float(np.sum(rel_frame.fa1))
    return float(np.sqrt(db[0] ** 2 + db[1] ** 2 + normal**2))


def closing_state():
    return GripperState(phase=Phase.CLOSING)


# ---------------------------------------------------------------------------
# grip signal
# ---------------------------------------------------------------------------

def test_signal_pure_shear_is_planar_norm():
    assert grip_signal(rel(sa2=(3.0, 4.0, 0.0)), 0.3) == pytest.approx(5.0, rel=1e-12)


def test_signal_zero_frame_is_zero():
    assert grip_signal(rel(), 0.3) == 0.0


def test_signal_blends_normal_channels():
    # 0.3 * 10 + 0.7 * 100 = 73
    assert grip_signal(rel(fa1_sum=100.0, sa2=(0.0, 0.0, 10.0)), 0.3) == pytest.approx(73.0)


def test_signal_invariant_to_shear_direction(rng):
    for _ in range(25):
        mag = rng.uniform(0.0, 300.0)
        theta = rng.uniform(0.0, 2 * np.pi)
        frame = rel(fa1_sum=500.0, sa2=(mag * np.cos(theta), mag * np.sin(theta), 40.0))
        base = rel(fa1_sum=500.0, sa2=(mag, 0.0, 40.0))
        assert grip_signal(frame, 0.3) == pytest.approx(grip_signal(base, 0.3), rel=1e-12)


@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
def test_grip_signal_rows_match_the_scalar_formula(magnitude):
    rng = np.random.default_rng(20260814)
    rows = magnitude * rng.normal(size=(2000, 2, 19))
    got = grip_signal(rows, 0.3)
    assert got.shape == (2000, 2)
    want = np.array([
        [scalar_grip_signal(RelativeFrame(0, f, r[:16], r[16:]), 0.3) for f, r in enumerate(pair)]
        for pair in rows
    ])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# policies and objects
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, kwargs", [
    (SingleThreshold, {"threshold": NAN}),
    (SingleThreshold, {"threshold": INF}),
    (SingleThreshold, {"blend": NAN}),
    (HysteresisPolicy, {"blend": 1.5}),
    (HysteresisPolicy, {"close_above": NAN}),
    (HysteresisPolicy, {"release_below": NAN}),
    (HysteresisPolicy, {"close_above": INF}),
    (HysteresisPolicy, {"hold_s": NAN}),
    (HysteresisPolicy, {"hold_s": INF}),
    (HysteresisPolicy, {"hold_s": -1.0}),
    (Egg, {"size_mm": NAN}),
    (Egg, {"stiffness_n_per_mm": INF}),
    (Egg, {"crush_force_n": NAN}),
    (Tweezers, {"outer_width_mm": NAN}),
    (Tweezers, {"tip_gap_mm": INF}),
    (Tweezers, {"arm_rate_n_per_mm": INF}),
    (Tweezers, {"spring_rate_n_per_mm": NAN}),
    (Tweezers, {"tip_ratio": INF}),
    (GripperGeometry, {"increment_deg": NAN}),
    (GripperGeometry, {"opening_mm": INF}),
    (GripperGeometry, {"max_travel_deg": 0.0}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_grasp_parameters_must_be_finite(build, kwargs):
    # a NaN crush force, for one, would let the egg take any force uncrushed
    with pytest.raises(ValueError):
        build(**kwargs)


def test_policy_validation():
    with pytest.raises(ValueError):
        SingleThreshold(threshold=0.0)
    with pytest.raises(ValueError):
        HysteresisPolicy(close_above=500.0, release_below=500.0)
    with pytest.raises(ValueError):
        HysteresisPolicy(close_above=400.0, release_below=600.0)
    assert SingleThreshold(700.0).close_threshold == 700.0
    assert HysteresisPolicy().close_threshold == 900.0


def test_object_validation():
    with pytest.raises(ValueError):
        Egg(stiffness_n_per_mm=0.0)
    with pytest.raises(ValueError):
        Egg(crush_force_n=-1.0)
    with pytest.raises(ValueError):
        Tweezers(object_size_mm=20.0, tip_gap_mm=12.0)
    with pytest.raises(ValueError):
        Tweezers(arm_rate_n_per_mm=0.0)


@pytest.mark.parametrize("kwargs", [
    {"stiffness_n_per_mm": -1.0}, {"stiffness_n_per_mm": 0.0},
    {"stiffness_n_per_mm": float("nan")}, {"stiffness_n_per_mm": float("inf")},
    {"size_mm": float("nan")}, {"size_mm": float("inf")}, {"size_mm": -float("inf")},
])
def test_rigid_object_refuses_what_breaks_a_falling_force(kwargs):
    # a negative stiffness makes the force rise with separation, against the
    # contract the grasp's lookahead rests on
    with pytest.raises(ValueError):
        RigidObject(**kwargs)


@pytest.mark.parametrize("tip_ratio", [0.0, -1.0, float("nan")])
def test_tweezers_refuse_a_tip_ratio_that_is_not_positive(tip_ratio):
    # 0.0 used to raise ZeroDivisionError from contact_force
    with pytest.raises(ValueError):
        Tweezers(tip_ratio=tip_ratio)


def test_contact_force_shapes():
    assert NoObject().contact_force(1.0) == 0.0
    assert RigidObject().contact_force(50.0) == 0.0
    assert RigidObject().contact_force(39.0) == pytest.approx(500.0)
    egg = Egg()
    assert egg.contact_force(46.0) == 0.0
    assert egg.contact_force(44.0) == pytest.approx(5.0)


def test_tweezers_piecewise_force():
    tw = Tweezers()  # arms at 30 mm, tips at 12 mm, object 6 mm
    assert tw.contact_force(31.0) == 0.0
    assert tw.contact_force(25.0) == pytest.approx(0.02 * 5.0)  # arms only
    assert tw.contact_force(23.0) == pytest.approx(0.02 * 7.0 + 0.2 * 1.0)  # tips met object
    seps = np.linspace(32.0, 18.0, 100)
    forces = [tw.contact_force(s) for s in seps]
    assert all(b >= a - 1e-12 for a, b in zip(forces, forces[1:]))


def positive(high):
    return st.floats(1e-3, high, allow_nan=False, allow_infinity=False)


@st.composite
def tweezers(draw):
    tip_gap = draw(positive(100.0))
    return Tweezers(
        object_size_mm=draw(st.floats(0.0, tip_gap)), outer_width_mm=draw(positive(200.0)),
        tip_gap_mm=tip_gap, arm_rate_n_per_mm=draw(positive(10.0)),
        spring_rate_n_per_mm=draw(positive(1e3)), tip_ratio=draw(positive(10.0)),
    )


OBJECTS = st.one_of(
    st.just(NoObject()),
    st.builds(RigidObject, size_mm=positive(1e3), stiffness_n_per_mm=positive(1e6)),
    st.builds(Egg, size_mm=positive(1e3), stiffness_n_per_mm=positive(1e6), crush_force_n=positive(1e6)),
    tweezers(),
)
SEPARATIONS = st.floats(-1e3, 1e3, allow_nan=False)


@given(OBJECTS, SEPARATIONS, SEPARATIONS)
def test_contact_force_never_rises_with_separation(obj, a, b):
    # GraspSimulation merges closing segments on this: unchanged force at the
    # farthest reachable motor pair means unchanged force at every pair
    near, far = sorted((a, b))
    assert obj.contact_force(near) >= obj.contact_force(far)


# ---------------------------------------------------------------------------
# controller state machine (synthetic signals)
# ---------------------------------------------------------------------------

def test_idle_and_done_ignore_signal():
    for phase in (Phase.IDLE, Phase.DONE):
        state = GripperState(phase=phase)
        inc, events = controller_step(state, SingleThreshold(), [1e6, 1e6], GEO, DT)
        assert inc.tolist() == [0, 0] and events == []
        assert state.phase is phase


def test_closing_steps_both_fingers_below_threshold():
    state = closing_state()
    inc, events = controller_step(state, SingleThreshold(), [0.0, 0.0], GEO, DT)
    assert inc.tolist() == [1, 1] and events == []
    np.testing.assert_allclose(state.motor_deg, [1.5, 1.5])


def test_threshold_crossing_halts_and_holds():
    state = closing_state()
    inc, events = controller_step(state, SingleThreshold(700.0), [800.0, 650.0], GEO, DT)
    assert inc.tolist() == [0, 1]
    assert "halt_finger0" in events and state.phase is Phase.CLOSING
    inc, events = controller_step(state, SingleThreshold(700.0), [800.0, 750.0], GEO, DT)
    assert inc.tolist() == [0, 0]
    assert "halt_finger1" in events and "hold_start" in events
    assert state.phase is Phase.HOLDING
    np.testing.assert_allclose(state.motor_deg, [0.0, 1.5])


def test_gate_off_freezes_motion():
    state = closing_state()
    inc, events = controller_step(state, SingleThreshold(), [1e6, 1e6], GEO, DT, step_gate=False)
    assert inc.tolist() == [0, 0] and events == []
    assert state.phase is Phase.CLOSING and not state.halted.any()


def test_travel_limit_stops_a_finger():
    state = closing_state()
    state.motor_deg = np.array([199.5, 0.0])
    inc, events = controller_step(state, SingleThreshold(), [0.0, 0.0], GEO, DT)
    assert inc.tolist() == [0, 1]
    assert "mechanical_limit_finger0" in events
    assert state.motor_deg[0] == 199.5  # never exceeds max travel


def test_single_threshold_holds_forever():
    state = GripperState(phase=Phase.HOLDING)
    for _ in range(1000):
        inc, events = controller_step(state, SingleThreshold(), [900.0, 900.0], GEO, DT)
        assert inc.tolist() == [0, 0] and events == []
    assert state.phase is Phase.HOLDING


def test_hold_timer_runs_even_when_gated():
    policy = HysteresisPolicy(hold_s=2.0)
    state = GripperState(phase=Phase.HOLDING)
    for i in range(499):
        _, events = controller_step(state, policy, [950.0, 950.0], GEO, DT, step_gate=(i % 6 == 0))
        assert events == []
    _, events = controller_step(state, policy, [950.0, 950.0], GEO, DT, step_gate=False)
    assert events == ["release_start"]
    assert state.phase is Phase.RELEASING
    assert state.hold_elapsed_s == pytest.approx(2.0, abs=1e-9)


def test_release_opens_until_low_threshold():
    policy = HysteresisPolicy(close_above=900.0, release_below=500.0)
    state = GripperState(phase=Phase.RELEASING)
    state.motor_deg = np.array([30.0, 30.0])
    inc, events = controller_step(state, policy, [800.0, 800.0], GEO, DT)
    assert inc.tolist() == [-1, -1] and events == []
    np.testing.assert_allclose(state.motor_deg, [28.5, 28.5])
    inc, events = controller_step(state, policy, [400.0, 450.0], GEO, DT)
    assert inc.tolist() == [0, 0]
    assert events == ["done"] and state.phase is Phase.DONE


def test_release_never_backs_past_zero():
    policy = HysteresisPolicy()
    state = GripperState(phase=Phase.RELEASING)
    state.motor_deg = np.array([0.0, 1.5])
    inc, _ = controller_step(state, policy, [800.0, 800.0], GEO, DT)
    assert inc.tolist() == [0, -1]
    assert state.motor_deg[0] == 0.0


def test_increments_always_unit_sized(rng):
    policy = HysteresisPolicy()
    state = closing_state()
    for _ in range(300):
        g = rng.uniform(0.0, 1500.0, size=2)
        inc, _ = controller_step(state, policy, g, GEO, DT, step_gate=bool(rng.integers(2)))
        assert set(np.unique(inc)).issubset({-1, 0, 1})


# ---------------------------------------------------------------------------
# closed-loop simulations
# ---------------------------------------------------------------------------

def test_egg_grasp_halts_without_crush():
    sim = simulation(Egg(), SingleThreshold(), seed=3)
    trace = sim.run()
    hold = trace.event_tick("hold_start")
    assert hold is not None
    assert trace.state.phase is Phase.HOLDING
    forces = [row.contact_force_n for row in trace.rows]
    assert 0.0 < max(forces) < Egg().crush_force_n
    # motors stay frozen once the grasp settles
    after = [(r.tick, r.finger, r.motor_deg) for r in trace.rows if r.tick >= hold]
    final = {f: m for _, f, m in after if _ == after[-1][0]}
    for _, finger, motor in after:
        assert motor == final[finger]


def test_seeded_runs_are_identical():
    traces = [simulation(Egg(), SingleThreshold(), seed=11).run() for _ in range(2)]
    a, b = traces
    assert a.events == b.events
    assert [(r.motor_deg, r.signal) for r in a.rows] == [(r.motor_deg, r.signal) for r in b.rows]


def test_empty_gripper_reaches_travel_limit():
    sim = simulation(NoObject(), SingleThreshold(), seed=0)
    trace = sim.run(max_ticks=3000)
    assert trace.event_tick("mechanical_limit_finger0") is not None
    assert trace.event_tick("mechanical_limit_finger1") is not None
    np.testing.assert_allclose(trace.state.motor_deg, [199.5, 199.5])
    assert trace.event_tick("halt_finger0") is None


def test_hysteresis_hold_lasts_exactly_two_seconds():
    sim = simulation(Egg(), HysteresisPolicy(), seed=5)
    trace = sim.run(max_ticks=3000)
    hold = trace.event_tick("hold_start")
    release = trace.event_tick("release_start")
    done = trace.event_tick("done")
    assert hold is not None and release is not None and done is not None
    assert release - hold == 500  # 2.0 s at 250 Hz
    assert trace.state.phase is Phase.DONE


def test_tweezers_pick_is_gentle():
    sim = simulation(Tweezers(), HysteresisPolicy(), seed=2)
    trace = sim.run(max_ticks=3000)
    hold = trace.event_tick("hold_start")
    release = trace.event_tick("release_start")
    assert hold is not None and release - hold == 500
    assert max(row.contact_force_n for row in trace.rows) < 1.0


def test_separation_accounting():
    sim = simulation(Egg(), SingleThreshold(), seed=3)
    trace = sim.run()
    hold = trace.event_tick("hold_start")
    motors = [r.motor_deg for r in trace.rows if r.tick == hold]
    assert len(motors) == 2
    expected = GEO.opening_mm - sum(motors) * GEO.mm_per_deg
    assert trace.separation_at(hold, GEO) == pytest.approx(expected, rel=1e-12)


def test_linearity_study_noise_free():
    result = tweezers_linearity_study((2.0, 4.0, 6.0, 8.0, 10.0), tweezers_grasp(0, **QUIET))
    assert result.r2 > 0.999
    assert result.slope == pytest.approx(0.911, abs=0.05)
    assert np.all(np.diff(result.hold_gap_mm) > 0.0)


def test_linearity_needs_two_sizes():
    with pytest.raises(RankDeficientFit):
        tweezers_linearity_study((5.0, 5.0), tweezers_grasp(0))


def test_study_flags_unreachable_hold():
    with pytest.raises(GraspFailed):
        tweezers_linearity_study((2.0, 8.0), tweezers_grasp(0, max_ticks=10))


# ---------------------------------------------------------------------------
# the array kernel against the frame-by-frame loop
# ---------------------------------------------------------------------------

def per_frame_run(sim, max_ticks):
    """The closed loop one frame at a time: ``sensor.sample`` ->
    ``StreamProcessor.process`` -> the scalar grip signal -> ``controller_step``
    for each finger on every tick, each sensor loaded with the object's force
    up to its travel stop.  ``GraspSimulation.run`` must match it bit for
    bit."""
    processor = StreamProcessor(sim.stream)
    stop = min(travel_stop_force_n(sensor.elastomer) for sensor in sim.sensors)
    state = GripperState()
    rows, events = [], []
    dt_us = int(round(1e6 / sim.stream.sample_rate_hz))
    for tick in range(max_ticks):
        state.tick = tick
        separation = sim.geometry.opening_mm - (state.motor_deg * sim.geometry.mm_per_deg).sum()
        force = sim.object_model.contact_force(separation)
        crush = sim.object_model.crush_force_n
        if crush is not None and force > crush:
            raise CrushDetected(f"contact force {force:.2f} N exceeds crush limit {crush:.2f} N")
        stimulus = ContactStimulus(force_n=(0.0, 0.0, min(force, stop)))
        rel = [processor.process(sensor.sample(stimulus, timestamp_us=(tick + 1) * dt_us))
               for sensor in sim.sensors]
        if any(r is None for r in rel):
            signal, tick_events = np.zeros(2), []
        else:
            if state.phase is Phase.IDLE:
                state.phase = Phase.CLOSING
                events.append((tick, "closing_start"))
            signal = np.array([scalar_grip_signal(r, sim.policy.blend) for r in rel])
            _, tick_events = controller_step(
                state, sim.policy, signal, sim.geometry, sim.dt_s,
                step_gate=(tick % sim.stream.ma_window == 0),
            )
        events += [(tick, name) for name in tick_events]
        for f in range(2):
            rows.append((
                tick, state.phase.value, f, float(state.motor_deg[f]), float(signal[f]), force,
                ";".join(e for e in tick_events if e.endswith(str(f)) or not e[-1].isdigit()),
            ))
        if state.phase is Phase.DONE:
            break
        if state.phase is Phase.HOLDING and not isinstance(sim.policy, HysteresisPolicy):
            hold = max(t for t, name in events if name == "hold_start")
            if tick - hold >= sim.stream.sample_rate_hz:
                break
    return GraspTrace(rows=np.array(rows, TRACE_DTYPE).view(np.recarray), events=events, state=state)


def assert_same_rows(got, want):
    """Every field of every row equal; floats by their bit patterns, so -0.0 is not 0.0."""
    assert got.dtype == want.dtype == TRACE_DTYPE
    for name in TRACE_DTYPE.names:
        a, b = np.ascontiguousarray(got[name]), np.ascontiguousarray(want[name])
        if a.dtype.kind == "f":
            a, b = a.view(np.uint64), b.view(np.uint64)
        assert a.tolist() == b.tolist(), name


def assert_same_run(sim, trace, other_sim, other):
    """Rows, events and final state equal, and each sensor left with the same RNG state."""
    assert_same_rows(trace.rows, other.rows)
    assert trace.events == other.events
    a, b = trace.state, other.state
    assert (a.phase, a.tick, a.hold_elapsed_s) == (b.phase, b.tick, b.hold_elapsed_s)
    for name in ("motor_deg", "signal", "halted"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for x, y in zip(sim.sensors, other_sim.sensors):
        assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state


SHORT_INIT = {"init_samples": 20, "baseline_tail": 5}
EGG, SINGLE = Egg(), SingleThreshold()
TWEEZERS, QUICK_HOLD = Tweezers(), HysteresisPolicy(hold_s=0.2)
# runs whose last block is merged past gates and ends where the loop returns
MERGED = {
    "none-single-limit-then-cut-off": (NoObject(), SINGLE, 3000),
    "none-hysteresis-done": (NoObject(), QUICK_HOLD, 3000),
    "max-ticks-in-merged-approach": (EGG, SINGLE, 60),
    "max-ticks-in-merged-hold": (TWEEZERS, QUICK_HOLD, 570),  # holds at tick 546, releases at 596
    "rigid-single": (RigidObject(), SINGLE, 3000),
}


KERNEL_CASES = {
    "egg-ma1": (EGG, SINGLE, StreamConfig(ma_window=1, **SHORT_INIT), {}, 3000),
    "egg-default": (EGG, SINGLE, StreamConfig(), {}, 3000),
    "egg-ma8": (EGG, SINGLE, StreamConfig(ma_window=8, **SHORT_INIT), {}, 3000),
    "egg-ma50": (EGG, SINGLE, StreamConfig(ma_window=50, **SHORT_INIT), {}, 3000),
    "fa1-noise-off": (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"fa1_noise_counts": 0.0}, 3000),
    "sa2-noise-off": (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"sa2_noise_ut": 0.0}, 3000),
    "quantization-off": (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"quantization_ut": 0.0}, 3000),
    "all-noise-off": (EGG, SINGLE, StreamConfig(**SHORT_INIT), QUIET, 3000),
    "tweezers-hysteresis": (TWEEZERS, QUICK_HOLD, StreamConfig(**SHORT_INIT), {}, 3000),
    "tweezers-hysteresis-ma8": (TWEEZERS, QUICK_HOLD, StreamConfig(ma_window=8, **SHORT_INIT), {}, 3000),
    "max-ticks-0": (EGG, SINGLE, StreamConfig(), {}, 0),
    "max-ticks-below-init": (EGG, SINGLE, StreamConfig(), {}, 120),
    "max-ticks-equal-init": (EGG, SINGLE, StreamConfig(), {}, 300),
    "max-ticks-one-past-init": (EGG, SINGLE, StreamConfig(**SHORT_INIT), {}, 21),
    "max-ticks-mid-segment": (EGG, SINGLE, StreamConfig(), {}, 400),
    "tweezers-hysteresis-ma1": (TWEEZERS, QUICK_HOLD, StreamConfig(ma_window=1, **SHORT_INIT), {}, 3000),
    "hysteresis-hold-0": (EGG, HysteresisPolicy(hold_s=0.0), StreamConfig(**SHORT_INIT), {}, 3000),
    "none-hysteresis-ma50": (NoObject(), QUICK_HOLD, StreamConfig(ma_window=50, **SHORT_INIT), {}, 1000),
    # releases at 596, done at 624
    "max-ticks-mid-release": (TWEEZERS, QUICK_HOLD, StreamConfig(**SHORT_INIT), {}, 610),
    **{case: (obj, policy, StreamConfig(**SHORT_INIT), {}, max_ticks)
       for case, (obj, policy, max_ticks) in MERGED.items()},
}
# the fingers differ in their earth field, but for these cases (see FINGER_0_DIFFERS)
FINGERS = {
    "egg-default-fingers-same": ("egg-default", "same"),
    "egg-ma8-fingers-same": ("egg-ma8", "same"),
    "tweezers-hysteresis-fingers-same": ("tweezers-hysteresis", "same"),
    "egg-ma8-fingers-differ-in-magnet": ("egg-ma8", "magnet"),
    "egg-ma8-fingers-differ-in-elastomer": ("egg-ma8", "elastomer"),
    "tweezers-hysteresis-fingers-differ-in-magnet": ("tweezers-hysteresis", "magnet"),
}
WITH_FINGERS = {**{case: (*args, "earth") for case, args in KERNEL_CASES.items()},
                **{case: (*KERNEL_CASES[base], fingers) for case, (base, fingers) in FINGERS.items()}}


@pytest.mark.parametrize("obj, policy, stream, noise, max_ticks, fingers", WITH_FINGERS.values(), ids=WITH_FINGERS)
def test_kernel_matches_the_frame_by_frame_loop(obj, policy, stream, noise, max_ticks, fingers, two_fingers):
    kernel_sim, frame_sim = (GraspSimulation(obj, policy, two_fingers(fingers, 4, **noise), stream=stream)
                             for _ in range(2))
    assert_same_run(kernel_sim, kernel_sim.run(max_ticks), frame_sim, per_frame_run(frame_sim, max_ticks))


def recorded_holds(monkeypatch):
    """The frame count of every ``FrontEnd.hold`` call from here on."""
    sizes, hold = [], pipeline.FrontEnd.hold

    def recording(self, schedule):
        sizes.append(sum(n for _, n, _ in schedule))
        return hold(self, schedule)

    monkeypatch.setattr(pipeline.FrontEnd, "hold", recording)
    return sizes


@pytest.mark.parametrize("case", list(MERGED))
def test_the_last_block_is_merged_past_a_gate(case, monkeypatch, two_fingers):
    obj, policy, max_ticks = MERGED[case]
    sizes = recorded_holds(monkeypatch)
    trace = GraspSimulation(obj, policy, two_fingers("earth", 4), stream=StreamConfig(**SHORT_INIT)).run(max_ticks)
    assert sum(sizes) == len(trace.rows) // 2 - SHORT_INIT["init_samples"]
    assert sizes[-1] > 2 * StreamConfig().ma_window


@pytest.mark.parametrize(
    "egg, survives_ticks",
    [(Egg(size_mm=60.0), 0), (Egg(crush_force_n=1.0), 21)],
    ids=["at-tick-0", "mid-run"],
)
def test_kernel_raises_crush_as_the_frame_by_frame_loop_does(egg, survives_ticks):
    def sim():
        sensors = [TactileSensor(env=Environment(seed=(4, f)), finger_id=f) for f in range(2)]
        return GraspSimulation(egg, SINGLE, sensors, stream=StreamConfig(**SHORT_INIT))

    with pytest.raises(CrushDetected) as kernel:
        sim().run(3000)
    with pytest.raises(CrushDetected) as frames:
        per_frame_run(sim(), 3000)
    assert str(kernel.value) == str(frames.value)
    assert len(sim().run(survives_ticks).rows) == 2 * survives_ticks


@pytest.mark.parametrize(
    "obj, policy, stream",
    [(EGG, SINGLE, StreamConfig()), (TWEEZERS, QUICK_HOLD, StreamConfig(**SHORT_INIT))],
    ids=["egg-default", "tweezers-hysteresis"],
)
def test_the_controller_runs_only_where_it_can_act(obj, policy, stream, monkeypatch, two_fingers):
    # off the gates the controller can only start the hold timer's release
    calls, step = [], grasp.controller_step

    def recording(state, *args, step_gate=True):
        calls.append((state.tick, step_gate))
        return step(state, *args, step_gate=step_gate)

    monkeypatch.setattr(grasp, "controller_step", recording)
    trace = GraspSimulation(obj, policy, two_fingers("earth", 4), stream=stream).run(3000)
    allowed = {trace.event_tick("release_start"), stream.init_samples}
    assert calls and all(gated or tick in allowed for tick, gated in calls)
    assert len(calls) <= (len(trace.rows) // 2 - stream.init_samples) // stream.ma_window + 2


# ---------------------------------------------------------------------------
# a run that replays an earlier one against fresh runs
# ---------------------------------------------------------------------------

def replayed(two_fingers, monkeypatch, base, obj, policy=HysteresisPolicy(), stream=StreamConfig(),
             max_ticks=2500, seed=4, **noise):
    """``run(after=base)`` and the same run afresh, each on fresh sensors: the
    two simulations and traces, then the frames the replaying run held in
    ``FrontEnd.hold`` and the frames its sensors drew, all fingers together."""
    def sim():
        return GraspSimulation(obj, policy, two_fingers("earth", seed, **noise), stream=stream)

    fresh_sim, replay_sim = sim(), sim()
    fresh = fresh_sim.run(max_ticks)
    held, drawn, digitize = recorded_holds(monkeypatch), [], TactileSensor.digitize
    monkeypatch.setattr(TactileSensor, "digitize",
                        lambda self, response: drawn.append(len(response)) or digitize(self, response))
    replay = replay_sim.run(max_ticks, after=base)
    return replay_sim, replay, fresh_sim, fresh, sum(held), sum(drawn)


@pytest.fixture
def six_mm(two_fingers):
    """The linearity study's configured grasp, 6 mm tweezers, seed 4."""
    return GraspSimulation(TWEEZERS, HysteresisPolicy(), two_fingers("earth", 4)).run(2500)


@pytest.mark.parametrize("size", [2.0, 4.0, 8.0, 10.0])
def test_a_size_replayed_after_another_is_a_fresh_run(size, six_mm, two_fingers, monkeypatch):
    sim, trace, fresh_sim, fresh, held, drawn = replayed(
        two_fingers, monkeypatch, six_mm, Tweezers(object_size_mm=size))
    assert_same_run(sim, trace, fresh_sim, fresh)
    # the shared segments are replayed, not simulated, and no init window is drawn
    assert 0 < held < len(fresh.rows) // 2 - StreamConfig().init_samples
    assert drawn == 2 * held
    assert trace.event_tick("hold_start") != six_mm.event_tick("hold_start")


@pytest.mark.parametrize("size", [44.0, 46.0])
def test_an_egg_of_another_size_replayed_is_a_fresh_run(size, two_fingers, monkeypatch):
    # at the first checkpoint both eggs give no force, but the larger is touched
    # sooner: its first segment ends sooner too
    stream = StreamConfig(**SHORT_INIT)
    base = GraspSimulation(EGG, SINGLE, two_fingers("earth", 4), stream=stream).run(3000)
    sim, trace, fresh_sim, fresh, held, drawn = replayed(
        two_fingers, monkeypatch, base, Egg(size_mm=size), SINGLE, stream, 3000)
    assert_same_run(sim, trace, fresh_sim, fresh)
    assert 0 < held <= len(fresh.rows) // 2 - SHORT_INIT["init_samples"]
    assert drawn == 2 * held


def test_the_same_object_replayed_is_a_copy(six_mm, two_fingers, monkeypatch):
    sim, trace, fresh_sim, fresh, held, drawn = replayed(two_fingers, monkeypatch, six_mm, TWEEZERS)
    assert_same_run(sim, trace, fresh_sim, fresh)
    assert held == drawn == 0
    assert not np.shares_memory(trace.rows, six_mm.rows)
    assert trace.events is not six_mm.events and trace.state.halted is not six_mm.state.halted
    before = six_mm.rows.signal.copy()
    trace.rows.signal[:] = 0.0
    trace.state.halted[:] = False
    np.testing.assert_array_equal(six_mm.rows.signal, before)
    assert six_mm.state.halted.all()


def test_a_replay_of_a_replay_is_a_fresh_run(six_mm, two_fingers, monkeypatch):
    two_mm = replayed(two_fingers, monkeypatch, six_mm, Tweezers(object_size_mm=2.0))[1]
    sim, trace, fresh_sim, fresh, _, _ = replayed(
        two_fingers, monkeypatch, two_mm, Tweezers(object_size_mm=3.0))
    assert_same_run(sim, trace, fresh_sim, fresh)


def test_an_init_window_force_that_differs_is_not_replayed(six_mm, two_fingers, monkeypatch):
    # 51 mm tweezers in a 50 mm opening: squeezed from the first tick
    sim, trace, fresh_sim, fresh, held, drawn = replayed(
        two_fingers, monkeypatch, six_mm, Tweezers(outer_width_mm=51.0))
    assert trace.rows.contact_force_n[0] > 0.0
    assert_same_run(sim, trace, fresh_sim, fresh)
    assert (held, drawn) == (len(fresh.rows) // 2 - StreamConfig().init_samples, len(fresh.rows))


def test_a_replayed_crush_is_raised_as_in_a_fresh_run(two_fingers, monkeypatch):
    stream = StreamConfig(**SHORT_INIT)
    base = GraspSimulation(EGG, SINGLE, two_fingers("earth", 4), stream=stream).run(3000)
    assert base.rows.contact_force_n.max() > 1.0
    sims = [GraspSimulation(Egg(crush_force_n=1.0), SINGLE, two_fingers("earth", 4), stream=stream)
            for _ in range(2)]
    with pytest.raises(CrushDetected) as fresh:
        sims[0].run(3000)
    with pytest.raises(CrushDetected) as replay:
        sims[1].run(3000, after=base)
    assert str(replay.value) == str(fresh.value)
    for x, y in zip(*(sim.sensors for sim in sims)):
        assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state


@pytest.mark.parametrize("change", [
    {"seed": 5},
    {"policy": HysteresisPolicy(hold_s=1.0)},
    {"max_ticks": 2400},
    {"stream": StreamConfig(ma_window=8)},
    {"sa2_noise_ut": 0.5},
    {"quantization_ut": 0.0},
], ids=lambda change: "-".join(change))
def test_a_run_that_differs_in_more_than_its_object_is_not_replayed(change, six_mm, two_fingers, monkeypatch):
    # the same object: a replay would give the earlier run's trace
    sim, trace, fresh_sim, fresh, held, drawn = replayed(two_fingers, monkeypatch, six_mm, TWEEZERS, **change)
    assert_same_run(sim, trace, fresh_sim, fresh)
    init = change.get("stream", StreamConfig()).init_samples
    assert (held, drawn) == (len(fresh.rows) // 2 - init, len(fresh.rows))
