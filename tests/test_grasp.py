import numpy as np
import pytest

from tacsim.errors import CrushDetected, GraspFailed, RankDeficientFit
from tacsim.grasp import (
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
    TraceRow,
    Tweezers,
    controller_step,
    grip_signal,
    tweezers_linearity_study,
)
from tacsim.pipeline import RelativeFrame, StreamConfig, StreamProcessor
from tacsim.sensor import ContactStimulus, Environment, TactileSensor

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
    for each finger on every tick.  ``GraspSimulation.run`` must match it
    bit for bit."""
    processor = StreamProcessor(sim.stream)
    state = GripperState()
    rows, events = [], []
    dt_us = int(round(1e6 / sim.stream.sample_rate_hz))
    for tick in range(max_ticks):
        state.tick = tick
        separation = sim.geometry.opening_mm - state.travel_mm(sim.geometry).sum()
        force = sim.object_model.contact_force(separation)
        crush = sim.object_model.crush_force_n
        if crush is not None and force > crush:
            raise CrushDetected(f"contact force {force:.2f} N exceeds crush limit {crush:.2f} N")
        stimulus = ContactStimulus(force_n=(0.0, 0.0, force))
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
            rows.append(TraceRow(
                tick=tick, phase=state.phase.value, finger=f,
                motor_deg=float(state.motor_deg[f]), signal=float(signal[f]),
                contact_force_n=force,
                event=";".join(e for e in tick_events if e.endswith(str(f)) or not e[-1].isdigit()),
            ))
        if state.phase is Phase.DONE:
            break
        if state.phase is Phase.HOLDING and not isinstance(sim.policy, HysteresisPolicy):
            hold = max(t for t, name in events if name == "hold_start")
            if tick - hold >= sim.stream.sample_rate_hz:
                break
    return GraspTrace(rows=rows, events=events, state=state)


SHORT_INIT = {"init_samples": 20, "baseline_tail": 5}
EGG, SINGLE = Egg(), SingleThreshold()
TWEEZERS, QUICK_HOLD = Tweezers(), HysteresisPolicy(hold_s=0.2)


@pytest.mark.parametrize(
    "obj, policy, stream, noise, max_ticks",
    [
        (EGG, SINGLE, StreamConfig(ma_window=1, **SHORT_INIT), {}, 3000),
        (EGG, SINGLE, StreamConfig(), {}, 3000),
        (EGG, SINGLE, StreamConfig(ma_window=8, **SHORT_INIT), {}, 3000),
        (EGG, SINGLE, StreamConfig(ma_window=50, **SHORT_INIT), {}, 3000),
        (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"fa1_noise_counts": 0.0}, 3000),
        (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"sa2_noise_ut": 0.0}, 3000),
        (EGG, SINGLE, StreamConfig(**SHORT_INIT), {"quantization_ut": 0.0}, 3000),
        (EGG, SINGLE, StreamConfig(**SHORT_INIT), QUIET, 3000),
        (TWEEZERS, QUICK_HOLD, StreamConfig(**SHORT_INIT), {}, 3000),
        (TWEEZERS, QUICK_HOLD, StreamConfig(ma_window=8, **SHORT_INIT), {}, 3000),
        (EGG, SINGLE, StreamConfig(), {}, 0),
        (EGG, SINGLE, StreamConfig(), {}, 120),
        (EGG, SINGLE, StreamConfig(), {}, 300),
        (EGG, SINGLE, StreamConfig(**SHORT_INIT), {}, 21),
        (EGG, SINGLE, StreamConfig(), {}, 400),
    ],
    ids=[
        "egg-ma1", "egg-default", "egg-ma8", "egg-ma50",
        "fa1-noise-off", "sa2-noise-off", "quantization-off", "all-noise-off",
        "tweezers-hysteresis", "tweezers-hysteresis-ma8",
        "max-ticks-0", "max-ticks-below-init", "max-ticks-equal-init", "max-ticks-one-past-init",
        "max-ticks-mid-segment",
    ],
)
def test_kernel_matches_the_frame_by_frame_loop(obj, policy, stream, noise, max_ticks):
    def sim():
        # the fingers see different earth fields, so their flux differs
        sensors = [
            TactileSensor(env=Environment(seed=(4, f), earth_field_ut=earth, **noise), finger_id=f)
            for f, earth in enumerate([(0.0, 0.0, 0.0), (25.0, -10.0, 40.0)])
        ]
        return GraspSimulation(obj, policy, sensors, stream=stream)

    kernel_sim, frame_sim = sim(), sim()
    kernel, frames = kernel_sim.run(max_ticks), per_frame_run(frame_sim, max_ticks)
    assert kernel.rows == frames.rows
    assert kernel.events == frames.events
    a, b = kernel.state, frames.state
    assert (a.phase, a.tick, a.hold_elapsed_s) == (b.phase, b.tick, b.hold_elapsed_s)
    for name in ("motor_deg", "signal", "halted"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for x, y in zip(kernel_sim.sensors, frame_sim.sensors):
        assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state


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
