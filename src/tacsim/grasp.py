"""Closed-loop grasping on a scalar grip signal.

A two-finger parallel gripper closes in fixed 1.5-degree motor increments,
one per control tick, watching each fingertip's grip signal: the norm of
the two shear flux channels together with the blended normal channel
(flux z blended with the taxel sum), all in raw relative units.  Two
policies:

* single threshold -- a finger stops as soon as its signal exceeds the
  threshold; used for delicate objects where the first firm contact is
  already enough.
* hysteresis -- close until the signal clears an upper threshold, hold for
  a fixed time, then open until it drops below a lower one; the spread
  between the thresholds keeps the controller from chattering on noise.
"""

import copy
import itertools
import math
from enum import Enum

import numpy as np

from .errors import CrushDetected, GraspFailed, RankDeficientFit
from .estimation import _ols_line
from .pipeline import FrontEnd, StreamConfig
from .record import Record, astuple, fresh, replace
from .sensor import ContactStimulus, travel_stop_force_n


class Phase(Enum):
    IDLE = "idle"
    CLOSING = "closing"
    HOLDING = "holding"
    RELEASING = "releasing"
    DONE = "done"


class SingleThreshold(Record, frozen=True):
    threshold: float = 700.0
    blend: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.threshold < math.inf and 0.0 <= self.blend <= 1.0):
            raise ValueError("threshold must be positive and finite, blend in [0, 1]")

    @property
    def close_threshold(self) -> float:
        return self.threshold


class HysteresisPolicy(Record, frozen=True):
    close_above: float = 900.0
    release_below: float = 500.0
    hold_s: float = 2.0
    blend: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.release_below < self.close_above < math.inf:
            raise ValueError("thresholds must be finite, positive, and release below close")
        if not (0.0 <= self.hold_s < math.inf and 0.0 <= self.blend <= 1.0):
            raise ValueError("hold time must be finite and not negative, blend in [0, 1]")

    @property
    def close_threshold(self) -> float:
        return self.close_above


class GripperGeometry(Record, frozen=True):
    opening_mm: float = 50.0
    pinion_radius_mm: float = 6.0
    increment_deg: float = 1.5
    max_travel_deg: float = 200.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in astuple(self)):
            raise ValueError("geometry must be positive and finite")

    @property
    def mm_per_deg(self) -> float:
        return self.pinion_radius_mm * np.pi / 180.0


# ---------------------------------------------------------------------------
# objects between the fingers: contact_force must never rise as the
# separation grows, for GraspSimulation looks ahead on it
# ---------------------------------------------------------------------------

class NoObject(Record, frozen=True):
    crush_force_n = None

    def contact_force(self, separation_mm: float) -> float:
        return 0.0


class RigidObject(Record, frozen=True):
    size_mm: float = 40.0
    stiffness_n_per_mm: float = 500.0
    crush_force_n = None

    def __post_init__(self):
        if not 0.0 < self.stiffness_n_per_mm < math.inf:
            raise ValueError("stiffness must be positive and finite")
        if not math.isfinite(self.size_mm):
            raise ValueError("size must be finite")

    def contact_force(self, separation_mm: float) -> float:
        return max(0.0, (self.size_mm - separation_mm) * self.stiffness_n_per_mm)


class Egg(Record, frozen=True):
    size_mm: float = 45.0
    stiffness_n_per_mm: float = 5.0
    crush_force_n: float = 25.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.stiffness_n_per_mm, self.crush_force_n)):
            raise ValueError("stiffness and crush force must be positive and finite")
        if not math.isfinite(self.size_mm):
            raise ValueError("size must be finite")

    def contact_force(self, separation_mm: float) -> float:
        return max(0.0, (self.size_mm - separation_mm) * self.stiffness_n_per_mm)


class Tweezers(Record, frozen=True):
    """Sprung tweezers squeezed by the gripper around a small object.

    Squeezing the arms by s mm closes the tip gap by the same amount.  The
    arms resist with a soft spring; once the tips meet the object its own
    stiffness adds on top.
    """

    object_size_mm: float = 6.0
    outer_width_mm: float = 30.0
    tip_gap_mm: float = 12.0
    arm_rate_n_per_mm: float = 0.02
    spring_rate_n_per_mm: float = 0.2
    crush_force_n = None

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.arm_rate_n_per_mm, self.spring_rate_n_per_mm)):
            raise ValueError("spring rates must be positive and finite")
        if not 0.0 <= self.object_size_mm <= self.tip_gap_mm < math.inf:
            raise ValueError("object must fit between the open tips, and the tips be finite")
        if not math.isfinite(self.outer_width_mm):
            raise ValueError("outer width must be finite")

    def contact_force(self, separation_mm: float) -> float:
        squeeze = self.outer_width_mm - separation_mm
        if squeeze <= 0.0:
            return 0.0
        force = self.arm_rate_n_per_mm * squeeze
        contact_squeeze = self.tip_gap_mm - self.object_size_mm
        if squeeze > contact_squeeze:
            force += self.spring_rate_n_per_mm * (squeeze - contact_squeeze)
        return force


class GripperState(Record):
    phase: Phase = Phase.IDLE
    motor_deg: np.ndarray = fresh(lambda: np.zeros(2))
    signal: np.ndarray = fresh(lambda: np.zeros(2))
    halted: np.ndarray = fresh(lambda: np.zeros(2, dtype=bool))
    hold_elapsed_s: float = 0.0
    tick: int = 0


def grip_signal(rel, blend: float) -> np.ndarray:
    """Contact saliency of ``(..., 19)`` filtered relative rows; shape ``(...)``.

    A row is 16 taxels (row-major) then 3 flux axes, in raw channel units.
    The squares are ``float_power``, which calls libm ``pow`` as a scalar
    ``**`` does; an array's ``** 2`` is an exact ``x * x``, which differs
    from ``pow`` in the last bit for about one value in 1,400, and the
    recorded traces keep the ``pow`` bits.
    """
    rel = np.asarray(rel, dtype=float)
    normal = blend * rel[..., 18] + (1.0 - blend) * rel[..., :16].sum(axis=-1)
    shear = np.float_power(rel[..., 16], 2) + np.float_power(rel[..., 17], 2)
    return np.sqrt(shear + np.float_power(normal, 2))


def controller_step(
    state: GripperState,
    policy,
    signal,
    geometry: GripperGeometry,
    dt_s: float,
    step_gate: bool = True,
):
    """One control tick. Mutates ``state``; returns (increments, events).

    Increments are per-finger in {-1, 0, +1} motor steps; a finger never
    gets a close and an open command in the same tick by construction.
    ``step_gate`` gates motion and threshold decisions; the hold timer
    advances every tick regardless.  Callers feeding the controller a
    causally filtered signal should gate at the filter settle time so that
    each decision sees the previous increment's full effect.
    """
    signal = np.asarray(signal, dtype=float)
    state.signal = signal
    inc = np.zeros(2, dtype=int)
    events: list[str] = []

    match state.phase:
        case Phase.IDLE | Phase.DONE:
            pass

        case Phase.CLOSING if step_gate:
            threshold = policy.close_threshold
            for f in range(2):
                if state.halted[f]:
                    continue
                if signal[f] > threshold:
                    state.halted[f] = True
                    events.append(f"halt_finger{f}")
                elif state.motor_deg[f] + geometry.increment_deg > geometry.max_travel_deg:
                    state.halted[f] = True
                    events.append(f"mechanical_limit_finger{f}")
                else:
                    inc[f] = 1
            if state.halted[0] and state.halted[1] and state.phase is Phase.CLOSING:
                state.phase = Phase.HOLDING
                state.hold_elapsed_s = 0.0
                events.append("hold_start")

        case Phase.HOLDING:
            if isinstance(policy, HysteresisPolicy):
                state.hold_elapsed_s += dt_s
                if state.hold_elapsed_s >= policy.hold_s:
                    state.phase = Phase.RELEASING
                    events.append("release_start")

        case Phase.RELEASING if step_gate:
            for f in range(2):
                if signal[f] >= policy.release_below and state.motor_deg[f] > 0.0:
                    inc[f] = -1
            if signal[0] < policy.release_below and signal[1] < policy.release_below:
                state.phase = Phase.DONE
                events.append("done")

    if inc[0] or inc[1]:
        # np.clip's values through two ufuncs, without its Python-level dispatch
        motor = np.maximum(state.motor_deg + inc * geometry.increment_deg, 0.0)
        state.motor_deg = np.minimum(motor, geometry.max_travel_deg)
    return inc, events


# a trace row's phase is its index here
PHASES = tuple(Phase)
# a trace row's event is its index here: every label controller_step's events give a
# finger's row, its own and those of no finger, ";"-joined in the order it emits them
EVENTS = ("", "hold_start", "release_start", "done", *(
    f"{stop}_finger{f}{hold}"
    for f in "01" for stop in ("halt", "mechanical_limit") for hold in ("", ";hold_start")))

# one finger at one tick; the fields in order are the trace CSV's columns, phase and
# event as codes into PHASES and EVENTS, so a record holds no Python object
TRACE_DTYPE = np.dtype([
    ("tick", np.int64), ("phase", np.uint8), ("finger", np.int64), ("motor_deg", np.float64),
    ("signal", np.float64), ("contact_force_n", np.float64), ("event", np.uint8),
])


def _event_codes(events) -> list[int]:
    """Each finger's EVENTS code for one tick's ``events``; ValueError for a label not there."""
    return [EVENTS.index(";".join(e for e in events if e.endswith(f) or not e[-1].isdigit()))
            for f in "01"]


def _grow(rows: np.ndarray, ticks: int) -> tuple[np.ndarray, dict]:
    """``rows`` and after them blank rows up to ``ticks`` ticks, in a new buffer;
    also its fields, each viewed as ``(ticks, 2)``: indexed by tick, then finger.
    A blank row is idle (code 0), with no event (code 0)."""
    grown = np.zeros(2 * ticks, TRACE_DTYPE)
    # records copied as bytes, here and in run: numpy copies them field by field, 5x slower
    grown.view(np.uint8)[: rows.nbytes] = rows.view(np.uint8)
    blank = grown[len(rows) :]
    blank["tick"], blank["finger"] = np.divmod(np.arange(len(rows), 2 * ticks), 2)
    return grown, {name: grown[name].reshape(ticks, 2) for name in TRACE_DTYPE.names}


def _copy_state(state: GripperState) -> GripperState:
    # controller_step sets halted in place, and a signal may be a view of a segment's array
    return replace(state, motor_deg=state.motor_deg.copy(), signal=state.signal.copy(),
                   halted=state.halted.copy())


class GraspTrace(Record):
    rows: np.recarray  # TRACE_DTYPE records: finger 0, then finger 1, for each tick
    events: list
    state: GripperState
    # not a field: set by GraspSimulation.run, what a later run resumes from: its key,
    # the front end, the checkpoints and each sensor's final RNG state
    replay = None

    def event_tick(self, name: str) -> int | None:
        for tick, event in self.events:
            if event == name:
                return tick
        return None

    def separation_at(self, tick: int, geometry: GripperGeometry) -> float:
        motor = self.rows.motor_deg[self.rows.tick == tick]
        return float(geometry.opening_mm - motor.sum() * geometry.mm_per_deg)


class GraspSimulation:
    """Ties sensors, stream front end, object, and controller into one loop.

    ``sensors`` holds the two fingertips, finger *f* at index *f*; they
    carry the physics, the noise and the seeded RNG state.  They are loaded
    with the object's force stopped at the bone's travel stop; the trace and
    the crush check keep the object's force.

    ``run`` gives, bit for bit, what a per-tick ``sensor.sample`` ->
    ``StreamProcessor.process`` -> ``controller_step`` loop gives, but works
    on stretches of constant stimulus:

    * The gripper idles through the initialization window; one ``FrontEnd``
      samples it as one block per finger and sets their baselines.
    * After that the motor moves only on gated ticks (``tick % ma_window ==
      0``).  A segment runs past every gate that provably leaves the force
      unchanged: closing, while the farthest motor pair reachable gives the
      start's force; holding, to the single-threshold cut-off or the first
      gate after the hysteresis release; releasing, to the next gate.  It
      is one ``FrontEnd.hold``, an ``(n, 2, 19)`` block for its ``n`` ticks
      (each finger has its own RNG, so these are the per-tick draws; fingers
      of equal physics share the noise-free response), and one
      ``grip_signal`` call.
    * In a segment ``controller_step`` runs only where it can act: on the
      gates while closing or releasing, and on the hysteresis release tick.
      Phase and motors hold in between, so those ticks are one slice of the
      trace.  The trace is one ``TRACE_DTYPE`` buffer, written as the loop
      reaches each run, segment and event.  A segment past its end doubles
      it, or more, up to ``max_ticks``, so it grows with the ticks run, not
      with ``max_ticks``.  The rows returned are a copy of the ticks run.
    * No segment passes ``max_ticks``, nor, while closing, the first tick
      the loop could stop or release at if a hold started at the next gate,
      so no frame past the last tick is drawn.
    """

    def __init__(
        self,
        object_model,
        policy,
        sensors,
        geometry: GripperGeometry = GripperGeometry(),
        stream: StreamConfig = StreamConfig(),
    ):
        self.object_model = object_model
        self.policy = policy
        self.sensors = sensors
        self.geometry = geometry
        self.stream = stream
        self.dt_s = 1.0 / stream.sample_rate_hz
        # actuate no faster than the filter settles, else decisions chase a
        # stale signal and overrun the thresholds (StreamConfig keeps it >= 1)
        self.step_interval_ticks = stream.ma_window
        self.stop_force_n = min(travel_stop_force_n(sensor.elastomer) for sensor in sensors)

    def run(self, max_ticks: int = 2000, after: GraspTrace | None = None) -> GraspTrace:
        """The closed loop for at most ``max_ticks`` ticks; CrushDetected past the object's limit.

        ``after`` is an earlier trace whose run may share a prefix with this
        one: the same policy, geometry, stream, ``max_ticks``, force in the
        initialization window and sensors (physics, noise scales and RNG
        state at the start), with another object.  Such a run replays it: at
        each of its checkpoints, one per segment, this run's object gives the
        segment's force and end; from the first that differs it restores the
        checkpoint (state, trace so far, filter history, RNG states) and simulates
        on, and if none differs it returns a copy of the trace.  Either way
        the trace and the sensors' RNG states are those of a fresh run, bit
        for bit.
        """
        state, events = GripperState(), []
        idle = min(max_ticks, self.stream.init_samples)
        if idle < 1:
            return GraspTrace(np.recarray(0, TRACE_DTYPE), events, state)

        # initialization window: the motor idles, so the force is constant
        force = self._contact_force(state)
        stimulus = ContactStimulus(force_n=(0.0, 0.0, min(force, self.stop_force_n)))
        # all a run is a function of but its object past the window (forces by their bits)
        key = (self.policy, self.geometry, astuple(self.stream), max_ticks, float(force).hex(), [
            (s.physics, s.env.fa1_noise_counts, s.env.sa2_noise_ut, s.env.quantization_ut,
             s.env.rng.bit_generator.state) for s in self.sensors])
        state.tick = idle - 1

        gate, rate = self.step_interval_ticks, self.stream.sample_rate_hz
        single = not isinstance(self.policy, HysteresisPolicy)
        # elapsed[k]: controller_step's hold_elapsed_s k ticks into a hold (0.0 + dt_s is dt_s),
        # up to the release; hold_ticks: from a hold's start to the single-threshold cut-off
        # or to the release, at most max_ticks
        elapsed = [0.0]
        for e in () if single else itertools.accumulate(itertools.repeat(self.dt_s, max_ticks)):
            elapsed.append(e)
            if e >= self.policy.hold_s:
                break
        hold_ticks = rate if single else len(elapsed) - 1
        hold_tick, start, checkpoints = None, idle, []  # hold_tick: the hold's start

        if after is not None and after.replay is not None and after.replay[0] == key:
            _, front, past, rng_end = after.replay
            k = self._first_change(past, hold_ticks, max_ticks)
            # resume at checkpoint k; past the last, the run is the earlier one, with no tick left
            start, hold_tick, state, n_events, history, rng_states, _ = past[k] if k < len(past) else (
                max_ticks, None, after.state, len(after.events), None, rng_end, None)
            state, checkpoints, events = _copy_state(state), past[:k], after.events[:n_events]
            for sensor, rng_state in zip(self.sensors, rng_states):
                sensor.env.rng.bit_generator.state = rng_state
            if k < len(past):  # else the loop below never runs, and front may be None
                front = copy.copy(front)
                front.sensors, front._history = self.sensors, history
        elif idle < self.stream.init_samples:  # then idle == max_ticks: the loop below never runs
            front = None
            for sensor in self.sensors:
                sensor.sample_block([(stimulus, idle, None)])
        else:
            front = FrontEnd(self.sensors, self.stream, stimulus)

        # the trace, written as the loop reaches each tick: two rows a tick, finger 0 then
        # finger 1; replayed past the window, it starts as the earlier trace up to start
        head = after.rows[: 2 * start] if start > idle else np.zeros(0, TRACE_DTYPE)
        rows, pairs = _grow(head, max(idle, len(head) // 2))
        pairs["contact_force_n"][:idle] = force

        while start < max_ticks:
            # the checkpoint; the front end's history is its own copy, which no hold changes
            top = (start, hold_tick, _copy_state(state), len(events),
                   front._history, [s.env.rng.bit_generator.state for s in self.sensors])
            if state.phase is Phase.IDLE:  # the first tick after the window
                state.phase = Phase.CLOSING
                events.append((start, "closing_start"))
            force = self._contact_force(state)
            end = self._segment_end(state, start, force, hold_tick, hold_ticks, max_ticks)
            checkpoints.append((*top, (float(force).hex(), end)))
            if end >= len(rows) // 2:  # past the buffer: double it, or more, up to max_ticks
                rows, pairs = _grow(rows[: 2 * start], min(max(end + 1, len(rows)), max_ticks))
            stimulus = ContactStimulus(force_n=(0.0, 0.0, min(force, self.stop_force_n)))
            signals = grip_signal(front.hold([(stimulus, end - start + 1, None)]), self.policy.blend)
            pairs["signal"][start : end + 1], pairs["contact_force_n"][start : end + 1] = signals, force

            first = tick = start  # from first on, phase and motors are as they are now
            while True:
                if state.phase is Phase.HOLDING:  # the next tick the controller can act on
                    act = max_ticks if single else hold_tick + hold_ticks
                else:
                    act = -(-tick // gate) * gate
                held = slice(first, min(act, end + 1))  # up to the next action, they hold
                pairs["phase"][held], pairs["motor_deg"][held] = PHASES.index(state.phase), state.motor_deg
                if state.phase is Phase.HOLDING and not single:
                    state.hold_elapsed_s = elapsed[held.stop - 1 - hold_tick]
                if act > end:
                    break
                state.tick = first = act
                _, tick_events = controller_step(state, self.policy, signals[act - start], self.geometry,
                                                 self.dt_s, step_gate=(act % gate == 0))
                if tick_events:
                    events += [(act, name) for name in tick_events]
                    pairs["event"][act] = _event_codes(tick_events)
                    if "hold_start" in tick_events:
                        hold_tick = act
                tick = act + 1

            state.tick, state.signal = end, signals[-1]
            # done comes at a releasing gate, which ends its segment; a single-threshold hold
            # never ends, but a settled window (no segment passes its cut-off) is evidence enough
            if state.phase is Phase.DONE or (single and hold_tick is not None and end - hold_tick >= rate):
                break
            start = end + 1
        # the ticks run (state.tick is the last) in rows of their own: a view would keep all
        # of rows alive
        ticks_run = rows[: 2 * (state.tick + 1)].view(np.uint8).copy().view(TRACE_DTYPE)
        trace = GraspTrace(ticks_run.view(np.recarray), events, state)
        trace.replay = (key, front, checkpoints, [s.env.rng.bit_generator.state for s in self.sensors])
        return trace

    def _first_change(self, checkpoints, hold_ticks, max_ticks) -> int:
        """Index of the first of another run's ``checkpoints`` where this run's
        object gives another segment force or end; their count if none does."""
        for k, (start, hold_tick, state, *_, segment) in enumerate(checkpoints):
            try:
                force = self._contact_force(state)
            except CrushDetected:  # raised again once the run is restored to here
                return k
            end = self._segment_end(state, start, force, hold_tick, hold_ticks, max_ticks)
            if (float(force).hex(), end) != segment:
                return k
        return len(checkpoints)

    def _segment_end(self, state, start, force, hold_tick, hold_ticks, max_ticks) -> int:
        """Last tick of the segment from ``start``: the force holds through it
        and ``run`` cannot return before it."""
        gate, geo = self.step_interval_ticks, self.geometry
        end = -(-start // gate) * gate  # the next gated tick
        last = max_ticks - 1
        if state.phase is Phase.HOLDING:
            end = hold_tick + hold_ticks
            if isinstance(self.policy, HysteresisPolicy):
                end = end // gate * gate + gate  # the motor moves at the first gate after release
        elif state.phase in (Phase.IDLE, Phase.CLOSING):
            last = min(last, end + hold_ticks)  # in case a hold starts at that gate
            # the farthest pair: each unhalted finger one increment per gate; the
            # force is monotone in each motor, so equal there means equal on the way
            motor = state.motor_deg.tolist()
            moving = [f for f in range(2) if not state.halted[f]]
            while end < last:
                for f in moving:  # controller_step's clip of motor + increment, on floats
                    motor[f] = min(max(motor[f] + geo.increment_deg, 0.0), geo.max_travel_deg)
                if self._object_force(*motor) != force:
                    break
                end += gate
        return min(end, last)

    def _object_force(self, motor0_deg: float, motor1_deg: float) -> float:
        mm_per_deg = self.geometry.mm_per_deg
        # (motor_deg * mm_per_deg).sum() on floats: numpy adds a pair in order
        separation = self.geometry.opening_mm - (motor0_deg * mm_per_deg + motor1_deg * mm_per_deg)
        return self.object_model.contact_force(separation)

    def _contact_force(self, state: GripperState) -> float:
        """Object force at the current finger separation; CrushDetected past its limit."""
        force = self._object_force(*state.motor_deg.tolist())
        crush = self.object_model.crush_force_n
        if crush is not None and force > crush:
            raise CrushDetected(
                f"contact force {force:.2f} N exceeds crush limit {crush:.2f} N"
            )
        return force


class LinearityResult(Record):
    sizes_mm: np.ndarray
    hold_gap_mm: np.ndarray
    slope: float
    intercept: float
    r2: float


def tweezers_linearity_study(
    sizes_mm, grasp_size, geometry: GripperGeometry = GripperGeometry()
) -> LinearityResult:
    """Steady-hold motor gap versus squeezed object size.

    ``grasp_size(size_mm)`` runs one grasp on tweezers squeezing an object
    of that size and returns its GraspTrace.  The tweezers' lever arm turns
    object size linearly into fingertip separation at the grasp threshold,
    so the relation should be a line.  Raises GraspFailed if any size never
    reaches a hold and RankDeficientFit for fewer than two distinct sizes.
    """
    sizes = np.asarray(sizes_mm, dtype=float)
    if len(set(sizes.tolist())) < 2:  # np.unique would import numpy.ma
        raise RankDeficientFit("need at least two distinct object sizes")
    gaps = []
    for size in sizes:
        trace = grasp_size(float(size))
        hold = trace.event_tick("hold_start")
        if hold is None:
            raise GraspFailed(f"size {size} mm never reached a hold")
        gaps.append(trace.separation_at(hold, geometry))
        del trace  # before the next grasp runs: a trace carries its checkpoints
    gaps = np.array(gaps)
    slope, intercept, r2, _ = _ols_line(sizes, gaps)
    return LinearityResult(sizes_mm=sizes, hold_gap_mm=gaps, slope=slope, intercept=intercept, r2=r2)
