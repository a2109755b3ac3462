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
from dataclasses import astuple, dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import CrushDetected, GraspFailed, RankDeficientFit
from .pipeline import FrontEnd, StreamConfig
from .sensor import ContactStimulus, travel_stop_force_n


class Phase(Enum):
    IDLE = "idle"
    CLOSING = "closing"
    HOLDING = "holding"
    RELEASING = "releasing"
    DONE = "done"


@dataclass(frozen=True)
class SingleThreshold:
    threshold: float = 700.0
    blend: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.threshold < math.inf and 0.0 <= self.blend <= 1.0):
            raise ValueError("threshold must be positive and finite, blend in [0, 1]")

    @property
    def close_threshold(self) -> float:
        return self.threshold


@dataclass(frozen=True)
class HysteresisPolicy:
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


@dataclass(frozen=True)
class GripperGeometry:
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

@dataclass(frozen=True)
class NoObject:
    crush_force_n = None

    def contact_force(self, separation_mm: float) -> float:
        return 0.0


@dataclass(frozen=True)
class RigidObject:
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


@dataclass(frozen=True)
class Egg:
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


@dataclass(frozen=True)
class Tweezers:
    """Sprung tweezers squeezed by the gripper around a small object.

    Squeezing the arms by s mm closes the tip gap by the same amount
    (unit lever ratio by default).  The arms resist with a soft spring;
    once the tips meet the object its own stiffness adds on top.
    """

    object_size_mm: float = 6.0
    outer_width_mm: float = 30.0
    tip_gap_mm: float = 12.0
    arm_rate_n_per_mm: float = 0.02
    spring_rate_n_per_mm: float = 0.2
    tip_ratio: float = 1.0
    crush_force_n = None

    def __post_init__(self):
        rates = (self.arm_rate_n_per_mm, self.spring_rate_n_per_mm, self.tip_ratio)
        if not all(0.0 < v < math.inf for v in rates):
            raise ValueError("spring rates and tip ratio must be positive and finite")
        if not 0.0 <= self.object_size_mm <= self.tip_gap_mm < math.inf:
            raise ValueError("object must fit between the open tips, and the tips be finite")
        if not math.isfinite(self.outer_width_mm):
            raise ValueError("outer width must be finite")

    def contact_force(self, separation_mm: float) -> float:
        squeeze = self.outer_width_mm - separation_mm
        if squeeze <= 0.0:
            return 0.0
        force = self.arm_rate_n_per_mm * squeeze
        contact_squeeze = (self.tip_gap_mm - self.object_size_mm) / self.tip_ratio
        if squeeze > contact_squeeze:
            force += self.spring_rate_n_per_mm * (squeeze - contact_squeeze)
        return force


@dataclass
class GripperState:
    phase: Phase = Phase.IDLE
    motor_deg: np.ndarray = field(default_factory=lambda: np.zeros(2))
    signal: np.ndarray = field(default_factory=lambda: np.zeros(2))
    halted: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=bool))
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


# one finger at one tick; the fields in order are the trace CSV's columns.  Text
# fields are objects, so no phase or event label is ever cut short
TRACE_DTYPE = np.dtype([
    ("tick", np.int64), ("phase", object), ("finger", np.int64), ("motor_deg", np.float64),
    ("signal", np.float64), ("contact_force_n", np.float64), ("event", object),
])


def _copy_state(state: GripperState) -> GripperState:
    # controller_step sets halted in place, and a signal may be a view of a segment's array
    return replace(state, motor_deg=state.motor_deg.copy(), signal=state.signal.copy(),
                   halted=state.halted.copy())


@dataclass
class GraspTrace:
    rows: np.recarray  # TRACE_DTYPE records: finger 0, then finger 1, for each tick
    events: list
    state: GripperState
    # what a later run resumes from (see GraspSimulation.run): its key, the front end,
    # the checkpoints, the columns but the signal, and each sensor's final RNG state
    replay: tuple | None = field(default=None, repr=False)

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
      Phase and motors hold in between, so those ticks are one run of the
      trace's columns; the record array of rows is filled once, at the end,
      from the runs, the segments' signal arrays and the event labels.
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
        checkpoint (state, columns, filter history, RNG states) and simulates
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
        # the trace's columns, each tick finger 0 then finger 1: runs of ticks that
        # hold phase and motors, the grip signal per segment, the force per
        # segment, and the labels of the ticks that have events
        runs = [(Phase.IDLE.value, 0.0, 0.0, idle)]
        signal_parts, force_runs, labels = [np.zeros(2 * idle)], [(force, idle)], []
        state.tick = idle - 1

        gate, rate = self.step_interval_ticks, self.stream.sample_rate_hz
        single = not isinstance(self.policy, HysteresisPolicy)
        # elapsed[k]: controller_step's hold_elapsed_s k ticks into a hold (0.0 + dt_s is dt_s);
        # hold_ticks: from a hold's start to the single-threshold cut-off or to the release
        elapsed = list(itertools.accumulate(itertools.repeat(self.dt_s, max_ticks), initial=0.0))
        hold_ticks = rate if single else next(
            (n for n, e in enumerate(elapsed[1:], 1) if e >= self.policy.hold_s), max_ticks)
        hold_tick, start, checkpoints = None, idle, []  # hold_tick: the hold's start

        if after is not None and after.replay is not None and after.replay[0] == key:
            _, front, past, (runs, force_runs, labels), rng_end = after.replay
            k = self._first_change(past, hold_ticks, max_ticks)
            if k == len(past):
                self._set_rng_states(rng_end)
                return GraspTrace(after.rows.copy(), list(after.events), _copy_state(after.state),
                                  after.replay)
            start, hold_tick, state, n_events, n_runs, n_labels, history, rng_states, _ = past[k]
            state, checkpoints, events = _copy_state(state), past[:k], after.events[:n_events]
            runs, labels = runs[:n_runs], labels[:n_labels]
            # the signal so far as one part; force_runs holds the window's force and one per segment
            signal_parts, force_runs = [np.array(after.rows.signal[: 2 * start])], force_runs[: k + 1]
            self._set_rng_states(rng_states)
            front = copy.copy(front)
            front.sensors, front._history = self.sensors, history
        elif idle < self.stream.init_samples:  # then idle == max_ticks: the loop below never runs
            front = None
            for sensor in self.sensors:
                sensor.sample_block([(stimulus, idle, None)])
        else:
            front = FrontEnd(self.sensors, self.stream, stimulus)

        while start < max_ticks:
            # the checkpoint; the front end's history is a view of the last hold's whole block
            top = (start, hold_tick, _copy_state(state), len(events), len(runs), len(labels),
                   front._history.copy(), [s.env.rng.bit_generator.state for s in self.sensors])
            if state.phase is Phase.IDLE:  # the first tick after the window
                state.phase = Phase.CLOSING
                events.append((start, "closing_start"))
            force = self._contact_force(state)
            end = self._segment_end(state, start, force, hold_tick, hold_ticks, max_ticks)
            checkpoints.append((*top, (float(force).hex(), end)))
            stimulus = ContactStimulus(force_n=(0.0, 0.0, min(force, self.stop_force_n)))
            signals = grip_signal(front.hold([(stimulus, end - start + 1, None)]), self.policy.blend)
            signal_parts.append(signals.ravel())
            force_runs.append((force, end - start + 1))

            tick = start
            while True:
                if state.phase is Phase.HOLDING:  # the next tick the controller can act on
                    act = max_ticks if single else hold_tick + hold_ticks
                else:
                    act = -(-tick // gate) * gate
                n = min(act, end + 1) - tick  # ticks that leave phase and motors as they are
                runs.append((state.phase.value, *state.motor_deg.tolist(), n))
                if state.phase is Phase.HOLDING and not single:
                    state.hold_elapsed_s = elapsed[tick + n - 1 - hold_tick]
                if act > end:
                    break
                state.tick = act
                _, tick_events = controller_step(state, self.policy, signals[act - start], self.geometry,
                                                 self.dt_s, step_gate=(act % gate == 0))
                runs.append((state.phase.value, *state.motor_deg.tolist(), 1))
                if tick_events:
                    events += [(act, name) for name in tick_events]
                    labels.append((act, [
                        ";".join(e for e in tick_events if e.endswith(f) or not e[-1].isdigit())
                        for f in "01"]))
                    if "hold_start" in tick_events:
                        hold_tick = act
                tick = act + 1

            state.tick, state.signal = end, signals[-1]
            # done comes at a releasing gate, which ends its segment; a single-threshold hold
            # never ends, but a settled window (no segment passes its cut-off) is evidence enough
            if state.phase is Phase.DONE or (single and hold_tick is not None and end - hold_tick >= rate):
                break
            start = end + 1
        replay = (key, front, checkpoints, (runs, force_runs, labels),
                  [s.env.rng.bit_generator.state for s in self.sensors])
        return GraspTrace(_trace_rows(runs, signal_parts, force_runs, labels), events, state, replay)

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

    def _set_rng_states(self, states) -> None:
        for sensor, rng_state in zip(self.sensors, states):
            sensor.env.rng.bit_generator.state = rng_state

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


def _trace_rows(runs, signal_parts, force_runs, labels) -> np.recarray:
    """``GraspSimulation.run``'s columns as one record array of ``TRACE_DTYPE``, two rows a tick."""
    phase, motor0, motor1, ticks = zip(*runs)
    forces, force_ticks = zip(*force_runs)
    rows = np.zeros(2 * sum(ticks), TRACE_DTYPE).view(np.recarray)  # np.empty: 10x slower with objects
    rows.tick, rows.finger = np.divmod(np.arange(len(rows)), 2)
    rows.phase = np.repeat(np.array(phase, dtype=object), 2 * np.array(ticks))
    rows.motor_deg = np.repeat(np.column_stack([motor0, motor1]), ticks, axis=0).ravel()
    rows.signal = np.concatenate(signal_parts)
    rows.contact_force_n = np.repeat(forces, 2 * np.array(force_ticks))
    rows.event = ""
    for tick, pair in labels:
        rows.event[2 * tick : 2 * tick + 2] = pair
    return rows


@dataclass
class LinearityResult:
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

    A = np.column_stack([sizes, np.ones_like(sizes)])
    coef, *_ = np.linalg.lstsq(A, gaps, rcond=None)
    resid = gaps - A @ coef
    ss_tot = float(((gaps - gaps.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return LinearityResult(
        sizes_mm=sizes,
        hold_gap_mm=gaps,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r2=r2,
    )
