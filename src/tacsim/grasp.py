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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CrushDetected, GraspFailed, RankDeficientFit
from .pipeline import FrontEnd, StreamConfig
from .sensor import ContactStimulus


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
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")

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
        if self.release_below <= 0.0 or self.close_above <= 0.0:
            raise ValueError("thresholds must be positive")
        if self.release_below >= self.close_above:
            raise ValueError("release threshold must sit below the close threshold")

    @property
    def close_threshold(self) -> float:
        return self.close_above


@dataclass(frozen=True)
class GripperGeometry:
    opening_mm: float = 50.0
    pinion_radius_mm: float = 6.0
    increment_deg: float = 1.5
    max_travel_deg: float = 200.0

    @property
    def mm_per_deg(self) -> float:
        return self.pinion_radius_mm * np.pi / 180.0

    @property
    def mm_per_increment(self) -> float:
        return self.increment_deg * self.mm_per_deg


# ---------------------------------------------------------------------------
# objects between the fingers
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

    def contact_force(self, separation_mm: float) -> float:
        return max(0.0, (self.size_mm - separation_mm) * self.stiffness_n_per_mm)


@dataclass(frozen=True)
class Egg:
    size_mm: float = 45.0
    stiffness_n_per_mm: float = 5.0
    crush_force_n: float = 25.0

    def __post_init__(self):
        if self.stiffness_n_per_mm <= 0.0 or self.crush_force_n <= 0.0:
            raise ValueError("stiffness and crush force must be positive")

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
        if self.arm_rate_n_per_mm <= 0.0 or self.spring_rate_n_per_mm <= 0.0:
            raise ValueError("spring rates must be positive")
        if not (0.0 <= self.object_size_mm <= self.tip_gap_mm):
            raise ValueError("object must fit between the open tips")

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

    def travel_mm(self, geometry: GripperGeometry) -> np.ndarray:
        return self.motor_deg * geometry.mm_per_deg


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
            if state.halted.all() and state.phase is Phase.CLOSING:
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
            if (signal < policy.release_below).all():
                state.phase = Phase.DONE
                events.append("done")

    if inc.any():
        state.motor_deg = np.clip(
            state.motor_deg + inc * geometry.increment_deg, 0.0, geometry.max_travel_deg
        )
    return inc, events


@dataclass
class TraceRow:
    tick: int
    phase: str
    finger: int
    motor_deg: float
    signal: float
    contact_force_n: float
    event: str


@dataclass
class GraspTrace:
    rows: list
    events: list
    state: GripperState

    def event_tick(self, name: str) -> int | None:
        for tick, event in self.events:
            if event == name:
                return tick
        return None

    def separation_at(self, tick: int, geometry: GripperGeometry) -> float:
        motor = [row.motor_deg for row in self.rows if row.tick == tick]
        return geometry.opening_mm - sum(motor) * geometry.mm_per_deg


class GraspSimulation:
    """Ties sensors, stream front end, object, and controller into one loop.

    ``sensors`` holds the two fingertips, finger *f* at index *f*; they
    carry the physics, the noise and the seeded RNG state.

    ``run`` gives, bit for bit, what a per-tick ``sensor.sample`` ->
    ``StreamProcessor.process`` loop gives, but samples and filters each
    stretch of constant stimulus as one block per finger:

    * The gripper idles through the initialization window, so the stimulus
      is the force at full opening throughout; one ``FrontEnd`` over both
      fingers samples the window as one block per finger and sets their
      baselines.
    * After that the motor moves only on gated ticks (``tick % ma_window ==
      0``), so the stimulus holds from the tick after one gate through the
      next gate.  Each such segment of ``n`` ticks is one ``FrontEnd.hold``,
      an ``(n, 2, 19)`` block (each finger has its own RNG, so these are the
      per-tick draws), and one ``grip_signal`` call on it; only the
      controller and the trace run per tick.
    * A segment also ends at ``max_ticks`` and at the single-threshold
      cut-off, where the loop stops, so no frame past the last tick is drawn.
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

    def run(self, max_ticks: int = 2000) -> GraspTrace:
        state = GripperState()
        trace = GraspTrace(rows=[], events=[], state=state)
        rows, events = trace.rows, trace.events
        idle = min(max_ticks, self.stream.init_samples)
        if idle < 1:
            return trace

        # initialization window: the motor idles, so the force is constant
        force = self._contact_force(state)
        stimulus = ContactStimulus(force_n=(0.0, 0.0, force))
        for tick in range(idle):
            rows += [TraceRow(tick, Phase.IDLE.value, f, 0.0, 0.0, force, "") for f in range(2)]
        state.tick = idle - 1
        if idle < self.stream.init_samples:
            for sensor in self.sensors:
                sensor.sample_block(stimulus, idle)
            return trace
        front = FrontEnd(self.sensors, self.stream, stimulus)

        gate = self.step_interval_ticks
        single = not isinstance(self.policy, HysteresisPolicy)
        start = idle
        while start < max_ticks:
            force = self._contact_force(state)
            stimulus = ContactStimulus(force_n=(0.0, 0.0, force))
            end = min(-(-start // gate) * gate, max_ticks - 1)  # the next gated tick
            if single and state.phase is Phase.HOLDING:
                end = min(end, self._hold_tick(events) + self.stream.sample_rate_hz)
            signals = grip_signal(front.hold(stimulus, end - start + 1), self.policy.blend)

            for tick, signal in zip(range(start, end + 1), signals):
                state.tick = tick
                if state.phase is Phase.IDLE:
                    state.phase = Phase.CLOSING
                    events.append((tick, "closing_start"))
                _, tick_events = controller_step(
                    state, self.policy, signal, self.geometry, self.dt_s,
                    step_gate=(tick % gate == 0),
                )
                events += [(tick, name) for name in tick_events]
                phase, motors, values = state.phase.value, state.motor_deg.tolist(), signal.tolist()
                labels = [";".join(e for e in tick_events if e.endswith(str(f)) or not e[-1].isdigit())
                          for f in range(2)] if tick_events else ("", "")
                rows += [TraceRow(tick, phase, f, motors[f], values[f], force, labels[f]) for f in range(2)]
                if state.phase is Phase.DONE:
                    return trace
                # single-threshold holds indefinitely; a short settled window
                # is enough evidence for the study
                if single and state.phase is Phase.HOLDING and (
                    tick - self._hold_tick(events) >= self.stream.sample_rate_hz
                ):
                    return trace
            start = end + 1
        return trace

    def _contact_force(self, state: GripperState) -> float:
        """Object force at the current finger separation; CrushDetected past its limit."""
        separation = self.geometry.opening_mm - state.travel_mm(self.geometry).sum()
        force = self.object_model.contact_force(separation)
        crush = self.object_model.crush_force_n
        if crush is not None and force > crush:
            raise CrushDetected(
                f"contact force {force:.2f} N exceeds crush limit {crush:.2f} N"
            )
        return force

    @staticmethod
    def _hold_tick(events) -> int:
        for tick, name in reversed(events):
            if name == "hold_start":
                return tick
        return 0


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
    if np.unique(sizes).size < 2:
        raise RankDeficientFit("need at least two distinct object sizes")
    gaps = []
    for size in sizes:
        trace = grasp_size(float(size))
        hold = trace.event_tick("hold_start")
        if hold is None:
            raise GraspFailed(f"size {size} mm never reached a hold")
        gaps.append(trace.separation_at(hold, geometry))
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
