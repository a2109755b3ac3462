"""Physical model of one fingertip sensor unit.

The unit stacks a 4x4 piezoresistive taxel array (0.5 mm skin layer) above
a magnet-bearing bone that floats on a 3 mm elastomer over a 3-axis flux
sensor.  Normal load strains the taxels through a Gaussian pressure
footprint; the whole contact wrench also displaces the bone, moving the
marker magnet relative to the flux sensor.

Axes: x right, y up the face, z out of the face toward the contact.
Positive Fz presses the bone toward the flux sensor; positive shear moves
it in the same direction as the force.  The taxel at row r, column c
(1-based) is centred at (pitch*c, pitch*r); the face centre is at
(6.25, 6.25) mm.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.random import default_rng  # at import: every study seeds generators

from .errors import DisplacementOutOfRange
from .magnets import MagnetSpec, cylinder_flux, default_magnet
from .pipeline import ADC_MAX, FA1_SHAPE, TactileFrame
from .record import Record
from .rotations import is_rotation

TAXEL_PITCH_MM = 2.5
TAXEL_COLS = 4
FACE_CENTER_MM = np.array([6.25, 6.25])

# taxel centre coordinates, row-major: [r, c] -> (x, y)
_COLS, _ROWS = np.meshgrid(np.arange(1, 5), np.arange(1, 5))
TAXEL_X_MM = TAXEL_PITCH_MM * _COLS.astype(float)
TAXEL_Y_MM = TAXEL_PITCH_MM * _ROWS.astype(float)

# fraction of the lower-layer thickness the bone may travel before the stop
MAX_TRAVEL_FRACTION = 0.8

# fraction of the face area over which the bone loads the lower layer
BONE_BEARING_FRACTION = 0.6

DEFAULT_PROBE_RADIUS_MM = 5.3

# distinct (location, probe radius) footprints kept by the footprint_weights
# memo; in one process the open-loop studies meet 5, the grasp studies 1
FOOTPRINT_CACHE_SIZE = 256


class ElastomerSpec(Record, frozen=True):
    """Shared material/electrical constants for both sensing layers."""

    modulus_kpa: float = 83.0
    fa1_thickness_mm: float = 0.5
    sa2_thickness_mm: float = 3.0
    gauge_factor: float = 2.0
    rest_resistance: float = 845.0
    backlash_mm: float = 0.015
    dead_zone_mm: float = 0.2

    def __post_init__(self):
        positive = (
            self.modulus_kpa,
            self.fa1_thickness_mm,
            self.sa2_thickness_mm,
            self.gauge_factor,
            self.rest_resistance,
        )
        if any(v <= 0.0 for v in positive):
            raise ValueError("material constants must be strictly positive")
        if self.backlash_mm < 0.0 or self.dead_zone_mm < 0.0:
            raise ValueError("backlash and dead zone must be non-negative")


class ContactStimulus(Record, frozen=True):
    """A single quasi-static contact: where and how hard."""

    location_mm: tuple = (6.25, 6.25)
    force_n: tuple = (0.0, 0.0, 0.0)
    probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM

    def __post_init__(self):
        if len(self.force_n) != 3:
            raise ValueError("force must have 3 components (Fx, Fy, Fz)")
        if len(self.location_mm) != 2:
            raise ValueError("contact location must have 2 coordinates (x, y)")
        if not all(map(math.isfinite, self.force_n)):
            raise ValueError("force components must be finite")
        if self.force_n[2] < 0.0:
            raise ValueError("normal force must press toward the face (Fz >= 0)")
        face = TAXEL_COLS * TAXEL_PITCH_MM
        x, y = self.location_mm
        if not (0.0 <= x <= face and 0.0 <= y <= face):
            raise ValueError(f"contact location must lie on the {face} mm face")
        if not 0.0 < self.probe_radius_mm < math.inf:
            raise ValueError("probe radius must be positive and finite")


class Environment(Record):
    """External conditions plus the explicitly carried RNG state.

    The earth field is given in the world frame; each sampling call poses
    the sensor with its own sensor-to-world ``orientation``.  ValueError
    for an earth field that is not finite, and for a noise scale or
    quantisation step that is NaN, negative or infinite (0 turns either
    off).  ``rng``, the generator seeded with ``seed``, is made by
    ``__post_init__``: it is not a field, so neither an argument nor in ``repr``.
    """

    earth_field_ut: np.ndarray = (0.0, 0.0, 0.0)  # made an array by __post_init__
    fa1_noise_counts: float = 2.0
    sa2_noise_ut: float = 1.0
    quantization_ut: float = 0.15
    seed: int = 0

    def __post_init__(self):
        self.earth_field_ut = np.asarray(self.earth_field_ut, dtype=float).reshape(3)
        if not np.isfinite(self.earth_field_ut).all():
            raise ValueError("earth field must be finite")
        for name in ("fa1_noise_counts", "sa2_noise_ut", "quantization_ut"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and not negative, got {getattr(self, name)!r}")
        self.rng = default_rng(self.seed)


def footprint_weights(location_mm, probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM) -> np.ndarray:
    """Per-taxel share of the applied normal force.

    Isotropic Gaussian with sigma = probe_radius/2 sampled at the taxel
    centres; whatever falls outside the face is folded back in by
    renormalising, so the weights always sum to exactly 1.  Memoised per
    location and radius (as floats); the result is a read-only array.
    """
    x0, y0 = location_mm
    return _footprint_weights(float(x0), float(y0), float(probe_radius_mm))


@lru_cache(maxsize=FOOTPRINT_CACHE_SIZE)
def _footprint_weights(x0: float, y0: float, probe_radius_mm: float) -> np.ndarray:
    sigma = probe_radius_mm / 2.0
    d2 = (TAXEL_X_MM - x0) ** 2 + (TAXEL_Y_MM - y0) ** 2
    w = np.exp(-d2 / (2.0 * sigma**2))
    total = w.sum()
    if total <= 0.0:
        raise ValueError("contact footprint does not overlap the face")
    w /= total
    w.flags.writeable = False
    return w


def pressure_centroid(location_mm, probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM) -> np.ndarray:
    """Centre of the pressure actually delivered to the taxel grid (mm).

    This is the ground-truth contact location: the force/torque reference
    sees the delivered pressure distribution, not the nominal probe centre.
    """
    w = footprint_weights(location_mm, probe_radius_mm)
    return np.array([(w * TAXEL_X_MM).sum(), (w * TAXEL_Y_MM).sum()])


def fa1_gain(elastomer: ElastomerSpec) -> float:
    # counts per unit strain
    return elastomer.rest_resistance * elastomer.gauge_factor


def _fa1_reading(stimulus: ContactStimulus, elastomer: ElastomerSpec) -> np.ndarray:
    """Noise-free 4x4 taxel reading (counts, unrounded) for one contact.

    Each taxel is a linear spring: strain = (its share of Fz / taxel area)
    / modulus, reading = rest_resistance * gauge_factor * strain.
    """
    fz = stimulus.force_n[2]
    w = footprint_weights(stimulus.location_mm, stimulus.probe_radius_mm)
    area_m2 = (TAXEL_PITCH_MM * 1e-3) ** 2
    stress_pa = w * fz / area_m2
    strain = stress_pa / (elastomer.modulus_kpa * 1e3)
    return fa1_gain(elastomer) * strain


def _fa1_counts(reading: np.ndarray) -> np.ndarray:
    """Round a (noisy) reading to integer counts, clipped to the 10-bit range."""
    return np.clip(np.rint(reading), 0, ADC_MAX).astype(int)


def sample_fa1(
    stimulus: ContactStimulus, elastomer: ElastomerSpec, env: Environment
) -> np.ndarray:
    """Integer 4x4 taxel counts for one contact: noise is added before quantisation."""
    reading = _fa1_reading(stimulus, elastomer)
    if env.fa1_noise_counts > 0.0:
        reading = reading + env.rng.normal(0.0, env.fa1_noise_counts, size=reading.shape)
    return _fa1_counts(reading)


def compliance_mm_per_n(elastomer: ElastomerSpec) -> float:
    """Bone translation per newton, identical for all three axes.

    Lower layer treated as a linear spring; the bone loads a fixed
    fraction of the 4-pitch-square face.
    """
    face_mm = TAXEL_COLS * TAXEL_PITCH_MM
    area_m2 = BONE_BEARING_FRACTION * (face_mm * 1e-3) ** 2
    stiffness_n_per_m = elastomer.modulus_kpa * 1e3 * area_m2 / (
        elastomer.sa2_thickness_mm * 1e-3
    )
    return 1e3 / stiffness_n_per_m


def travel_stop_force_n(elastomer: ElastomerSpec) -> float:
    """Largest force magnitude (N) that ``bone_displacement`` takes without raising."""
    compliance, limit = compliance_mm_per_n(elastomer), MAX_TRAVEL_FRACTION * elastomer.sa2_thickness_mm
    force = limit / compliance
    while compliance * force > limit:  # the quotient can round up by an ulp
        force = math.nextafter(force, 0.0)
    return force


def bone_displacement(force_n, elastomer: ElastomerSpec) -> np.ndarray:
    """Quasi-static bone displacement (mm) under the contact wrench."""
    delta = compliance_mm_per_n(elastomer) * np.asarray(force_n, dtype=float)
    limit = MAX_TRAVEL_FRACTION * elastomer.sa2_thickness_mm
    if np.linalg.norm(delta) > limit:
        raise DisplacementOutOfRange(
            f"|delta| = {np.linalg.norm(delta):.3f} mm exceeds the {limit:.2f} mm stop"
        )
    return delta


def magnet_field_at_sensor(magnet: MagnetSpec, displacement_mm, gap_mm: float) -> np.ndarray:
    """Marker flux (uT) at the sensor for a given bone displacement."""
    dx, dy, dz = displacement_mm
    # magnet bottom face rests at (0, 0, gap); +dz moves it toward the sensor
    position = np.array([dx, dy, gap_mm - dz])
    return cylinder_flux(magnet, -position)


def _sa2_field(
    stimulus: ContactStimulus,
    magnet: MagnetSpec,
    elastomer: ElastomerSpec,
    env: Environment,
    orientation=None,
) -> np.ndarray:
    """Noise-free flux (uT) at the sensor: marker + earth.

    The earth field enters through the transpose of the sensor-to-world
    rotation ``orientation`` (``None`` is the identity).
    """
    delta = bone_displacement(stimulus.force_n, elastomer)
    R = np.eye(3)
    if orientation is not None:
        R = np.asarray(orientation, dtype=float)
        if not is_rotation(R):
            raise ValueError("orientation must be a proper rotation matrix")
    b = magnet_field_at_sensor(magnet, delta, elastomer.sa2_thickness_mm)
    return b + R.T @ env.earth_field_ut


def _quantize_flux(b: np.ndarray, step_ut: float) -> np.ndarray:
    """Round flux to the ADC step (no rounding when the step is 0)."""
    return np.rint(b / step_ut) * step_ut if step_ut > 0.0 else b


def sample_sa2(
    stimulus: ContactStimulus,
    magnet: MagnetSpec,
    elastomer: ElastomerSpec,
    env: Environment,
    orientation=None,
) -> np.ndarray:
    """Three-axis flux sample (uT): noise-free field plus noise, quantised."""
    b = _sa2_field(stimulus, magnet, elastomer, env, orientation)
    if env.sa2_noise_ut > 0.0:
        b = b + env.rng.normal(0.0, env.sa2_noise_ut, size=3)
    return _quantize_flux(b, env.quantization_ut)


def apply_hysteresis(displacement_series, backlash_mm: float, dead_zone_mm: float = 0.0):
    """Rate-independent play (backlash) after an optional dead zone.

    The play operator has half-width backlash/2, so a monotone release curve
    lags the press curve by exactly ``backlash_mm`` of input displacement.
    The dead zone swallows the first ``dead_zone_mm`` of travel.
    """
    if backlash_mm < 0.0 or dead_zone_mm < 0.0:
        raise ValueError("backlash and dead zone must be non-negative")
    half = backlash_mm / 2.0
    out = np.empty(len(displacement_series), dtype=float)
    y = 0.0
    for i, x in enumerate(np.asarray(displacement_series, dtype=float)):
        z = np.sign(x) * max(abs(x) - dead_zone_mm, 0.0)
        y = min(max(y, z - half), z + half)
        out[i] = y
    return out


class TactileSensor:
    """One finger's sensor: bundles the specs and produces raw frames."""

    def __init__(
        self,
        magnet: MagnetSpec | None = None,
        elastomer: ElastomerSpec = ElastomerSpec(),
        env: Environment | None = None,
        finger_id: int = 0,
    ):
        self.magnet = magnet if magnet is not None else default_magnet(
            elastomer.sa2_thickness_mm
        )
        self.elastomer = elastomer
        self.env = env if env is not None else Environment()
        self.finger_id = finger_id

    @property
    def physics(self) -> tuple:
        """What ``response`` reads of the sensor: sensors with equal keys
        give equal responses to every schedule (the earth field by its bits)."""
        return self.magnet, self.elastomer, self.env.earth_field_ut.tobytes()

    def response(self, schedule) -> np.ndarray:
        """Noise-free ``(N, 19)`` rows of a schedule of held stimuli.

        A schedule is a sequence of ``(stimulus, n, orientation)`` entries,
        held in turn for ``n`` frames each.  A row is the 16 taxel readings
        (counts, unrounded, row-major) then the 3 flux axes (uT); each
        entry's row is computed once.  ValueError, before anything is
        computed, for an ``n`` that is not an integer of 0 or more.
        """
        frames = 0
        for _, n, _ in schedule:
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
                raise ValueError(f"a schedule entry's frame count must be an integer >= 0, got {n!r}")
            frames += n
        rows = np.empty((frames, 19))
        end = 0
        for stimulus, n, R in schedule:
            start, end = end, end + n
            rows[start:end, :16] = _fa1_reading(stimulus, self.elastomer).reshape(16)
            rows[start:end, 16:] = _sa2_field(stimulus, self.magnet, self.elastomer, self.env, R)
        return rows

    def digitize(self, response: np.ndarray):
        """``(N, 16)`` integer counts and ``(N, 3)`` float32 flux (uT) of noise-free rows.

        The noise of all rows is one draw from the sensor's RNG whose row *i*
        holds frame *i*'s draws in the per-frame order (16 taxels, then 3
        flux axes; a source that is off draws nothing); then the counts are
        rounded and clipped, and the flux quantised.  ``response`` is not
        changed, so sensors of equal ``physics`` can share it.
        """
        env = self.env
        lo, hi = (0 if env.fa1_noise_counts > 0.0 else 16), (19 if env.sa2_noise_ut > 0.0 else 16)
        if lo < hi:
            # rng.normal(0.0, scale, size=(N, k)) element by element, in place:
            # numpy computes loc + scale * z (so -0.0 becomes 0.0).  Its
            # broadcasting path for an array scale is ~3x slower on short blocks.
            noise = env.rng.standard_normal((len(response), hi - lo))
            noise *= np.array([env.fa1_noise_counts] * 16 + [env.sa2_noise_ut] * 3)[lo:hi]
            noise += 0.0
            if hi - lo == 19:  # the noisy rows go into the noise's buffer
                response = np.add(noise, response, out=noise)
            else:  # a source is off, and its columns stay as they are
                response = response.copy()
                response[:, lo:hi] += noise
        flux = _quantize_flux(response[:, 16:], env.quantization_ut)
        return _fa1_counts(response[:, :16]), flux.astype(np.float32)

    def sample_block(self, schedule):
        """Consecutive frames of a schedule of held stimuli: ``digitize(response(schedule))``.

        Returns ``(N, 16)`` integer counts and ``(N, 3)`` float32 flux (uT)
        for the schedule's ``N`` frames.  Since every entry's response is
        computed before the one noise draw, the block equals chained
        one-entry blocks, and ``N`` calls of ``sample``, bit for bit, and
        leaves the RNG in the same state.
        """
        return self.digitize(self.response(schedule))

    def sample(self, stimulus: ContactStimulus, timestamp_us: int, orientation=None) -> TactileFrame:
        counts, flux = self.sample_block([(stimulus, 1, orientation)])
        return TactileFrame(
            timestamp_us=timestamp_us,
            finger_id=self.finger_id,
            fa1=counts.reshape(FA1_SHAPE),
            sa2=flux[0],
        )
