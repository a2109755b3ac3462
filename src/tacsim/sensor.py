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

from dataclasses import dataclass, field

import numpy as np

from .errors import DisplacementOutOfRange
from .magnets import MagnetSpec, cylinder_flux, default_magnet
from .pipeline import ADC_MAX, FA1_SHAPE, TactileFrame
from .rotations import is_rotation

TAXEL_PITCH_MM = 2.5
TAXEL_ROWS = 4
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
FOOTPRINT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ElastomerSpec:
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


@dataclass(frozen=True)
class ContactStimulus:
    """A single quasi-static contact: where and how hard."""

    location_mm: tuple = (6.25, 6.25)
    force_n: tuple = (0.0, 0.0, 0.0)
    probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM

    def __post_init__(self):
        if self.force_n[2] < 0.0:
            raise ValueError("normal force must press toward the face (Fz >= 0)")
        face = TAXEL_COLS * TAXEL_PITCH_MM
        x, y = self.location_mm
        if not (0.0 <= x <= face and 0.0 <= y <= face):
            raise ValueError(f"contact location must lie on the {face} mm face")
        if self.probe_radius_mm <= 0.0:
            raise ValueError("probe radius must be positive")


@dataclass
class Environment:
    """External conditions plus the explicitly carried RNG state.

    ``orientation`` rotates sensor-frame vectors into the world frame; the
    earth field is given in the world frame.  ``neighbors`` is a list of
    (MagnetSpec, position_mm) pairs, each position locating the neighbour
    magnet's bottom-face centre in this sensor's frame.
    """

    earth_field_ut: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))
    neighbors: tuple = ()
    fa1_noise_counts: float = 2.0
    sa2_noise_ut: float = 1.0
    quantization_ut: float = 0.15
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.earth_field_ut = np.asarray(self.earth_field_ut, dtype=float).reshape(3)
        self.orientation = np.asarray(self.orientation, dtype=float)
        if not is_rotation(self.orientation):
            raise ValueError("orientation must be a proper rotation matrix")
        self.rng = np.random.default_rng(self.seed)


def footprint_weights(location_mm, probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM) -> np.ndarray:
    """Per-taxel share of the applied normal force.

    Isotropic Gaussian with sigma = probe_radius/2 sampled at the taxel
    centres; whatever falls outside the face is folded back in by
    renormalising, so the weights always sum to exactly 1.
    """
    x0, y0 = location_mm
    sigma = probe_radius_mm / 2.0
    d2 = (TAXEL_X_MM - x0) ** 2 + (TAXEL_Y_MM - y0) ** 2
    w = np.exp(-d2 / (2.0 * sigma**2))
    total = w.sum()
    if total <= 0.0:
        raise ValueError("contact footprint does not overlap the face")
    return w / total


def pressure_centroid(location_mm, probe_radius_mm: float = DEFAULT_PROBE_RADIUS_MM) -> np.ndarray:
    """Centre of the pressure actually delivered to the taxel grid (mm).

    This is the ground-truth contact location: the force/torque reference
    sees the delivered pressure distribution, not the nominal probe centre.
    """
    w = footprint_weights(location_mm, probe_radius_mm)
    return np.array([(w * TAXEL_X_MM).sum(), (w * TAXEL_Y_MM).sum()])


@dataclass
class Fa1Sample:
    counts: np.ndarray
    saturated: bool


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
) -> Fa1Sample:
    """Integer taxel counts for one contact: noise is added before quantisation.

    A count that the 10-bit range clips is flagged as ``saturated``.
    """
    reading = _fa1_reading(stimulus, elastomer)
    if env.fa1_noise_counts > 0.0:
        reading = reading + env.rng.normal(0.0, env.fa1_noise_counts, size=reading.shape)
    saturated = bool(np.rint(reading).max() > ADC_MAX)
    return Fa1Sample(counts=_fa1_counts(reading), saturated=saturated)


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
    """Noise-free flux (uT) at the sensor: marker + earth + neighbours.

    The earth field enters through the transpose of the sensor-to-world
    rotation; neighbour markers contribute their static fields.
    """
    delta = bone_displacement(stimulus.force_n, elastomer)
    R = env.orientation if orientation is None else np.asarray(orientation, dtype=float)
    b = magnet_field_at_sensor(magnet, delta, elastomer.sa2_thickness_mm)
    b = b + R.T @ env.earth_field_ut
    for spec, position in env.neighbors:
        b = b + cylinder_flux(spec, -np.asarray(position, dtype=float))
    return b


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


def rest_flux(magnet: MagnetSpec, elastomer: ElastomerSpec) -> np.ndarray:
    """Marker field at zero displacement (no earth, no neighbours, no noise)."""
    return magnet_field_at_sensor(magnet, np.zeros(3), elastomer.sa2_thickness_mm)


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

    def sample_block(self, stimulus: ContactStimulus, n: int, orientation=None):
        """``n`` consecutive frames of one held stimulus.

        Returns ``(n, 16)`` integer counts and ``(n, 3)`` float32 flux (uT).
        The noise-free response is computed once; the noise of all ``n``
        frames is one draw whose row *i* holds frame *i*'s draws in the
        per-frame order (16 taxels, then 3 flux axes; a source that is off
        draws nothing), so the block equals ``n`` calls of ``sample`` bit for
        bit and leaves the RNG in the same state.
        """
        env = self.env
        reading = _fa1_reading(stimulus, self.elastomer).reshape(1, 16).repeat(n, axis=0)
        b = _sa2_field(stimulus, self.magnet, self.elastomer, env, orientation)
        b = b.reshape(1, 3).repeat(n, axis=0)
        fa1_on, sa2_on = env.fa1_noise_counts > 0.0, env.sa2_noise_ut > 0.0
        scale = [env.fa1_noise_counts] * (16 if fa1_on else 0)
        scale += [env.sa2_noise_ut] * (3 if sa2_on else 0)
        if scale:
            # rng.normal(0.0, scale, size=(n, k)) element by element: numpy
            # computes loc + scale * z.  Its broadcasting path for an array
            # scale is ~3x slower on short blocks.
            noise = 0.0 + np.array(scale) * env.rng.standard_normal((n, len(scale)))
            if fa1_on:
                reading = reading + noise[:, :16]
            if sa2_on:
                b = b + noise[:, -3:]
        return _fa1_counts(reading), _quantize_flux(b, env.quantization_ut).astype(np.float32)

    def sample(self, stimulus: ContactStimulus, timestamp_us: int, orientation=None) -> TactileFrame:
        counts, flux = self.sample_block(stimulus, 1, orientation)
        return TactileFrame(
            timestamp_us=timestamp_us,
            finger_id=self.finger_id,
            fa1=counts.reshape(FA1_SHAPE),
            sa2=flux[0],
        )
