"""Magnetic field model for the marker magnet under the fingertip.

``cylinder_flux`` is a uniformly magnetised cylinder discretised into
sub-dipoles (equal-volume quadrature).  In the near field a finite magnet
is *not* a point dipole: signal per unit moment depends on the magnet's
shape.  This is what makes differently sized markers genuinely different
in the interference study; with a pure point-dipole model every marker
would have an identical signal-to-disturbance ratio by construction.  It
evaluates two steps: ``_dipole_geometry`` (unit vectors and cubed
distances, independent of the moment) and ``_dipole_sum``.

``cylinder_flux`` of one offset is memoised on the magnet and the exact
offset (its float64 bit patterns) in a bounded LRU cache.
``TactileSensor.response`` computes a schedule's marker offsets as one
array and looks each entry's up here once; the repeats are a force held at
another location and the idle stimulus: 138 hits of 171 calls in the
open-loop studies, 33 of 90 in the two grasp studies.  A hit is the same
read-only array every time.
Stacked ``(m, 3)`` offsets are evaluated in one pass outside the memo.
``calibrate_moment`` keeps the geometry of its two probe points and sums
it per bisection step, so it does not go through ``cylinder_flux`` or its
memo; it is memoised itself: every grasp run builds its fingertips on the
same marker, and the result is a frozen ``MagnetSpec``.

Units: millimetres in, microtesla out, moments in A*m^2.  The offset is
measured from the centre of the magnet's bottom face (the face looking at
the flux sensor); sub-dipoles fill z in [0, height].
"""

from functools import lru_cache

import numpy as np

from .errors import NoConvergence, OffsetTooSmall
from .record import Record

# B[uT] = MU0_4PI * m[A m^2] * geometry / r[mm]^3
MU0_4PI_UT_MM3 = 1.0e8

# closest approach (mm) of a field point to the magnet body that is still accepted
MIN_OFFSET_MM = 0.5

# equal-volume quadrature of the cylinder: radial shells x angles x layers
_QUAD_RADIAL = 3
_QUAD_ANGULAR = 8
_QUAD_AXIAL = 3

# distinct (magnet, offset) pairs kept by the cylinder_flux memo (~0.3 kB each);
# in one process the open-loop studies meet 33 and the two grasp studies 57
FLUX_CACHE_SIZE = 1024

# distinct calibrations kept by the calibrate_moment memo; the open-loop studies meet 4
CALIBRATION_CACHE_SIZE = 64

CALIBRATION_PROBE_MM = 1.0  # lateral displacement used to define the signal
CALIBRATION_REL_TOL = 1e-6
CALIBRATION_MAX_ITER = 200

# calibrate_moment decides a step by the linear estimate alone when its
# moment is more than this far (relative) from it
_DECISION_MARGIN = 1e-9
_EPS = float(np.finfo(float).eps)


class MagnetSpec(Record, frozen=True):
    """Cylindrical marker magnet, axially magnetised along +z."""

    moment_a_m2: float
    height_mm: float = 1.0
    diameter_mm: float = 3.0
    magnet_id: int = 2

    def __post_init__(self):
        if self.moment_a_m2 <= 0.0 or self.height_mm <= 0.0 or self.diameter_mm <= 0.0:
            raise ValueError("magnet moment and dimensions must be strictly positive")


def _dipole_geometry(r_mm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors ``(..., n, 3)`` and cubed distances ``(..., n, 1)`` of offsets."""
    rn = np.linalg.norm(r_mm, axis=-1)[..., None]
    return r_mm / rn, rn**3


def _dipole_sum(moment_vec: np.ndarray, rhat: np.ndarray, rn3: np.ndarray) -> np.ndarray:
    """Field of equal point dipoles summed over axis -2 of their geometry."""
    mdot = rhat @ moment_vec
    contrib = (3.0 * mdot[..., None] * rhat - moment_vec) / rn3
    return MU0_4PI_UT_MM3 * contrib.sum(axis=-2)


def _check_cylinder_offset(offset: np.ndarray, diameter_mm: float, height_mm: float) -> None:
    radial = max(0.0, float(np.hypot(offset[0], offset[1])) - 0.5 * diameter_mm)
    axial = max(0.0, -offset[2], offset[2] - height_mm)
    if np.hypot(radial, axial) <= MIN_OFFSET_MM:
        raise OffsetTooSmall(
            f"field point within {MIN_OFFSET_MM} mm of the magnet body"
        )


@lru_cache(maxsize=32)
def _cylinder_grid(diameter_mm: float, height_mm: float) -> np.ndarray:
    """Equal-weight sub-dipole positions filling the cylinder volume."""
    radii = 0.5 * diameter_mm * np.sqrt((np.arange(_QUAD_RADIAL) + 0.5) / _QUAD_RADIAL)
    angles = 2.0 * np.pi * (np.arange(_QUAD_ANGULAR) + 0.5) / _QUAD_ANGULAR
    layers = height_mm * (np.arange(_QUAD_AXIAL) + 0.5) / _QUAD_AXIAL
    pts = [
        (r * np.cos(t), r * np.sin(t), z)
        for r in radii
        for t in angles
        for z in layers
    ]
    return np.array(pts)


def _cylinder_field(magnet: MagnetSpec, offsets: np.ndarray) -> np.ndarray:
    """Cylinder flux at ``(..., 3)`` offsets; the shell check is the caller's."""
    pts = _cylinder_grid(magnet.diameter_mm, magnet.height_mm)
    sub_moment = np.array([0.0, 0.0, magnet.moment_a_m2 / len(pts)])
    return _dipole_sum(sub_moment, *_dipole_geometry(offsets[..., None, :] - pts))


def cylinder_flux(magnet: MagnetSpec, offset_mm) -> np.ndarray:
    """Flux density (uT) of the finite cylindrical magnet.

    ``offset_mm`` points from the centre of the magnet's bottom face to the
    field point.  The total moment is spread uniformly over the volume.  A
    single offset's result is memoised and returned read-only; ``(m, 3)``
    offsets give ``(m, 3)`` fluxes in one pass, not memoised, equal row for
    row to the single-offset results.  Raises OffsetTooSmall if any field
    point lies within 0.5 mm of the magnet body.
    """
    offset = np.asarray(offset_mm, dtype=float)
    if offset.ndim != 2:
        return _cylinder_flux(magnet, offset.reshape(3).tobytes())
    for row in offset:
        _check_cylinder_offset(row, magnet.diameter_mm, magnet.height_mm)
    return _cylinder_field(magnet, offset)


@lru_cache(maxsize=FLUX_CACHE_SIZE)
def _cylinder_flux(magnet: MagnetSpec, offset_bytes: bytes) -> np.ndarray:
    # keyed on the offset's float64 bit patterns, so a hit is bit-identical
    offset = np.frombuffer(offset_bytes)
    _check_cylinder_offset(offset, magnet.diameter_mm, magnet.height_mm)
    flux = _cylinder_field(magnet, offset)
    flux.flags.writeable = False
    return flux


def effective_signal(magnet: MagnetSpec, gap_mm: float) -> float:
    """|delta B| (cylinder field) at the sensor for a 1 mm lateral shift of the magnet.

    The sensor sits ``gap_mm`` below the magnet; shifting the magnet +1 mm
    in x moves the field point to (-1, 0, -gap) in magnet coordinates.
    """
    rest = cylinder_flux(magnet, (0.0, 0.0, -gap_mm))
    shifted = cylinder_flux(magnet, (-CALIBRATION_PROBE_MM, 0.0, -gap_mm))
    return float(np.linalg.norm(shifted - rest))


def _linear_decision_band(target: float, unit: float, rn3: np.ndarray) -> tuple[float, float]:
    """Moments outside ``(low, high)`` compare with the target as with ``target / unit``.

    ``unit`` is the signal at moment 1 from sub-dipoles at cubed distances
    ``rn3``.  A field term is at most ``4 * m / (n * rn3)``, so rounding
    moves ``signal(m) / m`` off ``unit`` by at most ``eps * ((n + 8) * K + 5)``,
    ``K`` the summed term bound over the signal.  Where that is under a
    tenth of the margin the band is the margin; ``K`` grows about 5 per mm
    of gap, so this also keeps every reachable signal far from under- and
    overflow.  Elsewhere (gaps of about a metre or more, NaN geometry) the
    band is unbounded and every step is evaluated.
    """
    n = rn3.shape[-2]
    spread = 7.0 * MU0_4PI_UT_MM3 * float(np.sum(1.0 / rn3)) / n
    if not (unit > 0.0 and _EPS * ((n + 8) * spread / unit + 5.0) <= 0.1 * _DECISION_MARGIN):
        return -np.inf, np.inf
    estimate = target / unit
    return estimate * (1.0 - _DECISION_MARGIN), estimate * (1.0 + _DECISION_MARGIN)


@lru_cache(maxsize=CALIBRATION_CACHE_SIZE, typed=True)
def calibrate_moment(
    target_signal_ut: float,
    gap_mm: float,
    *,
    height_mm: float = 1.0,
    diameter_mm: float = 3.0,
    magnet_id: int = 2,
) -> MagnetSpec:
    """Find the cylinder moment whose 1 mm-shift signal at ``gap_mm`` is the target.

    Bisection on the moment; the signal is monotone in it.  Raises
    NoConvergence for non-positive targets and if the bracket/refinement
    budget of 200 iterations is exhausted, ValueError for non-positive
    dimensions and OffsetTooSmall for a probe within 0.5 mm of the magnet
    body; a failure is not memoised, so every call raises it afresh.

    The result is bit for bit the bisection over ``effective_signal``, but
    the probes' geometry is computed once, and since the signal is linear
    in the moment a step outside a 1e-9 relative margin of
    ``target / signal(1)`` is decided without evaluating the field.
    """
    if target_signal_ut <= 0.0:
        raise NoConvergence("target signal must be positive")
    MagnetSpec(1e-9, height_mm, diameter_mm, magnet_id)  # refuses bad dimensions first
    probes = np.array([(0.0, 0.0, -gap_mm), (-CALIBRATION_PROBE_MM, 0.0, -gap_mm)])
    for probe in probes:
        _check_cylinder_offset(probe, diameter_mm, height_mm)
    pts = _cylinder_grid(diameter_mm, height_mm)
    rhat, rn3 = _dipole_geometry(probes[:, None, :] - pts)
    n_sub = len(pts)

    def signal(m: float) -> float:
        field = _dipole_sum(np.array([0.0, 0.0, m / n_sub]), rhat, rn3)
        return float(np.linalg.norm(field[1] - field[0]))

    low, high = _linear_decision_band(target_signal_ut, signal(1.0), rn3)

    def below(m: float) -> bool:
        """signal(m) < target, evaluated only near the estimate."""
        if m < low:
            return True
        if m > high:
            return False
        return signal(m) < target_signal_ut

    lo, hi = 0.0, 1e-9
    iterations = 0
    while below(hi):
        hi *= 4.0
        iterations += 1
        if iterations >= CALIBRATION_MAX_ITER:
            raise NoConvergence("could not bracket the target signal")
    for _ in range(iterations, CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= CALIBRATION_REL_TOL * hi:
            achieved = signal(hi)
            if abs(achieved - target_signal_ut) > 1e-3 * target_signal_ut:
                raise NoConvergence("bisection stalled away from the target")
            return MagnetSpec(hi, height_mm, diameter_mm, magnet_id)
    raise NoConvergence("bisection did not converge in 200 iterations")


# Marker candidates for the interference study: measured signal strengths
# with assumed cylinder geometries (id, diameter mm, height mm, signal uT).
# #2 is the marker built into the fingertip.
MARKER_CANDIDATES = (
    (1, 2.0, 2.0, 211.0),
    (2, 3.0, 1.0, 580.0),
    (3, 4.0, 2.0, 853.0),
    (4, 5.0, 3.0, 1816.0),
)


def _calibrate_candidate(gap_mm: float, mid, diameter, height, signal) -> MagnetSpec:
    """One ``MARKER_CANDIDATES`` entry, calibrated at the rest gap."""
    return calibrate_moment(signal, gap_mm, height_mm=height, diameter_mm=diameter, magnet_id=mid)


def build_marker_set(gap_mm: float = 3.0) -> list[MagnetSpec]:
    """Calibrate all four candidate markers at the given rest gap."""
    return [_calibrate_candidate(gap_mm, *candidate) for candidate in MARKER_CANDIDATES]


def default_magnet(gap_mm: float = 3.0, magnet_id: int = 2) -> MagnetSpec:
    """The fingertip's own marker, calibrated at the rest gap."""
    for candidate in MARKER_CANDIDATES:
        if candidate[0] == magnet_id:
            return _calibrate_candidate(gap_mm, *candidate)
    raise ValueError(f"unknown magnet id {magnet_id}")
