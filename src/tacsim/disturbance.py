"""Magnetic interference analysis: earth-field estimation and marker SNR.

Rotating the sensor makes the (body-frame) earth field move while the
marker field stays put, so pairs of poses give linear constraints
``delta_b = (R - I) @ b_e`` on the earth field at the reference pose.
``(R - I)`` annihilates the rotation axis, so rotations about a single axis
can never pin down the component along it -- the solver refuses to guess
and reports the blind direction instead.  The printed closed form solves
the one-observation normal equations; its matrix is singular for exactly
that reason, which is why the implementation stacks observations and uses
a rank-revealing decomposition.
"""

import numpy as np

from .errors import DegenerateRotation, InvalidSignal, RankDeficient
from .magnets import MagnetSpec, build_marker_set, cylinder_flux, effective_signal
from .record import Record, fresh
from .rotations import is_rotation

IDENTITY_TOL = 1e-9
RANK_TOL = 1e-9


def snr(signal_ut, disturbance_ut):
    """Signal fraction s / (s + d) in [0, 1] (not a power ratio), elementwise."""
    if np.any(np.less_equal(signal_ut, 0.0)):
        raise InvalidSignal("signal strength must be positive")
    if np.any(np.less(disturbance_ut, 0.0)):
        raise InvalidSignal("disturbance magnitude cannot be negative")
    return signal_ut / (signal_ut + disturbance_ut)


class RotationObservation(Record):
    """Measured flux change for one rotation away from the reference pose.

    ``rotation`` maps the reference-pose field vector to the rotated-pose
    one: delta_b = (rotation - I) @ b_reference.
    """

    rotation: np.ndarray
    delta_b_ut: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.delta_b_ut = np.asarray(self.delta_b_ut, dtype=float).reshape(3)
        if not is_rotation(self.rotation):
            raise ValueError("observation rotation must be a proper rotation")


class FieldFitReport(Record):
    rank: int
    condition: float
    residual_rms_ut: float
    n_observations: int


def estimate_earth_field(observations) -> tuple[np.ndarray, FieldFitReport]:
    """Least-squares earth field (reference body frame) from rotations.

    Raises DegenerateRotation if an observation is the identity pose and
    RankDeficient (with the unobservable direction attached) whenever the
    stacked system leaves a direction unconstrained -- e.g. any number of
    rotations about one common axis.
    """
    observations = list(observations)
    if not observations:
        raise RankDeficient("no observations", null_direction=None)
    rows = []
    rhs = []
    for obs in observations:
        R = obs.rotation
        if np.linalg.norm(R - np.eye(3)) < IDENTITY_TOL:
            raise DegenerateRotation("rotation is the identity; no field change")
        rows.append(R - np.eye(3))
        rhs.append(obs.delta_b_ut)
    A = np.vstack(rows)
    y = np.concatenate(rhs)

    _, svals, vt = np.linalg.svd(A, full_matrices=True)
    if svals[-1] < RANK_TOL * svals[0]:
        null = vt[-1]
        raise RankDeficient(
            "rotation set cannot observe the field component along "
            f"({null[0]:+.3f}, {null[1]:+.3f}, {null[2]:+.3f})",
            null_direction=null,
        )
    solution, residual, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ solution
    report = FieldFitReport(
        rank=int(rank),
        condition=float(svals[0] / svals[-1]),
        residual_rms_ut=float(np.sqrt(np.mean(resid**2))),
        n_observations=len(observations),
    )
    return solution, report


def predicted_disturbance(b_e_ut, rotation) -> np.ndarray:
    """Expected baseline-relative earth contribution at a rotated pose."""
    R = np.asarray(rotation, dtype=float)
    return (R - np.eye(3)) @ np.asarray(b_e_ut, dtype=float)


class SnrReport(Record):
    """The sweep as columns: ``m`` markers by ``n`` lateral offsets."""

    magnet_ids: np.ndarray  # (m,)
    dy_mm: np.ndarray  # (n,)
    signal_ut: np.ndarray  # (m,)
    disturbance_ut: np.ndarray  # (m, n)
    snr: np.ndarray  # (m, n)
    out_files: list = fresh(list)

    def table(self, magnet_id: int) -> np.ndarray:
        """``(n, 4)`` rows of dy, signal, disturbance and ratio for one marker."""
        i = np.flatnonzero(self.magnet_ids == magnet_id)
        n = len(self.dy_mm)
        return np.column_stack([
            np.tile(self.dy_mm, len(i)), np.repeat(self.signal_ut[i], n),
            self.disturbance_ut[i].ravel(), self.snr[i].ravel(),
        ])

    def argmax_ids(self) -> np.ndarray:
        """Best marker id at each lateral offset; the first marker wins a tie."""
        return self.magnet_ids[np.argmax(self.snr, axis=0)]


def adjacent_snr_sweep(
    magnets: list[MagnetSpec] | None = None,
    dy_mm=None,
    gap_mm: float = 3.0,
) -> SnrReport:
    """SNR of each candidate marker against its own twin one unit over.

    The disturbance at lateral offset ``dy`` is the magnitude of the
    neighbour marker's field at this sensor (neighbour bottom face at
    (0, dy, gap) in this sensor's frame); the signal is the marker's
    1 mm effective signal at the rest gap.
    """
    if magnets is None:
        magnets = build_marker_set(gap_mm)
    if dy_mm is None:
        dy_mm = np.arange(4.0, 30.0 + 0.5, 1.0)
    dy_mm = np.asarray(dy_mm, dtype=float)
    signal = np.array([effective_signal(magnet, gap_mm) for magnet in magnets])
    offsets = np.column_stack([np.zeros_like(dy_mm), -dy_mm, np.full_like(dy_mm, -gap_mm)])
    # a norm per row: norm(..., axis=1) rounds differently
    disturbance = np.array([
        [np.linalg.norm(flux) for flux in cylinder_flux(magnet, offsets)] for magnet in magnets
    ])
    return SnrReport(
        magnet_ids=np.array([magnet.magnet_id for magnet in magnets]),
        dy_mm=dy_mm,
        signal_ut=signal,
        disturbance_ut=disturbance,
        snr=snr(signal[:, None], disturbance),
    )
