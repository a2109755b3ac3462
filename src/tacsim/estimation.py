"""Contact estimation: location, force, torque, and calibration fitting.

Location is the taxel-weighted centroid.  Force is affine per axis; the
normal axis blends the flux z-channel with the taxel sum through a blend
weight picked by a grid search on residual RMS.  The two z-channels are
brought to a comparable scale before blending (their standard deviations
over the calibration sweep); the channel means end up absorbed in the
fitted intercept, which keeps the zero-input output equal to ``b``.
"""

import math

import numpy as np

from .errors import NoContact, RankDeficientFit
from .pipeline import write_sections
from .record import Record
from .sensor import TAXEL_X_MM, TAXEL_Y_MM

DEFAULT_PITCH_MM = 2.5
CONTACT_THRESHOLD_COUNTS = 5.0
BLEND_GRID_STEP = 0.05

# force/torque reference frame origin: 10 mm behind the face centre
DEFAULT_JOINT_CENTER_MM = np.array([6.25, 6.25, -10.0])


class CalibrationParams(Record):
    """Per-axis affine force map plus the z-channel blend."""

    k: np.ndarray = (1.0, 1.0, 1.0)  # made arrays by __post_init__
    b: np.ndarray = (0.0, 0.0, 0.0)
    blend: float = 0.0
    pitch_mm: float = DEFAULT_PITCH_MM
    scale_bz: float = 1.0
    scale_sum: float = 1.0
    r2: np.ndarray | None = None
    rmsd_curve: np.ndarray | None = None

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=float).reshape(3)
        self.b = np.asarray(self.b, dtype=float).reshape(3)
        if not (0.0 <= self.blend <= 1.0):
            raise ValueError("blend weight must lie in [0, 1]")
        if not 0.0 < self.pitch_mm < math.inf:
            raise ValueError("taxel pitch must be positive and finite")
        if not (0.0 < self.scale_bz < math.inf and 0.0 < self.scale_sum < math.inf):
            raise ValueError("channel scales must be positive and finite")
        if not np.all(np.isfinite(self.k)) or not np.all(np.isfinite(self.b)):
            raise ValueError("slopes and intercepts must be finite")


class SweepSample(Record):
    """One averaged dwell from a characterization run, or ``n`` of them on a leading axis."""

    force_true_n: np.ndarray
    location_true_mm: np.ndarray
    fa1_rel: np.ndarray
    sa2_rel: np.ndarray

    @property
    def fa1_sum(self) -> float:
        return float(np.sum(self.fa1_rel))

    # frame-like aliases so a sample can feed the estimators directly
    @property
    def fa1(self) -> np.ndarray:
        return self.fa1_rel

    @property
    def sa2(self) -> np.ndarray:
        return self.sa2_rel


class CharacterizationSweep(Record):
    location_label: str
    samples: list

    def force_truth(self) -> np.ndarray:
        return np.array([s.force_true_n for s in self.samples])

    def delta_b(self) -> np.ndarray:
        return np.array([s.sa2_rel for s in self.samples])

    def fa1_sums(self) -> np.ndarray:
        return np.array([s.fa1_sum for s in self.samples])


def estimate_location(fa1_rel, pitch_mm: float = DEFAULT_PITCH_MM) -> np.ndarray:
    """Contact point (mm) from the relative taxel readings.

    The taxel-weighted centroid, divided by the live response sum so the
    estimate is independent of how hard the press is.  One ``(4, 4)``
    reading gives ``(2,)`` and raises NoContact when no taxel clears the
    activation threshold; ``(n, 4, 4)`` readings give ``(n, 2)``, NaN in
    each row of no contact.
    """
    r = np.asarray(fa1_rel, dtype=float)
    batch = r.reshape((-1,) + TAXEL_X_MM.shape)
    located = ~(batch.max(axis=(1, 2)) <= CONTACT_THRESHOLD_COUNTS)
    if r.ndim <= 2 and not located[0]:
        raise NoContact(f"no taxel above {CONTACT_THRESHOLD_COUNTS} counts")
    w = np.clip(batch[located], 0.0, None)[:, None]
    grid = np.stack([TAXEL_X_MM, TAXEL_Y_MM]) / DEFAULT_PITCH_MM * pitch_mm
    loc = np.full((len(batch), 2), np.nan)
    loc[located] = (grid * w).sum(axis=(2, 3)) / w.sum(axis=(2, 3))
    return loc.reshape(r.shape[:-2] + (2,))


def mixed_z_channel(delta_bz, fa1_sum, params: CalibrationParams):
    """Blend the two normal-force channels on a common scale."""
    zb = np.asarray(delta_bz, dtype=float) / params.scale_bz
    zr = np.asarray(fa1_sum, dtype=float) / params.scale_sum
    return params.blend * zb + (1.0 - params.blend) * zr


def estimate_force(rel_frame, params: CalibrationParams) -> np.ndarray:
    """Affine per-axis force estimate (N): ``(3,)`` from one relative frame, ``(n, 3)`` from n."""
    db = np.asarray(rel_frame.sa2, dtype=float)
    fa1_sum = np.sum(rel_frame.fa1, axis=tuple(range(db.ndim - 1, np.ndim(rel_frame.fa1))))
    fx = params.k[0] * db[..., 0] + params.b[0]
    fy = params.k[1] * db[..., 1] + params.b[1]
    fz = params.k[2] * mixed_z_channel(db[..., 2], fa1_sum, params) + params.b[2]
    return np.stack([fx, fy, fz], axis=-1)


def estimate_torque(location_mm, force_n, joint_center_mm=None) -> np.ndarray:
    """Torque (N*mm) about the joint centre: r x F with r to the contact, row by row."""
    joint = DEFAULT_JOINT_CENTER_MM if joint_center_mm is None else np.asarray(joint_center_mm, float)
    loc = np.asarray(location_mm, dtype=float)[..., :2]
    contact = np.concatenate([loc, np.zeros(loc.shape[:-1] + (1,))], axis=-1)
    return np.cross(contact - joint, np.asarray(force_n, dtype=float))


def _ols_line(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ k*x + b. Returns (k, b, r2, rms_residual)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or float(np.std(x)) == 0.0:
        raise RankDeficientFit("regressor has no spread")
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(coef[0]), float(coef[1]), r2, float(np.sqrt(ss_res / len(y)))


def _pool(sweeps):
    """Pooled force truth, flux deltas and taxel sums, and the two z-channel scales."""
    force = np.concatenate([s.force_truth() for s in sweeps])
    db = np.concatenate([s.delta_b() for s in sweeps])
    sums = np.concatenate([s.fa1_sums() for s in sweeps])
    scale_bz, scale_sum = float(np.std(db[:, 2])), float(np.std(sums))
    if scale_bz == 0.0 or scale_sum == 0.0:
        raise RankDeficientFit("a z-channel is constant over the sweep")
    return force, db, sums, scale_bz, scale_sum


def select_blend(sweeps):
    """Grid search for the z-blend weight minimizing fit residual RMS.

    The grid steps by ``BLEND_GRID_STEP`` over [0, 1]; both channels are
    scale-normalised first so it is comparable.  Ties resolve to the smaller
    weight.  Returns (blend, grid, rmsd_curve).
    """
    force, db, sums, scale_bz, scale_sum = _pool(sweeps)
    zb = db[:, 2] / scale_bz
    zr = sums / scale_sum
    grid = np.arange(0.0, 1.0 + BLEND_GRID_STEP / 2.0, BLEND_GRID_STEP)
    rmsd = np.empty(len(grid))
    for i, w in enumerate(grid):
        _, _, _, rms = _ols_line(w * zb + (1.0 - w) * zr, force[:, 2])
        rmsd[i] = rms
    best = float(grid[int(np.argmin(rmsd))])
    return best, grid, rmsd


def fit_calibration(sweeps, blend: float | None = None) -> CalibrationParams:
    """Fit the affine force map on pooled characterization sweeps.

    When ``blend`` is not given it is chosen by ``select_blend`` first.
    Raises RankDeficientFit if any axis regressor carries no information.
    """
    force, db, sums, scale_bz, scale_sum = _pool(sweeps)
    rmsd_curve = None
    if blend is None:
        blend, _, rmsd_curve = select_blend(sweeps)

    kx, bx, r2x, _ = _ols_line(db[:, 0], force[:, 0])
    ky, by, r2y, _ = _ols_line(db[:, 1], force[:, 1])
    mixed = blend * db[:, 2] / scale_bz + (1.0 - blend) * sums / scale_sum
    kz, bz, r2z, _ = _ols_line(mixed, force[:, 2])

    return CalibrationParams(
        k=np.array([kx, ky, kz]),
        b=np.array([bx, by, bz]),
        blend=float(blend),
        scale_bz=scale_bz,
        scale_sum=scale_sum,
        r2=np.array([r2x, r2y, r2z]),
        rmsd_curve=rmsd_curve,
    )


# ---------------------------------------------------------------------------
# calibration file io
# ---------------------------------------------------------------------------

def save_calibration(params: CalibrationParams, path, metadata: dict | None = None):
    scalars = ("blend", "pitch_mm", "scale_bz", "scale_sum")
    calibration = {f"{k}_{axis}": v for k in "kb" for axis, v in zip("xyz", getattr(params, k).tolist())}
    calibration |= {name: float(getattr(params, name)) for name in scalars}
    sections = {"calibration": calibration, "diagnostics": {"r2": params.r2, "rmsd_curve": params.rmsd_curve}}
    if metadata:
        sections["meta"] = dict(sorted(metadata.items()))
    return write_sections(path, sections)


def load_calibration(path) -> CalibrationParams:
    """Read a ``save_calibration`` file; a missing or non-numeric key is a ValueError."""
    values: dict[str, str] = {}
    section = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                section = line.strip("[]")
                continue
            key, _, val = line.partition("=")
            values[f"{section}.{key.strip()}"] = val.strip()

    def parse(key: str, many: bool = False):
        if key not in values:
            raise ValueError(f"{path}: calibration key {key} is missing")
        text = values[key]
        try:
            return np.array([float(v) for v in text.split(",")]) if many else float(text)
        except ValueError:
            raise ValueError(f"{path}: calibration key {key} = {text!r} is not a number") from None

    params = CalibrationParams(
        k=np.array([parse(f"calibration.k_{ax}") for ax in "xyz"]),
        b=np.array([parse(f"calibration.b_{ax}") for ax in "xyz"]),
        blend=parse("calibration.blend"),
        pitch_mm=parse("calibration.pitch_mm"),
        scale_bz=parse("calibration.scale_bz"),
        scale_sum=parse("calibration.scale_sum"),
    )
    if "diagnostics.r2" in values:
        params.r2 = parse("diagnostics.r2", many=True)
    if "diagnostics.rmsd_curve" in values:
        params.rmsd_curve = parse("diagnostics.rmsd_curve", many=True)
    return params
