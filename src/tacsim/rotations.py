"""Small rotation-matrix helpers (right-handed, column-vector convention)."""

import numpy as np

ROTATION_TOL = 1e-9


def rot_x(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def axis_angle(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues formula for a rotation of angle_rad about `axis`."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    a = a / n
    kx, ky, kz = a
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def is_rotation(R) -> bool:
    """Finite, orthonormal to within ``ROTATION_TOL`` in every entry of ``R.T @ R``, and det +1."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.isfinite(R).all():
        return False
    if np.abs(R.T @ R - np.eye(3)).max() > ROTATION_TOL:
        return False
    return abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL
