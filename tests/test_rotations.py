import numpy as np
import pytest

from tacsim.rotations import ROTATION_TOL, axis_angle, is_rotation, rot_x, rot_y

Z_AXIS = (0.0, 0.0, 1.0)


@pytest.mark.parametrize("angle", [0.0, 0.3, -1.2, np.pi / 2, np.pi, 2.9])
def test_built_rotations_are_rotations(angle):
    for R in (rot_x(angle), rot_y(angle), axis_angle(Z_AXIS, angle), axis_angle((1.0, -2.0, 0.5), angle),
              axis_angle(Z_AXIS, angle) @ rot_x(0.3)):
        assert is_rotation(R)


def test_orthonormality_is_held_to_the_tolerance_on_the_diagonal_too():
    # det 1 and R.T @ R diagonal, but its diagonal is 4e-6 off 1
    assert not is_rotation(np.diag([1.000002, 1.0, 1 / 1.000002]))
    stretch = 1.0 + ROTATION_TOL / 4
    assert is_rotation(np.diag([stretch, 1.0, 1 / stretch]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_not_a_rotation(bad):
    assert not is_rotation(np.full((3, 3), bad))
    R = rot_x(0.3)
    R[0, 1] = bad
    assert not is_rotation(R)

