import numpy as np
import pytest

from tacsim.disturbance import (
    RotationObservation,
    adjacent_snr_sweep,
    estimate_earth_field,
    predicted_disturbance,
    snr,
)
from tacsim.errors import DegenerateRotation, InvalidSignal, RankDeficient
from tacsim.magnets import MagnetSpec, build_marker_set, cylinder_flux
from tacsim.rotations import axis_angle, rot_x, rot_y


def rot_z(angle):
    return axis_angle((0.0, 0.0, 1.0), angle)


def observe(b_e, rotations):
    return [RotationObservation(R, (R - np.eye(3)) @ np.asarray(b_e, float)) for R in rotations]


# ---------------------------------------------------------------------------
# snr ratio
# ---------------------------------------------------------------------------

def test_snr_arithmetic():
    assert snr(1.0, 0.0) == 1.0
    assert snr(1.0, 1.0) == 0.5
    assert snr(2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_snr_rejects_bad_inputs():
    with pytest.raises(InvalidSignal):
        snr(0.0, 1.0)
    with pytest.raises(InvalidSignal):
        snr(-1.0, 1.0)
    with pytest.raises(InvalidSignal):
        snr(1.0, -0.1)


def test_snr_inverts_algebraically():
    s = 580.0
    target = 0.947
    d = s * (1.0 - target) / target
    assert snr(s, d) == pytest.approx(target, rel=1e-12)


# ---------------------------------------------------------------------------
# earth-field estimation
# ---------------------------------------------------------------------------

def test_no_field_change_means_no_field():
    obs = observe([0.0, 0.0, 0.0], [rot_x(0.5), rot_y(1.1)])
    b, report = estimate_earth_field(obs)
    np.testing.assert_allclose(b, np.zeros(3), atol=1e-12)
    assert report.residual_rms_ut == pytest.approx(0.0, abs=1e-12)


def test_two_quarter_turns_recover_known_field():
    b_true = np.array([10.0, 20.0, 30.0])
    obs = observe(b_true, [rot_x(np.pi / 2), rot_z(np.pi / 2)])
    b, report = estimate_earth_field(obs)
    np.testing.assert_allclose(b, b_true, atol=1e-9)
    assert report.rank == 3
    assert report.n_observations == 2


def test_random_full_rank_sets_recover_exactly(rng):
    for _ in range(100):
        b_true = rng.uniform(-60.0, 60.0, size=3)
        axes = rng.normal(size=(3, 3))
        angles = rng.uniform(0.3, 2.8, size=3)
        rotations = [axis_angle(ax, th) for ax, th in zip(axes, angles)]
        b, report = estimate_earth_field(observe(b_true, rotations))
        np.testing.assert_allclose(b, b_true, atol=1e-9)
        assert report.rank == 3


def test_single_axis_families_are_blind_along_the_axis(rng):
    cases = [
        ((1.0, 0.0, 0.0), rot_x),
        ((0.0, 1.0, 0.0), rot_y),
        ((0.0, 0.0, 1.0), rot_z),
    ]
    b_true = np.array([25.0, -10.0, 40.0])
    for axis, make in cases:
        obs = observe(b_true, [make(0.4), make(1.0), make(2.2)])
        with pytest.raises(RankDeficient) as err:
            estimate_earth_field(obs)
        null = err.value.null_direction
        cos = abs(np.dot(null, axis)) / np.linalg.norm(null)
        assert cos == pytest.approx(1.0, abs=1e-9)
    # same blindness for an arbitrary common axis
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    obs = observe(b_true, [axis_angle(axis, t) for t in (0.5, 1.3, 2.0)])
    with pytest.raises(RankDeficient) as err:
        estimate_earth_field(obs)
    assert abs(np.dot(err.value.null_direction, axis)) == pytest.approx(1.0, abs=1e-9)


def test_identity_pose_is_rejected():
    with pytest.raises(DegenerateRotation):
        estimate_earth_field(observe([1.0, 2.0, 3.0], [np.eye(3)]))


def test_empty_observation_list_is_rejected():
    with pytest.raises(RankDeficient):
        estimate_earth_field([])


def test_estimate_is_order_invariant(rng):
    b_true = np.array([-12.0, 33.0, 48.0])
    rotations = [axis_angle(rng.normal(size=3), a) for a in (0.7, 1.4, 2.1)]
    obs = observe(b_true, rotations)
    b1, _ = estimate_earth_field(obs)
    b2, _ = estimate_earth_field(list(reversed(obs)))
    np.testing.assert_allclose(b1, b2, atol=1e-12)


def test_observation_requires_proper_rotation():
    with pytest.raises(ValueError):
        RotationObservation(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection
    with pytest.raises(ValueError):
        RotationObservation(2.0 * np.eye(3), np.zeros(3))


def test_predicted_disturbance_matches_definition():
    R = rot_y(0.9)
    b = np.array([5.0, -7.0, 11.0])
    np.testing.assert_allclose(predicted_disturbance(b, R), (R - np.eye(3)) @ b, atol=0.0)


# ---------------------------------------------------------------------------
# adjacent-marker sweep
# ---------------------------------------------------------------------------

def test_sweep_default_shape():
    report = adjacent_snr_sweep()
    assert report.dy_mm[0] == 4.0 and report.dy_mm[-1] == 30.0
    for mid in (1, 2, 3, 4):
        table = report.table(mid)
        assert table.shape == (len(report.dy_mm), 4)
        np.testing.assert_array_equal(table[:, 0], report.dy_mm)
        assert np.all(table[:, 3] > 0.0) and np.all(table[:, 3] <= 1.0)


def test_sweep_frozen_ratios():
    report = adjacent_snr_sweep()
    t2 = report.table(2)
    assert t2[t2[:, 0] == 16.0][0, 3] == pytest.approx(0.98190648, abs=1e-6)
    assert t2[0, 3] == pytest.approx(0.565812, abs=1e-4)


def test_sweep_winner_settles_on_candidate_two():
    report = adjacent_snr_sweep()
    ids = report.argmax_ids()
    assert ids[0] == 1  # closest packing flips the ranking once
    assert np.all(ids[1:] == 2)


def test_sweep_ratio_rises_with_separation():
    report = adjacent_snr_sweep()
    for mid in (1, 2, 3, 4):
        ratios = report.table(mid)[:, 3]
        assert np.all(np.diff(ratios) > 0.0)
        assert ratios[-1] > 0.99


def test_sweep_accepts_custom_grid_and_magnets():
    magnet = MagnetSpec(magnet_id=9, moment_a_m2=2e-4, height_mm=1.0, diameter_mm=3.0)
    report = adjacent_snr_sweep(magnets=[magnet], dy_mm=[8.0, 12.0], gap_mm=3.0)
    table = report.table(9)
    assert table.shape == (2, 4)
    assert table[0, 3] < table[1, 3]


@pytest.mark.parametrize("gap, dy", [(3.0, None), (2.5, [4.25, 7.0, 19.5, 33.0])])
def test_sweep_disturbance_equals_the_per_offset_loop(gap, dy):
    report = adjacent_snr_sweep(dy_mm=dy, gap_mm=gap)
    want = np.array([
        [np.linalg.norm(cylinder_flux(magnet, (0.0, -d, -gap))) for d in report.dy_mm]
        for magnet in build_marker_set(gap)
    ])
    np.testing.assert_array_equal(report.disturbance_ut.view(np.uint64), want.view(np.uint64))
