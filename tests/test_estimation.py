import re

import numpy as np
import pytest

from tacsim.errors import NoContact, RankDeficientFit
from tacsim.estimation import (
    CONTACT_THRESHOLD_COUNTS,
    DEFAULT_JOINT_CENTER_MM,
    DEFAULT_PITCH_MM,
    CalibrationParams,
    CharacterizationSweep,
    SweepSample,
    estimate_force,
    estimate_location,
    estimate_torque,
    fit_calibration,
    load_calibration,
    mixed_z_channel,
    save_calibration,
    select_blend,
)
from tacsim.sensor import TAXEL_X_MM, TAXEL_Y_MM


def uniform_fa1(total):
    return np.full((4, 4), total / 16.0)


def make_sweep(force_rows, fa1_sums, sa2_rows, label="L1"):
    samples = [
        SweepSample(
            force_true_n=np.asarray(f, dtype=float),
            location_true_mm=np.array([6.25, 6.25]),
            fa1_rel=uniform_fa1(s),
            sa2_rel=np.asarray(b, dtype=float),
        )
        for f, s, b in zip(force_rows, fa1_sums, sa2_rows)
    ]
    return CharacterizationSweep(location_label=label, samples=samples)


def linear_sweep(kx, bx, ky, by, kz, bz, n=9):
    """Forward-generate a sweep from a known affine channel model."""
    db_x = np.linspace(-400.0, 400.0, n)
    db_y = np.linspace(-250.0, 350.0, n)
    sums = np.linspace(100.0, 6500.0, n)
    db_z = 0.21 * sums + 40.0  # secondary z-channel, also exactly linear
    force = np.column_stack([kx * db_x + bx, ky * db_y + by, kz * sums + bz])
    return make_sweep(force, sums, np.column_stack([db_x, db_y, db_z]))


# ---------------------------------------------------------------------------
# location
# ---------------------------------------------------------------------------

def test_uniform_activation_reads_face_center():
    loc = estimate_location(np.full((4, 4), 9.0))
    np.testing.assert_allclose(loc, [6.25, 6.25], rtol=1e-12)


def test_single_taxel_reads_its_own_position():
    fa1 = np.zeros((4, 4))
    fa1[1, 2] = 50.0  # row 2, column 3 in 1-based grid terms
    np.testing.assert_allclose(estimate_location(fa1), [7.5, 5.0], rtol=1e-12)


def test_normalized_mode_ignores_press_strength(rng):
    for _ in range(50):
        fa1 = rng.uniform(0.0, 100.0, size=(4, 4))
        c = float(rng.uniform(0.1, 40.0))
        a = estimate_location(fa1)
        b = estimate_location(c * fa1)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_no_contact_below_threshold():
    with pytest.raises(NoContact):
        estimate_location(np.full((4, 4), 4.0))
    with pytest.raises(NoContact):
        estimate_location(np.zeros((4, 4)))


def test_pitch_scales_the_grid():
    fa1 = np.zeros((4, 4))
    fa1[0, 0] = 10.0
    np.testing.assert_allclose(estimate_location(fa1, pitch_mm=5.0), [5.0, 5.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# force and torque
# ---------------------------------------------------------------------------

def test_zero_input_returns_intercepts():
    params = CalibrationParams(k=(2.0, 3.0, 4.0), b=(0.5, -0.25, 1.0))
    zero = SweepSample(
        force_true_n=np.zeros(3),
        location_true_mm=np.array([6.25, 6.25]),
        fa1_rel=np.zeros((4, 4)),
        sa2_rel=np.zeros(3),
    )
    np.testing.assert_allclose(estimate_force(zero, params), [0.5, -0.25, 1.0], rtol=1e-15)


def test_force_direct_substitution():
    params = CalibrationParams(k=(1.0, 1.0, 0.01), b=(0.0, 0.0, 0.0), blend=0.0)
    sample = SweepSample(
        force_true_n=np.zeros(3),
        location_true_mm=np.array([6.25, 6.25]),
        fa1_rel=uniform_fa1(150.0),
        sa2_rel=np.zeros(3),
    )
    assert estimate_force(sample, params)[2] == pytest.approx(1.5, rel=1e-12)


def test_force_map_is_affine(rng):
    params = CalibrationParams(
        k=rng.normal(size=3), b=rng.normal(size=3), blend=0.35, scale_bz=387.0, scale_sum=2210.0
    )
    for _ in range(30):
        f1 = SweepSample(np.zeros(3), np.zeros(2), rng.normal(size=(4, 4)), rng.normal(size=3))
        f2 = SweepSample(np.zeros(3), np.zeros(2), rng.normal(size=(4, 4)), rng.normal(size=3))
        joint = SweepSample(
            np.zeros(3), np.zeros(2), f1.fa1_rel + f2.fa1_rel, f1.sa2_rel + f2.sa2_rel
        )
        lhs = estimate_force(joint, params) - params.b
        rhs = (estimate_force(f1, params) - params.b) + (estimate_force(f2, params) - params.b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_torque_example_ten_mm_arm():
    tau = estimate_torque((6.25, 6.25), (1.0, 0.0, 0.0))
    np.testing.assert_allclose(tau, [0.0, 10.0, 0.0], atol=1e-12)


def test_torque_vanishes_for_parallel_force():
    r = np.array([6.25, 6.25, 0.0]) - np.asarray(DEFAULT_JOINT_CENTER_MM)
    tau = estimate_torque((6.25, 6.25), 3.7 * r)
    np.testing.assert_allclose(tau, np.zeros(3), atol=1e-12)


def test_torque_matches_brute_force(rng):
    for _ in range(1000):
        loc = rng.uniform(0.0, 10.0, size=2)
        force = rng.normal(size=3)
        joint = rng.normal(size=3)
        r = np.array([loc[0] - joint[0], loc[1] - joint[1], -joint[2]])
        want = np.array(
            [
                r[1] * force[2] - r[2] * force[1],
                r[2] * force[0] - r[0] * force[2],
                r[0] * force[1] - r[1] * force[0],
            ]
        )
        got = estimate_torque(loc, force, joint)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_torque_is_orthogonal_to_arm_and_force(rng):
    for _ in range(200):
        loc = rng.uniform(0.0, 10.0, size=2)
        force = rng.normal(size=3) * 5.0
        tau = estimate_torque(loc, force)
        r = np.array([loc[0], loc[1], 0.0]) - np.asarray(DEFAULT_JOINT_CENTER_MM)
        assert abs(tau @ r) <= 1e-9 * max(1.0, np.linalg.norm(tau) * np.linalg.norm(r))
        assert abs(tau @ force) <= 1e-9 * max(1.0, np.linalg.norm(tau) * np.linalg.norm(force))


def per_sample_location(fa1_rel, pitch_mm):
    """The estimators one sample at a time, as written before they took batches."""
    r = np.asarray(fa1_rel, dtype=float)
    if r.max() <= CONTACT_THRESHOLD_COUNTS:
        raise NoContact("no contact")
    r = np.clip(r, 0.0, None)
    denom = r.sum()
    x = float((TAXEL_X_MM / DEFAULT_PITCH_MM * pitch_mm * r).sum() / denom)
    y = float((TAXEL_Y_MM / DEFAULT_PITCH_MM * pitch_mm * r).sum() / denom)
    return np.array([x, y])


def per_sample_force(rel_frame, params):
    db = np.asarray(rel_frame.sa2, dtype=float)
    fx = params.k[0] * db[0] + params.b[0]
    fy = params.k[1] * db[1] + params.b[1]
    fz = params.k[2] * mixed_z_channel(db[2], np.sum(rel_frame.fa1), params) + params.b[2]
    return np.array([fx, fy, float(fz)])


def per_sample_torque(location_mm, force_n, joint):
    contact = np.array([location_mm[0], location_mm[1], 0.0])
    return np.cross(contact - np.asarray(joint, dtype=float), np.asarray(force_n, dtype=float))


def test_estimators_on_a_batch_equal_per_sample_calls(rng):
    # log-normal readings, so a change in summation order shows in the last
    # bits; rows 3 and 7 reach no taxel threshold
    n = 12
    rows = rng.lognormal(3.0, 2.0, size=(n, 19)) * rng.choice([-1.0, 1.0], size=(n, 19))
    rows[[3, 7], :16] = rng.uniform(-50.0, 5.0, size=(2, 16))
    fa1, sa2 = rows[:, :16].reshape(n, 4, 4), rows[:, 16:]  # strided views, as a pooled sweep
    params = CalibrationParams(k=(3e-3, -2e-3, 0.4), b=(0.01, 0.0, -0.2), blend=0.35,
                               scale_bz=700.0, scale_sum=3000.0)
    joint = (6.0, 6.5, -9.0)
    force = estimate_force(SweepSample(rows[:, 16:], rows[:, :2], fa1, sa2), params)
    loc = estimate_location(fa1, pitch_mm=2.7)
    torque = estimate_torque(np.nan_to_num(loc), force, joint)
    assert force.shape == (n, 3) and loc.shape == (n, 2) and torque.shape == (n, 3)
    for i in range(n):
        one = SweepSample(None, None, fa1[i].copy(), sa2[i].copy())
        for want in (estimate_force(one, params), per_sample_force(one, params)):
            np.testing.assert_array_equal(force[i].view(np.uint64), want.view(np.uint64))
        if i in (3, 7):
            assert np.isnan(loc[i]).all()
            with pytest.raises(NoContact):
                estimate_location(fa1[i].copy(), pitch_mm=2.7)
            continue
        for want in (estimate_location(fa1[i].copy(), pitch_mm=2.7),
                     per_sample_location(fa1[i].copy(), 2.7)):
            np.testing.assert_array_equal(loc[i].view(np.uint64), want.view(np.uint64))
        for want in (estimate_torque(loc[i], force[i], joint),
                     per_sample_torque(loc[i], force[i], joint)):
            np.testing.assert_array_equal(torque[i].view(np.uint64), want.view(np.uint64))


def test_estimators_keep_their_single_sample_shapes():
    fa1 = np.full((4, 4), 9.0)
    assert estimate_location(fa1).shape == (2,)
    assert estimate_location(fa1[None]).shape == (1, 2)
    with pytest.raises(NoContact):
        estimate_location(np.zeros((4, 4)))
    assert np.isnan(estimate_location(np.zeros((1, 4, 4)))).all()
    sample = SweepSample(np.zeros(3), np.zeros(2), fa1, np.ones(3))
    assert estimate_force(sample, CalibrationParams()).shape == (3,)
    assert estimate_torque((6.25, 6.25), (1.0, 0.0, 0.0)).shape == (3,)
    assert estimate_torque([(6.25, 6.25)], [(1.0, 0.0, 0.0)]).shape == (1, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        CalibrationParams(blend=1.2)
    with pytest.raises(ValueError):
        CalibrationParams(pitch_mm=0.0)
    with pytest.raises(ValueError):
        CalibrationParams(k=(np.inf, 1.0, 1.0))


# ---------------------------------------------------------------------------
# calibration fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_linear_model():
    kx, bx = 3.3e-3, 0.002
    ky, by = 2.9e-3, -0.01
    kz, bz = 3.1e-4, 0.05
    sweep = linear_sweep(kx, bx, ky, by, kz, bz)
    params = fit_calibration([sweep], blend=0.0)
    assert params.k[0] == pytest.approx(kx, rel=1e-9)
    assert params.b[0] == pytest.approx(bx, abs=1e-9)
    assert params.k[1] == pytest.approx(ky, rel=1e-9)
    assert params.b[1] == pytest.approx(by, abs=1e-9)
    # z slope is reported against the scale-normalized channel
    assert params.k[2] / params.scale_sum == pytest.approx(kz, rel=1e-9)
    assert params.b[2] == pytest.approx(bz, abs=1e-9)
    predicted = np.array([estimate_force(s, params) for s in sweep.samples])
    np.testing.assert_allclose(predicted, sweep.force_truth(), atol=1e-9)
    assert np.all(params.r2 > 1.0 - 1e-12)


def test_single_force_level_is_degenerate():
    force = [(0.1, 0.0, 1.0)] * 4
    sweep = make_sweep(force, [3000.0] * 4, [(50.0, 0.0, 700.0)] * 4)
    with pytest.raises(RankDeficientFit):
        fit_calibration([sweep], blend=0.0)


def test_residuals_are_orthogonal_to_regressors(rng):
    # OLS normal equations: X^T (y - X beta) = 0
    n = 40
    db_x = rng.uniform(-300, 300, n)
    noise = rng.normal(0, 0.05, n)
    force = np.column_stack(
        [0.003 * db_x + 0.01 + noise, np.linspace(-1, 1, n), np.linspace(0, 2, n)]
    )
    sums = np.linspace(50, 6000, n) + rng.normal(0, 20, n)
    db = np.column_stack([db_x, np.linspace(-300, 300, n), np.linspace(30, 1400, n)])
    sweep = make_sweep(force, sums, db)
    params = fit_calibration([sweep], blend=0.0)
    predicted = np.array([estimate_force(s, params) for s in sweep.samples])
    resid_x = force[:, 0] - predicted[:, 0]
    assert abs(resid_x @ db_x) <= 1e-8 * np.linalg.norm(resid_x) * np.linalg.norm(db_x) + 1e-8
    assert abs(resid_x.sum()) <= 1e-8 * np.sqrt(n) * np.linalg.norm(resid_x) + 1e-8


def test_blend_prefers_noise_free_channel(rng):
    # FA-I sums carry no force information at all: the flux channel wins
    n = 9
    fz = np.linspace(0.0, 2.0, n)
    force = np.column_stack([np.linspace(-1, 1, n), np.linspace(-1, 1, n), fz])
    sums = rng.normal(3000.0, 500.0, n)
    db = np.column_stack([np.linspace(-400, 400, n), np.linspace(-400, 400, n), 700.0 * fz])
    sweeps = [make_sweep(force, sums, db)]
    a_star, grid, rmsd = select_blend(sweeps)
    assert a_star == 1.0
    assert rmsd[-1] < rmsd[0]


def test_equally_informative_channels_give_flat_curve():
    n = 9
    fz = np.linspace(0.0, 2.0, n)
    force = np.column_stack([fz, fz, fz])
    sums = 3000.0 * fz + 100.0
    db = np.column_stack([fz, fz, 0.5 * sums])  # z flux = rescaled copy of the sum
    a_star, grid, rmsd = select_blend([make_sweep(force, sums, db)])
    assert a_star in grid
    np.testing.assert_allclose(rmsd, rmsd[0], atol=1e-9)


def test_blend_grid_covers_unit_interval():
    sweep = linear_sweep(3e-3, 0.0, 3e-3, 0.0, 3e-4, 0.0)
    _, grid, rmsd = select_blend([sweep])
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert len(grid) == 21 and len(rmsd) == 21


def saved_calibration_lines(tmp_path):
    params = fit_calibration([linear_sweep(3e-3, 1e-3, 2e-3, -1e-3, 3e-4, 0.02)], blend=0.0)
    path = tmp_path / "cal.txt"
    save_calibration(params, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "key, value",
    [("pitch_mm", "nan"), ("pitch_mm", "inf"), ("scale_bz", "0.0"), ("scale_bz", "nan"),
     ("scale_bz", "-387.0"), ("scale_sum", "0.0"), ("scale_sum", "inf"), ("scale_sum", "nan")],
)
def test_corrupt_calibration_file_is_refused(key, value, tmp_path):
    path, lines = saved_calibration_lines(tmp_path)
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="positive and finite"):
        load_calibration(path)


@pytest.mark.parametrize("key", ["scale_bz", "k_y", "blend"])
def test_calibration_file_missing_a_key_names_file_and_key(key, tmp_path):
    path, lines = saved_calibration_lines(tmp_path)
    path.write_text("\n".join(line for line in lines if not line.startswith(f"{key} = ")) + "\n")
    message = f"{path}: calibration key calibration.{key} is missing"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_calibration(path)


@pytest.mark.parametrize(
    "key, value", [("scale_sum", "abc"), ("b_x", ""), ("r2", "0.99,oops,0.98")]
)
def test_calibration_file_non_numeric_value_names_file_and_key(key, value, tmp_path):
    path, lines = saved_calibration_lines(tmp_path)
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    section = "diagnostics" if key == "r2" else "calibration"
    message = f"{path}: calibration key {section}.{key} = {value!r} is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_calibration(path)


def test_calibration_file_round_trip(tmp_path):
    params = fit_calibration([linear_sweep(3e-3, 1e-3, 2e-3, -1e-3, 3e-4, 0.02)], blend=0.0)
    path = tmp_path / "cal.txt"
    save_calibration(params, path, metadata={"seed": 7})
    back = load_calibration(path)
    np.testing.assert_array_equal(back.k, params.k)
    np.testing.assert_array_equal(back.b, params.b)
    assert back.blend == params.blend
    assert back.scale_bz == params.scale_bz
    assert back.scale_sum == params.scale_sum
    np.testing.assert_array_equal(back.r2, params.r2)


def save_calibration_oracle(params, path, metadata=None):
    """``save_calibration`` as it built its lines one by one: the byte-level reference."""
    lines = ["[calibration]"]
    for axis, i in (("x", 0), ("y", 1), ("z", 2)):
        lines.append(f"k_{axis} = {float(params.k[i])!r}")
    for axis, i in (("x", 0), ("y", 1), ("z", 2)):
        lines.append(f"b_{axis} = {float(params.b[i])!r}")
    lines.append(f"blend = {float(params.blend)!r}")
    lines.append(f"pitch_mm = {float(params.pitch_mm)!r}")
    lines.append(f"scale_bz = {float(params.scale_bz)!r}")
    lines.append(f"scale_sum = {float(params.scale_sum)!r}")
    lines.append("")
    lines.append("[diagnostics]")
    if params.r2 is not None:
        lines.append("r2 = " + ",".join(repr(float(v)) for v in params.r2))
    if params.rmsd_curve is not None:
        lines.append("rmsd_curve = " + ",".join(repr(float(v)) for v in params.rmsd_curve))
    if metadata:
        lines.append("")
        lines.append("[meta]")
        for key, value in sorted(metadata.items()):
            lines.append(f"{key} = {value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


FITTED = fit_calibration([linear_sweep(3e-3, 1e-3, 2e-3, -1e-3, 3e-4, 0.02)], blend=0.0)
CALIBRATIONS = {
    "fitted": FITTED,
    "no-diagnostics": CalibrationParams(k=FITTED.k, b=FITTED.b, blend=FITTED.blend),
    "r2-only": CalibrationParams(k=(1, -0.0, 1e-300), b=(0, 2.5, -1), r2=FITTED.r2),
    "rmsd-curve-only": CalibrationParams(blend=1, pitch_mm=3, scale_bz=2, scale_sum=np.float32(0.1),
                                         rmsd_curve=[1, 0.5, np.float32(0.25)]),
}
METADATA = {
    "none": None,
    "empty": {},
    "study": {"source": "characterize", "seed": 20260814, "config_sha256": "0123456789abcdef"},
}


@pytest.mark.parametrize("metadata", METADATA.values(), ids=METADATA.keys())
@pytest.mark.parametrize("params", CALIBRATIONS.values(), ids=CALIBRATIONS.keys())
def test_calibration_file_bytes_equal_the_line_by_line_writer(params, metadata, tmp_path):
    save_calibration(params, tmp_path / "sections.txt", metadata=metadata)
    save_calibration_oracle(params, tmp_path / "lines.txt", metadata=metadata)
    assert (tmp_path / "sections.txt").read_bytes() == (tmp_path / "lines.txt").read_bytes()
