import numpy as np
import pytest

from tacsim import magnets
from tacsim.errors import NoConvergence, OffsetTooSmall
from tacsim.magnets import (
    FLUX_CACHE_SIZE,
    MARKER_CANDIDATES,
    MagnetSpec,
    build_marker_set,
    calibrate_moment,
    cylinder_flux,
    default_magnet,
    dipole_flux,
    effective_signal,
)

EFFECTIVE_TARGETS_UT = (211.0, 580.0, 853.0, 1816.0)


def closed_form_unit_dipole(offset):
    """1e8 * [3(mh.rh)rh - mh] / r^3 for a unit +z moment, written out."""
    r = np.asarray(offset, dtype=float)
    rn = np.linalg.norm(r)
    rh = r / rn
    mh = np.array([0.0, 0.0, 1.0])
    return 1e8 * (3.0 * (mh @ rh) * rh - mh) / rn**3


def test_on_axis_field_has_no_lateral_component():
    mag = MagnetSpec(moment_a_m2=1e-4)
    for z in (1.0, 3.0, 7.5):
        b = dipole_flux(mag, (0.0, 0.0, -z))
        assert b[0] == 0.0
        assert b[1] == 0.0
        assert b[2] != 0.0


def test_axial_magnitude_follows_inverse_cube():
    mag = MagnetSpec(moment_a_m2=2.5e-4)
    near = dipole_flux(mag, (0.0, 0.0, -2.0))
    far = dipole_flux(mag, (0.0, 0.0, -4.0))
    assert np.linalg.norm(near) / np.linalg.norm(far) == pytest.approx(8.0, rel=1e-12)


def test_field_is_odd_in_moment(rng):
    for _ in range(50):
        m = float(rng.uniform(1e-5, 1e-3))
        offset = rng.uniform(-10, 10, size=3)
        if np.linalg.norm(offset) <= 1.0:
            continue
        plus = dipole_flux(MagnetSpec(moment_a_m2=m), offset)
        minus = closed_form_unit_dipole(offset) * (-m)
        np.testing.assert_allclose(plus, -minus, rtol=1e-12, atol=1e-15)


def test_magnitude_decays_strictly_along_rays(rng):
    mag = MagnetSpec(moment_a_m2=3e-4)
    for _ in range(40):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radii = np.linspace(1.0, 20.0, 30)
        mags = [np.linalg.norm(dipole_flux(mag, direction * r)) for r in radii]
        assert np.all(np.diff(mags) < 0.0)


def test_matches_closed_form_point_dipole(rng):
    for _ in range(30):
        m = float(rng.uniform(1e-5, 1e-3))
        offset = rng.uniform(1.0, 8.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        got = dipole_flux(MagnetSpec(moment_a_m2=m), offset)
        want = m * closed_form_unit_dipole(offset)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_too_close_offset_rejected():
    mag = MagnetSpec(moment_a_m2=1e-4)
    with pytest.raises(OffsetTooSmall):
        dipole_flux(mag, (0.0, 0.0, 0.4))
    with pytest.raises(OffsetTooSmall):
        cylinder_flux(mag, (0.0, 0.0, 0.3))


def test_cylinder_flux_memo_is_exact_read_only_and_bounded(rng):
    mag = MagnetSpec(moment_a_m2=4.4e-4)
    uncached = magnets._cylinder_flux.__wrapped__
    offsets = [rng.uniform(-6.0, 6.0, size=3) + (0.0, 0.0, -4.0) for _ in range(40)]
    offsets += [(0.0, 0.0, -3.0), (-0.0, 0.0, -3.0), (0.0, -0.0, -3.0), (-0.0, -0.0, -3.5)]
    offsets += [(1.0, -0.0, -3.0), (-0.0, 2.5, -3.0)]
    for offset in offsets:
        want = uncached(mag, np.asarray(offset, dtype=float).tobytes())
        for _ in range(2):  # a miss, then a hit
            got = cylinder_flux(mag, offset)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
    for _ in range(2):  # failures are not cached
        with pytest.raises(OffsetTooSmall):
            cylinder_flux(mag, (0.0, 0.0, 0.3))
    for i in range(FLUX_CACHE_SIZE + 50):
        cylinder_flux(mag, (0.0, 1e-3 * i, -3.0))
    assert magnets._cylinder_flux.cache_info().currsize <= FLUX_CACHE_SIZE


def test_magnet_spec_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=0.0)
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=1e-4, height_mm=-1.0)
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=1e-4, diameter_mm=0.0)


def test_point_moment_calibration_matches_closed_form():
    # solve 580 = m * |B_unit(1,0,-3) - B_unit(0,0,-3)| by direct arithmetic,
    # then check the bisection lands on the same moment
    db_unit = np.linalg.norm(
        closed_form_unit_dipole((1.0, 0.0, -3.0)) - closed_form_unit_dipole((0.0, 0.0, -3.0))
    )
    expected = 580.0 / db_unit
    spec = calibrate_moment(580.0, 3.0, model="dipole")
    assert spec.moment_a_m2 == pytest.approx(expected, rel=1e-3)
    # round trip: the calibrated magnet reproduces the target within 0.1%
    got = np.linalg.norm(
        dipole_flux(spec, (1.0, 0.0, -3.0)) - dipole_flux(spec, (0.0, 0.0, -3.0))
    )
    assert got == pytest.approx(580.0, rel=1e-3)


def test_calibrated_moments_increase_with_target():
    moments = [
        calibrate_moment(t, 3.0, model="dipole").moment_a_m2 for t in EFFECTIVE_TARGETS_UT
    ]
    assert np.all(np.diff(moments) > 0.0)


def test_zero_or_negative_target_rejected():
    with pytest.raises(NoConvergence):
        calibrate_moment(0.0, 3.0)
    with pytest.raises(NoConvergence):
        calibrate_moment(-4.0, 3.0)


def test_calibration_memo_returns_the_bisection_spec():
    kwargs = dict(height_mm=1.0, diameter_mm=3.0, magnet_id=2, model="cylinder")
    spec = calibrate_moment(580.0, 3.0, **kwargs)
    assert calibrate_moment(580.0, 3.0, **kwargs) is spec
    assert calibrate_moment.__wrapped__(580.0, 3.0, **kwargs) == spec
    assert default_magnet(3.0) is spec


@pytest.mark.parametrize("target", [0.0, 1e300], ids=["non-positive", "cannot-bracket"])
def test_failed_calibrations_are_not_memoised(target):
    for _ in range(2):
        misses = calibrate_moment.cache_info().misses
        with pytest.raises(NoConvergence):
            calibrate_moment(target, 3.0, model="dipole")
        assert calibrate_moment.cache_info().misses == misses + 1


def test_cylinder_model_matches_monte_carlo_integration():
    # independent oracle: uniform Monte-Carlo integration over the magnet
    # volume with the same total moment; agreement within MC noise
    mag = default_magnet(3.0)
    rng = np.random.default_rng(7)
    n = 200_000
    radius = mag.diameter_mm / 2.0
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(0, mag.height_mm, n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    m_each = np.array([0.0, 0.0, mag.moment_a_m2 / n])
    for offset in ((1.0, 0.0, -3.0), (1.7, 0.4, -3.1), (0.0, -2.0, -4.0)):
        rel = np.asarray(offset) - pts
        rn = np.linalg.norm(rel, axis=1)
        rh = rel / rn[:, None]
        mdot = rh @ m_each
        want = (1e8 * (3.0 * mdot[:, None] * rh - m_each) / rn[:, None] ** 3).sum(axis=0)
        got = cylinder_flux(mag, offset)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.01


def test_default_marker_reproduces_effective_signal():
    mag = default_magnet(3.0)
    assert effective_signal(mag, 3.0, model="cylinder") == pytest.approx(580.0, rel=1e-3)
    # frozen so silent drift in the field model or calibration shows up
    assert mag.moment_a_m2 == pytest.approx(4.369635e-4, rel=1e-5)
    assert mag.magnet_id == 2
    assert (mag.diameter_mm, mag.height_mm) == (3.0, 1.0)


def test_marker_set_hits_all_four_targets():
    markers = build_marker_set(3.0)
    assert [m.magnet_id for m in markers] == [1, 2, 3, 4]
    for marker, target in zip(markers, EFFECTIVE_TARGETS_UT):
        assert effective_signal(marker, 3.0, model="cylinder") == pytest.approx(
            target, rel=1e-3
        )
    moments = [m.moment_a_m2 for m in markers]
    assert np.all(np.diff(moments) > 0.0)


def test_marker_candidate_catalog_is_frozen():
    assert MARKER_CANDIDATES == (
        (1, 2.0, 2.0, 211.0),
        (2, 3.0, 1.0, 580.0),
        (3, 4.0, 2.0, 853.0),
        (4, 5.0, 3.0, 1816.0),
    )
