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
    effective_signal,
)

EFFECTIVE_TARGETS_UT = (211.0, 580.0, 853.0, 1816.0)


def bisection_oracle(target_signal_ut, gap_mm, *, height_mm=1.0, diameter_mm=3.0, magnet_id=2):
    """calibrate_moment as a plain bisection over effective_signal, every step evaluated."""
    if target_signal_ut <= 0.0:
        raise NoConvergence("target signal must be positive")

    def signal(m):
        spec = MagnetSpec(m, height_mm, diameter_mm, magnet_id)
        return effective_signal(spec, gap_mm)

    lo, hi = 0.0, 1e-9
    iterations = 0
    while signal(hi) < target_signal_ut:
        hi *= 4.0
        iterations += 1
        if iterations >= magnets.CALIBRATION_MAX_ITER:
            raise NoConvergence("could not bracket the target signal")
    for _ in range(iterations, magnets.CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if signal(mid) < target_signal_ut:
            lo = mid
        else:
            hi = mid
        if hi - lo <= magnets.CALIBRATION_REL_TOL * hi:
            achieved = signal(hi)
            if abs(achieved - target_signal_ut) > 1e-3 * target_signal_ut:
                raise NoConvergence("bisection stalled away from the target")
            return MagnetSpec(hi, height_mm, diameter_mm, magnet_id)
    raise NoConvergence("bisection did not converge in 200 iterations")


def outcome(calibrate, target, gap, **kwargs):
    """The moment's bit pattern, or the exception's type and message."""
    try:
        spec = calibrate(target, gap, **kwargs)
    except (NoConvergence, OffsetTooSmall, ValueError) as exc:
        return type(exc), str(exc)
    return spec.moment_a_m2.hex(), spec


def calibration_cases():
    for magnet_id, diameter, height, target in MARKER_CANDIDATES:
        shape = dict(height_mm=height, diameter_mm=diameter, magnet_id=magnet_id)
        for gap in np.linspace(1.6, 8.0, 17):
            yield target, float(gap), shape
    # the default marker's shape; a 0.4 mm gap is within 0.5 mm of its body
    for target in (1e300, 1e6, 580.0, 1.0, 1e-3, 1e-300, np.inf, np.nan):
        for gap in (0.4, 0.6, 3.0, 25.0):
            yield target, gap, {}
    # the exact signal of a moment the bracket visits: the estimate is off
    # it by rounding, so only the exact step sees the tie
    for k in range(0, 12, 2):
        for height, diameter in ((1.0, 3.0), (2.0, 4.0)):
            spec = MagnetSpec(1e-9 * 4.0**k, height, diameter)
            yield effective_signal(spec, 3.0), 3.0, dict(height_mm=height, diameter_mm=diameter)
    # dimensions are refused before any other failure
    yield 580.0, 0.4, dict(height_mm=-1.0)
    yield 1e300, 3.0, dict(diameter_mm=0.0)
    # fields so weak that the signal's square underflows near the target:
    # only an exact evaluation of each step reproduces the bisection
    for target in (1e-220, 1e-250):
        yield target, 1e38, {}
    rng = np.random.default_rng(17)
    for _ in range(300):
        diameter, height = rng.uniform(0.2, 8.0, size=2)
        gap = rng.uniform(-12.0, 12.0) if rng.random() < 0.8 else 10.0 ** rng.uniform(1.0, 7.0)
        shape = dict(height_mm=float(height), diameter_mm=float(diameter))
        yield float(10.0 ** rng.uniform(-3.0, 5.0)), float(gap), shape


def closed_form_unit_dipole(offset):
    """1e8 * [3(mh.rh)rh - mh] / r^3 for a unit +z moment, written out."""
    r = np.asarray(offset, dtype=float)
    rn = np.linalg.norm(r)
    rh = r / rn
    mh = np.array([0.0, 0.0, 1.0])
    return 1e8 * (3.0 * (mh @ rh) * rh - mh) / rn**3


def centroid(magnet):
    """The magnet's centre, where a point dipole of its moment sits."""
    return np.array([0.0, 0.0, 0.5 * magnet.height_mm])


def test_on_axis_field_has_no_lateral_component():
    mag = MagnetSpec(moment_a_m2=1e-4)
    for z in (1.0, 3.0, 7.5):
        b = cylinder_flux(mag, (0.0, 0.0, -z))
        # the quadrature's angles are symmetric: the lateral sums cancel to rounding
        assert np.abs(b[:2]).max() <= 1e-15 * abs(b[2])
        assert b[2] != 0.0


def test_axial_magnitude_follows_inverse_cube():
    # a finite magnet's axial field falls as 1/r^3 only in the far field:
    # |B(r)| / |B(2r)| from the centroid tends to 8, its error falling ~4x per doubling
    mag = MagnetSpec(moment_a_m2=2.5e-4)
    axis = np.array([0.0, 0.0, -1.0])
    misses = []
    for r in (10.0, 20.0, 40.0, 80.0):
        near = np.linalg.norm(cylinder_flux(mag, centroid(mag) + r * axis))
        far = np.linalg.norm(cylinder_flux(mag, centroid(mag) + 2.0 * r * axis))
        misses.append(abs(near / far / 8.0 - 1.0))
    assert misses[-1] <= 1e-3, misses
    assert np.all(np.divide(misses[:-1], misses[1:]) >= 3.5), misses


def test_field_is_linear_in_moment(rng):
    for _ in range(50):
        m = float(rng.uniform(1e-5, 1e-3))
        offset = np.append(rng.uniform(-10.0, 10.0, size=2), rng.uniform(-10.0, -1.0))
        base = cylinder_flux(MagnetSpec(moment_a_m2=m), offset)
        # a power-of-two scale is exact through the quadrature
        doubled = cylinder_flux(MagnetSpec(moment_a_m2=2.0 * m), offset)
        np.testing.assert_array_equal(doubled, 2.0 * base)
        scaled = cylinder_flux(MagnetSpec(moment_a_m2=3.7 * m), offset)
        np.testing.assert_allclose(scaled, 3.7 * base, rtol=1e-12, atol=1e-15)


def test_magnitude_decays_strictly_along_rays(rng):
    radii = np.linspace(4.0, 20.0, 30)  # outside every catalogue marker's body
    for magnet in build_marker_set(3.0):
        for _ in range(40):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            points = centroid(magnet) + radii[:, None] * direction
            mags = [np.linalg.norm(flux) for flux in cylinder_flux(magnet, points)]
            assert np.all(np.diff(mags) < 0.0)


def test_matches_closed_form_point_dipole():
    # in the far field the cylinder is the point dipole about its centroid;
    # the quadrature's departure is quadrupole-order: relative error
    # ~ (size / r)^2, a factor 4 per doubling of r
    for direction in ((0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.3, -0.7, -0.5)):
        direction = np.asarray(direction) / np.linalg.norm(direction)
        for magnet in build_marker_set(3.0):
            errors = []
            for r in (10.0, 20.0, 40.0, 80.0):
                offset = centroid(magnet) + r * direction
                got = cylinder_flux(magnet, offset)
                want = magnet.moment_a_m2 * closed_form_unit_dipole(offset - centroid(magnet))
                errors.append(np.linalg.norm(got - want) / np.linalg.norm(want))
            context = (direction, magnet.magnet_id, errors)
            assert errors[-1] <= 1e-3, context
            assert np.all(np.divide(errors[:-1], errors[1:]) >= 3.5), context


def test_too_close_offset_rejected():
    mag = MagnetSpec(moment_a_m2=1e-4)
    with pytest.raises(OffsetTooSmall):
        cylinder_flux(mag, (0.0, 0.0, 0.3))
    with pytest.raises(OffsetTooSmall):
        cylinder_flux(mag, (0.0, 0.0, -0.4))


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


def test_cylinder_flux_takes_stacked_offsets_in_one_unmemoised_pass(rng):
    offsets = np.column_stack([rng.uniform(-6.0, 6.0, size=(40, 2)), rng.uniform(-10.0, -1.0, 40)])
    offsets = np.vstack([offsets, [(0.0, 0.0, -3.0), (-0.0, 0.0, -3.0), (-0.0, -0.0, -3.5)]])
    markers = [MagnetSpec(moment_a_m2=4.4e-4)] + build_marker_set(3.0)
    for magnet in markers:
        before = magnets._cylinder_flux.cache_info()
        got = cylinder_flux(magnet, offsets)
        assert magnets._cylinder_flux.cache_info() == before
        want = np.array([cylinder_flux(magnet, offset) for offset in offsets])
        assert got.shape == (len(offsets), 3)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    inside = offsets.copy()
    inside[17] = (0.0, 0.0, 0.3)
    before = magnets._cylinder_flux.cache_info()
    with pytest.raises(OffsetTooSmall):
        cylinder_flux(markers[0], inside)
    assert magnets._cylinder_flux.cache_info() == before


def test_magnet_spec_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=0.0)
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=1e-4, height_mm=-1.0)
    with pytest.raises(ValueError):
        MagnetSpec(moment_a_m2=1e-4, diameter_mm=0.0)


def test_point_moment_calibration_matches_closed_form():
    # solve target = m * |B_unit(probe) - B_unit(rest)| about the centroid by
    # direct arithmetic: at a 40 mm gap the cylinder is nearly a point dipole
    for magnet_id, diameter, height, target in MARKER_CANDIDATES:
        shape = dict(height_mm=height, diameter_mm=diameter, magnet_id=magnet_id)
        spec = calibrate_moment(target, 40.0, **shape)
        rest = np.array([0.0, 0.0, -40.0]) - centroid(spec)
        shifted = rest + (-1.0, 0.0, 0.0)
        db_unit = np.linalg.norm(closed_form_unit_dipole(shifted) - closed_form_unit_dipole(rest))
        assert spec.moment_a_m2 == pytest.approx(target / db_unit, rel=1e-2)
        # round trip: the calibrated magnet reproduces the target within 0.1%
        assert effective_signal(spec, 40.0) == pytest.approx(target, rel=1e-3)


def test_calibrated_moments_increase_with_target():
    moments = [calibrate_moment(t, 3.0).moment_a_m2 for t in EFFECTIVE_TARGETS_UT]
    assert np.all(np.diff(moments) > 0.0)


def test_zero_or_negative_target_rejected():
    with pytest.raises(NoConvergence):
        calibrate_moment(0.0, 3.0)
    with pytest.raises(NoConvergence):
        calibrate_moment(-4.0, 3.0)


def test_calibration_memo_returns_the_bisection_spec():
    kwargs = dict(height_mm=1.0, diameter_mm=3.0, magnet_id=2)
    spec = calibrate_moment(580.0, 3.0, **kwargs)
    assert calibrate_moment(580.0, 3.0, **kwargs) is spec
    assert calibrate_moment.__wrapped__(580.0, 3.0, **kwargs) == spec
    assert default_magnet(3.0) is spec


def test_calibration_is_the_bisection_bit_for_bit():
    kinds = set()
    for target, gap, kwargs in calibration_cases():
        want = outcome(bisection_oracle, target, gap, **kwargs)
        got = outcome(calibrate_moment.__wrapped__, target, gap, **kwargs)
        assert got == want, (target, gap, kwargs)
        kinds.add(want[0] if isinstance(want[0], type) else float)
    assert kinds == {float, NoConvergence, OffsetTooSmall, ValueError}


@pytest.mark.parametrize(
    "target, gap, kwargs, error",
    [
        (0.0, 3.0, {}, NoConvergence),
        (1e300, 3.0, {}, NoConvergence),
        (580.0, 0.4, {}, OffsetTooSmall),
        (580.0, 3.0, dict(diameter_mm=0.0), ValueError),
    ],
    ids=["non-positive", "cannot-bracket", "too-close", "bad-dimensions"],
)
def test_failed_calibrations_are_not_memoised(target, gap, kwargs, error):
    for _ in range(2):
        misses = calibrate_moment.cache_info().misses
        with pytest.raises(error):
            calibrate_moment(target, gap, **kwargs)
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
    assert effective_signal(mag, 3.0) == pytest.approx(580.0, rel=1e-3)
    # frozen so silent drift in the field model or calibration shows up
    assert mag.moment_a_m2 == pytest.approx(4.369635e-4, rel=1e-5)
    assert mag.magnet_id == 2
    assert (mag.diameter_mm, mag.height_mm) == (3.0, 1.0)


def test_marker_set_hits_all_four_targets():
    markers = build_marker_set(3.0)
    assert [m.magnet_id for m in markers] == [1, 2, 3, 4]
    for marker, target in zip(markers, EFFECTIVE_TARGETS_UT):
        assert effective_signal(marker, 3.0) == pytest.approx(target, rel=1e-3)
    moments = [m.moment_a_m2 for m in markers]
    assert np.all(np.diff(moments) > 0.0)


def test_marker_candidate_catalog_is_frozen():
    assert MARKER_CANDIDATES == (
        (1, 2.0, 2.0, 211.0),
        (2, 3.0, 1.0, 580.0),
        (3, 4.0, 2.0, 853.0),
        (4, 5.0, 3.0, 1816.0),
    )
