import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacsim.errors import DisplacementOutOfRange, OffsetTooSmall
from tacsim.magnets import cylinder_flux, default_magnet
from tacsim.pipeline import FrontEnd, StreamConfig, TactileFrame
from tacsim.rotations import axis_angle, is_rotation, rot_x, rot_y
from tacsim.sensor import (
    DEFAULT_PROBE_RADIUS_MM,
    FACE_CENTER_MM,
    MAX_TRAVEL_FRACTION,
    TAXEL_PITCH_MM,
    TAXEL_X_MM,
    TAXEL_Y_MM,
    ContactStimulus,
    ElastomerSpec,
    Environment,
    TactileSensor,
    _check_travel,
    _fa1_reading,
    apply_hysteresis,
    bone_displacement,
    compliance_mm_per_n,
    footprint_weights,
    magnet_field_at_sensor,
    pressure_centroid,
    sample_fa1,
    sample_sa2,
    travel_stop_force_n,
)


def press(fz, loc=FACE_CENTER_MM):
    return ContactStimulus(location_mm=tuple(loc), force_n=(0.0, 0.0, float(fz)))


def rest_flux(magnet, elastomer):
    """Marker field at zero displacement: no earth field, no noise."""
    (flux,) = magnet_field_at_sensor(magnet, np.zeros(3), elastomer.sa2_thickness_mm)
    return flux


def reading(stimulus, elastomer):
    """The noise-free 4x4 taxel reading of one contact."""
    weights = footprint_weights(stimulus.location_mm, stimulus.probe_radius_mm)
    return _fa1_reading(weights, stimulus.force_n[2], elastomer)


def travel(force_n, elastomer):
    """The bone displacement under one force, checked against the travel stop."""
    delta = bone_displacement(force_n, elastomer)
    _check_travel(delta, elastomer)
    return delta


# ---------------------------------------------------------------------------
# footprint and FA-I layer
# ---------------------------------------------------------------------------

def test_footprint_weights_sum_to_one(rng):
    for _ in range(100):
        loc = rng.uniform(0.0, 10.0, size=2)
        radius = rng.uniform(1.0, 8.0)
        w = footprint_weights(loc, radius)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w >= 0.0)


def test_centered_press_reads_symmetric(elastomer, quiet_env):
    counts = sample_fa1(press(1.5), elastomer, quiet_env)
    # quarter-turn symmetry of the grid about the face centre
    assert np.array_equal(counts, np.rot90(counts))
    assert np.array_equal(counts, counts.T)


def test_zero_force_reads_zero(elastomer, quiet_env):
    counts = sample_fa1(press(0.0), elastomer, quiet_env)
    assert np.array_equal(counts, np.zeros((4, 4), dtype=int))


def test_taxel_sum_doubles_with_force(elastomer, quiet_env):
    one = sample_fa1(press(1.0), elastomer, quiet_env).sum()
    two = sample_fa1(press(2.0), elastomer, quiet_env).sum()
    assert two / one == pytest.approx(2.0, rel=0.01)


def test_taxel_sum_is_linear_over_press_range(elastomer, quiet_env):
    fz = np.arange(0.0, 2.01, 0.25)
    sums = [sample_fa1(press(f), elastomer, quiet_env).sum() for f in fz]
    coef = np.polyfit(fz, sums, 1)
    resid = np.array(sums) - np.polyval(coef, fz)
    ss_tot = ((np.array(sums) - np.mean(sums)) ** 2).sum()
    assert 1.0 - (resid @ resid) / ss_tot > 0.999


def test_frozen_center_press_counts(elastomer, quiet_env):
    # pinned outputs of the strain law: rest_resistance * gauge * strain,
    # strain = (weight*Fz / taxel area) / modulus, then rounded to integers
    one = sample_fa1(press(1.0), elastomer, quiet_env)
    two = sample_fa1(press(2.0), elastomer, quiet_env)
    assert one.sum() == 3256
    assert two.sum() == 6516
    assert two.max() == 819  # ~80% of the 10-bit range at the 2 N protocol top
    assert 0.78 <= two.max() / 1023.0 <= 0.82


def test_saturation_clips_at_the_adc_ceiling(elastomer, quiet_env):
    # off-centre 2 N presses concentrate load enough to clip one taxel
    for stimulus in (press(6.0), press(2.0, (4.5, 4.5))):
        assert np.rint(reading(stimulus, elastomer)).max() > 1023
        assert sample_fa1(stimulus, elastomer, quiet_env).max() == 1023
    assert np.rint(reading(press(2.0), elastomer)).max() <= 1023
    assert sample_fa1(press(2.0), elastomer, quiet_env).max() < 1023


def test_footprint_weights_are_memoised_read_only_by_value():
    w = footprint_weights((4.5, 8.0), 5.3)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # keyed on the values as floats: an array location or an integer radius hits it
    assert footprint_weights(np.array([4.5, 8.0]), 5.3) is w
    assert footprint_weights((5, 5), 4) is footprint_weights((5.0, 5.0), 4.0)
    with pytest.raises(ValueError, match="overlap"):
        footprint_weights((1e6, 1e6), 1.0)


def test_pressure_centroid_matches_weighted_grid(rng):
    for _ in range(20):
        loc = rng.uniform(3.0, 9.0, size=2)
        w = footprint_weights(loc, 5.3)
        want = np.array([(w * TAXEL_X_MM).sum(), (w * TAXEL_Y_MM).sum()])
        np.testing.assert_allclose(pressure_centroid(loc, 5.3), want, rtol=1e-12)


def test_stimulus_validation():
    with pytest.raises(ValueError):
        ContactStimulus(force_n=(0.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        ContactStimulus(location_mm=(11.0, 5.0))
    with pytest.raises(ValueError):
        ContactStimulus(location_mm=(5.0, -0.1))
    with pytest.raises(ValueError):
        ContactStimulus(probe_radius_mm=0.0)


@pytest.mark.parametrize(
    "kwargs, what",
    [
        ({"force_n": (1.0, 2.0)}, "force"),
        ({"force_n": (0.0, 0.0, 1.0, 0.5)}, "force"),
        ({"location_mm": (1.0,)}, "location"),
        ({"location_mm": (1.0, 2.0, 3.0)}, "location"),
    ],
    ids=["force-2", "force-4", "location-1", "location-3"],
)
def test_stimulus_refuses_wrong_shapes(kwargs, what):
    with pytest.raises(ValueError, match=what):
        ContactStimulus(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_stimulus_rejects_non_finite_force(axis, bad):
    force = [0.0, 0.0, 1.0]
    force[axis] = bad
    with pytest.raises(ValueError, match="finite"):
        ContactStimulus(force_n=tuple(force))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stimulus_rejects_non_finite_probe_radius(bad):
    with pytest.raises(ValueError, match="probe radius"):
        ContactStimulus(probe_radius_mm=bad)


def test_elastomer_validation():
    with pytest.raises(ValueError):
        ElastomerSpec(modulus_kpa=0.0)
    with pytest.raises(ValueError):
        ElastomerSpec(backlash_mm=-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fa1_noise_counts": np.nan}, {"fa1_noise_counts": -1.0}, {"fa1_noise_counts": np.inf},
        {"sa2_noise_ut": np.nan}, {"sa2_noise_ut": -0.5}, {"sa2_noise_ut": np.inf},
        {"quantization_ut": np.nan}, {"quantization_ut": -0.15}, {"quantization_ut": np.inf},
        {"earth_field_ut": (np.nan, 0.0, 0.0)}, {"earth_field_ut": (0.0, np.inf, 0.0)},
        {"earth_field_ut": (0.0, 0.0, -np.inf)},
    ],
    ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))),
)
def test_environment_refuses_what_would_turn_noise_rounding_or_flux_to_nonsense(kwargs):
    # a NaN noise scale used to turn the noise off, a negative step the
    # rounding, and a NaN earth field gave frames of NaN flux
    with pytest.raises(ValueError):
        Environment(**kwargs)


def test_environment_takes_zero_as_off(quiet_env):
    sensor = TactileSensor(env=quiet_env)
    state = quiet_env.rng.bit_generator.state
    counts, flux = sensor.sample_block([(press(1.0), 3, None)])
    assert quiet_env.rng.bit_generator.state == state  # nothing drawn
    np.testing.assert_array_equal(flux, np.tile(flux[0], (3, 1)))


# ---------------------------------------------------------------------------
# bone displacement and SA-II layer
# ---------------------------------------------------------------------------

def test_compliance_closed_form(elastomer):
    # linear spring over 60% of the 10 mm face: E*A/t = 1660 N/m
    area_m2 = 0.6 * (10e-3) ** 2
    stiffness = 83e3 * area_m2 / 3e-3
    assert compliance_mm_per_n(elastomer) == pytest.approx(1e3 / stiffness, rel=1e-12)
    assert compliance_mm_per_n(elastomer) == pytest.approx(0.6024096385542169, rel=1e-12)


def test_displacement_hits_mechanical_stop(elastomer):
    c = compliance_mm_per_n(elastomer)
    limit_force = 0.8 * elastomer.sa2_thickness_mm / c
    travel((0.0, 0.0, limit_force - 0.05), elastomer)
    with pytest.raises(DisplacementOutOfRange):
        travel((0.0, 0.0, limit_force + 0.05), elastomer)


def test_travel_stop_force_at_the_defaults(elastomer):
    assert travel_stop_force_n(elastomer) == pytest.approx(3.984, rel=1e-12)


# the config's bounds on the two constants the stop depends on
@given(st.floats(1.0, 1e5), st.floats(0.5, 20.0, exclude_min=True))
def test_travel_stop_force_is_the_largest_the_stop_takes(modulus_kpa, thickness_mm):
    elastomer = ElastomerSpec(modulus_kpa=modulus_kpa, sa2_thickness_mm=thickness_mm)
    stop = travel_stop_force_n(elastomer)
    travel((0.0, 0.0, stop), elastomer)
    with pytest.raises(DisplacementOutOfRange):
        travel((0.0, 0.0, stop * (1.0 + 1e-9)), elastomer)


def test_rest_configuration_returns_marker_field_exactly(elastomer, quiet_env):
    got = sample_sa2(press(0.0), default_magnet(3.0), elastomer, quiet_env)
    np.testing.assert_array_equal(got, rest_flux(default_magnet(3.0), elastomer))


def test_pure_x_shear_moves_only_xz(elastomer, quiet_env):
    mag = default_magnet(3.0)
    rest = rest_flux(mag, elastomer)
    got = sample_sa2(ContactStimulus(force_n=(1.0, 0.0, 0.0)), mag, elastomer, quiet_env)
    db = got - rest
    assert db[0] > 0.0  # +x force pushes the flux x-component positive
    assert db[1] == pytest.approx(0.0, abs=1e-9)


def test_earth_field_magnitude_is_rotation_invariant(rng):
    b_e = np.array([38.031, 0.0, 32.46])
    for _ in range(50):
        axis = rng.normal(size=3)
        R = axis_angle(axis, rng.uniform(-np.pi, np.pi))
        assert np.linalg.norm(R.T @ b_e) == pytest.approx(np.linalg.norm(b_e), abs=1e-9)


def test_earth_field_enters_through_orientation(elastomer):
    mag = default_magnet(3.0)
    b_e = (10.0, -4.0, 25.0)
    env = Environment(
        earth_field_ut=b_e,
        fa1_noise_counts=0.0,
        sa2_noise_ut=0.0,
        quantization_ut=0.0,
    )
    got = sample_sa2(press(0.0), mag, elastomer, env, rot_y(np.pi / 3))
    want = rest_flux(mag, elastomer) + rot_y(np.pi / 3).T @ np.asarray(b_e)
    np.testing.assert_allclose(got, want, rtol=1e-12)


CALLS_WITH_ORIENTATION = {
    "sample_block": lambda sensor, R: sensor.sample_block([(press(1.0), 3, R)]),
    "sample": lambda sensor, R: sensor.sample(press(1.0), 0, R),
    "sample_sa2": lambda sensor, R: sample_sa2(
        press(1.0), sensor.magnet, sensor.elastomer, sensor.env, R
    ),
    "FrontEnd": lambda sensor, R: FrontEnd([sensor], StreamConfig(), press(0.0), R),
    "FrontEnd.hold": lambda sensor, R: FrontEnd([sensor], StreamConfig(), press(0.0)).hold(
        [(press(1.0), 3, R)]
    ),
}


@pytest.mark.parametrize(
    "R", [np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.eye(2)],
    ids=["zeros", "reflection", "scaled", "2x2"],
)
@pytest.mark.parametrize("call", list(CALLS_WITH_ORIENTATION))
def test_per_call_orientation_must_be_a_rotation(call, R, elastomer):
    sensor = TactileSensor(elastomer=elastomer, env=Environment(earth_field_ut=(30.0, 0.0, 40.0)))
    CALLS_WITH_ORIENTATION[call](sensor, rot_x(0.3))  # a rotation is accepted
    with pytest.raises(ValueError, match="rotation"):
        CALLS_WITH_ORIENTATION[call](sensor, R)


def test_noise_is_reproducible_per_seed(elastomer):
    frames = []
    for _ in range(2):
        env = Environment(seed=42)
        sensor = TactileSensor(elastomer=elastomer, env=env, finger_id=1)
        frames.append([sensor.sample(press(1.0), t + 1) for t in range(20)])
    for a, b in zip(*frames):
        assert np.array_equal(a.fa1, b.fa1)
        assert np.array_equal(a.sa2, b.sa2)


def test_quantization_grid(elastomer):
    env = Environment(fa1_noise_counts=0.0, sa2_noise_ut=0.0, quantization_ut=0.15)
    got = sample_sa2(press(0.7), default_magnet(3.0), elastomer, env)
    steps = got / 0.15
    np.testing.assert_allclose(steps, np.rint(steps), atol=1e-9)


def test_sample_produces_valid_frame(elastomer):
    sensor = TactileSensor(elastomer=elastomer, env=Environment(seed=3), finger_id=1)
    frame = sensor.sample(press(1.0), timestamp_us=4000)
    assert isinstance(frame, TactileFrame)
    assert frame.finger_id == 1
    assert frame.timestamp_us == 4000
    assert frame.fa1.dtype.kind == "i"
    assert frame.sa2.dtype == np.float32


NOISE_SWITCHES = [
    dict(fa1_noise_counts=fa1, sa2_noise_ut=sa2, quantization_ut=q)
    for fa1 in (0.0, 2.0)
    for sa2 in (0.0, 1.0)
    for q in (0.0, 0.15)
]


def _block_sensor(elastomer, noise):
    """A unit in a nonzero earth field; the callers pose it per call."""
    env = Environment(
        earth_field_ut=(38.031, -7.5, 32.46),
        seed=11,
        **noise,
    )
    return TactileSensor(elastomer=elastomer, env=env, finger_id=1)


@pytest.mark.parametrize(
    "noise", NOISE_SWITCHES,
    ids=["fa1{fa1_noise_counts}-sa2{sa2_noise_ut}-q{quantization_ut}".format(**n)
         for n in NOISE_SWITCHES],
)
def test_sample_block_equals_per_frame_samples(noise, elastomer):
    stimulus = ContactStimulus(location_mm=(4.5, 8.0), force_n=(0.3, -0.2, 1.4))
    pose = axis_angle((1.0, -2.0, 0.5), 0.9)
    n = 25
    block = _block_sensor(elastomer, noise)
    counts, flux = block.sample_block([(stimulus, n, pose)])
    assert counts.shape == (n, 16) and counts.dtype.kind == "i"
    assert flux.shape == (n, 3) and flux.dtype == np.float32

    framed = _block_sensor(elastomer, noise)
    frames = [framed.sample(stimulus, t + 1, orientation=pose) for t in range(n)]
    # the per-layer samplers, one frame at a time: the per-frame noise order (their
    # physics is response's own, which test_response_equals_per_entry_formulas checks)
    layered = _block_sensor(elastomer, noise)
    layers = [
        (
            sample_fa1(stimulus, elastomer, layered.env),
            sample_sa2(stimulus, layered.magnet, elastomer, layered.env, pose),
        )
        for _ in range(n)
    ]
    for want_counts, want_flux, sensor in (
        (np.array([f.fa1.ravel() for f in frames]), np.array([f.sa2 for f in frames]), framed),
        (np.array([c.ravel() for c, _ in layers]),
         np.array([b for _, b in layers], dtype=np.float32), layered),
    ):
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(flux.view(np.uint32), want_flux.view(np.uint32))
        assert sensor.env.rng.bit_generator.state == block.env.rng.bit_generator.state


# the per-entry formulas, as each schedule entry was once evaluated alone: the
# independent oracle of response's array pass


def oracle_fa1(stimulus, elastomer):
    fz = stimulus.force_n[2]
    w = footprint_weights(stimulus.location_mm, stimulus.probe_radius_mm)
    area_m2 = (TAXEL_PITCH_MM * 1e-3) ** 2
    stress_pa = w * fz / area_m2
    strain = stress_pa / (elastomer.modulus_kpa * 1e3)
    return elastomer.rest_resistance * elastomer.gauge_factor * strain


def oracle_sa2(stimulus, magnet, elastomer, env, orientation):
    delta = compliance_mm_per_n(elastomer) * np.asarray(stimulus.force_n, dtype=float)
    limit = MAX_TRAVEL_FRACTION * elastomer.sa2_thickness_mm
    if np.linalg.norm(delta) > limit:
        raise DisplacementOutOfRange(f"|delta| = {np.linalg.norm(delta):.3f} mm exceeds the {limit:.2f} mm stop")
    R = np.eye(3)
    if orientation is not None:
        R = np.asarray(orientation, dtype=float)
        if not is_rotation(R):
            raise ValueError("orientation must be a proper rotation matrix")
    dx, dy, dz = delta
    position = np.array([dx, dy, elastomer.sa2_thickness_mm - dz])
    b = cylinder_flux(magnet, -position)
    return b + R.T @ env.earth_field_ut


@functools.lru_cache(maxsize=None)
def oracle_sensor(sa2_thickness_mm, earth_field_ut):
    """A sensor on a 3 mm lower layer, or on a thin 1 mm one whose offsets can come within 0.5 mm of the magnet."""
    elastomer = ElastomerSpec(sa2_thickness_mm=sa2_thickness_mm)
    return TactileSensor(elastomer=elastomer, env=Environment(earth_field_ut=earth_field_ut))


ZERO = st.sampled_from([0.0, -0.0])
ROTATION = st.builds(
    axis_angle, st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, -2.0, 0.5)]), st.floats(-np.pi, np.pi)
)
NOT_A_ROTATION = st.sampled_from([np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3)])
STIMULUS = st.builds(
    lambda x, y, fx, fy, fz, radius: ContactStimulus(location_mm=(x, y), force_n=(fx, fy, fz), probe_radius_mm=radius),
    st.floats(0.0, 10.0), st.floats(0.0, 10.0),
    ZERO | st.floats(-1.5, 1.5), ZERO | st.floats(-1.5, 1.5), ZERO | st.floats(0.0, 4.5),
    # the config's probe radii, and now and then one whose footprint misses every taxel
    st.sampled_from([0.01] + [None] * 15).flatmap(
        lambda tiny: st.just(tiny) if tiny else st.just(DEFAULT_PROBE_RADIUS_MM) | st.floats(0.5, 50.0)
    ),
)
# an entry's orientation: None, the schedule's one shared rotation object, a rotation of
# its own, or one that is not a rotation
ORIENTATION = st.sampled_from(["none"] * 3 + ["shared"] * 4 + ["own"] * 4 + ["bad"])


def entry(fx, fz, n, kind="none", own=np.eye(3)):
    """An ``entries`` item of the test below: a press at (4.5, 8) mm held ``n`` frames."""
    return ContactStimulus(location_mm=(4.5, 8.0), force_n=(fx, -0.1, fz)), n, kind, own, np.zeros((3, 3))


EARTH = (38.031, -7.5, 32.46)


@settings(max_examples=150, deadline=None)
# a later entry past the travel stop; rotations of their own, and one shared
@example(3.0, EARTH, rot_x(0.4), [entry(0.2, 1.0, 2), entry(0.0, 4.2, 3)])
@example(3.0, EARTH, rot_x(0.4), [entry(0.2, 1.0, 2, "own", rot_y(0.3)), entry(-0.0, 0.5, 3, "shared"),
                                  entry(0.0, 1.5, 2, "own", rot_y(-0.7)), entry(0.1, 0.0, 1, "shared")])
# a thin layer: the first entry comes too close to the magnet, the next passes the stop
@example(1.0, EARTH, rot_x(0.4), [entry(0.0, 3.0, 2), entry(0.0, 4.2, 1)])
# an entry past the stop, then one whose footprint misses the face
@example(3.0, EARTH, rot_x(0.4), [entry(0.0, 4.2, 1), (ContactStimulus(probe_radius_mm=0.01, location_mm=(6.0, 6.0)),
                                                     1, "none", np.eye(3), np.eye(3))])
@given(
    st.sampled_from([3.0, 1.0]),
    st.sampled_from([EARTH, (0.0, -0.0, 0.0)]),
    ROTATION,
    st.lists(st.tuples(STIMULUS, st.integers(0, 3), ORIENTATION, ROTATION, NOT_A_ROTATION), max_size=7),
)
def test_response_equals_per_entry_formulas(sa2_thickness_mm, earth_field_ut, shared, entries):
    sensor = oracle_sensor(sa2_thickness_mm, earth_field_ut)
    schedule = [(stimulus, n, {"none": None, "shared": shared, "own": own, "bad": bad}[kind])
                for stimulus, n, kind, own, bad in entries]
    want, first_error = [], None
    for stimulus, n, R in schedule:
        try:
            row = np.concatenate([oracle_fa1(stimulus, sensor.elastomer).ravel(),
                                  oracle_sa2(stimulus, sensor.magnet, sensor.elastomer, sensor.env, R)])
        except (DisplacementOutOfRange, OffsetTooSmall, ValueError) as exc:
            first_error = exc
            break
        want += [row] * n
    if first_error is not None:
        # the schedule fails as its first failing entry fails alone
        with pytest.raises(type(first_error)) as raised:
            sensor.response(schedule)
        assert raised.type is type(first_error) and str(raised.value) == str(first_error)
        return
    got = sensor.response(schedule)
    assert got.shape == (len(want), 19)
    np.testing.assert_array_equal(got.view(np.uint64), np.reshape(want, (-1, 19)).view(np.uint64))


# ---------------------------------------------------------------------------
# hysteresis operator
# ---------------------------------------------------------------------------

def test_zero_backlash_is_identity(rng):
    series = np.cumsum(rng.normal(size=200))
    np.testing.assert_array_equal(apply_hysteresis(series, 0.0), series)


def test_release_lags_press_by_exactly_the_backlash():
    lash = 0.015
    up = np.linspace(0.0, 1.2, 241)
    series = np.concatenate([up, up[::-1][1:]])
    out = apply_hysteresis(series, lash)
    # once moving, press output is x - lash/2 and release output is x + lash/2,
    # so matching output levels are exactly `lash` apart in displacement
    moving_up = out[5:241]
    np.testing.assert_allclose(up[5:] - moving_up, lash / 2.0, atol=1e-12)
    moving_down = out[260:]
    np.testing.assert_allclose(moving_down - series[260:], lash / 2.0, atol=1e-12)


def test_press_release_loop_stays_under_two_percent(elastomer):
    up = np.linspace(0.0, 1.2, 121)
    series = np.concatenate([up, up[::-1][1:]])
    out = apply_hysteresis(series, elastomer.backlash_mm, elastomer.dead_zone_mm)
    press_curve = out[:121]
    release_curve = out[120:][::-1]
    gap = np.max(np.abs(press_curve - release_curve))
    full_scale = out.max() - out.min()
    assert gap / full_scale <= 0.02


def test_dead_zone_swallows_first_travel(elastomer):
    up = np.linspace(0.0, 1.0, 201)
    out = apply_hysteresis(up, 0.0, elastomer.dead_zone_mm)
    assert np.all(out[up <= elastomer.dead_zone_mm] == 0.0)
    assert out[-1] > 0.0
