import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacsim.config import load_config
from tacsim.errors import InsufficientSamples, MalformedRecord
from tacsim.experiments import _header, _sensors, _stream_config, run_stream
from tacsim.pipeline import (
    ADC_MAX,
    CSV_HEADER,
    CSV_READ_CHUNK,
    FA1_SHAPE,
    FRAME_DTYPE,
    RECORD_SIZE,
    Baseline,
    FrontEnd,
    MovingAverage,
    StreamConfig,
    StreamProcessor,
    TactileFrame,
    decode_frames,
    encode_frames,
    initialize,
    moving_average,
    read_frames_csv,
    subtract_baseline,
    write_frames_csv,
)
from tacsim.pipeline import _CSV_ROW, _records
from tacsim.rotations import rot_x, rot_y
from tacsim.sensor import ContactStimulus, Environment, TactileSensor


def make_frame(t, value=0, finger=0, sa2=(0.0, 0.0, 0.0)):
    return TactileFrame(
        timestamp_us=t,
        finger_id=finger,
        fa1=np.full((4, 4), value, dtype=int),
        sa2=np.asarray(sa2, dtype=np.float32),
    )


def random_frame(rng, t):
    return TactileFrame(
        timestamp_us=int(t),
        finger_id=int(rng.integers(0, 4)),
        fa1=rng.integers(0, 1024, size=(4, 4)),
        sa2=rng.normal(scale=800.0, size=3).astype(np.float32),
    )


def assert_same_frames(got, want):
    """Field for field, the flux by bit pattern so that a lost sign of zero shows."""
    for name in FRAME_DTYPE.names:
        a, b = (np.array([getattr(f, name) for f in frames]) for frames in (got, want))
        if name == "sa2":
            a, b = a.astype(np.float32).view(np.uint32), b.astype(np.float32).view(np.uint32)
        assert a.shape == b.shape and np.array_equal(a, b), name


def idle_stream(n, seed=0, start_us=0):
    sensor = TactileSensor(env=Environment(seed=seed))
    idle = ContactStimulus()
    return [sensor.sample(idle, start_us + 4000 * (i + 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# initialization and baseline subtraction
# ---------------------------------------------------------------------------

def test_constant_stream_gives_exact_baseline():
    frames = [make_frame(t + 1, value=7, sa2=(1.5, -2.0, 800.0)) for t in range(300)]
    base = initialize(frames)
    np.testing.assert_array_equal(base.fa1_mean, np.full((4, 4), 7.0))
    np.testing.assert_allclose(base.sa2_mean, [1.5, -2.0, 800.0], rtol=1e-6)
    assert base.sample_count == 100


def test_baseline_uses_only_the_tail():
    frames = [make_frame(t + 1, value=999) for t in range(200)]
    frames += [make_frame(t + 201, value=5) for t in range(100)]
    base = initialize(frames)
    np.testing.assert_array_equal(base.fa1_mean, np.full((4, 4), 5.0))


def test_short_stream_raises():
    frames = [make_frame(t + 1) for t in range(299)]
    with pytest.raises(InsufficientSamples):
        initialize(frames)


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(init_samples=50, baseline_tail=100)
    with pytest.raises(ValueError):
        StreamConfig(ma_window=0)
    with pytest.raises(ValueError):
        StreamConfig(init_samples=5, baseline_tail=0)


def test_subtracting_own_baseline_zeroes_the_frame():
    frames = [make_frame(t + 1, value=12, sa2=(3.0, 4.5, -1.0)) for t in range(300)]
    base = initialize(frames)
    rel = subtract_baseline(frames[-1], base)
    np.testing.assert_array_equal(rel.fa1, np.zeros((4, 4)))
    np.testing.assert_allclose(rel.sa2, np.zeros(3), atol=1e-6)


def test_subtraction_arithmetic():
    base = Baseline(fa1_mean=np.full((4, 4), 500.0), sa2_mean=np.zeros(3), sample_count=100)
    rel = subtract_baseline(make_frame(1, value=510), base)
    np.testing.assert_array_equal(rel.fa1, np.full((4, 4), 10.0))


def test_idle_stream_residual_mean_is_small():
    # after subtracting a 100-sample baseline, the residual mean over M idle
    # frames stays within 3 standard errors: 3*sigma*sqrt(1/100 + 1/M)
    frames = idle_stream(700, seed=11)
    proc = StreamProcessor()
    rel = [proc.process(f) for f in frames]
    rel = [r for r in rel if r is not None]
    fa1_mean = np.mean([r.fa1 for r in rel], axis=0)
    sa2_mean = np.mean([r.sa2 for r in rel], axis=0)
    m = len(rel)
    assert np.all(np.abs(fa1_mean) <= 3.0 * 2.0 * np.sqrt(1 / 100 + 1 / m))
    assert np.all(np.abs(sa2_mean) <= 3.0 * 1.0 * np.sqrt(1 / 100 + 1 / m))


# ---------------------------------------------------------------------------
# moving average
# ---------------------------------------------------------------------------

def test_dc_gain_is_one_from_the_first_sample():
    ma = MovingAverage(6)
    for _ in range(20):
        assert ma.update(3.25) == pytest.approx(3.25, abs=0.0)


def test_warmup_outputs_exact_running_means():
    x = np.array([4.0, -2.0, 6.0, 0.0, 10.0, 2.0, 8.0, -4.0])
    got = moving_average(x, 6)
    want = [np.mean(x[max(0, i - 5) : i + 1]) for i in range(len(x))]
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_unit_step_settles_to_one():
    x = np.ones(30)
    got = moving_average(x, 6)
    np.testing.assert_array_equal(got, np.ones(30))


def test_white_noise_is_attenuated_by_sqrt_window(rng):
    sigma = 1.7
    x = rng.normal(0.0, sigma, size=100_000)
    y = moving_average(x, 6)[6:]
    assert np.std(y) == pytest.approx(sigma / np.sqrt(6.0), rel=0.10)


@pytest.mark.parametrize("window", [1, 6, 8, 50])
def test_array_moving_average_matches_the_streaming_filter(window, rng):
    # frame-shaped rows (19 channels) spanning twelve decades, so any change
    # in summation order shows in the last bits; 8 is where a pairwise sum
    # would start
    x = rng.normal(size=(120, 19)) * 10.0 ** rng.integers(-6, 6, size=(120, 19))
    ma = MovingAverage(window)
    want = np.array([ma.update(v) for v in x])
    got = moving_average(x, window)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("tail", [1, 10])
@pytest.mark.parametrize("window", [1, 6, 8, 50])
def test_rig_dwell_means_match_the_frame_by_frame_stream(window, tail):
    cfg = load_config(overrides=[f"stream.ma_window={window}"])
    idle = ContactStimulus(location_mm=(4.5, 8.0))
    schedule = [
        (ContactStimulus(location_mm=(4.5, 8.0), force_n=(fx, -0.1, fz)), pose)
        for fx, fz, pose in [
            (0.0, 0.5, None), (0.2, 1.0, rot_x(0.8)), (0.0, 1.0, None), (-0.3, 2.0, None),
            (0.0, 0.0, rot_y(-0.6)), (0.1, 1.5, None), (0.0, 0.25, None), (0.0, 0.0, None),
        ]
    ]
    dwell = 10

    (sensor,) = _sensors(cfg)
    front = FrontEnd([sensor], _stream_config(cfg), idle)
    got = []
    for stimulus, pose in schedule:
        mean = front.hold([(stimulus, dwell, pose)])[-tail:, 0].mean(axis=0)
        got.append((mean[:16].reshape(4, 4), mean[16:]))

    # oracle: every frame through the streaming front end
    (sensor,) = _sensors(cfg)
    proc = StreamProcessor(front.config)
    clock = iter(range(1, 10**6))
    for _ in range(front.config.init_samples):
        assert proc.process(sensor.sample(idle, next(clock))) is None
    for (stimulus, pose), (fa1, sa2) in zip(schedule, got):
        rel = [proc.process(sensor.sample(stimulus, next(clock), pose)) for _ in range(dwell)]
        want_fa1 = np.mean([r.fa1 for r in rel[-tail:]], axis=0)
        want_sa2 = np.mean([r.sa2 for r in rel[-tail:]], axis=0)
        np.testing.assert_array_equal(fa1.view(np.uint64), want_fa1.view(np.uint64))
        np.testing.assert_array_equal(sa2.view(np.uint64), want_sa2.view(np.uint64))


@pytest.mark.parametrize("hold", [1, 10])
@pytest.mark.parametrize("window", [1, 6, 8, 50])
def test_front_end_of_two_sensors_matches_one_front_end_each(window, hold, two_fingers):
    config = StreamConfig(init_samples=20, baseline_tail=5, ma_window=window)
    idle = ContactStimulus(location_mm=(4.5, 8.0))
    schedule = [
        (ContactStimulus(location_mm=(4.5, 8.0), force_n=(fx, -0.1, fz)), pose)
        for fx, fz, pose in [
            (0.0, 0.5, None), (0.2, 1.0, rot_x(0.8)), (-0.3, 2.0, None), (0.0, 0.0, rot_y(-0.6)),
        ] * 4
    ]
    # fingers whose flux differs through the earth field, fingers that share
    # every spec (and so one response), and fingers that differ in one spec
    for fingers in ("earth", "same", "magnet", "elastomer"):
        pair = two_fingers(fingers, 7)
        both = FrontEnd(pair, config, idle)
        singles = two_fingers(fingers, 7)
        each = [FrontEnd([sensor], config, idle) for sensor in singles]
        np.testing.assert_array_equal(both.baseline, np.concatenate([f.baseline for f in each]))
        for stimulus, pose in schedule:
            got = both.hold([(stimulus, hold, pose)])
            assert got.shape == (hold, 2, 19)
            want = np.concatenate([f.hold([(stimulus, hold, pose)]) for f in each], axis=1)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=fingers)
        for x, y in zip(pair, singles):
            assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state, fingers


def schedule_entries():
    """Entries with repeats, orientations, an empty dwell and -0.0/+0.0 force pairs."""
    def press(fx, fz):
        return ContactStimulus(location_mm=(4.5, 8.0), force_n=(fx, -0.1, fz))

    return [
        (press(0.0, 0.5), 7, None), (press(0.2, 1.0), 3, rot_x(0.8)), (press(-0.0, 0.5), 5, None),
        (press(0.0, 0.5), 1, None), (press(0.2, 1.0), 9, rot_x(0.8)), (press(0.0, 0.0), 4, rot_y(-0.6)),
        (press(0.0, -0.0), 2, rot_y(-0.6)), (press(0.0, 0.5), 0, None), (press(0.2, 1.0), 6, None),
        (press(0.0, 1.5), 12, rot_y(-0.6).tolist()),
    ]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("window", [1, 6, 8])
def test_a_schedule_holds_as_its_entries_held_in_turn(k, window, two_fingers):
    config = StreamConfig(init_samples=20, baseline_tail=5, ma_window=window)
    idle = ContactStimulus(location_mm=(4.5, 8.0))

    def front_end(fingers):
        sensors = two_fingers(fingers, 3) if fingers else [
            TactileSensor(env=Environment(seed=(3, f), earth_field_ut=(25.0, -10.0 * f, 40.0)), finger_id=f)
            for f in range(k)
        ]
        return FrontEnd(sensors, config, idle)

    # two fingers also as fingers that share every spec, or differ in one
    for fingers in [None] + (["same", "magnet", "elastomer"] if k == 2 else []):
        whole, chained = front_end(fingers), front_end(fingers)
        entries = schedule_entries()
        for _ in range(2):  # the second schedule runs on over the first one's history
            got = whole.hold(entries)
            want = np.concatenate([chained.hold([entry]) for entry in entries])
            assert got.shape == (sum(n for _, n, _ in entries), k, 19)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=fingers)
            np.testing.assert_array_equal(whole._history.view(np.uint64), chained._history.view(np.uint64))
            for x, y in zip(whole.sensors, chained.sensors):
                assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state, fingers


@pytest.mark.parametrize("fingers, responses", [("same", 1), ("earth", 2), ("magnet", 2), ("elastomer", 2)])
def test_sensors_of_equal_physics_share_one_response(fingers, responses, two_fingers, monkeypatch):
    calls, response = [], TactileSensor.response

    def counted(self, schedule):
        calls.append(self.finger_id)
        return response(self, schedule)

    monkeypatch.setattr(TactileSensor, "response", counted)
    front = FrontEnd(two_fingers(fingers, 7), StreamConfig(init_samples=20, baseline_tail=5), ContactStimulus())
    front.hold([(ContactStimulus(force_n=(0.0, 0.0, 1.0)), 6, None)])
    assert calls == [0, 1][:responses] * 2  # the window, then the hold


def test_a_front_end_needs_a_sensor():
    with pytest.raises(ValueError, match="at least one sensor"):
        FrontEnd([], StreamConfig(), ContactStimulus())


@pytest.mark.parametrize("bad", [-2, 2.0, np.float64(3.0), True, "3", None], ids=repr)
def test_a_frame_count_other_than_an_integer_from_zero_is_refused_before_any_draw(bad):
    press = ContactStimulus(force_n=(0.0, 0.0, 1.0))
    schedule = [(press, 5, None), (press, bad, None)]
    sensor = TactileSensor(env=Environment(seed=5))
    front = FrontEnd([sensor, TactileSensor(env=Environment(seed=6))], StreamConfig(), ContactStimulus())
    states = [s.env.rng.bit_generator.state for s in front.sensors]
    for call in (sensor.sample_block, front.hold):
        with pytest.raises(ValueError, match="frame count"):
            call(schedule)
    assert [s.env.rng.bit_generator.state for s in front.sensors] == states
    counts, _ = sensor.sample_block([(press, 5, None), (press, np.int64(2), None)])
    assert len(counts) == 7


def test_an_empty_schedule_draws_nothing():
    sensor = TactileSensor(env=Environment(seed=5))
    state = sensor.env.rng.bit_generator.state
    counts, flux = sensor.sample_block([])
    assert counts.shape == (0, 16) and flux.shape == (0, 3)
    assert sensor.env.rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# stream processor contract
# ---------------------------------------------------------------------------

def test_init_frames_are_not_actionable():
    frames = idle_stream(305)
    proc = StreamProcessor()
    out = [proc.process(f) for f in frames]
    assert all(o is None for o in out[:300])
    assert all(o is not None for o in out[300:])


def test_timestamps_must_strictly_increase():
    proc = StreamProcessor()
    proc.process(make_frame(100))
    with pytest.raises(ValueError):
        proc.process(make_frame(100))


def test_fingers_are_independent_streams():
    proc = StreamProcessor()
    # identical timestamps on different fingers are fine
    proc.process(make_frame(100, finger=0))
    proc.process(make_frame(100, finger=1))


def test_pipeline_is_causal():
    frames = idle_stream(420, seed=5)
    full = StreamProcessor()
    out_full = [full.process(f) for f in frames]
    prefix = StreamProcessor()
    out_prefix = [prefix.process(f) for f in frames[:350]]
    for a, b in zip(out_prefix, out_full[:350]):
        if a is None:
            assert b is None
            continue
        np.testing.assert_array_equal(a.fa1, b.fa1)
        np.testing.assert_array_equal(a.sa2, b.sa2)


def test_pipeline_is_shift_invariant():
    frames = idle_stream(400, seed=9)
    shifted = [
        TactileFrame(
            timestamp_us=f.timestamp_us + 5_000_000,
            finger_id=f.finger_id,
            fa1=f.fa1,
            sa2=f.sa2,
        )
        for f in frames
    ]
    out_a = [StreamProcessor().process(f) for f in frames]
    out_b = [StreamProcessor().process(f) for f in shifted]
    # same sample order in, bit-identical values out
    for a, b in zip(out_a, out_b):
        if a is None:
            assert b is None
            continue
        np.testing.assert_array_equal(a.fa1, b.fa1)
        np.testing.assert_array_equal(a.sa2, b.sa2)


def test_frame_validation_rejects_out_of_range_counts():
    with pytest.raises(ValueError):
        make_frame(1, value=1024)
    with pytest.raises(ValueError):
        make_frame(1, value=-1)
    # counts are integers: 3.7 would be truncated by the record, NaN passes a range test
    for counts in (3.7, np.nan):
        with pytest.raises(ValueError):
            TactileFrame(1, 0, np.full((4, 4), counts), np.zeros(3, dtype=np.float32))


@pytest.mark.parametrize("flux", [np.nan, np.inf, -np.inf])
def test_frame_validation_rejects_non_finite_flux(flux):
    with pytest.raises(ValueError):
        TactileFrame(1, 0, np.zeros((4, 4), int), [flux, 0.0, 0.0])


def test_decoded_and_streamed_frames_skip_the_second_range_check(monkeypatch, tmp_path, rng):
    # the codecs range-check every record themselves and the stream study
    # clips its counts, so neither pays TactileFrame's own check again
    frames = [random_frame(rng, i + 1) for i in range(20)]
    write_frames_csv(frames, tmp_path / "log.csv")
    checked = []
    original = TactileFrame.__post_init__
    monkeypatch.setattr(TactileFrame, "__post_init__", lambda f: (checked.append(f), original(f)))
    decoded = (list(decode_frames(encode_frames(frames)))
               + list(read_frames_csv(tmp_path / "log.csv"))
               + [decode_frames(encode_frames([f]))[0] for f in frames])
    streamed = list(run_stream(load_config(overrides=["stream.duration_s=0.1"])).frames)
    assert checked == []
    for frame in decoded + streamed:
        assert frame.fa1.shape == (4, 4) and frame.fa1.dtype.kind == "u"
        assert frame.sa2.shape == (3,) and frame.sa2.dtype == np.float32
    for a, b in zip(frames * 3, decoded):
        assert (a.timestamp_us, a.finger_id) == (b.timestamp_us, b.finger_id)
        assert np.array_equal(a.fa1, b.fa1) and np.array_equal(a.sa2, b.sa2)
    with pytest.raises(ValueError):
        TactileFrame(1, 0, np.full((4, 4), 1024), np.zeros(3, dtype=np.float32))
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# codec and CSV log
# ---------------------------------------------------------------------------

def signed_zero_frames(start_us):
    return [make_frame(start_us + i, sa2=sa2)
            for i, sa2 in enumerate([(-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)])]


def test_record_layout_is_53_bytes():
    assert RECORD_SIZE == FRAME_DTYPE.itemsize == 8 + 1 + 16 * 2 + 3 * 4
    assert len(encode_frames([make_frame(1)])) == RECORD_SIZE


def test_codec_round_trip(rng):
    frames = [random_frame(rng, i + 1) for i in range(500)] + signed_zero_frames(501)
    for frame in frames:
        assert_same_frames(decode_frames(encode_frames([frame])), [frame])
    assert_same_frames(decode_frames(encode_frames(frames)), frames)


def test_truncated_record_rejected():
    buf = encode_frames([make_frame(1)])
    with pytest.raises(MalformedRecord):
        decode_frames(buf[:-1])
    with pytest.raises(MalformedRecord):
        decode_frames(buf + b"\x00" * 5)


def test_record_with_nan_flux_rejected():
    record = np.zeros(1, FRAME_DTYPE)
    record["sa2"][0, 0] = np.nan
    with pytest.raises(MalformedRecord):
        decode_frames(record.tobytes())
    with pytest.raises(MalformedRecord):
        encode_frames(record)
    frame = make_frame(1)
    frame.sa2[0] = np.nan  # past the constructor's own check
    with pytest.raises(MalformedRecord):
        encode_frames([frame])


@pytest.mark.parametrize(
    "name, column, value, text",
    [
        ("fa1", 2, 3.5, "3.5"),
        ("fa1", 2, 1024, "1024"),
        ("fa1", 2, -1, "-1"),
        ("finger_id", 1, 256, "256"),
        ("finger_id", 1, -1, "-1"),
        ("timestamp_us", 0, 2**63, str(2**63)),
        ("sa2", 18, np.nan, "nan"),
        ("sa2", 18, np.inf, "inf"),
    ],
    ids=["non-integer-count", "count-above-1023", "negative-count", "finger-above-255",
         "negative-finger", "timestamp-past-int64", "nan-flux", "inf-flux"],
)
def test_writers_refuse_what_readers_refuse(tmp_path, name, column, value, text):
    path = tmp_path / "log.csv"
    write_frames_csv([make_frame(1, value=3)], path)
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    path.write_text(header + "\n" + ",".join(fields[:column] + [text] + fields[column + 1:]) + "\n")
    with pytest.raises(MalformedRecord):
        read_frames_csv(path)

    # the same value, set on a frame after its own checks ran
    frame = make_frame(1, value=3)
    if name == "fa1":
        value = np.full((4, 4), value)
    elif name == "sa2":
        value = np.array([value, 0.0, 0.0])
    setattr(frame, name, value)
    with pytest.raises(MalformedRecord):
        encode_frames([frame])
    with pytest.raises(MalformedRecord):
        write_frames_csv([frame], tmp_path / "refused.csv")
    assert not (tmp_path / "refused.csv").exists()


@pytest.mark.parametrize("name, value", [("fa1", 1024), ("sa2", np.inf)])
def test_binary_writer_refuses_what_the_reader_refuses(name, value):
    record = np.zeros(1, FRAME_DTYPE)
    record[name].flat[0] = value
    with pytest.raises(MalformedRecord):
        decode_frames(record.tobytes())
    with pytest.raises(MalformedRecord):
        encode_frames(record)


def test_batch_codec_round_trip(rng):
    frames = [random_frame(rng, i + 1) for i in range(64)]
    back = decode_frames(encode_frames(frames))
    assert len(back) == 64
    for a, b in zip(frames, back):
        assert np.array_equal(a.sa2, b.sa2)


def test_csv_round_trip(tmp_path, rng):
    frames = [random_frame(rng, i + 1) for i in range(40)] + signed_zero_frames(41)
    path = tmp_path / "log.csv"
    write_frames_csv(frames, path, header_comment="probe")
    text = path.read_text()
    assert text.splitlines()[0] == "# probe"
    assert text.splitlines()[1] == ",".join(CSV_HEADER)
    assert_same_frames(read_frames_csv(path), frames)


def test_stream_files_read_back_as_the_frames_written(tmp_path):
    # an idle stream's flux includes -0.0, which a value comparison would miss
    cfg = load_config(overrides=["stream.binary=true", "stream.duration_s=2"])
    written = run_stream(cfg, tmp_path).frames
    assert (written.sa2.view(np.uint32) == np.float32(-0.0).view(np.uint32)).any()
    assert_same_frames(decode_frames((tmp_path / "stream.bin").read_bytes()), written)
    assert_same_frames(read_frames_csv(tmp_path / "stream.csv"), written)


@pytest.mark.parametrize(
    "edit",
    [
        lambda fields: fields[:-1],
        lambda fields: fields[:2] + ["3.5"] + fields[3:],
        lambda fields: fields[:2] + ["1024"] + fields[3:],
        lambda fields: fields[:18] + ["nan"] + fields[19:],
        lambda fields: fields[:18] + ["inf"] + fields[19:],
    ],
    ids=["short-row", "non-integer-count", "count-above-1023", "nan-flux", "inf-flux"],
)
def test_malformed_csv_row_rejected(tmp_path, edit):
    path = tmp_path / "log.csv"
    write_frames_csv([make_frame(1, value=3)], path)
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + ",".join(edit(row.split(","))) + "\n")
    with pytest.raises(MalformedRecord):
        read_frames_csv(path)


def one_row_log(path, edit=lambda fields: fields):
    """A CSV log of one frame, its row's fields passed through ``edit``."""
    write_frames_csv([make_frame(1, value=3)], path)
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + ",".join(edit(row.split(","))) + "\n")
    return path


@pytest.mark.parametrize("body", ["{row}\n\n{row}\n", "{row}\n\n", "\n"],
                         ids=["between-rows", "at-the-end", "only-row"])
def test_blank_csv_row_rejected(tmp_path, body):
    path = one_row_log(tmp_path / "log.csv")
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + body.format(row=row))
    with pytest.raises(MalformedRecord):
        read_frames_csv(path)


@pytest.mark.parametrize("where", ["prefix", "first-row", "last-row"])
def test_csv_log_that_is_not_utf8_names_the_offset(tmp_path, where):
    # the last row lies past the text reader's first 8 KiB chunk
    path = tmp_path / "log.csv"
    write_frames_csv([make_frame(t + 1, value=3) for t in range(200)], path)
    data = path.read_bytes()
    offset = {"prefix": 0, "first-row": data.index(b"\n") + 3, "last-row": len(data) - 5}[where]
    assert where != "last-row" or offset > 8192
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    with pytest.raises(MalformedRecord, match=f"not UTF-8 at byte {offset}:"):
        read_frames_csv(path)


def test_header_only_csv_reads_as_zero_records_without_a_warning(tmp_path):
    path = tmp_path / "log.csv"
    write_frames_csv([], path, header_comment="empty")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = read_frames_csv(path)
    assert caught == []
    assert len(records) == 0 and records.dtype == FRAME_DTYPE


@pytest.mark.parametrize("text", ["3.0", "1e3", "1_000"])
@pytest.mark.parametrize("action", ["error", "ignore"])
def test_count_written_as_other_than_an_integer_rejected(tmp_path, text, action):
    # each would read as a count in range; numpy 1.x's loadtxt parses a float
    # into an integer column with only a DeprecationWarning, so no warning
    # filter of the caller's may let it through
    path = one_row_log(tmp_path / "log.csv", lambda fields: fields[:2] + [text] + fields[3:])
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(MalformedRecord):
            read_frames_csv(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda fields: fields[:9] + [fields[9] + "#"] + fields[10:],
        lambda fields: fields[:9] + ["# note"] + fields[10:],
        lambda fields: fields[:-1] + [fields[-1] + " # note"],
        lambda fields: fields[:9] + [f'"{fields[9]}"'] + fields[10:],
    ],
    ids=["hash-after-a-count", "hash-field", "hash-after-the-last-field", "quoted-count"],
)
def test_comment_or_quote_inside_a_csv_row_rejected(tmp_path, edit):
    path = one_row_log(tmp_path / "log.csv", edit)
    with pytest.raises(MalformedRecord):
        read_frames_csv(path)


def test_only_lines_starting_with_hash_are_comments(tmp_path, rng):
    frames = [random_frame(rng, i + 1) for i in range(3)]
    path = tmp_path / "log.csv"
    write_frames_csv(frames, path, header_comment="top")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["# between rows"] + lines[3:] + ["#"]) + "\n")
    assert_same_frames(read_frames_csv(path), frames)


def read_frames_csv_oracle(path):
    """The CSV log parsed in one ``np.loadtxt`` pass over all its lines: the reader's reference verdict."""
    try:
        with path.open(encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
    except UnicodeDecodeError:
        raise MalformedRecord("not UTF-8") from None
    if not lines or next(csv.reader(lines[:1])) != CSV_HEADER:
        raise MalformedRecord("unexpected CSV header")
    body = lines[1:]
    rows = np.zeros(0, _CSV_ROW)
    if body:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(body, _CSV_ROW, comments=None, delimiter=",", ndmin=1)
        except (ValueError, Warning) as exc:
            raise MalformedRecord(f"bad CSV row: {exc}") from None
        if len(rows) != len(body):
            raise MalformedRecord("blank CSV rows")
    ints = rows["ints"]
    with np.errstate(over="ignore"):
        flux = rows["flux"].astype(np.float32)
    return _records(ints[:, 0], ints[:, 1], ints[:, 2:], flux)


def verdict(read, path):
    """What ``read`` makes of the log at ``path``: its records' type, dtype and bytes, or MalformedRecord."""
    try:
        records = read(path)
    except MalformedRecord:
        return MalformedRecord
    return type(records), records.dtype, records.tobytes()


LONG_ROWS = 2_000  # about 210 KB of random rows: four read chunks


def long_log(path, comment="long"):
    """A CSV log of ``LONG_ROWS`` random records, longer than three read chunks; its records."""
    rng = np.random.default_rng(25)
    records = np.zeros(LONG_ROWS, FRAME_DTYPE)
    records["timestamp_us"] = np.arange(1, LONG_ROWS + 1)
    records["finger_id"] = rng.integers(0, 2, LONG_ROWS)
    records["fa1"] = rng.integers(0, ADC_MAX + 1, (LONG_ROWS, 4, 4))
    records["sa2"] = rng.normal(scale=800.0, size=(LONG_ROWS, 3))
    write_frames_csv(records, path, comment)
    assert path.stat().st_size > 3 * CSV_READ_CHUNK
    return records


def with_field(line, column, text):
    fields = line.rstrip("\n").split(",")
    return ",".join(fields[:column] + [text] + fields[column + 1:]) + "\n"


LATER = 1_500  # a line of the long log past its first two read chunks
COMMENTS = ["# " + "c" * 97 + "\n"] * 700  # 70,000 characters: more than a read chunk


def set_lines(lines, at, new, drop=0):
    lines[at : at + drop] = new


@pytest.mark.parametrize(
    "edit, accepted",
    [
        (lambda lines: set_lines(lines, LATER, ["# note\n"]), True),
        (lambda lines: set_lines(lines, LATER, ["#\n"] * 3), True),
        (lambda lines: set_lines(lines, len(lines), ["# last\n"]), True),
        (lambda lines: set_lines(lines, 1, COMMENTS), True),
        (lambda lines: set_lines(lines, 0, COMMENTS + ["# a chunk of them, then the header\n"]), True),
        (lambda lines: set_lines(lines, len(lines) - 1, [lines[-1].rstrip("\n")], drop=1), True),
        (lambda lines: set_lines(lines, LATER, ["\n"]), False),
        (lambda lines: set_lines(lines, len(lines), ["\n"]), False),
        (lambda lines: set_lines(lines, LATER, ["\n"] * 900), False),
        (lambda lines: set_lines(lines, 1, COMMENTS + ["timestamp_us\n"], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [with_field(lines[LATER], 4, "3.5")], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [with_field(lines[LATER], 4, "1024")], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [with_field(lines[LATER], 19, "nan")], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [with_field(lines[LATER], 9, "# note")], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [lines[LATER].rsplit(",", 1)[0] + "\n"], drop=1), False),
        (lambda lines: set_lines(lines, LATER, [" " + lines[LATER]], drop=1), True),  # loadtxt strips it
        (lambda lines: set_lines(lines, 2, [], drop=len(lines)), True),
        (lambda lines: set_lines(lines, 1, COMMENTS, drop=len(lines)), False),
        (lambda lines: set_lines(lines, 0, [], drop=len(lines)), False),
    ],
    ids=["hash-line-in-a-later-chunk", "hash-lines-in-a-later-chunk", "hash-line-at-the-end",
         "a-chunk-of-comments-before-the-header", "only-comments-in-the-first-chunk",
         "no-newline-at-the-end", "blank-row-in-a-later-chunk", "blank-row-at-the-end",
         "a-chunk-of-blank-rows", "wrong-header-after-a-chunk-of-comments", "non-integer-count-later",
         "count-above-1023-later", "nan-flux-later", "hash-field-later", "short-row-later",
         "leading-space-later", "header-only", "all-comments", "empty"],
)
def test_csv_log_read_in_chunks_gives_the_whole_file_verdict(tmp_path, edit, accepted):
    path = tmp_path / "log.csv"
    records = long_log(path)
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))
    got = verdict(read_frames_csv, path)
    assert got == verdict(read_frames_csv_oracle, path)
    assert (got != MalformedRecord) == accepted
    if accepted and len(lines) > 2:
        assert got[2] == records.tobytes()


@pytest.mark.parametrize("rows", [0, 1, LONG_ROWS], ids=["no-rows", "one-chunk", "many-chunks"])
def test_csv_log_reads_as_records_of_the_frame_dtype(tmp_path, rows):
    path = tmp_path / "log.csv"
    records = long_log(path)[:rows]
    write_frames_csv(records, path)
    back = read_frames_csv(path)
    assert isinstance(back, np.recarray) and back.dtype == FRAME_DTYPE
    assert back.tobytes() == records.tobytes()
    assert verdict(read_frames_csv, path) == verdict(read_frames_csv_oracle, path)


@pytest.mark.parametrize("text, message", [("3.5", "bad CSV row at line {}: "), ("", "blank CSV row at line {}$")],
                         ids=["non-integer-count", "blank-row"])
def test_a_bad_csv_row_is_named_by_its_line_in_the_file(tmp_path, text, message):
    # one comment line at the top and one in the middle; the bad row lies past the first read chunk
    path = tmp_path / "log.csv"
    long_log(path, comment="top")
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(LONG_ROWS // 2, "# middle\n")
    lines[LATER] = with_field(lines[LATER], 4, text) if text else "\n"
    path.write_text("".join(lines))
    assert len("".join(lines[:LATER])) > CSV_READ_CHUNK
    with pytest.raises(MalformedRecord, match=message.format(LATER + 1)):
        read_frames_csv(path)
    assert verdict(read_frames_csv_oracle, path) == MalformedRecord


def test_csv_log_not_utf8_past_the_first_chunk_names_its_file_offset(tmp_path):
    path = tmp_path / "log.csv"
    long_log(path)
    data = path.read_bytes()
    offset = data.index(b"\r\n", 3 * CSV_READ_CHUNK) + 5
    path.write_bytes(data[:offset] + b"\xe9" + data[offset:])
    with pytest.raises(MalformedRecord, match=f"not UTF-8 at byte {offset}:"):
        read_frames_csv(path)
    assert verdict(read_frames_csv_oracle, path) == MalformedRecord


def test_reading_a_stream_log_holds_under_three_times_its_records(tmp_path):
    # the whole-file parse held every line as a str beside loadtxt's 168 bytes a row: 6.9x
    run_stream(load_config(overrides=["stream.duration_s=40"]), tmp_path)
    tracemalloc.start()
    try:
        records = read_frames_csv(tmp_path / "stream.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000
    assert peak < 3 * records.nbytes


FLUX = st.floats(width=32, allow_nan=False, allow_infinity=False)
RECORD = st.tuples(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(0, 255),
    st.lists(st.integers(0, ADC_MAX), min_size=16, max_size=16),
    st.lists(FLUX, min_size=3, max_size=3),
)
F32 = np.finfo(np.float32)
EXTREMES = [
    (2**63 - 1, 255, [ADC_MAX] * 16, [float(F32.max), -0.0, float(F32.smallest_subnormal)]),
    (-(2**63 - 1), 0, [0] * 16, [-float(F32.max), 0.0, -float(F32.smallest_subnormal)]),
    (0, 1, [0, ADC_MAX] * 8, [float(F32.tiny), -float(F32.tiny), float(F32.tiny - F32.smallest_subnormal)]),
]


def records_of(rows):
    return np.array([(timestamp, finger, np.reshape(counts, FA1_SHAPE), flux)
                     for timestamp, finger, counts, flux in rows], FRAME_DTYPE)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(RECORD, max_size=20))
@example(rows=EXTREMES)
@example(rows=[])
def test_csv_round_trip_is_bit_exact(tmp_path_factory, rows):
    records = records_of(rows)
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_frames_csv(records, path)
    back = read_frames_csv(path)
    assert back.dtype == FRAME_DTYPE and back.tobytes() == records.tobytes()


def write_frames_csv_oracle(records, path, header_comment=None):
    """The CSV log as ``csv.writer`` writes it, one Python row per record: the byte-level reference."""
    n = len(records)
    patterns, which = np.unique(records["sa2"].view(np.uint32).ravel(), return_inverse=True)
    texts = np.array([np.format_float_positional(v, unique=True, trim="0")
                      for v in patterns.view(np.float32)], dtype=object)
    flux = texts[which.reshape(n, 3)].tolist()
    rows = np.column_stack([records["timestamp_us"], records["finger_id"], records["fa1"].reshape(n, 16)])
    with path.open("w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(row + flux_row for row, flux_row in zip(rows.tolist(), flux))


def assert_written_as_the_oracle(records, directory, header_comment=None):
    write_frames_csv(records, directory / "log.csv", header_comment)
    write_frames_csv_oracle(records, directory / "oracle.csv", header_comment)
    assert (directory / "log.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


SIGNED_ZEROS = [(1, 0, [0] * 16, [0.0, -0.0, 0.0]), (2, 1, [1] * 16, [-0.0, 0.0, -0.0])]


# the round trips compare parsed values, so only this sees the bytes and the line endings
@pytest.mark.parametrize("comment", [None, "", "tacsim stream seed=0"], ids=["none", "empty", "text"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(RECORD, max_size=20))
@example(rows=EXTREMES)
@example(rows=[])
@example(rows=[(-(2**63), 0, [0] * 16, [1.5, -2.25, 0.0])])
@example(rows=SIGNED_ZEROS)
def test_csv_bytes_equal_the_csv_writer_oracle(tmp_path_factory, comment, rows):
    assert_written_as_the_oracle(records_of(rows), tmp_path_factory.mktemp("log"), comment)


def test_stream_log_bytes_equal_the_csv_writer_oracle(tmp_path):
    cfg = load_config(overrides=["stream.duration_s=20"])
    frames = run_stream(cfg, tmp_path).frames
    assert len(frames) == 10_000
    assert_written_as_the_oracle(frames, tmp_path, _header(cfg, "stream"))
    assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()


@pytest.mark.parametrize("comment", ["two\nlines", "two\rlines"], ids=["newline", "carriage-return"])
def test_a_comment_of_more_than_one_line_is_refused(tmp_path, comment):
    # written anyway, the second line of the comment is read as the header
    write_frames_csv_oracle(records_of([]), tmp_path / "oracle.csv", comment)
    with pytest.raises(MalformedRecord, match="header"):
        read_frames_csv(tmp_path / "oracle.csv")
    with pytest.raises(MalformedRecord):
        write_frames_csv([make_frame(1)], tmp_path / "log.csv", header_comment=comment)
    assert list(tmp_path.iterdir()) == [tmp_path / "oracle.csv"]


@pytest.mark.parametrize("comment", ["\ud800", "lone \udfff surrogate"], ids=["high", "low"])
def test_a_comment_utf8_cannot_encode_is_refused_before_the_file_is_opened(tmp_path, comment):
    with pytest.raises(MalformedRecord, match="UTF-8"):
        write_frames_csv([make_frame(1)], tmp_path / "log.csv", header_comment=comment)
    assert list(tmp_path.iterdir()) == []


def test_a_non_ascii_comment_is_written_and_read_as_utf8(tmp_path):
    path = tmp_path / "log.csv"
    write_frames_csv([make_frame(1)], path, header_comment="flux in \u00b5T")
    assert path.read_bytes().startswith("# flux in \u00b5T\n".encode("utf-8"))
    assert_same_frames(read_frames_csv(path), [make_frame(1)])


def test_one_second_of_stream_is_500_records_of_19_channels():
    config = StreamConfig()
    frames = []
    for i in range(config.sample_rate_hz):
        t = 4000 * (i + 1)
        for finger in range(2):
            frames.append(make_frame(t, finger=finger))
    assert len(frames) == 500
    buf = encode_frames(frames)
    assert len(buf) == 500 * RECORD_SIZE
    back = decode_frames(buf)
    per_frame_channels = back[0].fa1.size + back[0].sa2.size
    assert per_frame_channels == 19
    stamps = {f.timestamp_us for f in back}
    assert len(stamps) == 250  # 2 fingers share each instant: 38 channels per tick
