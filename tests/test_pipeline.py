import numpy as np
import pytest

from tacsim.config import load_config
from tacsim.errors import InsufficientSamples, MalformedRecord
from tacsim.experiments import _sensors, _stream_config, run_stream
from tacsim.pipeline import (
    CSV_HEADER,
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
        mean = front.hold(stimulus, dwell, pose)[-tail:, 0].mean(axis=0)
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
def test_front_end_of_two_sensors_matches_one_front_end_each(window, hold):
    config = StreamConfig(init_samples=20, baseline_tail=5, ma_window=window)
    idle = ContactStimulus(location_mm=(4.5, 8.0))
    schedule = [
        (ContactStimulus(location_mm=(4.5, 8.0), force_n=(fx, -0.1, fz)), pose)
        for fx, fz, pose in [
            (0.0, 0.5, None), (0.2, 1.0, rot_x(0.8)), (-0.3, 2.0, None), (0.0, 0.0, rot_y(-0.6)),
        ] * 4
    ]

    def sensors():
        # the sensors see different earth fields, so their flux differs
        return [
            TactileSensor(env=Environment(seed=(7, f), earth_field_ut=earth), finger_id=f)
            for f, earth in enumerate([(0.0, 0.0, 0.0), (25.0, -10.0, 40.0)])
        ]

    pair = sensors()
    both = FrontEnd(pair, config, idle)
    singles = sensors()
    each = [FrontEnd([sensor], config, idle) for sensor in singles]
    np.testing.assert_array_equal(both.baseline, np.concatenate([f.baseline for f in each]))
    for stimulus, pose in schedule:
        got = both.hold(stimulus, hold, pose)
        assert got.shape == (hold, 2, 19)
        want = np.concatenate([f.hold(stimulus, hold, pose) for f in each], axis=1)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for x, y in zip(pair, singles):
        assert x.env.rng.bit_generator.state == y.env.rng.bit_generator.state


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
