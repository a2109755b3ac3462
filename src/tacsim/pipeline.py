"""Frame types, baseline removal, smoothing, and the frame codec.

The processing order is fixed: subtract the stored baseline first, then
smooth with the causal moving average.  Baselines come from the tail of the
initialization window (the sensor must be idle while it runs).

Every study that filters frames runs this chain through ``FrontEnd``, which
takes one held stimulus at a time as an array block.  ``StreamProcessor``
runs it one frame at a time; it is the oracle that ``FrontEnd`` matches bit
for bit.
"""

import csv
import math
import struct
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientSamples, MalformedRecord

ADC_MAX = 1023
FA1_SHAPE = (4, 4)
CHANNELS_PER_FINGER = 19  # 16 taxels + 3 flux axes

# little-endian: int64 timestamp, uint8 finger, 16x uint16 counts, 3x float32 uT
RECORD_FORMAT = "<qB16H3f"
RECORD_SIZE = struct.calcsize(RECORD_FORMAT)

CSV_HEADER = (
    ["timestamp_us", "finger_id"]
    + [f"fa1_{r}{c}" for r in range(4) for c in range(4)]
    + ["sa2_x", "sa2_y", "sa2_z"]
)


@dataclass
class StreamConfig:
    sample_rate_hz: int = 250
    init_samples: int = 300
    baseline_tail: int = 100
    ma_window: int = 6

    def __post_init__(self):
        if self.baseline_tail < 1:
            raise ValueError("baseline tail must be >= 1")
        if self.baseline_tail > self.init_samples:
            raise ValueError("baseline tail cannot exceed the initialization length")
        if self.ma_window < 1:
            raise ValueError("filter window must be >= 1")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")


@dataclass
class TactileFrame:
    """One raw sample: 4x4 integer counts plus the three flux axes (uT)."""

    timestamp_us: int
    finger_id: int
    fa1: np.ndarray
    sa2: np.ndarray

    def __post_init__(self):
        self.fa1 = np.asarray(self.fa1)
        if self.fa1.shape != FA1_SHAPE:
            raise ValueError(f"fa1 must be {FA1_SHAPE}, got {self.fa1.shape}")
        if self.fa1.min() < 0 or self.fa1.max() > ADC_MAX:
            raise ValueError("fa1 counts outside ADC range")
        self.sa2 = np.asarray(self.sa2, dtype=np.float32).reshape(3)

    @classmethod
    def _prechecked(cls, timestamp_us, finger_id, fa1, sa2):
        """A frame from values already known valid, without ``__post_init__``'s checks.

        For callers that have range-checked or clipped the counts themselves:
        ``fa1`` must be a 4x4 integer array of counts in 0..1023 and ``sa2``
        a ``(3,)`` float32 array.
        """
        frame = object.__new__(cls)
        frame.timestamp_us, frame.finger_id = timestamp_us, finger_id
        frame.fa1, frame.sa2 = fa1, sa2
        return frame


@dataclass
class RelativeFrame:
    """Baseline-subtracted (and possibly smoothed) frame; channels are real."""

    timestamp_us: int
    finger_id: int
    fa1: np.ndarray
    sa2: np.ndarray

    def __post_init__(self):
        self.fa1 = np.asarray(self.fa1, dtype=float).reshape(FA1_SHAPE)
        self.sa2 = np.asarray(self.sa2, dtype=float).reshape(3)

    @property
    def fa1_sum(self) -> float:
        return float(self.fa1.sum())


@dataclass
class Baseline:
    fa1_mean: np.ndarray
    sa2_mean: np.ndarray
    sample_count: int


def initialize(frames, config: StreamConfig = StreamConfig()) -> Baseline:
    """Baseline from an idle stream: mean over the tail of the init window.

    Exactly ``init_samples`` frames are consumed; the mean is taken over the
    last ``baseline_tail`` of them.  Raises InsufficientSamples otherwise.
    """
    frames = list(frames)
    return baseline_from_arrays(
        np.array([f.fa1.ravel() for f in frames]), np.array([f.sa2 for f in frames]), config
    )


def baseline_from_arrays(counts, flux, config: StreamConfig) -> Baseline:
    """``initialize`` for frames held as ``(N, 16)`` counts and ``(N, 3)`` flux arrays."""
    if len(counts) < config.init_samples:
        raise InsufficientSamples(
            f"need {config.init_samples} frames, got {len(counts)}"
        )
    window = slice(config.init_samples - config.baseline_tail, config.init_samples)
    return Baseline(
        fa1_mean=np.mean(counts[window], axis=0).reshape(FA1_SHAPE),
        sa2_mean=np.mean(np.asarray(flux[window], dtype=float), axis=0),
        sample_count=config.baseline_tail,
    )


def subtract_baseline(frame: TactileFrame, baseline: Baseline) -> RelativeFrame:
    return RelativeFrame(
        timestamp_us=frame.timestamp_us,
        finger_id=frame.finger_id,
        fa1=frame.fa1.astype(float) - baseline.fa1_mean,
        sa2=np.asarray(frame.sa2, dtype=float) - baseline.sa2_mean,
    )


class MovingAverage:
    """Causal moving average with unbiased warmup.

    Until the window fills, the output is the exact mean of the samples seen
    so far; afterwards it is the mean of the last ``window`` samples.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._buf = deque(maxlen=window)

    def update(self, value):
        self._buf.append(np.asarray(value, dtype=float))
        return np.mean(np.stack(list(self._buf)), axis=0)

    def reset(self):
        self._buf.clear()


def moving_average(values, window: int) -> np.ndarray:
    """Filter a whole sequence (samples along axis 0) as ``MovingAverage`` does.

    Each output sums its window oldest sample first.  For samples of two or
    more channels, such as frames, that is the order in which
    ``MovingAverage.update``'s mean adds them, so the two agree bit for bit;
    numpy sums a single channel's window of 8 or more pairwise, so there
    they may differ in the last bit.
    """
    x = np.asarray(values, dtype=float)
    full = max(len(x) - window + 1, 0)  # outputs with a whole window behind them
    total = x[:full].copy()
    for k in range(1, window):
        total += x[k : k + full]
    total = np.concatenate([np.cumsum(x[: len(x) - full], axis=0), total])
    count = np.minimum(np.arange(1, len(x) + 1), window)
    return total / count.reshape((-1,) + (1,) * (x.ndim - 1))


class FrontEnd:
    """One sensor on the stream front end, fed one held stimulus at a time.

    The constructor samples the initialization window on the ``idle``
    stimulus as one block and takes the baseline from its tail.  Each
    ``hold`` samples a block, subtracts the baseline and runs the moving
    average on over the last ``ma_window - 1`` rows of the previous hold,
    so the rows equal, bit for bit, what a ``StreamProcessor`` gives frame
    by frame.  ``sensor`` is anything with a ``sample_block`` method.
    """

    def __init__(self, sensor, config: StreamConfig, idle, orientation=None):
        self.sensor = sensor
        self.config = config
        counts, flux = sensor.sample_block(idle, config.init_samples, orientation)
        b = baseline_from_arrays(counts, flux, config)
        self.baseline = np.concatenate([b.fa1_mean.ravel(), b.sa2_mean])
        self._history = np.empty((0, CHANNELS_PER_FINGER))

    def hold(self, stimulus, n: int, orientation=None) -> np.ndarray:
        """Hold ``stimulus`` for ``n`` frames; their ``(n, 19)`` filtered rows.

        Each row is 16 taxels (row-major) then 3 flux axes, baseline-subtracted
        and smoothed.
        """
        counts, flux = self.sensor.sample_block(stimulus, n, orientation)
        rows = np.concatenate([self._history, np.hstack([counts, flux]) - self.baseline])
        self._history = rows[max(len(rows) - self.config.ma_window + 1, 0):]
        return moving_average(rows, self.config.ma_window)[len(rows) - n:]


class StreamProcessor:
    """Per-finger streaming front end: init -> baseline -> subtract -> smooth.

    ``process`` returns None while the initialization window is still being
    collected (those frames are not actionable), then a filtered
    RelativeFrame per input frame.
    """

    def __init__(self, config: StreamConfig = StreamConfig()):
        self.config = config
        self._init_frames: dict[int, list] = {}
        self._baselines: dict[int, Baseline] = {}
        self._filters: dict[int, MovingAverage] = {}
        self._last_ts: dict[int, int] = {}

    def baseline(self, finger_id: int) -> Baseline | None:
        return self._baselines.get(finger_id)

    def process(self, frame: TactileFrame) -> RelativeFrame | None:
        fid = frame.finger_id
        last = self._last_ts.get(fid)
        if last is not None and frame.timestamp_us <= last:
            raise ValueError("timestamps must be strictly increasing per finger")
        self._last_ts[fid] = frame.timestamp_us

        if fid not in self._baselines:
            buf = self._init_frames.setdefault(fid, [])
            buf.append(frame)
            if len(buf) == self.config.init_samples:
                self._baselines[fid] = initialize(buf, self.config)
                self._filters[fid] = MovingAverage(self.config.ma_window)
                self._init_frames[fid] = []
            return None

        rel = subtract_baseline(frame, self._baselines[fid])
        flat = np.concatenate([rel.fa1.ravel(), rel.sa2])
        smooth = self._filters[fid].update(flat)
        return RelativeFrame(
            timestamp_us=frame.timestamp_us,
            finger_id=fid,
            fa1=smooth[:16].reshape(FA1_SHAPE),
            sa2=smooth[16:],
        )


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def encode_frame(frame: TactileFrame) -> bytes:
    counts = frame.fa1.astype(int).ravel()
    sa2 = np.asarray(frame.sa2, dtype=np.float32)
    return struct.pack(
        RECORD_FORMAT, int(frame.timestamp_us), int(frame.finger_id), *counts, *sa2
    )


def _record_frame(fields) -> TactileFrame:
    """Frame from a record's 21 fields; MalformedRecord unless counts and flux are in range."""
    counts, sa2 = fields[2:18], fields[18:21]
    if min(counts) < 0 or max(counts) > ADC_MAX:
        raise MalformedRecord("counts outside ADC range")
    if not all(map(math.isfinite, sa2)):
        raise MalformedRecord("flux is not finite")
    return TactileFrame._prechecked(
        fields[0], fields[1], np.array(counts).reshape(FA1_SHAPE), np.array(sa2, dtype=np.float32)
    )


def decode_frame(record: bytes) -> TactileFrame:
    if len(record) != RECORD_SIZE:
        raise MalformedRecord(f"record is {len(record)} bytes, expected {RECORD_SIZE}")
    return _record_frame(struct.unpack(RECORD_FORMAT, record))


def encode_frames(frames) -> bytes:
    return b"".join(encode_frame(f) for f in frames)


def decode_frames(buf: bytes) -> list[TactileFrame]:
    if len(buf) % RECORD_SIZE != 0:
        raise MalformedRecord(
            f"{len(buf)} bytes is not a whole number of {RECORD_SIZE}-byte records"
        )
    return [_record_frame(fields) for fields in struct.iter_unpack(RECORD_FORMAT, buf)]


def _format_float(x) -> str:
    return np.format_float_positional(np.float32(x), unique=True, trim="0")


def write_frames_csv(frames, path, header_comment: str | None = None) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for f in frames:
            row = (
                [int(f.timestamp_us), int(f.finger_id)]
                + [int(v) for v in f.fa1.ravel()]
                + [_format_float(v) for v in f.sa2]
            )
            writer.writerow(row)


def read_frames_csv(path) -> list[TactileFrame]:
    frames = []
    with Path(path).open() as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        if next(reader, None) != CSV_HEADER:
            raise MalformedRecord("unexpected CSV header")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise MalformedRecord(f"CSV row has {len(row)} fields, expected {len(CSV_HEADER)}")
            try:
                fields = [int(v) for v in row[:18]] + [np.float32(v) for v in row[18:]]
            except ValueError as exc:
                raise MalformedRecord(f"bad CSV field: {exc}") from None
            frames.append(_record_frame(fields))
    return frames
