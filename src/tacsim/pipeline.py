"""Frame types, baseline removal, smoothing, the frame codec and the output writers.

The processing order is fixed: subtract the stored baseline first, then
smooth with the causal moving average.  Baselines come from the tail of the
initialization window (the sensor must be idle while it runs).

Every study that filters frames runs this chain through ``FrontEnd``, which
takes a whole schedule of held stimuli as one array block.
``StreamProcessor`` runs it one frame at a time; it is the oracle that
``FrontEnd`` matches bit for bit.

``FRAME_DTYPE`` is the one raw frame record: ``stream`` fills an array of
them, the binary codec is their bytes, the CSV log a row per record.  Every
codec, writer or reader, runs the same ``MalformedRecord`` check.  The CSV
log and every study table go through ``write_table``, which gathers rows
from one slot array per part (a column coded as its runs, or a block its
caller coded); the ``key = value`` reports go through ``write_sections``.
"""

import csv
import io
import operator
import re
import warnings
from collections import deque
from pathlib import Path

import numpy as np

from .errors import InsufficientSamples, MalformedRecord
from .record import Record

ADC_MAX = 1023
FA1_SHAPE = (4, 4)

# the 53-byte little-endian record: timestamp, finger, 4x4 counts, 3 flux axes (uT)
FRAME_DTYPE = np.dtype(
    [("timestamp_us", "<i8"), ("finger_id", "u1"), ("fa1", "<u2", FA1_SHAPE), ("sa2", "<f4", (3,))]
)
RECORD_SIZE = FRAME_DTYPE.itemsize

CSV_HEADER = (
    ["timestamp_us", "finger_id"]
    + [f"fa1_{r}{c}" for r in range(4) for c in range(4)]
    + ["sa2_x", "sa2_y", "sa2_z"]
)
# a CSV row as parsed: timestamp, finger and 16 counts, then the flux as written
_CSV_ROW = np.dtype([("ints", "<i8", (18,)), ("flux", "<f8", (3,))])


class StreamConfig(Record):
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


class TactileFrame(Record):
    """One raw sample: 4x4 integer counts plus the three flux axes (uT)."""

    timestamp_us: int
    finger_id: int
    fa1: np.ndarray
    sa2: np.ndarray

    def __post_init__(self):
        self.fa1 = np.asarray(self.fa1)
        if self.fa1.shape != FA1_SHAPE:
            raise ValueError(f"fa1 must be {FA1_SHAPE}, got {self.fa1.shape}")
        if self.fa1.dtype.kind not in "iu":
            raise ValueError(f"fa1 counts must be integers, got {self.fa1.dtype}")
        if self.fa1.min() < 0 or self.fa1.max() > ADC_MAX:
            raise ValueError("fa1 counts outside ADC range")
        self.sa2 = np.asarray(self.sa2, dtype=np.float32).reshape(3)
        if not np.isfinite(self.sa2).all():
            raise ValueError("sa2 flux must be finite")


class RelativeFrame(Record):
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


class Baseline(Record):
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


def moving_average(values, window: int, start: int = 0) -> np.ndarray:
    """Filter a whole sequence (samples along axis 0) as ``MovingAverage`` does.

    Returns the outputs from index ``start`` on.  Each output sums its
    window oldest sample first.  For samples of two or more channels, such
    as frames, that is the order in which ``MovingAverage.update``'s mean
    adds them, so the two agree bit for bit; numpy sums a single channel's
    window of 8 or more pairwise, so there they may differ in the last bit.
    """
    x = np.asarray(values, dtype=float)
    full = max(len(x) - window + 1, 0)  # outputs with a whole window behind them
    total = x[:full].copy()
    for k in range(1, window):
        total += x[k : k + full]
    warm = len(x) - full  # the outputs before them, each over all the samples so far
    if start >= warm:
        return total[start - warm :] / window
    total = np.concatenate([np.cumsum(x[:warm], axis=0), total])
    count = np.minimum(np.arange(1, len(x) + 1), window)
    return (total / count.reshape((-1,) + (1,) * (x.ndim - 1)))[start:]


class FrontEnd:
    """``k`` sensors on the stream front end, fed one schedule of held stimuli at a time.

    The constructor samples the initialization window on the ``idle``
    stimulus as one block per sensor, in list order, and keeps a ``(k, 19)``
    baseline from their tails.  Each ``hold`` writes one block per sensor
    into an ``(N, k, 19)`` array, subtracts the baseline and runs the moving
    average along axis 0, on over the last ``ma_window - 1`` frames of the
    previous hold, so sensor *j*'s rows equal, bit for bit, what a
    ``StreamProcessor`` gives frame by frame, however the frames are split
    into holds.

    The sensors are ``TactileSensor``s.  Those of equal ``physics`` (magnet,
    elastomer and earth field, read at construction) share one noise-free
    ``response`` per schedule; each then ``digitize``s it with its own
    noise, in list order.  ValueError for an empty list of sensors.
    """

    def __init__(self, sensors, config: StreamConfig, idle, orientation=None):
        if not sensors:
            raise ValueError("a front end needs at least one sensor")
        self.sensors = sensors
        self.config = config
        groups = {}
        for j, sensor in enumerate(sensors):
            groups.setdefault(sensor.physics, []).append(j)
        self._groups = list(groups.values())
        blocks = self._sample([(idle, config.init_samples, orientation)])
        baselines = [baseline_from_arrays(counts, flux, config) for counts, flux in blocks]
        self.baseline = np.array([np.concatenate([b.fa1_mean.ravel(), b.sa2_mean]) for b in baselines])
        self._history = np.empty((0,) + self.baseline.shape)

    def _sample(self, schedule) -> list:
        """Each sensor's ``(counts, flux)`` block of ``schedule``, one response per group."""
        responses = [None] * len(self.sensors)
        for group in self._groups:  # every response before any noise is drawn
            response = self.sensors[group[0]].response(schedule)
            for j in group:
                responses[j] = response
        return [sensor.digitize(response) for sensor, response in zip(self.sensors, responses)]

    def hold(self, schedule) -> np.ndarray:
        """Hold each ``(stimulus, n, orientation)`` entry in turn; their ``(N, k, 19)`` filtered rows.

        Each row is 16 taxels (row-major) then 3 flux axes, baseline-subtracted
        and smoothed.
        """
        blocks = self._sample(schedule)
        past, frames = len(self._history), len(blocks[0][0])
        rows = np.empty((past + frames,) + self.baseline.shape)
        rows[:past] = self._history
        for j, (counts, flux) in enumerate(blocks):
            rows[past:, j, :16] = counts
            rows[past:, j, 16:] = flux
        rows[past:] -= self.baseline
        self._history = rows[max(len(rows) - self.config.ma_window + 1, 0):]
        return moving_average(rows, self.config.ma_window, start=past)


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

def _records(timestamp_us, finger_id, fa1, sa2) -> np.recarray:
    """One record per entry of the field columns; MalformedRecord unless each value fits.

    Integer fields are checked before the cast, so nothing wraps around.
    """
    records = np.recarray(np.size(timestamp_us), FRAME_DTYPE)
    for name, values, lo, hi in (("timestamp_us", timestamp_us, -(2**63), 2**63 - 1),
                                 ("finger_id", finger_id, 0, 255), ("fa1", fa1, 0, ADC_MAX)):
        values = np.asarray(values).reshape(records[name].shape)
        integers = values.dtype.kind in "iu"
        if values.size and not (integers and lo <= values.min() and values.max() <= hi):
            raise MalformedRecord(f"{name} is not an integer in {lo}..{hi}")
        records[name] = values
    records["sa2"] = np.reshape(sa2, (-1, 3))
    if not np.isfinite(records["sa2"]).all():
        raise MalformedRecord("flux is not finite")
    return records


def _as_records(frames) -> np.recarray:
    """Records (any array with ``FRAME_DTYPE``'s fields) or ``TactileFrame``s, checked."""
    if isinstance(frames, np.ndarray):
        return _records(*(frames[name] for name in FRAME_DTYPE.names))
    frames = list(frames)
    return _records(*([getattr(f, name) for f in frames] for name in FRAME_DTYPE.names))


def encode_frames(frames) -> bytes:
    """The records of ``frames`` (a ``FRAME_DTYPE`` array or ``TactileFrame``s), back to back."""
    return _as_records(frames).tobytes()


def decode_frames(buf: bytes) -> np.recarray:
    if len(buf) % RECORD_SIZE != 0:
        raise MalformedRecord(
            f"{len(buf)} bytes is not a whole number of {RECORD_SIZE}-byte records"
        )
    return _as_records(np.frombuffer(buf, FRAME_DTYPE))


CSV_CHUNK_ROWS = 512  # rows a CSV table is written in: no temporary of the whole table


def _quoted(value, alone: bool) -> str:
    """``value`` as ``csv.writer`` writes it as a field: in a row of one, or of more."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value] if alone else [value, ""])
    return buf.getvalue()[: -2 if alone else -3]  # the row's "\r\n", and the empty field's ","


def _coded(values: np.ndarray, alone: bool):
    """A column of cells as ``(texts, index)``: the text of each run of equal
    cells, and each row's run as an ``(n, 1)`` array.

    Each run is formatted once.  Floats compare by their float64 bits, so
    -0.0 and 0.0 are apart, and read as the shortest round-trip repr;
    integers read as decimals; anything else reads as ``csv.writer`` writes
    it in a row of more than one field, or of one (``alone``).
    """
    n, kind = len(values), values.dtype.kind
    if not n:
        return [], np.zeros((0, 1), np.intp)
    if kind in "fiu":
        # each value's two 32-bit halves as floats, exactly: equal where the bits are.  Not
        # the integer loops: a numpy loop met for the first time faults its code in, which
        # shows in the open-loop studies' peak RSS, and these float ones they run already
        bits = values.astype(float if kind == "f" else np.int64)  # contiguous, 8 bytes a value
        halves = bits.view(np.uint32).astype(float).reshape(n, 2)
        starts = (halves[1:] != halves[:-1]).any(axis=1)
    else:
        keys = values.tolist()
        starts = np.fromiter(map(operator.ne, keys[1:], keys), bool, n - 1)
    bounds = np.flatnonzero(np.concatenate([[True], starts, [True]]))  # each run's first row, and n
    firsts = values[bounds[:-1]].tolist()
    # each row's run: the number of the last run to start at or before it
    index = np.zeros(n, np.intp)
    index[bounds[1:-1]] = np.arange(1, len(firsts))
    index = np.maximum.accumulate(index, out=index)[:, None]
    if kind in "fiu":
        return [f"{v!r}" for v in firsts], index  # ASCII, which write_table encodes
    return [_quoted(v, alone).encode() for v in firsts], index


def write_table(path, comments, names, columns):
    """Write a CSV table and return ``path``: each comment as a ``# `` line, the header ``names``, the rows.

    ``columns`` holds the table's columns in the order of ``names``: each a
    sequence (not a tuple) of cells of one kind, written as ``csv.writer``
    writes them (a float as the shortest round-trip repr of its float64
    value), or a block of ``c`` columns coded already, as a ``(texts,
    index)`` tuple: the texts as written (ASCII ``str`` or UTF-8 bytes) and
    an ``(n, c)`` integer array of each cell's text.  A comment line ends in
    ``\\n``; the header and every row in ``\\r\\n``.  The file is UTF-8.  Each
    part's texts become byte slots (the text, NULs to pad, ``,\\0``) that
    ``take`` gathers into rows, ``CSV_CHUNK_ROWS`` at a time; each row's last
    two bytes become ``\\r\\n`` and the NULs are dropped, so no text may hold
    a NUL.  MalformedRecord, before the file is opened, for a comment of more
    than one line or that UTF-8 cannot encode.
    """
    if any("\n" in line or "\r" in line for line in comments):
        raise MalformedRecord("header comment must be one line")
    head = io.StringIO()
    head.writelines(f"# {line}\n" for line in comments)
    csv.writer(head).writerow(names)
    try:
        head = head.getvalue().encode()
    except UnicodeEncodeError as exc:
        raise MalformedRecord(f"header comment is not UTF-8 text: {exc.reason}") from None
    parts = []  # (slots, index) pairs to gather
    for column in columns:
        texts, index = column if isinstance(column, tuple) else _coded(np.asarray(column), len(names) == 1)
        texts = np.asarray(texts, "S")
        slots = np.zeros((len(texts), texts.itemsize + 2), np.uint8)
        slots[:, :-2] = texts.view(np.uint8).reshape(len(texts), texts.itemsize)
        slots[:, -2] = ord(",")
        parts.append((slots, index))
    n = len(parts[0][1]) if parts else 0
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, n, CSV_CHUNK_ROWS):
            rows = [slots.take(index[lo : lo + CSV_CHUNK_ROWS], axis=0) for slots, index in parts]
            rows = np.concatenate([r.reshape(len(r), -1) for r in rows], axis=1)
            rows[:, -2:] = np.frombuffer(b"\r\n", np.uint8)  # in place of the row's last ",\0"
            fh.write(rows.tobytes().translate(None, b"\0"))
    return path


def _field(value) -> str:
    """A report value's text: a float's shortest round-trip repr, a sequence's values as such joined
    by commas, anything else (an integer, a text) as ``str`` gives it."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(repr(float(v)) for v in value)
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def write_sections(path, sections: dict, comment: str | None = None):
    """Write a ``key = value`` report: an optional ``# comment`` line, then each
    section of ``sections`` (``{name: {key: value}}``) as a ``[name]`` line and
    a line per key not None, a blank line between sections; UTF-8, ``\\n`` endings.
    """
    lines = [f"# {comment}"] if comment else []
    for i, (name, keys) in enumerate(sections.items()):
        lines += [""] * (i > 0) + [f"[{name}]"] + [f"{k} = {_field(v)}" for k, v in keys.items() if v is not None]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())
    return path


def write_frames_csv(frames, path, header_comment: str | None = None):
    """Write the records of ``frames`` as a CSV log that ``read_frames_csv`` reads back bit for bit.

    An optional ``# comment`` line, then a row per record, as ``write_table``
    writes them.  The finger ids and the counts are read from one table of
    the 1,024 count texts, the flux from the texts of its distinct float32
    bit patterns, each the shortest positional text that reads back to it.
    MalformedRecord, before the file is opened, for a record the reader
    would refuse or a comment that ``write_table`` refuses.
    """
    return _write_records_csv(_as_records(frames), path, header_comment)


def _write_records_csv(records, path, header_comment: str | None):
    """``write_frames_csv`` of records already checked."""
    n = len(records)
    # format each distinct float32 bit pattern once; keying on values would
    # merge -0.0 into +0.0
    patterns, which = np.unique(records.sa2.view(np.uint32).ravel(), return_inverse=True)
    flux = [np.format_float_positional(v, unique=True, trim="0") for v in patterns.view(np.float32)]
    counts = np.column_stack([records.finger_id, records.fa1.reshape(n, 16)])
    return write_table(path, [header_comment] if header_comment else [], CSV_HEADER, [
        records.timestamp_us,
        ([str(v) for v in range(ADC_MAX + 1)], counts),  # finger ids (0..255) index it too
        (flux, which.reshape(n, 3)),
    ])


CSV_READ_CHUNK = 1 << 16  # characters of whole lines the CSV reader parses at a time: no parse of the whole log


def _parse_rows(lines) -> np.ndarray:
    """CSV rows as ``_CSV_ROW``s, blank lines skipped; a ValueError or a warning, raised, for a bad row."""
    with warnings.catch_warnings():
        # a warning is a bad row too: numpy 1.x reads 3.5 into an integer column
        # as 3 with only a DeprecationWarning, and only blank lines warn of no data
        warnings.simplefilter("error")
        return np.loadtxt(lines, _CSV_ROW, comments=None, delimiter=",", ndmin=1)


def _bad_row(body, numbers) -> MalformedRecord:
    """The error for the first of the rows ``body``, at file lines ``numbers``, that is blank or bad alone."""
    for number, line in zip(numbers, body):
        if line == "\n":
            return MalformedRecord(f"blank CSV row at line {number}")
        try:
            _parse_rows([line])
        except (ValueError, Warning) as exc:  # loadtxt's own row number counts from this one line
            return MalformedRecord(f"bad CSV row at line {number}: {re.sub(r' at row [0-9]+', '', str(exc))}")
    return MalformedRecord(f"bad CSV rows at lines {numbers[0]}..{numbers[-1]}")


def read_frames_csv(path) -> np.recarray:
    """The records of a CSV log; MalformedRecord if any is bad.

    The log is read ``CSV_READ_CHUNK`` characters of whole lines at a time,
    and each chunk is parsed in one ``np.loadtxt`` pass and checked, so the
    reader holds one chunk's text and rows beside the records.  Only lines
    that start with ``#`` are comments, wherever they are; a ``#``
    elsewhere, a blank row or a quoted field is a bad row, and the error
    names its line in the file, counted from 1.
    """
    parts, header, number = [], None, 1  # each chunk's records, the header line, the chunk's first line
    try:
        with Path(path).open(encoding="utf-8") as fh:
            for lines in iter(lambda: fh.readlines(CSV_READ_CHUNK), []):
                body = [line for line in lines if not line.startswith("#")]
                if header is None and body:
                    header = body.pop(0)
                    if next(csv.reader([header])) != CSV_HEADER:
                        raise MalformedRecord("unexpected CSV header")
                if body:
                    try:
                        rows = _parse_rows(body)
                    except (ValueError, Warning):
                        rows = ()
                    if len(rows) != len(body):  # a bad row, or a blank one, which loadtxt skips
                        numbers = [n for n, line in enumerate(lines, number) if not line.startswith("#")]
                        raise _bad_row(body, numbers[-len(body):])
                    ints = rows["ints"]
                    with np.errstate(over="ignore"):  # past float32's range reads inf, refused as not finite
                        flux = rows["flux"].astype(np.float32)
                    parts.append(_records(ints[:, 0], ints[:, 1], ints[:, 2:], flux))
                number += len(lines)
    except UnicodeDecodeError:
        try:  # the reader decodes chunk by chunk; a decode of the whole file gives the file's offset
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"CSV log is not UTF-8 at byte {exc.start}: {exc.reason}") from None
        raise
    if header is None:
        raise MalformedRecord("unexpected CSV header")
    return (np.concatenate(parts) if parts else np.zeros(0, FRAME_DTYPE)).view(np.recarray)
