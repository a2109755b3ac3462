"""Runnable studies: characterization, calibration, disturbance, SNR, grasp, stream.

Each run_* function takes the effective Config and an optional output
directory.  Outputs are plain CSV/text with a header comment embedding the
config hash and seed, and contain nothing non-deterministic, so a repeated
run with the same config and seed is byte-identical.
"""

import csv
import io
import operator
from pathlib import Path

import numpy as np

from .config import Config
from .disturbance import (
    RotationObservation,
    SnrReport,
    adjacent_snr_sweep,
    estimate_earth_field,
    predicted_disturbance,
    snr,
)
from .errors import InvalidSignal, NoContact
from .estimation import (
    CalibrationParams,
    CharacterizationSweep,
    SweepSample,
    estimate_force,
    estimate_location,
    estimate_torque,
    fit_calibration,
    save_calibration,
)
from .grasp import (
    EVENTS,
    PHASES,
    TRACE_DTYPE,
    Egg,
    GraspSimulation,
    GripperGeometry,
    HysteresisPolicy,
    NoObject,
    RigidObject,
    SingleThreshold,
    Tweezers,
    tweezers_linearity_study,
)
from .magnets import default_magnet, effective_signal
from .pipeline import (
    FA1_SHAPE,
    FRAME_DTYPE,
    FrontEnd,
    StreamConfig,
    _records,
    _slots,
    _write_records_csv,
    # the binary codec's entry point stays bound here, where bench/tracer.py wraps
    # it; run_stream writes its checked records through the codec's private half
    encode_frames,  # noqa: F401
)
from .record import Record, replace
from .rotations import rot_x, rot_y
from .sensor import (
    ContactStimulus,
    ElastomerSpec,
    Environment,
    TactileSensor,
    pressure_centroid,
)


def _fmt(value) -> str:
    return repr(float(value))


def _header(cfg: Config, name: str) -> str:
    return f"tacsim {name} config_sha256={cfg.hash()} seed={cfg.get('environment', 'seed')}"


def _out_path(out_dir, name: str) -> Path:
    """``out_dir / name``, creating ``out_dir`` if it is missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


CSV_CHUNK_ROWS = 512  # rows a study CSV is written in: no temporary of the whole table


def _runs(values: np.ndarray, end: str, alone: bool):
    """A column of one or more cells as ``(slots, index)``: the NUL-padded
    UTF-8 text of each run of equal cells, followed by ``end``, and each
    row's run.

    Floats compare by their float64 bits, so -0.0 and 0.0 are apart, and read
    as the shortest round-trip repr; integers read as decimals; anything else
    as ``csv.writer`` writes it in a row of more than one field, or of one
    (``alone``).
    """
    n, kind = len(values), values.dtype.kind
    if kind == "f":
        values = values.astype(float)
    if kind in "fiu":
        # each value's two 32-bit halves as floats, exactly: equal where the bits are.  Not
        # the integer loops: a numpy loop met for the first time faults its code in, which
        # shows in the open-loop studies' peak RSS, and these float ones they run already
        bits = values if kind == "f" else values.astype(np.int64)  # contiguous, 8 bytes a value
        halves = bits.view(np.uint32).astype(float).reshape(n, 2)
        starts = (halves[1:] != halves[:-1]).any(axis=1)
    else:
        keys = values.tolist()
        starts = np.fromiter(map(operator.ne, keys[1:], keys), bool, n - 1)
    bounds = np.flatnonzero(np.concatenate([[True], starts, [True]]))  # each run's first row, and n
    firsts = values[bounds[:-1]]
    if kind in "fiu":
        texts = [f"{v!r}{end}" for v in firsts.tolist()]  # ASCII, which _slots encodes
    else:
        texts = [f"{_quoted(v, alone)}{end}".encode() for v in firsts.tolist()]
    slots = _slots(texts)
    # each row's run: the number of the last run to start at or before it
    index = np.zeros(n, np.intp)
    index[bounds[1:-1]] = np.arange(1, len(slots))
    return slots, np.maximum.accumulate(index, out=index)


def _quoted(value, alone: bool) -> str:
    """``value`` as ``csv.writer`` writes it as a field: in a row of one, or of more."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value] if alone else [value, ""])
    return buf.getvalue()[: -2 if alone else -3]  # the row's "\r\n", and the empty field's ","


def _write_csv(cfg: Config, study: str, path: Path, names, columns, notes=()) -> Path:
    """Write one study CSV: the stamp and ``notes`` as comment lines, then the table.

    ``columns`` holds the table's columns in the order of ``names``, each
    of one kind of value, as ``csv.writer`` would write their rows: a float
    column as the shortest round-trip repr of each value (as float64), the
    header and every row ended by ``\\r\\n``.  The file is UTF-8.  Each
    column's runs of equal cells are formatted once, as NUL-padded slots
    that ``take`` gathers into rows, ``CSV_CHUNK_ROWS`` at a time, written
    with the NULs dropped; so no text may hold a NUL.
    """
    head = io.StringIO()
    for line in (_header(cfg, study), *notes):
        head.write(f"# {line}\n")
    csv.writer(head).writerow(names)
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    ends = [","] * (len(names) - 1) + ["\r\n"]
    runs = [_runs(c, end, len(names) == 1) for c, end in zip(columns, ends)] if n else []
    with path.open("wb") as fh:
        fh.write(head.getvalue().encode())
        for lo in range(0, n, CSV_CHUNK_ROWS):
            rows = [slots.take(index[lo : lo + CSV_CHUNK_ROWS], axis=0) for slots, index in runs]
            fh.write(np.concatenate(rows, axis=1).tobytes().translate(None, b"\0"))
    return path


def _write_calibration(cfg: Config, params: CalibrationParams, out_dir, source: str) -> Path:
    path = _out_path(out_dir, "calibration.txt")
    meta = {"config_sha256": cfg.hash(), "seed": cfg.get("environment", "seed"), "source": source}
    save_calibration(params, path, metadata=meta)
    return path


def _sensors(cfg: Config, fingers: int | None = None) -> list[TactileSensor]:
    """The configured sensor units, each with its own seeded noise stream.

    The one place config values become an ElastomerSpec, an Environment,
    the marker magnet and a TactileSensor.  Without ``fingers`` this is one
    unit (finger 0) seeded with the integer seed, as the open-loop studies
    use; otherwise finger *f* of ``fingers`` is seeded with ``(seed, f)``.
    """
    seed = cfg.get("environment", "seed")
    seeds = [seed] if fingers is None else [(seed, f) for f in range(fingers)]
    elastomer = ElastomerSpec(**cfg.section("elastomer"))
    magnet = default_magnet(cfg.get("sensor", "gap_mm"), cfg.get("sensor", "magnet_id"))
    noise = cfg.section("noise")
    return [
        TactileSensor(
            magnet=magnet,
            elastomer=elastomer,
            env=Environment(
                earth_field_ut=np.array(cfg.get("environment", "earth_field_ut")),
                fa1_noise_counts=noise["fa1_sigma_counts"],
                sa2_noise_ut=noise["sa2_sigma_ut"],
                quantization_ut=noise["quantization_ut"],
                seed=finger_seed,
            ),
            finger_id=finger,
        )
        for finger, finger_seed in enumerate(seeds)
    ]


def _stream_config(cfg: Config) -> StreamConfig:
    s = cfg.section("stream")
    return StreamConfig(
        sample_rate_hz=s["rate_hz"],
        init_samples=s["init_samples"],
        baseline_tail=s["baseline_tail"],
        ma_window=s["ma_window"],
    )


# ---------------------------------------------------------------------------
# characterization + calibration
# ---------------------------------------------------------------------------

class LocationMetrics(Record):
    label: str
    n_samples: int
    location_rmse_mm: float
    force_rmse_n: float
    force_axis_rmse_n: np.ndarray
    torque_rmse_nmm: float


class CharacterizeResult(Record):
    sweeps: list
    params: CalibrationParams
    metrics: list
    out_files: list


def _simulate_sweep(cfg: Config, sensor: TactileSensor, label: str, location) -> CharacterizationSweep:
    """Stream one location's press schedule through the pipeline as one hold."""
    ch = cfg.section("characterize")
    probe, dwell = ch["probe_radius_mm"], ch["dwell_frames"]

    fz_grid = np.arange(0.0, ch["force_max_n"] + ch["force_step_n"] / 2, ch["force_step_n"])
    shear_grid = np.arange(
        -ch["shear_max_n"], ch["shear_max_n"] + ch["shear_step_n"] / 2, ch["shear_step_n"]
    )
    forces = [(0.0, 0.0, float(fz)) for fz in fz_grid]
    forces += [(float(fx), 0.0, ch["shear_hold_n"]) for fx in shear_grid]
    forces += [(0.0, float(fy), ch["shear_hold_n"]) for fy in shear_grid]

    idle = ContactStimulus(location_mm=location, force_n=(0.0, 0.0, 0.0), probe_radius_mm=probe)
    front = FrontEnd([sensor], _stream_config(cfg), idle)
    rows = front.hold([
        (ContactStimulus(location_mm=location, force_n=force, probe_radius_mm=probe), dwell, None)
        for force in forces
    ])
    means = rows.reshape(len(forces), dwell, 19)[:, -ch["tail_frames"]:].mean(axis=1)
    cop = pressure_centroid(location, probe)
    samples = [
        SweepSample(force_true_n=np.array(force), location_true_mm=cop.copy(),
                    fa1_rel=mean[:16].reshape(FA1_SHAPE), sa2_rel=mean[16:])
        for force, mean in zip(forces, means)
    ]
    return CharacterizationSweep(location_label=label, samples=samples)


def _evaluate_sweep(sweep: CharacterizationSweep, params: CalibrationParams) -> LocationMetrics:
    """Score a sweep's samples as one batch; rows of no contact leave location and torque out."""
    force, cop = sweep.force_truth(), np.array([s.location_true_mm for s in sweep.samples])
    pooled = SweepSample(force, cop, np.array([s.fa1_rel for s in sweep.samples]), sweep.delta_b())
    f_est = estimate_force(pooled, params)
    force_sq = (f_est - force) ** 2
    loc_est = estimate_location(pooled.fa1_rel, params.pitch_mm)
    located = ~np.isnan(loc_est[:, 0])
    if not located.any():
        raise NoContact(f"no sample at {sweep.location_label} reached the taxel threshold")
    loc_sq = np.sum((loc_est[located] - cop[located]) ** 2, axis=1)
    tau_est = estimate_torque(loc_est[located], f_est[located])
    tau_true = estimate_torque(cop[located], force[located])
    return LocationMetrics(
        label=sweep.location_label,
        n_samples=len(sweep.samples),
        location_rmse_mm=float(np.sqrt(np.mean(loc_sq))),
        force_rmse_n=float(np.sqrt(np.mean(force_sq))),
        force_axis_rmse_n=np.sqrt(np.mean(force_sq, axis=0)),
        torque_rmse_nmm=float(np.sqrt(np.mean((tau_est - tau_true) ** 2))),
    )


def run_characterize(cfg: Config, out_dir=None) -> CharacterizeResult:
    """Full press protocol at every location, then fit and score."""
    (sensor,) = _sensors(cfg)
    sweeps = []
    for i, location in enumerate(cfg.locations(), start=1):
        sweeps.append(_simulate_sweep(cfg, sensor, f"L{i}", location))

    params = fit_calibration(sweeps)
    metrics = [_evaluate_sweep(s, params) for s in sweeps]

    out_files = []
    if out_dir is not None:
        report = _write_csv(
            cfg, "characterize", _out_path(out_dir, "characterize_report.csv"),
            ["location", "n_samples", "location_rmse_mm", "force_rmse_n",
             "fx_rmse_n", "fy_rmse_n", "fz_rmse_n", "torque_rmse_nmm"],
            zip(*([m.label, m.n_samples, m.location_rmse_mm, m.force_rmse_n,
                   *m.force_axis_rmse_n, m.torque_rmse_nmm] for m in metrics)),
        )
        samples = _write_csv(
            cfg, "characterize", _out_path(out_dir, "characterize_samples.csv"),
            ["location", "fx_true_n", "fy_true_n", "fz_true_n", "cop_x_mm", "cop_y_mm",
             "dbx_ut", "dby_ut", "dbz_ut", "fa1_sum_counts"],
            zip(*([sweep.location_label, *s.force_true_n, *s.location_true_mm, *s.sa2_rel, s.fa1_sum]
                  for sweep in sweeps for s in sweep.samples)),
        )
        out_files = [report, samples, _write_calibration(cfg, params, out_dir, "characterize")]
    return CharacterizeResult(sweeps=sweeps, params=params, metrics=metrics, out_files=out_files)


def run_calibrate(cfg: Config, out_dir=None):
    """Characterize and persist only the fitted calibration."""
    result = run_characterize(cfg, None)
    if out_dir is not None:
        result.out_files.append(_write_calibration(cfg, result.params, out_dir, "calibrate"))
    return result


# ---------------------------------------------------------------------------
# disturbance rejection
# ---------------------------------------------------------------------------

class DisturbanceResult(Record):
    earth_estimate_ut: np.ndarray
    fit_report: object
    signal_ut: float
    d_pre_ut: float
    d_post_ut: float
    snr_pre: float
    snr_post: float
    reduction: float
    recovery_amplitude: float
    recovery_snr: float
    out_files: list


def run_disturbance(cfg: Config, out_dir=None) -> DisturbanceResult:
    """Rotation disturbance, earth-field fit, and cancellation payoff."""
    (sensor,) = _sensors(cfg)
    d = cfg.section("disturbance")
    angle = np.deg2rad(d["rotation_deg"])
    repeats, dwell = d["repeats"], d["dwell_frames"]

    idle = ContactStimulus(force_n=(0.0, 0.0, 0.0))
    reference = np.eye(3)
    disturb_pose = rot_x(angle)
    front = FrontEnd([sensor], _stream_config(cfg), idle, reference)

    def measure(poses):
        """Mean flux over the tail of each dwell, the poses held in turn as one schedule."""
        rows = front.hold([(idle, dwell, pose) for pose in poses])
        return rows.reshape(len(poses), dwell, 19)[:, -d["tail_frames"]:, 16:].mean(axis=1)

    # phase 1: uncompensated disturbance, each dwell at the pose after one at the reference
    pre = measure([reference, disturb_pose] * repeats)[1::2]
    d_pre = float(np.mean([np.linalg.norm(v) for v in pre]))

    # phase 2: multi-axis calibration rotations
    poses = (rot_x(angle), rot_y(angle), rot_x(-angle), rot_y(-angle))
    deltas = measure([p for pose in poses for p in (reference, pose)])[1::2]
    b_e, report = estimate_earth_field(
        RotationObservation(rotation=pose.T, delta_b_ut=delta) for pose, delta in zip(poses, deltas)
    )

    # phase 3: same poses with the estimated field cancelled
    post = measure([reference, disturb_pose] * repeats)[1::2]
    post = post - predicted_disturbance(b_e, disturb_pose.T)
    d_post = float(np.mean([np.linalg.norm(v) for v in post]))

    signal = effective_signal(sensor.magnet, cfg.get("sensor", "gap_mm"))
    snr_pre = snr(signal, d_pre)
    snr_post = snr(signal, d_post)
    if snr_pre == 1.0:  # d_pre is 0, or too small to register beside the signal
        raise InvalidSignal(f"no disturbance to recover: measured {d_pre!r} uT before cancelling")
    result = DisturbanceResult(
        earth_estimate_ut=b_e,
        fit_report=report,
        signal_ut=signal,
        d_pre_ut=d_pre,
        d_post_ut=d_post,
        snr_pre=snr_pre,
        snr_post=snr_post,
        reduction=1.0 - snr_pre,
        recovery_amplitude=(d_pre - d_post) / d_pre,
        recovery_snr=(snr_post - snr_pre) / (1.0 - snr_pre),
        out_files=[],
    )

    if out_dir is not None:
        path = _out_path(out_dir, "disturbance_report.txt")
        true_field = np.array(cfg.get("environment", "earth_field_ut"))
        lines = [
            f"# {_header(cfg, 'disturbance')}",
            "[earth_field]",
            "estimate_ut = " + ",".join(_fmt(v) for v in b_e),
            "configured_ut = " + ",".join(_fmt(v) for v in true_field),
            f"fit_rank = {report.rank}",
            f"fit_condition = {_fmt(report.condition)}",
            f"fit_residual_rms_ut = {_fmt(report.residual_rms_ut)}",
            f"n_observations = {report.n_observations}",
            "",
            "[snr]",
            f"signal_ut = {_fmt(signal)}",
            f"disturbance_pre_ut = {_fmt(d_pre)}",
            f"disturbance_post_ut = {_fmt(d_post)}",
            f"snr_pre = {_fmt(snr_pre)}",
            f"snr_post = {_fmt(snr_post)}",
            f"snr_reduction = {_fmt(result.reduction)}",
            f"recovery_amplitude = {_fmt(result.recovery_amplitude)}",
            f"recovery_snr = {_fmt(result.recovery_snr)}",
        ]
        path.write_text("\n".join(lines) + "\n")
        result.out_files.append(path)
    return result


# ---------------------------------------------------------------------------
# adjacent-marker SNR sweep
# ---------------------------------------------------------------------------

def run_snr_sweep(cfg: Config, out_dir=None) -> SnrReport:
    s = cfg.section("snr")
    dy = np.arange(s["dy_min_mm"], s["dy_max_mm"] + s["dy_step_mm"] / 2, s["dy_step_mm"])
    report = adjacent_snr_sweep(dy_mm=dy, gap_mm=cfg.get("sensor", "gap_mm"))
    if out_dir is not None:
        m, n = report.snr.shape
        report.out_files.append(_write_csv(
            cfg, "snr-sweep", _out_path(out_dir, "snr_sweep.csv"),
            ["magnet_id", "dy_mm", "s_ut", "d_ut", "snr"],
            [
                np.repeat(report.magnet_ids, n), np.tile(report.dy_mm, m),
                np.repeat(report.signal_ut, n), report.disturbance_ut.ravel(), report.snr.ravel(),
            ],
        ))
    return report


# ---------------------------------------------------------------------------
# grasping
# ---------------------------------------------------------------------------

class GraspResult(Record):
    trace: object
    linearity: object
    out_files: list


def _grasp_parts(cfg: Config):
    g = cfg.section("grasp")
    geometry = GripperGeometry(
        opening_mm=g["opening_mm"],
        pinion_radius_mm=g["pinion_radius_mm"],
        increment_deg=g["increment_deg"],
        max_travel_deg=g["max_travel_deg"],
    )
    if g["policy"] == "single":
        policy = SingleThreshold(threshold=g["threshold"], blend=g["blend"])
    else:
        policy = HysteresisPolicy(
            close_above=g["close_above"], release_below=g["release_below"],
            hold_s=g["hold_s"], blend=g["blend"],
        )
    if g["object"] == "egg":
        obj = Egg(size_mm=g["egg_size_mm"], stiffness_n_per_mm=g["egg_stiffness_n_mm"],
                  crush_force_n=g["egg_crush_n"])
    elif g["object"] == "none":
        obj = NoObject()
    elif g["object"] == "rigid":
        obj = RigidObject(size_mm=g["rigid_size_mm"], stiffness_n_per_mm=g["rigid_stiffness_n_mm"])
    else:
        obj = Tweezers(
            object_size_mm=g["tweezers_size_mm"],
            outer_width_mm=g["tweezers_width_mm"],
            tip_gap_mm=g["tweezers_tip_gap_mm"],
            arm_rate_n_per_mm=g["tweezers_arm_rate_n_mm"],
            spring_rate_n_per_mm=g["tweezers_spring_n_mm"],
        )
    return geometry, policy, obj


def run_grasp(cfg: Config, out_dir=None) -> GraspResult:
    geometry, policy, obj = _grasp_parts(cfg)
    stream = _stream_config(cfg)

    def grasp(target, after=None):
        sim = GraspSimulation(target, policy, _sensors(cfg, 2), geometry=geometry, stream=stream)
        return sim.run(max_ticks=cfg.get("grasp", "max_ticks"), after=after)

    trace = grasp(obj)
    linearity = None
    if isinstance(obj, Tweezers) and isinstance(policy, HysteresisPolicy):
        linearity = tweezers_linearity_study(
            cfg.get("grasp", "tweezers_sizes_mm"),
            # each size's grasp is the configured one's until the tips touch, and replays it so far
            lambda size: grasp(replace(obj, object_size_mm=size), after=trace),
            geometry,
        )
    trace.replay = None  # what a later grasp could replay; no later grasp runs

    out_files = []
    if out_dir is not None:
        # the phase and event codes as their labels: object arrays, whose cells are the labels
        rows, phases = trace.rows, np.array([phase.value for phase in PHASES], object)
        out_files.append(_write_csv(
            cfg, "grasp", _out_path(out_dir, "grasp_trace.csv"), TRACE_DTYPE.names,
            [rows.tick, phases.take(rows.phase), rows.finger, rows.motor_deg, rows.signal,
             rows.contact_force_n, np.array(EVENTS, object).take(rows.event)],
        ))
        if linearity is not None:
            fit = (f"slope={_fmt(linearity.slope)} intercept={_fmt(linearity.intercept)}"
                   f" r2={_fmt(linearity.r2)}")
            out_files.append(_write_csv(
                cfg, "grasp", _out_path(out_dir, "grasp_linearity.csv"),
                ["object_size_mm", "hold_gap_mm"],
                [linearity.sizes_mm, linearity.hold_gap_mm],
                notes=[fit],
            ))
    return GraspResult(trace=trace, linearity=linearity, out_files=out_files)


# ---------------------------------------------------------------------------
# raw streaming
# ---------------------------------------------------------------------------

class StreamResult(Record):
    frames: np.recarray  # FRAME_DTYPE records, interleaved by finger
    out_files: list


def run_stream(cfg: Config, out_dir=None) -> StreamResult:
    """Raw idle frames from every finger for the configured duration."""
    s = cfg.section("stream")
    sensors = _sensors(cfg, s["fingers"])

    idle = ContactStimulus(force_n=(0.0, 0.0, 0.0))
    dt_us = int(round(1e6 / s["rate_hz"]))
    n_frames = int(round(s["duration_s"] * s["rate_hz"]))
    # each finger has its own RNG, so one block per finger draws what the
    # interleaved per-frame loop drew; row k holds every finger's frame k.
    # The records are checked here, once, and the writers take them as they are
    records = np.recarray((n_frames, len(sensors)), FRAME_DTYPE)
    timestamps = dt_us * np.arange(1, n_frames + 1)
    for j, sensor in enumerate(sensors):
        counts, flux = sensor.sample_block([(idle, n_frames, None)])
        records[:, j] = _records(timestamps, np.full(n_frames, sensor.finger_id), counts, flux)
    frames = records.ravel()

    out_files = []
    if out_dir is not None:
        path = _out_path(out_dir, "stream.csv")
        _write_records_csv(frames, path, _header(cfg, "stream"))
        out_files.append(path)
        if cfg.get("stream", "binary"):
            bpath = path.with_name("stream.bin")
            bpath.write_bytes(frames.tobytes())  # encode_frames of checked records
            out_files.append(bpath)
    return StreamResult(frames=frames, out_files=out_files)
