"""Runnable studies: characterization, calibration, disturbance, SNR, grasp, stream.

Each run_* function takes the effective Config and an optional output
directory.  Outputs are plain CSV/text with a header comment embedding the
config hash and seed, and contain nothing non-deterministic, so a repeated
run with the same config and seed is byte-identical.
"""

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
    _write_records_csv,
    # the binary codec's entry point stays bound here, where bench/tracer.py wraps
    # it; run_stream writes its checked records through the codec's private half
    encode_frames,  # noqa: F401
    write_sections,
    write_table,
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


def _header(cfg: Config, name: str) -> str:
    return f"tacsim {name} config_sha256={cfg.hash()} seed={cfg.get('environment', 'seed')}"


def _out_path(out_dir, name: str) -> Path:
    """``out_dir / name``, creating ``out_dir`` if it is missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_calibration(cfg: Config, params: CalibrationParams, out_dir, source: str) -> Path:
    meta = {"config_sha256": cfg.hash(), "seed": cfg.get("environment", "seed"), "source": source}
    return save_calibration(params, _out_path(out_dir, "calibration.txt"), metadata=meta)


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
    fa1 = np.array([s.fa1_rel for s in sweep.samples])
    f_est = estimate_force(fa1, sweep.delta_b(), params)
    force_sq = (f_est - force) ** 2
    loc_est = estimate_location(fa1, params.pitch_mm)
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
        # the location column is a block of the labels: a row, or a run of rows, per location
        labels, rows = [s.location_label for s in sweeps], np.arange(len(sweeps))
        report = write_table(
            _out_path(out_dir, "characterize_report.csv"), [_header(cfg, "characterize")],
            ["location", "n_samples", "location_rmse_mm", "force_rmse_n",
             "fx_rmse_n", "fy_rmse_n", "fz_rmse_n", "torque_rmse_nmm"],
            [(labels, rows[:, None]),
             *map(list, zip(*([m.n_samples, m.location_rmse_mm, m.force_rmse_n, *m.force_axis_rmse_n,
                               m.torque_rmse_nmm] for m in metrics)))],
        )
        samples = write_table(
            _out_path(out_dir, "characterize_samples.csv"), [_header(cfg, "characterize")],
            ["location", "fx_true_n", "fy_true_n", "fz_true_n", "cop_x_mm", "cop_y_mm",
             "dbx_ut", "dby_ut", "dbz_ut", "fa1_sum_counts"],
            [(labels, np.repeat(rows, [len(s.samples) for s in sweeps])[:, None]),
             *map(list, zip(*([*s.force_true_n, *s.location_true_mm, *s.sa2_rel, s.fa1_sum]
                              for sweep in sweeps for s in sweep.samples)))],
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
        snr_pre=snr_pre,
        snr_post=snr_post,
        reduction=1.0 - snr_pre,
        recovery_amplitude=(d_pre - d_post) / d_pre,
        recovery_snr=(snr_post - snr_pre) / (1.0 - snr_pre),
        out_files=[],
    )

    if out_dir is not None:
        result.out_files.append(write_sections(_out_path(out_dir, "disturbance_report.txt"), {
            "earth_field": {
                "estimate_ut": b_e, "configured_ut": cfg.get("environment", "earth_field_ut"),
                "fit_rank": report.rank, "fit_condition": report.condition,
                "fit_residual_rms_ut": report.residual_rms_ut, "n_observations": report.n_observations,
            },
            "snr": {
                "signal_ut": signal, "disturbance_pre_ut": d_pre, "disturbance_post_ut": d_post,
                "snr_pre": snr_pre, "snr_post": snr_post, "snr_reduction": result.reduction,
                "recovery_amplitude": result.recovery_amplitude, "recovery_snr": result.recovery_snr,
            },
        }, comment=_header(cfg, "disturbance")))
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
        report.out_files.append(write_table(
            _out_path(out_dir, "snr_sweep.csv"), [_header(cfg, "snr-sweep")],
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
        rows = trace.rows  # its phase, finger and event columns are codes into their labels, none quoted
        out_files.append(write_table(
            _out_path(out_dir, "grasp_trace.csv"), [_header(cfg, "grasp")], TRACE_DTYPE.names,
            [rows.tick, ([phase.value for phase in PHASES], rows.phase[:, None]),
             (("0", "1"), rows.finger[:, None]), rows.motor_deg, rows.signal, rows.contact_force_n,
             (EVENTS, rows.event[:, None])],
        ))
        if linearity is not None:
            fit = " ".join(f"{k}={float(getattr(linearity, k))!r}" for k in ("slope", "intercept", "r2"))
            out_files.append(write_table(
                _out_path(out_dir, "grasp_linearity.csv"), [_header(cfg, "grasp"), fit],
                ["object_size_mm", "hold_gap_mm"], [linearity.sizes_mm, linearity.hold_gap_mm],
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
        out_files.append(_write_records_csv(frames, _out_path(out_dir, "stream.csv"), _header(cfg, "stream")))
        if cfg.get("stream", "binary"):
            bpath = _out_path(out_dir, "stream.bin")
            bpath.write_bytes(frames.tobytes())  # encode_frames of checked records
            out_files.append(bpath)
    return StreamResult(frames=frames, out_files=out_files)
