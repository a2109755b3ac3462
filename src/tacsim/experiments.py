"""Runnable studies: characterization, calibration, disturbance, SNR, grasp, stream.

Each run_* function takes the effective Config and an optional output
directory.  Outputs are plain CSV/text with a header comment embedding the
config hash and seed, and contain nothing non-deterministic, so a repeated
run with the same config and seed is byte-identical.
"""

import csv
from dataclasses import dataclass, replace
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
    encode_frames,
    write_frames_csv,
)
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

@dataclass
class LocationMetrics:
    label: str
    n_samples: int
    location_rmse_mm: float
    force_rmse_n: float
    force_axis_rmse_n: np.ndarray
    torque_rmse_nmm: float


@dataclass
class CharacterizeResult:
    sweeps: list
    params: CalibrationParams
    metrics: list
    out_files: list


def _simulate_sweep(cfg: Config, sensor: TactileSensor, label: str, location) -> CharacterizationSweep:
    """Stream one location's press schedule through the pipeline."""
    ch = cfg.section("characterize")
    probe = ch["probe_radius_mm"]

    schedule = []
    fz_grid = np.arange(0.0, ch["force_max_n"] + ch["force_step_n"] / 2, ch["force_step_n"])
    for fz in fz_grid:
        schedule.append((0.0, 0.0, float(fz)))
    shear_grid = np.arange(
        -ch["shear_max_n"], ch["shear_max_n"] + ch["shear_step_n"] / 2, ch["shear_step_n"]
    )
    for fx in shear_grid:
        schedule.append((float(fx), 0.0, ch["shear_hold_n"]))
    for fy in shear_grid:
        schedule.append((0.0, float(fy), ch["shear_hold_n"]))

    idle = ContactStimulus(location_mm=location, force_n=(0.0, 0.0, 0.0), probe_radius_mm=probe)
    front = FrontEnd([sensor], _stream_config(cfg), idle)

    cop = pressure_centroid(location, probe)
    samples = []
    for force in schedule:
        stimulus = ContactStimulus(location_mm=location, force_n=force, probe_radius_mm=probe)
        mean = front.hold(stimulus, ch["dwell_frames"])[-ch["tail_frames"]:, 0].mean(axis=0)
        samples.append(
            SweepSample(
                force_true_n=np.array(force),
                location_true_mm=cop.copy(),
                fa1_rel=mean[:16].reshape(FA1_SHAPE),
                sa2_rel=mean[16:],
            )
        )
    return CharacterizationSweep(location_label=label, samples=samples)


def _evaluate_sweep(sweep: CharacterizationSweep, params: CalibrationParams) -> LocationMetrics:
    loc_sq, force_sq, torque_sq = [], [], []
    force_axis_sq = []
    for s in sweep.samples:
        f_est = estimate_force(s, params)
        force_axis_sq.append((f_est - s.force_true_n) ** 2)
        force_sq.extend((f_est - s.force_true_n) ** 2)
        try:
            loc_est = estimate_location(s.fa1_rel, params.pitch_mm)
        except NoContact:
            continue
        loc_sq.append(np.sum((loc_est - s.location_true_mm) ** 2))
        tau_est = estimate_torque(loc_est, f_est)
        tau_true = estimate_torque(s.location_true_mm, s.force_true_n)
        torque_sq.extend((tau_est - tau_true) ** 2)
    if not loc_sq:
        raise NoContact(f"no sample at {sweep.location_label} reached the taxel threshold")
    return LocationMetrics(
        label=sweep.location_label,
        n_samples=len(sweep.samples),
        location_rmse_mm=float(np.sqrt(np.mean(loc_sq))),
        force_rmse_n=float(np.sqrt(np.mean(force_sq))),
        force_axis_rmse_n=np.sqrt(np.mean(np.array(force_axis_sq), axis=0)),
        torque_rmse_nmm=float(np.sqrt(np.mean(torque_sq))),
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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = out_dir / "characterize_report.csv"
        with report.open("w", newline="") as fh:
            fh.write(f"# {_header(cfg, 'characterize')}\n")
            w = csv.writer(fh)
            w.writerow(
                ["location", "n_samples", "location_rmse_mm", "force_rmse_n",
                 "fx_rmse_n", "fy_rmse_n", "fz_rmse_n", "torque_rmse_nmm"]
            )
            for m in metrics:
                w.writerow(
                    [m.label, m.n_samples, _fmt(m.location_rmse_mm), _fmt(m.force_rmse_n)]
                    + [_fmt(v) for v in m.force_axis_rmse_n]
                    + [_fmt(m.torque_rmse_nmm)]
                )
        samples_path = out_dir / "characterize_samples.csv"
        with samples_path.open("w", newline="") as fh:
            fh.write(f"# {_header(cfg, 'characterize')}\n")
            w = csv.writer(fh)
            w.writerow(
                ["location", "fx_true_n", "fy_true_n", "fz_true_n", "cop_x_mm", "cop_y_mm",
                 "dbx_ut", "dby_ut", "dbz_ut", "fa1_sum_counts"]
            )
            for sweep in sweeps:
                for s in sweep.samples:
                    w.writerow(
                        [sweep.location_label]
                        + [_fmt(v) for v in s.force_true_n]
                        + [_fmt(v) for v in s.location_true_mm]
                        + [_fmt(v) for v in s.sa2_rel]
                        + [_fmt(s.fa1_sum)]
                    )
        cal_path = out_dir / "calibration.txt"
        save_calibration(
            params,
            cal_path,
            metadata={
                "config_sha256": cfg.hash(),
                "seed": cfg.get("environment", "seed"),
                "source": "characterize",
            },
        )
        out_files = [report, samples_path, cal_path]
    return CharacterizeResult(sweeps=sweeps, params=params, metrics=metrics, out_files=out_files)


def run_calibrate(cfg: Config, out_dir=None):
    """Characterize and persist only the fitted calibration."""
    result = run_characterize(cfg, None)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        cal_path = out_dir / "calibration.txt"
        save_calibration(
            result.params,
            cal_path,
            metadata={
                "config_sha256": cfg.hash(),
                "seed": cfg.get("environment", "seed"),
                "source": "calibrate",
            },
        )
        result.out_files.append(cal_path)
    return result


# ---------------------------------------------------------------------------
# disturbance rejection
# ---------------------------------------------------------------------------

@dataclass
class DisturbanceResult:
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
    repeats = d["repeats"]

    idle = ContactStimulus(force_n=(0.0, 0.0, 0.0))
    reference = np.eye(3)
    disturb_pose = rot_x(angle)
    front = FrontEnd([sensor], _stream_config(cfg), idle, reference)

    def measure(orientation):
        """Mean flux over the tail of one dwell at ``orientation``."""
        rows = front.hold(idle, d["dwell_frames"], orientation)
        return rows[-d["tail_frames"]:, 0, 16:].mean(axis=0)

    # phase 1: uncompensated disturbance
    pre = []
    for _ in range(repeats):
        measure(reference)
        pre.append(measure(disturb_pose))
    d_pre = float(np.mean([np.linalg.norm(v) for v in pre]))

    # phase 2: multi-axis calibration rotations
    observations = []
    for pose in (rot_x(angle), rot_y(angle), rot_x(-angle), rot_y(-angle)):
        measure(reference)
        delta = measure(pose)
        observations.append(RotationObservation(rotation=pose.T, delta_b_ut=delta))
    b_e, report = estimate_earth_field(observations)

    # phase 3: same poses with the estimated field cancelled
    post = []
    for _ in range(repeats):
        measure(reference)
        delta = measure(disturb_pose)
        post.append(delta - predicted_disturbance(b_e, disturb_pose.T))
    d_post = float(np.mean([np.linalg.norm(v) for v in post]))

    signal = effective_signal(sensor.magnet, cfg.get("sensor", "gap_mm"), model="cylinder")
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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "disturbance_report.txt"
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
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "snr_sweep.csv"
        with path.open("w", newline="") as fh:
            fh.write(f"# {_header(cfg, 'snr-sweep')}\n")
            w = csv.writer(fh)
            w.writerow(["magnet_id", "dy_mm", "s_ut", "d_ut", "snr"])
            for row in report.rows:
                w.writerow(
                    [row.magnet_id, _fmt(row.dy_mm), _fmt(row.signal_ut),
                     _fmt(row.disturbance_ut), _fmt(row.snr)]
                )
        report.out_files.append(path)
    return report


# ---------------------------------------------------------------------------
# grasping
# ---------------------------------------------------------------------------

@dataclass
class GraspResult:
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

    def grasp(target):
        sim = GraspSimulation(target, policy, _sensors(cfg, 2), geometry=geometry, stream=stream)
        return sim.run(max_ticks=cfg.get("grasp", "max_ticks"))

    trace = grasp(obj)
    linearity = None
    if isinstance(obj, Tweezers) and isinstance(policy, HysteresisPolicy):
        linearity = tweezers_linearity_study(
            cfg.get("grasp", "tweezers_sizes_mm"),
            lambda size: grasp(replace(obj, object_size_mm=size)),
            geometry,
        )

    out_files = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "grasp_trace.csv"
        with path.open("w", newline="") as fh:
            fh.write(f"# {_header(cfg, 'grasp')}\n")
            w = csv.writer(fh)
            w.writerow(["tick", "phase", "finger", "motor_deg", "signal", "contact_force_n", "event"])
            for r in trace.rows:
                w.writerow(
                    [r.tick, r.phase, r.finger, _fmt(r.motor_deg), _fmt(r.signal),
                     _fmt(r.contact_force_n), r.event]
                )
        out_files.append(path)
        if linearity is not None:
            lpath = out_dir / "grasp_linearity.csv"
            with lpath.open("w", newline="") as fh:
                fh.write(f"# {_header(cfg, 'grasp')}\n")
                fh.write(f"# slope={_fmt(linearity.slope)} intercept={_fmt(linearity.intercept)}"
                         f" r2={_fmt(linearity.r2)}\n")
                w = csv.writer(fh)
                w.writerow(["object_size_mm", "hold_gap_mm"])
                for size, gap in zip(linearity.sizes_mm, linearity.hold_gap_mm):
                    w.writerow([_fmt(size), _fmt(gap)])
            out_files.append(lpath)
    return GraspResult(trace=trace, linearity=linearity, out_files=out_files)


# ---------------------------------------------------------------------------
# raw streaming
# ---------------------------------------------------------------------------

@dataclass
class StreamResult:
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
    # interleaved per-frame loop drew; row k holds every finger's frame k
    records = np.recarray((n_frames, len(sensors)), FRAME_DTYPE)
    records.timestamp_us = dt_us * np.arange(1, n_frames + 1)[:, None]
    for j, sensor in enumerate(sensors):
        counts, flux = sensor.sample_block(idle, n_frames)
        records.finger_id[:, j] = sensor.finger_id
        records.fa1[:, j] = counts.reshape((n_frames,) + FA1_SHAPE)
        records.sa2[:, j] = flux
    frames = records.ravel()

    out_files = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "stream.csv"
        write_frames_csv(frames, path, header_comment=_header(cfg, "stream"))
        out_files.append(path)
        if cfg.get("stream", "binary"):
            bpath = out_dir / "stream.bin"
            bpath.write_bytes(encode_frames(frames))
            out_files.append(bpath)
    return StreamResult(frames=frames, out_files=out_files)
