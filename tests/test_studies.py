"""Study outputs end to end: golden digests and config keys that must matter."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tacsim import cli, pipeline
from tacsim.config import load_config
from tacsim.experiments import run_characterize, run_disturbance, run_grasp

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("tacsim_bench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up while building classes
    spec.loader.exec_module(module)
    return module


BENCH_RUN = _load_bench_run()
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
STUDIES = [
    (workload, op)
    for workload, spec in BENCH_RUN.WORKLOADS.items()
    for op in spec.ops
    if op["kind"] == "study"
]


# ---------------------------------------------------------------------------
# golden digests: every benchmark study, byte for byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "workload, op", STUDIES, ids=[f"{workload}-{op['label']}" for workload, op in STUDIES]
)
def test_study_outputs_match_golden_digests(workload, op, tmp_path, capsys):
    argv = op["argv"] + ["--seed", str(BENCH_RUN.DEFAULT_SEED), "--out", str(tmp_path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN[workload][op["label"]]


def test_calibrate_writes_characterize_calibration(tmp_path, capsys):
    seed = ["--seed", str(BENCH_RUN.DEFAULT_SEED)]
    for command in ("characterize", "calibrate"):
        argv = [command, *seed, "--out", str(tmp_path / command)]
        assert cli.main(argv) == 0, capsys.readouterr().err
    characterized = (tmp_path / "characterize" / "calibration.txt").read_bytes()
    golden = GOLDEN["openloop"]["characterize"]["calibration.txt"]
    assert hashlib.sha256(characterized).hexdigest() == golden
    assert [p.name for p in (tmp_path / "calibrate").iterdir()] == ["calibration.txt"]
    assert characterized.count(b"\nsource = characterize\n") == 1
    assert (tmp_path / "calibrate" / "calibration.txt").read_bytes() == characterized.replace(
        b"\nsource = characterize\n", b"\nsource = calibrate\n"
    )


# ---------------------------------------------------------------------------
# the grasp study sees the sensor, noise and elastomer keys
# ---------------------------------------------------------------------------

# Two sizes keep it fast; hold gaps move in whole motor increments, and the
# 4 mm hold is the one that shifts when noise is switched off.
TWEEZERS = ["grasp.object=tweezers", "grasp.policy=hysteresis", "grasp.tweezers_sizes_mm=2,4"]
OUTPUTS = ("grasp_trace.csv", "grasp_linearity.csv")


def _grasp_rows(out, *overrides):
    """Data rows of the tweezers grasp outputs, stamp line dropped."""
    run_grasp(load_config(overrides=TWEEZERS + list(overrides)), out)
    return {name: (out / name).read_text().splitlines()[1:] for name in OUTPUTS}


@pytest.fixture(scope="module")
def default_rows(tmp_path_factory):
    return _grasp_rows(tmp_path_factory.mktemp("grasp"))


@pytest.mark.parametrize(
    "overrides",
    [
        ("noise.fa1_sigma_counts=0", "noise.sa2_sigma_ut=0", "noise.quantization_ut=0"),
        ("sensor.magnet_id=4",),
        ("elastomer.modulus_kpa=120",),
    ],
    ids=["noise", "magnet", "elastomer"],
)
def test_grasp_outputs_follow_sensor_config(overrides, default_rows, tmp_path):
    rows = _grasp_rows(tmp_path, *overrides)
    for name in OUTPUTS:
        assert rows[name] != default_rows[name], f"{name} ignores {', '.join(overrides)}"


# ---------------------------------------------------------------------------
# the grasp kernel merges segments across gates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides, most_holds",
    [([], 5), (["grasp.object=tweezers", "grasp.policy=hysteresis"], 182)],
    ids=["egg", "tweezers-hysteresis"],
)
def test_default_grasps_hold_few_blocks(overrides, most_holds, monkeypatch):
    # one FrontEnd.hold per gated tick would be 60 and 1,052
    calls, hold = [], pipeline.FrontEnd.hold
    monkeypatch.setattr(pipeline.FrontEnd, "hold", lambda *args: calls.append(args) or hold(*args))
    run_grasp(load_config(overrides=overrides))
    assert 0 < len(calls) <= most_holds


@pytest.mark.parametrize(
    "run, holds", [(run_characterize, 5), (run_disturbance, 3)], ids=["characterize", "disturbance"]
)
def test_open_loop_studies_hold_one_schedule_per_sweep(run, holds, monkeypatch):
    # one FrontEnd.hold per location, and one per disturbance phase; one per
    # dwell would be 135 and 20
    calls, hold = [], pipeline.FrontEnd.hold
    monkeypatch.setattr(pipeline.FrontEnd, "hold", lambda *args: calls.append(args) or hold(*args))
    run(load_config())
    assert len(calls) == holds


@pytest.mark.parametrize(
    "overrides, hold_tick",
    [(["grasp.object=rigid"], 492), (["grasp.object=none", "grasp.policy=hysteresis"], 1098)],
    ids=["rigid", "none-hysteresis"],
)
def test_grasp_objects_run_at_the_default_config(overrides, hold_tick, tmp_path, capsys):
    argv = ["grasp", "--out", str(tmp_path)] + [a for o in overrides for a in ("--set", o)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert run_grasp(load_config(overrides=overrides)).trace.event_tick("hold_start") == hold_tick
