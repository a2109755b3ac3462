"""Study outputs end to end: golden digests, config keys that must matter, the
study writer's bytes and the numpy modules the grasp studies load."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacsim
from tacsim import cli, experiments, pipeline
from tacsim.config import load_config
from tacsim.experiments import (
    _header,
    _write_csv,
    run_characterize,
    run_disturbance,
    run_grasp,
    run_stream,
)

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
    [([], 5), (["grasp.object=tweezers", "grasp.policy=hysteresis"], 85)],
    ids=["egg", "tweezers-hysteresis"],
)
def test_default_grasps_hold_few_blocks(overrides, most_holds, monkeypatch):
    # one FrontEnd.hold per gated tick would be 60 and 1,052; the tweezers study
    # made 176 before its sweep replayed the segments it shares with its grasp
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


def test_stream_checks_its_records_once(monkeypatch, tmp_path):
    # write_frames_csv and encode_frames each checked them again
    checked, records = [], pipeline._records
    for module in (pipeline, experiments):
        monkeypatch.setattr(module, "_records", lambda *args: checked.append(len(args[0])) or records(*args))
    run_stream(load_config(overrides=["stream.binary=true", "stream.fingers=3"]), tmp_path)
    assert checked == [250, 250, 250]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stream.bin", "stream.csv"]


@pytest.mark.parametrize(
    "overrides, hold_tick",
    [(["grasp.object=rigid"], 492), (["grasp.object=none", "grasp.policy=hysteresis"], 1098)],
    ids=["rigid", "none-hysteresis"],
)
def test_grasp_objects_run_at_the_default_config(overrides, hold_tick, tmp_path, capsys):
    argv = ["grasp", "--out", str(tmp_path)] + [a for o in overrides for a in ("--set", o)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert run_grasp(load_config(overrides=overrides)).trace.event_tick("hold_start") == hold_tick


# ---------------------------------------------------------------------------
# the study writer, column by column, against the per-cell writer
# ---------------------------------------------------------------------------

def write_csv_oracle(cfg, study, path, names, rows, notes=()):
    """The study writer as it was, one cell at a time: the byte-level reference."""
    with path.open("w", newline="") as fh:
        for line in (_header(cfg, study), *notes):
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
        )
    return path


TABLES = {
    "signed-zeros": [[0.0, -0.0, np.float64(-0.0), np.float64(0.0)]],
    "tiny-huge-subnormal": [[1e-05, 1e16, 5e-324, -1.7976931348623157e308, 0.1]],
    "float32": [np.array([0.1, -0.0, 3.4e38, 1e-45, 1 / 3], dtype=np.float32)],
    "float64-mixed-with-float": [[np.float64(0.1), 0.2, np.float64(1 / 3), 2.5, np.float64(-1e-300)]],
    "ints": [[0, -7, 2**62, 3], np.array([1, 2, 3, 4], dtype=np.int64)],
    "text-int-float": [["L1", "a,b", 'q"uote', ""], [5, 6, 7, 8], [1.5, -0.0, 1e-05, 2.0]],
    "empty": [[], []],
}


@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES.keys())
@pytest.mark.parametrize("notes", [(), ("slope=0.5 intercept=-0.0", "second note")],
                         ids=["no-notes", "notes"])
def test_study_writer_bytes_equal_the_per_cell_writer(columns, notes, tmp_path):
    cfg = load_config()
    names = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    got = _write_csv(cfg, "probe", tmp_path / "columns.csv", names, columns, notes)
    want = write_csv_oracle(cfg, "probe", tmp_path / "cells.csv", names, rows, notes)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# the grasp studies import nothing of numpy that import tacsim did not
# ---------------------------------------------------------------------------

COLD_GRASPS = """
import sys, tempfile
import tacsim
loaded = {name for name in sys.modules if name.startswith("numpy.")}
from tacsim import cli
with tempfile.TemporaryDirectory() as out:
    for argv in (["grasp"], ["grasp", "--set", "grasp.object=tweezers", "--set", "grasp.policy=hysteresis"]):
        assert cli.main(argv + ["--out", out]) == 0
print(" ".join(sorted({name for name in sys.modules if name.startswith("numpy.")} - loaded)))
"""


def test_grasp_studies_load_no_numpy_module_beyond_import_tacsim():
    src = str(Path(tacsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_GRASPS], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
