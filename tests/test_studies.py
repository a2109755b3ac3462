"""Study outputs end to end: golden digests, config keys that must matter, the
study writer's bytes and the numpy modules the studies load."""

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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tacsim
from tacsim import cli, experiments, pipeline
from tacsim.config import load_config
from tacsim.errors import MalformedRecord, TacsimError
from tacsim.experiments import (
    _header,
    run_characterize,
    run_disturbance,
    run_grasp,
    run_snr_sweep,
    run_stream,
)
from tacsim.pipeline import CSV_CHUNK_ROWS, write_table

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


@pytest.mark.parametrize("overrides", [[], TWEEZERS], ids=["egg", "tweezers-linearity"])
def test_grasp_results_carry_no_replay_data(overrides):
    assert run_grasp(load_config(overrides=overrides)).trace.replay is None


# ---------------------------------------------------------------------------
# the study writer, column by column, against the per-cell writer
# ---------------------------------------------------------------------------

def cells(column):
    """The cells of a ``write_table`` column, or of each column of a ``(texts, index)`` block."""
    if not isinstance(column, tuple):
        return [[repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in column]]
    texts, index = column
    texts = [t.decode() if isinstance(t, bytes) else t for t in texts]
    return [[texts[i] for i in index[:, k]] for k in range(index.shape[1])]


def write_csv_oracle(path, comments, names, columns):
    """``write_table`` as the study writer was, one cell at a time: the byte-level reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows(zip(*[c for column in columns for c in cells(column)]))
    return Path(path)


N_LONG = 2 * CSV_CHUNK_ROWS + 77
TABLES = {
    "signed-zeros": [[0.0, -0.0, np.float64(-0.0), np.float64(0.0)]],
    "tiny-huge-subnormal": [[1e-05, 1e16, 5e-324, -1.7976931348623157e308, 0.1]],
    "float32": [np.array([0.1, -0.0, 3.4e38, 1e-45, 1 / 3], dtype=np.float32)],
    "float64-mixed-with-float": [[np.float64(0.1), 0.2, np.float64(1 / 3), 2.5, np.float64(-1e-300)]],
    "ints": [[0, -7, 2**62, 3], np.array([1, 2, 3, 4], dtype=np.int64)],
    "text-int-float": [(("L1", "L2"), np.array([[0], [1], [1], [0]])), [5, 6, 7, 8], [1.5, -0.0, 1e-05, 2.0]],
    "empty": [[], []],
    "nan-inf": [[np.nan, np.inf, -np.inf, -np.nan, np.nan, 1.0], [1, 1, 2, 2, 2, 3]],
    # runs that cross the write chunks' boundaries, and runs that end on them
    "longer-than-two-chunks": [
        np.where(np.arange(N_LONG) // 300 % 2, -0.0, 0.0),
        (np.arange(N_LONG) >= CSV_CHUNK_ROWS).astype(float) - 0.5,
        np.arange(N_LONG) // 7,
        (("held", "", "a"), (np.arange(N_LONG) // (CSV_CHUNK_ROWS - 1) % 3)[:, None]),
        np.where(np.arange(N_LONG) % 2, 0.0, -0.0),
    ],
    # integer columns of few values and of many runs, each run its own text
    "int-runs-longer-than-two-chunks": [
        np.arange(N_LONG) % 2,  # the grasp trace's finger values: a run per row, of two values
        np.arange(N_LONG) // 2,  # its tick column: as many values as runs
        np.arange(N_LONG) % 7 - 3,  # from negative to positive
        (np.arange(N_LONG) // 3 % 2 * 2**40).astype(np.uint64),
    ],
    "int-runs-apart-of-equal-value": [[5, 7, 6, 5], np.array([-1, 1, 0, -1], np.int8)],
    "int-runs-of-distinct-values": [[5, 7, 6], np.array([-1, 1, 0], np.int8)],
    "int64-extremes": [
        np.array([-(2**63), 2**63 - 1, -(2**63), 0, 2**63 - 1], np.int64),
        np.array([0, 2**64 - 1, 0, 2**63, 2**64 - 1], np.uint64),
    ],
    # blocks coded by the caller, as (texts, index); their texts are written as they are
    "last-part-a-three-column-block": [
        [1.5, -0.0, 2.0],
        (("x", "yy", "-0.0"), np.array([[0, 1, 2], [2, 2, 0], [1, 0, 1]])),
    ],
    "one-block-column": [(("µT".encode(), b"a"), np.array([[0], [1], [1], [0]], np.uint8))],
    "block-between-plain-columns": [
        [1, 2, 3],
        (("p", "q"), np.array([[0, 1], [1, 1], [0, 0]])),
        [0.5, -0.0, 1e300],
    ],
    "blocks-of-no-rows": [(("p",), np.zeros((0, 2), np.intp)), [], (("q",), np.zeros((0, 1), np.intp))],
    "blocks-longer-than-two-chunks": [
        (("0", "1"), (np.arange(N_LONG) % 2)[:, None]),  # the grasp trace's finger column
        np.arange(N_LONG) // 3 * 0.5,
        # the stream log's counts: a block of three columns reading one table of 1,024 texts
        ([str(v) for v in range(1024)], (3 * np.arange(N_LONG)[:, None] + np.arange(3)) % 1024),
    ],
}


@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES.keys())
@pytest.mark.parametrize("notes", [(), ("slope=0.5 intercept=-0.0", "second note")],
                         ids=["no-notes", "notes"])
def test_study_writer_bytes_equal_the_per_cell_writer(columns, notes, tmp_path):
    comments = [_header(load_config(), "probe"), *notes]
    names = [f"c{i}" for i in range(len([c for column in columns for c in cells(column)]))]
    got = write_table(tmp_path / "columns.csv", comments, names, columns)
    want = write_csv_oracle(tmp_path / "cells.csv", comments, names, columns)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("column", [["L1", "L2"], ["5", "6"], [True, False]], ids=["text", "digits", "bools"])
def test_study_writer_refuses_a_column_that_is_not_numbers(column, tmp_path):
    # text reaches the writer only as a (texts, index) block its caller coded
    with pytest.raises(TypeError, match="not numbers"):
        write_table(tmp_path / "t.csv", [], ["c0", "c1"], [[1.5, 2.0], column])
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("text", ["a,b", 'q"uote', "cr\r", "lf\n", "nul\0", "\0", b"a,b", b"nul\0"], ids=repr)
def test_study_writer_refuses_a_block_text_it_cannot_write_unquoted(text, tmp_path):
    # a comma or a quote would split or open a field, a line break end the row, and a NUL
    # would be dropped with the slots' padding
    block = (("fine", text) if isinstance(text, str) else (b"fine", text), np.array([[0], [1]]))
    with pytest.raises(MalformedRecord, match="block text"):
        write_table(tmp_path / "t.csv", [], ["label", "x"], [block, [1.0, 2.0]])
    assert not (tmp_path / "t.csv").exists()


def test_study_writer_refuses_a_block_of_one_text_with_a_comma(tmp_path):
    # it used to write a,b,1.0: three fields under a two-field header
    with pytest.raises(MalformedRecord, match="'a,b'"):
        write_table(tmp_path / "t.csv", [], ["label", "x"], [(("a,b",), np.zeros((1, 1), int)), [1.0]])
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# whole studies, their files against the same study through the per-cell writer
# ---------------------------------------------------------------------------

QUIET = ["noise.fa1_sigma_counts=0", "noise.sa2_sigma_ut=0", "noise.quantization_ut=0"]


@st.composite
def front_end(draw):
    """A seed, a short initialization window and filter, and noise on or off."""
    init = draw(st.integers(1, 60))
    return [
        f"environment.seed={draw(st.integers(0, 2**32 - 1))}",
        f"stream.init_samples={init}",
        f"stream.baseline_tail={draw(st.integers(1, init))}",
        f"stream.ma_window={draw(st.integers(1, 8))}",
    ] + QUIET * draw(st.booleans())  # no noise: long runs of equal cells


@st.composite
def characterize(draw):
    dwell = draw(st.integers(1, 10))
    locations = draw(st.lists(st.sampled_from(load_config().locations()), min_size=1, max_size=2, unique=True))
    return [
        f"characterize.dwell_frames={dwell}",
        f"characterize.tail_frames={draw(st.integers(1, dwell))}",
        f"characterize.force_max_n={draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))}",
        f"characterize.force_step_n={draw(st.sampled_from([0.25, 0.5]))}",
        f"characterize.shear_max_n={draw(st.sampled_from([0.0, 0.25, 0.5]))}",
        "characterize.locations=" + ";".join(f"{x},{y}" for x, y in locations),
    ]


@st.composite
def disturbance(draw):
    dwell = draw(st.integers(1, 20))
    return [
        f"disturbance.dwell_frames={dwell}",
        f"disturbance.tail_frames={draw(st.integers(1, dwell))}",
        f"disturbance.repeats={draw(st.integers(1, 2))}",
        f"disturbance.rotation_deg={draw(st.floats(1.0, 180.0))!r}",
        f"sensor.magnet_id={draw(st.integers(1, 4))}",
    ]


@st.composite
def snr_sweep(draw):
    low = draw(st.floats(4.0, 20.0))
    return [
        f"snr.dy_min_mm={low!r}",
        f"snr.dy_max_mm={draw(st.floats(low, 30.0))!r}",
        f"snr.dy_step_mm={draw(st.floats(0.5, 4.0))!r}",
        f"sensor.magnet_id={draw(st.integers(1, 4))}",
    ]


@st.composite
def egg(draw):
    return [
        f"grasp.max_ticks={draw(st.integers(1, 1200))}",
        f"grasp.threshold={draw(st.floats(200.0, 1500.0))!r}",
        f"grasp.blend={draw(st.floats(0.0, 1.0))!r}",
    ]


@st.composite
def tweezers_hysteresis(draw):
    sizes = draw(st.lists(st.sampled_from([2.0, 3.3, 6.0, 10.0, 12.0]), min_size=2, max_size=3, unique=True))
    return [
        "grasp.object=tweezers", "grasp.policy=hysteresis",
        f"grasp.tweezers_size_mm={draw(st.sampled_from([2.0, 6.0, 7.5]))}",
        "grasp.tweezers_sizes_mm=" + ",".join(map(str, sizes)),
        f"grasp.hold_s={draw(st.sampled_from([0.0, 0.1, 1.0]))}",
        f"grasp.max_ticks={draw(st.integers(1, 2500))}",
    ]


@st.composite
def stream(draw):
    rate = draw(st.integers(1, 500))
    frames = draw(st.integers(1, 2 * rate))  # 2 s at most
    return [
        f"stream.fingers={draw(st.integers(1, 3))}",
        f"stream.rate_hz={rate}",
        f"stream.duration_s={frames / rate!r}",
        f"stream.binary={draw(st.booleans())}",
    ]


SMALL_STUDIES = {
    "characterize": (run_characterize, characterize()),
    "disturbance": (run_disturbance, disturbance()),
    "snr-sweep": (run_snr_sweep, snr_sweep()),
    "egg": (run_grasp, egg()),
    "tweezers-hysteresis": (run_grasp, tweezers_hysteresis()),
    "stream": (run_stream, stream()),
}


def outcome(run, cfg, out):
    """The files ``run`` writes into ``out``, by name, or the error it raises."""
    try:
        run(cfg, out)
    except TacsimError as exc:
        return f"{type(exc).__name__}: {exc}"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("study", SMALL_STUDIES)
@settings(max_examples=8, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_study_files_equal_those_of_the_per_cell_writer(study, data, tmp_path_factory):
    run, overrides = SMALL_STUDIES[study]
    cfg = load_config(overrides=data.draw(front_end(), label="front end") + data.draw(overrides, label=study))
    got = outcome(run, cfg, tmp_path_factory.mktemp(study))
    written = []

    def per_cell(path, *args):
        written.append(Path(path).name)
        return write_csv_oracle(path, *args)

    with pytest.MonkeyPatch.context() as mp:
        for module in (experiments, pipeline):
            mp.setattr(module, "write_table", per_cell)
        want = outcome(run, cfg, tmp_path_factory.mktemp(study))
    assert got == want
    if isinstance(want, dict):  # every CSV came from the per-cell writer
        assert sorted(written) == [name for name in want if name.endswith(".csv")]


# ---------------------------------------------------------------------------
# the studies that write import nothing of numpy that import tacsim did not:
# np.unique on floats, for one, imports numpy.ma (about 20 ms cold)
# ---------------------------------------------------------------------------

COLD_STUDIES = """
import sys, tempfile
import tacsim
loaded = {name for name in sys.modules if name.startswith("numpy.")}
from tacsim import cli
tweezers = ["--set", "grasp.object=tweezers", "--set", "grasp.policy=hysteresis"]
with tempfile.TemporaryDirectory() as out:
    for argv in (["characterize"], ["disturbance"], ["snr-sweep"], ["stream"], ["grasp"], ["grasp", *tweezers]):
        assert cli.main(argv + ["--out", out]) == 0, argv
print(" ".join(sorted({name for name in sys.modules if name.startswith("numpy.")} - loaded)))
"""


def test_writing_studies_load_no_numpy_module_beyond_import_tacsim():
    src = str(Path(tacsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_STUDIES], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
