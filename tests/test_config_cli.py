import configparser
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tacsim import cli
from tacsim.cli import main
from tacsim.config import DEFAULTS, Config, dump_default_config, load_config
from tacsim.errors import ConfigError, GraspFailed


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_load():
    cfg = load_config()
    assert cfg.get("sensor", "magnet_id") == 2
    assert cfg.get("stream", "rate_hz") == 250
    assert cfg.get("environment", "earth_field_ut") == (38.031, 0.0, 32.460)
    locs = cfg.locations()
    assert len(locs) == 5 and locs[0] == (4.5, 4.5) and locs[2] == (6.25, 6.25)


def test_unknown_override_keys_fail():
    with pytest.raises(ConfigError):
        load_config(overrides=["stream.rat_hz=100"])
    with pytest.raises(ConfigError):
        load_config(overrides=["nosuchsection.rate_hz=100"])
    with pytest.raises(ConfigError):
        load_config(overrides=["stream.rate_hz"])  # missing '='


def test_override_coercion_follows_default_type():
    cfg = load_config(
        overrides=[
            "stream.rate_hz=500",
            "stream.binary=true",
            "environment.earth_field_ut=1,2,3",
            "noise.fa1_sigma_counts=0",
        ]
    )
    assert cfg.get("stream", "rate_hz") == 500
    assert cfg.get("stream", "binary") is True
    assert cfg.get("environment", "earth_field_ut") == (1.0, 2.0, 3.0)
    assert cfg.get("noise", "fa1_sigma_counts") == 0.0
    with pytest.raises(ConfigError):
        load_config(overrides=["stream.rate_hz=fast"])
    with pytest.raises(ConfigError):
        load_config(overrides=["stream.binary=maybe"])


def test_config_file_overlay(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[noise]\nfa1_sigma_counts = 0\nsa2_sigma_ut = 0.5\n")
    cfg = load_config(path)
    assert cfg.get("noise", "fa1_sigma_counts") == 0.0
    assert cfg.get("noise", "sa2_sigma_ut") == 0.5
    assert cfg.get("noise", "quantization_ut") == 0.15  # untouched default

    bad = tmp_path / "bad.ini"
    bad.write_text("[noise]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_hash_tracks_effective_values(tmp_path):
    base = load_config()
    again = load_config()
    assert base.hash() == again.hash()
    changed = load_config(overrides=["stream.rate_hz=500"])
    assert changed.hash() != base.hash()
    seeded = load_config(seed=99)
    assert seeded.get("environment", "seed") == 99
    assert seeded.hash() != base.hash()
    # a file overlay that restates a default leaves the hash unchanged
    path = tmp_path / "same.ini"
    path.write_text("[stream]\nrate_hz = 250\n")
    assert load_config(path).hash() == base.hash()


def test_default_dump_round_trips(tmp_path):
    text = dump_default_config()
    parser = configparser.ConfigParser()
    parser.read_string(text)
    assert set(parser.sections()) == set(DEFAULTS)
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    assert load_config(path).hash() == load_config().hash()


def test_config_is_isolated_from_defaults():
    cfg = load_config(overrides=["sensor.magnet_id=4"])
    assert DEFAULTS["sensor"]["magnet_id"] == 2
    assert cfg.get("sensor", "magnet_id") == 4
    assert load_config().get("sensor", "magnet_id") == 2


def test_canonical_text_is_sorted_and_complete():
    cfg = load_config()
    lines = cfg.canonical_text().splitlines()
    assert lines == sorted(lines)
    n_keys = sum(len(keys) for keys in DEFAULTS.values())
    assert len(lines) == n_keys


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_default_config(capsys):
    assert main(["default-config"]) == 0
    out = capsys.readouterr().out
    parser = configparser.ConfigParser()
    parser.read_string(out)
    assert parser["stream"]["rate_hz"] == "250"


def test_main_calls_share_the_parser_but_not_its_values(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "grasp", lambda cfg, out: seen.append(cfg))
    out = ["--out", str(tmp_path)]
    assert main(["grasp", "--set", "grasp.object=rigid", "--seed", "5"] + out) == 0
    assert main(["grasp", "--set", "grasp.policy=hysteresis"] + out) == 0
    assert main(["grasp"] + out) == 0
    assert [(c.get("grasp", "object"), c.get("grasp", "policy"), c.get("environment", "seed"))
            for c in seen] == [("rigid", "single", 5), ("egg", "hysteresis", 20260814),
                               ("egg", "single", 20260814)]
    first = cli._parse(["grasp", "--set", "grasp.object=rigid"])[1]
    first["set"].append("grasp.policy=hysteresis")
    assert cli._parse(["grasp"])[1]["set"] == []


def test_cli_rejects_bad_override(capsys):
    code = main(["snr-sweep", "--set", "snr.dy_min=4"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# Command lines outside the grammar; each --out names a directory that must not appear.
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["bogus", "--out", "given"],
    "unknown-option": ["grasp", "--out", "given", "--bogus", "1"],
    "abbreviated-option": ["grasp", "--out", "given", "--conf", "run.ini"],
    "positional": ["grasp", "--out", "given", "grasp.object=rigid"],
    "no-value": ["grasp", "--out", "given", "--seed"],
    "option-for-a-value": ["grasp", "--config", "--out", "given"],
    "seed-not-an-integer": ["grasp", "--out", "given", "--seed", "x"],
    "seed-empty": ["grasp", "--out=given", "--seed="],
    "dump-with-seed": ["default-config", "--out", "given", "--seed", "1"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_two_before_any_output(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the default --out, ./out, would go
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tacsim <command> ")
    assert "\ntacsim: error: " in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["grasp", "--help"], ["default-config", "-h"],
                                  ["stream", "--seed", "3", "-h"]])
def test_help_prints_the_usage_and_exits_zero(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tacsim <command> ") and captured.err == ""
    for name in [*cli.COMMANDS, "default-config", *cli.OPTIONS]:
        assert f"\n  {name} " in captured.out
    assert list(tmp_path.iterdir()) == []


def test_option_equals_value_reads_as_option_then_value(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "grasp", lambda cfg, out: seen.append((cfg.hash(), out)))
    path = tmp_path / "run.ini"
    path.write_text("[noise]\nsa2_sigma_ut = 0.5\n")
    out = str(tmp_path / "o")
    spaced = ["--config", str(path), "--seed", "5", "--set", "grasp.object=rigid",
              "--set", "grasp.hold_s=1", "--out", out]
    joined = [f"{option}={value}" for option, value in zip(spaced[::2], spaced[1::2])]
    assert main(["grasp"] + spaced) == 0
    assert main(["grasp"] + joined) == 0
    want = load_config(path, ["grasp.object=rigid", "grasp.hold_s=1"], seed=5).hash()
    assert seen == [(want, out)] * 2


def test_import_cli_loads_no_argument_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy, numpy.random\n"
            "before = set(sys.modules)\n"
            "import tacsim.cli\n"
            "tacsim.cli._parse(['grasp', '--seed', '1', '--set', 'grasp.object=rigid'])\n"
            "print(' '.join(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Each of these crashed mid-study with a traceback, or exited 0 with NaN,
# empty or meaningless output, before values were range-checked at load.
BAD_VALUES = [
    ("characterize", "stream.ma_window=0"),
    ("characterize", "stream.rate_hz=0"),
    ("stream", "stream.fingers=0"),
    ("characterize", "stream.init_samples=0"),
    ("disturbance", "disturbance.tail_frames=0"),
    ("disturbance", "environment.earth_field_ut=1,2"),
    ("characterize", "characterize.tail_frames=0"),
    ("characterize", "characterize.dwell_frames=0"),
    # a tail longer than its dwell was cut to the dwell, with no word
    ("characterize", "characterize.tail_frames=1000"),
    ("disturbance", "disturbance.tail_frames=1000"),
    ("characterize", "characterize.force_step_n=0"),
    ("snr-sweep", "snr.dy_step_mm=0"),
    ("characterize", "characterize.locations=1,2,3"),
    ("characterize", "characterize.locations=20,20"),
    ("characterize", "characterize.locations="),
    ("characterize", "characterize.probe_radius_mm=1e-9"),
    ("characterize", "characterize.probe_radius_mm=1e300"),
    ("grasp", "sensor.magnet_id=7"),
    ("characterize", "elastomer.modulus_kpa=0"),
    ("grasp", "grasp.egg_crush_n=0"),
    ("grasp", "grasp.policy=hysteresis", "grasp.close_above=100"),
    ("grasp", "grasp.object=tweezers", "grasp.tweezers_size_mm=20"),
    # these two simulated the configured grasp, then exited 1 with RankDeficientFit
    ("grasp", "grasp.object=tweezers", "grasp.policy=hysteresis", "grasp.tweezers_sizes_mm=5"),
    ("grasp", "grasp.object=tweezers", "grasp.policy=hysteresis", "grasp.tweezers_sizes_mm=5,5"),
    ("characterize", "stream.baseline_tail=0"),
    ("stream", "stream.fingers=300", "stream.binary=true"),
    ("stream", "noise.sa2_sigma_ut=nan"),
    ("stream", "noise.sa2_sigma_ut=-1"),
    ("stream", "noise.quantization_ut=inf"),
    ("stream", "environment.earth_field_ut=nan,0,0"),
    ("disturbance", "disturbance.repeats=0"),
    ("stream", "stream.duration_s=-1"),
    ("snr-sweep", "snr.dy_min_mm=40"),
    ("grasp", "grasp.hold_s=-1"),
    ("grasp", "grasp.blend=2"),
    # 5 locations of 10,001 + 2 * 9 stimuli x 1000 frames: 5e7 frames, one hold per location
    ("characterize", "characterize.force_step_n=0.01", "characterize.force_max_n=100",
     "characterize.dwell_frames=1000"),
]


# Config files that broke a study, or that the INI reader failed on with a traceback.
BAD_FILES = {
    "config-file-ma-window": b"[stream]\nma_window = 0\n",
    "config-file-percent": b"[characterize]\nlocations = 50%\n",
    "config-file-not-utf8": b"\xff\xfe[stream]\n",
    "config-file-no-section": b"rate_hz = 5\n",  # configparser.Error, imported in load_config
}


@pytest.mark.parametrize(
    "argv",
    [[command] + [a for o in overrides for a in ("--set", o)] for command, *overrides in BAD_VALUES]
    + [["stream", "--seed", "-1"]]
    + [["characterize", "--config", name] for name in BAD_FILES],
    ids=[" ".join(overrides) for _, *overrides in BAD_VALUES] + ["seed=-1"] + list(BAD_FILES),
)
def test_bad_value_exits_two_before_the_study(argv, tmp_path, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_bytes(text)
    out = tmp_path / "out"
    code = main([str(tmp_path / a) if a in BAD_FILES else a for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


def test_a_study_runs_with_the_objects_made_before_it_frozen(tmp_path, monkeypatch, capsys):
    # a generation-1 collection of the imports' objects cost 1.4-2.1 ms inside the first study
    frozen = []
    monkeypatch.setitem(cli.COMMANDS, "snr-sweep", lambda cfg, out: frozen.append(gc.get_freeze_count()))
    assert main(["snr-sweep", "--out", str(tmp_path)]) == 0
    assert frozen[0] > 0 and gc.get_freeze_count() == 0

    def fails(cfg, out):
        raise GraspFailed("never reached a hold")

    monkeypatch.setitem(cli.COMMANDS, "grasp", fails)
    assert main(["grasp", "--out", str(tmp_path)]) == 1
    assert gc.get_freeze_count() == 0
    assert "error: GraspFailed: never reached a hold" in capsys.readouterr().err


def test_a_tweezers_sweep_of_more_than_1000_sizes_exits_two(tmp_path, capsys):
    # each size is a grasp of about 6 ms, so a long list ran for minutes before it was refused
    sizes = [f"grasp.tweezers_sizes_mm={','.join(str(i / 100) for i in range(n))}" for n in (1000, 1001)]
    tweezers = ["grasp.object=tweezers", "grasp.policy=hysteresis"]
    assert len(load_config(overrides=tweezers + sizes[:1]).get("grasp", "tweezers_sizes_mm")) == 1000
    argv = ["grasp", "--out", str(tmp_path / "out")] + [a for o in tweezers + sizes[1:] for a in ("--set", o)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: rule broken: grasp.tweezers_sizes_mm holds 1,000 sizes at most" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_is_not_a_directory_exits_two(out, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["snr-sweep", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert f"output error: cannot create directory {tmp_path / out}" in err
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize(
    "command, name",
    [
        ("characterize", "calibration.txt"),
        ("calibrate", "calibration.txt"),
        ("disturbance", "disturbance_report.txt"),
        ("snr-sweep", "snr_sweep.csv"),
        ("grasp", "grasp_trace.csv"),
        ("stream", "stream.csv"),
    ],
)
def test_output_name_taken_by_a_directory_exits_two(command, name, tmp_path, capsys):
    (tmp_path / name).mkdir()
    assert main([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"output error: cannot write {tmp_path / name}: " in err
    assert "Traceback" not in err


def test_cli_runtime_failure_is_exit_one(tmp_path, capsys):
    code = main(
        [
            "characterize",
            "--out",
            str(tmp_path),
            "--set",
            "characterize.force_max_n=0",
            "--set",
            "characterize.shear_max_n=0",
            "--set",
            "noise.fa1_sigma_counts=0",
            "--set",
            "noise.sa2_sigma_ut=0",
            "--set",
            "noise.quantization_ut=0",
        ]
    )
    assert code == 1
    assert "RankDeficientFit" in capsys.readouterr().err


# a 5 N press on a 1 mm SA2 layer brings the marker within 0.5 mm of the flux sensor
TOO_CLOSE = ["--set", "elastomer.sa2_thickness_mm=1.0", "--set", "characterize.force_max_n=5"]


@pytest.mark.parametrize("out", ["out", "a/b"])
def test_a_failed_study_leaves_no_directory_it_made(out, tmp_path, capsys):
    assert main(["characterize", "--out", str(tmp_path / out)] + TOO_CLOSE) == 1
    assert "error: OffsetTooSmall: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_failed_study_keeps_the_directory_that_was_there(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    assert main(["characterize", "--out", str(tmp_path / "out")] + TOO_CLOSE) == 1
    assert "error: OffsetTooSmall: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"] and list((tmp_path / "out").iterdir()) == []


def test_a_sweep_that_never_leaves_the_init_window_is_exit_one(tmp_path, capsys):
    # 100 ticks, all in the initialization window: each swept size replays the last
    overrides = ["grasp.object=tweezers", "grasp.policy=hysteresis", "grasp.max_ticks=100"]
    code = main(["grasp", "--out", str(tmp_path)] + [a for o in overrides for a in ("--set", o)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: GraspFailed: size " in err and "Traceback" not in err


def test_disturbance_with_nothing_to_recover_is_exit_one(tmp_path, capsys):
    # noise off and no earth field: the measured disturbance is exactly 0
    overrides = [
        "noise.fa1_sigma_counts=0",
        "noise.sa2_sigma_ut=0",
        "noise.quantization_ut=0",
        "environment.earth_field_ut=0,0,0",
    ]
    code = main(["disturbance", "--out", str(tmp_path)] + [a for o in overrides for a in ("--set", o)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: InvalidSignal: no disturbance to recover" in err and "Traceback" not in err


def test_cli_snr_sweep_writes_stamped_csv(tmp_path, capsys):
    out = tmp_path / "a"
    assert main(["snr-sweep", "--out", str(out), "--seed", "7"]) == 0
    path = out / "snr_sweep.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    cfg = load_config(seed=7)
    assert lines[0] == f"# tacsim snr-sweep config_sha256={cfg.hash()} seed=7"
    assert lines[1].startswith("magnet_id,dy_mm,")
    # 4 magnets x 27 offsets
    assert len(lines) == 2 + 4 * 27
    assert f"wrote {path}" in capsys.readouterr().out


def test_cli_reruns_are_byte_identical(tmp_path):
    args = ["snr-sweep", "--seed", "3", "--set", "snr.dy_max_mm=10"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "snr_sweep.csv").read_bytes() == (out_b / "snr_sweep.csv").read_bytes()


def test_cli_stream_writes_both_formats(tmp_path):
    out = tmp_path / "s"
    code = main(
        [
            "stream",
            "--out",
            str(out),
            "--set",
            "stream.duration_s=0.1",
            "--set",
            "stream.binary=true",
        ]
    )
    assert code == 0
    csv_lines = (out / "stream.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# tacsim stream config_sha256=")
    assert len(csv_lines) == 2 + 25 * 2  # header comment + column row + frames
    blob = (out / "stream.bin").read_bytes()
    assert len(blob) == 53 * 25 * 2


def test_config_object_sections_are_copies():
    cfg = load_config()
    section = cfg.section("noise")
    section["fa1_sigma_counts"] = 99.0
    assert cfg.get("noise", "fa1_sigma_counts") == 2.0
