"""Self-tests of the benchmark's failure accounting and tracer.

    python3 -m pytest bench/test_bench.py

Each test runs tiny workloads (one ``snr-sweep`` study) through the real
harness, so a failure must show in ``failed`` and ``error_rate`` while the
other workloads still report their metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

REPO = Path(__file__).resolve().parent.parent
CHEAP = bench.Workload(ops=(bench.study("snr-sweep", "snr-sweep"),), frames=1)


def _run_all(monkeypatch, capsys, workloads, golden):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(bench, "WORKLOADS", workloads)
    monkeypatch.setattr(bench, "GOLDEN_PATH", golden)
    code = bench.main(["--workload", "all", "--seconds", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


def _error_rates(lines):
    rates, name = {}, None
    for line in lines:
        if " operations, " in line:
            name = line.split()[0]
        elif line.strip().startswith("error_rate"):
            rates[name] = float(line.split()[1])
    return rates


def test_digest_mismatch_counts_and_keeps_other_metrics(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"bad": {"snr-sweep": {"snr_sweep.csv": "0" * 64}}}))
    code, lines, result = _run_all(
        monkeypatch, capsys, {"bad": CHEAP, "good": CHEAP}, golden)
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == 6 and result["failed"] == 3
    assert _error_rates(lines) == {"bad": 1.0, "good": 0.0}
    for name in ("bad", "good"):
        for metric, unit in bench.END_TO_END.items():
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0


def test_nonzero_exit_counts_and_keeps_other_metrics(tmp_path, monkeypatch, capsys):
    failing = bench.Workload(
        ops=CHEAP.ops + (bench.study("bad-config", "snr-sweep", "snr.dy_step_mm=oops"),),
        frames=1,
    )
    code, lines, result = _run_all(
        monkeypatch, capsys, {"bad": failing, "good": CHEAP}, tmp_path / "none.json")
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == 9 and result["failed"] == 3
    assert _error_rates(lines) == {"bad": 0.5, "good": 0.0}
    assert result["metrics"]["good.wall_ref_s"]["value"] > 0
    assert result["metrics"]["bad.wall_ref_s"]["value"] > 0


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--workload", "stream", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_site():
    code = """
import tacsim
from tacsim import disturbance, experiments, magnets, pipeline, sensor
from tracer import Tracer
t = Tracer()
t.install()
assert t.missing == [], t.missing
assert sensor.cylinder_flux is magnets.cylinder_flux is disturbance.cylinder_flux
assert magnets.cylinder_flux.__name__ == "cylinder_flux" and hasattr(magnets.cylinder_flux, "__wrapped__")
assert experiments.estimate_force is tacsim.estimation.estimate_force
assert experiments.encode_frames is pipeline.encode_frames
assert hasattr(experiments.encode_frames, "__wrapped__")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO / "bench", capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
