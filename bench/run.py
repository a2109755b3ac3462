"""Benchmark for tacsim: the CLI studies end to end, and per-layer costs.

    python3 bench/run.py --workload {openloop,closedloop,stream,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.

Each pass over a workload is one fresh interpreter (``bench/child.py``),
started one at a time.  A run starts passes until ``--seconds`` have gone
(at least three) and reports medians over them.  With ``--trace 1`` the
passes alternate untraced and traced, and the per-layer metrics come from
the traced ones.

Times are reported at a reference host speed.  Each pass also times a fixed
host probe that runs no tacsim code (``host_probe`` in ``bench/child.py``),
and a pass's times are scaled by PROBE_REF_S / probe time.  On a shared host
whose speed drifts over minutes this keeps runs of the same code comparable;
the times as measured are printed beside them.

An operation is one study invocation or one read-back.  It fails on a
nonzero exit, an exception, an output digest that differs from the golden
one (default seed) or from the run's first pass (any other seed), or frames
read back that differ from the frames written.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 20260814
DEFAULT_SECONDS = 30
REALTIME_FRAMES_PER_S = 500.0  # hardware budget: 250 Hz x 2 fingers
CHILD_TIMEOUT_S = 120
MIN_PASSES = 3
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def study(label, command, *overrides):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    return {"kind": "study", "label": label, "argv": argv}


def read_back(kind, of, file):
    return {"kind": kind, "label": f"{of}.{kind}", "of": of, "file": f"{of}/{file}"}


@dataclass(frozen=True)
class Workload:
    ops: tuple
    # Frames simulated per pass; None counts the frames of every grasp
    # simulation, because when a grasp ends depends on its decisions.
    frames: int | None


WORKLOADS = {
    # Schedules known in advance, so batching and stimulus dedup apply; the
    # only workload with StreamProcessor-fed estimation and no codec.
    # characterize: 5 locations x (300 init + 27 forces x 40 dwell) = 6,900;
    # disturbance: 300 init + 20 poses x 150 dwell = 3,300; snr-sweep: none.
    "openloop": Workload(
        ops=(study("characterize", "characterize"), study("disturbance", "disturbance"),
             study("snr-sweep", "snr-sweep")),
        frames=10_200,
    ),
    # Each tick's stimulus depends on the last decision, so frames come two
    # at a time and cannot be batched across ticks.
    "closedloop": Workload(
        ops=(study("grasp-egg", "grasp"),
             study("grasp-tweezers", "grasp", "grasp.object=tweezers",
                   "grasp.policy=hysteresis")),
        frames=None,
    ),
    # One idle stimulus; writes sit beside reads, so the codecs carry weight.
    # 20 s x 250 Hz x 2 fingers = 10,000 frames.
    "stream": Workload(
        ops=(study("stream", "stream", "stream.duration_s=20", "stream.binary=true"),
             read_back("decode", "stream", "stream.bin"),
             read_back("csv_read", "stream", "stream.csv")),
        frames=10_000,
    ),
}

# untraced metrics and their units
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "realtime_ref_x": "x", "peak_rss_mb": "MB"}
# Host probe time (bench/child.py) that defines the reference host speed.
# Times are reported as if the probe had taken this long, which cancels the
# drift of a shared host's speed; the probe runs no tacsim code.
PROBE_REF_S = 0.5


def environment(root):
    """Python, numpy, cores, commit and src/tacsim line count of the checkout."""
    commit = "unknown"
    if (root / ".git").exists():  # git would otherwise search the parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src/tacsim").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cores": os.cpu_count(),
        "commit": commit,
        "src_tacsim_lines": src_lines,
    }


class Runner:
    """Starts passes of one workload and accounts for every operation."""

    def __init__(self, root, name, workload, seed, golden=None):
        self.root = root
        self.name = name
        self.workload = workload
        self.seed = seed
        self.reference = golden
        self.work = root / ".bench_out" / name
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _spec(self, trace, pass_dir):
        ops = []
        for op in self.workload.ops:
            op = dict(op)
            if op["kind"] == "study":
                op["argv"] = op["argv"] + ["--seed", str(self.seed)]
            ops.append(op)
        return {
            "src": str(self.root / "src"),
            "out": str(pass_dir / "out"),
            "result": str(pass_dir / "result.json"),
            "spans": str(self.work.parent / f"{self.name}.spans.tsv"),
            "trace": trace,
            "ops": ops,
        }

    def run_pass(self, trace=False):
        """One child pass; returns its result dict, or None if it did not finish."""
        pass_dir = self.work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        spec = self._spec(trace, pass_dir)
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, **SINGLE_THREAD)
        # Import from cached bytecode, as repeated CLI calls do; without this a
        # caller's PYTHONDONTWRITEBYTECODE would add compile time to setup_s.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [spec["src"]] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=self.root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
            stderr = f"timed out after {CHILD_TIMEOUT_S} s\n{stderr}"
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        result_path = Path(spec["result"])
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result["setup_s"] = result["ready"] - t_spawn
        self._account(result, proc.returncode, stderr)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return result

    def _account(self, result, returncode, stderr):
        self.attempted += len(self.workload.ops)
        if result is None:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self._fail(f"pass exited {returncode}: {tail[0]}", len(self.workload.ops))
            return
        first = self.reference is None
        if first:
            self.reference = {}
        for rec in result["ops"]:
            if not rec["ok"]:
                self._fail(f"{rec['label']}: {rec['why']}")
            elif "digests" in rec:
                if first:
                    self.reference[rec["label"]] = rec["digests"]
                elif rec["digests"] != self.reference.get(rec["label"]):
                    self._fail(f"{rec['label']}: output digests differ from the reference")

    def _fail(self, why, count=1):
        self.failed += count
        if why not in self.failures:
            self.failures.append(why)
            print(f"[{self.name}] FAILED {why}", file=sys.stderr)

    def frames(self, result):
        if self.workload.frames is not None:
            return self.workload.frames
        return result["grasp_frames"]


def at_reference_speed(result, key):
    """A pass's time ``key`` scaled to the reference host speed.

    The child times a fixed host probe around its timed section; a host
    running slower than the reference (probe above PROBE_REF_S) has its
    times scaled down by the same factor.
    """
    return result[key] * PROBE_REF_S / result["probe_s"]


def measure(root, name, seed, seconds, trace, golden):
    """Passes for ``seconds``; returns the summary and the runner."""
    runner = Runner(root, name, WORKLOADS[name], seed, golden)
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    k = 0
    while k < MIN_PASSES + trace or time.monotonic() < deadline:
        use_trace = bool(trace) and k % 2 == 1
        result = runner.run_pass(trace=use_trace)
        if result is not None:
            (traced if use_trace else plain).append(result)
        k += 1
    if not plain or (trace and not traced):
        return None, runner

    wall = [r["wall_s"] for r in plain]
    wall_ref = [at_reference_speed(r, "wall_s") for r in plain]
    metrics = {
        "setup_s": statistics.median([at_reference_speed(r, "setup_s") for r in plain]),
        "wall_ref_s": statistics.median(wall_ref),
        "realtime_ref_x": statistics.median(
            [runner.frames(r) / REALTIME_FRAMES_PER_S / w for r, w in zip(plain, wall_ref)]),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in plain]),
    }
    summary = {
        "passes": len(plain),
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "probe_s": statistics.median([r["probe_s"] for r in plain]),
        "wall_ref_quartiles": (
            statistics.quantiles(wall_ref, n=4) if len(wall_ref) > 1 else wall_ref * 3),
        "frames": runner.frames(plain[0]),
        "end_to_end": metrics,
    }
    if trace:
        layers = {k: statistics.median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median([at_reference_speed(r, "wall_s") for r in traced])
            - metrics["wall_ref_s"])
        layers["host.probe_s"] = statistics.median([r["probe_s"] for r in plain + traced])
        summary["layers"] = layers
        for missing in traced[0]["missing"]:
            print(f"[{name}] trace target not found: {missing}", file=sys.stderr)
    return summary, runner


def report(name, seed, summary, runner):
    """Human-readable lines: every metric by name, with its unit."""
    error_rate = runner.failed / runner.attempted
    print(f"{name} (seed {seed}): {runner.attempted} operations, {runner.failed} failed")
    print(f"  {'error_rate':<42} {error_rate:.4f}")
    if summary is None:
        return
    q1, _, q3 = summary["wall_ref_quartiles"]
    print(f"  frames per pass {summary['frames']}, {summary['passes']} untraced passes, "
          f"wall_ref_s quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  as measured: wall_s {summary['wall_s']:.4f} s, setup_s {summary['setup_s']:.4f} s, "
          f"host probe {summary['probe_s']:.4f} s (reference {PROBE_REF_S} s)")
    for key, value in summary["end_to_end"].items():
        print(f"  {key:<42} {value:.4f} {END_TO_END[key]}")
    for key, value in summary.get("layers", {}).items():
        print(f"  {key:<42} {value:.6g}")


def unit(name):
    """Unit of a metric, from END_TO_END or from the per-layer name's suffix."""
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, u in (("_s", "s"), ("us_per_frame", "us/frame"), ("us_per_tick", "us/tick"),
                      ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def write_golden(root):
    golden = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(root, name, workload, DEFAULT_SEED)
        runner.run_pass()
        if runner.failed:
            return 1
        golden[name] = runner.reference
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.relative_to(root)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="run each workload once at the default seed and store its "
                             "output digests as the golden ones, then exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src/tacsim/__init__.py").is_file():
        print(f"no tacsim source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden(root)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    print("env " + json.dumps(environment(root)))
    results = {}
    for name in names:
        reference = golden.get(name) if args.seed == DEFAULT_SEED else None
        summary, runner = measure(root, name, args.seed, args.seconds, args.trace, reference)
        report(name, args.seed, summary, runner)
        if summary is None:
            print(f"[{name}] no pass completed", file=sys.stderr)
            continue
        metrics = summary["layers"] if args.trace else summary["end_to_end"]
        results[name] = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        }
    if not results:
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": len(results) == len(names) and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stops a running pass first
    sys.exit(main())
