"""One measured pass over a benchmark workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json

``bench/run.py`` writes SPEC.json and starts this script once per pass.
Set-up ends when ``import tacsim`` returns; the monotonic clock is shared by
every process on the host, so the parent subtracts its own spawn time.
The timed section runs the spec's operations in order: CLI studies through
``tacsim.cli.main`` and read-backs through the public codecs.  Checks and
digests come after the timed section.  A fixed host probe runs just before
and just after it, so the parent can scale the pass's times to a reference
host speed.  The result goes to ``spec["result"]``.
"""

import time

import tacsim  # noqa: F401  (set-up ends when this returns)

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tacsim import cli, grasp, pipeline  # noqa: E402

PROBE_ROUNDS = 14000  # per half: one before the timed section, one after


def host_probe(rounds):
    """Seconds for a fixed piece of work shaped like the studies' inner loop.

    Small-array numpy calls, random draws and Python arithmetic, none of it
    from tacsim, so no change to the program moves it; only the host's speed
    does.  The parent divides study time by it to cancel the drift of a
    shared host's speed over minutes.
    """
    rng = np.random.default_rng(1)
    grid = np.arange(16, dtype=float).reshape(4, 4)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(rounds):
        w = np.exp(-((grid - i % 5) ** 2) / 8.0)
        counts = np.clip(np.rint(w * 100.0 + rng.normal(0.0, 1.0, (4, 4))), 0, 255).astype(int)
        v = np.array([i * 0.1, 1.0, 2.0])
        acc += float(np.linalg.norm(v)) + float(counts.sum()) + math.hypot(i, acc % 3.0)
    return time.perf_counter() - t0


def _frame_arrays(frames):
    frames = list(frames)
    return (
        np.array([int(f.timestamp_us) for f in frames], dtype=np.int64),
        np.array([int(f.finger_id) for f in frames], dtype=np.int64),
        np.array([np.asarray(f.fa1).ravel() for f in frames], dtype=np.int64),
        np.array([np.asarray(f.sa2, dtype=np.float32) for f in frames]).view(np.uint32),
    )


def _same_frames(got, want):
    """Exact equality: timestamps, finger ids, counts, flux bit patterns."""
    a, b = _frame_arrays(got), _frame_arrays(want)
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(tacsim.__file__).resolve().parents:
        print(f"tacsim imported from {tacsim.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = Path(spec["out"])

    # Outside-in capture of what the studies return (the stream frames as
    # written) and of the frames each grasp simulation produced.
    returned = []
    for name, fn in list(cli.COMMANDS.items()):
        def recording(cfg, out_dir, _fn=fn):
            result = _fn(cfg, out_dir)
            returned.append(result)
            return result
        cli.COMMANDS[name] = recording
    grasp_frames = [0]
    original_run = grasp.GraspSimulation.run

    def counted_run(self, *args, **kwargs):
        trace = original_run(self, *args, **kwargs)
        grasp_frames[0] += len(trace.rows)  # one row per finger per tick
        return trace

    grasp.GraspSimulation.run = counted_run

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # beside this script, first on sys.path

        tracer = Tracer()
        tracer.install()

    ops = spec["ops"]
    records = [{"label": op["label"], "ok": True, "why": ""} for op in ops]
    values = {}
    probe_s = host_probe(PROBE_ROUNDS)
    t_start = time.perf_counter()
    for op, rec in zip(ops, records):
        try:
            if op["kind"] == "study":
                returned.clear()
                code = cli.main(op["argv"] + ["--out", str(out / op["label"])])
                if code != 0:
                    rec.update(ok=False, why=f"exit code {code}")
                values[op["label"]] = returned[0] if returned else None
            elif op["kind"] == "decode":
                values[op["label"]] = pipeline.decode_frames((out / op["file"]).read_bytes())
            else:
                values[op["label"]] = pipeline.read_frames_csv(out / op["file"])
        except (Exception, SystemExit) as exc:
            rec.update(ok=False, why=f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - t_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_s += host_probe(PROBE_ROUNDS)

    for op, rec in zip(ops, records):
        if not rec["ok"]:
            continue
        if op["kind"] == "study":
            rec["digests"] = _digests(out / op["label"])
            continue
        try:
            written = values[op["of"]].frames
            if not _same_frames(values[op["label"]], written):
                rec.update(ok=False, why="round trip: frames read back differ from frames written")
        except Exception as exc:
            rec.update(ok=False, why=f"round trip: {type(exc).__name__}: {exc}")

    result = {
        "ready": READY,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "rss_mb": rss_kb / 1024.0,
        "grasp_frames": grasp_frames[0],
        "ops": records,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, wall_s)
        result["missing"] = tracer.missing
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
