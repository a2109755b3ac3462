"""Outside-in tracer for the tacsim benchmark.

The tracer wraps public tacsim functions and methods without touching the
package source.  Modules copy names with ``from .x import y``, so every
module attribute that is the original function object is replaced, not just
the defining one (``sensor.cylinder_flux`` and ``disturbance.cylinder_flux``
as well as ``magnets.cylinder_flux``).  Methods are wrapped on their class.

Each call becomes a span ``(name, start, end, parent, tail)`` kept in memory.
``tail`` is the time the wrapper spent after the call returned (recording
keys and counts); it is charged to the tracer, not to the parent's self
time.  Self time is a span's duration minus its children's durations and
tails.
"""

import sys
import time
from collections import defaultdict

import numpy as np


def _offset_key(args, kwargs, result):
    magnet, offset = args[0], args[1] if len(args) > 1 else kwargs["offset_mm"]
    return (magnet, np.asarray(offset, dtype=float).tobytes())


def _stimulus_key(args, kwargs, result):
    # args: (self, stimulus, timestamp_us[, orientation])
    orientation = args[3] if len(args) > 3 else kwargs.get("orientation")
    if orientation is not None:
        orientation = np.asarray(orientation, dtype=float).tobytes()
    return (args[1], orientation)


def _len_arg0(args, kwargs, result):
    return len(args[0])


def _len_result(args, kwargs, result):
    return len(result)


def _grasp_ticks(args, kwargs, result):
    return len(result.rows) // 2


# (span name, module, attribute path, key function, item-count function)
TARGETS = (
    ("magnets.cylinder_flux", "tacsim.magnets", "cylinder_flux", _offset_key, None),
    ("magnets.calibrate_moment", "tacsim.magnets", "calibrate_moment", None, None),
    ("sensor.sample_fa1", "tacsim.sensor", "sample_fa1", None, None),
    ("sensor.sample_sa2", "tacsim.sensor", "sample_sa2", None, None),
    ("sensor.sample", "tacsim.sensor", "TactileSensor.sample", _stimulus_key, None),
    ("pipeline.process", "tacsim.pipeline", "StreamProcessor.process", None, None),
    ("pipeline.encode", "tacsim.pipeline", "encode_frames", None, _len_arg0),
    ("pipeline.decode", "tacsim.pipeline", "decode_frames", None, _len_result),
    ("pipeline.csv_write", "tacsim.pipeline", "write_frames_csv", None, _len_arg0),
    ("pipeline.csv_read", "tacsim.pipeline", "read_frames_csv", None, _len_result),
    ("estimation.fit_calibration", "tacsim.estimation", "fit_calibration", None, None),
    ("estimation.estimate_force", "tacsim.estimation", "estimate_force", None, None),
    ("estimation.estimate_location", "tacsim.estimation", "estimate_location", None, None),
    ("estimation.estimate_torque", "tacsim.estimation", "estimate_torque", None, None),
    ("disturbance.estimate_earth_field", "tacsim.disturbance", "estimate_earth_field", None, None),
    ("disturbance.adjacent_snr_sweep", "tacsim.disturbance", "adjacent_snr_sweep", None, None),
    ("grasp.controller_step", "tacsim.grasp", "controller_step", None, None),
    ("grasp.grip_signal", "tacsim.grasp", "grip_signal", None, None),
    ("grasp.run", "tacsim.grasp", "GraspSimulation.run", None, _grasp_ticks),
    ("config.load_config", "tacsim.config", "load_config", None, None),
)


class Tracer:
    """Span recorder; ``install`` patches the loaded tacsim modules."""

    def __init__(self):
        self.spans = []  # (name, t0, t1, parent index, tail, ok)
        self.keys = defaultdict(set)
        self.items = defaultdict(int)
        self.missing = []
        self._stack = [-1]

    def wrap(self, name, fn, key_fn=None, count_fn=None):
        spans, stack, keys, items = self.spans, self._stack, self.keys[name], self.items
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), parent, 0.0, False)
                raise
            finally:
                stack.pop()
            t1 = clock()
            if key_fn is not None:
                keys.add(key_fn(args, kwargs, result))
            if count_fn is not None:
                items[name] += count_fn(args, kwargs, result)
            spans[idx] = (name, t0, t1, parent, clock() - t1, True)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target at every tacsim module binding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tacsim" or n.startswith("tacsim."))]
        for name, module_name, path, key_fn, count_fn in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, attr = path.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, key_fn, count_fn)
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent, tail, ok."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, tail, ok) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{tail:.9f}\t{int(ok)}\n")

    def totals(self):
        """Per span name: calls, failed calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, tail, ok in self.spans:
            if parent >= 0:
                child[parent] += (t1 - t0) + tail
        out = defaultdict(lambda: {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, tail, ok) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["failed"] += not ok
            t["incl_s"] += t1 - t0
            t["self_s"] += (t1 - t0) - child[i]
        return out


def _per(value, count, scale=1.0):
    return scale * value / count if count else 0.0


def layer_metrics(tracer, wall_s):
    """The benchmark's per-layer metrics from one traced child run."""
    tot = tracer.totals()
    get = lambda name, field: tot[name][field]  # noqa: E731  (absent names read 0)
    items, keys = tracer.items, tracer.keys
    frames = get("sensor.sample", "calls")
    flux_calls = get("magnets.cylinder_flux", "calls")
    loc_calls = get("estimation.estimate_location", "calls")
    ticks = items["grasp.run"]
    outermost = sum((t1 - t0) + tail for _, t0, t1, parent, tail, _ in tracer.spans if parent < 0)
    return {
        "magnets.cylinder_flux.calls": flux_calls,
        "magnets.cylinder_flux.self_s": get("magnets.cylinder_flux", "self_s"),
        "magnets.cylinder_flux.distinct_ratio": _per(len(keys["magnets.cylinder_flux"]), flux_calls),
        "magnets.calibrate_moment.calls": get("magnets.calibrate_moment", "calls"),
        "sensor.sample_fa1.self_s": get("sensor.sample_fa1", "self_s"),
        "sensor.sample_sa2.self_s": get("sensor.sample_sa2", "self_s"),
        "sensor.sample.self_s": get("sensor.sample", "self_s"),
        "sensor.frames": frames,
        # inclusive sample time = sensor plus field-model self time
        "sensor.us_per_frame": _per(get("sensor.sample", "incl_s"), frames, 1e6),
        "sensor.distinct_stimuli_ratio": _per(len(keys["sensor.sample"]), frames),
        "pipeline.process.self_s": get("pipeline.process", "self_s"),
        "pipeline.process.us_per_frame": _per(
            get("pipeline.process", "self_s"), get("pipeline.process", "calls"), 1e6),
        "pipeline.encode.us_per_frame": _per(
            get("pipeline.encode", "self_s"), items["pipeline.encode"], 1e6),
        "pipeline.decode.us_per_frame": _per(
            get("pipeline.decode", "self_s"), items["pipeline.decode"], 1e6),
        "pipeline.csv_write.us_per_frame": _per(
            get("pipeline.csv_write", "self_s"), items["pipeline.csv_write"], 1e6),
        "pipeline.csv_read.us_per_frame": _per(
            get("pipeline.csv_read", "self_s"), items["pipeline.csv_read"], 1e6),
        "estimation.fit_calibration.self_s": get("estimation.fit_calibration", "self_s"),
        "estimation.estimators.self_s": sum(
            get(f"estimation.estimate_{e}", "self_s") for e in ("force", "location", "torque")),
        "estimation.location_ok_ratio": _per(
            loc_calls - get("estimation.estimate_location", "failed"), loc_calls),
        "disturbance.estimate_earth_field.self_s": get("disturbance.estimate_earth_field", "self_s"),
        "disturbance.adjacent_snr_sweep.self_s": get("disturbance.adjacent_snr_sweep", "self_s"),
        "grasp.ticks": ticks,
        "grasp.controller_step.self_s": get("grasp.controller_step", "self_s"),
        "grasp.grip_signal.self_s": get("grasp.grip_signal", "self_s"),
        "grasp.run.us_per_tick": _per(get("grasp.run", "incl_s"), ticks, 1e6),
        # CLI, schedule glue, per-dwell means and report writing
        "experiments.self_s": wall_s - outermost,
        "config.load_config.self_s": get("config.load_config", "self_s"),
    }
