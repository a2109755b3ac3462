"""Flat key-value configuration with section headers, checked against one schema.

``SCHEMA`` holds one entry per tunable: its default and the values it accepts.
A config file (INI syntax), repeated ``--set section.key=value`` overrides and
``--seed`` overlay the defaults.  Each value is parsed to its default's type
(float lists are comma-separated; location lists are semicolon-separated x,y
pairs) and checked against its entry, then the cross-key ``RULES`` are checked.
An unknown key or any violation raises ConfigError before a study starts.
"""

import hashlib
import io
import math
from typing import NamedTuple

from .errors import ConfigError
from .magnets import MARKER_CANDIDATES, MIN_OFFSET_MM
from .pipeline import ADC_MAX
from .sensor import TAXEL_COLS, TAXEL_PITCH_MM


class Key(NamedTuple):
    """A key's default, whose type is the key's, and the values it accepts: numbers
    finite and within ``gt`` (strict), ``ge`` and ``le``, or 0 if ``zero`` (the "off"
    value); a string one of ``choices``, else x,y pairs; a tuple of ``length``."""

    default: object
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    choices: tuple = ()
    length: int | None = None
    zero: bool = False


SCHEMA = {
    "sensor": {
        "magnet_id": Key(2, choices=tuple(c[0] for c in MARKER_CANDIDATES)),
        "gap_mm": Key(3.0, gt=MIN_OFFSET_MM, le=20.0),
    },
    "elastomer": {
        "modulus_kpa": Key(83.0, ge=1.0, le=1e5),
        "fa1_thickness_mm": Key(0.5, gt=0.0, le=10.0),
        "sa2_thickness_mm": Key(3.0, gt=MIN_OFFSET_MM, le=20.0),
        "gauge_factor": Key(2.0, gt=0.0, le=1e3),
        "rest_resistance": Key(845.0, gt=0.0, le=1e6),
        "backlash_mm": Key(0.015, ge=0.0, le=10.0),
        "dead_zone_mm": Key(0.2, ge=0.0, le=10.0),
    },
    "noise": {
        "fa1_sigma_counts": Key(2.0, ge=0.0, le=ADC_MAX),
        "sa2_sigma_ut": Key(1.0, ge=0.0, le=1e4),
        "quantization_ut": Key(0.15, ge=1e-6, le=1e3, zero=True),
    },
    "environment": {
        "earth_field_ut": Key((38.031, 0.0, 32.460), ge=-1e3, le=1e3, length=3),
        "seed": Key(20260814, ge=0),
    },
    "stream": {
        "rate_hz": Key(250, ge=1, le=1_000_000),
        "fingers": Key(2, ge=1, le=255),
        "init_samples": Key(300, ge=1, le=10_000),
        "baseline_tail": Key(100, ge=1, le=10_000),
        "ma_window": Key(6, ge=1, le=1_000),
        "duration_s": Key(1.0, gt=0.0, le=600.0),
        "binary": Key(False),
    },
    "characterize": {
        "locations": Key("4.5,4.5;8.0,4.5;6.25,6.25;4.5,8.0;8.0,8.0", ge=0.0,
                         le=TAXEL_COLS * TAXEL_PITCH_MM),
        "force_max_n": Key(2.0, ge=0.0, le=100.0),
        "force_step_n": Key(0.25, ge=0.01, le=100.0),
        "shear_max_n": Key(1.0, ge=0.0, le=100.0),
        "shear_step_n": Key(0.25, ge=0.01, le=100.0),
        "shear_hold_n": Key(1.0, ge=0.0, le=100.0),
        "probe_radius_mm": Key(5.3, ge=0.5, le=50.0),
        "dwell_frames": Key(40, ge=1, le=1_000),
        "tail_frames": Key(20, ge=1, le=1_000),
    },
    "disturbance": {
        "rotation_deg": Key(60.0, gt=0.0, le=180.0),
        "repeats": Key(3, ge=1, le=100),
        "dwell_frames": Key(150, ge=1, le=1_000),
        "tail_frames": Key(50, ge=1, le=1_000),
    },
    "snr": {
        "dy_min_mm": Key(4.0, ge=0.0, le=100.0),
        "dy_max_mm": Key(30.0, ge=0.0, le=100.0),
        "dy_step_mm": Key(1.0, ge=0.1, le=100.0),
    },
    "grasp": {
        "object": Key("egg", choices=("egg", "none", "rigid", "tweezers")),
        "policy": Key("single", choices=("single", "hysteresis")),
        "threshold": Key(700.0, gt=0.0, le=1e6),
        "close_above": Key(900.0, gt=0.0, le=1e6),
        "release_below": Key(500.0, gt=0.0, le=1e6),
        "hold_s": Key(2.0, ge=0.0, le=3600.0),
        "blend": Key(0.3, ge=0.0, le=1.0),
        "opening_mm": Key(50.0, gt=0.0, le=1e3),
        "pinion_radius_mm": Key(6.0, gt=0.0, le=100.0),
        "increment_deg": Key(1.5, gt=0.0, le=360.0),
        "max_travel_deg": Key(200.0, gt=0.0, le=3600.0),
        "max_ticks": Key(2500, ge=1, le=100_000),
        "egg_size_mm": Key(45.0, gt=0.0, le=1e3),
        "egg_stiffness_n_mm": Key(5.0, gt=0.0, le=1e6),
        "egg_crush_n": Key(25.0, gt=0.0, le=1e6),
        "rigid_size_mm": Key(40.0, gt=0.0, le=1e3),
        "rigid_stiffness_n_mm": Key(500.0, gt=0.0, le=1e6),
        "tweezers_size_mm": Key(6.0, ge=0.0),
        "tweezers_width_mm": Key(30.0, gt=0.0, le=1e3),
        "tweezers_tip_gap_mm": Key(12.0, gt=0.0, le=1e3),
        "tweezers_arm_rate_n_mm": Key(0.02, gt=0.0, le=1e6),
        "tweezers_spring_n_mm": Key(0.2, gt=0.0, le=1e6),
        "tweezers_sizes_mm": Key((2.0, 4.0, 6.0, 8.0, 10.0), ge=0.0),
    },
}

DEFAULTS = {sec: {key: spec.default for key, spec in keys.items()} for sec, keys in SCHEMA.items()}


def _characterize_frames(v) -> int:
    """Frames characterize holds: per location, the init block and each stimulus's dwell."""
    ch = v["characterize"]

    def grid(start, stop, step):  # len(np.arange(start, stop, step)) for step > 0
        return math.ceil((stop - start) / step)

    forces = grid(0.0, ch["force_max_n"] + ch["force_step_n"] / 2, ch["force_step_n"])
    shears = grid(-ch["shear_max_n"], ch["shear_max_n"] + ch["shear_step_n"] / 2, ch["shear_step_n"])
    per_location = v["stream"]["init_samples"] + (forces + 2 * shears) * ch["dwell_frames"]
    return len(_pairs(ch["locations"])) * per_location


# Rules between keys, (rule, holds(values)); checked once every key passed its own entry.
RULES = (
    ("stream.baseline_tail <= stream.init_samples",
     lambda v: v["stream"]["baseline_tail"] <= v["stream"]["init_samples"]),
    ("stream.duration_s * stream.rate_hz gives 1 frame or more, 1,000,000 at most over all fingers",
     lambda v: 1 <= (n := round(v["stream"]["duration_s"] * v["stream"]["rate_hz"]))
     and n * v["stream"]["fingers"] <= 1_000_000),
    ("characterize holds 1,000,000 frames at most: locations * (stream.init_samples"
     " + stimuli * characterize.dwell_frames)",
     lambda v: _characterize_frames(v) <= 1_000_000),
    ("characterize.tail_frames <= characterize.dwell_frames",
     lambda v: v["characterize"]["tail_frames"] <= v["characterize"]["dwell_frames"]),
    ("disturbance.tail_frames <= disturbance.dwell_frames",
     lambda v: v["disturbance"]["tail_frames"] <= v["disturbance"]["dwell_frames"]),
    ("grasp.release_below < grasp.close_above",
     lambda v: v["grasp"]["release_below"] < v["grasp"]["close_above"]),
    ("grasp.tweezers_size_mm and every grasp.tweezers_sizes_mm <= grasp.tweezers_tip_gap_mm",
     lambda v: max(v["grasp"]["tweezers_size_mm"], *v["grasp"]["tweezers_sizes_mm"])
     <= v["grasp"]["tweezers_tip_gap_mm"]),
    ("grasp.tweezers_sizes_mm holds two distinct sizes or more",
     lambda v: len(set(v["grasp"]["tweezers_sizes_mm"])) >= 2),
    # each size is a grasp: a few ms at the defaults, but about 0.15-0.2 s (2 shared cores) at
    # grasp.max_ticks=100000 and grasp.hold_s=3600, where 1,000 sizes run for minutes
    ("grasp.tweezers_sizes_mm holds 1,000 sizes at most",
     lambda v: len(v["grasp"]["tweezers_sizes_mm"]) <= 1000),
    ("snr.dy_min_mm <= snr.dy_max_mm", lambda v: v["snr"]["dy_min_mm"] <= v["snr"]["dy_max_mm"]),
)


_FLAGS = dict(zip(("1", "true", "yes", "on", "0", "false", "no", "off"), [True] * 4 + [False] * 4))


def _pairs(text: str) -> list[tuple[float, float]]:
    return [(float(x), float(y)) for x, y in (chunk.split(",") for chunk in text.split(";"))]


def _parse(text: str, spec: Key):
    """``text`` as the type of the key's default, and the numbers in it."""
    default = spec.default
    if isinstance(default, tuple):
        value = tuple(float(v) for v in text.split(","))
        return value, value
    if isinstance(default, str):
        return text, () if spec.choices else [v for pair in _pairs(text) for v in pair]
    value = _FLAGS[text.lower()] if isinstance(default, bool) else type(default)(text)
    return value, () if isinstance(value, bool) else (value,)


def _value(section: str, key: str, raw):
    """``raw`` parsed to the key's type and checked against the key's entry."""
    spec, name = SCHEMA[section][key], f"{section}.{key}"
    try:
        value, numbers = _parse(str(raw).strip(), spec)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for {name}: {raw!r}") from None
    for v in numbers:
        if not (isinstance(v, int) or math.isfinite(v)):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
        if not (spec.zero and v == 0 or (spec.gt is None or v > spec.gt)
                and (spec.ge is None or v >= spec.ge) and (spec.le is None or v <= spec.le)):
            limits = ((">", spec.gt), (">=", spec.ge), ("<=", spec.le))
            text = " and ".join(f"{op} {bound}" for op, bound in limits if bound is not None)
            raise ConfigError(f"{name} must be {text}{' (or 0)' * spec.zero}, got {raw!r}")
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"{name} must be one of {', '.join(map(str, spec.choices))}, got {raw!r}")
    if spec.length is not None and len(value) != spec.length:
        raise ConfigError(f"{name} takes {spec.length} values, got {len(value)}")
    return value


class Config:
    """Validated effective configuration (defaults + file + overrides)."""

    def __init__(self, values: dict):
        self._values = values

    def get(self, section: str, key: str):
        return self._values[section][key]

    def section(self, section: str) -> dict:
        return dict(self._values[section])

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self._values):
            for key in sorted(self._values[section]):
                value = self._values[section][key]
                if isinstance(value, tuple):
                    value = ",".join(repr(float(v)) for v in value)
                lines.append(f"{section}.{key}={value}")
        return "\n".join(lines)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def locations(self) -> list[tuple[float, float]]:
        return _pairs(self.get("characterize", "locations"))


def load_config(path=None, overrides=(), seed=None) -> Config:
    values = {sec: dict(keys) for sec, keys in DEFAULTS.items()}

    if path is not None:
        import configparser  # here, not at module level: no study run without a file needs it

        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                values[section][key] = _value(section, key, raw)

    for item in overrides:
        key_path, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = key_path.partition(".")
        if not dot or section not in values or key not in values[section]:
            raise ConfigError(f"unknown config key {key_path!r}")
        values[section][key] = _value(section, key, raw)

    if seed is not None:
        values["environment"]["seed"] = _value("environment", "seed", seed)
    for rule, holds in RULES:
        if not holds(values):
            raise ConfigError(f"rule broken: {rule}")
    return Config(values)


def dump_default_config() -> str:
    """Render the built-in defaults as an INI document."""
    import configparser

    parser = configparser.ConfigParser()
    for section, keys in DEFAULTS.items():
        parser[section] = {}
        for key, value in keys.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
