import numpy as np
import pytest

from tacsim.magnets import default_magnet
from tacsim.record import replace
from tacsim.sensor import ElastomerSpec, Environment, TactileSensor


@pytest.fixture
def elastomer():
    return ElastomerSpec()


@pytest.fixture
def quiet_env():
    """No noise, no quantization: deterministic physics only."""
    return Environment(fa1_noise_counts=0.0, sa2_noise_ut=0.0, quantization_ut=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# where finger 0 of a pair differs from finger 1; a front end computes one
# noise-free response for fingers that differ nowhere ("same")
FINGER_0_DIFFERS = {
    "earth": {"earth_field_ut": (0.0, 0.0, 0.0)},
    "same": {},
    "magnet": {"magnet": replace(default_magnet(), moment_a_m2=1.25 * default_magnet().moment_a_m2)},
    "elastomer": {"elastomer": ElastomerSpec(modulus_kpa=90.0)},
}


def _two_fingers(fingers: str, seed, **noise) -> list:
    """Finger f seeded ``(seed, f)``, library-default magnet and elastomer in a
    (25, -10, 40) uT earth field, but for what ``FINGER_0_DIFFERS[fingers]``
    gives finger 0."""
    sensors = []
    for f in range(2):
        spec = {"magnet": None, "elastomer": ElastomerSpec(), "earth_field_ut": (25.0, -10.0, 40.0)}
        spec.update(FINGER_0_DIFFERS[fingers] if f == 0 else {})
        env = Environment(seed=(seed, f), earth_field_ut=spec["earth_field_ut"], **noise)
        sensors.append(TactileSensor(spec["magnet"], spec["elastomer"], env, finger_id=f))
    return sensors


@pytest.fixture
def two_fingers():
    """``two_fingers(fingers, seed, **noise)``: a fresh pair of sensors, finger 0
    differing from finger 1 in ``fingers`` (a key of ``FINGER_0_DIFFERS``)."""
    return _two_fingers
