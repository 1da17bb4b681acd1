import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

settings.register_profile(
    "thinlab",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("thinlab")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
