import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from su3bench import debug_validation

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(params=["double", "single"])
def precision(request):
    return request.param


@pytest.fixture
def debug_checks():
    """Enable debug validation for one test, restoring the prior state."""
    before = debug_validation(True)
    yield
    debug_validation(before)
