from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from su3bench import BACKEND_NAMES, ROUTINE_NAMES, Backend, get_backend
from su3bench.trace import NATIVE, entry, not_taken

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
def python_paths():
    """A context manager under which every call runs its Python path: each
    backend's ``apply`` and ``batch_apply`` are the class's generic methods,
    and no native entry takes a kernel's call."""
    @contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            for kind in BACKEND_NAMES:
                backend = get_backend(kind)
                for form in ("apply", "batch_apply"):
                    patch.setattr(backend, form, getattr(Backend, form).__get__(backend))
                for routine in ROUTINE_NAMES:
                    patch.setitem(NATIVE, entry(kind, routine), not_taken)
            yield
    return forced
