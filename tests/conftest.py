import os
import pathlib

import pytest
from hypothesis import HealthCheck, settings

import keplor

settings.register_profile(
    "default",
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def subprocess_env():
    """The environment with this test run's keplor first on PYTHONPATH."""
    src = str(pathlib.Path(keplor.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
