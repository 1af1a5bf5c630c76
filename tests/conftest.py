import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mvspde.spectral import OperatorSpec
from mvspde.coefficients import bounded_smooth, linear_test

# simulation-backed property tests are slow per example; keep counts modest
# and deterministic so the suite never flakes on a shared box
settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_SAVED_CACHE_HOME = os.environ.get("XDG_CACHE_HOME")


def pytest_configure(config):
    # the averaged-drift tables' disk cache lives under $XDG_CACHE_HOME: a
    # session directory, exported so that CLI subprocesses inherit it, keeps
    # the suite from reading a stale user cache or writing one
    os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="mvspde-test-cache-")


def pytest_unconfigure(config):
    shutil.rmtree(os.environ["XDG_CACHE_HOME"], ignore_errors=True)
    if _SAVED_CACHE_HOME is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = _SAVED_CACHE_HOME


@pytest.fixture(scope="session")
def spec2():
    return OperatorSpec(n_modes=2, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)


@pytest.fixture(scope="session")
def spec4():
    return OperatorSpec(n_modes=4, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)


@pytest.fixture(scope="session")
def spec8():
    return OperatorSpec(n_modes=8, a=2.0, b=1.0, g=1.0, alpha=1.5, theta=1.0, p=1.0)


@pytest.fixture(scope="session")
def coeffs4(spec4):
    return bounded_smooth(spec4)


@pytest.fixture(scope="session")
def coeffs8(spec8):
    return bounded_smooth(spec8)


@pytest.fixture(scope="session")
def linear2(spec2):
    return linear_test(spec2, a=1.0, c=0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
