import numpy as np
import pytest
from hypothesis import settings

from driftmpc.mpc import MpcConfig
from driftmpc.vehicle import default_limits, default_vehicle_params

# every run draws the same examples: seeded from each test, with no example
# database carried over from earlier runs
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(scope="session")
def params():
    return default_vehicle_params()


@pytest.fixture(scope="session")
def limits():
    return default_limits()


@pytest.fixture(scope="session")
def mpc_cfg():
    return MpcConfig()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
