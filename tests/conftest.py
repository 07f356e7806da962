import numpy as np
import pytest

from driftmpc.mpc import MpcConfig
from driftmpc.vehicle import default_limits, default_vehicle_params


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
