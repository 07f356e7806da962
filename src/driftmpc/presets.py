"""Stock parameter values used by the shipped scenarios and tests."""
from __future__ import annotations

from .vehicle import ControlLimits, VehicleParams

MU_NOMINAL = 1.0
MU_SLIPPERY = 0.9      # plant-side friction for the mismatch case


def default_vehicle_params(mu: float = MU_NOMINAL) -> VehicleParams:
    return VehicleParams(m=1830.0, I_z=3234.0, a=1.40, b=1.65,
                         B=8.321, C=1.626, mu=mu)


def default_limits() -> ControlLimits:
    return ControlLimits(delta_min=-1.0, delta_max=1.0,
                         F_min=0.0, F_max=9000.0,
                         d_delta_lim=0.15, d_F_lim=1000.0)
