"""Single-track drift vehicle: parameters, tire forces, dynamics, integration.

The same model runs both as the controller's nominal model and as the
simulation plant; the two differ only through the parameter values they are
given (e.g. the road friction coefficient).
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .errors import ConfigError, DegenerateSpeedError, FrictionCircleError

V_FLOOR = 0.1  # m/s, sideslip is ill-defined below this
MU_NOMINAL = 1.0
MU_SLIPPERY = 0.9      # plant-side friction for the mismatch case


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class VehicleParams:
    m: float       # mass [kg]
    I_z: float     # yaw inertia [kg m^2]
    a: float       # CoG to front axle [m]
    b: float       # CoG to rear axle [m]
    B: float       # tire stiffness factor [-]
    C: float       # tire shape factor [-]
    mu: float      # road friction coefficient [-]
    g: float = 9.81  # gravitational acceleration [m/s^2]

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ConfigError(f"vehicle parameters must be finite, got {astuple(self)}")
        if min(self.m, self.I_z, self.a, self.b, self.B, self.C, self.g) <= 0:
            raise ConfigError("m, I_z, a, b, B, C, g must all be positive")
        if not 0.0 < self.mu <= 2.0:
            raise ConfigError(f"friction coefficient out of range: {self.mu}")
        # derived once per parameter set, as attributes rather than fields so
        # asdict() and the scenario files hold only the values above.  The
        # loads are static: there is no longitudinal weight transfer.
        wheelbase = self.a + self.b
        F_zf = self.m * self.g * self.b / wheelbase
        F_zr = self.m * self.g * self.a / wheelbase
        derived = {"F_zf": F_zf,               # front vertical load [N]
                   "F_zr": F_zr,               # rear vertical load [N]
                   "F_r_max": self.mu * F_zr}  # rear friction-circle radius [N]
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class VehicleState:
    V: float     # absolute velocity at CoG [m/s]
    beta: float  # sideslip angle [rad]
    r: float     # yaw rate [rad/s]


@dataclass(frozen=True)
class ControlInput:
    delta: float  # front steering angle [rad]
    F_xr: float   # rear longitudinal tire force [N]


@dataclass(frozen=True)
class ControlLimits:
    delta_min: float    # [rad]
    delta_max: float    # [rad]
    F_min: float        # [N]
    F_max: float        # [N]
    d_delta_lim: float  # per-step steering change bound [rad]
    d_F_lim: float      # per-step force change bound [N]

    def __post_init__(self):
        if any(map(math.isnan, astuple(self))):
            raise ConfigError(f"control limits must not be NaN, got {astuple(self)}")
        if self.delta_min >= self.delta_max or self.F_min >= self.F_max:
            raise ConfigError("lower input bounds must be below upper bounds")
        if self.d_delta_lim <= 0 or self.d_F_lim <= 0:
            raise ConfigError("rate bounds must be positive")


# stock parameters of the shipped scenarios and tests
def default_vehicle_params(mu: float = MU_NOMINAL) -> VehicleParams:
    return VehicleParams(m=1830.0, I_z=3234.0, a=1.40, b=1.65,
                         B=8.321, C=1.626, mu=mu)


def default_limits() -> ControlLimits:
    return ControlLimits(delta_min=-1.0, delta_max=1.0,
                         F_min=0.0, F_max=9000.0,
                         d_delta_lim=0.15, d_F_lim=1000.0)


@dataclass(frozen=True)
class Pose:
    X: float    # global x position [m]
    Y: float    # global y position [m]
    phi: float  # heading angle, wrapped to (-pi, pi] [rad]


def dynamics(V: float, beta: float, r: float, delta: float, F_xr: float,
             params: VehicleParams) -> tuple[float, float, float]:
    """Continuous-time state derivatives (dV, dbeta, dr) on plain floats.

    The front tire follows the simplified Pacejka model.  The rear tire is
    saturated: its lateral force is the friction-circle remainder after
    F_xr, opposing the rear slip angle.  The two-argument arctangent keeps
    the slip angles valid at large sideslip (|beta| near pi/2).
    """
    if V <= V_FLOOR:
        raise DegenerateSpeedError(f"V={V:.3f} m/s is below {V_FLOOR} m/s")
    sin_b, cos_b = math.sin(beta), math.cos(beta)
    vx, vy = V * cos_b, V * sin_b
    alpha_f = math.atan2(vy + params.a * r, vx) - delta
    alpha_r = math.atan2(vy - params.b * r, vx)
    F_yf = -params.mu * params.F_zf * math.sin(params.C * math.atan(params.B * alpha_f))
    cap = params.F_r_max
    if abs(F_xr) > cap * (1.0 + 1e-12):
        raise FrictionCircleError(
            f"|F_xr|={abs(F_xr):.1f} N exceeds mu*F_zr={cap:.1f} N")
    magnitude = math.sqrt(max(cap * cap - F_xr * F_xr, 0.0))
    if alpha_r > 0.0:
        F_yr = -magnitude
    elif alpha_r < 0.0:
        F_yr = magnitude
    else:
        F_yr = 0.0
    sin_db = math.sin(delta - beta)
    cos_db = math.cos(delta - beta)
    dV = (-F_yf * sin_db + F_yr * sin_b + F_xr * cos_b) / params.m
    dbeta = ((F_yf * cos_db + F_yr * cos_b - F_xr * sin_b)
             / (params.m * V)) - r
    dr = (params.a * F_yf * math.cos(delta) - params.b * F_yr) / params.I_z
    return dV, dbeta, dr


def step(state: VehicleState, pose: Pose, control: ControlInput,
         params: VehicleParams, dt: float,
         substeps: int = 1) -> tuple[VehicleState, Pose]:
    """Advance state and pose by dt using classical RK4.

    The pose propagates kinematically along the course direction phi + beta.
    With substeps > 1 the interval is subdivided, holding the control fixed.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if substeps < 1:
        raise ConfigError("substeps must be at least 1")
    h = dt / substeps
    h2 = 0.5 * h
    h6 = h / 6.0
    V, beta, r = state.V, state.beta, state.r
    X, Y, phi = pose.X, pose.Y, pose.phi
    # stage i evaluates (dV, dbeta, dr) from the model and the pose rates
    # (V cos(phi + beta), V sin(phi + beta), r) kinematically
    delta, F_xr = control.delta, control.F_xr
    for _ in range(substeps):
        dV1, db1, dr1 = dynamics(V, beta, r, delta, F_xr, params)
        c1 = phi + beta
        dX1, dY1 = V * math.cos(c1), V * math.sin(c1)
        V2, b2, r2 = V + h2 * dV1, beta + h2 * db1, r + h2 * dr1
        X2, Y2, p2 = X + h2 * dX1, Y + h2 * dY1, phi + h2 * r
        dV2, db2, dr2 = dynamics(V2, b2, r2, delta, F_xr, params)
        c2 = p2 + b2
        dX2, dY2 = V2 * math.cos(c2), V2 * math.sin(c2)
        V3, b3, r3 = V + h2 * dV2, beta + h2 * db2, r + h2 * dr2
        X3, Y3, p3 = X + h2 * dX2, Y + h2 * dY2, phi + h2 * r2
        dV3, db3, dr3 = dynamics(V3, b3, r3, delta, F_xr, params)
        c3 = p3 + b3
        dX3, dY3 = V3 * math.cos(c3), V3 * math.sin(c3)
        V4, b4, r4 = V + h * dV3, beta + h * db3, r + h * dr3
        X4, Y4, p4 = X + h * dX3, Y + h * dY3, phi + h * r3
        dV4, db4, dr4 = dynamics(V4, b4, r4, delta, F_xr, params)
        c4 = p4 + b4
        dX4, dY4 = V4 * math.cos(c4), V4 * math.sin(c4)
        V, beta, r, X, Y, phi = (
            V + h6 * (dV1 + 2 * dV2 + 2 * dV3 + dV4),
            beta + h6 * (db1 + 2 * db2 + 2 * db3 + db4),
            r + h6 * (dr1 + 2 * dr2 + 2 * dr3 + dr4),
            X + h6 * (dX1 + 2 * dX2 + 2 * dX3 + dX4),
            Y + h6 * (dY1 + 2 * dY2 + 2 * dY3 + dY4),
            phi + h6 * (r + 2 * r2 + 2 * r3 + r4))
    return VehicleState(V, beta, r), Pose(X, Y, wrap_angle(phi))
