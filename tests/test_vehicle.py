import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmpc import vehicle
from driftmpc.errors import (ConfigError, DegenerateSpeedError, DriftMpcError,
                             FrictionCircleError)
from driftmpc.vehicle import (V_FLOOR, ControlInput, ControlLimits, Pose,
                              VehicleParams, VehicleState, default_limits,
                              default_vehicle_params, dynamics, step, wrap_angle)

# Oracle: the model as separate tire helpers over the state and input
# dataclasses; the float kernel `dynamics` must reproduce it bit for bit.


def static_loads(params: VehicleParams) -> tuple[float, float]:
    """Static front/rear vertical loads (F_zf, F_zr) in N."""
    wheelbase = params.a + params.b
    F_zf = params.m * params.g * params.b / wheelbase
    F_zr = params.m * params.g * params.a / wheelbase
    return F_zf, F_zr


def slip_angles(state: VehicleState, delta: float,
                params: VehicleParams) -> tuple[float, float]:
    """Front and rear tire sideslip angles (alpha_f, alpha_r) in rad."""
    if state.V <= V_FLOOR:
        raise DegenerateSpeedError(f"V={state.V:.3f} m/s is below {V_FLOOR} m/s")
    vx = state.V * math.cos(state.beta)
    vy = state.V * math.sin(state.beta)
    alpha_f = math.atan2(vy + params.a * state.r, vx) - delta
    alpha_r = math.atan2(vy - params.b * state.r, vx)
    return alpha_f, alpha_r


def lateral_force(alpha: float, F_z: float, params: VehicleParams) -> float:
    """Lateral tire force from the simplified Pacejka model [N]."""
    return -params.mu * F_z * math.sin(params.C * math.atan(params.B * alpha))


def rear_lateral_force(F_xr: float, F_zr: float, params: VehicleParams,
                       alpha_r: float) -> float:
    """Rear lateral force from the friction circle [N], opposing alpha_r."""
    cap = params.mu * F_zr
    if abs(F_xr) > cap * (1.0 + 1e-12):
        raise FrictionCircleError(
            f"|F_xr|={abs(F_xr):.1f} N exceeds mu*F_zr={cap:.1f} N")
    magnitude = math.sqrt(max(cap * cap - F_xr * F_xr, 0.0))
    if alpha_r > 0.0:
        return -magnitude
    if alpha_r < 0.0:
        return magnitude
    return 0.0


def dynamics_oracle(state: VehicleState, control: ControlInput,
                    params: VehicleParams) -> tuple[float, float, float]:
    """Continuous-time state derivatives (dV, dbeta, dr)."""
    alpha_f, alpha_r = slip_angles(state, control.delta, params)
    F_zf, F_zr = static_loads(params)
    F_yf = lateral_force(alpha_f, F_zf, params)
    F_yr = rear_lateral_force(control.F_xr, F_zr, params, alpha_r)
    delta, beta = control.delta, state.beta
    sin_b, cos_b = math.sin(beta), math.cos(beta)
    sin_db = math.sin(delta - beta)
    cos_db = math.cos(delta - beta)
    dV = (-F_yf * sin_db + F_yr * sin_b + control.F_xr * cos_b) / params.m
    dbeta = ((F_yf * cos_db + F_yr * cos_b - control.F_xr * sin_b)
             / (params.m * state.V)) - state.r
    dr = (params.a * F_yf * math.cos(delta) - params.b * F_yr) / params.I_z
    return dV, dbeta, dr


def _deriv6(z: tuple, control: ControlInput, params: VehicleParams) -> tuple:
    V, beta, r, _, _, phi = z
    dV, dbeta, dr = dynamics(V, beta, r, control.delta, control.F_xr, params)
    course = phi + beta
    return (dV, dbeta, dr, V * math.cos(course), V * math.sin(course), r)


def rk4_tuple_loop(state, pose, control, params, dt, substeps):
    """Oracle: RK4 over the six-tuple (V, beta, r, X, Y, phi), written as
    per-component generator loops; step must reproduce it bit for bit."""
    h = dt / substeps
    z = (state.V, state.beta, state.r, pose.X, pose.Y, pose.phi)
    for _ in range(substeps):
        k1 = _deriv6(z, control, params)
        z2 = tuple(z[i] + 0.5 * h * k1[i] for i in range(6))
        k2 = _deriv6(z2, control, params)
        z3 = tuple(z[i] + 0.5 * h * k2[i] for i in range(6))
        k3 = _deriv6(z3, control, params)
        z4 = tuple(z[i] + h * k3[i] for i in range(6))
        k4 = _deriv6(z4, control, params)
        z = tuple(z[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                  for i in range(6))
    return (z[0], z[1], z[2], z[3], z[4], wrap_angle(z[5]))


def test_wrap_angle_range():
    for a in [-7.0, -math.pi, 0.0, math.pi, 3 * math.pi / 2, 10.0]:
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        VehicleParams(m=-1, I_z=1, a=1, b=1, B=1, C=1, mu=1)
    with pytest.raises(ConfigError):
        VehicleParams(m=1, I_z=1, a=1, b=1, B=1, C=1, mu=2.5)
    for g in (0.0, -9.81):  # the rear friction cap would be zero or negative
        with pytest.raises(ConfigError, match="must all be positive"):
            replace(default_vehicle_params(), g=g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(VehicleParams)])
def test_non_finite_params_rejected(name, bad):
    with pytest.raises(ConfigError, match="finite"):
        replace(default_vehicle_params(), **{name: bad})


@pytest.mark.parametrize("name", [f.name for f in fields(ControlLimits)])
def test_nan_limits_rejected(name):
    with pytest.raises(ConfigError, match="NaN"):
        replace(default_limits(), **{name: math.nan})


@pytest.mark.parametrize("change, match", [
    ({"delta_min": 1.0}, "lower input bounds"), ({"F_max": -1.0}, "lower input bounds"),
    ({"d_delta_lim": 0.0}, "rate bounds"), ({"d_F_lim": -1000.0}, "rate bounds")])
def test_limits_out_of_order_or_without_rate_rejected(change, match):
    with pytest.raises(ConfigError, match=match):
        replace(default_limits(), **change)


class TestSlipAngles:
    def test_straight_symmetric(self, params):
        af, ar = slip_angles(VehicleState(10.0, 0.0, 0.0), 0.0, params)
        assert af == 0.0 and ar == 0.0

    def test_steering_only_shifts_front(self, params):
        af, ar = slip_angles(VehicleState(10.0, 0.0, 0.0), 0.1, params)
        assert math.isclose(af, -0.1, abs_tol=1e-15)
        assert ar == 0.0

    def test_drift_state_matches_formula_oracle(self, params):
        # frozen from a direct scalar evaluation of the slip-angle formulas
        af, ar = slip_angles(VehicleState(8.0, -0.6, 1.2), -0.3, params)
        assert math.isclose(af, -0.105840507898057, abs_tol=1e-12)
        assert math.isclose(ar, -0.777341349604249, abs_tol=1e-12)

    def test_degenerate_speed_raises(self, params):
        with pytest.raises(DegenerateSpeedError):
            slip_angles(VehicleState(0.05, 0.0, 0.0), 0.0, params)


class TestLateralForce:
    def test_zero_slip(self, params):
        assert lateral_force(0.0, 9000.0, params) == 0.0

    def test_saturation_limit(self, params):
        limit = -params.mu * 9000.0 * math.sin(params.C * math.pi / 2)
        assert math.isclose(lateral_force(1e9, 9000.0, params), limit, rel_tol=1e-6)

    def test_formula_oracle(self, params):
        # frozen: -1.0 * 9000 * sin(1.626 * atan(8.321 * 0.1))
        assert math.isclose(lateral_force(0.1, 9000.0, params),
                            -8133.787336593601, abs_tol=1e-9)

    def test_bounded_and_odd(self, params, rng):
        for _ in range(200):
            alpha = rng.uniform(-3, 3)
            F_z = rng.uniform(100, 20000)
            f = lateral_force(alpha, F_z, params)
            assert abs(f) <= params.mu * F_z + 1e-9
            assert math.isclose(f, -lateral_force(-alpha, F_z, params), abs_tol=1e-9)


class TestRearLateralForce:
    def test_fully_longitudinal(self, params):
        cap = params.mu * 8000.0
        assert rear_lateral_force(cap, 8000.0, params, -0.5) == 0.0

    def test_fully_lateral(self, params):
        f = rear_lateral_force(0.0, 8000.0, params, -0.5)
        assert math.isclose(abs(f), params.mu * 8000.0, rel_tol=1e-12)

    def test_magnitude_oracle(self):
        p = VehicleParams(m=1830.0, I_z=3234.0, a=1.40, b=1.65,
                          B=8.321, C=1.626, mu=0.9)
        f = rear_lateral_force(4000.0, 8500.0, p, -0.3)
        assert math.isclose(abs(f), 6520.927848090331, abs_tol=1e-8)

    def test_sign_opposes_rear_slip(self, params):
        assert rear_lateral_force(1000.0, 8000.0, params, 0.4) < 0
        assert rear_lateral_force(1000.0, 8000.0, params, -0.4) > 0

    def test_violation_raises(self, params):
        with pytest.raises(FrictionCircleError):
            rear_lateral_force(9000.0, 8000.0, params, -0.5)

    def test_friction_circle_identity(self, params, rng):
        F_zr = 8240.4
        cap = params.mu * F_zr
        for _ in range(100):
            F_xr = rng.uniform(-cap, cap)
            f = rear_lateral_force(F_xr, F_zr, params, -0.4)
            assert math.isclose(F_xr**2 + f**2, cap**2, rel_tol=1e-12)


class TestStaticLoads:
    def test_stock_values(self, params):
        F_zf, F_zr = params.F_zf, params.F_zr
        assert math.isclose(F_zf, 1830.0 * 9.81 * 1.65 / 3.05, rel_tol=1e-12)
        assert math.isclose(F_zr, 1830.0 * 9.81 * 1.40 / 3.05, rel_tol=1e-12)
        assert math.isclose(F_zf, 9711.9, abs_tol=0.05)
        assert math.isclose(F_zr, 8240.4, abs_tol=0.05)

    def test_sum_is_weight(self, params):
        F_zf, F_zr = params.F_zf, params.F_zr
        assert math.isclose(F_zf + F_zr, params.m * params.g, rel_tol=1e-14)

    def test_symmetric_wheelbase(self):
        p = VehicleParams(m=1000.0, I_z=2000.0, a=1.5, b=1.5, B=8.0, C=1.6, mu=1.0)
        F_zf, F_zr = p.F_zf, p.F_zr
        assert math.isclose(F_zf, F_zr, rel_tol=1e-14)
        assert math.isclose(F_zf, 0.5 * p.m * p.g, rel_tol=1e-14)

    def test_derived_values_are_not_fields(self, params):
        assert [f.name for f in fields(VehicleParams)] == [
            "m", "I_z", "a", "b", "B", "C", "mu", "g"]
        assert set(asdict(params)) == {f.name for f in fields(VehicleParams)}

    @pytest.mark.parametrize("mu", [0.3, 0.9, 1.2])
    def test_derived_values_follow_replace(self, params, mu):
        p = replace(params, mu=mu)
        F_zf, F_zr = static_loads(p)
        assert (p.F_zf, p.F_zr) == (F_zf, F_zr) == (params.F_zf, params.F_zr)
        assert p.F_r_max == mu * F_zr
        moved = replace(p, a=1.65, b=1.40)
        assert (moved.F_zf, moved.F_zr) == static_loads(moved)
        assert moved.F_r_max == mu * moved.F_zr != p.F_r_max


class TestDynamics:
    def test_coasting_straight_is_stationary(self, params):
        dV, dbeta, dr = dynamics(10.0, 0.0, 0.0, 0.0, 0.0, params)
        assert dV == 0.0 and dbeta == 0.0 and dr == 0.0

    def test_mass_scaling_structure(self, params):
        # doubling m while halving g keeps every tire force identical, so
        # the translational accelerations must halve and the yaw one stay
        V, beta, r, delta, F_xr = 12.0, -0.5, 0.4, -0.3, 3000.0
        heavy = VehicleParams(m=2 * params.m, I_z=params.I_z, a=params.a,
                              b=params.b, B=params.B, C=params.C,
                              mu=params.mu, g=params.g / 2)
        dV1, db1, dr1 = dynamics(V, beta, r, delta, F_xr, params)
        dV2, db2, dr2 = dynamics(V, beta, r, delta, F_xr, heavy)
        assert math.isclose(dV2, dV1 / 2, rel_tol=1e-12)
        assert math.isclose(db2 + r, (db1 + r) / 2, rel_tol=1e-12)
        assert math.isclose(dr2, dr1, rel_tol=1e-12)


def _bits(values) -> tuple:
    return tuple(float(v).hex() for v in values)


_KERNEL_ARGS = dict(
    V=st.one_of(st.floats(-1.0, 2 * V_FLOOR), st.floats(0.0, 40.0)),
    beta=st.floats(-3.5, 3.5), r=st.floats(-3.0, 3.0), delta=st.floats(-1.2, 1.2),
    # at the friction-circle cap, inside and outside its 1e-12 tolerance
    force_frac=st.one_of(st.sampled_from([-1.0, 1.0, 1.0 + 1e-13, -1.0 - 1e-11,
                                          1.0 + 1e-11]),
                         st.floats(-1.2, 1.2)),
    mu=st.floats(0.05, 2.0))


@settings(max_examples=500, deadline=None)
@given(**_KERNEL_ARGS)
@example(V=10.0, beta=0.0, r=0.0, delta=0.1, force_frac=0.5, mu=1.0)  # alpha_r = 0
@example(V=V_FLOOR, beta=0.3, r=0.1, delta=0.0, force_frac=1.5, mu=1.0)
@example(V=0.05, beta=-0.5, r=0.4, delta=-0.3, force_frac=-2.0, mu=0.9)
def test_kernel_matches_helper_oracle(V, beta, r, delta, force_frac, mu):
    params = default_vehicle_params(mu)
    F_xr = force_frac * mu * static_loads(params)[1]
    try:
        expected = dynamics_oracle(VehicleState(V, beta, r),
                                   ControlInput(delta, F_xr), params)
    except DriftMpcError as exc:
        # below the speed floor the speed error wins over an over-cap force
        with pytest.raises(type(exc)):
            dynamics(V, beta, r, delta, F_xr, params)
        return
    assert _bits(dynamics(V, beta, r, delta, F_xr, params)) == _bits(expected)


@settings(max_examples=200, deadline=None)
@given(**_KERNEL_ARGS)
def test_kernel_mirror_symmetry(V, beta, r, delta, force_frac, mu):
    params = default_vehicle_params(mu)
    F_xr = force_frac * params.F_r_max
    try:
        dV, dbeta, dr = dynamics(V, beta, r, delta, F_xr, params)
    except DriftMpcError as exc:
        with pytest.raises(type(exc)):
            dynamics(V, -beta, -r, -delta, F_xr, params)
        return
    assert dynamics(V, -beta, -r, -delta, F_xr, params) == (dV, -dbeta, -dr)


class TestStep:
    def test_straight_coasting_advances_x(self, params):
        s, p = step(VehicleState(10.0, 0.0, 0.0), Pose(0.0, 0.0, 0.0),
                    ControlInput(0.0, 0.0), params, 0.5)
        assert math.isclose(p.X, 5.0, rel_tol=1e-12)
        assert p.Y == 0.0
        assert s.V == 10.0

    def test_small_dt_limit(self, params):
        s0 = VehicleState(12.0, -0.4, 0.5)
        p0 = Pose(1.0, 2.0, 0.3)
        s, p = step(s0, p0, ControlInput(-0.3, 4000.0), params, 1e-8)
        assert math.isclose(s.V, s0.V, abs_tol=1e-6)
        assert math.isclose(s.beta, s0.beta, abs_tol=1e-8)
        assert math.isclose(p.X, p0.X, abs_tol=1e-6)

    def test_rk4_order(self, params):
        # halving dt must shrink the one-step error by at least 2^3 against
        # a much finer reference on a smooth segment
        s0 = VehicleState(15.0, -0.5, 0.45)
        p0 = Pose(0.0, 0.0, 0.2)
        u = ControlInput(-0.45, 5000.0)

        def error(dt, substeps):
            s, p = step(s0, p0, u, params, dt, substeps)
            s_ref, p_ref = step(s0, p0, u, params, dt, substeps * 100)
            a = np.array([s.V, s.beta, s.r, p.X, p.Y, p.phi])
            b = np.array([s_ref.V, s_ref.beta, s_ref.r, p_ref.X, p_ref.Y, p_ref.phi])
            return np.linalg.norm(a - b)

        e1 = error(0.2, 1)
        e2 = error(0.1, 1)
        assert e1 / e2 >= 8.0

    def test_substep_equivalence(self, params):
        s0 = VehicleState(15.0, -0.5, 0.45)
        p0 = Pose(0.0, 0.0, 0.2)
        u = ControlInput(-0.45, 5000.0)
        s_a, p_a = step(s0, p0, u, params, 0.1, substeps=10)
        s_b, p_b = step(s0, p0, u, params, 0.01, substeps=1)
        for _ in range(9):
            s_b, p_b = step(s_b, p_b, u, params, 0.01, substeps=1)
        assert math.isclose(s_a.V, s_b.V, rel_tol=1e-12)
        assert math.isclose(p_a.X, p_b.X, rel_tol=1e-12)

    def test_plant_model_bit_identity(self):
        # mismatch lives only in parameter values: identical params and
        # inputs give bit-identical trajectories
        p1 = VehicleParams(m=1830.0, I_z=3234.0, a=1.40, b=1.65,
                           B=8.321, C=1.626, mu=0.9)
        p2 = VehicleParams(m=1830.0, I_z=3234.0, a=1.40, b=1.65,
                           B=8.321, C=1.626, mu=0.9)
        s0 = VehicleState(14.0, -0.6, 0.5)
        pose0 = Pose(0.0, 0.0, 0.0)
        u = ControlInput(-0.5, 5000.0)
        sa, pa = step(s0, pose0, u, p1, 0.1, substeps=10)
        sb, pb = step(s0, pose0, u, p2, 0.1, substeps=10)
        assert (sa.V, sa.beta, sa.r) == (sb.V, sb.beta, sb.r)
        assert (pa.X, pa.Y, pa.phi) == (pb.X, pb.Y, pb.phi)

    def test_invalid_dt(self, params):
        with pytest.raises(ConfigError):
            step(VehicleState(10, 0, 0), Pose(0, 0, 0),
                 ControlInput(0, 0), params, 0.0)

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_invalid_substeps(self, params, substeps):
        with pytest.raises(ConfigError):
            step(VehicleState(10, 0, 0), Pose(0, 0, 0),
                 ControlInput(0, 0), params, 0.1, substeps=substeps)

    @pytest.mark.parametrize("substeps", [1, 3, 10])
    def test_dynamics_calls_per_substep(self, params, monkeypatch, substeps):
        calls = []

        def counting(*args):
            calls.append(1)
            return dynamics(*args)

        monkeypatch.setattr(vehicle, "dynamics", counting)
        step(VehicleState(14.0, -0.6, 0.5), Pose(0.0, 0.0, 0.0),
             ControlInput(-0.5, 5000.0), params, 0.1, substeps=substeps)
        assert len(calls) == 4 * substeps


_MU = st.floats(0.3, 1.2)


@settings(max_examples=200, deadline=None)
@given(V=st.floats(0.5, 30.0), beta=st.floats(-1.2, 1.2), r=st.floats(-2.0, 2.0),
       X=st.floats(-200.0, 200.0), Y=st.floats(-200.0, 200.0),
       phi=st.floats(-math.pi, math.pi), delta=st.floats(-1.0, 1.0),
       force_frac=st.floats(-1.0, 1.0), mu=_MU,
       dt=st.floats(1e-3, 0.5), substeps=st.integers(1, 12))
def test_step_matches_tuple_loop_oracle(V, beta, r, X, Y, phi, delta,
                                        force_frac, mu, dt, substeps):
    params = default_vehicle_params(mu)
    F_xr = force_frac * params.F_r_max
    args = (VehicleState(V, beta, r), Pose(X, Y, phi),
            ControlInput(delta, F_xr), params, dt, substeps)
    try:
        expected = rk4_tuple_loop(*args)
    except DriftMpcError as exc:
        with pytest.raises(type(exc)):
            step(*args)
        return
    s, p = step(*args)
    assert (s.V, s.beta, s.r, p.X, p.Y, p.phi) == expected
