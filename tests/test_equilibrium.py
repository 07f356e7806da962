import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmpc import equilibrium
from driftmpc.equilibrium import (DriftEquilibrium, SweepCell, default_seed,
                                  dep_sweep, solve_dep, sweep_to_csv)
from driftmpc.errors import (ConfigError, DegenerateSpeedError, FrictionCircleError,
                             GripBranchError, NoConvergenceError)
from driftmpc.vehicle import default_vehicle_params, dynamics

# frozen by a grid-seeded Newton oracle (31x47x41 sweep refined to 1e-13)
ORACLE_52_40 = (18.89651156240952, -0.6343222925251772, 5605.632334191069)
ORACLE_40_30 = (16.41043419964366, -0.5295148680246445, 5054.950663524095)


def residual_norm(eq: DriftEquilibrium, params) -> float:
    return float(np.linalg.norm(dynamics(*eq.as_array().tolist(), params)))


# Oracle: the damped Newton on NumPy arrays; equilibrium._newton, which
# carries its iterate and residuals as floats, must reproduce it bit for bit.

def residual_oracle(z, delta_eq, R_eq, params):
    V, beta, F_xr = z.tolist()
    try:
        dv = dynamics(V, beta, V / R_eq, delta_eq, F_xr, params)
    except (FrictionCircleError, DegenerateSpeedError):
        return None
    return np.array(dv)


def newton_oracle(seed, delta_eq, R_eq, params):
    f_cap = params.F_r_max * (1.0 - 1e-12)
    z = np.array(seed, dtype=float)
    z[0] = max(z[0], 0.5)
    z[2] = min(max(z[2], -f_cap), f_cap)
    res = residual_oracle(z, delta_eq, R_eq, params)
    if res is None:
        return None
    for _ in range(equilibrium.MAX_ITER):
        norm0 = float(np.linalg.norm(res))
        if norm0 < equilibrium.RESIDUAL_TOL:
            return z
        jac = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * (1.0 + abs(z[j]))
            zp = z.copy()
            zp[j] += h
            res_p = residual_oracle(zp, delta_eq, R_eq, params)
            if res_p is None:
                zp[j] -= 2.0 * h
                res_p = residual_oracle(zp, delta_eq, R_eq, params)
                if res_p is None:
                    return None
                jac[:, j] = (res - res_p) / h
            else:
                jac[:, j] = (res_p - res) / h
        try:
            dz = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        accepted = False
        for _ in range(25):
            zt = z + lam * dz
            zt[0] = max(zt[0], 0.5)
            zt[2] = min(max(zt[2], -f_cap), f_cap)
            res_t = residual_oracle(zt, delta_eq, R_eq, params)
            if res_t is not None and float(np.linalg.norm(res_t)) < norm0:
                z, res = zt, res_t
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            return None
    return None


def newton_outcome(newton, *args):
    z = newton(*args)
    return None if z is None else (z.dtype, z.shape, z.tobytes())


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 0.6), st.floats(5.0, 100.0), st.sampled_from([-1.0, 1.0]),
       st.floats(0.3, 1.2),
       st.one_of(st.none(), st.tuples(st.floats(-5.0, 30.0), st.floats(-2.0, 2.0),
                                      st.floats(-1.2, 1.2))),
       st.booleans())
def test_newton_matches_array_oracle(delta, R, sign, mu, seed, as_array):
    """Converging and failing solves alike, from the default seed or a
    random one (outside the speed floor and the friction cap included)."""
    params = replace(default_vehicle_params(), mu=mu)
    R *= sign
    if seed is None:
        seed = default_seed(R, params)
    else:
        seed = (seed[0], seed[1], seed[2] * params.F_r_max)
    if as_array:
        seed = np.array(seed)
    args = (seed, delta, R, params)
    assert newton_outcome(equilibrium._newton, *args) == newton_outcome(newton_oracle, *args)


def test_newton_oracle_grid_covers_both_outcomes(params):
    """solve_dep's seed set over a (delta, R) grid that holds drift, grip
    and non-converging cells: every outcome matches the oracle."""
    outcomes = []
    for delta in np.linspace(-1.0, 0.4, 8):
        for R in (5.0, 12.0, 40.0, -90.0):
            base = default_seed(R, params)
            for seed in (base, (base[0] * 1.6, base[1] * 1.4, base[2]),
                         (base[0] * 0.6, base[1] * 0.7, base[2] * 1.3)):
                args = (seed, float(delta), R, params)
                got = newton_outcome(equilibrium._newton, *args)
                assert got == newton_outcome(newton_oracle, *args)
                outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


class TestSolveDep:
    def test_matches_grid_oracle(self, params):
        eq = solve_dep(-0.52, 40.0, params)
        assert math.isclose(eq.V_eq, ORACLE_52_40[0], abs_tol=1e-5)
        assert math.isclose(eq.beta_eq, ORACLE_52_40[1], abs_tol=1e-7)
        assert math.isclose(eq.F_xr_eq, ORACLE_52_40[2], abs_tol=1e-2)

    def test_second_oracle_point(self, params):
        eq = solve_dep(-0.40, 30.0, params)
        assert math.isclose(eq.V_eq, ORACLE_40_30[0], abs_tol=1e-5)
        assert math.isclose(eq.beta_eq, ORACLE_40_30[1], abs_tol=1e-7)
        assert math.isclose(eq.F_xr_eq, ORACLE_40_30[2], abs_tol=1e-2)

    def test_residual_closes_dynamics_loop(self, params):
        for delta, R in [(-0.52, 40.0), (-0.40, 30.0), (-0.6, 25.0), (-0.3, 60.0)]:
            eq = solve_dep(delta, R, params)
            assert residual_norm(eq, params) < 1e-6

    def test_radius_consistency(self, params):
        for R in (30.0, 60.0):
            eq = solve_dep(-0.52, R, params)
            assert math.isclose(eq.r_eq * eq.R_eq, eq.V_eq, rel_tol=1e-12)

    def test_drift_branch_discipline(self, params):
        eq = solve_dep(-0.52, 40.0, params)
        assert abs(eq.beta_eq) > 0.2
        assert eq.beta_eq * eq.r_eq < 0
        assert eq.delta_eq * eq.r_eq < 0  # counter-steered

    def test_mirror_symmetry(self, params):
        left = solve_dep(-0.52, 40.0, params)
        right = solve_dep(0.52, -40.0, params)
        assert math.isclose(right.V_eq, left.V_eq, rel_tol=1e-8)
        assert math.isclose(right.beta_eq, -left.beta_eq, rel_tol=1e-8)
        assert math.isclose(right.F_xr_eq, left.F_xr_eq, rel_tol=1e-6)

    def test_friction_circle_feasible(self, params):
        F_zr = params.F_zr
        for R in (20.0, 40.0, 80.0):
            eq = solve_dep(-0.45, R, params)
            assert abs(eq.F_xr_eq) <= params.mu * F_zr

    def test_determinism(self, params):
        prev = solve_dep(-0.45, 30.0, params)
        a = solve_dep(-0.52, 40.0, params, prev=prev)
        b = solve_dep(-0.52, 40.0, params, prev=prev)
        assert (a.V_eq, a.beta_eq, a.F_xr_eq) == (b.V_eq, b.beta_eq, b.F_xr_eq)

    def test_warm_start_is_tried_first(self, params):
        # started from an equilibrium of the same cell, Newton converges at
        # once and returns that equilibrium's bits
        eq = solve_dep(-0.52, 40.0, params)
        assert solve_dep(-0.52, 40.0, params, prev=eq) == eq

    def test_radius_domain_guard(self, params):
        with pytest.raises(ConfigError):
            solve_dep(-0.52, 2.0, params)
        with pytest.raises(ConfigError):
            solve_dep(-0.52, 1000.0, params)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_steering_rejected(self, params, delta):
        with pytest.raises(ConfigError, match="delta_eq must be finite"):
            solve_dep(delta, 40.0, params)

    def test_no_convergence_raises(self, params):
        with pytest.raises(NoConvergenceError):
            solve_dep(-0.9, 5.0, params)

    def test_grip_branch_raises(self, params):
        # zero steer on a wide circle only has the low-sideslip solution
        with pytest.raises(GripBranchError):
            solve_dep(0.0, 40.0, params)

    def test_default_seed_sign(self, params):
        s_left = default_seed(40.0, params)
        s_right = default_seed(-40.0, params)
        assert s_left[1] < 0 < s_right[1]

    def test_one_step_hold(self, params):
        # integrating one control period from the equilibrium barely moves
        from driftmpc.vehicle import ControlInput, Pose, step
        eq = solve_dep(-0.52, 40.0, params)
        state, _ = step(eq.state(), Pose(0.0, 0.0, 0.0),
                        ControlInput(eq.delta_eq, eq.F_xr_eq),
                        params, 0.1)
        assert abs(state.V - eq.V_eq) < 1e-4
        assert abs(state.beta - eq.beta_eq) < 1e-4
        assert abs(state.r - eq.r_eq) < 1e-4


def hexes(eq: DriftEquilibrium) -> list[str]:
    return [float.hex(x) for x in (eq.V_eq, eq.beta_eq, eq.r_eq, eq.delta_eq,
                                   eq.F_xr_eq, eq.R_eq)]


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.8, -0.2), st.floats(8.0, 120.0), st.sampled_from([-1.0, 1.0]))
def test_turn_flip_warm_start_is_the_exact_mirror(delta, R, sign):
    """Drift switching: warm-started from an equilibrium of the mirrored
    cell, solve_dep returns that equilibrium mirrored, bit for bit."""
    params = default_vehicle_params()
    delta, R = sign * delta, sign * R
    try:
        eq = solve_dep(delta, R, params)
    except (NoConvergenceError, GripBranchError):
        return
    flipped = solve_dep(-delta, -R, params, prev=eq)
    assert hexes(flipped) == hexes(DriftEquilibrium(
        eq.V_eq, -eq.beta_eq, -eq.r_eq, -eq.delta_eq, eq.F_xr_eq, -eq.R_eq))


class TestDepSweep:
    def test_single_cell_reproduces_solve(self, params):
        cells = dep_sweep([-0.52], [40.0], params)
        assert len(cells) == 1 and cells[0].eq is not None
        direct = solve_dep(-0.52, 40.0, params)
        assert math.isclose(cells[0].eq.V_eq, direct.V_eq, rel_tol=1e-10)

    def test_continuity_over_fine_steps(self, params):
        cells = dep_sweep([-0.52], [40.0, 42.0], params)  # 5% radius step
        assert all(c.eq is not None for c in cells)
        v = [c.eq.V_eq for c in cells]
        assert abs(v[1] - v[0]) / v[0] < 0.2

    def test_failures_recorded_not_raised(self, params):
        cells = dep_sweep([-0.9, -0.52], [5.5, 40.0], params)
        assert len(cells) == 4
        assert any(c.eq is None for c in cells)

    def test_converged_cells_feasible(self, params):
        F_zr = params.F_zr
        cells = dep_sweep(np.linspace(-0.6, -0.3, 4), np.linspace(20, 80, 4), params)
        conv = [c for c in cells if c.eq is not None]
        assert len(conv) >= 12
        for c in conv:
            assert abs(c.eq.F_xr_eq) <= params.mu * F_zr
            assert residual_norm(c.eq, params) < 1e-6

    def test_csv_export(self, params, tmp_path):
        cells = dep_sweep([-0.52], [40.0], params)
        out = tmp_path / "sweep.csv"
        sweep_to_csv(cells, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,R,V,beta,r,Fxr,converged"
        assert len(lines) == 2 and lines[1].endswith(",1")

    def test_csv_bytes(self, tmp_path):
        eq = DriftEquilibrium(V_eq=18.5, beta_eq=-1 / 3, r_eq=0.5, delta_eq=-0.52,
                              F_xr_eq=5605.632334191069, R_eq=37.0)
        cells = [SweepCell(-0.52, 37.0, eq), SweepCell(0.2, 40.0, None)]
        out = tmp_path / "sweep.csv"
        sweep_to_csv(cells, out)
        assert out.read_text() == ("delta,R,V,beta,r,Fxr,converged\n"
                                   "-0.52,37,18.5,-0.333333333333,0.5,5605.63233419,1\n"
                                   "0.2,40,nan,nan,nan,nan,0\n")

    def test_empty_grid_rejected(self, params):
        with pytest.raises(ConfigError):
            dep_sweep([], [40.0], params)


def test_newton_norm_is_numpy_norm():
    """_norm is np.linalg.norm's sqrt of the ddot, to the bit; a Python sum
    of squares rounds differently on about one normal triple in ten here."""
    rng = np.random.default_rng(3)
    triples = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-12, 8, size=(20000, 3))
    triples[:10] = [[0.0, -0.0, 0.0], [1e-300, 1e-300, 0.0], [1e200, 1e200, 1e200],
                    [3.0, 4.0, 0.0], [-1.0, 2.0, -2.0], [1e-8, 0.0, 0.0],
                    [math.inf, 0.0, 1.0], [5605.6, -0.63, 18.9], [1.0, 1.0, 1.0],
                    [-0.0, -0.0, -0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1e200 squared overflows in both
        for t in triples.tolist():
            res = tuple(t)
            assert float.hex(equilibrium._norm(res)) == float.hex(float(np.linalg.norm(res)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False, width=64)] * 3))
def test_newton_norm_is_numpy_norm_on_any_triple(res):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # squares of huge floats overflow in both
        assert float.hex(equilibrium._norm(res)) == float.hex(float(np.linalg.norm(res)))


def test_newton_singular_jacobian_returns_none_quietly(params, monkeypatch):
    """A residual that ignores F_xr gives a Jacobian with a zero column: the
    step solve raises LinAlgError inside _newton, which returns None, and
    no RuntimeWarning escapes the LU gufunc."""
    monkeypatch.setattr(equilibrium, "_residual",
                        lambda V, beta, F_xr, delta_eq, R_eq, params:
                        (V - 12.0, beta + 0.4, V * beta))
    raised = []
    lu_solve = equilibrium._lu_solve

    def spy(a, b):
        try:
            return lu_solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.copy())
            raise

    monkeypatch.setattr(equilibrium, "_lu_solve", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert equilibrium._newton((10.0, -0.5, 1000.0), -0.5, 40.0, params) is None
    assert len(raised) == 1 and not raised[0][:, 2].any()
