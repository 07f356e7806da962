import math

import numpy as np
import pytest

from driftmpc.equilibrium import (DriftEquilibrium, SweepCell, default_seed,
                                  dep_sweep, solve_dep, sweep_to_csv)
from driftmpc.errors import ConfigError, GripBranchError, NoConvergenceError
from driftmpc.vehicle import dynamics

# frozen by a grid-seeded Newton oracle (31x47x41 sweep refined to 1e-13)
ORACLE_52_40 = (18.89651156240952, -0.6343222925251772, 5605.632334191069)
ORACLE_40_30 = (16.41043419964366, -0.5295148680246445, 5054.950663524095)


def residual_norm(eq: DriftEquilibrium, params) -> float:
    return float(np.linalg.norm(dynamics(*eq.as_array().tolist(), params)))


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
        a = solve_dep(-0.52, 40.0, params, seed=(12.0, -0.4, 4000.0))
        b = solve_dep(-0.52, 40.0, params, seed=(12.0, -0.4, 4000.0))
        assert (a.V_eq, a.beta_eq, a.F_xr_eq) == (b.V_eq, b.beta_eq, b.F_xr_eq)

    def test_radius_domain_guard(self, params):
        with pytest.raises(ConfigError):
            solve_dep(-0.52, 2.0, params)
        with pytest.raises(ConfigError):
            solve_dep(-0.52, 1000.0, params)

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
        from driftmpc.vehicle import Pose, step
        eq = solve_dep(-0.52, 40.0, params)
        state, _ = step(eq.state(), Pose(0.0, 0.0, 0.0), eq.control(),
                        params, 0.1)
        assert abs(state.V - eq.V_eq) < 1e-4
        assert abs(state.beta - eq.beta_eq) < 1e-4
        assert abs(state.r - eq.r_eq) < 1e-4


class TestDepSweep:
    def test_single_cell_reproduces_solve(self, params):
        cells = dep_sweep([-0.52], [40.0], params)
        assert len(cells) == 1 and cells[0].converged
        direct = solve_dep(-0.52, 40.0, params)
        assert math.isclose(cells[0].eq.V_eq, direct.V_eq, rel_tol=1e-10)

    def test_continuity_over_fine_steps(self, params):
        cells = dep_sweep([-0.52], [40.0, 42.0], params)  # 5% radius step
        assert all(c.converged for c in cells)
        v = [c.eq.V_eq for c in cells]
        assert abs(v[1] - v[0]) / v[0] < 0.2

    def test_failures_recorded_not_raised(self, params):
        cells = dep_sweep([-0.9, -0.52], [5.5, 40.0], params)
        assert len(cells) == 4
        bad = [c for c in cells if not c.converged]
        assert bad and all(c.eq is None for c in bad)

    def test_converged_cells_feasible(self, params):
        F_zr = params.F_zr
        cells = dep_sweep(np.linspace(-0.6, -0.3, 4), np.linspace(20, 80, 4), params)
        conv = [c for c in cells if c.converged]
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
        cells = [SweepCell(-0.52, 37.0, eq, True, "ok"),
                 SweepCell(0.2, 40.0, None, False, "GripBranchError")]
        out = tmp_path / "sweep.csv"
        sweep_to_csv(cells, out)
        assert out.read_text() == ("delta,R,V,beta,r,Fxr,converged\n"
                                   "-0.52,37,18.5,-0.333333333333,0.5,5605.63233419,1\n"
                                   "0.2,40,nan,nan,nan,nan,0\n")

    def test_empty_grid_rejected(self, params):
        with pytest.raises(ConfigError):
            dep_sweep([], [40.0], params)
