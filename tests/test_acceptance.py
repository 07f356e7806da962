"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line when it holds.  The closed-loop criteria share tuned
parameters through session fixtures, mirroring the intended workflow
(baseline -> single-law learning -> full learning -> mismatch transfer).
"""
import math
import time

import numpy as np
import pytest

from driftmpc.bo import ThetaBounds, bo_loop, expected_improvement
from driftmpc.equilibrium import dep_sweep, solve_dep
from driftmpc.gp import GpDataset, gp_fit, gp_predict_batch, matern52_matrix
from driftmpc.harness import case_scenario, run_episode, tune
from driftmpc.mpc import augment, condense, linearize, solve_mpc
from driftmpc.paths import ClothoidSpec
from driftmpc.vehicle import default_vehicle_params, dynamics, step

SEED = 0


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --------------------------------------------------------------------------
# shared tuned results (criteria 7 and 8)

@pytest.fixture(scope="session")
def case1_tuned():
    results = {}
    sc_apt = case_scenario(case=1, mode="apt")
    results["apt"] = tune(sc_apt, init=20, budget=120, seed=SEED)
    sc_dep = case_scenario(case=1, mode="dep")
    results["dep"] = tune(sc_dep, init=20, budget=120, seed=SEED)
    sc_al = case_scenario(case=1, mode="almpc")
    results["almpc"] = tune(sc_al, init=20, budget=140, seed=SEED,
                            extra_init=[results["apt"].theta_star,
                                        results["dep"].theta_star])
    return results


class TestCriterion1EquilibriumSweep:
    def test_sweep_converges_with_valid_residuals(self):
        params = default_vehicle_params(mu=1.0)
        t0 = time.time()
        cells = dep_sweep(np.linspace(-0.6, -0.3, 10),
                          np.linspace(20.0, 80.0, 10), params)
        elapsed = time.time() - t0
        conv = [c for c in cells if c.eq is not None]
        frac = len(conv) / len(cells)
        worst_resid = 0.0
        circle_ok = True
        F_zr = params.F_zr
        for c in conv:
            resid = np.linalg.norm(dynamics(*c.eq.as_array().tolist(), params))
            worst_resid = max(worst_resid, float(resid))
            circle_ok &= abs(c.eq.F_xr_eq) <= params.mu * F_zr
        ok = frac >= 0.9 and worst_resid < 1e-6 and circle_ok and elapsed < 5.0
        _report(1, "equilibrium sweep", ok,
                f"(converged {frac:.0%}, worst residual {worst_resid:.2e}, "
                f"{elapsed:.2f}s)")


class TestCriterion2LinearizationFidelity:
    def test_two_schemes_agree_and_affine_identity(self):
        params = default_vehicle_params()
        pairs = [(-0.52, 40.0), (-0.45, 30.0), (-0.40, 55.0),
                 (-0.35, 70.0), (-0.58, 25.0)]
        worst_rel = 0.0
        worst_affine = 0.0
        for delta, R in pairs:
            dep = solve_dep(delta, R, params)
            lin = linearize(dep, params, 0.1)
            x_eq = np.array([dep.V_eq, dep.beta_eq, dep.r_eq])
            u_eq = np.array([dep.delta_eq, dep.F_xr_eq])

            def f(x, u):
                return np.array(dynamics(*x, *u, params))

            f0 = f(x_eq, u_eq)
            A_fw = np.empty((3, 3))
            B_fw = np.empty((3, 2))
            for j in range(3):
                h = 1e-7 * (1 + abs(x_eq[j]))
                xp = x_eq.copy()
                xp[j] += h
                A_fw[:, j] = (f(xp, u_eq) - f0) / h
            for j in range(2):
                h = 1e-7 * (1 + abs(u_eq[j]))
                up = u_eq.copy()
                up[j] += h
                B_fw[:, j] = (f(x_eq, up) - f0) / h
            A_c = (lin.A - np.eye(3)) / 0.1
            B_c = lin.B / 0.1
            worst_rel = max(worst_rel,
                            float(np.abs(A_c - A_fw).max() / np.abs(A_fw).max()),
                            float(np.abs(B_c - B_fw).max() / np.abs(B_fw).max()))
            worst_affine = max(worst_affine, float(np.abs(
                lin.A @ x_eq + lin.B @ u_eq + lin.d - x_eq).max()))
        ok = worst_rel < 1e-4 and worst_affine < 1e-10
        _report(2, "linearization fidelity", ok,
                f"(scheme mismatch {worst_rel:.2e}, affine {worst_affine:.2e})")


class TestCriterion3QpOptimality:
    def test_kkt_and_saturation(self, limits, mpc_cfg):
        params = default_vehicle_params()
        dep = solve_dep(-0.52, 40.0, params)
        hz = condense(augment(linearize(dep, params, mpc_cfg.dT)), mpc_cfg)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(100):
            xi = dep.as_array().copy()
            xi[:3] += rng.normal(scale=[1.5, 0.15, 0.15])
            xi[3] = rng.uniform(limits.delta_min, limits.delta_max)
            xi[4] = rng.uniform(limits.F_min, limits.F_max)
            sol = solve_mpc(xi, dep, hz, limits)
            worst = max(worst, sol.kkt["stationarity"], sol.kkt["feasibility"],
                        sol.kkt["complementarity"])
        # equilibrium instance: exact optimum with zero increments
        sol_eq = solve_mpc(dep.as_array(), dep, hz, limits)
        eq_ok = np.abs(sol_eq.delta_u).max() < 1e-9 and sol_eq.cost < 1e-10
        # engineered rate saturation on both channels
        xi_d = dep.as_array()
        xi_d[3] += 0.6
        sat_d = solve_mpc(xi_d, dep, hz, limits)
        xi_f = dep.as_array()
        xi_f[4] = min(xi_f[4] + 4000.0, limits.F_max)
        sat_f = solve_mpc(xi_f, dep, hz, limits)
        sat_ok = (math.isclose(abs(sat_d.delta_u[0]), 0.15, abs_tol=1e-9)
                  and math.isclose(abs(sat_f.delta_u[1]), 1000.0, abs_tol=1e-6))
        ok = worst < 1e-6 and eq_ok and sat_ok
        _report(3, "QP optimality", ok,
                f"(worst KKT {worst:.2e}, eq cost {sol_eq.cost:.1e})")


class TestCriterion4EquilibriumHold:
    def test_hold_fixed_dep_184_steps(self, limits, mpc_cfg):
        params = default_vehicle_params(mu=1.0)  # plant = model
        dep = solve_dep(-0.52, 40.0, params)
        hz = condense(augment(linearize(dep, params, mpc_cfg.dT)), mpc_cfg)
        x_eq = np.array([dep.V_eq, dep.beta_eq, dep.r_eq])
        t0 = time.time()
        state = dep.state()
        from driftmpc.vehicle import Pose
        pose = Pose(0.0, 0.0, 0.0)
        u_prev = np.array([dep.delta_eq, dep.F_xr_eq])
        worst = 0.0
        for _ in range(184):
            xi = np.array([state.V, state.beta, state.r, u_prev[0], u_prev[1]])
            sol = solve_mpc(xi, dep, hz, limits)
            state, pose = step(state, pose, sol.u_next, params, mpc_cfg.dT,
                               substeps=10)
            u_prev = np.array([sol.u_next.delta, sol.u_next.F_xr])
            dev = np.linalg.norm([state.V - x_eq[0], state.beta - x_eq[1],
                                  state.r - x_eq[2]])
            worst = max(worst, dev / np.linalg.norm(x_eq))
        elapsed = time.time() - t0
        ok = worst < 0.05 and elapsed < 10.0
        _report(4, "equilibrium hold", ok,
                f"(worst relative dev {worst:.2e}, {elapsed:.2f}s)")


class TestCriterion5GpEiOracles:
    def test_posterior_and_ei_against_oracles(self):
        bounds = ThetaBounds()
        rng = np.random.default_rng(SEED)
        worst_mu = worst_var = 0.0
        for n in (10, 30, 50):
            thetas = bounds.sample(n, seed=n)
            y = (np.sin(3 * thetas[:, 0]) + 0.3 * thetas[:, 1]
                 + 0.05 * thetas[:, 2] ** 2)
            hyp = (np.array([0.35, 0.45, 0.3]), 1.2)
            model = gp_fit(GpDataset(thetas, y, noise_var=1e-4),
                           bounds.lo, bounds.hi, hypers=hyp)
            tests = bounds.sample(25, seed=n + 1)
            mu, var = gp_predict_batch(model, tests)
            Xn = model.normalize(thetas)
            Xs = model.normalize(tests)
            K = matern52_matrix(Xn, Xn, 1.2, hyp[0])
            Kinv = np.linalg.inv(K + 1e-4 * np.eye(n))
            ks = matern52_matrix(Xs, Xn, 1.2, hyp[0])
            mu_o = ks @ Kinv @ y
            var_o = 1.2 - np.einsum("ij,jk,ik->i", ks, Kinv, ks)
            worst_mu = max(worst_mu, float(np.abs(mu - mu_o).max()))
            worst_var = max(worst_var, float(np.abs(var - var_o).max()))
        gp_ok = worst_mu < 1e-8 and worst_var < 1e-8

        # analytic EI vs 10^7-sample Monte-Carlo on 20 fixtures
        thetas = bounds.sample(30, seed=3)
        y = np.cos(2 * thetas[:, 0]) + thetas[:, 1] * 0.5
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-6),
                       bounds.lo, bounds.hi,
                       hypers=(np.array([0.3, 0.3, 0.3]), 1.0))
        z = rng.standard_normal(10_000_000)
        best = float(np.median(y))
        worst_ei = 0.0
        checked = 0
        for t in bounds.sample(20, seed=4):
            mu, var = gp_predict_batch(model, t[None, :])
            sigma = math.sqrt(float(var[0]))
            ei = expected_improvement(model, t, best)
            mc = float(np.maximum(best - (float(mu[0]) + sigma * z), 0.0).mean())
            if mc > 1e-4:
                worst_ei = max(worst_ei, abs(ei - mc) / mc)
                checked += 1
        ei_ok = worst_ei < 1e-2 and checked >= 10
        ok = gp_ok and ei_ok
        _report(5, "GP/EI oracle equivalence", ok,
                f"(posterior {max(worst_mu, worst_var):.2e}, "
                f"EI rel {worst_ei:.2e} over {checked} fixtures)")


class TestCriterion6BoSyntheticBenchmark:
    def test_quadratic_center_found(self):
        bounds = ThetaBounds()
        center = np.array([-0.15, 0.9, 1.2])
        diam = float(np.linalg.norm(bounds.hi - bounds.lo))
        t0 = time.time()
        worst = 0.0
        for seed in range(5):
            res = bo_loop(lambda t: float(np.sum((t - center) ** 2)), bounds,
                          m=20, N=60, seed=seed, noise_var=1e-8)
            worst = max(worst, float(np.linalg.norm(res.theta_star - center)) / diam)
        elapsed = time.time() - t0
        ok = worst < 0.05 and elapsed < 30.0
        _report(6, "BO synthetic benchmark", ok,
                f"(worst offset {worst:.2%} of box diameter, {elapsed:.1f}s)")


class TestCriterion7Case1Ordering:
    def test_rmse_ordering_after_tuning(self, case1_tuned):
        t0 = time.time()
        sc_ppt = case_scenario(case=1, mode="ppt")
        _, m_ppt = run_episode(sc_ppt)
        _, m_apt = run_episode(case_scenario(case=1, mode="apt"),
                               case1_tuned["apt"].theta_star)
        _, m_dep = run_episode(case_scenario(case=1, mode="dep"),
                               case1_tuned["dep"].theta_star)
        _, m_al = run_episode(case_scenario(case=1, mode="almpc"),
                              case1_tuned["almpc"].theta_star)
        elapsed = time.time() - t0
        chain = m_al.rmse_e < m_apt.rmse_e < m_ppt.rmse_e
        dep_ok = m_dep.rmse_e < m_ppt.rmse_e
        ok = chain and dep_ok
        _report(7, "case-1 tracking ordering", ok,
                f"(almpc {m_al.rmse_e:.3f} < apt {m_apt.rmse_e:.3f} < "
                f"ppt {m_ppt.rmse_e:.3f}; dep {m_dep.rmse_e:.3f}; "
                f"evaluation {elapsed:.1f}s after tuning)")


class TestCriterion8Case2Mismatch:
    def test_mismatch_robustness(self, case1_tuned):
        # the soft barrier is set at the 1 m deviation bound this scenario
        # is required to respect, and the tuner transfers from the tuned
        # exact-parameter optimum
        from driftmpc.harness import CostConfig
        sc_al = case_scenario(case=2, mode="almpc",
                              cost=CostConfig(e_max=1.0))
        tuned = tune(sc_al, init=20, budget=160, seed=SEED,
                     extra_init=[case1_tuned["almpc"].theta_star])
        trace, m_al = run_episode(sc_al, tuned.theta_star)
        _, m_ppt = run_episode(case_scenario(case=2, mode="ppt"))
        ok = (not trace.failed and m_al.max_abs_e < 1.0
              and m_ppt.max_abs_e >= 2.0 * m_al.max_abs_e)
        t = tuned.theta_star
        failure = f", failed: {trace.failure_reason}" if trace.failed else ""
        _report(8, "case-2 mismatch robustness", ok,
                f"(almpc max|e| {m_al.max_abs_e:.3f} m, "
                f"ppt max|e| {m_ppt.max_abs_e:.3f} m, "
                f"ratio {m_ppt.max_abs_e / max(m_al.max_abs_e, 1e-9):.2f}x, "
                f"theta ({t[0]:.3f}, {t[1]:.3f}, {t[2]:.3f}){failure})")


class TestCriterion9Determinism:
    def test_tune_seed7_byte_identical(self, tmp_path):
        from driftmpc.cli import main
        from driftmpc.harness import scenario_to_file
        scenario = case_scenario(case=1, mode="dep", T=5.0)
        sc_file = tmp_path / "scenario.json"
        scenario_to_file(scenario, sc_file)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["tune", "--scenario", str(sc_file), "--init", "4",
                         "--budget", "8", "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append((out / "history_dep.csv").read_bytes())
        ok = outs[0] == outs[1] and len(outs[0]) > 0
        _report(9, "tuning determinism", ok,
                f"({len(outs[0])} bytes, identical={outs[0] == outs[1]})")


class TestCriterion10ClothoidGeometry:
    def test_curvature_affine_and_circle_closure(self):
        spec = ClothoidSpec(kappa=1 / 40, kappa_prime=1 / 12000, length=360.0)
        table = spec.build(0.25)
        affine = np.array_equal(table.kappa, spec.kappa + spec.kappa_prime * table.s)
        R = 40.0
        circle = ClothoidSpec(kappa=1 / R, kappa_prime=0.0,
                              length=2 * math.pi * R).build(0.25)
        x_true = R * np.sin(circle.s / R)
        y_true = R * (1 - np.cos(circle.s / R))
        closure = float(np.hypot(circle.x - x_true, circle.y - y_true).max())
        end_gap = math.hypot(circle.x[-1] - circle.x[0], circle.y[-1] - circle.y[0])
        ok = affine and closure < 1e-3 and end_gap < 1e-3 + 0.25
        _report(10, "clothoid geometry", ok,
                f"(affine={affine}, circle error {closure:.2e} m)")
