import math
import re
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmpc import harness, mpc, qp
from driftmpc.equilibrium import solve_dep
from driftmpc.errors import (ConfigError, DriftMpcError, FrictionCircleError,
                             InfeasibleQpError, UncertifiedQpError)
from driftmpc.harness import case_scenario, run_episode
from driftmpc.mpc import (AugmentedModel, MpcConfig, _offsets, augment, condense,
                          linearize, solve_mpc)
from driftmpc.qp import solve_qp
from driftmpc.vehicle import ControlLimits, default_vehicle_params, dynamics


@pytest.fixture(scope="module")
def dep(params):
    return solve_dep(-0.52, 40.0, params)


@pytest.fixture(scope="module")
def lin(dep, params, mpc_cfg):
    return linearize(dep, params, mpc_cfg.dT)


@pytest.fixture(scope="module")
def aug(lin):
    return augment(lin)


@pytest.fixture(scope="module")
def hz(aug, mpc_cfg):
    return condense(aug, mpc_cfg)


def predict_trajectory(model, xi_now, increments, n_p):
    """Rollout oracle: roll the augmented model forward under an increment
    sequence.

    increments is (N_c, 2); steps beyond it hold the input.  Returns the
    (n_p, 5) stacked trajectory xi_1..xi_np, for cross-checking against the
    condensed prediction.
    """
    xi = np.array(xi_now, dtype=float)
    out = np.empty((n_p, 5))
    n_c = len(increments)
    for k in range(n_p):
        du = increments[k] if k < n_c else np.zeros(2)
        xi = model.A_hat @ xi + model.B_hat @ du + model.D_hat
        out[k] = xi
    return out


def s_and_c(model, xi_now, xi_eq, cfg):
    """S and the free response c of the condensed horizon at xi_now."""
    hz = condense(model, cfg)
    return hz.S, _offsets(hz, xi_now, xi_eq)


def condense_per_block(model, xi_now, xi_eq, cfg):
    """Oracle: condensing with one matrix product per horizon block;
    condense and _offsets must reproduce it bit for bit."""
    n_p, n_c = cfg.N_p, cfg.N_c
    powers = [np.eye(5)]
    c = np.empty(5 * n_p)
    acc = np.zeros(5)
    for k in range(1, n_p + 1):
        powers.append(model.A_hat @ powers[-1])
        acc = model.A_hat @ acc + model.D_hat
        c[5 * (k - 1):5 * k] = powers[k] @ xi_now + acc - xi_eq
    blocks = np.stack([np.zeros((5, 2))] + [p @ model.B_hat for p in powers[:n_p]])
    lag = np.arange(1, n_p + 1)[:, None] - np.arange(n_c)[None, :]
    S = blocks[np.maximum(lag, 0)].transpose(0, 2, 1, 3).reshape(5 * n_p, 2 * n_c)
    return S, c


def constraints_per_step(cfg, limits, u_prev):
    """Oracle: the (A, b) that solve_mpc assembled on every call before the
    fixed part was built once per configuration."""
    n_c = cfg.N_c
    nv = 2 * n_c
    lo = np.array([limits.delta_min, limits.F_min])
    hi = np.array([limits.delta_max, limits.F_max])
    rate = np.array([limits.d_delta_lim, limits.d_F_lim])
    A_rate = np.vstack([np.eye(nv), -np.eye(nv)])
    b_rate = np.tile(rate, 2 * n_c)
    cum = np.kron(np.tril(np.ones((n_c, n_c))), np.eye(2))
    A = np.vstack([A_rate, cum, -cum])
    b = np.concatenate([b_rate, np.tile(hi - u_prev, n_c), np.tile(u_prev - lo, n_c)])
    return A, b


def forward_fd_jacobians(dep, params):
    """Independent one-sided difference scheme for cross-checking."""
    x_eq = np.array([dep.V_eq, dep.beta_eq, dep.r_eq])
    u_eq = np.array([dep.delta_eq, dep.F_xr_eq])

    def f(x, u):
        return np.array(dynamics(*x, *u, params))

    f0 = f(x_eq, u_eq)
    A = np.empty((3, 3))
    B = np.empty((3, 2))
    for j in range(3):
        h = 1e-7 * (1 + abs(x_eq[j]))
        xp = x_eq.copy()
        xp[j] += h
        A[:, j] = (f(xp, u_eq) - f0) / h
    for j in range(2):
        h = 1e-7 * (1 + abs(u_eq[j]))
        up = u_eq.copy()
        up[j] += h
        B[:, j] = (f(x_eq, up) - f0) / h
    return A, B


# Exact-bit oracles: the array forms linearize, augment, _condense and
# solve_mpc's b had before they called the kernels without NumPy's per-call
# wrappers.  Every comparison is on the bytes (dtype, shape, memory order
# and every bit, the sign of zero included).

def linearize_oracle(dep, params, dT):
    z_eq = dep.as_array()
    jac = np.empty((3, 5))
    for j in range(5):
        h = 1e-5 * (1.0 + abs(z_eq[j]))
        zp = z_eq.copy()
        zp[j] += h
        zm = z_eq.copy()
        zm[j] -= h
        try:
            jac[:, j] = np.subtract(dynamics(*zp.tolist(), params),
                                    dynamics(*zm.tolist(), params)) / (2.0 * h)
        except FrictionCircleError:
            jac[:, j] = np.subtract(dynamics(*z_eq.tolist(), params),
                                    dynamics(*zm.tolist(), params)) / h
    x_eq, u_eq = z_eq[:3], z_eq[3:]
    A = np.eye(3) + jac[:, :3] * dT
    B = jac[:, 3:] * dT
    d = x_eq - A @ x_eq - B @ u_eq
    return mpc.LinearModel(A=A, B=B, d=d)


def augment_oracle(model):
    A_hat = np.zeros((5, 5))
    A_hat[:3, :3] = model.A
    A_hat[:3, 3:] = model.B
    A_hat[3:, 3:] = np.eye(2)
    B_hat = np.zeros((5, 2))
    B_hat[:3] = model.B
    B_hat[3:] = np.eye(2)
    D_hat = np.zeros(5)
    D_hat[:3] = model.d
    return AugmentedModel(A_hat=A_hat, B_hat=B_hat, D_hat=D_hat)


def horizon_oracle(model, cfg):
    """The powers, affine offsets, S, SQ and H of condense."""
    n_p, n_c = cfg.N_p, cfg.N_c
    powers = np.empty((n_p + 1, 5, 5))
    powers[0] = np.eye(5)
    acc = np.empty((n_p, 5))
    prev = np.zeros(5)
    for k in range(1, n_p + 1):
        powers[k] = model.A_hat @ powers[k - 1]
        prev = acc[k - 1] = model.A_hat @ prev + model.D_hat
    blocks = np.empty((n_p + 1, 5, 2))
    blocks[0] = 0.0
    blocks[1:] = powers[:n_p] @ model.B_hat
    lag = np.maximum(np.arange(1, n_p + 1)[:, None] - np.arange(n_c)[None, :], 0)
    S = blocks[lag].transpose(0, 2, 1, 3).reshape(5 * n_p, 2 * n_c)
    q = np.tile(np.asarray(cfg.Q, dtype=float), cfg.N_p)
    SQ = S * q[:, None]
    H = 2.0 * (S.T @ SQ + np.diag(np.tile(np.asarray(cfg.R, dtype=float), cfg.N_c)))
    H = 0.5 * (H + H.T)
    return powers, acc, S, SQ, H


def condense_oracle(model, xi_now, xi_eq, cfg):
    powers, acc, S, _, _ = horizon_oracle(model, cfg)
    c = (powers[1:] @ xi_now + acc - xi_eq).ravel()
    return S, c


def bits(*arrays):
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays]


def model_bits(m):
    return bits(*vars(m).values())


class TestLinearize:
    def test_affine_identity(self, lin, dep):
        x_eq = np.array([dep.V_eq, dep.beta_eq, dep.r_eq])
        u_eq = np.array([dep.delta_eq, dep.F_xr_eq])
        err = lin.A @ x_eq + lin.B @ u_eq + lin.d - x_eq
        assert np.abs(err).max() < 1e-10

    def test_central_vs_forward_schemes(self, lin, dep, params, mpc_cfg):
        A_fw, B_fw = forward_fd_jacobians(dep, params)
        A_c = (lin.A - np.eye(3)) / mpc_cfg.dT
        B_c = lin.B / mpc_cfg.dT
        assert np.abs(A_c - A_fw).max() / np.abs(A_fw).max() < 1e-4
        assert np.abs(B_c - B_fw).max() / np.abs(B_fw).max() < 1e-4

    def test_small_dt_limit(self, dep, params):
        lin = linearize(dep, params, 1e-9)
        assert np.abs(lin.A - np.eye(3)).max() < 1e-6
        assert np.abs(lin.B).max() < 1e-4

    def test_saddle_is_unstable(self, lin):
        assert np.abs(np.linalg.eigvals(lin.A)).max() > 1.0


class TestAugment:
    def test_block_readback(self, lin, aug):
        assert np.array_equal(aug.A_hat[:3, :3], lin.A)
        assert np.array_equal(aug.A_hat[:3, 3:], lin.B)
        assert np.array_equal(aug.A_hat[3:, 3:], np.eye(2))
        assert np.array_equal(aug.B_hat[:3], lin.B)
        assert np.array_equal(aug.B_hat[3:], np.eye(2))
        assert np.array_equal(aug.D_hat[:3], lin.d)
        assert np.all(aug.D_hat[3:] == 0)

    def test_zero_increment_keeps_input(self, aug, rng):
        xi = rng.normal(size=5)
        nxt = aug.A_hat @ xi + aug.D_hat
        assert np.allclose(nxt[3:], xi[3:])

    def test_equilibrium_fixed_point(self, aug, dep):
        xi_eq = dep.as_array()
        nxt = aug.A_hat @ xi_eq + aug.D_hat
        assert np.abs(nxt - xi_eq).max() < 1e-10


class TestSolveQp:
    def test_scalar_active_bound(self):
        # min (x-2)^2 s.t. x <= 1 -> x* = 1, lambda* = 2
        H = np.array([[2.0]])
        g = np.array([-4.0])
        A = np.array([[1.0]])
        b = np.array([1.0])
        res = solve_qp(H, g, A, b)
        assert math.isclose(res.x[0], 1.0, abs_tol=1e-10)
        assert math.isclose(res.lam[0], 2.0, abs_tol=1e-8)
        kkt = res.kkt_residuals(H, g, A, b)
        assert max(kkt["stationarity"], kkt["feasibility"],
                   kkt["complementarity"]) < 1e-8

    def test_unconstrained_inactive(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -4.0])
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([10.0, 10.0])
        res = solve_qp(H, g, A, b)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-10)
        assert np.all(res.lam == 0)

    def test_infeasible_start_rejected(self):
        H = np.eye(2)
        g = np.zeros(2)
        A = np.array([[1.0, 0.0]])
        b = np.array([-1.0])  # the zero start violates x_0 <= -1
        with pytest.raises(InfeasibleQpError):
            solve_qp(H, g, A, b)

    @pytest.mark.parametrize("field", ["H", "g", "A", "b"])
    def test_nan_data_is_a_classified_failure(self, field):
        data = {"H": np.eye(2), "g": np.ones(2), "A": np.eye(2), "b": np.ones(2)}
        data[field] = data[field].copy()
        data[field].flat[0] = math.nan
        with pytest.raises(DriftMpcError):
            solve_qp(**data)

    @pytest.mark.parametrize("field, value", [
        ("H", np.ones((2, 3))), ("g", np.ones(3)), ("A", np.ones((2, 3))),
        ("b", np.ones(1))],  # broadcast against both rows before the check
        ids=["H", "g", "A", "b"])
    def test_misshapen_data_is_a_classified_failure(self, field, value):
        data = {"H": np.eye(2), "g": np.ones(2), "A": np.eye(2), "b": np.ones(2),
                field: value}
        with pytest.raises(ConfigError, match="shapes"):
            solve_qp(**data)

    @pytest.mark.parametrize("H", [np.diag([0.0, 1.0]), np.diag([-1.0, 1.0]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_indefinite_hessian_is_a_classified_failure(self, H):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DriftMpcError):
                solve_qp(H, np.ones(2), np.eye(2), np.ones(2))

    def test_infinite_bound_is_absent(self):
        H = np.array([[2.0]])
        g = np.array([-4.0])
        one = solve_qp(H, g, np.array([[1.0]]), np.array([1.0]))
        two = solve_qp(H, g, np.array([[1.0], [1.0]]), np.array([1.0, math.inf]))
        assert np.array_equal(one.x, two.x) and one.iterations == two.iterations
        assert np.array_equal(two.lam, [one.lam[0], 0.0])
        free = solve_qp(H, g, np.array([[1.0]]), np.array([math.inf]))
        assert math.isclose(free.x[0], 2.0, abs_tol=1e-12) and free.active == []
        # the absent row's slack is -inf; its zero multiplier leaves the
        # relative certificate finite
        assert two.relative_residual(H, g, np.array([[1.0], [1.0]]),
                                     np.array([1.0, math.inf])) < 1e-15

    def test_random_instances_kkt(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            M = rng.normal(size=(n, n))
            H = M @ M.T + n * np.eye(n)
            g = rng.normal(size=n) * 10
            m_rows = int(rng.integers(1, 12))
            A = rng.normal(size=(m_rows, n))
            b = rng.uniform(0.1, 2.0, size=m_rows)  # keeps the zero start feasible
            res = solve_qp(H, g, A, b)
            kkt = res.kkt_residuals(H, g, A, b)
            assert kkt["stationarity"] < 1e-6
            assert kkt["feasibility"] < 1e-8
            assert kkt["complementarity"] < 1e-6
            assert kkt["dual"] == 0.0


class TestSolveMpc:
    def test_equilibrium_returns_zero_increment(self, dep, hz, limits):
        xi = dep.as_array()
        sol = solve_mpc(xi, dep, hz, limits)
        assert np.abs(sol.delta_u).max() < 1e-9
        assert sol.cost < 1e-10
        assert math.isclose(sol.u_next.delta, dep.delta_eq, abs_tol=1e-9)
        assert math.isclose(sol.u_next.F_xr, dep.F_xr_eq, abs_tol=1e-5)

    def test_unconstrained_matches_least_squares_oracle(self, dep, aug, hz,
                                                        mpc_cfg, limits):
        xi = dep.as_array() + np.array([0.02, 0.005, -0.003, 0.0, 0.0])
        sol = solve_mpc(xi, dep, hz, limits)
        # independent dense batch construction of the same problem
        n_p, n_c = mpc_cfg.N_p, mpc_cfg.N_c
        blocks = []
        c = []
        xi_dev_free = xi.copy()
        acc = np.zeros(5)
        powers = [np.eye(5)]
        for _ in range(n_p):
            powers.append(aug.A_hat @ powers[-1])
        for k in range(1, n_p + 1):
            acc = aug.A_hat @ acc + aug.D_hat
            c.append(powers[k] @ xi - dep.as_array() + acc)
            row = [powers[k - j] @ aug.B_hat if j <= min(k, n_c) else np.zeros((5, 2))
                   for j in range(1, n_c + 1)]
            blocks.append(np.hstack(row))
        S = np.vstack(blocks)
        cvec = np.concatenate(c)
        Qbar = np.kron(np.eye(n_p), np.diag(mpc_cfg.Q))
        Rbar = np.kron(np.eye(n_c), np.diag(mpc_cfg.R))
        H = 2 * (S.T @ Qbar @ S + Rbar)
        g = 2 * (S.T @ Qbar @ cvec)
        w_star = np.linalg.solve(H, -g)
        assert np.abs(sol.delta_u - w_star[:2]).max() < 1e-6
        assert len(sol.kkt) and sol.kkt["stationarity"] < 1e-6

    def test_rate_saturation_clamps_exactly(self, dep, hz, limits):
        xi = dep.as_array()
        xi[3] += 0.6  # previous steering far above the equilibrium value
        sol = solve_mpc(xi, dep, hz, limits)
        assert math.isclose(abs(sol.delta_u[0]), limits.d_delta_lim, abs_tol=1e-9)
        assert sol.kkt["dual"] == 0.0
        xi2 = dep.as_array()
        xi2[4] = min(xi2[4] + 4000.0, limits.F_max)
        sol2 = solve_mpc(xi2, dep, hz, limits)
        assert math.isclose(abs(sol2.delta_u[1]), limits.d_F_lim, abs_tol=1e-6)

    def test_inputs_respect_bounds(self, dep, hz, limits, rng):
        for _ in range(25):
            xi = dep.as_array()
            xi[:3] += rng.normal(scale=[1.0, 0.1, 0.1])
            xi[3] = rng.uniform(limits.delta_min, limits.delta_max)
            xi[4] = rng.uniform(limits.F_min, limits.F_max)
            sol = solve_mpc(xi, dep, hz, limits)
            assert limits.delta_min - 1e-9 <= sol.u_next.delta <= limits.delta_max + 1e-9
            assert limits.F_min - 1e-6 <= sol.u_next.F_xr <= limits.F_max + 1e-6
            assert abs(sol.u_next.delta - xi[3]) <= limits.d_delta_lim + 1e-9
            assert abs(sol.u_next.F_xr - xi[4]) <= limits.d_F_lim + 1e-6

    def test_condensing_matches_rollout(self, dep, aug, hz, mpc_cfg, limits):
        xi = dep.as_array() + np.array([0.5, -0.02, 0.01, -0.05, 200.0])
        sol = solve_mpc(xi, dep, hz, limits)
        # rebuild the full increment sequence by re-solving the same QP
        S, c = s_and_c(aug, xi, dep.as_array(), mpc_cfg)
        increments = np.zeros((mpc_cfg.N_c, 2))
        increments[0] = sol.delta_u
        # roll the model under just the first increment's plan is not enough;
        # use the S,c algebra directly: deviation = S w + c
        w = np.zeros(2 * mpc_cfg.N_c)
        w[:2] = sol.delta_u
        traj = predict_trajectory(aug, xi, np.vstack([sol.delta_u[None, :],
                                                      np.zeros((mpc_cfg.N_c - 1, 2))]),
                                  mpc_cfg.N_p)
        dev = (S @ w + c).reshape(mpc_cfg.N_p, 5)
        assert np.abs(traj - (dev + dep.as_array())).max() < 1e-9

    def test_warm_start_objective_invariance(self, dep, aug, mpc_cfg, limits):
        xi = dep.as_array() + np.array([0.8, -0.05, 0.02, 0.0, 0.0])
        S, c = s_and_c(aug, xi, dep.as_array(), mpc_cfg)
        q = np.tile(np.asarray(mpc_cfg.Q, float), mpc_cfg.N_p)
        r = np.tile(np.asarray(mpc_cfg.R, float), mpc_cfg.N_c)
        SQ = S * q[:, None]
        H = 2 * (S.T @ SQ + np.diag(r))
        H = 0.5 * (H + H.T)
        g = 2 * (SQ.T @ c)
        rate = np.array([limits.d_delta_lim, limits.d_F_lim])
        nv = 2 * mpc_cfg.N_c
        A = np.vstack([np.eye(nv), -np.eye(nv)])
        b = np.tile(rate, 2 * mpc_cfg.N_c)
        cold = solve_qp(H, g, A, b)
        warm = solve_qp(H, g, A, b, setup=qp._setup(H, A))
        obj = lambda x: 0.5 * x @ H @ x + g @ x
        assert abs(obj(cold.x) - obj(warm.x)) < 1e-8 * max(1.0, abs(obj(cold.x)))

    def test_previous_input_must_be_feasible(self, dep, hz, limits):
        xi = dep.as_array()
        xi[3] = limits.delta_max + 0.5
        with pytest.raises(InfeasibleQpError):
            solve_mpc(xi, dep, hz, limits)

    def test_certificate_is_relative_to_the_qp_scale(self, dep, aug, hz, mpc_cfg,
                                                   limits):
        # weights x1e10 keep the minimizer and scale g and the multipliers
        # by 1e10: the absolute stationarity residual is rounding of that size
        big = MpcConfig(Q=tuple(1e10 * q for q in mpc_cfg.Q),
                        R=tuple(1e10 * r for r in mpc_cfg.R))
        xi = dep.as_array() + np.array([0.8, -0.05, 0.02, 0.1, -300.0])
        sol = solve_mpc(xi, dep, condense(aug, big), limits)
        assert sol.kkt["stationarity"] > 1e-6
        ref = solve_mpc(xi, dep, hz, limits)
        np.testing.assert_allclose(sol.delta_u, ref.delta_u, rtol=1e-9, atol=1e-12)

    def test_uncertified_qp_answer_is_not_applied(self, dep, hz, limits, monkeypatch):
        def perturbed(H, g, A, b, **kwargs):
            res = solve_qp(H, g, A, b, **kwargs)
            res.x = res.x + 1e-3
            return res

        xi = dep.as_array() + np.array([0.8, -0.05, 0.02, 0.1, -300.0])
        solve_mpc(xi, dep, hz, limits)
        monkeypatch.setattr(mpc, "solve_qp", perturbed)
        with pytest.raises(UncertifiedQpError, match="KKT certificate"):
            solve_mpc(xi, dep, hz, limits)

    def test_non_finite_state_rejected(self, dep, hz, limits):
        xi = dep.as_array()
        xi[0] = math.nan
        with pytest.raises(ConfigError):
            solve_mpc(xi, dep, hz, limits)


@st.composite
def horizons(draw):
    n_p = draw(st.integers(1, 25))
    n_c = draw(st.one_of(st.just(1), st.just(n_p), st.integers(1, n_p)))
    return n_p, n_c


@settings(max_examples=60, deadline=None)
@given(horizons(), st.integers(0, 2**32 - 1))
def test_condense_matches_rollout_oracle(horizon, seed):
    """Condensed prediction S w + c + xi_eq equals the step-by-step rollout
    for random augmented models, increment plans and horizons."""
    n_p, n_c = horizon
    rng = np.random.default_rng(seed)
    model = AugmentedModel(A_hat=np.eye(5) + rng.uniform(-0.3, 0.3, (5, 5)),
                           B_hat=rng.normal(size=(5, 2)), D_hat=rng.normal(size=5))
    xi_now, xi_eq = rng.normal(size=5), rng.normal(size=5)
    plan = rng.normal(size=(n_c, 2))
    S, c = s_and_c(model, xi_now, xi_eq, MpcConfig(N_p=n_p, N_c=n_c))
    assert S.shape == (5 * n_p, 2 * n_c) and c.shape == (5 * n_p,)
    rollout = predict_trajectory(model, xi_now, plan, n_p)
    condensed = (S @ plan.ravel() + c).reshape(n_p, 5) + xi_eq
    scale = max(1.0, float(np.abs(rollout).max()))
    assert np.abs(condensed - rollout).max() <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(horizons(), st.integers(0, 2**32 - 1))
def test_condense_matches_per_block_oracle(horizon, seed):
    n_p, n_c = horizon
    rng = np.random.default_rng(seed)
    model = AugmentedModel(A_hat=np.eye(5) + rng.uniform(-0.3, 0.3, (5, 5)),
                           B_hat=rng.normal(size=(5, 2)), D_hat=rng.normal(size=5))
    xi_now, xi_eq = rng.normal(size=5), rng.normal(size=5)
    cfg = MpcConfig(N_p=n_p, N_c=n_c)
    S, c = s_and_c(model, xi_now, xi_eq, cfg)
    S_ref, c_ref = condense_per_block(model, xi_now, xi_eq, cfg)
    assert np.array_equal(S, S_ref) and np.array_equal(c, c_ref)
    assert bits(S, c) == bits(*condense_oracle(model, xi_now, xi_eq, cfg))


@pytest.mark.parametrize("n_p, n_c", [(20, 19), (20, 20), (20, 1), (1, 1)])
def test_condense_per_block_on_drift_model(aug, dep, n_p, n_c):
    xi = dep.as_array() + np.array([0.5, -0.02, 0.01, -0.05, 200.0])
    cfg = MpcConfig(N_p=n_p, N_c=n_c)
    S, c = s_and_c(aug, xi, dep.as_array(), cfg)
    S_ref, c_ref = condense_per_block(aug, xi, dep.as_array(), cfg)
    assert np.array_equal(S, S_ref) and np.array_equal(c, c_ref)
    assert bits(S, c) == bits(*condense_oracle(aug, xi, dep.as_array(), cfg))


def lag_per_entry(cfg):
    """Oracle: S[5k + i, 2j + l] = blocks[max(k + 1 - j, 0), i, l] as a flat
    index into the (N_p + 1, 5, 2) blocks, entry by entry."""
    idx = np.empty((5 * cfg.N_p, 2 * cfg.N_c), dtype=int)
    for k in range(cfg.N_p):
        for j in range(cfg.N_c):
            for i in range(5):
                for l in range(2):
                    idx[5 * k + i, 2 * j + l] = 10 * max(k + 1 - j, 0) + 2 * i + l
    return idx


DERIVED = ("lag", "q_diag", "R_bar", "A")


class TestConstraintCache:
    """The constraint rows, stacked weights and gather index each MpcConfig
    derives once, in __post_init__."""

    def test_read_only(self, mpc_cfg):
        for name in DERIVED:
            assert not getattr(mpc_cfg, name).flags.writeable, name
        with pytest.raises(ValueError):
            mpc_cfg.A[0, 0] = 2.0

    def test_not_fields(self, mpc_cfg):
        names = {f.name for f in fields(MpcConfig)}
        assert names == {"N_p", "N_c", "Q", "R", "dT"}
        assert set(asdict(mpc_cfg)) == names
        assert mpc_cfg == MpcConfig() and hash(mpc_cfg) == hash(MpcConfig())
        assert repr(mpc_cfg) == ("MpcConfig(N_p=20, N_c=19, Q=(10.0, 1.0, 10.0, "
                                 "1.0, 1.0), R=(1.0, 1.0), dT=0.1)")

    @pytest.mark.parametrize("n_c", [1, 7, 19])
    def test_matches_per_step_construction(self, limits, n_c):
        cfg = MpcConfig(N_p=20, N_c=n_c)
        A_ref, _ = constraints_per_step(cfg, limits, np.array([0.3, 2500.0]))
        assert np.array_equal(cfg.A, A_ref)
        assert np.array_equal(cfg.lag, lag_per_entry(cfg))
        assert np.array_equal(cfg.q_diag, np.tile(np.asarray(cfg.Q, float), cfg.N_p))
        assert np.array_equal(cfg.R_bar, np.diag(np.tile(np.asarray(cfg.R, float), n_c)))

    @pytest.mark.parametrize("n_p, n_c", [(20, 20), (5, 1), (1, 1)])
    def test_replace_rebuilds_for_a_new_horizon(self, mpc_cfg, limits, n_p, n_c):
        cfg = replace(mpc_cfg, N_p=n_p, N_c=n_c)
        assert cfg.A.shape == (8 * n_c, 2 * n_c) and cfg.R_bar.shape == (2 * n_c,) * 2
        assert cfg.lag.shape == (5 * n_p, 2 * n_c) and cfg.q_diag.shape == (5 * n_p,)
        A_ref, _ = constraints_per_step(cfg, limits, np.array([0.3, 2500.0]))
        assert np.array_equal(cfg.A, A_ref)
        assert np.array_equal(cfg.lag, lag_per_entry(cfg))
        for name in DERIVED:
            assert not getattr(cfg, name).flags.writeable, name
        assert mpc_cfg.A.shape == (8 * 19, 38)

    def test_rate_limits_reach_b(self, dep, hz, mpc_cfg, limits, monkeypatch):
        seen = []

        def capture(H, g, A, b, *args, **kwargs):
            seen.append((A, b))
            return solve_qp(H, g, A, b, *args, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", capture)
        xi = dep.as_array()
        tight = replace(limits, d_delta_lim=0.05, d_F_lim=400.0)
        for lim in (limits, tight):
            solve_mpc(xi, dep, hz, lim)
            A_ref, b_ref = constraints_per_step(mpc_cfg, lim, xi[3:])
            assert np.array_equal(seen[-1][0], A_ref)
            assert np.array_equal(seen[-1][1], b_ref)
        n_rate = 4 * mpc_cfg.N_c
        (_, b_wide), (_, b_tight) = seen
        assert np.array_equal(b_tight[:n_rate], np.tile([0.05, 400.0], 2 * mpc_cfg.N_c))
        assert not np.array_equal(b_wide[:n_rate], b_tight[:n_rate])
        assert np.array_equal(b_wide[n_rate:], b_tight[n_rate:])

    def test_equal_configurations_give_identical_solutions(self, dep, aug, hz,
                                                          limits):
        xi = dep.as_array() + np.array([0.8, -0.05, 0.02, 0.1, -300.0])
        a = solve_mpc(xi, dep, hz, limits)
        b = solve_mpc(xi.copy(), dep, condense(aug, MpcConfig()),
                      ControlLimits(**asdict(limits)))
        assert a.u_next == b.u_next and a.cost == b.cost and a.kkt == b.kkt
        assert np.array_equal(a.delta_u, b.delta_u)
        assert (a.qp_iterations, a.n_active) == (b.qp_iterations, b.n_active)

    def test_non_finite_model_is_a_classified_failure(self, dep, aug, mpc_cfg, limits):
        # a NaN in A_hat or B_hat reaches H, which the QP's set-up in
        # condense checks; one in D_hat reaches only g, which solve_qp checks
        for name in ("A_hat", "B_hat", "D_hat"):
            arrays = {**vars(aug), name: np.full_like(getattr(aug, name), math.nan)}
            with pytest.raises(ConfigError, match=re.escape(qp._NOT_FINITE)):
                solve_mpc(dep.as_array(), dep,
                          condense(AugmentedModel(**arrays), mpc_cfg), limits)


class TestMpcConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MpcConfig(N_p=10, N_c=11)
        with pytest.raises(ConfigError):
            MpcConfig(Q=(1, 1, 1, 1, 0))
        with pytest.raises(ConfigError):
            MpcConfig(dT=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(Q=(10.0, 1.0, 10.0)), dict(Q=(1.0,) * 6), dict(R=(1.0,)),
        dict(R=(1.0, 1.0, 1.0)), dict(N_p=20.5), dict(N_p=20.0), dict(N_c=19.0),
        dict(N_c=True), dict(Q=(10.0, 1.0, math.nan, 1.0, 1.0)),
        dict(R=(1.0, math.nan)), dict(Q=(math.inf, 1.0, 10.0, 1.0, 1.0)),
        dict(dT=math.nan), dict(dT=math.inf)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_malformed_configuration_is_a_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            MpcConfig(**kwargs)

    def test_numpy_integer_horizons_accepted(self):
        assert MpcConfig(N_p=np.int64(20), N_c=np.int64(19)) == MpcConfig()


@pytest.fixture(scope="module")
def capped_dep(dep, params):
    """The fixture equilibrium with its rear force on the friction cap: the
    forward difference in F_xr leaves the circle, so linearize takes its
    one-sided branch for that column."""
    capped = replace(dep, F_xr_eq=params.F_r_max)
    zp = capped.as_array()
    zp[4] += 1e-5 * (1.0 + abs(zp[4]))
    with pytest.raises(FrictionCircleError):
        dynamics(*zp.tolist(), params)
    return capped


class TestSameBits:
    def test_linearize_at_the_fixture(self, dep, params, mpc_cfg):
        got = linearize(dep, params, mpc_cfg.dT)
        assert model_bits(got) == model_bits(linearize_oracle(dep, params, mpc_cfg.dT))

    def test_linearize_at_the_friction_cap(self, capped_dep, params, mpc_cfg,
                                           monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dynamics(*args)

        monkeypatch.setattr(mpc, "dynamics", counted)  # the name linearize calls
        got = linearize(capped_dep, params, mpc_cfg.dT)
        assert len(calls) == 11  # 2 per column, plus the one that left the circle
        assert model_bits(got) == model_bits(
            linearize_oracle(capped_dep, params, mpc_cfg.dT))

    @pytest.mark.parametrize("delta, R, mu", [(-0.52, 40.0, 0.8), (-0.3, 25.0, 0.8),
                                              (0.52, -40.0, 0.8), (-0.6, 60.0, 0.6),
                                              (-0.45, 12.0, 1.0)])
    def test_linearize_and_augment_over_equilibria(self, delta, R, mu, mpc_cfg):
        params = replace(default_vehicle_params(), mu=mu)
        eq = solve_dep(delta, R, params)
        got = linearize(eq, params, mpc_cfg.dT)
        want = linearize_oracle(eq, params, mpc_cfg.dT)
        assert model_bits(got) == model_bits(want)
        assert model_bits(augment(got)) == model_bits(augment_oracle(want))

    def test_solve_mpc_b(self, dep, aug, limits, monkeypatch):
        seen = []

        def capture(H, g, A, b, *args, **kwargs):
            seen.append(b)
            return solve_qp(H, g, A, b, *args, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", capture)
        rng = np.random.default_rng(7)
        lo = np.array([limits.delta_min, limits.F_min])
        hi = np.array([limits.delta_max, limits.F_max])
        u_prevs = [lo, hi, np.array([-0.0, 0.0]), np.array([0.0, -0.0])]
        u_prevs += list(rng.uniform(lo, hi, size=(4, 2)))
        for n_p, n_c in [(20, 19), (20, 20), (5, 1), (1, 1)]:
            cfg = MpcConfig(N_p=n_p, N_c=n_c)
            horizon = condense(aug, cfg)
            for u_prev in u_prevs:
                xi = np.concatenate([dep.as_array()[:3], u_prev])
                solve_mpc(xi, dep, horizon, limits)
                _, b_ref = constraints_per_step(cfg, limits, xi[3:])
                assert bits(seen[-1]) == bits(b_ref), (n_p, n_c, u_prev)


def solution_bits(sol):
    return (float.hex(sol.u_next.delta), float.hex(sol.u_next.F_xr),
            float.hex(sol.cost), [float.hex(v) for v in sol.delta_u.tolist()],
            sol.qp_iterations, sol.n_active)


def per_step_qp(model, xi_now, xi_eq, cfg):
    """Oracle: the QP's H and g built from scratch at every step."""
    _, _, _, SQ, H = horizon_oracle(model, cfg)
    _, c = condense_oracle(model, xi_now, xi_eq, cfg)
    return H, 2.0 * (SQ.T @ c)


class TestHorizonReuse:
    """run_episode condenses once per drift equilibrium and hands every
    solve_mpc the same horizon while it holds; nothing solve_mpc returns
    may depend on that."""

    def test_reused_cached_and_fresh_models_agree_bitwise(self, dep, params,
                                                          mpc_cfg, limits,
                                                          monkeypatch):
        seen = []

        def capture(H, g, A, b, *args, **kwargs):
            seen.append((H, g))
            return solve_qp(H, g, A, b, *args, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", capture)
        model = augment(linearize(dep, params, mpc_cfg.dT))
        kept = condense(model, mpc_cfg)
        lo = np.array([limits.delta_min, limits.F_min])
        hi = np.array([limits.delta_max, limits.F_max])
        rng = np.random.default_rng(11)
        for _ in range(6):
            xi = dep.as_array() + rng.normal(scale=[0.8, 0.05, 0.02, 0.05, 300.0])
            xi[3:] = np.clip(xi[3:], lo, hi)
            fresh = condense(augment(linearize(dep, params, mpc_cfg.dT)), mpc_cfg)
            on_fresh = solve_mpc(xi, dep, fresh, limits)
            reused = solve_mpc(xi, dep, kept, limits)
            assert solution_bits(on_fresh) == solution_bits(reused)
            want = bits(*per_step_qp(model, xi, dep.as_array(), mpc_cfg))
            assert [bits(*qp) for qp in seen[-2:]] == [want] * 2

    def test_model_and_horizon_arrays_are_read_only(self, hz):
        # the episode reuses them across steps
        for arr in (*hz[1:-1], *hz.setup):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0
        with pytest.raises(ValueError):
            hz.H[0, 0] = 1.0

    def test_one_setup_per_linearization(self, monkeypatch):
        """The stock case-1 ppt episode linearizes 20 times in 184 steps;
        its QP is set up once per linearization, not once per step."""
        counts = {"linearize": 0, "setup": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "linearize", counted("linearize", harness.linearize))
        setup = counted("setup", qp._setup)
        monkeypatch.setattr(qp, "_setup", setup)   # solve_qp's own
        monkeypatch.setattr(mpc, "_setup", setup)  # condense's
        trace, _ = run_episode(case_scenario(case=1, mode="ppt"))
        assert not trace.failed and len(trace) == 184
        assert counts == {"linearize": 20, "setup": 20}


def stable_model(rng):
    """The augmented form of a random affine model whose state matrix has
    spectral radius 0.3 to 0.99, inputs scaled like (steering, force)."""
    M = rng.normal(size=(3, 3))
    A = M * (rng.uniform(0.3, 0.99) / np.abs(np.linalg.eigvals(M)).max())
    B = rng.normal(size=(3, 2)) * np.array([1.0, 1e-4]) * 10.0 ** rng.uniform(-1, 1)
    return augment(mpc.LinearModel(A=A, B=B, d=rng.normal(size=3)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(20, 19), (20, 20), (20, 1), (12, 5), (25, 13), (1, 1)]),
       st.integers(0, 2**32 - 1))
def test_horizon_and_qp_data_match_the_array_oracles(dep, limits, horizon, seed):
    """condense's arrays and the (H, g) solve_mpc hands the QP are the bytes
    of the @-based oracles, over random stable models and horizons."""
    rng = np.random.default_rng(seed)
    model = stable_model(rng)
    cfg = MpcConfig(N_p=horizon[0], N_c=horizon[1])
    hz = condense(model, cfg)
    assert bits(hz.powers, hz.acc, hz.S, hz.SQ, hz.H) == bits(*horizon_oracle(model, cfg))
    xi = dep.as_array() + rng.normal(scale=[0.8, 0.05, 0.02, 0.0, 0.0])
    seen = []

    def capture(H, g, A, b, *args, **kwargs):
        seen.append((H, g))
        return solve_qp(H, g, A, b, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc, "solve_qp", capture)
        try:
            solve_mpc(xi, dep, hz, limits)
        except DriftMpcError:
            pass  # the QP's own outcome is not what is checked here
    assert [bits(*qp) for qp in seen] == [bits(*per_step_qp(model, xi, dep.as_array(), cfg))]
