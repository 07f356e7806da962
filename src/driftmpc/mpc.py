"""Linearized drift MPC.

Linearizes the nominal model around the current drift equilibrium, builds
the input-increment augmented system, condenses the receding-horizon
problem into a dense QP over the increment sequence, and solves it with
the active-set solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import DriftEquilibrium
from .errors import ConfigError, FrictionCircleError, InfeasibleQpError
from .qp import solve_qp
from .vehicle import ControlInput, ControlLimits, VehicleParams, VehicleState, dynamics


@dataclass(frozen=True)
class LinearModel:
    """Discrete-time affine model x+ = A x + B u + d around an equilibrium."""
    A: np.ndarray  # 3x3
    B: np.ndarray  # 3x2
    d: np.ndarray  # 3


@dataclass(frozen=True)
class AugmentedModel:
    """Increment form over xi = (x, u_prev): xi+ = A_hat xi + B_hat du + D_hat."""
    A_hat: np.ndarray  # 5x5
    B_hat: np.ndarray  # 5x2
    D_hat: np.ndarray  # 5


@dataclass(frozen=True)
class MpcConfig:
    N_p: int = 20   # prediction horizon [steps]
    N_c: int = 19   # control horizon [steps]
    Q: tuple = (10.0, 1.0, 10.0, 1.0, 1.0)  # diagonal state-input weights
    R: tuple = (1.0, 1.0)                   # diagonal increment weights
    dT: float = 0.1  # control period [s]

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(self.Q))
        object.__setattr__(self, "R", tuple(self.R))
        if self.N_c > self.N_p or self.N_c < 1:
            raise ConfigError("need 1 <= N_c <= N_p")
        if min(self.Q) <= 0 or min(self.R) <= 0:
            raise ConfigError("weights must be strictly positive")
        if self.dT <= 0:
            raise ConfigError("dT must be positive")


def _f(x: np.ndarray, u: np.ndarray, params: VehicleParams) -> np.ndarray:
    return np.array(dynamics(VehicleState(x[0], x[1], x[2]),
                             ControlInput(u[0], u[1]), params))


def linearize(dep: DriftEquilibrium, params: VehicleParams,
              dT: float) -> LinearModel:
    """Discrete affine model at the equilibrium via central differences.

    Continuous Jacobians use central differences with a scaled step; the
    discretization is first-order hold, A = I + A_c dT, B = B_c dT.  The
    offset d makes the equilibrium an exact fixed point.
    """
    x_eq = np.array([dep.V_eq, dep.beta_eq, dep.r_eq])
    u_eq = np.array([dep.delta_eq, dep.F_xr_eq])
    A_c = np.empty((3, 3))
    B_c = np.empty((3, 2))
    for j in range(3):
        h = 1e-5 * (1.0 + abs(x_eq[j]))
        xp = x_eq.copy()
        xp[j] += h
        xm = x_eq.copy()
        xm[j] -= h
        A_c[:, j] = (_f(xp, u_eq, params) - _f(xm, u_eq, params)) / (2.0 * h)
    for j in range(2):
        h = 1e-5 * (1.0 + abs(u_eq[j]))
        up = u_eq.copy()
        up[j] += h
        um = u_eq.copy()
        um[j] -= h
        try:
            B_c[:, j] = (_f(x_eq, up, params) - _f(x_eq, um, params)) / (2.0 * h)
        except FrictionCircleError:
            # equilibrium force sits at the circle cap; difference one-sided
            B_c[:, j] = (_f(x_eq, u_eq, params) - _f(x_eq, um, params)) / h
    A = np.eye(3) + A_c * dT
    B = B_c * dT
    d = x_eq - A @ x_eq - B @ u_eq
    return LinearModel(A=A, B=B, d=d)


def augment(model: LinearModel) -> AugmentedModel:
    """Block assembly of the increment-form system."""
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


@dataclass
class MpcSolution:
    u_next: ControlInput
    cost: float             # predicted objective at the optimum
    delta_u: np.ndarray     # first increment applied
    kkt: dict = field(default_factory=dict)
    qp_iterations: int = 0
    n_active: int = 0


def _condense(model: AugmentedModel, xi_now: np.ndarray, xi_eq: np.ndarray,
              cfg: MpcConfig):
    """Stack the horizon: deviation_k = S w + c_k with w the increments."""
    n_p, n_c = cfg.N_p, cfg.N_c
    powers = [np.eye(5)]
    for _ in range(n_p):
        powers.append(model.A_hat @ powers[-1])
    pb = [powers[i] @ model.B_hat for i in range(n_p)]
    S = np.zeros((5 * n_p, 2 * n_c))
    c = np.empty(5 * n_p)
    acc = np.zeros(5)
    for k in range(1, n_p + 1):
        acc = model.A_hat @ acc + model.D_hat
        c[5 * (k - 1):5 * k] = powers[k] @ xi_now + acc - xi_eq
        for j in range(1, min(k, n_c) + 1):
            S[5 * (k - 1):5 * k, 2 * (j - 1):2 * j] = pb[k - j]
    return S, c


def solve_mpc(xi_now: np.ndarray, dep: DriftEquilibrium, model: AugmentedModel,
              cfg: MpcConfig, limits: ControlLimits) -> MpcSolution:
    """One receding-horizon solve; returns the next input to apply.

    xi_now stacks the measured state with the previously applied input,
    (V, beta, r, delta_prev, F_prev).  The previous input must respect the
    input set or the increment QP has no feasible start.
    """
    xi_now = np.asarray(xi_now, dtype=float)
    if not np.all(np.isfinite(xi_now)):
        raise ConfigError("xi_now must be finite")
    u_prev = xi_now[3:]
    lo = np.array([limits.delta_min, limits.F_min])
    hi = np.array([limits.delta_max, limits.F_max])
    if np.any(u_prev < lo - 1e-9) or np.any(u_prev > hi + 1e-9):
        raise InfeasibleQpError("previous input outside the input set")

    xi_eq = dep.as_array()
    S, c = _condense(model, xi_now, xi_eq, cfg)
    n_c = cfg.N_c
    q_diag = np.tile(np.asarray(cfg.Q, dtype=float), cfg.N_p)
    r_diag = np.tile(np.asarray(cfg.R, dtype=float), n_c)
    SQ = S * q_diag[:, None]
    H = 2.0 * (S.T @ SQ + np.diag(r_diag))
    H = 0.5 * (H + H.T)
    g = 2.0 * (SQ.T @ c)
    const = float(c @ (q_diag * c))

    nv = 2 * n_c
    rate = np.array([limits.d_delta_lim, limits.d_F_lim])
    # rate bounds: +-w_j <= rate, stacked per step
    A_rate = np.vstack([np.eye(nv), -np.eye(nv)])
    b_rate = np.tile(rate, 2 * n_c)
    # input bounds: u_prev + cumulative sum of increments within [lo, hi]
    cum = np.kron(np.tril(np.ones((n_c, n_c))), np.eye(2))
    b_hi = np.tile(hi - u_prev, n_c)
    b_lo = np.tile(u_prev - lo, n_c)
    A = np.vstack([A_rate, cum, -cum])
    b = np.concatenate([b_rate, b_hi, b_lo])

    res = solve_qp(H, g, A, b)
    w = res.x
    du1 = w[:2].copy()
    u_next = u_prev + du1
    # snap exactly onto any active first-step bound to keep invariants tight
    u_next = np.minimum(np.maximum(u_next, lo), hi)
    cost = float(0.5 * w @ H @ w + g @ w + const)
    kkt = res.kkt_residuals(H, g, A, b)
    return MpcSolution(u_next=ControlInput(float(u_next[0]), float(u_next[1])),
                       cost=cost, delta_u=du1, kkt=kkt,
                       qp_iterations=res.iterations, n_active=len(res.active))


def predict_trajectory(model: AugmentedModel, xi_now: np.ndarray,
                       increments: np.ndarray, n_p: int) -> np.ndarray:
    """Roll the augmented model forward under an increment sequence.

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
