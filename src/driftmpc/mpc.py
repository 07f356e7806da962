"""Linearized drift MPC.

Linearizes the nominal model around the current drift equilibrium, builds
the input-increment augmented system, condenses the receding-horizon
problem into a dense QP over the increment sequence, and solves it with
the active-set solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .equilibrium import DriftEquilibrium
from .errors import (ConfigError, FrictionCircleError, InfeasibleQpError,
                     UncertifiedQpError)
from .qp import KKT_TOL, solve_qp
from .vehicle import ControlInput, ControlLimits, VehicleParams, dynamics


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


def linearize(dep: DriftEquilibrium, params: VehicleParams,
              dT: float) -> LinearModel:
    """Discrete affine model at the equilibrium via central differences.

    Continuous Jacobians use central differences over the columns of (x, u);
    the discretization is first-order hold, A = I + A_c dT, B = B_c dT.  The
    offset d makes the equilibrium an exact fixed point.
    """
    z_eq = dep.as_array()
    jac = np.empty((3, 5))
    # dynamics takes Python floats: the same IEEE results as NumPy scalars, faster
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
            # equilibrium force sits at the circle cap; difference one-sided
            jac[:, j] = np.subtract(dynamics(*z_eq.tolist(), params),
                                    dynamics(*zm.tolist(), params)) / h
    x_eq, u_eq = z_eq[:3], z_eq[3:]
    A = np.eye(3) + jac[:, :3] * dT
    B = jac[:, 3:] * dT
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


@lru_cache(maxsize=64)
def _lag_index(n_p: int, n_c: int) -> np.ndarray:
    """Block (k, j) of S takes stacked block max(k + 1 - j, 0)."""
    lag = np.arange(1, n_p + 1)[:, None] - np.arange(n_c)[None, :]
    return np.maximum(lag, 0)


def _condense(model: AugmentedModel, xi_now: np.ndarray, xi_eq: np.ndarray,
              cfg: MpcConfig):
    """Stack the horizon: deviation_k = S w + c_k with w the increments;
    S is block Toeplitz, block (k, j) = A_hat^(k-j) B_hat for j <= k."""
    n_p, n_c = cfg.N_p, cfg.N_c
    powers = np.empty((n_p + 1, 5, 5))
    powers[0] = np.eye(5)
    acc = np.empty((n_p, 5))
    prev = np.zeros(5)
    for k in range(1, n_p + 1):
        powers[k] = model.A_hat @ powers[k - 1]
        prev = acc[k - 1] = model.A_hat @ prev + model.D_hat
    c = (powers[1:] @ xi_now + acc - xi_eq).ravel()
    # blocks[i] = A_hat^(i-1) B_hat, with the zero block at i = 0
    blocks = np.empty((n_p + 1, 5, 2))
    blocks[0] = 0.0
    blocks[1:] = powers[:n_p] @ model.B_hat
    S = blocks[_lag_index(n_p, n_c)].transpose(0, 2, 1, 3).reshape(5 * n_p, 2 * n_c)
    return S, c


@dataclass(frozen=True)
class _Constraints:
    """The parts of the MPC QP fixed by (MpcConfig, ControlLimits)."""
    A: np.ndarray       # rate rows, then upper and lower prefix-sum rows
    b_rate: np.ndarray  # right-hand side of the rate rows
    lo: np.ndarray      # (delta_min, F_min)
    hi: np.ndarray      # (delta_max, F_max)
    q_diag: np.ndarray  # stacked state-input weights over N_p
    R_bar: np.ndarray   # diagonal increment weight matrix over N_c


@lru_cache(maxsize=16)
def _constraints(cfg: MpcConfig, limits: ControlLimits) -> _Constraints:
    n_c = cfg.N_c
    nv = 2 * n_c
    # rate bounds: +-w_j <= rate, stacked per step
    A_rate = np.vstack([np.eye(nv), -np.eye(nv)])
    # input bounds: u_prev + cumulative sum of increments within [lo, hi]
    cum = np.kron(np.tril(np.ones((n_c, n_c))), np.eye(2))
    A = np.vstack([A_rate, cum, -cum])
    rate = np.array([limits.d_delta_lim, limits.d_F_lim])
    out = _Constraints(
        A=A, b_rate=np.tile(rate, 2 * n_c),
        lo=np.array([limits.delta_min, limits.F_min]),
        hi=np.array([limits.delta_max, limits.F_max]),
        q_diag=np.tile(np.asarray(cfg.Q, dtype=float), cfg.N_p),
        R_bar=np.diag(np.tile(np.asarray(cfg.R, dtype=float), n_c)))
    for arr in vars(out).values():
        arr.flags.writeable = False
    return out


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
    con = _constraints(cfg, limits)
    lo, hi = con.lo, con.hi
    if np.any(u_prev < lo - 1e-9) or np.any(u_prev > hi + 1e-9):
        raise InfeasibleQpError("previous input outside the input set")

    xi_eq = dep.as_array()
    S, c = _condense(model, xi_now, xi_eq, cfg)
    q_diag = con.q_diag
    SQ = S * q_diag[:, None]
    H = 2.0 * (S.T @ SQ + con.R_bar)
    H = 0.5 * (H + H.T)
    g = 2.0 * (SQ.T @ c)
    const = float(c @ (q_diag * c))

    n_c = cfg.N_c
    A = con.A
    b = np.concatenate([con.b_rate, np.tile(hi - u_prev, n_c),
                        np.tile(u_prev - lo, n_c)])

    res = solve_qp(H, g, A, b)
    kkt = res.kkt_residuals(H, g, A, b)
    # no scale is below 1, so only an absolute residual above KKT_TOL can fail
    if not all(v <= KKT_TOL for v in kkt.values()) and \
            not (rel := res.relative_residual(H, g, A, b)) <= KKT_TOL:
        raise UncertifiedQpError(f"QP answer misses its KKT certificate ({rel:.1e})")
    w = res.x
    du1 = w[:2].copy()
    u_next = u_prev + du1
    # snap exactly onto any active first-step bound to keep invariants tight
    u_next = np.minimum(np.maximum(u_next, lo), hi)
    cost = float(0.5 * w @ H @ w + g @ w + const)
    return MpcSolution(u_next=ControlInput(float(u_next[0]), float(u_next[1])),
                       cost=cost, delta_u=du1, kkt=kkt,
                       qp_iterations=res.iterations, n_active=len(res.active))
