"""Linearized drift MPC.

Linearizes the nominal model around the current drift equilibrium, builds
the input-increment augmented system, condenses the receding-horizon
problem into a dense QP over the increment sequence, and solves it with
the active-set solver.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .equilibrium import DriftEquilibrium
from .errors import (ConfigError, FrictionCircleError, InfeasibleQpError,
                     UncertifiedQpError)
from .qp import KKT_TOL, _Setup, _setup, solve_qp
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
        for name in ("N_p", "N_c"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {n!r}")
        object.__setattr__(self, "Q", tuple(self.Q))
        object.__setattr__(self, "R", tuple(self.R))
        if len(self.Q) != 5 or len(self.R) != 2:
            raise ConfigError(f"need 5 state-input weights Q and 2 increment "
                              f"weights R, got {len(self.Q)} and {len(self.R)}")
        if self.N_c > self.N_p or self.N_c < 1:
            raise ConfigError("need 1 <= N_c <= N_p")
        if not all(math.isfinite(w) and w > 0 for w in self.Q + self.R):
            raise ConfigError("weights must be finite and strictly positive")
        if not (math.isfinite(self.dT) and self.dT > 0):
            raise ConfigError("dT must be finite and positive")
        # the parts of the condensed QP fixed by the configuration alone,
        # derived once as read-only attributes rather than fields, so asdict(),
        # ==, hash and the scenario files hold only the values above
        n_p, n_c = self.N_p, self.N_c
        # block (k, j) of S is stacked block max(k + 1 - j, 0) of the
        # (N_p + 1, 5, 2) blocks: S[5k + i, 2j + l] = blocks[max(k + 1 - j, 0), i, l]
        lag = np.maximum(np.arange(1, n_p + 1)[:, None] - np.arange(n_c)[None, :], 0)
        # input bounds: u_prev + cumulative sum of increments within [lo, hi]
        cum = np.kron(np.tril(np.ones((n_c, n_c))), np.eye(2))
        derived = {"lag": (10 * lag[:, None, :, None] + 2 * np.arange(5)[:, None, None]
                           + np.arange(2)).reshape(5 * n_p, 2 * n_c),  # gathers S
                   "q_diag": np.tile(np.asarray(self.Q, dtype=float), n_p),
                   "R_bar": np.diag(np.tile(np.asarray(self.R, dtype=float), n_c)),
                   # rate rows +-w_j <= rate, then upper and lower input-bound rows
                   "A": np.vstack([np.eye(2 * n_c), -np.eye(2 * n_c), cum, -cum])}
        for name, arr in derived.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def linearize(dep: DriftEquilibrium, params: VehicleParams,
              dT: float) -> LinearModel:
    """Discrete affine model at the equilibrium via central differences.

    Continuous Jacobians use central differences over the columns of (x, u);
    the discretization is first-order hold, A = I + A_c dT, B = B_c dT.  The
    offset d makes the equilibrium an exact fixed point.
    """
    z = dep.as_array()
    z_eq = z.tolist()
    # Python floats through dynamics and the differences: each element takes
    # the IEEE operations an array expression would, without its overhead
    cols = []
    for j in range(5):
        h = 1e-5 * (1.0 + abs(z_eq[j]))
        zp = z_eq.copy()
        zp[j] += h
        zm = z_eq.copy()
        zm[j] -= h
        try:
            fp, fm, h2 = dynamics(*zp, params), dynamics(*zm, params), 2.0 * h
        except FrictionCircleError:
            # equilibrium force sits at the circle cap; difference one-sided
            fp, fm, h2 = dynamics(*z_eq, params), dynamics(*zm, params), h
        cols.append([(p - m) / h2 for p, m in zip(fp, fm)])
    jac = np.array(cols).T.copy()  # C order: BLAS rounds the products below by layout
    x_eq, u_eq = z[:3], z[3:]
    A = np.eye(3) + jac[:, :3] * dT
    B = jac[:, 3:] * dT
    d = x_eq - A.dot(x_eq) - B.dot(u_eq)
    return LinearModel(A=A, B=B, d=d)


def augment(model: LinearModel) -> AugmentedModel:
    """Block assembly of the increment-form system."""
    A_hat = np.zeros((5, 5))
    A_hat[:3, :3] = model.A
    A_hat[:3, 3:] = model.B
    A_hat[3, 3] = A_hat[4, 4] = 1.0
    B_hat = np.zeros((5, 2))
    B_hat[:3] = model.B
    B_hat[3, 0] = B_hat[4, 1] = 1.0
    D_hat = np.zeros(5)
    D_hat[:3] = model.d
    return AugmentedModel(A_hat=A_hat, B_hat=B_hat, D_hat=D_hat)


@dataclass
class MpcSolution:
    u_next: ControlInput
    cost: float             # predicted objective at the optimum
    delta_u: np.ndarray     # first increment applied
    kkt: dict               # qp.QpResult.kkt_residuals of the answer
    qp_iterations: int
    n_active: int


class Horizon(NamedTuple):
    """The parts of the condensed QP fixed by (AugmentedModel, MpcConfig)."""
    cfg: MpcConfig
    powers: np.ndarray  # (N_p + 1, 5, 5): A_hat^k
    acc: np.ndarray     # (N_p, 5): the affine offset of step k from xi = 0
    S: np.ndarray       # (5 N_p, 2 N_c): block (k, j) = A_hat^(k-j) B_hat
    SQ: np.ndarray      # S scaled row-wise by q_diag
    H: np.ndarray       # symmetrized QP Hessian
    setup: _Setup       # solve_qp's _setup(H, A), A the constraint rows


def condense(model: AugmentedModel, cfg: MpcConfig) -> Horizon:
    """Stack the horizon of a model: deviation_k = S w + c_k with w the
    increments; S is block Toeplitz.  It depends on the drift equilibrium
    alone, so the caller builds it when the equilibrium moves and hands it
    to solve_mpc while the equilibrium holds; the QP is set up here, once.
    Read-only."""
    n_p, n_c = cfg.N_p, cfg.N_c
    A_hat, D_hat = model.A_hat, model.D_hat
    # each product writes into its slot: the gemm/gemv calls of
    # A_hat @ powers[k - 1] and A_hat @ acc[k - 2] + D_hat, without temporaries.
    # 2-D products call ndarray.dot, the same cblas calls as @ with less
    # dispatch; stacked ones stay matmul, as dot leaves BLAS for N-D operands
    powers = np.empty((n_p + 1, 5, 5))
    powers[0] = np.eye(5)
    acc = np.empty((n_p, 5))
    prev = np.zeros(5)
    for k in range(1, n_p + 1):
        A_hat.dot(powers[k - 1], out=powers[k])
        prev = A_hat.dot(prev, out=acc[k - 1])
        prev += D_hat
    # blocks[i] = A_hat^(i-1) B_hat, with the zero block at i = 0
    blocks = np.empty((n_p + 1, 5, 2))
    blocks[0] = 0.0
    np.matmul(powers[:n_p], model.B_hat, out=blocks[1:])
    S = blocks.ravel().take(cfg.lag)
    SQ = S * cfg.q_diag[:, None]
    H = 2.0 * (S.T.dot(SQ) + cfg.R_bar)
    H = 0.5 * (H + H.T)
    out = Horizon(cfg, powers, acc, S, SQ, H, _setup(H, cfg.A))
    for arr in (*out[1:-1], *out.setup):
        arr.flags.writeable = False
    return out


def _offsets(hz: Horizon, xi_now: np.ndarray, xi_eq: np.ndarray) -> np.ndarray:
    """The stacked free response c: deviation_k = S w + c_k."""
    c = hz.powers[1:] @ xi_now
    c += hz.acc
    c -= xi_eq
    return c.ravel()


def solve_mpc(xi_now: np.ndarray, dep: DriftEquilibrium, horizon: Horizon,
              limits: ControlLimits) -> MpcSolution:
    """One receding-horizon solve on the condensed horizon of the model
    linearized at dep; returns the next input to apply.

    xi_now stacks the measured state with the previously applied input,
    (V, beta, r, delta_prev, F_prev).  The previous input must respect the
    input set or the increment QP has no feasible start.
    """
    xi_now = np.asarray(xi_now, dtype=float)
    if not np.isfinite(xi_now).all():
        raise ConfigError("xi_now must be finite")
    u_prev = xi_now[3:]
    cfg = horizon.cfg
    lo = np.array([limits.delta_min, limits.F_min])
    hi = np.array([limits.delta_max, limits.F_max])
    if (u_prev < lo - 1e-9).any() or (u_prev > hi + 1e-9).any():
        raise InfeasibleQpError("previous input outside the input set")

    c = _offsets(horizon, xi_now, dep.as_array())
    H = horizon.H
    g = 2.0 * horizon.SQ.T.dot(c)
    const = float(c.dot(cfg.q_diag * c))

    A = cfg.A
    n_rate = 4 * cfg.N_c
    b = np.empty(A.shape[0])
    # the rate rows, then the upper and lower input-bound rows, in (delta, F) pairs
    b[:n_rate].reshape(-1, 2)[:] = limits.d_delta_lim, limits.d_F_lim
    bounds = b[n_rate:].reshape(2, cfg.N_c, 2)
    bounds[0] = hi - u_prev
    bounds[1] = u_prev - lo

    res = solve_qp(H, g, A, b, setup=horizon.setup)
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
    cost = float((0.5 * w).dot(H).dot(w) + g.dot(w) + const)
    return MpcSolution(u_next=ControlInput(float(u_next[0]), float(u_next[1])),
                       cost=cost, delta_u=du1, kkt=kkt,
                       qp_iterations=res.iterations, n_active=len(res.active))
