"""Drift-equilibrium solver.

A drift equilibrium fixes the steering angle and the turn radius, then
zeroes all three state derivatives of the single-track model in the
unknowns (V, beta, F_xr), with the yaw rate eliminated through r = V / R.
The drift branch is the high-sideslip, counter-steered saddle; low-sideslip
(grip) solutions are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .csvout import write_csv
from .errors import (ConfigError, DegenerateSpeedError, FrictionCircleError,
                     GripBranchError, NoConvergenceError)
from .qp import _lu_solve
from .vehicle import VehicleParams, VehicleState, dynamics

RESIDUAL_TOL = 1e-8
MAX_ITER = 100
DRIFT_BETA_MIN = 0.2  # rad, separates the drift saddle from grip solutions
R_EQ_MIN = 5.0    # m, smallest drift radius magnitude
R_EQ_MAX = 500.0  # m, largest drift radius magnitude


@dataclass(frozen=True)
class DriftEquilibrium:
    V_eq: float      # [m/s]
    beta_eq: float   # [rad]
    r_eq: float      # [rad/s]
    delta_eq: float  # [rad]
    F_xr_eq: float   # [N]
    R_eq: float      # signed radius [m], R_eq = V_eq / r_eq

    def state(self) -> VehicleState:
        return VehicleState(self.V_eq, self.beta_eq, self.r_eq)

    def as_array(self) -> np.ndarray:
        """5-vector (V, beta, r, delta, F_xr)."""
        return np.array([self.V_eq, self.beta_eq, self.r_eq,
                         self.delta_eq, self.F_xr_eq])


def default_seed(R_eq: float, params: VehicleParams) -> tuple[float, float, float]:
    """Seed inside the drift basin for sedan-scale parameters."""
    return (10.0, -0.5 * math.copysign(1.0, R_eq), 0.5 * params.F_r_max)


def _residual(V: float, beta: float, F_xr: float, delta_eq: float, R_eq: float,
              params: VehicleParams) -> tuple[float, float, float] | None:
    try:
        return dynamics(V, beta, V / R_eq, delta_eq, F_xr, params)
    except (FrictionCircleError, DegenerateSpeedError):
        return None


def _norm(res) -> float:
    """np.linalg.norm of the residual: the square root of its ddot."""
    a = np.array(res)
    return math.sqrt(a.dot(a))


def _newton(seed, delta_eq: float, R_eq: float,
            params: VehicleParams) -> np.ndarray | None:
    """Damped Newton with forward-difference Jacobian; None if it fails.

    The iterate and the residuals are Python floats, which round exactly as
    NumPy's element-wise operations do; only the 3x3 step solve (the LU
    gufunc np.linalg.solve runs) and the residual norm (its ddot) go
    through NumPy."""
    f_cap = params.F_r_max * (1.0 - 1e-12)
    V, beta, F_xr = map(float, seed)
    z = [max(V, 0.5), beta, min(max(F_xr, -f_cap), f_cap)]
    res = _residual(*z, delta_eq, R_eq, params)
    if res is None:
        return None
    for _ in range(MAX_ITER):
        norm0 = _norm(res)
        if norm0 < RESIDUAL_TOL:
            return np.array(z)
        cols = []
        for j in range(3):
            h = 1e-6 * (1.0 + abs(z[j]))
            zp = z.copy()
            zp[j] += h
            res_p = _residual(*zp, delta_eq, R_eq, params)
            if res_p is None:  # stepped outside the domain; try backward
                zp[j] -= 2.0 * h
                res_p = _residual(*zp, delta_eq, R_eq, params)
                if res_p is None:
                    return None
                cols.append([(r - rp) / h for r, rp in zip(res, res_p)])
            else:
                cols.append([(rp - r) / h for r, rp in zip(res, res_p)])
        try:
            dz = _lu_solve(np.array(cols).T, np.array([-r for r in res])).tolist()
        except LinAlgError:
            return None
        # backtracking line search with domain projection
        lam = 1.0
        for _ in range(25):
            zt = [zi + lam * dzi for zi, dzi in zip(z, dz)]
            zt[0] = max(zt[0], 0.5)
            zt[2] = min(max(zt[2], -f_cap), f_cap)
            res_t = _residual(*zt, delta_eq, R_eq, params)
            if res_t is not None and _norm(res_t) < norm0:
                z, res = zt, res_t
                break
            lam *= 0.5
        else:
            return None
    return None


def _is_drift_branch(beta: float, r: float) -> bool:
    return abs(beta) > DRIFT_BETA_MIN and beta * r < 0.0


def check_radius(R_eq: float) -> None:
    """Raise ConfigError unless R_EQ_MIN <= |R_eq| <= R_EQ_MAX."""
    if not R_EQ_MIN <= abs(R_eq) <= R_EQ_MAX:
        raise ConfigError(
            f"|R_eq|={abs(R_eq):.2f} m outside [{R_EQ_MIN:g}, {R_EQ_MAX:g}] m")


def solve_dep(delta_eq: float, R_eq: float, params: VehicleParams,
              prev: DriftEquilibrium | None = None) -> DriftEquilibrium:
    """Solve for the drift equilibrium at a fixed steering angle and radius.

    prev is an optional earlier equilibrium to start from, its sideslip
    mirrored when the turn flips (drift switching); the default seed (and a
    couple of variations) are always tried after it.  Raises
    NoConvergenceError if no seed converges and GripBranchError if every
    converged solution is on the grip branch; ConfigError for a steering
    angle that is not finite or a radius outside the range.
    """
    if not math.isfinite(delta_eq):
        raise ConfigError(f"delta_eq must be finite, got {delta_eq!r}")
    check_radius(R_eq)
    base = default_seed(R_eq, params)
    seeds = [base, (base[0] * 1.6, base[1] * 1.4, base[2]),
             (base[0] * 0.6, base[1] * 0.7, base[2] * 1.3)]
    if prev is not None:
        beta = -prev.beta_eq if prev.R_eq * R_eq < 0 else prev.beta_eq
        seeds.insert(0, (prev.V_eq, beta, prev.F_xr_eq))
    converged_grip = False
    for s in seeds:
        z = _newton(s, delta_eq, R_eq, params)
        if z is None:
            continue
        V, beta, F_xr = float(z[0]), float(z[1]), float(z[2])
        r = V / R_eq
        if not _is_drift_branch(beta, r):
            converged_grip = True
            continue
        return DriftEquilibrium(V_eq=V, beta_eq=beta, r_eq=r,
                                delta_eq=delta_eq, F_xr_eq=F_xr, R_eq=R_eq)
    if converged_grip:
        raise GripBranchError(
            f"only low-sideslip solutions found at delta={delta_eq:.3f}, R={R_eq:.1f}")
    raise NoConvergenceError(
        f"no equilibrium found at delta={delta_eq:.3f}, R={R_eq:.1f}")


@dataclass(frozen=True)
class SweepCell:
    delta_eq: float
    R_eq: float
    eq: DriftEquilibrium | None  # None where the solve failed


def dep_sweep(delta_grid, R_grid, params: VehicleParams) -> list[SweepCell]:
    """Solve a grid of (delta, R) pairs with warm-started continuation.

    Walks each steering column through the radius grid, warm-starting every
    solve from its converged neighbour.  Failures are recorded per cell.
    """
    if len(delta_grid) == 0 or len(R_grid) == 0:
        raise ConfigError("sweep grids must be non-empty")
    cells: list[SweepCell] = []
    col_first = None
    for delta in delta_grid:
        prev = col_first
        for R in R_grid:
            try:
                prev = solve_dep(float(delta), float(R), params, prev=prev)
                cells.append(SweepCell(float(delta), float(R), prev))
            except (NoConvergenceError, GripBranchError, ConfigError):
                cells.append(SweepCell(float(delta), float(R), None))
        # the next column starts from this column's first equilibrium
        col_first = next((c.eq for c in cells[-len(R_grid):] if c.eq is not None), None)
    return cells


def sweep_to_csv(cells: list[SweepCell], path) -> None:
    """One row per cell; a cell without an equilibrium reads nan,...,0."""
    rows = [(c.delta_eq, c.R_eq, c.eq.V_eq, c.eq.beta_eq, c.eq.r_eq, c.eq.F_xr_eq, 1)
            if c.eq is not None
            else (c.delta_eq, c.R_eq, math.nan, math.nan, math.nan, math.nan, 0)
            for c in cells]
    write_csv(path, ["delta", "R", "V", "beta", "r", "Fxr", "converged"], rows)
