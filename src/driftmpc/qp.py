"""Dense primal active-set solver for strictly convex QPs.

Solves  min 0.5 x'Hx + g'x  subject to  Ax <= b  from x = 0 (b >= 0).
The problem sizes here (tens of variables, a few hundred rows) make a
dense method with exact KKT certificates the right tool.  Variables are
equilibrated internally (steering increments are radians, force increments
are newtons, so raw Hessians are badly conditioned).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigError, InfeasibleQpError, QpIterationLimitError

FEAS_TOL = 1e-9
MULT_TOL = 1e-9
KKT_TOL = 1e-6  # largest relative KKT residual of an answer solve_mpc applies
MAX_ITER = 500  # active-set iterations before giving up
_NOT_FINITE = "QP data must be finite (b may hold +inf)"


@dataclass
class QpResult:
    x: np.ndarray
    lam: np.ndarray        # multipliers for all rows, zero where inactive
    iterations: int
    active: list           # final working set (row indices)

    def kkt_residuals(self, H, g, A, b) -> dict:
        """Stationarity, primal feasibility and complementarity residuals."""
        grad = H.dot(self.x) + g + A.T.dot(self.lam)
        slack = A.dot(self.x) - b
        on = self.lam != 0.0  # rows without a multiplier (+inf too) are complementary
        return {
            "stationarity": float(_amax(np.abs(grad))) if grad.size else 0.0,
            "feasibility": float(max(_amax(slack), 0.0)) if slack.size else 0.0,
            "complementarity": _max_abs(self.lam[on] * slack[on]),
            "dual": float(max(-_amin(self.lam), 0.0)) if slack.size else 0.0,
        }

    def relative_residual(self, H, g, A, b) -> float:
        """The largest KKT residual over its scale (max norms, at least 1):
        stationarity over |g|, |Hx|, |A'lam|; feasibility over s = |Ax|;
        complementarity over s |lam|; the dual residual over |lam|."""
        r = self.kkt_residuals(H, g, A, b)
        s_feas = max(1.0, _max_abs(A.dot(self.x)))
        s_lam = max(1.0, _max_abs(self.lam))
        s_stat = max(1.0, _max_abs(g), _max_abs(H.dot(self.x)), _max_abs(A.T.dot(self.lam)))
        return max(r["stationarity"] / s_stat, r["feasibility"] / s_feas,
                   r["complementarity"] / (s_feas * s_lam), r["dual"] / s_lam)


# Products of 2-D operands call ndarray.dot, the cblas gemm/gemv that @
# runs, with less dispatch per call; max and min call the reductions that
# ndarray.max and .min run, without numpy's Python-level _amax and _amin
_amax, _amin = np.maximum.reduce, np.minimum.reduce


def _max_abs(v: np.ndarray) -> float:
    return float(_amax(np.abs(v), initial=0.0))


# solve_qp validates its data once at entry, so the Cholesky factorization
# (in _setup) and solves call LAPACK directly: the same potrf/potrs that
# scipy.linalg.cho_factor/cho_solve run, without their per-call checks
def _cho_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return dpotrs(c, rhs, lower=0)[0]


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# the LU solve np.linalg.solve runs for a 1-D right-hand side (LAPACK dgesv
# in NumPy's solve1 gufunc), under the error state np.linalg.solve sets, so
# a singular matrix raises LinAlgError and no RuntimeWarning escapes; only
# its Python-level argument checks are skipped.  a and b are float64.
@np.errstate(call=_raise_singular, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _polish(H, g, A, b, working: list[int], n: int, chol):
    """Solve the equality-constrained KKT system at the final working set,
    with one iterative-refinement pass for tight residuals.  chol is the
    Cholesky factor of H."""
    nw = len(working)
    if nw == 0:
        x = -_cho_solve(chol, g)
        x -= _cho_solve(chol, H.dot(x) + g)  # refinement
        return x, np.zeros(0)
    Aw = A[working]
    kkt = np.zeros((n + nw, n + nw))
    kkt[:n, :n] = H
    kkt[:n, n:] = Aw.T
    kkt[n:, :n] = Aw
    rhs = np.concatenate([-g, b[working]])
    try:
        sol = _lu_solve(kkt, rhs)
        resid = rhs - kkt.dot(sol)
        sol += _lu_solve(kkt, resid)
    except LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


class _Setup(NamedTuple):
    """What solve_qp derives from H and A alone, in the equilibrated
    variables x = D z with D = diag(H_ii^(-1/2))."""
    d: np.ndarray     # the diagonal of D
    Hs: np.ndarray    # D H D
    As: np.ndarray    # A D
    chol: np.ndarray  # upper Cholesky factor of Hs (lower triangle unspecified)


def _setup(H: np.ndarray, A: np.ndarray) -> _Setup:
    """Check H and A (finite, H positive definite with a strictly positive
    diagonal), then equilibrate and factor."""
    if not (np.isfinite(H).all() and np.isfinite(A).all()):
        raise ConfigError(_NOT_FINITE)
    h_diag = np.diag(H)
    if not (h_diag > 0.0).all():
        raise ConfigError("Hessian diagonal must be strictly positive")
    d = 1.0 / np.sqrt(h_diag)
    Hs = H * d[:, None] * d[None, :]
    chol, minor = dpotrf(Hs, lower=0, clean=0)
    if minor:
        raise ConfigError(
            f"Hessian is not positive definite (leading minor {minor})")
    return _Setup(d, Hs, A * d[None, :], chol)


def solve_qp(H: np.ndarray, g: np.ndarray, A: np.ndarray, b: np.ndarray,
             setup: _Setup | None = None) -> QpResult:
    """Minimize 0.5 x'Hx + g'x subject to Ax <= b, starting from x = 0,
    which must be feasible (b >= 0).  H must be n x n, g of length n, A
    m x n and b of length m.  H, g and A must be finite; b may hold +inf
    for an absent bound but no NaN.  H must be positive definite.  setup,
    when given, is _setup(H, A) of these H and A, which a caller solving
    many QPs on one (H, A) computes once; solve_qp computes it otherwise."""
    n = H.shape[0] if H.ndim else 0
    m = A.shape[0] if A.ndim else 0
    if (H.shape != (n, n) or np.shape(g) != (n,) or A.shape != (m, n)
            or np.shape(b) != (m,)):
        raise ConfigError(
            f"QP shapes do not fit: H {H.shape}, g {np.shape(g)}, A {A.shape}, "
            f"b {np.shape(b)}")
    if not (np.isfinite(g).all() and not np.isnan(b).any()):
        raise ConfigError(_NOT_FINITE)
    d, Hs, As, chol = _setup(H, A) if setup is None else setup
    gs = g * d

    z = np.zeros(n)
    if m and float(_amin(b)) < -FEAS_TOL:
        raise InfeasibleQpError("starting point violates the constraints")

    working: list[int] = []
    # row j of aw is the j-th working row of As and row j of hw its H^-1 a_i;
    # both are allocated when the first row joins (a row cannot join twice
    # while it is in the set, so m rows suffice)
    aw = hw = None
    free = np.ones(m, dtype=bool)  # rows outside the working set
    grad = slack = None  # at z; None once z has moved
    for it in range(1, MAX_ITER + 1):
        nw = len(working)
        if grad is None:
            grad = Hs.dot(z) + gs
            hinv_grad = _cho_solve(chol, grad)
            step_scale = max(1.0, float(_amax(np.abs(z), initial=0.0)))
            slack = None
        if nw:
            Aw = aw[:nw]
            # n x n_w in Fortran order: BLAS rounds the products below
            # differently for a C-ordered copy
            hinv_awt = hw[:nw].T
            gram = Aw.dot(hinv_awt)
            # the working multipliers are -nu; LU and gemv are odd in their
            # right-hand side, so solving for -nu instead would differ at
            # most in the sign of a zero, which no comparison below sees
            rhs = Aw.dot(hinv_grad)
            try:
                nu = _lu_solve(gram, rhs)
            except LinAlgError:
                nu = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            p = hinv_awt.dot(nu) - hinv_grad
        else:
            p = -hinv_grad

        p_max = float(_amax(np.abs(p), initial=0.0))
        stationary = p_max < 1e-9 * step_scale
        if not stationary:
            # longest step before a new constraint blocks; a row is a
            # candidate only if p moves into it by more than rounding
            # relative to |p|, so a row that the working set implies (and
            # that would make the Gram matrix singular) never joins it
            alpha = 1.0
            blocking = -1
            if m:
                ap = As.dot(p)
                idx = ((ap > FEAS_TOL * max(1.0, p_max)) & free).nonzero()[0]
                if idx.size:
                    if slack is None:
                        slack = b - As.dot(z)
                    ratios = slack[idx] / ap[idx]
                    k = int(ratios.argmin())
                    if ratios[k] < alpha:
                        alpha = max(float(ratios[k]), 0.0)
                        blocking = int(idx[k])
            if alpha > 0.0:  # a zero-length step leaves z, grad and slack
                z = z + alpha * p
                grad = None
            if blocking >= 0:
                if aw is None:
                    aw, hw = np.empty((m, n)), np.empty((m, n))
                aw[nw] = As[blocking]
                hw[nw] = _cho_solve(chol, As[blocking])
                working.append(blocking)
                free[blocking] = False
                continue
            # full step: z is now the subproblem minimizer and -nu its
            # multiplier vector, so fall through to the optimality check
        if nw and float(_amax(nu)) > MULT_TOL * max(1.0, float(_amax(np.abs(nu)))):
            # drop the row with the most negative multiplier; z stays, and
            # so do grad and H^-1 grad
            k = int(nu.argmax())
            aw[k:nw - 1] = aw[k + 1:nw]
            hw[k:nw - 1] = hw[k + 1:nw]
            free[working.pop(k)] = True
            continue
        zp, lam_p = _polish(Hs, gs, As, b, working, n, chol)
        lam = np.zeros(m)
        lam[working] = np.maximum(lam_p, 0.0)
        return QpResult(x=zp * d, lam=lam, iterations=it, active=list(working))
    raise QpIterationLimitError(f"active-set limit of {MAX_ITER} iterations reached")
