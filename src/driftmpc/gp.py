"""Zero-mean Gaussian-process regression with a Matern-5/2 kernel.

Inputs are normalized to the unit box inside the model (the tuned
parameters span scales from ~0.1 rad to ~10), with per-dimension
lengthscales living in the normalized space.  Hyperparameters are chosen
by multi-start maximization of the log marginal likelihood.

gp_fit and gp_predict_batch check their inputs once at entry, so the
Cholesky factorization and solves call LAPACK directly, as qp does: the
potrf/potrs that scipy.linalg.cho_factor/cho_solve run (lower factor),
without their per-call checks.  They are qp's dpotrf and dpotrs, the
function objects of scipy.linalg._flapack that qp loads without the rest of
scipy.linalg, so the factors keep their bits.  OpenBLAS's potrf does not
flag NaN or inf, so the entry checks reject non-finite inputs before they
reach it, and the posterior is checked once where finite inputs overflow
the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qp import dpotrf, dpotrs

SQRT5 = math.sqrt(5.0)
MAX_JITTER_FACTOR = 1e-6
N_STARTS = 8  # hyperparameter-search starts; the best half are polished
# observation noise variance: episodes are deterministic, so a tiny fixed
# nugget; a learned noise variance would absorb isolated good episodes
# surrounded by failure-cost plateau as if they were measurement noise
NUGGET = 1e-6


@dataclass(frozen=True)
class GpDataset:
    thetas: np.ndarray          # (n, d) raw parameter points
    costs: np.ndarray           # (n,) noisy observations
    noise_var: float = NUGGET   # fixed observation noise variance

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.atleast_2d(np.asarray(self.thetas, float)))
        object.__setattr__(self, "costs", np.asarray(self.costs, float).ravel())
        if len(self.thetas) != len(self.costs):
            raise ConfigError("thetas and costs must have equal length")
        if not np.all(np.isfinite(self.thetas)) or not np.all(np.isfinite(self.costs)):
            raise ConfigError("dataset contains non-finite values")
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0.0):
            raise ConfigError("noise_var must be finite and non-negative")


def matern52_matrix(Xa: np.ndarray, Xb: np.ndarray, sigma_eta2: float,
                    lengthscales: np.ndarray) -> np.ndarray:
    """Matern-5/2 covariances between the rows of Xa and the rows of Xb.

    The distance is the Euclidean norm of the elementwise-scaled
    difference, so anisotropic lengthscales are supported.
    """
    A = Xa / lengthscales
    Bm = Xb / lengthscales
    d2 = np.maximum(
        (A * A).sum(axis=1)[:, None] + (Bm * Bm).sum(axis=1)[None, :]
        - 2.0 * A @ Bm.T, 0.0)
    rho = np.sqrt(d2)
    return sigma_eta2 * (1.0 + SQRT5 * rho + (5.0 / 3.0) * d2) * np.exp(-SQRT5 * rho)


@dataclass
class GpModel:
    x_norm: np.ndarray        # (n, d) normalized training inputs
    lo: np.ndarray            # (d,) box used for normalization
    hi: np.ndarray
    sigma_eta2: float         # signal variance
    lengthscales: np.ndarray  # (d,) in normalized space
    chol: np.ndarray          # lower Cholesky factor of K + noise I (+ jitter)
    alpha: np.ndarray         # (K + noise I)^-1 y

    def normalize(self, thetas: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(thetas, float)) - self.lo) / (self.hi - self.lo)


def _merge_duplicates(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average observations taken at identical inputs, in first-seen order."""
    seen: dict[bytes, list[int]] = {}
    for i, row in enumerate(X):
        seen.setdefault(row.tobytes(), []).append(i)
    if len(seen) == len(X):
        return X, y
    groups = list(seen.values())
    return X[[g[0] for g in groups]], np.array([float(np.mean(y[g])) for g in groups])


def _posterior(X: np.ndarray, y: np.ndarray, ell: np.ndarray, sigma_eta2: float,
               noise_var: float):
    """Lower Cholesky factor of K + noise I (jittered if need be) and
    (K + noise I)^-1 y."""
    K_noisy = matern52_matrix(X, X, sigma_eta2, ell) + noise_var * np.eye(len(X))
    jitter = 0.0
    for _ in range(8):
        chol, minor = dpotrf(K_noisy + jitter * np.eye(len(X)), lower=1, clean=0)
        if not minor:
            return chol, dpotrs(chol, y, lower=1)[0]
        jitter = max(jitter * 10.0, 1e-12 * sigma_eta2)
        if jitter > MAX_JITTER_FACTOR * sigma_eta2:
            break
    raise ConfigError("kernel matrix is not positive definite even with jitter")


def _neg_lml(log_params: np.ndarray, X: np.ndarray, y: np.ndarray,
             noise_var: float) -> float:
    d = X.shape[1]
    try:
        chol, alpha = _posterior(X, y, np.exp(log_params[:d]),
                                 math.exp(log_params[d]), noise_var)
    except ConfigError:
        return 1e12
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return float(0.5 * y @ alpha + 0.5 * logdet + 0.5 * len(y) * math.log(2 * math.pi))


def gp_fit(dataset: GpDataset, lo, hi, *, seed: int = 0,
           hypers: tuple | None = None) -> GpModel:
    """Fit the GP: normalize inputs, choose hyperparameters, cache the factor.

    lo and hi, finite with lo < hi, are the box the inputs are normalized
    to.  hypers, when given as (lengthscales, sigma_eta2), finite and
    positive, skips the marginal-likelihood search (used when refitting
    between scheduled hyperparameter updates).
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if len(dataset.thetas) < 2:
        raise ConfigError("need at least 2 observations to fit")
    d = dataset.thetas.shape[1]
    if not (lo.shape == hi.shape == (d,) and np.isfinite(lo).all()
            and np.isfinite(hi).all() and (lo < hi).all()):
        raise ConfigError(f"the box needs finite lo < hi of length {d}, got "
                          f"lo {lo.tolist()}, hi {hi.tolist()}")
    X, y = _merge_duplicates((dataset.thetas - lo) / (hi - lo), dataset.costs)

    if hypers is not None:
        ell, sigma_eta2 = np.asarray(hypers[0], float), float(hypers[1])
        if not (np.isfinite(ell).all() and (ell > 0.0).all()
                and math.isfinite(sigma_eta2) and sigma_eta2 > 0.0):
            raise ConfigError(f"hyperparameters must be finite and positive, got "
                              f"lengthscales {ell.tolist()}, sigma_eta2 {sigma_eta2}")
    else:
        from scipy.optimize import minimize  # imported on first use: only the tuner needs it
        var_y = float(np.var(y)) or 1.0  # constant data: unit signal scale
        bounds = [(math.log(0.01), math.log(10.0))] * d \
            + [(math.log(1e-4 * var_y), math.log(1e2 * var_y))]
        rng = np.random.default_rng(seed)
        starts = [np.array([math.log(0.3)] * d + [math.log(var_y)])]
        for _ in range(N_STARTS - 1):
            starts.append(np.array([rng.uniform(b[0], b[1]) for b in bounds]))
        # rank the starts by their raw likelihood and polish only the best
        # half; the rest rarely win and double the fitting cost
        ranked = sorted(starts, key=lambda x0: _neg_lml(x0, X, y, dataset.noise_var))
        best = None
        for x0 in ranked[:N_STARTS // 2]:
            res = minimize(_neg_lml, x0, args=(X, y, dataset.noise_var),
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 60, "ftol": 1e-10})
            if best is None or res.fun < best.fun:
                best = res
        ell = np.exp(best.x[:d])
        sigma_eta2 = math.exp(best.x[d])

    chol, alpha = _posterior(X, y, ell, sigma_eta2, dataset.noise_var)
    if not np.isfinite(alpha).all():
        # finite inputs can still overflow the kernel (a lengthscale of 1e-200)
        raise ConfigError("the kernel overflows: the GP posterior is not finite")
    return GpModel(x_norm=X, lo=lo, hi=hi, sigma_eta2=float(sigma_eta2),
                   lengthscales=ell, chol=chol, alpha=alpha)


def gp_predict(model: GpModel, theta) -> tuple[float, float]:
    """Posterior mean and (non-negative) latent variance at one point."""
    mu, var = gp_predict_batch(model, np.atleast_2d(np.asarray(theta, float)))
    return float(mu[0]), float(var[0])


def gp_predict_batch(model: GpModel, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Xs = model.normalize(thetas)
    if not np.isfinite(Xs).all():
        raise ConfigError("prediction points must be finite")
    k_star = matern52_matrix(Xs, model.x_norm, model.sigma_eta2, model.lengthscales)
    mu = k_star @ model.alpha
    if not np.isfinite(mu).all():
        raise ConfigError("the kernel overflows: the GP posterior is not finite "
                          "at the prediction points")
    v = dpotrs(model.chol, k_star.T, lower=1)[0]
    var = model.sigma_eta2 - np.einsum("ij,ji->i", k_star, v)
    var = np.where(var < 1e-12, 0.0, var)
    return mu, var
