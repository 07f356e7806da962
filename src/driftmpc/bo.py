"""Bayesian-optimization supervisor: expected improvement, acquisition
search, and the evaluate-update-acquire loop over a black-box runner.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gp import NUGGET, GpDataset, GpModel, gp_fit, gp_predict, gp_predict_batch

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
REFIT_EVERY = 5  # bo_loop searches GP hyperparameters every this many steps
SOBOL_BITS = 30  # Sobol' points lie on a 2**-SOBOL_BITS grid, as scipy's default


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")


@functools.cache
def _sobol_directions(d: int) -> np.ndarray:
    """Direction numbers of the first d Sobol' dimensions as a read-only
    (d, SOBOL_BITS) uint32 array, column j scaled by 2**(SOBOL_BITS-1-j).
    Row 0 is all ones; row k follows the Bratley-Fox recurrence from the
    Joe-Kuo primitive polynomial poly[k] and initial numbers vinit[k], read
    from the table SciPy ships (which imports scipy, not scipy.stats) once
    per dimension."""
    table = os.path.join(importlib.util.find_spec("scipy.stats").submodule_search_locations[0],
                         "_sobol_direction_numbers.npz")
    try:
        with np.load(table) as npz:
            poly, vinit = npz["poly"][:d].tolist(), npz["vinit"][:d].tolist()
    except OSError as exc:
        raise ConfigError(f"cannot read the Sobol' direction numbers {table}: "
                          f"{exc.strerror}") from exc
    if len(poly) < d:
        raise ConfigError(f"Sobol' samples have at most {len(poly)} dimensions, asked for {d}")
    v = np.ones((d, SOBOL_BITS), dtype=np.uint32)
    for k in range(1, d):
        p = poly[k]
        m = p.bit_length() - 1
        row = vinit[k][:m]
        for j in range(m, SOBOL_BITS):
            new = row[j - m]
            for i in range(m):
                if (p >> (m - 1 - i)) & 1:
                    new ^= row[j - i - 1] << (i + 1)
            row.append(new)
        v[k] = row
    v <<= np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ThetaBounds:
    lo: np.ndarray = field(default_factory=lambda: np.array([-0.7, 0.0, -5.0]))
    hi: np.ndarray = field(default_factory=lambda: np.array([0.4, 2.0, 5.0]))

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, float))
        object.__setattr__(self, "hi", np.asarray(self.hi, float))
        if self.lo.shape != self.hi.shape:
            raise ConfigError(f"bounds lo and hi differ in length: "
                              f"{self.lo.shape} and {self.hi.shape}")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ConfigError(f"bounds must be finite, got lo {self.lo.tolist()}, "
                              f"hi {self.hi.tolist()}")
        if not np.all(self.lo < self.hi):
            raise ConfigError("bounds must satisfy lo < hi componentwise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, theta) -> bool:
        t = np.asarray(theta, float)
        return bool(np.all(t >= self.lo - 1e-12) and np.all(t <= self.hi + 1e-12))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Scrambled Sobol' sample of n points in the box: Joe-Kuo direction
        numbers, then LMS plus digital-shift scrambling drawn from
        `np.random.default_rng(seed)`, on a 2**-30 grid.  The points are the
        first n of `scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)`
        drawn at the next power of two, bit for bit.  Raises ConfigError
        for an n or a seed that is not a non-negative integer."""
        _check_count("sample size", n)
        _check_count("seed", seed)
        if n > 1 << SOBOL_BITS:
            raise ConfigError(f"a Sobol' sample holds at most 2**{SOBOL_BITS} points, "
                              f"asked for {n}")
        rng = np.random.default_rng(seed)
        exps = np.arange(SOBOL_BITS, dtype=np.uint32)
        bit = 1 << exps  # 2**j
        shift = rng.integers(2, size=(self.dim, SOBOL_BITS), dtype=np.uint32) @ bit
        ltm = np.tril(rng.integers(2, size=(self.dim, SOBOL_BITS, SOBOL_BITS),
                                   dtype=np.uint32)) | np.eye(SOBOL_BITS, dtype=np.uint32)
        # LMS: bit 29-p of sv[k, j] is the parity of row p of ltm[k] against
        # the bits of v[k, j], most significant first
        v_bits = (_sobol_directions(self.dim)[:, None, :] >> exps[::-1, None]) & 1
        sv = bit[::-1] @ ((ltm @ v_bits) & 1)
        # Gray-code order: point 0 is the shift, point i is point i-1 XOR
        # sv[:, c], c the index of the lowest zero bit of i-1 (lowest set bit of i)
        i = np.arange(1, n)
        c = np.frexp(i & -i)[1] - 1
        points = np.bitwise_xor.accumulate(np.vstack([shift, sv[:, c].T]))[:n]
        u = points * 2.0 ** -SOBOL_BITS
        return self.lo + u * (self.hi - self.lo)


def _ei(mu, var, best_cost: float) -> np.ndarray:
    """Expected amount by which N(mu, var) beats the incumbent
    (minimization), elementwise; zero where the variance is zero."""
    from scipy.special import ndtr  # imported on first use: only the tuner needs scipy.special
    mu, var = np.atleast_1d(mu, var)
    sigma = np.sqrt(var)
    out = np.zeros(len(mu))
    pos = sigma > 0.0
    z = (best_cost - mu[pos]) / sigma[pos]
    out[pos] = (best_cost - mu[pos]) * ndtr(z) \
        + sigma[pos] * INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return np.maximum(out, 0.0)


def expected_improvement(model: GpModel, theta, best_cost: float) -> float:
    """Expected improvement of the GP posterior at one point."""
    return float(_ei(*gp_predict(model, theta), best_cost)[0])


def _ei_batch(model: GpModel, thetas: np.ndarray, best_cost: float) -> np.ndarray:
    return _ei(*gp_predict_batch(model, thetas), best_cost)


def acquire_next(model: GpModel, bounds: ThetaBounds, best_cost: float,
                 seed: int) -> np.ndarray:
    """Maximize EI: low-discrepancy candidates plus coordinate polish."""
    cands = bounds.sample(2048, seed)
    ei = _ei_batch(model, cands, best_cost)
    order = np.argsort(ei)[::-1][:8]
    best_theta = cands[order[0]].copy()
    best_ei = float(ei[order[0]])
    width = bounds.hi - bounds.lo
    for idx in order:
        theta = cands[idx].copy()
        half = width / 8.0
        for _ in range(3):  # shrinking coordinate sweeps
            for dim in range(bounds.dim):
                grid = np.linspace(max(theta[dim] - half[dim], bounds.lo[dim]),
                                   min(theta[dim] + half[dim], bounds.hi[dim]), 25)
                trial = np.repeat(theta[None, :], len(grid), axis=0)
                trial[:, dim] = grid
                vals = _ei_batch(model, trial, best_cost)
                j = int(np.argmax(vals))
                theta[dim] = grid[j]
            half *= 0.25
        val = float(_ei_batch(model, theta[None, :], best_cost)[0])
        if val > best_ei:
            best_ei = val
            best_theta = theta
    return best_theta


@dataclass
class BoResult:
    theta_star: np.ndarray
    best_cost: float
    thetas: np.ndarray       # (N, d) evaluation order
    costs: np.ndarray        # (N,)
    best_so_far: np.ndarray  # (N,)


def bo_loop(runner, bounds: ThetaBounds, m: int, N: int, seed: int,
            init_thetas=None, noise_var: float = NUGGET) -> BoResult:
    """Space-filling initialization followed by the EI acquisition cycle.

    runner maps a parameter vector to its observed episode cost.  Optional
    init_thetas are evaluated first and count toward the m initial points;
    None and an empty list ask for none.
    Deterministic for a fixed seed and a fixed BLAS thread count.
    """
    if m < 2 or N < m:
        raise ConfigError("need m >= 2 and N >= m")
    # checked before any run: when every initial point is a warm start, the
    # first sample is drawn only at the first acquisition
    _check_count("seed", seed)
    init = np.empty((0, bounds.dim))
    if init_thetas is not None and np.size(init_thetas):
        init = np.array(init_thetas, float, ndmin=2)
    if init.shape[1:] != (bounds.dim,):
        raise ConfigError(f"warm-start points need {bounds.dim} components, "
                          f"got an array of shape {init.shape}")
    if len(init) > m:
        raise ConfigError("more warm-start points than the initial budget")
    for t in init:  # every point before the first (costly) run
        if not bounds.contains(t):
            raise ConfigError(f"initial point {t} outside bounds")
    n_fill = m - len(init)
    thetas = list(np.vstack([init, bounds.sample(n_fill, seed)]) if n_fill else init)
    costs = [float(runner(t)) for t in thetas]

    hypers = None
    width = bounds.hi - bounds.lo
    n_fallback = 0
    for n in range(m, N):
        dataset = GpDataset(np.array(thetas), np.array(costs), noise_var=noise_var)
        refit = (n - m) % REFIT_EVERY == 0
        model = gp_fit(dataset, bounds.lo, bounds.hi, seed=seed,
                       hypers=None if refit else hypers)
        hypers = (model.lengthscales, model.sigma_eta2)
        best = float(np.min(costs))
        theta_next = acquire_next(model, bounds, best, seed=seed + 1000 + n)
        # a re-acquired or zero-information point adds nothing; alternate
        # between global space-filling and local perturbation of the
        # incumbent instead (both deterministic per seed)
        gaps = np.abs((np.array(thetas) - theta_next) / width).max(axis=1)
        ei_val = expected_improvement(model, theta_next, best)
        if float(gaps.min()) < 1e-4 or ei_val < 1e-12:
            if n_fallback % 2 == 0:
                theta_next = bounds.sample(1, seed=seed + 50000 + n)[0]
            else:
                incumbent = thetas[int(np.argmin(costs))]
                rng = np.random.default_rng(seed + 70000 + n)
                theta_next = np.clip(
                    incumbent + rng.standard_normal(bounds.dim) * width / 12.0,
                    bounds.lo, bounds.hi)
            n_fallback += 1
        thetas.append(theta_next)
        costs.append(float(runner(theta_next)))

    costs_arr = np.array(costs)
    best_idx = int(np.argmin(costs_arr))
    return BoResult(theta_star=thetas[best_idx].copy(),
                    best_cost=float(costs_arr[best_idx]),
                    thetas=np.array(thetas), costs=costs_arr,
                    best_so_far=np.minimum.accumulate(costs_arr))
