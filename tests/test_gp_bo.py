import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from driftmpc import bo, gp
from driftmpc.bo import ThetaBounds, _ei_batch, acquire_next, bo_loop, expected_improvement
from driftmpc.errors import ConfigError
from driftmpc.gp import (GpDataset, gp_fit, gp_predict, gp_predict_batch,
                         matern52_matrix)
from driftmpc.harness import (TRACE_COLUMNS, CostConfig, EpisodeTrace, episode_cost,
                              metrics_from_trace)

BOUNDS = ThetaBounds()  # stock learning box


def matern52(theta_i, theta_j, sigma_eta2: float, lengthscales) -> float:
    """Oracle: Matern-5/2 covariance between two points, written out on the
    norm of the elementwise-scaled difference."""
    diff = (np.asarray(theta_i, float) - np.asarray(theta_j, float)) \
        / np.asarray(lengthscales, float)
    rho = float(np.linalg.norm(diff))
    return sigma_eta2 * (1.0 + math.sqrt(5.0) * rho + (5.0 / 3.0) * rho * rho) \
        * math.exp(-math.sqrt(5.0) * rho)


def matern52_pair(theta_i, theta_j, sigma_eta2: float, lengthscales) -> float:
    """matern52_matrix on one-row inputs."""
    K = matern52_matrix(np.atleast_2d(np.asarray(theta_i, float)),
                        np.atleast_2d(np.asarray(theta_j, float)),
                        sigma_eta2, np.asarray(lengthscales, float))
    assert K.shape == (1, 1)
    return float(K[0, 0])


def naive_posterior(X, y, Xs, sigma_eta2, ell, noise):
    """Explicit-inverse posterior, the written-out regression equations."""
    K = matern52_matrix(X, X, sigma_eta2, ell)
    Kinv = np.linalg.inv(K + noise * np.eye(len(X)))
    ks = matern52_matrix(Xs, X, sigma_eta2, ell)
    mu = ks @ Kinv @ y
    var = sigma_eta2 - np.einsum("ij,jk,ik->i", ks, Kinv, ks)
    return mu, var


def oracle_posterior(X, y, ell, sigma_eta2, noise_var):
    """gp._posterior in its cho_factor/cho_solve form, the oracle of its bits."""
    K_noisy = matern52_matrix(X, X, sigma_eta2, ell) + noise_var * np.eye(len(X))
    jitter = 0.0
    for _ in range(8):
        try:
            chol = cho_factor(K_noisy + jitter * np.eye(len(X)), lower=True)
            return chol[0], cho_solve(chol, y)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * sigma_eta2)
            if jitter > gp.MAX_JITTER_FACTOR * sigma_eta2:
                break
    raise ConfigError("kernel matrix is not positive definite even with jitter")


def oracle_predict_batch(model, thetas):
    """gp_predict_batch in its cho_solve form."""
    Xs = model.normalize(thetas)
    k_star = matern52_matrix(Xs, model.x_norm, model.sigma_eta2, model.lengthscales)
    v = cho_solve((model.chol, True), k_star.T)
    var = model.sigma_eta2 - np.einsum("ij,ji->i", k_star, v)
    return k_star @ model.alpha, np.where(var < 1e-12, 0.0, var)


def fit_or_error(*args, **kwargs):
    try:
        return gp_fit(*args, **kwargs)
    except ConfigError as exc:
        return str(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sobol_oracle(bounds, n, seed):
    """scipy's scrambled Sobol' points, drawn at the next power of two,
    truncated to n and mapped into the box."""
    from scipy.stats import qmc  # the oracle only: the package never imports it
    u = qmc.Sobol(d=bounds.dim, scramble=True, seed=seed).random(1 << max(n - 1, 0).bit_length())
    return bounds.lo + u[:n] * (bounds.hi - bounds.lo)


class TestMatern:
    def test_same_point(self):
        assert matern52_pair([1, 2, 3], [1, 2, 3], 2.5, [1, 1, 1]) == 2.5

    def test_decay_to_zero(self):
        assert matern52_pair([0, 0, 0], [100, 100, 100], 1.0, [1, 1, 1]) < 1e-12

    def test_unit_distance_value(self):
        k = matern52_pair([0.0], [1.0], 1.0, [1.0])
        expected = (1 + math.sqrt(5) + 5 / 3) * math.exp(-math.sqrt(5))
        assert math.isclose(k, expected, rel_tol=1e-14)
        assert math.isclose(k, 0.523994108831820, rel_tol=1e-12)

    def test_anisotropic_scaling(self):
        k_iso = matern52_pair([0, 0], [1, 0], 1.0, [0.5, 0.5])
        k_aniso = matern52_pair([0, 0], [2, 0], 1.0, [1.0, 0.5])
        assert math.isclose(k_iso, k_aniso, rel_tol=1e-14)

    def test_matrix_matches_scalar(self, rng):
        X = rng.normal(size=(6, 3))
        ell = np.array([0.7, 1.3, 0.4])
        K = matern52_matrix(X, X, 1.7, ell)
        for i in range(6):
            for j in range(6):
                assert math.isclose(K[i, j], matern52(X[i], X[j], 1.7, ell),
                                    rel_tol=1e-10, abs_tol=1e-12)


class TestGpFit:
    def test_posterior_matches_naive_inverse(self, rng):
        for n in (5, 20, 50):
            thetas = BOUNDS.sample(n, seed=int(n))
            y = np.sin(thetas[:, 0] * 3) + 0.1 * thetas[:, 1] + rng.normal(0, 0.01, n)
            ds = GpDataset(thetas, y, noise_var=1e-4)
            model = gp_fit(ds, BOUNDS.lo, BOUNDS.hi,
                           hypers=(np.array([0.4, 0.3, 0.5]), 1.5))
            test_pts = BOUNDS.sample(20, seed=99 + n)
            mu, var = gp_predict_batch(model, test_pts)
            Xn = model.normalize(thetas)
            Xs = model.normalize(test_pts)
            mu_o, var_o = naive_posterior(Xn, y, Xs, 1.5,
                                          np.array([0.4, 0.3, 0.5]), 1e-4)
            assert np.abs(mu - mu_o).max() < 1e-8
            assert np.abs(var - var_o).max() < 1e-8

    def test_interpolation_sanity(self):
        thetas = np.array([[-0.5, 0.2, -4.0], [0.3, 1.8, 4.0]])
        y = np.array([1.0, 2.0])
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-8), BOUNDS.lo, BOUNDS.hi)
        for t, target in zip(thetas, y):
            mu, _ = gp_predict(model, t)
            assert abs(mu - target) < 0.05

    def test_noiseless_limit_at_training_points(self):
        thetas = BOUNDS.sample(8, seed=1)
        y = np.linspace(0.0, 2.0, 8)
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-12), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.5, 0.5, 0.5]), 1.0))
        mu, var = gp_predict_batch(model, thetas)
        assert np.abs(mu - y).max() < 1e-4
        assert var.max() < 1e-6

    def test_prior_recovery_far_away(self):
        thetas = np.tile(np.array([[-0.6, 0.1, -4.5]]), (3, 1)) \
            + np.array([[0.0, 0.0, 0.0], [0.01, 0.01, 0.01], [0.02, 0.0, 0.02]])
        y = np.array([1.0, 1.1, 0.9])
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-6), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.05, 0.05, 0.05]), 2.0))
        mu, var = gp_predict(model, np.array([0.39, 1.95, 4.9]))
        assert abs(mu) < 1e-6
        assert math.isclose(var, 2.0, rel_tol=1e-6)

    def test_duplicate_merge_keeps_predictions(self):
        thetas = BOUNDS.sample(6, seed=2)
        y = np.arange(6.0)
        base = gp_fit(GpDataset(thetas, y, noise_var=1e-6), BOUNDS.lo, BOUNDS.hi,
                      hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
        dup_thetas = np.vstack([thetas, thetas[2]])
        dup_y = np.append(y, y[2])
        dup = gp_fit(GpDataset(dup_thetas, dup_y, noise_var=1e-6),
                     BOUNDS.lo, BOUNDS.hi,
                     hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
        pts = BOUNDS.sample(10, seed=3)
        mu_a, _ = gp_predict_batch(base, pts)
        mu_b, _ = gp_predict_batch(dup, pts)
        assert np.abs(mu_a - mu_b).max() < 1e-8

    def test_hyperparameter_search_improves_likelihood(self):
        thetas = BOUNDS.sample(25, seed=4)
        y = np.cos(thetas[:, 0] * 4) + thetas[:, 2] ** 2 / 10
        model = gp_fit(GpDataset(thetas, y), BOUNDS.lo, BOUNDS.hi, seed=0)
        mu, _ = gp_predict_batch(model, thetas)
        assert np.corrcoef(mu, y)[0, 1] > 0.99

    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            gp_fit(GpDataset(np.array([[0.0, 1.0, 0.0]]), np.array([1.0])),
                   BOUNDS.lo, BOUNDS.hi)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise_var"):
            GpDataset(BOUNDS.sample(4, seed=5), np.arange(4.0), noise_var=noise)

    @pytest.mark.parametrize("thetas, costs, match", [
        (np.zeros((4, 3)), np.arange(3.0), "equal length"),
        (np.zeros((4, 3)), [0.0, 1.0, math.nan, 3.0], "non-finite"),
        ([[0.0, 1.0, math.inf], [0.1, 1.0, 0.0]], [0.0, 1.0], "non-finite")])
    def test_bad_dataset_rejected(self, thetas, costs, match):
        with pytest.raises(ConfigError, match=match):
            GpDataset(thetas, costs)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           scatter=st.floats(0.0, 1.0),
           noise=st.one_of(st.just(0.0), st.floats(0.0, 1e-4)),
           hypers=st.one_of(st.none(), st.tuples(
               st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
               st.floats(0.01, 10.0))))
    def test_lapack_route_matches_cho_factor(self, n, seed, scatter, noise, hypers):
        """Every bit of the fit (hyperparameter search included), the
        factor, alpha and the predictions equals the cho_factor/cho_solve
        route's."""
        rng = np.random.default_rng(seed)
        thetas = BOUNDS.lo + rng.uniform(size=(n, 3)) * (BOUNDS.hi - BOUNDS.lo)
        y = np.sin(3.0 * thetas[:, 0]) + thetas[:, 1] ** 2 \
            + scatter * rng.standard_normal(n)
        ds = GpDataset(thetas, y, noise_var=noise)
        got = fit_or_error(ds, BOUNDS.lo, BOUNDS.hi, seed=seed, hypers=hypers)
        with mock.patch.object(gp, "_posterior", oracle_posterior):
            want = fit_or_error(ds, BOUNDS.lo, BOUNDS.hi, seed=seed, hypers=hypers)
        if isinstance(want, str):
            assert got == want
            return
        assert isinstance(got.chol, np.ndarray)
        for name in ("x_norm", "lengthscales", "sigma_eta2", "chol", "alpha"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        pts = np.vstack([thetas, BOUNDS.sample(16, seed=seed % 1000)])
        for a, b in zip(gp_predict_batch(got, pts), oracle_predict_batch(want, pts)):
            assert same_bits(a, b)

    @pytest.mark.parametrize("hypers", [(np.array([0.3, 0.3, 0.3]), 1.0), None])
    def test_jitter_retry_gives_a_finite_posterior(self, hypers):
        # two inputs 1e-10 apart make K singular to working precision at
        # noise 0, so the first factor fails and a jittered one is used
        thetas = np.array([[-0.2, 1.0, 0.0], [-0.2 + 1e-10, 1.0, 0.0], [0.1, 0.5, 2.0]])
        ds = GpDataset(thetas, np.array([1.0, 1.5, -0.3]), noise_var=0.0)
        minors, dpotrf = [], gp.dpotrf

        def recording_dpotrf(*args, **kwargs):
            chol, minor = dpotrf(*args, **kwargs)
            minors.append(minor)
            return chol, minor

        with mock.patch.object(gp, "dpotrf", recording_dpotrf):
            model = gp_fit(ds, BOUNDS.lo, BOUNDS.hi, hypers=hypers)
        assert minors[0] > 0 and minors[-1] == 0
        mu, var = gp_predict_batch(model, np.vstack([thetas, BOUNDS.sample(8, seed=1)]))
        assert np.isfinite(model.alpha).all()
        assert np.isfinite(mu).all() and np.isfinite(var).all() and (var >= 0.0).all()
        with mock.patch.object(gp, "_posterior", oracle_posterior):
            want = gp_fit(ds, BOUNDS.lo, BOUNDS.hi, hypers=hypers)
        assert same_bits(model.chol, want.chol) and same_bits(model.alpha, want.alpha)

    @pytest.mark.parametrize("case", ["zero lengthscale", "nan signal variance",
                                      "lo == hi", "nan point"])
    def test_non_finite_kernel_inputs_rejected(self, case):
        # each of these once reached scipy's finiteness scan, which raised
        # ValueError; nothing non-finite may reach LAPACK's potrf/potrs
        ds = GpDataset(BOUNDS.sample(6, seed=5), np.arange(6.0))
        lo, hi = BOUNDS.lo.copy(), BOUNDS.hi.copy()
        hypers = (np.array([0.4, 0.4, 0.4]), 1.0)
        point = np.array([[0.0, 1.0, 0.0]])
        if case == "nan point":
            point[0, 1] = math.nan
            with pytest.raises(ConfigError, match="points"):
                gp_predict_batch(gp_fit(ds, lo, hi, hypers=hypers), point)
            return
        if case == "zero lengthscale":
            hypers = (np.array([0.4, 0.0, 0.4]), 1.0)
        elif case == "nan signal variance":
            hypers = (hypers[0], math.nan)
        else:
            hi[1] = lo[1]
        with pytest.raises(ConfigError):
            gp_fit(ds, lo, hi, hypers=hypers)

    @pytest.mark.parametrize("case", ["tiny lengthscale", "huge point"])
    def test_kernel_overflow_rejected(self, case):
        # finite inputs whose kernel overflows turned into an all-NaN alpha
        # or a NaN mean and variance, returned without notice
        ds = GpDataset(BOUNDS.sample(6, seed=5), np.arange(6.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConfigError, match="not finite"):
            if case == "tiny lengthscale":
                gp_fit(ds, BOUNDS.lo, BOUNDS.hi, hypers=([1e-200, 0.4, 0.4], 1.0))
            else:
                model = gp_fit(ds, BOUNDS.lo, BOUNDS.hi,
                               hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
                gp_predict_batch(model, np.array([[1e300, 1.0, 0.0]]))

    def test_zero_noise_accepted(self):
        thetas = BOUNDS.sample(4, seed=5)
        model = gp_fit(GpDataset(thetas, np.arange(4.0), noise_var=0.0),
                       BOUNDS.lo, BOUNDS.hi, hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
        mu, _ = gp_predict_batch(model, thetas)
        assert np.abs(mu - np.arange(4.0)).max() < 1e-6


@st.composite
def ei_cases(draw):
    """A GP fitted with fixed hyperparameters, a query point (in the box or
    on a training point, where a tiny noise clamps the variance to zero)
    and an incumbent."""
    n = draw(st.integers(2, 12))
    thetas = BOUNDS.sample(n, seed=draw(st.integers(0, 1000)))
    y = np.array(draw(st.lists(st.floats(-5.0, 10.0), min_size=n, max_size=n)))
    noise = draw(st.sampled_from([1e-14, 1e-8, 1e-6, 1e-4]))
    ell = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3)))
    model = gp_fit(GpDataset(thetas, y, noise_var=noise), BOUNDS.lo, BOUNDS.hi,
                   hypers=(ell, draw(st.floats(0.01, 10.0))))
    if draw(st.booleans()):
        t = thetas[draw(st.integers(0, n - 1))]
    else:
        u = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
        t = BOUNDS.lo + np.array(u) * (BOUNDS.hi - BOUNDS.lo)
    return model, t, draw(st.floats(-10.0, 10.0))


class TestExpectedImprovement:
    @staticmethod
    def _model_with(noise=1e-6):
        thetas = BOUNDS.sample(12, seed=7)
        y = np.linspace(-1, 1, 12)
        return gp_fit(GpDataset(thetas, y, noise_var=noise), BOUNDS.lo, BOUNDS.hi,
                      hypers=(np.array([0.3, 0.3, 0.3]), 1.0))

    def test_zero_variance_gives_zero(self):
        from driftmpc.gp import gp_predict
        model = self._model_with(noise=1e-14)
        t = model.lo + (model.hi - model.lo) * model.x_norm[3]
        _, var = gp_predict(model, t)
        assert var == 0.0  # clamped below the round-off threshold
        assert expected_improvement(model, t, best_cost=10.0) == 0.0

    def test_symmetric_case_analytic(self):
        # mu == best and sigma == 1 gives the standard normal density at 0
        model = self._model_with()
        far = np.array([0.39, 1.95, 4.95])
        mu, var = gp_predict(model, far)
        ei = expected_improvement(model, far, best_cost=mu)
        assert math.isclose(ei, math.sqrt(var) / math.sqrt(2 * math.pi),
                            rel_tol=1e-12)

    def test_monte_carlo_oracle(self, rng):
        model = self._model_with()
        z = rng.standard_normal(1_000_000)
        pts = BOUNDS.sample(6, seed=11)
        for t in pts:
            mu, var = gp_predict(model, t)
            sigma = math.sqrt(var)
            best = 0.3
            ei = expected_improvement(model, t, best)
            mc = np.maximum(best - (mu + sigma * z), 0.0).mean()
            if mc > 1e-4:
                assert abs(ei - mc) / mc < 3e-2

    def test_nonnegative_and_decaying(self):
        model = self._model_with()
        pts = BOUNDS.sample(50, seed=13)
        for t in pts:
            assert expected_improvement(model, t, best_cost=-0.5) >= 0.0
        far = np.array([0.39, 1.95, 4.95])
        hi = expected_improvement(model, far, best_cost=5.0)
        lo = expected_improvement(model, far, best_cost=-5.0)
        assert hi > lo

    @settings(max_examples=200, deadline=None)
    @given(ei_cases())
    def test_scalar_is_the_batch_formula(self, case):
        model, t, best = case
        ei = expected_improvement(model, t, best)
        assert float.hex(ei) == float.hex(float(_ei_batch(model, t[None], best)[0]))
        if gp_predict(model, t)[1] == 0.0:
            assert ei == 0.0

    def test_deep_tail_against_mpmath(self):
        # 0.5 * (1 + erf(z / sqrt 2)) rounds to 0 below z = -8; ndtr keeps
        # the tail, so EI stays relatively exact where it is tiny
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        model = self._model_with()
        far = np.array([0.39, 1.95, 4.95])
        mu, var = gp_predict(model, far)
        sigma = mpmath.sqrt(mpmath.mpf(var))
        for z in np.linspace(-30.0, -6.0, 49):
            best = mu + z * math.sqrt(var)
            zz = (mpmath.mpf(best) - mpmath.mpf(mu)) / sigma
            exact = sigma * (zz * mpmath.ncdf(zz) + mpmath.npdf(zz))
            ei = expected_improvement(model, far, best)
            assert abs(ei - exact) <= 1e-9 * exact, z


class TestAcquireNext:
    def test_deterministic(self):
        thetas = BOUNDS.sample(10, seed=21)
        y = thetas[:, 0] ** 2 + 0.2 * thetas[:, 1]
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-6), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
        a = acquire_next(model, BOUNDS, float(y.min()), seed=5)
        b = acquire_next(model, BOUNDS, float(y.min()), seed=5)
        assert np.array_equal(a, b)

    def test_in_bounds(self):
        thetas = BOUNDS.sample(10, seed=22)
        y = np.linspace(0, 1, 10)
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-6), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.4, 0.4, 0.4]), 1.0))
        t = acquire_next(model, BOUNDS, 0.0, seed=6)
        assert BOUNDS.contains(t)

    def test_matches_dense_grid_maximum(self):
        # one deep minimum, tiny noise: the chosen point must carry (almost)
        # the grid-maximal expected improvement, never a sampled plateau
        thetas = BOUNDS.sample(15, seed=23)
        y = np.full(15, 2.0)
        y[7] = -1.0  # the deep observation
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-8), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.25, 0.25, 0.25]), 1.5))
        best = float(y.min())
        axes = [np.linspace(lo, hi, 40) for lo, hi in zip(BOUNDS.lo, BOUNDS.hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ei_grid = _ei_batch(model, grid, best)
        t = acquire_next(model, BOUNDS, best, seed=8)
        ei_t = float(_ei_batch(model, t[None, :], best)[0])
        assert ei_t >= 0.95 * float(ei_grid.max())
        assert ei_t > 0.0

    def test_degenerate_model_returns_in_bounds(self):
        # two equal observations leave EI ~constant; no error, point in box
        thetas = np.array([[-0.5, 0.5, -2.0], [0.2, 1.5, 2.0]])
        y = np.array([1.0, 1.0])
        model = gp_fit(GpDataset(thetas, y, noise_var=1e-8), BOUNDS.lo, BOUNDS.hi,
                       hypers=(np.array([0.5, 0.5, 0.5]), 1.0))
        t = acquire_next(model, BOUNDS, 1.0, seed=9)
        assert BOUNDS.contains(t)


class TestEpisodeCost:
    CFG = CostConfig(lam=10.0, e_max=1.5)

    def test_perfect_tracking_floor(self):
        n = 184
        J = episode_cost(np.zeros(n), np.zeros(n), self.CFG)
        assert math.isclose(J, math.log(1e-12), rel_tol=1e-12)
        assert math.isclose(J, -abs(math.log(1e-12)), rel_tol=1e-12)

    def test_constant_half_meter(self):
        n = 184
        J = episode_cost(np.full(n, 0.5), np.zeros(n), self.CFG)
        # barrier inactive and increment telescopes to zero
        assert math.isclose(J, math.log(0.5), abs_tol=1e-9)

    def test_monotone_in_error_scale(self):
        n = 184
        e = np.abs(np.sin(np.linspace(0, 6, n))) * 0.4
        J1 = episode_cost(e, np.zeros(n), self.CFG)
        J2 = episode_cost(2 * e, np.zeros(n), self.CFG)
        assert J2 > J1

    def test_course_error_weight(self):
        n = 184
        J0 = episode_cost(np.full(n, 0.2), np.zeros(n), self.CFG)
        J1 = episode_cost(np.full(n, 0.2), np.full(n, 0.02), self.CFG)
        assert math.isclose(J1, math.log(0.2 + 10 * 0.02), abs_tol=1e-9)
        assert J1 > J0

    def test_barrier_activates_above_threshold(self):
        n = 184
        below = episode_cost(np.full(n, 1.4), np.zeros(n), self.CFG)
        above = episode_cost(np.full(n, 1.6), np.zeros(n), self.CFG)
        # e = 1.6 puts 10*(e - e_max) = 1.0 into the shifted-log barrier
        assert math.isclose(below, math.log(1.4), abs_tol=1e-9)
        assert math.isclose(above,
                            math.log(1.6 + (math.log(1.0) - math.log(1e-12))),
                            abs_tol=1e-9)
        assert above - below > 2.5

    def test_increment_term(self):
        n = 184
        e = np.linspace(0.0, 1.0, n)  # monotone drift away from the path
        J_drift = episode_cost(e, np.zeros(n), self.CFG)
        J_flat = episode_cost(np.full(n, float(np.mean(e))), np.zeros(n), self.CFG)
        assert J_drift > J_flat

    def test_failed_episode_penalty(self):
        failed = EpisodeTrace({c: np.zeros(2) for c in TRACE_COLUMNS}, failed=True)
        assert metrics_from_trace(failed, self.CFG).cost_J == 10.0
        one_step = EpisodeTrace({c: np.zeros(1) for c in TRACE_COLUMNS})
        assert metrics_from_trace(one_step, self.CFG).cost_J == 10.0

    @pytest.mark.parametrize("e, dpsi", [([0.1], [0.0]), ([], []),
                                         ([0.1, 0.2], [0.0]), ([0.1], [0.0, 0.0])])
    def test_short_or_unequal_traces_rejected(self, e, dpsi):
        with pytest.raises(ConfigError, match="equal-length traces"):
            episode_cost(e, dpsi, self.CFG)

    def test_sign_invariance(self):
        n = 50
        e = np.sin(np.linspace(0, 3, n)) * 0.3
        J_pos = episode_cost(e, np.zeros(n), self.CFG)
        J_neg = episode_cost(-e, np.zeros(n), self.CFG)
        assert math.isclose(J_pos, J_neg, rel_tol=1e-12)


class TestBoLoop:
    def test_budget_equal_init_returns_best_initializer(self):
        calls = []

        def runner(t):
            calls.append(t.copy())
            return float(np.sum(t ** 2))

        res = bo_loop(runner, BOUNDS, m=5, N=5, seed=3)
        assert len(res.costs) == 5
        assert len(calls) == 5
        assert res.best_cost == min(float(np.sum(c ** 2)) for c in calls)

    def test_synthetic_quadratic_benchmark(self):
        center = np.array([-0.2, 1.1, 0.7])

        def runner(t):
            return float(np.sum((t - center) ** 2))

        res = bo_loop(runner, BOUNDS, m=20, N=60, seed=0)
        diam = float(np.linalg.norm(BOUNDS.hi - BOUNDS.lo))
        assert np.linalg.norm(res.theta_star - center) < 0.05 * diam

    def test_best_so_far_non_increasing_and_in_bounds(self):
        def runner(t):
            return float(np.cos(t[0] * 5) + (t[1] - 1) ** 2 + abs(t[2]) / 5)

        res = bo_loop(runner, BOUNDS, m=6, N=16, seed=2)
        assert len(res.costs) == 16
        assert np.all(np.diff(res.best_so_far) <= 0.0 + 1e-15)
        for t in res.thetas:
            assert BOUNDS.contains(t)

    def test_determinism(self):
        def runner(t):
            return float(np.sum((t - 0.1) ** 2))

        r1 = bo_loop(runner, BOUNDS, m=4, N=10, seed=9)
        r2 = bo_loop(runner, BOUNDS, m=4, N=10, seed=9)
        assert np.array_equal(r1.thetas, r2.thetas)
        assert np.array_equal(r1.costs, r2.costs)

    def test_init_thetas_included(self):
        seen = []

        def runner(t):
            seen.append(t.copy())
            return float(np.sum(t ** 2))

        start = np.array([-0.52, 1.0, 0.0])
        bo_loop(runner, BOUNDS, m=4, N=5, seed=1, init_thetas=[start])
        assert np.array_equal(seen[0], start)

    def test_empty_warm_start_list_asks_for_none(self):
        def runner(t):
            return float(np.sum(t ** 2))

        empty = bo_loop(runner, BOUNDS, m=4, N=6, seed=1, init_thetas=[])
        none = bo_loop(runner, BOUNDS, m=4, N=6, seed=1)
        assert same_bits(empty.thetas, none.thetas)
        assert same_bits(empty.costs, none.costs)

    def test_every_warm_start_checked_before_the_first_run(self):
        calls = []
        warm = [(0.0, 1.0, 0.0), (0.1, 1.0, 0.0), (9.0, 1.0, 0.0)]
        assert [BOUNDS.contains(np.array(t)) for t in warm] == [True, True, False]
        with pytest.raises(ConfigError, match="outside bounds"):
            bo_loop(calls.append, BOUNDS, m=4, N=6, seed=1, init_thetas=warm)
        assert calls == []

    def test_invalid_budget(self):
        with pytest.raises(ConfigError):
            bo_loop(lambda t: 0.0, BOUNDS, m=1, N=5, seed=0)
        with pytest.raises(ConfigError):
            bo_loop(lambda t: 0.0, BOUNDS, m=5, N=4, seed=0)
        calls = []
        with pytest.raises(ConfigError, match="more warm-start points than"):
            bo_loop(calls.append, BOUNDS, m=2, N=4, seed=0,
                    init_thetas=[(0.0, 1.0, 0.0)] * 3)
        assert calls == []


SOBOL_SIZES = [0, 1, 2, 3, 5, 31, 2048]


@st.composite
def sobol_cases(draw):
    d = draw(st.integers(1, 8))
    lo = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    width = draw(st.lists(st.floats(1e-3, 100.0), min_size=d, max_size=d))
    n = draw(st.sampled_from(SOBOL_SIZES) | st.integers(0, 4096))
    seed = draw(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**64))
    return ThetaBounds(lo, np.add(lo, width)), n, seed


class TestSobolSample:
    @settings(max_examples=200, deadline=None)
    @given(sobol_cases())
    def test_matches_scipy_bit_for_bit(self, case):
        bounds, n, seed = case
        assert same_bits(bounds.sample(n, seed), sobol_oracle(bounds, n, seed))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_listed_size_matches_scipy(self, d):
        bounds = ThetaBounds(np.full(d, -1.0), np.linspace(0.5, 3.0, d))
        for n in SOBOL_SIZES:
            for seed in (1, 2**32 + 3):
                assert same_bits(bounds.sample(n, seed), sobol_oracle(bounds, n, seed))

    def test_numpy_integers_accepted(self):
        assert same_bits(BOUNDS.sample(np.int64(7), np.uint32(9)), BOUNDS.sample(7, 9))

    @pytest.mark.parametrize("n, seed, name", [(-1, 0, "sample size"), (2.5, 0, "sample size"),
                                               (np.int64(-3), 0, "sample size"),
                                               (True, 0, "sample size"), ("4", 0, "sample size"),
                                               (1, -1, "seed"), (1, 2.5, "seed"),
                                               (1, None, "seed"), (1, np.float64(3.0), "seed")])
    def test_bad_size_or_seed_rejected(self, n, seed, name):
        with pytest.raises(ConfigError, match=f"{name} must be a non-negative integer"):
            BOUNDS.sample(n, seed)

    def test_more_points_than_the_grid_holds_rejected(self):
        with pytest.raises(ConfigError, match="at most 2\\*\\*30 points"):
            BOUNDS.sample((1 << 30) + 1, 0)

    def test_direction_numbers_keep_only_the_rows_asked_for(self):
        v = bo._sobol_directions(3)
        assert v.shape == (3, bo.SOBOL_BITS) and v.dtype == np.uint32
        assert not v.flags.writeable
        assert same_bits(v[:2], bo._sobol_directions(2))

    def test_missing_direction_table_named(self, tmp_path):
        spec = mock.Mock(submodule_search_locations=[str(tmp_path)])
        bo._sobol_directions.cache_clear()
        try:
            with mock.patch("importlib.util.find_spec", return_value=spec), \
                    pytest.raises(ConfigError, match="_sobol_direction_numbers.npz"):
                ThetaBounds([0.0], [1.0]).sample(4, 0)
        finally:
            bo._sobol_directions.cache_clear()

    def test_bad_seed_rejected_before_the_first_run(self):
        calls = []
        warm = [(0.0, 1.0, 0.0), (0.1, 1.0, 0.0)]  # every initial point given
        with pytest.raises(ConfigError, match="seed"):
            bo_loop(calls.append, BOUNDS, m=2, N=4, seed=-1, init_thetas=warm)
        assert calls == []


def test_theta_bounds_validation():
    with pytest.raises(ConfigError):
        ThetaBounds(lo=np.array([0.0, 0.0, 0.0]), hi=np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_bounds_rejected(side, bad):
    box = {"lo": [-0.7, 0.0, -5.0], "hi": [0.4, 2.0, 5.0]}
    box[side][1] = bad
    with pytest.raises(ConfigError, match="finite"):
        ThetaBounds(**box)


def test_theta_bounds_of_different_lengths_rejected():
    with pytest.raises(ConfigError, match="length"):
        ThetaBounds(lo=[-0.7, 0.0], hi=[0.4, 2.0, 5.0])


@pytest.mark.parametrize("init", [[[-0.5, 1.0]], [[-0.5, 1.0, 0.0, 2.0]], [-0.5, 1.0]])
def test_warm_start_of_the_wrong_width_rejected(init):
    calls = []
    with pytest.raises(ConfigError, match="3 components"):
        bo_loop(calls.append, BOUNDS, m=4, N=5, seed=0, init_thetas=init)
    assert calls == []


def test_cost_config_validation():
    with pytest.raises(ConfigError):
        CostConfig(lam=-1.0)
    for eps in (0.0, -1e-12):  # episode_cost takes log(eps)
        with pytest.raises(ConfigError, match="eps > 0"):
            CostConfig(eps=eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(CostConfig)])
def test_non_finite_cost_config_rejected(name, bad):
    with pytest.raises(ConfigError, match="finite"):
        CostConfig(**{name: bad})
