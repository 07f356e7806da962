"""Same-bits and certificate checks for the active-set QP solver.

The oracle below is the plain statement of the method that solve_qp
implements: every iteration rebuilds the working rows As[working] from
the index list, re-solves cho_solve(chol, Aw.T) for the whole working set,
recomputes the gradient at z, solves the Gram system for the multipliers
with their sign in the right-hand side, and runs the ratio test over a
full-length mask.  solve_qp keeps the working rows and their H^-1 a_i in
buffers shifted in place, a mask of the free rows, and the gradient while
z stays put; it must reproduce the oracle bit for bit (x, multipliers,
iteration count and working-set order).
"""
import functools
import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmpc import mpc, qp
from driftmpc.equilibrium import solve_dep
from driftmpc.errors import (ConfigError, DriftMpcError, InfeasibleQpError,
                             QpIterationLimitError)
from driftmpc.harness import case_scenario, run_episode
from driftmpc.mpc import MpcConfig, augment, condense, linearize, solve_mpc
from driftmpc.qp import QpResult, solve_qp
from driftmpc.vehicle import default_limits, default_vehicle_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KKT_GATE = 1e-6        # acceptance criterion 3
DEGENERATE_INSTANCE = 5  # the recorded QP the absolute candidate test got wrong


def cho_factor(H):
    """The upper Cholesky factor solve_qp's solves take: LAPACK dpotrf as
    scipy.linalg.cho_factor calls it, without its checks."""
    c, info = qp.dpotrf(H, lower=0, clean=0)
    if info:
        raise ConfigError(f"not positive definite (leading minor {info})")
    return c


def solve_qp_oracle(H, g, A, b, scaled_candidates=True, events=None):
    """Oracle: solve_qp with the whole working set re-solved per iteration.

    scaled_candidates=False gives the absolute candidate test ap > FEAS_TOL,
    which lets a row that depends on the working set up to rounding join
    it (recorded instance 5 comes back infeasible by 0.15).  A list passed
    as events receives ("add", row) and ("drop", row) in solve order."""
    n = H.shape[0]
    m = A.shape[0]
    d = 1.0 / np.sqrt(np.diag(H))
    Hs = H * d[:, None] * d[None, :]
    gs = g * d
    As = A * d[None, :]
    z = np.zeros(n)
    chol = cho_factor(Hs)
    working = []
    for it in range(1, qp.MAX_ITER + 1):
        grad = Hs @ z + gs
        if working:
            Aw = As[working]
            hinv_grad = qp._cho_solve(chol, grad)
            hinv_awt = qp._cho_solve(chol, Aw.T)
            gram = Aw @ hinv_awt
            rhs = -(Aw @ hinv_grad)
            try:
                lam_w = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                lam_w = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            p = -(hinv_grad + hinv_awt @ lam_w)
        else:
            lam_w = np.zeros(0)
            p = -qp._cho_solve(chol, grad)
        step_scale = max(1.0, float(np.abs(z).max(initial=0.0)))
        p_max = float(np.abs(p).max(initial=0.0))
        if not p_max < 1e-9 * step_scale:
            alpha = 1.0
            blocking = -1
            if m:
                ap = As @ p
                slack = b - As @ z
                tol = qp.FEAS_TOL * (max(1.0, p_max) if scaled_candidates else 1.0)
                candidates = ap > tol
                candidates[working] = False
                if candidates.any():
                    ratios = np.full(m, np.inf)
                    ratios[candidates] = slack[candidates] / ap[candidates]
                    i_min = int(np.argmin(ratios))
                    if ratios[i_min] < alpha:
                        alpha = max(float(ratios[i_min]), 0.0)
                        blocking = i_min
            z = z + alpha * p
            if blocking >= 0:
                working.append(blocking)
                if events is not None:
                    events.append(("add", blocking))
                continue
        if working and float(lam_w.min()) < -qp.MULT_TOL * max(1.0, float(np.abs(lam_w).max())):
            row = working[int(np.argmin(lam_w))]
            working.remove(row)
            if events is not None:
                events.append(("drop", row))
            continue
        zp, lam_p = qp._polish(Hs, gs, As, b, working, n, chol)
        lam = np.zeros(m)
        lam[working] = np.maximum(lam_p, 0.0)
        return QpResult(x=zp * d, lam=lam, iterations=it, active=list(working))
    raise QpIterationLimitError("oracle iteration limit")


def outcome(solver, *args, **kwargs):
    """Everything a solve returns, as exact bytes, or the error type."""
    try:
        r = solver(*args, **kwargs)
    except DriftMpcError as exc:
        return type(exc)
    return r.x.tobytes(), r.lam.tobytes(), r.iterations, r.active


def certificate(result, H, g, A, b) -> float:
    r = result.kkt_residuals(H, g, A, b)
    return max(r["stationarity"], r["feasibility"], r["complementarity"])


@pytest.fixture(scope="module")
def recorded():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("qpset").load(PERFBENCH / "data" / "qp_instances.npz")


def test_recorded_instances_match_oracle(recorded):
    A = recorded["A"]
    for k, (H, g, b) in enumerate(zip(recorded["H"], recorded["g"], recorded["b"])):
        if k == DEGENERATE_INSTANCE:
            continue
        got = outcome(solve_qp, H, g, A, b)
        assert got == outcome(solve_qp_oracle, H, g, A, b), k
        # the scale-relative candidate test moves no bit here either
        assert got == outcome(solve_qp_oracle, H, g, A, b, scaled_candidates=False), k


def test_degenerate_recorded_instance_is_certified(recorded):
    k = DEGENERATE_INSTANCE
    H, g, b, A = recorded["H"][k], recorded["g"][k], recorded["b"][k], recorded["A"]
    res = solve_qp(H, g, A, b)
    assert certificate(res, H, g, A, b) < KKT_GATE
    assert outcome(solve_qp, H, g, A, b) == outcome(solve_qp_oracle, H, g, A, b)
    absolute = solve_qp_oracle(H, g, A, b, scaled_candidates=False)
    assert certificate(absolute, H, g, A, b) > 0.1


def test_tail_episode_qps_match_oracle(monkeypatch):
    """Every QP of a failing almpc episode (criterion 8's one-thread theta,
    lateral blow-up at step 38): long solves with many drops, the tail that
    tuning spends its time in."""
    captured = []

    def capture(H, g, A, b, **kwargs):
        captured.append((H, g, A, b))
        return solve_qp(H, g, A, b, **kwargs)

    monkeypatch.setattr(mpc, "solve_qp", capture)
    trace, _ = run_episode(case_scenario(1, "almpc"), (-0.700, 0.197, -3.928))
    iterations, drops = [], 0
    for k, instance in enumerate(captured):
        events = []
        got = outcome(solve_qp, *instance)
        assert got == outcome(solve_qp_oracle, *instance, events=events), k
        iterations.append(got[2])
        drops += sum(kind == "drop" for kind, _ in events)
    assert trace.failed and len(captured) >= 30
    assert max(iterations) >= 40 and drops >= 100


def test_working_set_fills_to_n_rows():
    """The step reaches all n upper bounds at once: one row joins on the
    step, the other n - 1 on zero-length steps, and no row leaves."""
    n = 6
    H, g = np.eye(n), np.full(n, -10.0)
    A, b = np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n)
    res = solve_qp(H, g, A, b)
    assert sorted(res.active) == list(range(n)) and res.iterations == n + 1
    assert np.array_equal(res.x, np.ones(n))
    assert outcome(solve_qp, H, g, A, b) == outcome(solve_qp_oracle, H, g, A, b)


def test_row_leaves_and_joins_again():
    """Rows 1, 4, 0 join; 4 (a middle row) and then 1 (the first) leave;
    4 joins again."""
    M = np.array([[1.3, -2.2, -0.7], [1.2, 1.6, 0.3], [0.7, 1.9, 0.0]])
    H, g = M @ M.T + np.eye(3), np.array([1.6, -4.7, -2.0])
    A = np.array([[-0.2, 0.7, -0.6], [-1.3, 0.2, -1.9], [-0.5, -0.4, 0.9],
                  [-1.3, -1.0, 0.4], [0.9, 0.9, -0.1]])
    b = np.array([0.8, 0.8, 1.3, 0.3, 0.8])
    events = []
    expected = outcome(solve_qp_oracle, H, g, A, b, events=events)
    assert events == [("add", 1), ("add", 4), ("add", 0), ("drop", 4),
                      ("drop", 1), ("add", 4)]
    assert outcome(solve_qp, H, g, A, b) == expected
    assert solve_qp(H, g, A, b).active == [0, 4]


@st.composite
def degenerate_qps(draw):
    """Strictly convex QPs feasible at zero whose rows include exact copies,
    scaled copies, sums of earlier rows, rows tight at zero, equality
    pairs and absent (+inf) bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(
        ["random", "tight", "copy", "scaled", "sum", "opposite", "absent"]), max_size=20))
    M = rng.normal(size=(n, n))
    H = M @ M.T + rng.uniform(0.01, 2.0) * np.eye(n)
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 3.0)
    rows, rhs = [], []
    for kind in kinds:
        if kind in ("random", "tight", "absent") or not rows:
            rows.append(rng.normal(size=n))
            rhs.append({"tight": 0.0, "absent": math.inf}.get(kind, rng.uniform(0.1, 2.0)))
            continue
        i, j = rng.integers(len(rows), size=2)
        if kind == "copy":
            rows.append(rows[i].copy())
            rhs.append(rhs[i])
        elif kind == "scaled":
            c = rng.uniform(0.1, 10.0)
            rows.append(c * rows[i])
            rhs.append(c * rhs[i])
        elif kind == "sum":
            rows.append(rows[i] + rows[j])
            rhs.append(rhs[i] + rhs[j])
        else:  # opposite: an equality pair when row i is tight at zero
            rows.append(-rows[i])
            rhs.append(0.0 if rhs[i] == 0.0 else rng.uniform(0.1, 2.0))
    A = np.array(rows).reshape(len(rows), n)
    return H, g, A, np.array(rhs, dtype=float)


@st.composite
def mpc_shaped_qps(draw):
    """Random Hessians on the MPC constraint structure, with the previous
    input on a bound so rate rows and prefix-sum rows are parallel and
    every prefix-sum row on that bound is tight at zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_c = draw(st.integers(1, 6))
    limits = default_limits()
    cfg = MpcConfig(N_p=n_c, N_c=n_c)
    lo = np.array([limits.delta_min, limits.F_min])
    hi = np.array([limits.delta_max, limits.F_max])
    where = draw(st.tuples(*[st.sampled_from(["lo", "hi", "mid"])] * 2))
    u_prev = np.array([{"lo": lo_j, "hi": hi_j, "mid": 0.5 * (lo_j + hi_j)}[w]
                       for w, lo_j, hi_j in zip(where, lo, hi)])
    nv = 2 * n_c
    S = rng.normal(size=(3 * nv, nv))
    H = 2.0 * (S.T @ S + np.diag(np.tile([1.0, 1e-6], n_c)))
    g = rng.normal(size=nv) * 10.0 ** rng.uniform(0.0, 4.0)
    rate = [limits.d_delta_lim, limits.d_F_lim]
    b = np.concatenate([np.tile(rate, 2 * n_c), np.tile(hi - u_prev, n_c),
                        np.tile(u_prev - lo, n_c)])
    return H, g, cfg.A, b


@settings(max_examples=300, deadline=None)
@given(st.one_of(degenerate_qps(), mpc_shaped_qps()))
def test_random_instances_match_oracle(instance):
    assert outcome(solve_qp, *instance) == outcome(solve_qp_oracle, *instance)


@settings(max_examples=100, deadline=None)
@given(mpc_shaped_qps(), st.sampled_from([1e-4, 1.0, 1e9]))
def test_relative_certificate_of_a_scaled_qp(instance, scale):
    """Scaling the objective scales the multipliers and the absolute
    stationarity residual with it; the relative certificate stays put.
    (From about 1e11 up the candidate test, a_i.p against FEAS_TOL
    max|p| in equilibrated variables, drops rows it should take.)"""
    H, g, A, b = instance
    res = solve_qp(scale * H, scale * g, A, b)
    assert res.relative_residual(scale * H, scale * g, A, b) < KKT_GATE


@functools.lru_cache(maxsize=None)
def _model(delta, R):
    params = default_vehicle_params()
    dep = solve_dep(delta, R, params)
    return dep, augment(linearize(dep, params, MpcConfig().dT))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(-0.52, 40.0), (-0.40, 30.0), (-0.60, 25.0), (-0.30, 60.0)]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.sampled_from([0.3, 1.5, 5.0]),
       st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2))
def test_mpc_certificate_with_previous_input_on_a_bound(eq, dx, scale, u_frac):
    """Acceptance criterion 3's gate over random rate-feasible MPC
    instances, the previous input on a bound (fraction 0 or 1) included."""
    limits, cfg = default_limits(), MpcConfig()
    dep, model = _model(*eq)
    xi = dep.as_array()
    xi[:3] += scale * np.array([1.5, 0.15, 0.15]) * np.array(dx)
    for j, (f, lo, hi) in enumerate(zip(u_frac, (limits.delta_min, limits.F_min),
                                        (limits.delta_max, limits.F_max))):
        xi[3 + j] = {0.0: lo, 1.0: hi}.get(f, lo + f * (hi - lo))
    sol = solve_mpc(xi, dep, condense(model, cfg), limits)
    assert max(sol.kkt["stationarity"], sol.kkt["feasibility"],
               sol.kkt["complementarity"]) < KKT_GATE


# _lu_solve calls the LU gufunc np.linalg.solve wraps, under the error
# state np.linalg.solve sets; it must return the same bytes on every kind
# of matrix the solver hands it, and a NumPy that changes the private
# gufunc shows here first.

def lu_operands(seed: int, kind: str, fortran: bool):
    """A matrix and right-hand side like the ones the control step solves:
    Newton's 3x3 Jacobians (columns of very different scale), the QP's
    Gram matrices (SPD, up to 38x38) and its polishing KKT matrices
    (symmetric indefinite)."""
    rng = np.random.default_rng(seed)
    if kind == "newton":
        a = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-4, 4, size=3)
    elif kind == "gram":
        n, nw = 38, int(rng.integers(1, 39))
        M = rng.normal(size=(n, n))
        chol = cho_factor(M @ M.T + n * np.eye(n))
        aw = rng.normal(size=(nw, n))
        a = aw @ qp._cho_solve(chol, aw.T)
    else:
        n = int(rng.integers(1, 39))
        nw = int(rng.integers(1, n + 1))
        M = rng.normal(size=(n, n))
        aw = rng.normal(size=(nw, n))
        a = np.zeros((n + nw, n + nw))
        a[:n, :n] = M @ M.T + np.eye(n)
        a[:n, n:] = aw.T
        a[n:, :n] = aw
    b = rng.normal(size=a.shape[0]) * 10.0 ** rng.uniform(-3, 3)
    return (np.asfortranarray(a) if fortran else a), b


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["newton", "gram", "kkt"]),
       st.booleans())
def test_lu_solve_matches_numpy_solve(seed, kind, fortran):
    a, b = lu_operands(seed, kind, fortran)
    got, want = qp._lu_solve(a, b), np.linalg.solve(a, b)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("a", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                               np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                         [0.0, 0.0, 2.0]])],
                         ids=["zero", "rank-one", "duplicated-row"])
def test_lu_solve_singular_raises_without_warning(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            qp._lu_solve(a, np.ones(a.shape[0]))


def polish_oracle(H, g, A, b, working, n, chol):
    """_polish on np.linalg.solve."""
    nw = len(working)
    if nw == 0:
        x = -qp._cho_solve(chol, g)
        x -= qp._cho_solve(chol, H @ x + g)
        return x, np.zeros(0)
    Aw = A[working]
    kkt = np.zeros((n + nw, n + nw))
    kkt[:n, :n] = H
    kkt[:n, n:] = Aw.T
    kkt[n:, :n] = Aw
    rhs = np.concatenate([-g, b[working]])
    try:
        sol = np.linalg.solve(kkt, rhs)
        resid = rhs - kkt @ sol
        sol += np.linalg.solve(kkt, resid)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_polish_matches_array_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 39))
    m = 2 * n
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    g, A, b = rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)
    working = rng.permutation(m)[:int(rng.integers(0, n + 1))].tolist()
    chol = cho_factor(H)
    got = qp._polish(H, g, A, b, working, n, chol)
    want = polish_oracle(H, g, A, b, working, n, chol)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_polish_with_a_duplicated_working_row_takes_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    H, g = 2.0 * np.eye(3), np.array([-4.0, -2.0, 0.0])
    A = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([1.0, 1.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, lam = qp._polish(H, g, A, b, [0, 1], 3, cho_factor(H))
    assert calls == [(5, 5)]
    assert np.allclose(x, [1.0, 1.0, 0.0]) and np.allclose(lam, [1.0, 1.0])


# solve_mpc hands solve_qp the set-up of (H, A) that condense computed
# once per drift equilibrium; other callers let solve_qp compute it.
# Nothing solve_qp returns or raises may depend on which, and nothing may
# carry over from one call to the next.

def with_setup(H, g, A, b):
    """solve_qp handed the set-up it would compute itself."""
    return solve_qp(H, g, A, b, setup=qp._setup(H, A))


def test_given_setup_matches_a_computed_one(recorded):
    A = recorded["A"]
    for k, (H, g, b) in enumerate(zip(recorded["H"], recorded["g"], recorded["b"])):
        assert outcome(with_setup, H, g, A, b) == outcome(solve_qp, H, g, A, b), k


@settings(max_examples=100, deadline=None)
@given(st.one_of(degenerate_qps(), mpc_shaped_qps()))
def test_given_setup_matches_a_computed_one_on_random_instances(instance):
    assert outcome(with_setup, *instance) == outcome(solve_qp, *instance)


def read_only(*arrays):
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return out


@pytest.mark.parametrize("mutated", ["H", "A", "H through a read-only view"])
def test_writeable_array_mutated_in_place_is_never_answered_stale(mutated):
    """Between two solves the writeable one of (H, A), or the writeable
    array under a read-only view of H, changes in place while the other
    stays read-only; the second solve must see the new values."""
    n = 3
    M = np.array([[1.3, -2.2, -0.7], [1.2, 1.6, 0.3], [0.7, 1.9, 0.0]])
    H, A = M @ M.T + np.eye(n), np.vstack([np.eye(n), -np.eye(n)])
    g, b = np.array([1.6, -4.7, -2.0]), np.full(2 * n, 0.5)
    H_given = H
    if mutated.startswith("H"):
        (A,) = read_only(A)
    else:
        (H,) = read_only(H)
    if mutated == "H through a read-only view":
        H_given = H.view()
        H_given.flags.writeable = False
    first = outcome(solve_qp, H_given, g, A, b)
    if mutated.startswith("H"):
        H *= 100.0
        H[0, 0] = 1e-3
    else:
        A[:n] *= 4.0
    fresh = outcome(solve_qp, H.copy(), g, A.copy(), b)
    assert outcome(solve_qp, H_given, g, A, b) == fresh != first


def _not_pd(H):
    H = H.copy()
    H[0, 1] = H[1, 0] = 2.0 * math.sqrt(H[0, 0] * H[1, 1])
    return H


INVALID_MESSAGES = {
    "nan-H": qp._NOT_FINITE, "nan-A": qp._NOT_FINITE,
    "zero-diagonal": "Hessian diagonal must be strictly positive",
    "not-positive-definite": "Hessian is not positive definite (leading minor 2)",
    "infeasible-x0": "starting point violates the constraints",
    "infeasible-x0-not-positive-definite": "Hessian is not positive definite (leading minor 2)"}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("case, error", [
    ("nan-H", ConfigError), ("nan-A", ConfigError), ("zero-diagonal", ConfigError),
    ("not-positive-definite", ConfigError), ("infeasible-x0", InfeasibleQpError),
    ("infeasible-x0-not-positive-definite", ConfigError)])
def test_invalid_data_raises_the_same_error_cold_and_warm(case, error, warm):
    """Each invalid input raises its class and message whether solve_qp
    sets the QP up itself (cold) or is handed _setup(H, A) (warm; _setup
    raises the errors of H and A it finds).  "infeasible-x0": a row that
    the start x0 = 0 violates."""
    n = 3
    H, A = np.diag([2.0, 3.0, 4.0]) + 0.25, np.vstack([np.eye(n), -np.eye(n)])
    g, b = np.ones(n), np.ones(2 * n)
    if case == "nan-H":
        H[0, 2] = H[2, 0] = math.nan
    elif case == "nan-A":
        A[4, 1] = math.nan
    elif case == "zero-diagonal":
        H[1, 1] = 0.0
    if "not-positive-definite" in case:
        H = _not_pd(H)
    if "infeasible" in case:
        b[4] = -1.0  # x_1 >= 1
    with pytest.raises(error) as exc:
        (with_setup if warm else solve_qp)(H, g, A, b)
    assert str(exc.value) == INVALID_MESSAGES[case]


@pytest.mark.parametrize("H", [np.array([[1.0, 2.0], [2.0, 1.0]]),
                               np.array([[1.0, 1.0], [1.0, 1.0]])],
                         ids=["indefinite", "singular"])
def test_setup_rejects_a_hessian_that_is_not_positive_definite(H):
    with pytest.raises(ConfigError, match=r"not positive definite \(leading minor 2\)"):
        qp._setup(H, np.eye(2))
