"""Closed-loop episode runner, episode cost, tuner entry point, and reporting.

The plant and the controller model are the same single-track dynamics with
independently supplied parameter sets; every other difference between them
is integrator substructure (the plant integrates the nonlinear model in
fine substeps, the controller predicts with the per-step linearization).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .bo import BoResult, ThetaBounds, bo_loop
from .csvout import write_csv
from .equilibrium import solve_dep
from .errors import (ConfigError, DriftMpcError, GripBranchError,
                     NoConvergenceError, OffPathError)
from .mpc import MpcConfig, augment, condense, linearize, solve_mpc
from .paths import (PATH_KINDS, ClothoidSpec, EightSpec, PathTable,
                    errors_from_projection, project)
from .tracking import (RADIUS_GRID, AptParams, apt_radius, clamp_radius, ppt_radius,
                       steer_feedback)
from .vehicle import (MU_NOMINAL, MU_SLIPPERY, V_FLOOR, ControlInput, ControlLimits,
                      Pose, VehicleParams, default_limits, default_vehicle_params,
                      step, wrap_angle)

# mode -> components of theta = (delta_eq, w_r, w_e) it learns; the rest
# stay at the scenario's apt values.  A mode runs the adaptive radius law
# and its steering feedback exactly when it learns the law's weights.
FREE_COMPONENTS = {"ppt": [], "apt": [1, 2], "dep": [0], "almpc": [0, 1, 2]}
PLANT_SUBSTEPS = 10
E_FAIL = 10.0          # m, lateral blow-up threshold
V_MAX_SANE = 40.0      # m/s
DEP_FAIL_FRACTION = 0.2

TRACE_COLUMNS = ["t", "X", "Y", "phi", "V", "beta", "r", "delta_cmd",
                 "F_xr_cmd", "e", "d_phi", "d_psi", "e_la", "R_eq",
                 "delta_eq_hat", "V_eq", "beta_eq", "r_eq", "F_xr_eq",
                 "mpc_cost", "dep_converged"]
FAILED_PREFIX = "# failed: "  # trailing trace-CSV line of a failed episode


@dataclass(frozen=True)
class CostConfig:
    lam: float = 10.0      # course-error weight
    e_max: float = 1.5     # soft barrier threshold [m]
    eps: float = 1e-12     # flooring constant for the logarithms
    j_fail: float = 10.0   # cost assigned to crashed/diverged episodes

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ConfigError(f"cost parameters must be finite, got {vars(self)}")
        if self.lam <= 0 or self.e_max <= 0 or self.eps <= 0:
            raise ConfigError("need lam > 0, e_max > 0, eps > 0")


@dataclass(frozen=True)
class Scenario:
    path: ClothoidSpec | EightSpec = field(default_factory=ClothoidSpec)
    plant_params: VehicleParams = field(default_factory=default_vehicle_params)
    model_params: VehicleParams = field(default_factory=default_vehicle_params)
    limits: ControlLimits = field(default_factory=default_limits)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    apt: AptParams = field(default_factory=AptParams)
    cost: CostConfig = field(default_factory=CostConfig)
    mode: str = "ppt"
    T: float = 18.4   # episode duration [s]

    def __post_init__(self):
        if self.mode not in FREE_COMPONENTS:
            raise ConfigError(f"mode must be one of {tuple(FREE_COMPONENTS)}")
        if 1 not in FREE_COMPONENTS[self.mode] and self.mpc.N_p < 3:
            # the modes off the adaptive law fit a circle to N_p path points
            raise ConfigError(f"mode {self.mode!r} fits its radius to N_p path "
                              f"points and needs N_p >= 3, got {self.mpc.N_p}")
        if not math.isfinite(self.T):
            raise ConfigError(f"T must be finite, got {self.T!r}")
        n = self.T / self.mpc.dT
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ConfigError("T must be an integral multiple of dT (>= 2 steps)")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.mpc.dT))

    def build_path(self) -> PathTable:
        return self.path.build()


@dataclass
class EpisodeTrace:
    columns: dict            # column name -> np.ndarray, TRACE_COLUMNS order
    failed: bool = False
    failure_reason: str = ""

    def __len__(self) -> int:
        return len(self.columns["t"])

    def to_csv(self, path) -> None:
        """One row per step; a failed trace ends with a FAILED_PREFIX line
        holding the reason, which CSV readers skip as a comment."""
        reason = " ".join(self.failure_reason.splitlines())
        write_csv(path, TRACE_COLUMNS,
                  np.column_stack([self.columns[c] for c in TRACE_COLUMNS]),
                  footer=FAILED_PREFIX + reason if self.failed else "")

    @staticmethod
    def from_csv(path) -> "EpisodeTrace":
        """Read a trace written by to_csv; ConfigError if the file is not one."""
        with open(path) as fh:
            try:
                lines = fh.read().splitlines()
            except UnicodeDecodeError as exc:  # not text at all
                raise ConfigError(f"{path}: not a trace, not text ({exc.reason})") from None
        header = lines[0].split(",") if lines else []
        missing = [c for c in TRACE_COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"{path}: not a trace, no column '{missing[0]}'")
        try:
            data = np.atleast_1d(np.genfromtxt(lines, delimiter=",", names=True))
        except ValueError as exc:  # a row whose length differs from the header's
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
        cols = {name: np.asarray(data[name], float) for name in data.dtype.names}
        failed = lines[-1].startswith(FAILED_PREFIX)
        return EpisodeTrace(columns=cols, failed=failed, failure_reason=(
            lines[-1].removeprefix(FAILED_PREFIX) if failed else ""))


@dataclass(frozen=True)
class MetricsReport:
    rmse_e: float
    rmse_dpsi: float
    rmse_V: float
    rmse_beta: float
    rmse_r: float
    rmse_delta: float
    rmse_F: float
    max_abs_e: float
    cost_J: float


def episode_cost(e, dpsi, cfg: CostConfig) -> float:
    """Log-compressed tracking cost of a completed episode, with soft
    barrier and increment terms.

    Works on the absolute lateral error.  The barrier is the log of the
    mean threshold excess, shifted so it is exactly zero when no step
    exceeds e_max (the raw log of an empty excess is undefined; the shift
    by -log(eps) keeps the term non-negative and monotone).
    """
    e = np.abs(np.asarray(e, float))
    dpsi = np.abs(np.asarray(dpsi, float))
    if len(e) < 2 or len(e) != len(dpsi):
        raise ConfigError("need equal-length traces with at least 2 steps")
    main = float(np.mean(e + cfg.lam * dpsi))
    excess = np.maximum(e - cfg.e_max, 0.0)
    barrier_inner = max(float(np.mean(10.0 * excess)), cfg.eps)
    barrier = math.log(barrier_inner) - math.log(cfg.eps)
    increment = float(np.mean(np.diff(e)))
    bracket = max(main + barrier + increment, cfg.eps)
    return math.log(bracket)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) if len(x) else math.nan


def metrics_from_trace(trace: EpisodeTrace, cost_cfg: CostConfig) -> MetricsReport:
    """Tracking and drift-state RMSEs against the per-step planned states;
    cost_J is j_fail for a failed trace or one shorter than 2 steps."""
    c = trace.columns
    J = cost_cfg.j_fail if trace.failed or len(trace) < 2 \
        else episode_cost(c["e"], c["d_psi"], cost_cfg)
    return MetricsReport(
        rmse_e=_rms(c["e"]),
        rmse_dpsi=_rms(c["d_psi"]),
        rmse_V=_rms(c["V"] - c["V_eq"]),
        rmse_beta=_rms(c["beta"] - c["beta_eq"]),
        rmse_r=_rms(c["r"] - c["r_eq"]),
        rmse_delta=_rms(c["delta_cmd"] - c["delta_eq_hat"]),
        rmse_F=_rms(c["F_xr_cmd"] - c["F_xr_eq"]),
        max_abs_e=float(np.max(np.abs(c["e"]))) if len(trace) else math.nan,
        cost_J=J,
    )


def tune_objective(trace: EpisodeTrace, metrics: MetricsReport,
                   scenario: Scenario) -> float:
    """What the tuner minimizes: cost_J for a completed episode.

    A failed episode (cost_J itself stays j_fail) is graded by the steps it
    survived out of the scenario's steps: j_fail at step 0, falling
    linearly to j_fail / 2 at the last step, so the surrogate sees which
    failing parameters came closer to finishing instead of a flat plateau.
    With the default j_fail the floor of 5 stays above any completed
    episode's cost (about 4.3 with |e| < 10 m), so a completed episode
    always ranks better than a failed one.
    """
    if trace.failed:
        frac = min(len(trace), scenario.n_steps) / scenario.n_steps
        return scenario.cost.j_fail * (1.0 - 0.5 * frac)
    return metrics.cost_J


def _law(scenario: Scenario, theta) -> AptParams:
    """The episode's tracking law: the scenario's apt values with the
    mode's free components of theta = (delta_eq, w_r, w_e) learned, and
    k = 0 in the modes off the adaptive law, which feed no e_la to the
    steering."""
    apt, free = scenario.apt, FREE_COMPONENTS[scenario.mode]
    full = np.array([apt.delta_eq_base, apt.w_r, apt.w_e])
    if theta is None:
        if free:
            raise ConfigError(f"mode '{scenario.mode}' requires a theta vector")
    else:
        t = np.asarray(theta, float).ravel()
        if len(t) != 3:
            raise ConfigError("theta must have 3 components (delta_eq, w_r, w_e)")
        if not np.all(np.isfinite(t)):
            raise ConfigError(f"theta must be finite, got {t.tolist()}")
        full[free] = t[free]
    delta_eq_base, w_r, w_e = full.tolist()
    return replace(apt, delta_eq_base=delta_eq_base, w_r=w_r, w_e=w_e,
                   k=apt.k if 1 in free else 0.0)


def run_episode(scenario: Scenario, theta=None,
                path: PathTable | None = None) -> tuple[EpisodeTrace, MetricsReport]:
    """Run one closed-loop episode; returns the trace and its metrics.

    Per step: project the pose and form the tracking errors, pick the drift
    radius (adaptive law or predictive baseline, by mode), adjust the
    steering equilibrium, re-solve the drift equilibrium on the nominal
    model, relinearize when the equilibrium moved, solve the constrained
    MPC, and apply the input to the plant.  Failures are classified and
    truncate the trace.
    """
    if path is None:
        path = scenario.build_path()
    use_apt_law = 1 in FREE_COMPONENTS[scenario.mode]
    law = _law(scenario, theta)
    limits = scenario.limits
    mpc_cfg = scenario.mpc
    model_params = scenario.model_params
    plant_params = scenario.plant_params
    n_steps = scenario.n_steps

    # initial condition: path origin, course aligned with the tangent, at the
    # stock equilibrium for the initial path radius, clamped like every later one
    kappa0 = float(path.kappa[0])
    R0 = clamp_radius(1.0 / kappa0 if kappa0 else math.inf, 1.0)
    eq0 = solve_dep(scenario.apt.delta_eq_base, R0, model_params)
    state = eq0.state()
    pose = Pose(float(path.x[0]), float(path.y[0]),
                wrap_angle(float(path.phi[0]) - eq0.beta_eq))
    u_prev = np.array([eq0.delta_eq, eq0.F_xr_eq])
    eq = eq0
    # the condensed horizon and its QP set-up depend on the equilibrium
    # alone: rebuild them only when the equilibrium moves
    horizon = horizon_eq = None

    rows = []
    failed = False
    reason = ""
    dep_failures = 0
    hint = None  # progress window for self-intersecting paths
    for k in range(n_steps):
        if not (V_FLOOR <= state.V <= V_MAX_SANE):
            failed, reason = True, f"speed out of range at step {k}"
            break
        try:
            proj = project(pose, path, hint_index=hint)
        except OffPathError:
            failed, reason = True, f"projection lost at step {k}"
            break
        hint = proj.index
        errs = errors_from_projection(proj, pose, state.beta, law.x_la)
        if abs(errs.e) > E_FAIL:
            failed, reason = True, f"lateral error blow-up at step {k}"
            break

        if use_apt_law:
            R_eq = apt_radius(errs, law)
        else:
            stride = max(1, int(round(state.V * mpc_cfg.dT / path.spacing)))
            R_eq = ppt_radius(pose, proj, path, mpc_cfg.N_p, RADIUS_GRID,
                              beta=state.beta, stride=stride)
        delta_hat = steer_feedback(errs, law, R_eq, limits.delta_min, limits.delta_max)
        dep_ok = True
        try:
            eq = solve_dep(delta_hat, R_eq, model_params, prev=eq)
        except (NoConvergenceError, GripBranchError, ConfigError):
            dep_ok = False  # hold the previous equilibrium
            dep_failures += 1
            if dep_failures > DEP_FAIL_FRACTION * n_steps:
                failed, reason = True, (f"equilibrium failures exceed "
                                        f"{DEP_FAIL_FRACTION:.0%} at step {k}")
                break

        try:
            if eq != horizon_eq:
                horizon = condense(augment(linearize(eq, model_params, mpc_cfg.dT)),
                                   mpc_cfg)
                horizon_eq = eq
            xi_now = np.array([state.V, state.beta, state.r, u_prev[0], u_prev[1]])
            sol = solve_mpc(xi_now, eq, horizon, limits)
        except DriftMpcError as exc:
            failed, reason = True, f"controller failure at step {k}: {exc}"
            break
        # the plant's rear tire cannot exceed its own friction circle
        F_applied = min(sol.u_next.F_xr, plant_params.F_r_max)
        u = ControlInput(sol.u_next.delta, F_applied)

        # TRACE_COLUMNS order; delta_eq equals delta_hat unless holding
        rows.append((k * mpc_cfg.dT, pose.X, pose.Y, pose.phi,
                     state.V, state.beta, state.r, u.delta, u.F_xr,
                     errs.e, errs.d_phi, errs.d_psi, errs.e_la, R_eq,
                     eq.delta_eq, eq.V_eq, eq.beta_eq, eq.r_eq, eq.F_xr_eq,
                     sol.cost, 1.0 if dep_ok else 0.0))

        try:
            state, pose = step(state, pose, u, plant_params, mpc_cfg.dT,
                               substeps=PLANT_SUBSTEPS)
        except DriftMpcError as exc:
            failed, reason = True, f"plant left the valid regime at step {k}: {exc}"
            break
        u_prev = np.array([u.delta, u.F_xr])

    table = np.array(rows, float).reshape(-1, len(TRACE_COLUMNS))
    trace = EpisodeTrace(columns=dict(zip(TRACE_COLUMNS, table.T)),
                         failed=failed, failure_reason=reason)
    return trace, metrics_from_trace(trace, scenario.cost)


# ---------------------------------------------------------------------------
# tuning

@dataclass
class TuneResult:
    theta_star: np.ndarray   # full 3-vector with pinned components filled in
    bo: BoResult
    history_thetas: np.ndarray  # (N, 3) full vectors in evaluation order

    def history_csv(self, path) -> None:
        n = len(self.bo.costs)
        write_csv(path, ["iteration", "delta_eq", "w_r", "w_e", "cost", "best_so_far"],
                  np.column_stack([np.arange(n), self.history_thetas,
                                   self.bo.costs, self.bo.best_so_far]))


def tune(scenario: Scenario, init: int = 20, budget: int = 320,
         seed: int = 0, extra_init=None) -> TuneResult:
    """Learn the free parameters of the scenario's mode with the BO loop.

    The mode fixes which components of (delta_eq, w_r, w_e) are free; the
    rest stay pinned at the scenario's apt values.  That pinned point
    is inserted into the initial design so tuning can never end worse than
    the untuned configuration; extra_init accepts further full 3-vectors
    to warm-start from (e.g. a previously tuned lower-dimensional mode).
    Each evaluation is scored by tune_objective, so failed episodes are
    graded by the steps they survived.  Deterministic for a fixed seed and
    a fixed BLAS thread count.
    """
    free = FREE_COMPONENTS[scenario.mode]
    if not free:
        raise ConfigError(f"mode '{scenario.mode}' learns nothing to tune")
    full_bounds = ThetaBounds()
    sub_bounds = ThetaBounds(lo=full_bounds.lo[free], hi=full_bounds.hi[free])
    apt = scenario.apt
    pinned = np.array([apt.delta_eq_base, apt.w_r, apt.w_e])
    path = scenario.build_path()

    def expand(theta_free: np.ndarray) -> np.ndarray:
        full = pinned.copy()
        full[free] = theta_free
        return full

    def runner(theta_free: np.ndarray) -> float:
        trace, metrics = run_episode(scenario, expand(theta_free), path=path)
        return tune_objective(trace, metrics, scenario)

    extra = [np.asarray(t, float) for t in ([] if extra_init is None else extra_init)]
    if any(t.shape != (3,) for t in extra):
        raise ConfigError("extra_init entries must be 3-vectors (delta_eq, w_r, w_e)")
    starts = [pinned[free]] + [t[free] for t in extra]
    result = bo_loop(runner, sub_bounds, m=init, N=budget, seed=seed,
                     init_thetas=starts)
    history = np.array([expand(t) for t in result.thetas])
    return TuneResult(theta_star=expand(result.theta_star), bo=result,
                      history_thetas=history)


# ---------------------------------------------------------------------------
# reporting

def report(traces: list[EpisodeTrace], labels: list[str],
           out_dir=None) -> tuple[str, list[MetricsReport]]:
    """Comparison table of the RMSE metrics, one row per labelled trace;
    with out_dir, the same rows are also written to out_dir/metrics.csv."""
    if len(traces) != len(labels):
        raise ConfigError("need one label per trace")
    if len({len(t) for t in traces}) > 1:
        raise ConfigError("traces have mismatched lengths")
    reports = [metrics_from_trace(t, CostConfig()) for t in traces]
    header = ["label"] + [f.name for f in fields(MetricsReport)]
    rows = [(label, *astuple(rep)) for label, rep in zip(labels, reports)]
    widths = [max(12, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        cells = [row[0]] + ["%.6g" % v for v in row[1:]]
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    table = "\n".join(lines)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "metrics.csv"), header, rows)
    return table, reports


# ---------------------------------------------------------------------------
# scenario (de)serialization

SECTIONS = {"plant_params": VehicleParams, "model_params": VehicleParams,
            "limits": ControlLimits, "mpc": MpcConfig, "apt": AptParams,
            "cost": CostConfig}


def scenario_to_dict(sc: Scenario) -> dict:
    kind = next(k for k, spec in PATH_KINDS.items() if isinstance(sc.path, spec))
    data = asdict(sc)
    data["path"] = {"kind": kind, **data["path"]}
    return data


def scenario_from_dict(data: dict) -> Scenario:
    try:
        path = {**data["path"]}
        kind = path.pop("kind")
        if kind not in PATH_KINDS:
            raise ConfigError(f"unknown path kind '{kind}'")
        return Scenario(
            path=PATH_KINDS[kind](**path),
            **{name: spec(**data[name]) for name, spec in SECTIONS.items()},
            mode=data["mode"],
            T=data["T"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def scenario_to_file(sc: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def scenario_from_file(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not text at all
            raise ConfigError(f"scenario file {path} is not JSON: {exc}") from exc
    return scenario_from_dict(data)


def case_scenario(case: int = 1, mode: str = "ppt", **overrides) -> Scenario:
    """Stock scenario for the exact-parameter (1) or mismatched (2) case."""
    plant_mu = {1: MU_NOMINAL, 2: MU_SLIPPERY}.get(case)
    if plant_mu is None:
        raise ConfigError("case must be 1 or 2")
    return Scenario(plant_params=default_vehicle_params(mu=plant_mu),
                    model_params=default_vehicle_params(mu=MU_NOMINAL),
                    mode=mode, **overrides)
