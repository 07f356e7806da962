"""The three workloads: inputs made from the seed, one unit of work each,
and the checks that the program's outputs are right.

A unit is the smallest piece of work a run repeats: five full episodes
(closed_loop), one fixed-budget tune (tune), or one BO loop over a
synthetic cost surface (bo_hil).  A run repeats units of the same seed, so
a repeat must reproduce the first bit for bit.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import driftmpc
from driftmpc import harness
from driftmpc.errors import DriftMpcError

import speed

# closed_loop: the README/ROADMAP learned vector, read by apt, dep and almpc
THETA_REF = (-0.49, 0.99, 3.6)
THETA_JITTER = np.array([0.01, 0.02, 0.2])   # uniform +- per component

# tune: the job users run, at a budget that leaves 10 BO iterations.  The BO
# seed is fixed: across BO seeds 0-4 the share of failing evaluations swung
# from 18/30 to 29/30 and step_ms_p50 from 2.0 to 4.6 ms, more than any run
# length averages out.  The run's seed jitters a warm-start point instead,
# by a tenth of the closed_loop jitter (the full jitter still moved
# step_ms_p50 between 2.0 and 3.0 ms).
TUNE_INIT = 20
TUNE_BUDGET = 30
TUNE_BO_SEED = 0
TUNE_JITTER = 0.1 * THETA_JITTER

# bo_hil: a bowl of known minimum inside a j_fail plateau
BO_INIT = 20
BO_BUDGET = 100
BOWL_MIN = -2.0
BOWL_RADIUS = 0.35      # normalized distance from the centre to the cliff
BOWL_CURVATURE = 25.0
BOWL_TOL = 1e-2         # best cost must land this close to BOWL_MIN

# closed_loop episodes with jitter may drift this far from the un-jittered
# reference values (seeds 0-23 moved cost_J by up to 1.15 and max_abs_e by
# up to 0.29 m); the reference episodes themselves must match to REF_RTOL
JITTER_TOL = {"cost_J": 2.0, "max_abs_e": 0.5}
REF_RTOL = 1e-6


@dataclass
class Episode:
    label: str
    scenario: object
    theta: tuple | None
    path: object


@dataclass
class UnitResult:
    wall_s: float
    ops: int = 0           # completed control steps or acquisitions
    failed: int = 0        # classified episode failures and raised errors
    op_ms: list = field(default_factory=list)
    episodes: list = field(default_factory=list)  # (label, wall_s, steps, failed, cost_J, max_abs_e)
    best_cost: float = math.nan
    digest: str = ""       # fingerprint a same-seed repeat must reproduce
    kernel_s: list = field(default_factory=list)  # speed.kernel_s() times next to the unit

    @property
    def speed_factor(self) -> float:
        return speed.factor(self.kernel_s)


class StepClock:
    """The untraced run's only hook: one timestamp as each plant call
    returns.  A step's latency is the gap to the previous timestamp of
    the same episode; an episode continues when the runner passes back
    the pose the previous plant call returned.  With `calibrate`, every
    speed.EVERY-th plant call is preceded by one run of the speed kernel
    and is left untimed."""

    def __init__(self, calibrate: bool = False):
        self.samples_ms: list[float] = []
        self.kernel_s: list[float] = []
        self.steps = 0
        self._pose = None
        self._t = 0.0
        self._original = harness.step

        def step(*args, **kwargs):
            timed = args[1] is self._pose
            if calibrate and self.steps % speed.EVERY == 0:
                self.kernel_s.append(speed.kernel_s())
                timed = False
            out = self._original(*args, **kwargs)
            t = perf_counter()
            if timed:
                self.samples_ms.append((t - self._t) * 1e3)
            self._pose = out[1]
            self._t = t
            self.steps += 1
            return out

        harness.step = step

    def close(self) -> None:
        harness.step = self._original


# ---------------------------------------------------------------------------
# closed_loop

def closed_loop_setup(seed: int, jitter: bool = True) -> list[Episode]:
    rng = np.random.default_rng(seed)
    episodes = []
    for case, mode in ((1, "ppt"), (1, "apt"), (1, "dep"), (1, "almpc"), (2, "ppt")):
        theta = None
        if mode != "ppt":
            shift = rng.uniform(-1.0, 1.0, 3) * THETA_JITTER
            theta = tuple(np.add(THETA_REF, shift if jitter else 0.0))
        sc = driftmpc.case_scenario(case, mode)
        episodes.append(Episode(f"case{case}_{mode}", sc, theta, sc.build_path()))
    return episodes


def closed_loop_unit(episodes: list[Episode], calibrate: bool = False) -> UnitResult:
    clock = StepClock(calibrate)
    res = UnitResult(wall_s=0.0, kernel_s=clock.kernel_s)
    try:
        for ep in episodes:
            k = len(clock.kernel_s)
            t0 = perf_counter()
            try:
                trace, m = driftmpc.run_episode(ep.scenario, ep.theta, path=ep.path)
                wall = perf_counter() - t0 - sum(clock.kernel_s[k:])
                row = (ep.label, wall, len(trace), trace.failed, m.cost_J, m.max_abs_e)
            except DriftMpcError:
                wall = perf_counter() - t0 - sum(clock.kernel_s[k:])
                row = (ep.label, wall, 0, True, math.nan, math.nan)
            res.wall_s += row[1]
            res.failed += int(row[3])
            res.episodes.append(row)
    finally:
        clock.close()
    res.ops = clock.steps
    res.op_ms = clock.samples_ms
    res.digest = repr([(r[0], r[2], r[3], r[4], r[5]) for r in res.episodes])
    return res


def closed_loop_checks(units: list[UnitResult], reference: dict) -> list[tuple]:
    checks = []
    for label, _, steps, failed, cost, emax in units[0].episodes:
        ref = reference[label]
        ok = (not failed and steps == ref["steps"]
              and abs(cost - ref["cost_J"]) <= JITTER_TOL["cost_J"]
              and abs(emax - ref["max_abs_e"]) <= JITTER_TOL["max_abs_e"])
        checks.append((f"closed_loop.{label}", ok,
                       f"steps {steps} failed {failed} cost_J {cost:.6g} "
                       f"max_abs_e {emax:.6g} (ref {ref['cost_J']:.6g}, {ref['max_abs_e']:.6g})"))
    checks.append(same_digest("closed_loop.repeat_identical", units))
    return checks


def reference_checks(reference: dict) -> list[tuple]:
    """Un-jittered episodes against the recorded reference values."""
    unit = closed_loop_unit(closed_loop_setup(0, jitter=False))
    checks = []
    for label, _, steps, failed, cost, emax in unit.episodes:
        ref = reference[label]
        ok = (not failed and steps == ref["steps"]
              and math.isclose(cost, ref["cost_J"], rel_tol=REF_RTOL)
              and math.isclose(emax, ref["max_abs_e"], rel_tol=REF_RTOL))
        checks.append((f"reference.{label}", ok,
                       f"cost_J {cost!r} vs {ref['cost_J']!r}, "
                       f"max_abs_e {emax!r} vs {ref['max_abs_e']!r}"))
    return checks


# ---------------------------------------------------------------------------
# tune

def tune_setup(seed: int) -> dict:
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, 3) * TUNE_JITTER
    return {"scenario": driftmpc.case_scenario(1, "almpc"), "seed": seed,
            "budget": TUNE_BUDGET, "warm_start": [np.add(THETA_REF, shift)]}


def tune_unit(ctx: dict, out_dir, calibrate: bool = False) -> UnitResult:
    clock = StepClock(calibrate)
    try:
        t0 = perf_counter()
        result = driftmpc.tune(ctx["scenario"], init=TUNE_INIT, budget=ctx["budget"],
                               seed=TUNE_BO_SEED, extra_init=ctx["warm_start"])
        wall = perf_counter() - t0 - sum(clock.kernel_s)
    finally:
        clock.close()
    path = out_dir / f"tune_history_{ctx['seed']}.csv"
    result.history_csv(path)
    history = path.read_bytes()
    j_fail = ctx["scenario"].cost.j_fail
    # a failed episode ends in one failed step; its cost is exactly j_fail
    failed = int(np.sum(result.bo.costs == j_fail))
    return UnitResult(wall_s=wall, ops=clock.steps, failed=failed,
                      op_ms=clock.samples_ms, best_cost=result.bo.best_cost,
                      digest=hashlib.sha256(history).hexdigest(), kernel_s=clock.kernel_s)


def tune_checks(units: list[UnitResult]) -> list[tuple]:
    best = units[0].best_cost
    return [("tune.best_cost_finite", math.isfinite(best), f"best_cost {best!r}"),
            same_digest("tune.history_bytes_identical", units)]


# ---------------------------------------------------------------------------
# bo_hil

@dataclass
class Surface:
    """Bowl with minimum BOWL_MIN at `centre`, cut off by a j_fail cliff."""
    centre: np.ndarray
    width: np.ndarray
    j_fail: float

    def __call__(self, theta) -> float:
        u = (np.asarray(theta, float) - self.centre) / self.width
        r2 = float(u @ u)
        return self.j_fail if r2 > BOWL_RADIUS ** 2 else BOWL_MIN + BOWL_CURVATURE * r2


def bo_hil_setup(seed: int, budget: int | None = None) -> dict:
    bounds = driftmpc.ThetaBounds()
    width = bounds.hi - bounds.lo
    rng = np.random.default_rng(seed)
    centre = bounds.lo + width * rng.uniform(0.3, 0.7, bounds.dim)
    surface = Surface(centre, width, driftmpc.CostConfig().j_fail)
    return {"bounds": bounds, "surface": surface, "seed": seed,
            "budget": budget or BO_BUDGET}


def bo_hil_unit(ctx: dict, tracer=None) -> UnitResult:
    """The runner is the car: its own time is not the supervisor's.  An
    acquisition's latency runs from one runner return to the next call.
    Untraced, each runner call also runs the speed kernel once."""
    surface = ctx["surface"]
    calls, kernel = [], []
    last_return = [None]

    def runner(theta):
        t = perf_counter()
        if last_return[0] is not None:
            calls.append((t - last_return[0]) * 1e3)
        if tracer is not None:
            tracer.note_evaluation(theta)
        cost = surface(theta)
        if tracer is None:
            kernel.append(speed.kernel_s())
        last_return[0] = perf_counter()
        return cost

    t0 = perf_counter()
    result = driftmpc.bo_loop(runner, ctx["bounds"], m=BO_INIT, N=ctx["budget"],
                              seed=ctx["seed"], noise_var=1e-6)
    wall = perf_counter() - t0 - sum(kernel)
    acquire = calls[BO_INIT - 1:]
    return UnitResult(wall_s=wall, ops=len(acquire), op_ms=acquire, kernel_s=kernel,
                      best_cost=result.best_cost,
                      digest=hashlib.sha256(result.thetas.tobytes()
                                            + result.costs.tobytes()).hexdigest())


def bo_hil_checks(units: list[UnitResult]) -> list[tuple]:
    best = units[0].best_cost
    return [("bo_hil.best_cost_near_minimum", abs(best - BOWL_MIN) <= BOWL_TOL,
             f"best_cost {best!r}, surface minimum {BOWL_MIN}, tolerance {BOWL_TOL}"),
            same_digest("bo_hil.repeat_identical", units)]


def same_digest(name: str, units: list[UnitResult]) -> tuple:
    digests = {u.digest for u in units}
    return (name, len(digests) == 1, f"{len(units)} same-seed units, {len(digests)} distinct")
