"""Per-layer metrics from traced passes, and the exact counters a same-seed
repeat must reproduce.

Each metric is computed from the workload's own traced passes.  A layer
the workload never calls (gp/bo on closed_loop, the controller modules on
bo_hil, ppt_radius on tune) is measured on the run's short complement
pass instead, so every metric has a value on every workload; the printed
report names the source of each.
"""
from __future__ import annotations

import numpy as np

from qpset import KKT_TOL


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _timing(name, q, info=None, scale=1e6):
    def fn(tracers):
        d = [s.duration * scale for t in tracers for s in t.of(name, info)]
        return (pct(d, q), len(d)) if d else None
    return fn


def _self_timing(name, q, scale):
    def fn(tracers):
        d = [x * scale for t in tracers for x in t.self_times(name)]
        return (pct(d, q), len(d)) if d else None
    return fn


def _dynamics_per_step(tracers):
    steps = sum(len(t.of("vehicle.step")) for t in tracers)
    return (sum(t.total("dynamics") for t in tracers) / steps, steps) if steps else None


def _dep_fail_frac(tracers):
    spans = [s for t in tracers for s in t.of("equilibrium.solve_dep")]
    return (sum(s.error for s in spans) / len(spans), len(spans)) if spans else None


def _residual_evals(tracers):
    n = sum(len(t.of("equilibrium.solve_dep")) for t in tracers)
    evals = sum(t.count_in("dynamics", "equilibrium.solve_dep") for t in tracers)
    return (evals / n, n) if n else None


def _qp_info(index, stat):
    def fn(tracers):
        vals = [s.info[index] for t in tracers for s in t.of("qp.solve_qp") if s.info]
        if not vals:
            return None
        return (float(np.mean(vals)) if stat == "mean" else pct(vals, stat), len(vals))
    return fn


def _live_kkt_fail(tracers):
    spans = [s for t in tracers for s in t.of("mpc.solve_mpc") if s.info is not None]
    return sum(s.info > KKT_TOL for s in spans), len(spans)


def _kernel_calls_per_fit(tracers):
    n = sum(len(t.of("gp.gp_fit", "fit")) for t in tracers)
    if not n:
        return None
    return sum(t.count_in("kernel", "gp.gp_fit", "fit") for t in tracers) / n, n


def _fallback_frac(tracers):
    n = sum(t.acquisitions for t in tracers)
    return (sum(t.fallbacks for t in tracers) / n, n) if n else None


def _tune_steps(tracers):
    tunes = sum(len(t.of("harness.tune")) for t in tracers)
    if not tunes:
        return 0, 0
    return sum(len(t.of("vehicle.step")) for t in tracers) / tunes, tunes


def _bo_share(tracers):
    """Share of BO-loop wall time spent outside the runner's episodes."""
    loop = sum(s.duration for t in tracers for s in t.of("bo.bo_loop"))
    if not loop:
        return 0.0, 0
    episodes = sum(s.duration for t in tracers for s in t.of("harness.run_episode"))
    return (loop - episodes) / loop, sum(len(t.of("bo.bo_loop")) for t in tracers)


# name -> (unit, function of a list of tracers returning (value, samples)
# or None when the layer did no work there)
LIVE = {
    "vehicle.step_us_p50": ("us", _timing("vehicle.step", 50)),
    "vehicle.dynamics_calls_per_step": ("count", _dynamics_per_step),
    "paths.project_us_p50": ("us", _timing("paths.project", 50)),
    "tracking.ppt_radius_us_p50": ("us", _timing("tracking.ppt_radius", 50)),
    "equilibrium.solve_dep_us_p50": ("us", _timing("equilibrium.solve_dep", 50)),
    "equilibrium.solve_dep_us_p99": ("us", _timing("equilibrium.solve_dep", 99)),
    "equilibrium.fail_frac": ("ratio", _dep_fail_frac),
    "equilibrium.residual_evals_per_solve": ("count", _residual_evals),
    "mpc.linearize_us_p50": ("us", _timing("mpc.linearize", 50)),
    "mpc.solve_mpc_self_us_p50": ("us", _self_timing("mpc.solve_mpc", 50, 1e6)),
    "qp.solve_qp_us_p50": ("us", _timing("qp.solve_qp", 50)),
    "qp.solve_qp_us_p99": ("us", _timing("qp.solve_qp", 99)),
    "qp.iterations_mean": ("count", _qp_info(0, "mean")),
    "qp.iterations_p95": ("count", _qp_info(0, 95)),
    "qp.active_rows_mean": ("count", _qp_info(1, "mean")),
    "gp.fit_ms_p50": ("ms", _timing("gp.gp_fit", 50, "fit", 1e3)),
    "gp.kernel_calls_per_fit": ("count", _kernel_calls_per_fit),
    "gp.refit_ms_p50": ("ms", _timing("gp.gp_fit", 50, "refit", 1e3)),
    "gp.predict_batch_us_p50": ("us", _timing("gp.gp_predict_batch", 50, 2048)),
    "bo.acquire_next_ms_p50": ("ms", _timing("bo.acquire_next", 50, None, 1e3)),
    "bo.fallback_frac": ("ratio", _fallback_frac),
    "harness.episode_self_ms_p50": ("ms", _self_timing("harness.run_episode", 50, 1e3)),
}

# counts and shares of the workload's own passes, zero where it has no QP,
# tune or BO loop: never taken from the complement pass
OWN = {
    "qp.live_kkt_fail": ("count", _live_kkt_fail),
    "harness.tune_steps": ("count", _tune_steps),
    "harness.bo_share": ("ratio", _bo_share),
}


def layer_metrics(main: list, complement: list) -> dict:
    """name -> (value, unit, samples, source)."""
    out = {}
    for name, (unit, fn) in LIVE.items():
        got, source = fn(main), "live"
        if got is None:
            got, source = fn(complement), "complement"
        if got is None:
            raise RuntimeError(f"no traced pass measured {name}")
        out[name] = (got[0], unit, got[1], source)
    for name, (unit, fn) in OWN.items():
        value, n = fn(main)
        out[name] = (value, unit, n, "live")
    return out


def exact_counters(tracer) -> dict:
    """Counts a same-seed repeat must reproduce bit for bit."""
    return {
        "dynamics_calls": tracer.total("dynamics"),
        "steps": len(tracer.of("vehicle.step")),
        "residual_evals": tracer.count_in("dynamics", "equilibrium.solve_dep"),
        "qp_iterations": [s.info[0] for s in tracer.of("qp.solve_qp") if s.info],
        "kernel_calls": tracer.total("kernel"),
        "fits": len(tracer.of("gp.gp_fit", "fit")),
        "fallbacks": tracer.fallbacks,
    }
