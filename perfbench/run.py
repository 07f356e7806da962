"""driftmpc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed_loop --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the run measures the end-to-end metrics, with its only
hook one timestamp per control step, and reports every time at the
reference machine speed of speed.py.  With --trace 1 it alternates
untraced and traced passes of the same seed, runs a short complement pass
for the layers the workload never calls, replays the recorded QP instance
set, and reports the per-layer metrics and the tracing overhead.  Every
run checks the program's outputs and prints one line per check; the last
line of standard output is the result as JSON.  The exit code is 0 only
when every check passes.  README.md in this directory explains the
workloads and what each metric is expected to move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_loop", "tune", "bo_hil")
SETUP_SAMPLES = 5      # this process plus four fresh interpreters
MIN_UNITS = 2          # a same-seed repeat is what the identity checks compare
COMPLEMENT_BO_BUDGET = 40

# driver metric -> the workload's own metric it reports
E2E = {
    "op_ms_p50": {"closed_loop": "step_ms_p50", "tune": "step_ms_p50",
                  "bo_hil": "acquire_ms_p50"},
    "op_ms_tail": {"closed_loop": "step_ms_p99", "tune": "step_ms_p99",
                   "bo_hil": "acquire_ms_p90"},
    "ops_per_s": {"closed_loop": "steps_per_s", "tune": "steps_per_s",
                  "bo_hil": "acquires_per_s"},
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int) -> dict:
    """Everything a run needs before its first timed unit."""
    import workloads as wl
    import qpset
    ctx = {"reference": json.loads((HERE / "reference.json").read_text()),
           "qps": qpset.load(HERE / "data" / "qp_instances.npz")}
    if workload == "closed_loop":
        ctx["episodes"] = wl.closed_loop_setup(seed)
    elif workload == "tune":
        ctx["tune"] = wl.tune_setup(seed)
    else:
        ctx["bo"] = wl.bo_hil_setup(seed)
    return ctx


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, measured and scaled inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(out.stdout.split()[-1])


def environment(seed: int) -> dict:
    import ctypes
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        try:
            threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def run_units(unit, seconds: float, min_units: int) -> list:
    units, t0 = [], perf_counter()
    while len(units) < min_units or perf_counter() - t0 < seconds:
        units.append(unit())
    return units


def blocks(units: list, min_samples: int) -> list:
    """Consecutive units pooled until each block holds min_samples
    latencies; a short remainder joins the last block."""
    out, cur = [], []
    for u in units:
        cur.append(u)
        if sum(len(x.op_ms) for x in cur) >= min_samples:
            out.append(cur)
            cur = []
    if cur and out:
        out[-1].extend(cur)
    elif cur:
        out.append(cur)
    return out


def e2e_metrics(workload: str, units: list, setup_s: list) -> dict:
    """The workload's own end-to-end metrics: name -> (value, unit, samples).

    Every latency and wall time is first scaled to the reference speed by
    the speed kernel's times within its own unit (speed.py).  Latencies
    are the median over blocks of consecutive units, each block large
    enough for its tail percentile to have ten samples beyond it, so a
    burst of the host's own load moves one block's tail, not the run's.
    """
    import speed
    from layers import pct
    ops = sum(u.ops for u in units)
    attempted = ops + sum(u.failed for u in units)
    m = {"setup_s": (statistics.median(setup_s), "s", len(setup_s)),
         "speed_kernel_ms": (statistics.median(k * 1e3 for u in units for k in u.kernel_s),
                             "ms", sum(len(u.kernel_s) for u in units)),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
         "failed_frac": (sum(u.failed for u in units) / attempted, "ratio", attempted)}
    op, tail = ("acquire", 90) if workload == "bo_hil" else ("step", 99)
    parts = blocks(units, 10 * 100 // (100 - tail))
    n = sum(len(u.op_ms) for u in units)
    for q in (50, tail):
        m[f"{op}_ms_p{q}"] = (statistics.median(
            pct([u.speed_factor * x for u in b for x in u.op_ms], q) for b in parts), "ms", n)
    m[f"{op}s_per_s"] = (ops / sum(u.speed_factor * u.wall_s for u in units), "1/s", ops)
    if workload == "closed_loop":
        eps = [u.speed_factor * e[1] for u in units for e in u.episodes]
        m["episode_s_p50"] = (pct(eps, 50), "s", len(eps))
        m["max_abs_e_m"] = (max(e[5] for e in units[0].episodes), "m", len(units[0].episodes))
    else:
        m["best_cost"] = (units[0].best_cost, "cost", len(units))
    if workload == "tune":
        m["tune_s"] = (statistics.median(u.speed_factor * u.wall_s for u in units),
                       "s", len(units))
    return m


def measure(args, ctx, unit):
    """Untraced units until --seconds have passed; with --trace, the
    schedule U T T U T ..., then the complement pass and the QP replay."""
    import qpset
    import workloads as wl
    from tracer import Tracer

    def traced_unit(run):
        with Tracer() as tracer:
            result = run(tracer)
        return result, tracer

    if not args.trace:
        return run_units(unit, args.seconds, MIN_UNITS), [], [], None
    plain, traced, t0 = [], [], perf_counter()
    schedule = ["U", "T", "T"]
    while schedule or perf_counter() - t0 < args.seconds:
        kind = schedule.pop(0) if schedule else ("U" if len(plain) < len(traced) else "T")
        if kind == "U":
            plain.append(unit())
        else:
            traced.append(traced_unit(unit))
    if args.workload == "closed_loop":
        comp_ctx = wl.bo_hil_setup(args.seed, budget=COMPLEMENT_BO_BUDGET)
        comp = lambda tracer: wl.bo_hil_unit(comp_ctx, tracer)  # noqa: E731
    else:
        comp_eps = wl.closed_loop_setup(args.seed)
        comp = lambda tracer: wl.closed_loop_unit(comp_eps)  # noqa: E731
    complement = [traced_unit(comp)[1]]
    return plain, traced, complement, qpset.replay(ctx["qps"])


def traced_metrics(plain, traced, complement, replay, checks) -> dict:
    """Per-layer metrics: name -> (value, unit, samples, source).  Appends
    the determinism checks to `checks`."""
    import layers
    tracers = [t for _, t in traced]
    counters = [layers.exact_counters(t) for t in tracers]
    checks.append(("determinism.exact_counters", all(c == counters[0] for c in counters),
                   f"{len(counters)} traced same-seed passes: " + ", ".join(
                       f"{k} {sum(v) if isinstance(v, list) else v}"
                       for k, v in counters[0].items())))
    checks.append(("determinism.qp_replay", replay["repeat_identical"],
                   f"{replay['instances']} instances replayed 3 times"))
    lm = layers.layer_metrics(tracers, complement)
    traced_ms = [x for u, _ in traced for x in u.op_ms]
    plain_ms = [x for u in plain for x in u.op_ms]
    lm["trace_overhead_frac"] = (layers.pct(traced_ms, 50) / layers.pct(plain_ms, 50) - 1.0,
                                 "ratio", len(traced_ms), "live")
    its = [i for i in replay["iterations"] if i >= 0]
    lm["qp.replay_us_p50"] = (layers.pct(replay["times_us"], 50), "us",
                              len(replay["times_us"]), "replay")
    lm["qp.replay_iterations_mean"] = (sum(its) / len(its), "count", len(its), "replay")
    lm["qp.kkt_fail"] = (replay["kkt_fail"], "count", replay["instances"],
                         f"replay, worst certificate {max(replay['kkt_worst']):.3g}")
    return lm


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "driftmpc" / "__init__.py").is_file():
        print(f"error: no driftmpc package under {src}", file=sys.stderr)
        return 2
    # one process, one BLAS thread: the 38x38 and <=320x320 factorizations
    # here gain nothing from a second thread but scheduler noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = perf_counter()
    sys.path[:0] = [str(src), str(HERE)]
    import driftmpc  # noqa: F401  (set-up time includes the import)
    ctx = setup(args.workload, args.seed)
    setup_s = perf_counter() - t0
    import speed
    setup_s = [setup_s * speed.factor([speed.kernel_s() for _ in range(20)])]
    if args.setup_probe:
        print(f"setup_s {setup_s[0]!r}")
        return 0
    setup_s += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import workloads as wl

    env = environment(args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # each unit takes the tracer of a traced pass, or None; untraced units
    # run the speed kernel between episodes or acquisitions
    unit = {
        "closed_loop": lambda tracer=None: wl.closed_loop_unit(ctx["episodes"],
                                                               calibrate=tracer is None),
        "tune": lambda tracer=None: wl.tune_unit(ctx["tune"], out_dir,
                                                 calibrate=tracer is None),
        "bo_hil": lambda tracer=None: wl.bo_hil_unit(ctx["bo"], tracer),
    }[args.workload]
    if args.workload == "closed_loop":
        unit()  # warm-up: first calls, allocator and caches

    t_run = perf_counter()
    plain, traced, complement, replay = measure(args, ctx, unit)
    run_s = perf_counter() - t_run

    units = plain + [u for u, _ in traced]
    checks = {"closed_loop": lambda: wl.closed_loop_checks(units, ctx["reference"])
              + wl.reference_checks(ctx["reference"]),
              "tune": lambda: wl.tune_checks(units),
              "bo_hil": lambda: wl.bo_hil_checks(units)}[args.workload]()
    own = e2e_metrics(args.workload, plain, setup_s)
    # a classified episode failure is an output, not a failed operation:
    # closed_loop's checks allow none, tune's must repeat byte for byte,
    # and failed_frac reports them
    failed = 0
    attempted = sum(u.ops for u in units)
    if args.trace:
        metrics = traced_metrics(plain, traced, complement, replay, checks)
        failed += metrics["qp.kkt_fail"][0] + metrics["qp.live_kkt_fail"][0]
        attempted += replay["instances"]
        driver = {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()}
    else:
        metrics = {}
        driver = {name: {"value": own[per_wl[args.workload]][0],
                         "unit": own[per_wl[args.workload]][1]}
                  for name, per_wl in E2E.items()}
    metrics = {**{k: (*v, "live") for k, v in own.items()}, **metrics}

    n_failed_checks = sum(not ok for _, ok, _ in checks)
    result = {"correct": n_failed_checks == 0,
              "attempted": attempted + len(checks),
              "failed": failed + n_failed_checks,
              "metrics": driver}

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced units in {run_s:.1f} s")
    for name, (value, unit_, n, source) in metrics.items():
        tag = "" if source == "live" else f" [{source}]"
        print(f"metric {name} = {value:.6g} {unit_} (n={n}){tag}")
    for name, ok, info in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {info}")
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        {"env": env, "setup_s": setup_s, "checks": checks, "result": result,
         "metrics": {k: dict(zip(("value", "unit", "n", "source"), v))
                     for k, v in metrics.items()}},
        indent=1, default=float) + "\n")
    if args.trace:
        with open(out_dir / f"spans-{stem}.csv", "w") as fh:
            fh.write("pass,name,start,end,parent,group,error\n")
            for k, (_, t) in enumerate(traced):
                for s in t.spans:
                    fh.write(f"{k},{s.name},{s.start!r},{s.end!r},{s.parent},"
                             f"{s.group},{int(s.error)}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
