"""Command-line interface: equilibrium tables, path export, closed-loop
simulation, parameter tuning, and trace comparison reports.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .csvout import write_csv
from .equilibrium import (R_EQ_MAX, R_EQ_MIN, check_radius, dep_sweep, solve_dep,
                          sweep_to_csv)
from .errors import DriftMpcError
from .harness import (FREE_COMPONENTS, EpisodeTrace, Scenario, case_scenario,
                      report, run_episode, scenario_from_file, scenario_to_file,
                      tune)
from .paths import PATH_KINDS, SPACING, ClothoidSpec, EightSpec
from .vehicle import MU_NOMINAL, default_vehicle_params


def _cmd_dep(args) -> int:
    params = default_vehicle_params(mu=args.mu)
    if args.sweep:
        check_radius(args.radius)
        deltas = np.linspace(args.delta - 0.1, args.delta + 0.1, 5)
        # radii from 0.5 |R| to 1.5 |R| within the solver's range, all
        # turning the way R does
        size = abs(args.radius)
        radii = math.copysign(1.0, args.radius) * np.linspace(
            max(0.5 * size, R_EQ_MIN), min(1.5 * size, R_EQ_MAX), 7)
        cells = dep_sweep(deltas, radii, params)
        sweep_to_csv(cells, args.out)
        n_ok = sum(c.eq is not None for c in cells)
        print(f"swept {len(cells)} cells, {n_ok} converged -> {args.out}")
    else:
        eq = solve_dep(args.delta, args.radius, params)
        print(f"V_eq    = {eq.V_eq:.6f} m/s")
        print(f"beta_eq = {eq.beta_eq:.6f} rad")
        print(f"r_eq    = {eq.r_eq:.6f} rad/s")
        print(f"delta   = {eq.delta_eq:.6f} rad")
        print(f"F_xr_eq = {eq.F_xr_eq:.3f} N")
    return 0


def _cmd_path(args) -> int:
    spec = EightSpec(args.radius) if args.kind == "eight" else ClothoidSpec()
    table = spec.build(args.spacing)
    table.to_csv(args.out)
    print(f"wrote {len(table)} samples -> {args.out}")
    return 0


def _parse_theta(text: str) -> np.ndarray:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("theta must be three comma-separated values")
    return np.array(parts)


def _load_scenario(args, default_mode: str) -> Scenario:
    if args.scenario:
        sc = scenario_from_file(args.scenario)
        if args.mode is not None:
            sc = replace(sc, mode=args.mode)
        return sc
    return case_scenario(case=args.case,
                         mode=args.mode if args.mode is not None else default_mode)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args, default_mode="ppt")
    trace, metrics = run_episode(scenario, theta=args.theta)
    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, f"trace_{scenario.mode}.csv"))
    scenario_to_file(scenario, os.path.join(args.out, "scenario.json"))
    status = "FAILED: " + trace.failure_reason if trace.failed else "completed"
    print(f"episode {status} after {len(trace)} steps")
    for name, value in asdict(metrics).items():
        print(f"  {name:10s} = {value:.6g}")
    return 1 if trace.failed else 0


def _cmd_tune(args) -> int:
    scenario = _load_scenario(args, default_mode="almpc")
    result = tune(scenario, init=args.init, budget=args.budget, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    result.history_csv(os.path.join(args.out, f"history_{scenario.mode}.csv"))
    write_csv(os.path.join(args.out, f"theta_star_{scenario.mode}.csv"),
              ["delta_eq", "w_r", "w_e"], [result.theta_star])
    t = result.theta_star
    print(f"best cost {result.bo.best_cost:.6g} at "
          f"theta = ({t[0]:.4f}, {t[1]:.4f}, {t[2]:.4f})")
    return 0


def _cmd_report(args) -> int:
    traces, labels = [], []
    for path in args.traces:
        traces.append(EpisodeTrace.from_csv(path))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    table, _ = report(traces, labels, out_dir=args.out)
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftmpc",
        description="Drift-vehicle MPC with adaptive path tracking and BO tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dep", help="solve or sweep drift equilibria")
    p.add_argument("--delta", type=float, required=True, help="steering angle [rad]")
    p.add_argument("--radius", type=float, required=True, help="signed radius [m]")
    p.add_argument("--mu", type=float, default=MU_NOMINAL)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--out", default="dep_sweep.csv")
    p.set_defaults(func=_cmd_dep)

    p = sub.add_parser("path", help="export a reference path table")
    p.add_argument("--kind", choices=list(PATH_KINDS), default="clothoid")
    p.add_argument("--radius", type=float, default=40.0, help="eight lobe radius [m]")
    p.add_argument("--spacing", type=float, default=SPACING)
    p.add_argument("--out", default="path.csv")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("simulate", help="run one closed-loop episode")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--case", type=int, default=1, choices=[1, 2])
    p.add_argument("--mode", choices=list(FREE_COMPONENTS), default=None)
    p.add_argument("--theta", type=_parse_theta,
                   help="delta_eq,w_r,w_e (required for apt/dep/almpc)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tune", help="learn parameters with Bayesian optimization")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--case", type=int, default=1, choices=[1, 2])
    p.add_argument("--mode", default=None,
                   choices=[mode for mode, free in FREE_COMPONENTS.items() if free])
    p.add_argument("--init", type=int, default=20)
    p.add_argument("--budget", type=int, default=320)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("report", help="compare episode trace CSVs")
    p.add_argument("--traces", nargs="+", required=True)
    p.add_argument("--out", default=None, help="directory to write metrics.csv to")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a classified package error or a file that cannot
    be read or written is reported on stderr as
    `driftmpc: <ErrorType>: <message>` with exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DriftMpcError, OSError) as exc:
        print(f"driftmpc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
