#!/usr/bin/env python3
"""Rerun acceptance criteria 7 and 8's set-up over several tuning seeds.

For each seed this does what tests/test_acceptance.py does at its fixed
seed 0: the case-1 `apt` and `dep` tunes (budget 120), the `almpc` tune
(budget 140) warm-started at their optima, the four case-1 episodes, then
the case-2 `almpc` tune (budget 160, e_max = 1 m) warm-started at the case-1
almpc optimum and its episode.  It prints one line per seed with each
`rmse_e`, the index of the almpc tune's best evaluation, criterion 8's
max|e| against its 1 m bound, and PASS/FAIL for both criteria.

    OPENBLAS_NUM_THREADS=1 python3 scripts/seed_sweep.py [--seeds 0 1 2]

The tunes' GP factorizations round differently with the BLAS thread
count, so the script reports OPENBLAS_NUM_THREADS as it found it; it
does not set it.  One seed takes about 66 s on one core.  The
package is taken from the src/ directory next to this script.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from driftmpc.harness import CostConfig, case_scenario, run_episode, tune  # noqa: E402


def sweep_seed(seed: int, rmse_ppt: float, max_e_ppt2: float) -> str:
    apt = tune(case_scenario(case=1, mode="apt"), init=20, budget=120, seed=seed)
    dep = tune(case_scenario(case=1, mode="dep"), init=20, budget=120, seed=seed)
    sc_al = case_scenario(case=1, mode="almpc")
    al = tune(sc_al, init=20, budget=140, seed=seed,
              extra_init=[apt.theta_star, dep.theta_star])
    _, m_apt = run_episode(case_scenario(case=1, mode="apt"), apt.theta_star)
    _, m_dep = run_episode(case_scenario(case=1, mode="dep"), dep.theta_star)
    _, m_al = run_episode(sc_al, al.theta_star)
    c7 = m_al.rmse_e < m_apt.rmse_e < rmse_ppt and m_dep.rmse_e < rmse_ppt

    sc2 = case_scenario(case=2, mode="almpc", cost=CostConfig(e_max=1.0))
    al2 = tune(sc2, init=20, budget=160, seed=seed, extra_init=[al.theta_star])
    trace2, m_al2 = run_episode(sc2, al2.theta_star)
    c8 = (not trace2.failed and m_al2.max_abs_e < 1.0
          and max_e_ppt2 >= 2.0 * m_al2.max_abs_e)
    failed = ", failed" if trace2.failed else ""
    return (f"seed {seed}: rmse_e almpc {m_al.rmse_e:.4f} apt {m_apt.rmse_e:.4f} "
            f"ppt {rmse_ppt:.4f} dep {m_dep.rmse_e:.4f}, "
            f"almpc best at {int(np.argmin(al.bo.costs))}; "
            f"c7 {'PASS' if c7 else 'FAIL'}; "
            f"c8 max|e| {m_al2.max_abs_e:.3f} m vs 1 m{failed} "
            f"{'PASS' if c8 else 'FAIL'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(6)))
    args = parser.parse_args(argv)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}",
          flush=True)
    _, m_ppt = run_episode(case_scenario(case=1, mode="ppt"))
    _, m_ppt2 = run_episode(case_scenario(case=2, mode="ppt"))
    for seed in args.seeds:
        t0 = time.perf_counter()
        line = sweep_seed(seed, m_ppt.rmse_e, m_ppt2.max_abs_e)
        print(f"{line} ({time.perf_counter() - t0:.0f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
