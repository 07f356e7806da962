"""Write the benchmark's recorded inputs: the QP instance set and the
reference values of the un-jittered closed_loop episodes.

    python3 perfbench/record.py

Run it only to change the recorded inputs: both sides of a comparison
must replay the same files.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0
# instances kept per source, as an even stride through its QPs
KEEP = {"sobol16_seed3": 60, "tune": 60, "closed_loop": 30}


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import driftmpc
    import qpset
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    unit = workloads.closed_loop_unit(workloads.closed_loop_setup(SEED, jitter=False))
    reference = {label: {"steps": steps, "cost_J": cost, "max_abs_e": emax}
                 for label, _, steps, failed, cost, emax in unit.episodes}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")

    def sobol16_seed3():
        # the closed-loop set the project roadmap measured: 763 QPs, one of
        # which returns a point that violates a constraint row by 0.15
        sc = driftmpc.case_scenario(1, "almpc")
        path = sc.build_path()
        for theta in driftmpc.ThetaBounds().sample(16, 3):
            driftmpc.run_episode(sc, theta, path=path)

    sources = {
        "sobol16_seed3": sobol16_seed3,
        "tune": lambda: workloads.tune_unit(workloads.tune_setup(SEED), out_dir),
        "closed_loop": lambda: workloads.closed_loop_unit(workloads.closed_loop_setup(SEED)),
    }
    rows, A = [], None
    for source, run in sources.items():
        rec = qpset.Recorder(source)
        try:
            run()
        finally:
            rec.close()
        A = rec.A if A is None else A
        stride = max(len(rec.rows) // KEEP[source], 1)
        # the stride sample, plus every instance whose certificate fails
        kept = [r for i, r in enumerate(rec.rows)
                if i % stride == 0 or r[4] > qpset.KKT_TOL]
        print(f"{source}: {len(rec.rows)} QPs, kept {len(kept)}, "
              f"certificate failures {sum(r[4] > qpset.KKT_TOL for r in rec.rows)}")
        rows.extend(kept)
    (HERE / "data").mkdir(exist_ok=True)
    qpset.save(HERE / "data" / "qp_instances.npz", A, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
