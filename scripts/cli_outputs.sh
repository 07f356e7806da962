#!/usr/bin/env bash
# Run a fixed set of driftmpc CLI commands and keep every file and every
# stdout they produce under OUTDIR, plus a digest of the QP solver on the
# instances recorded in perfbench/data, one of the equilibrium,
# linearization and condensing kernels over a grid of operating points, one
# of three closed-loop episodes, one of two Bayesian-optimization runs, one
# of five path tables and one of 36 Sobol' samples.
# Last it checks the SHA-256 of every output against the list committed
# next to it, scripts/cli_outputs.sha256, and exits 1 naming every file that
# differs.  The list holds for the Python, NumPy, SciPy and OpenBLAS of its
# first line; on other versions, or for a change that moves an output, run
# the script on two trees and `diff -r` the two output directories.
#
#     scripts/cli_outputs.sh OUTDIR
#
# The run's own list is written next to OUTDIR, as OUTDIR.sha256.  The
# package is taken from the src/ directory next to this script.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
out=$(pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

# run NAME [EXPECTED_STATUS] -- ARGS...: stdout goes to NAME.txt
run() {
    local name=$1 want=0
    shift
    if [ "$1" != "--" ]; then want=$1; shift; fi
    shift
    local got=0
    python3 -m driftmpc.cli "$@" > "$name.txt" || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "$name: exit status $got, expected $want" >&2
        exit 1
    fi
}

run path_clothoid -- path --kind clothoid --out path_clothoid.csv
run path_eight30 -- path --kind eight --radius 30 --out path_eight30.csv
run dep -- dep --delta -0.52 --radius 40
run sweep_a -- dep --delta -0.9 --radius 10 --sweep --out sweep_a.csv
run sweep_b -- dep --delta -0.1 --radius 100 --sweep --out sweep_b.csv
run dep_mu09 -- dep --delta -0.52 --radius 40 --mu 0.9
run sweep_mu09 -- dep --delta -0.52 --radius 40 --mu 0.9 --sweep --out sweep_mu09.csv
run sim_ppt -- simulate --case 1 --mode ppt --out sim_ppt
run sim_dep -- simulate --case 1 --mode dep --theta=-0.49,0.99,3.6 --out sim_dep
run sim_case2_ppt -- simulate --case 2 --mode ppt --out sim_case2_ppt
run sim_case2_dep -- simulate --case 2 --mode dep --theta=-0.49,0.99,3.6 --out sim_case2_dep
run sim_case2 1 -- simulate --case 2 --mode almpc --theta=-0.473,0.993,2.90 --out sim_case2
run tune -- tune --case 1 --mode almpc --init 6 --budget 12 --seed 3 --out tune
run tune30 -- tune --case 1 --mode almpc --init 20 --budget 30 --seed 0 --out tune30
run tune_dep -- tune --case 1 --mode dep --init 6 --budget 12 --seed 3 --out tune_dep
run report -- report --traces sim_ppt/trace_ppt.csv sim_dep/trace_dep.csv --out report
run report_failed -- report --traces sim_case2/trace_almpc.csv --out report_failed

# qp_digest.txt, one line per recorded QP instance: its iterations, the
# working set in the order the solver left it, and the exact bits of x and
# of the multipliers lam.  Each instance is also solved twice on read-only
# copies of H and A, as solve_mpc hands the QP read-only arrays; the script
# exits 1 if either answer differs from the line printed
python3 -B - "$root/perfbench" > qp_digest.txt <<'PY'
import sys
sys.path.insert(0, sys.argv[1])
import qpset
from driftmpc.errors import DriftMpcError
from driftmpc.qp import solve_qp


def line(k, H, g, A, b):
    try:
        r = solve_qp(H, g, A, b)
    except DriftMpcError as exc:
        return f"{k} {type(exc).__name__}"
    return " ".join([str(k), str(r.iterations), str(r.active),
                     " ".join(map(float.hex, r.x.tolist())),
                     "lam", " ".join(map(float.hex, r.lam.tolist()))])


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


qps = qpset.load(sys.argv[1] + "/data/qp_instances.npz")
A, A_ro = qps["A"], read_only(qps["A"])
for k, (H, g, b) in enumerate(zip(qps["H"], qps["g"], qps["b"])):
    cold = line(k, H, g, A, b)
    H_ro = read_only(H)
    for _ in range(2):
        if line(k, H_ro, g, A_ro, b) != cold:
            sys.exit(f"instance {k}: the read-only solve differs from the cold one")
    print(cold)
PY

# kernel_digest.txt, one line per cell of a (delta, R) grid that holds
# drift, grip and non-converging cells, plus one equilibrium moved onto the
# rear friction cap so that linearize differences that column one-sided:
# the exact bits of the solve_dep result and, at it, of linearize's A, B, d,
# condense's S, the free response c and the H, g, A, b that solve_mpc hands
# the QP; or the class of the exception the solve raised
python3 -B - > kernel_digest.txt <<'PY'
import dataclasses

import numpy as np
from driftmpc import mpc
from driftmpc.equilibrium import solve_dep
from driftmpc.errors import DriftMpcError
from driftmpc.mpc import MpcConfig, _offsets, augment, condense, linearize, solve_mpc
from driftmpc.vehicle import default_limits, default_vehicle_params

params = default_vehicle_params()
limits = default_limits()
cfg = MpcConfig()
offset = np.array([0.5, -0.02, 0.01, -0.05, 200.0])


class QpData(Exception):
    """Carries the (H, g, A, b) solve_mpc passed to solve_qp, before the solve."""


def stop_at_the_qp(H, g, A, b, *args, **kwargs):
    raise QpData(H, g, A, b)


mpc.solve_qp = stop_at_the_qp


def hexes(*arrays):
    return " | ".join(" ".join(map(float.hex, np.ravel(a).tolist())) for a in arrays)


def line(name, eq):
    lin = linearize(eq, params, cfg.dT)
    hz = condense(augment(lin), cfg)
    xi_eq = eq.as_array()
    c = _offsets(hz, xi_eq + offset, xi_eq)
    try:
        solve_mpc(xi_eq + offset, eq, hz, limits)
    except QpData as qp:
        H, g, A, b = qp.args
    print(name, hexes(xi_eq, lin.A, lin.B, lin.d, hz.S, c, H, g, A, b))


for delta in (-0.9, -0.52, -0.1, 0.2):
    for R in (-60.0, 5.0, 12.0, 40.0, 150.0):
        try:
            eq = solve_dep(delta, R, params)
        except DriftMpcError as exc:
            print(delta, R, type(exc).__name__)
            continue
        line(f"{delta} {R}", eq)
line("cap", dataclasses.replace(solve_dep(-0.52, 40.0, params), F_xr_eq=params.F_r_max))
PY

# bo_digest.txt, one line per evaluation of two bo_loop runs: the exact
# bits of theta and of the cost.  The quadratic at noise 1e-8 (seed 0)
# takes the EI < 1e-12 fallback on 24 of its 40 acquisitions; the bowl
# inside a j_fail plateau fits its GP to a cliff, as tuning does
python3 -B - > bo_digest.txt <<'PY'
import numpy as np
from driftmpc.bo import ThetaBounds, bo_loop
from driftmpc.harness import CostConfig

bounds = ThetaBounds()
width = bounds.hi - bounds.lo
centre = np.array([-0.15, 0.9, 1.2])
quadratic = bo_loop(lambda t: float(np.sum((t - centre) ** 2)), bounds,
                    m=20, N=60, seed=0, noise_var=1e-8)
bowl_centre = bounds.lo + width * np.random.default_rng(0).uniform(0.3, 0.7, 3)


def bowl(theta):
    u = (theta - bowl_centre) / width
    r2 = float(u @ u)
    return CostConfig().j_fail if r2 > 0.35 ** 2 else -2.0 + 25.0 * r2


plateau = bo_loop(bowl, bounds, m=20, N=60, seed=0, noise_var=1e-6)
for name, res in (("quadratic", quadratic), ("plateau", plateau)):
    for k, (theta, cost) in enumerate(zip(res.thetas.tolist(), res.costs.tolist())):
        print(name, k, " ".join(map(float.hex, theta)), float.hex(cost))
PY

# trace_digest.txt, one line per step of three episodes holding the exact
# bits of every trace cell, then a line with the failure reason: case-1
# ppt, case-2 dep, and a case-1 almpc whose look-ahead weight flips the
# turn direction twice before the episode fails at step 46
python3 -B - > trace_digest.txt <<'PY'
from driftmpc.harness import TRACE_COLUMNS, case_scenario, run_episode

for name, case, mode, theta in (("ppt", 1, "ppt", None),
                                ("case2_dep", 2, "dep", (-0.49, 0.99, 3.6)),
                                ("almpc", 1, "almpc", (-0.52, 0.0, 5.0))):
    trace, _ = run_episode(case_scenario(case=case, mode=mode), theta)
    rows = zip(*(trace.columns[c].tolist() for c in TRACE_COLUMNS))
    for k, row in enumerate(rows):
        print(name, k, " ".join(map(float.hex, row)))
    print(name, "failed:", trace.failure_reason if trace.failed else "no")
PY

# path_digest.txt, one line per sample of five path tables holding the
# exact bits of s, X, Y, phi and kappa, which the CSVs round to 12 digits:
# the stock clothoid and eight, a clothoid off the origin whose curvature
# rises through zero over a length that is not a multiple of its spacing,
# and eights at R = 7.3 m and 123.4 m
python3 -B - > path_digest.txt <<'PY'
from driftmpc.paths import ClothoidSpec, EightSpec

for name, table in (("clothoid", ClothoidSpec().build()),
                    ("eight", EightSpec().build()),
                    ("clothoid_off", ClothoidSpec(x0=3.3, y0=-1.7, theta0=0.4, kappa=-0.01,
                                                  kappa_prime=1e-4, length=123.4).build(0.37)),
                    ("eight7.3", EightSpec(7.3).build(0.1)),
                    ("eight123.4", EightSpec(123.4).build(0.37))):
    columns = (table.s, table.x, table.y, table.phi, table.kappa)
    for k, row in enumerate(zip(*(c.tolist() for c in columns))):
        print(name, k, " ".join(map(float.hex, row)))
PY

# sobol_digest.txt, one line per point of ThetaBounds samples in the first
# 1, 2 and 3 components of the stock box: its dimension, the sample size,
# the seed, the point's index and the exact bits of the point, for sample
# sizes 1, 5 and 2048 and seeds 0, 7, 1007 and 50023
python3 -B - > sobol_digest.txt <<'PY'
from driftmpc.bo import ThetaBounds

stock = ThetaBounds()
for d in (1, 2, 3):
    bounds = ThetaBounds(stock.lo[:d], stock.hi[:d])
    for n in (1, 5, 2048):
        for seed in (0, 7, 1007, 50023):
            for k, point in enumerate(bounds.sample(n, seed).tolist()):
                print(d, n, seed, k, " ".join(map(float.hex, point)))
PY

# the SHA-256 list of every file under OUTDIR, headed by the versions it
# ran on, in sha256sum's format; compared with the committed list
python3 -B - "$root/scripts/cli_outputs.sha256" "$out.sha256" <<'PY'
import hashlib
import pathlib
import sys

import numpy
import scipy


def blas(config):
    dep = config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{dep['name']} {dep['version']}"


head = (f"# Python {sys.version.split()[0]}, NumPy {numpy.__version__} "
        f"({blas(numpy.show_config)}), SciPy {scipy.__version__} "
        f"({blas(scipy.show_config)})")
lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}"
         for p in sorted(pathlib.Path(".").rglob("*")) if p.is_file()]
pathlib.Path(sys.argv[2]).write_text("\n".join([head] + lines) + "\n")

listed = pathlib.Path(sys.argv[1])
if not listed.is_file():
    sys.exit(f"no list at {listed}; this run's list is {sys.argv[2]}")
want_head, *want_lines = listed.read_text().splitlines()
want = dict(line.split("  ", 1)[::-1] for line in want_lines)
got = dict(line.split("  ", 1)[::-1] for line in lines)
differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
if differ:
    print(f"{len(differ)} of {len(want.keys() | got.keys())} outputs differ "
          f"from {listed}:", *differ, sep="\n  ", file=sys.stderr)
    print(f"the list was made on {want_head[2:]}\nthis run is on {head[2:]}",
          file=sys.stderr)
    sys.exit(1)
PY
