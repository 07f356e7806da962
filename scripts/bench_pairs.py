#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload closed_loop \\
        --seeds 1 2 3 4 [--seconds 40]

Each seed is one pair: `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` runs once in each checkout, from its root, so each
side measures its own program with its own benchmark.  The parent runs
first on odd pairs (1st, 3rd, ...) and second on even ones, so a drift in
machine load does not favour one side.  The script prints each pair's
end-to-end metrics, then per metric the median and quartiles of each side,
on how many pairs the change was better, the median gap next to the
parent's interquartile range, and a verdict: `gain` when the change is
better on at least 9 of 10 pairs and its median beats the parent's by more
than the parent's IQR, `worse` when its median is worse than the parent's
by more than the metric's relative bound, `unresolved` otherwise.  The
metric names, their better direction and their bounds come from
CHANGE_DIR/BENCHMARK.json.  It exits 1 if any
run failed a check or reported a failed operation.  It writes nothing;
perfbench/run.py writes its usual result files under each checkout's
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: no result line (exit status {proc.returncode})")
    result["ok"] = proc.returncode == 0 and result["correct"] and not result["failed"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, float, float, str]:
    """(pairs the change won, median gap in the better direction, parent's
    IQR, verdict) for one metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, p2, p3), (_, c2, _) = quartiles(parent), quartiles(change)
    gap, iqr = sign * (p2 - c2), p3 - p1
    if 10 * wins >= 9 * len(parent) and gap > iqr:
        word = "gain"
    elif -gap > bound * abs(p2):
        word = "worse"
    else:
        word = "unresolved"
    return wins, gap, iqr, word


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair per seed, in this order")
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {name: [] for name in better} for side in sides}
    all_ok = True
    for pair, seed in enumerate(args.seeds, start=1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            res = run_once(sides[side], args.workload, seed, args.seconds)
            all_ok &= res["ok"]
            metrics = res["metrics"]
            for name in better:
                values[side][name].append(metrics[name]["value"])
            shown = " ".join(f"{name} {metrics[name]['value']:.6g}" for name in better)
            flag = "" if res["ok"] else " NOT OK"
            print(f"pair {pair} seed {seed} {side}: {shown}{flag}", flush=True)

    n = len(args.seeds)
    print(f"{args.workload}, {n} pairs: median [q1, q3] parent -> change, change "
          f"better in; median gap (positive is better) vs parent IQR: verdict")
    for name, direction in better.items():
        par, chg = values["parent"][name], values["change"][name]
        wins, gap, iqr, word = verdict(par, chg, direction, bounds[name])
        (p1, p2, p3), (c1, c2, c3) = quartiles(par), quartiles(chg)
        print(f"  {name}: {p2:.6g} [{p1:.6g}, {p3:.6g}] -> "
              f"{c2:.6g} [{c1:.6g}, {c3:.6g}]; {wins}/{n} pairs ({direction} is "
              f"better); gap {gap:.6g} vs IQR {iqr:.6g}: {word}")
    if not all_ok:
        print("some runs failed a check or an operation", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
