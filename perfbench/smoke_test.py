"""Smoke test of the benchmark itself, at tiny sizes where that is possible.

    python3 -m pytest -q perfbench/smoke_test.py

Checks that both modes print every metric BENCHMARK.json names with its
unit, that the correctness checks run and a failing one sets a non-zero
exit code, and that without the program the command fails without a
result.  closed_loop runs at full size (its reference values are for full
184-step episodes) with --seconds 0, so it does the fewest units a run can.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "TUNE_INIT", 3)
    monkeypatch.setattr(workloads, "TUNE_BUDGET", 6)
    monkeypatch.setattr(workloads, "BO_INIT", 3)
    monkeypatch.setattr(workloads, "BO_BUDGET", 10)
    monkeypatch.setattr(run, "COMPLEMENT_BO_BUDGET", 10)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _expect_metrics(result, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_closed_loop(capsys, trace):
    code, lines, result = _run(capsys, "closed_loop", trace)
    _expect_metrics(result, trace)
    assert code == 0 and result["correct"] and result["failed"] == (trace and 1)
    assert any(ln.startswith("check reference.case1_almpc: PASS") for ln in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_tune_tiny(capsys, tiny, trace):
    code, lines, result = _run(capsys, "tune", trace)
    _expect_metrics(result, trace)
    assert code == 0 and result["correct"]
    assert any(ln.startswith("check tune.history_bytes_identical: PASS") for ln in lines)
    if trace:
        assert any(ln.startswith("check determinism.exact_counters: PASS") for ln in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_bo_hil_tiny_fails_its_check_by_name(capsys, tiny, trace):
    # ten evaluations cannot find the bowl's minimum: the check must say so
    code, lines, result = _run(capsys, "bo_hil", trace)
    _expect_metrics(result, trace)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any(ln.startswith("check bo_hil.best_cost_near_minimum: FAIL") for ln in lines)


def test_without_the_program_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "tune",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
