"""The verdict scripts/bench_pairs.py prints per metric, on canned runs."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [2000.0, 1990.0, 2010.0, 2005.0, 1995.0, 2020.0, 1980.0, 2000.0, 2015.0, 1985.0]


@pytest.mark.parametrize("change, better, want", [
    # 10/10 pairs better, the gap far above the parent's IQR of 17.5
    ([p + 300.0 for p in PARENT], "higher", "gain"),
    ([p - 300.0 for p in PARENT], "lower", "gain"),
    # 9/10 pairs better is enough
    ([p + 300.0 for p in PARENT[:9]] + [PARENT[9] - 1.0], "higher", "gain"),
    # 8/10 pairs better is not, however large the gap
    ([p + 300.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]], "higher",
     "unresolved"),
    # every pair better, but by less than the parent's spread
    ([p + 5.0 for p in PARENT], "higher", "unresolved"),
    # worse by less than the 25 % bound
    ([p * 0.9 for p in PARENT], "higher", "unresolved"),
    ([p * 1.2 for p in PARENT], "lower", "unresolved"),
    # worse by more than the bound
    ([p * 0.7 for p in PARENT], "higher", "worse"),
    ([p * 1.3 for p in PARENT], "lower", "worse"),
])
def test_verdict(bench_pairs, change, better, want):
    assert bench_pairs.verdict(PARENT, change, better, 0.25)[3] == want


def test_verdict_reports_wins_gap_and_parent_iqr(bench_pairs):
    change = [p + 300.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    wins, gap, iqr, _ = bench_pairs.verdict(PARENT, change, "higher", 0.25)
    assert wins == 9
    assert iqr == pytest.approx(2008.75 - 1991.25)
    assert gap == pytest.approx(2300.0 - 2000.0)


def test_main_prints_a_verdict_per_metric(bench_pairs, tmp_path, monkeypatch, capsys):
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "op_ms_p50", "better": "lower", "bound": 0.25}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    seeds = list(range(10))

    def canned(root, workload, seed, seconds):
        speed = PARENT[seed] * (1.2 if root == tmp_path.resolve() else 1.0)
        return {"ok": True, "metrics": {"ops_per_s": {"value": speed},
                                        "op_ms_p50": {"value": 1.0 + seed}}}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    code = bench_pairs.main([str(tmp_path.parent), str(tmp_path),
                             "--workload", "closed_loop",
                             "--seeds", *map(str, seeds)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    summary = {line.split(":")[0].strip(): line for line in lines[-2:]}
    assert summary["ops_per_s"].endswith(": gain")
    assert "10/10 pairs" in summary["ops_per_s"]
    assert summary["op_ms_p50"].endswith(": unresolved")
    assert "0/10 pairs" in summary["op_ms_p50"]
