"""The benchmark in perfbench/ times driftmpc by replacing functions at the
module attributes where their callers look them up.  These checks fail
when a change moves, renames or stops calling one of those attributes,
which would otherwise surface only as a broken traced benchmark run.
"""
import importlib
from pathlib import Path

import numpy as np
import pytest

import driftmpc
from driftmpc import harness, mpc
from driftmpc.bo import ThetaBounds
from driftmpc.harness import case_scenario, run_episode
from driftmpc.qp import solve_qp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_mod(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _attributes(hooks):
    return [getattr(importlib.import_module(mod), attr) for mod, attr, _ in hooks]


def test_tracer_wraps_and_restores_every_hook(tracer_mod):
    hooks = tracer_mod.SPANNED + tracer_mod.COUNTED
    originals = _attributes(hooks)
    with tracer_mod.Tracer():
        wrapped = _attributes(hooks)
    assert [w.__wrapped__ for w in wrapped] == originals
    assert all(a is o for a, o in zip(_attributes(hooks), originals))


def test_hooked_attributes_are_called(tracer_mod):
    almpc = case_scenario(case=1, mode="almpc", T=0.2)
    with tracer_mod.Tracer() as tr:
        driftmpc.tune(almpc, init=2, budget=3, seed=0)
        driftmpc.run_episode(case_scenario(case=1, mode="ppt", T=0.2))
        driftmpc.bo_loop(lambda t: float(t @ t), ThetaBounds(), m=2, N=3, seed=0)
    assert {name for _, _, name in tracer_mod.SPANNED} <= {s.name for s in tr.spans}
    for layer in ("vehicle.step", "mpc.linearize", "equilibrium.solve_dep"):
        assert tr.count_in("dynamics", layer) > 0, layer
    assert tr.count_in("kernel", "gp.gp_fit") > 0


def test_clock_and_recorder_targets_callable():
    # perfbench's StepClock wraps harness.step, its QP Recorder mpc.solve_qp
    assert callable(harness.step) and callable(mpc.solve_qp)
    assert np.isfinite(mpc.solve_qp(np.eye(1), np.ones(1), np.eye(1), np.ones(1)).x).all()


def test_recorder_passes_the_setup_through_and_cold_solves_match(monkeypatch):
    """perfbench's QP Recorder forwards the set-up solve_mpc hands the QP
    and captures every QP of an episode.  perfbench/record.py stores the
    captured (H, g, A, b) and the traced replay solves them cold, without
    a set-up: that must give the live answers bit for bit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    qpset = importlib.import_module("qpset")
    live = []

    def spy(H, g, A, b, *args, **kwargs):
        res = solve_qp(H, g, A, b, *args, **kwargs)
        live.append((args, sorted(kwargs), res))
        return res

    monkeypatch.setattr(mpc, "solve_qp", spy)
    recorder = qpset.Recorder("test")
    try:
        trace, _ = run_episode(case_scenario(case=1, mode="ppt", T=2.0))
    finally:
        recorder.close()
    assert mpc.solve_qp is spy
    assert not trace.failed and len(recorder.rows) == len(live) == len(trace) == 20
    for (_, H, g, b, _), (args, keys, res) in zip(recorder.rows, live):
        assert args == () and keys == ["setup"]
        cold = solve_qp(H, g, recorder.A, b)
        assert (cold.x.tobytes(), cold.lam.tobytes(), cold.iterations, cold.active) == \
            (res.x.tobytes(), res.lam.tobytes(), res.iterations, res.active)
