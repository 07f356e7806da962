"""What a fresh interpreter loads: the controller without the tuner's SciPy
modules, the tuner with scipy.optimize and scipy.special on first use (each
one by the function that needs it) and never scipy.stats, whose Sobol'
sequence the package draws itself, and the same Sobol sample as when
scipy.stats was imported at the top of the package.  Also that a script
run without PYTHONPATH finds the package."""
import json
import os
import subprocess
import sys
from pathlib import Path

from driftmpc.bo import ThetaBounds

ROOT = Path(__file__).resolve().parents[1]
TUNER_MODULES = ("scipy.stats", "scipy.optimize", "scipy.special")

# ThetaBounds().sample(5, 0), one row per point, as float.hex
SAMPLE_5_SEED_0 = [
    ["0x1.e29954299999cp-3", "0x1.dcdc014800000p+0", "-0x1.5f71666800000p+0"],
    ["-0x1.47b4fb6b33333p-1", "0x1.9f2b0cb000000p-1", "0x1.f35e7d8400000p+1"],
    ["-0x1.5425a61999998p-2", "0x1.38bc41b800000p+0", "-0x1.3d78430600000p+2"],
    ["-0x1.23098dc333330p-3", "0x1.5fae354000000p-3", "0x1.36263bbc00000p+1"],
    ["0x1.85d304d9999a0p-4", "0x1.7d1275c800000p+0", "0x1.7667e4b400000p+1"],
]


def _loaded_after(code: str, cwd) -> dict:
    """Run code in a fresh interpreter; which TUNER_MODULES did it load?"""
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps({{m: m in sys.modules for m in {TUNER_MODULES!r}}}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_episode_leave_tuner_modules_unloaded(tmp_path):
    loaded = _loaded_after(
        "import driftmpc\n"
        "from driftmpc.harness import case_scenario, run_episode\n"
        "run_episode(case_scenario(1, 'ppt', T=2.0))", tmp_path)
    assert loaded == dict.fromkeys(TUNER_MODULES, False)


def test_cli_simulate_leaves_tuner_modules_unloaded(tmp_path):
    loaded = _loaded_after(
        "from driftmpc.cli import main\n"
        "assert main(['simulate', '--case', '1', '--mode', 'ppt', '--out', 'o']) == 0",
        tmp_path)
    assert loaded == dict.fromkeys(TUNER_MODULES, False)


def test_sample_and_fit_load_tuner_modules(tmp_path):
    loaded = _loaded_after(
        "from driftmpc.bo import ThetaBounds\n"
        "from driftmpc.gp import GpDataset, gp_fit\n"
        "b = ThetaBounds()\n"
        "x = b.sample(5, 0)\n"
        "gp_fit(GpDataset(x, (x * x).sum(axis=1)), b.lo, b.hi)", tmp_path)
    assert loaded["scipy.optimize"] and not loaded["scipy.stats"]


def test_tune_leaves_scipy_stats_unloaded(tmp_path):
    loaded = _loaded_after(
        "from driftmpc.harness import case_scenario, tune\n"
        "tune(case_scenario(1, 'dep', T=2.0), init=3, budget=4)", tmp_path)
    assert loaded == {"scipy.stats": False, "scipy.optimize": True, "scipy.special": True}


def test_expected_improvement_loads_only_scipy_special(tmp_path):
    loaded = _loaded_after(
        "import numpy as np\n"
        "from driftmpc.bo import _ei\n"
        "assert _ei(np.array([0.0]), np.array([1.0]), 0.5)[0] > 0.0", tmp_path)
    assert loaded == {"scipy.stats": False, "scipy.optimize": False, "scipy.special": True}


def test_sample_bits_unchanged():
    got = [[float(v).hex() for v in row] for row in ThetaBounds().sample(5, 0)]
    assert got == SAMPLE_5_SEED_0


def test_seed_sweep_finds_the_package_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), "--help"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
