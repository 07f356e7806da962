"""What a fresh interpreter loads: the controller with one SciPy module,
the LAPACK extension scipy.linalg._flapack, whose dpotrf and dpotrs are the
function objects scipy.linalg.lapack exports in either import order; the
tuner with scipy.optimize and scipy.special on first use (each one by the
function that needs it) and never scipy.stats, whose Sobol' sequence the
package draws itself, and the same Sobol sample as when scipy.stats was
imported at the top of the package.  Also that a script run without
PYTHONPATH finds the package."""
import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftmpc import qp
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


def _fresh(code: str, result: str, cwd):
    """Run code in a fresh interpreter; the JSON value of result after it."""
    script = f"import json, sys\n{code}\nprint(json.dumps({result}))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, cwd) -> dict:
    """Run code in a fresh interpreter; which TUNER_MODULES did it load?"""
    return _fresh(code, f"{{m: m in sys.modules for m in {TUNER_MODULES!r}}}", cwd)


def _scipy_modules_after(code: str, cwd) -> list:
    """Run code in a fresh interpreter; every SciPy module it loaded."""
    return _fresh(code, "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
                  cwd)


def test_import_and_episode_load_only_the_lapack_extension(tmp_path):
    assert _scipy_modules_after(
        "import driftmpc\n"
        "from driftmpc.harness import case_scenario, run_episode\n"
        "run_episode(case_scenario(1, 'ppt', T=2.0))", tmp_path) == ["scipy.linalg._flapack"]


def test_cli_simulate_loads_only_the_lapack_extension(tmp_path):
    assert _scipy_modules_after(
        "from driftmpc.cli import main\n"
        "assert main(['simulate', '--case', '1', '--mode', 'ppt', '--out', 'o']) == 0",
        tmp_path) == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("imports", ["import driftmpc, scipy.linalg",
                                     "import scipy.linalg, driftmpc"],
                         ids=["driftmpc-first", "scipy-linalg-first"])
def test_lapack_calls_are_scipys_function_objects(tmp_path, imports):
    same = _fresh(
        f"{imports}\n"
        "from scipy.linalg import lapack\n"
        "from driftmpc import gp, qp\n"
        "same = {f'{m.__name__}.{f}': getattr(m, f) is getattr(lapack, f)\n"
        "        for m in (qp, gp) for f in ('dpotrf', 'dpotrs')}\n"
        "loaded = sys.modules['scipy.linalg._flapack']\n"
        "same['one module'] = loaded is lapack._flapack is qp._flapack",
        "same", tmp_path)
    assert same == {"driftmpc.qp.dpotrf": True, "driftmpc.qp.dpotrs": True,
                    "driftmpc.gp.dpotrf": True, "driftmpc.gp.dpotrs": True,
                    "one module": True}


def test_loader_without_the_extension_raises_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path=None, target=None: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack not found in \[") as exc:
        qp._load_flapack()
    assert exc.value.name == "scipy.linalg._flapack"


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
