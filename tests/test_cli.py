import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftmpc.cli import build_parser, main
from driftmpc.equilibrium import R_EQ_MAX, R_EQ_MIN
from driftmpc.harness import (FREE_COMPONENTS, CostConfig, EpisodeTrace,
                              case_scenario, run_episode, scenario_to_dict,
                              scenario_to_file)


def test_dep_solve(capsys):
    assert main(["dep", "--delta", "-0.52", "--radius", "40"]) == 0
    out = capsys.readouterr().out
    assert "V_eq" in out and "18.89" in out


def test_dep_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["dep", "--delta", "-0.45", "--radius", "40",
                 "--sweep", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,R,V,beta,r,Fxr,converged"
    assert len(lines) == 36  # 5 x 7 grid


@pytest.mark.parametrize("radius", [-40.0, 40.0, -6.0, 400.0])
def test_dep_sweep_radii_keep_the_turn_direction(tmp_path, radius):
    out = tmp_path / "sweep.csv"
    assert main(["dep", "--delta", str(-math.copysign(0.52, radius)),
                 "--radius", str(radius), "--sweep", "--out", str(out)]) == 0
    R = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
    assert np.all(np.sign(R) == math.copysign(1.0, radius))
    magnitudes = np.unique(np.abs(R))
    assert np.allclose(magnitudes, np.linspace(max(0.5 * abs(radius), R_EQ_MIN),
                                               min(1.5 * abs(radius), R_EQ_MAX), 7))


def test_dep_sweep_outside_the_radius_range_rejected(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["dep", "--delta", "-0.52", "--radius", "3",
                 "--sweep", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "driftmpc: ConfigError: |R_eq|=3.00 m outside [5, 500] m\n"
    assert not out.exists()


def test_path_export(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["path", "--kind", "clothoid", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "s,X,Y,phi_r,kappa"
    assert main(["path", "--kind", "eight", "--radius", "30",
                 "--out", str(tmp_path / "eight.csv")]) == 0


def test_simulate_and_report(tmp_path, capsys):
    scenario = case_scenario(case=1, mode="ppt", T=4.0)
    sc_file = tmp_path / "scenario.json"
    scenario_to_file(scenario, sc_file)
    out_dir = tmp_path / "run"
    code = main(["simulate", "--scenario", str(sc_file), "--out", str(out_dir)])
    assert code == 0
    trace_file = out_dir / "trace_ppt.csv"
    assert trace_file.exists()
    assert (out_dir / "scenario.json").exists()

    code = main(["report", "--traces", str(trace_file),
                 "--out", str(tmp_path / "rep")])
    assert code == 0
    table = capsys.readouterr().out
    assert "rmse_e" in table


def test_simulate_with_theta(tmp_path, capsys):
    scenario = case_scenario(case=1, mode="apt", T=4.0)
    sc_file = tmp_path / "scenario.json"
    scenario_to_file(scenario, sc_file)
    code = main(["simulate", "--scenario", str(sc_file),
                 "--theta=-0.52,1.0,1.0", "--out", str(tmp_path / "o")])
    assert code == 0


def test_tune_writes_history_and_theta(tmp_path, capsys):
    scenario = case_scenario(case=1, mode="dep", T=5.0)
    sc_file = tmp_path / "scenario.json"
    scenario_to_file(scenario, sc_file)
    out_dir = tmp_path / "tuned"
    code = main(["tune", "--scenario", str(sc_file), "--init", "3",
                 "--budget", "5", "--seed", "1", "--out", str(out_dir)])
    assert code == 0
    hist = (out_dir / "history_dep.csv").read_text().splitlines()
    assert hist[0] == "iteration,delta_eq,w_r,w_e,cost,best_so_far"
    assert len(hist) == 6
    assert (out_dir / "theta_star_dep.csv").exists()


def test_mode_override_on_scenario(tmp_path, capsys):
    scenario = case_scenario(case=1, mode="ppt", T=4.0)
    sc_file = tmp_path / "scenario.json"
    scenario_to_file(scenario, sc_file)
    code = main(["simulate", "--scenario", str(sc_file), "--mode", "dep",
                 "--theta=-0.5,1.0,0.0", "--out", str(tmp_path / "o2")])
    assert code == 0
    assert (tmp_path / "o2" / "trace_dep.csv").exists()


def test_report_restores_failed_trace(tmp_path, capsys):
    theta = (-0.473, 0.993, 2.90)
    expected, _ = run_episode(case_scenario(case=2, mode="almpc"), theta)
    assert expected.failed
    code = main(["simulate", "--case", "2", "--mode", "almpc",
                 "--theta=%g,%g,%g" % theta, "--out", str(tmp_path / "sim")])
    assert code == 1
    trace_file = tmp_path / "sim" / "trace_almpc.csv"
    assert main(["report", "--traces", str(trace_file),
                 "--out", str(tmp_path / "rep")]) == 0
    header, row = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()
    assert header.endswith(",cost_J")
    assert float(row.split(",")[-1]) == CostConfig().j_fail
    restored = EpisodeTrace.from_csv(trace_file)
    assert restored.failed
    assert restored.failure_reason == expected.failure_reason


def test_report_labels_holding_a_comma_or_quote_keep_their_columns(tmp_path, capsys):
    trace, _ = run_episode(case_scenario(case=1, mode="ppt", T=1.0))
    files = [str(tmp_path / name) for name in ("a,b.csv", 'say "hi".csv', "plain.csv")]
    for f in files:
        trace.to_csv(f)
    assert main(["report", "--traces", *files, "--out", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [10] * 4
    assert [r[0] for r in rows] == ["label", "a,b", 'say "hi"', "plain"]
    assert rows[1][1:] == rows[2][1:] == rows[3][1:]
    lines = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()
    assert lines[3].startswith("plain,")  # a label with nothing to quote is as it was


def test_classified_errors_reported_without_traceback(tmp_path, capsys):
    assert main(["dep", "--delta", "0.2", "--radius", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: GripBranchError: ")
    assert "Traceback" not in err

    short, long_ = case_scenario(case=1, T=3.0), case_scenario(case=1, T=4.0)
    files = []
    for name, sc in (("short", short), ("long", long_)):
        trace, _ = run_episode(sc)
        trace.to_csv(tmp_path / f"{name}.csv")
        files.append(str(tmp_path / f"{name}.csv"))
    assert main(["report", "--traces", *files]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: ConfigError: traces have mismatched lengths")


def test_negative_tune_seed_reported_without_traceback(tmp_path, capsys):
    out = tmp_path / "tuned"
    assert main(["tune", "--case", "1", "--mode", "dep", "--seed", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: ConfigError: seed must be a non-negative integer")
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["0", "-1", "1000", "nan"])
def test_path_spacing_outside_the_lobe_rejected(tmp_path, capsys, spacing):
    out = tmp_path / "eight.csv"
    assert main(["path", "--kind", "eight", f"--spacing={spacing}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("driftmpc: ConfigError: spacing")
    assert not out.exists()


def test_non_finite_theta_rejected(tmp_path, capsys):
    assert main(["simulate", "--case", "1", "--mode", "almpc", "--theta=nan,1,0",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("driftmpc: ConfigError: theta")


def test_theta_of_two_values_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--case", "1", "--mode", "almpc", "--theta=1,2",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "theta must be three comma-separated values" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["simulate", "--scenario", "missing.json"],
                                  ["report", "--traces", "missing.csv"]])
def test_missing_input_file_reported_without_traceback(tmp_path, capsys, argv):
    missing = str(tmp_path / argv[-1])
    assert main([*argv[:-1], missing, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: FileNotFoundError: ")
    assert missing in err


@pytest.mark.parametrize("content", [b'{"path": ', b"\x80\xff\x00 scenario"],
                         ids=["truncated-json", "binary"])
def test_scenario_file_that_is_not_json_reported_without_traceback(tmp_path, capsys,
                                                                   content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: ConfigError: ")
    assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("mpc", "Q", [10, 1, 10]), ("mpc", "R", [1.0]), ("mpc", "N_p", 20.5),
    ("mpc", "N_c", 19.0), ("mpc", "Q", [10.0, 1.0, math.nan, 1.0, 1.0]),
    ("limits", "F_max", math.nan), ("plant_params", "m", math.inf),
    ("model_params", "I_z", math.nan), ("apt", "k", math.nan), ("apt", "x_la", math.nan),
    ("cost", "j_fail", math.nan), ("cost", "N_k", 184), ("path", "length", math.nan),
    ("cost", "eps", 0.0), ("model_params", "g", 0.0)])
def test_malformed_scenario_section_reported_without_traceback(tmp_path, capsys,
                                                               section, key, value):
    data = scenario_to_dict(case_scenario(case=1, mode="ppt", T=1.0))
    data[section][key] = value
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(data))  # NaN and Infinity as JSON reads them
    out_dir = tmp_path / "o"
    assert main(["simulate", "--scenario", str(sc_file), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: ConfigError: ") and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_non_finite_scenario_duration_reported_without_traceback(tmp_path, capsys, T):
    data = scenario_to_dict(case_scenario(case=1, mode="ppt", T=1.0))
    data["T"] = T
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(data))  # Infinity and NaN as JSON reads them
    out_dir = tmp_path / "o"
    assert main(["simulate", "--scenario", str(sc_file), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftmpc: ConfigError: T must be finite")
    assert "Traceback" not in err and not out_dir.exists()


def test_mode_choices_follow_the_mode_table():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command")

    def mode_choices(name):
        parser = subcommands.choices[name]
        return next(a.choices for a in parser._actions if a.dest == "mode")

    assert mode_choices("simulate") == list(FREE_COMPONENTS)
    assert mode_choices("tune") == [m for m, free in FREE_COMPONENTS.items() if free]


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_cli_outputs_keep_their_committed_bits(tmp_path):
    """scripts/cli_outputs.sh reruns the CLI, kernel, QP, BO and trace
    digests and compares their SHA-256 with scripts/cli_outputs.sha256,
    which holds for the Python/NumPy/SciPy/OpenBLAS of its first line."""
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    out = tmp_path / "out"
    proc = subprocess.run(["bash", str(SCRIPTS / "cli_outputs.sh"), str(out)],
                          env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return
    listed = tmp_path / "out.sha256"
    want_head = (SCRIPTS / "cli_outputs.sha256").read_text().splitlines()[0]
    if listed.is_file() and listed.read_text().splitlines()[0] != want_head:
        pytest.skip(f"the committed list was made on {want_head[2:]}; this is "
                    f"{listed.read_text().splitlines()[0][2:]}")
    pytest.fail(f"scripts/cli_outputs.sh exited {proc.returncode}:\n{proc.stderr}")
