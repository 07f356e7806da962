import dataclasses
import json
import math

import numpy as np
import pytest

from driftmpc import harness
from driftmpc import mpc as mpc_module
from driftmpc.bo import BoResult
from driftmpc.errors import ConfigError, DegenerateSpeedError, OffPathError
from driftmpc.harness import (E_FAIL, FREE_COMPONENTS, TRACE_COLUMNS, CostConfig,
                              EightSpec, EpisodeTrace, Scenario, TuneResult,
                              case_scenario, metrics_from_trace, report,
                              run_episode, scenario_from_dict, scenario_from_file,
                              scenario_to_dict, scenario_to_file, tune,
                              tune_objective)
from driftmpc.mpc import linearize
from driftmpc.paths import ClothoidSpec
from driftmpc.qp import solve_qp
from driftmpc.tracking import AptParams

CIRCLE = ClothoidSpec(kappa=1 / 40, kappa_prime=0.0, length=500.0)


@pytest.fixture(scope="module")
def hold_scenario():
    # constant-radius circle, adaptive law with neutral weights and the
    # steering feedback disabled: a pure equilibrium-hold configuration
    return case_scenario(case=1, mode="apt", path=CIRCLE,
                         apt=AptParams(w_r=1.0, w_e=0.0, k=0.0))


class TestRunEpisode:
    def test_uncertified_qp_answer_fails_the_episode(self, monkeypatch):
        def perturbed(H, g, A, b, **kwargs):
            res = solve_qp(H, g, A, b, **kwargs)
            res.x = res.x + 1e-3
            return res

        monkeypatch.setattr(mpc_module, "solve_qp", perturbed)
        trace, m = run_episode(case_scenario(case=1, mode="ppt", T=1.0))
        assert trace.failed and len(trace) == 0
        assert trace.failure_reason.startswith("controller failure at step 0")
        assert "KKT certificate" in trace.failure_reason
        assert m.cost_J == CostConfig().j_fail

    @pytest.mark.parametrize("layer, error, rows, reason", [
        ("project", OffPathError, 3, "projection lost at step 3"),
        ("step", DegenerateSpeedError, 4,
         "plant left the valid regime at step 3: injected")])
    def test_layer_failure_ends_the_episode(self, monkeypatch, layer, error,
                                            rows, reason):
        """The fourth call of the layer raises: a projection at the top of
        step 3 leaves three rows, a plant step at its end four."""
        real, calls = getattr(harness, layer), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise error("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, layer, failing)
        trace, m = run_episode(case_scenario(case=1, mode="ppt", T=1.0))
        assert trace.failed and len(trace) == rows
        assert trace.failure_reason == reason
        assert m.cost_J == CostConfig().j_fail

    @pytest.mark.parametrize("case, mode, theta, steps, calls", [
        (1, "ppt", None, 184, 20), (2, "almpc", (-0.473, 0.993, 2.90), 50, 14)])
    def test_linearizes_once_per_equilibrium(self, monkeypatch, case, mode,
                                             theta, steps, calls):
        """The radius grid and the fixed base steering repeat equilibria
        bit for bit, and a failed solve holds the previous one; each such
        step reuses the model of the equilibrium before it."""
        seen = []

        def counted(dep, *args):
            seen.append(dep)
            return linearize(dep, *args)

        monkeypatch.setattr(harness, "linearize", counted)
        trace, _ = run_episode(case_scenario(case=case, mode=mode), theta)
        assert len(trace) == steps and len(seen) == calls
        assert all(a != b for a, b in zip(seen, seen[1:]))
        held = np.column_stack([trace.columns[c] for c in
                                ("V_eq", "beta_eq", "r_eq", "delta_eq_hat", "F_xr_eq")])
        assert calls == 1 + np.any(held[1:] != held[:-1], axis=1).sum()

    def test_nominal_hold_drift_rmse(self, hold_scenario):
        trace, m = run_episode(hold_scenario, (-0.52, 1.0, 0.0))
        assert m.rmse_V < 1e-3
        assert m.rmse_beta < 1e-3
        assert m.rmse_r < 1e-3
        assert m.rmse_delta < 1e-3
        assert m.rmse_F < 1e-1

    def test_ppt_completes_stock_path(self):
        sc = case_scenario(case=1, mode="ppt")
        trace, m = run_episode(sc)
        assert not trace.failed
        assert len(trace) == sc.n_steps
        assert m.rmse_e < 1.0
        assert np.all(trace.columns["dep_converged"] == 1.0)

    def test_learned_weights_track_tightly(self):
        # full-learning mode at representative learned values for this
        # plant: the whole episode completes well inside the meter band
        sc = case_scenario(case=1, mode="almpc")
        trace, m = run_episode(sc, (-0.49, 0.99, 3.0))
        assert not trace.failed
        assert len(trace) == sc.n_steps
        assert m.max_abs_e < 1.0

    def test_mode_requires_theta(self):
        sc = case_scenario(case=1, mode="apt")
        with pytest.raises(ConfigError):
            run_episode(sc, None)

    @pytest.mark.parametrize("theta", [(-0.49, 0.99), (-0.49, 0.99, 3.0, 0.0)])
    def test_theta_of_the_wrong_length_rejected(self, theta):
        sc = case_scenario(case=1, mode="almpc")
        with pytest.raises(ConfigError, match=r"^theta must have 3 components "
                                              r"\(delta_eq, w_r, w_e\)$"):
            run_episode(sc, theta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, bad):
        sc = case_scenario(case=1, mode="almpc")
        for k in range(3):
            theta = [-0.49, 0.99, 3.0]
            theta[k] = bad
            with pytest.raises(ConfigError, match="finite"):
                run_episode(sc, theta)

    def test_ppt_trace_independent_of_weights(self):
        sc = case_scenario(case=1, mode="ppt", T=3.0)
        t1, _ = run_episode(sc, (-0.52, 1.0, 0.0))
        t2, _ = run_episode(sc, (-0.52, 1.7, 2.5))
        assert np.array_equal(t1.columns["R_eq"], t2.columns["R_eq"])
        assert np.array_equal(t1.columns["delta_cmd"], t2.columns["delta_cmd"])

    def test_dep_mode_radius_independent_of_weights(self):
        sc = case_scenario(case=1, mode="dep", T=3.0)
        t1, _ = run_episode(sc, (-0.48, 0.2, -3.0))
        t2, _ = run_episode(sc, (-0.48, 1.9, 4.0))
        assert np.array_equal(t1.columns["R_eq"], t2.columns["R_eq"])

    def test_apt_radius_depends_on_weights(self):
        sc = case_scenario(case=1, mode="apt", T=3.0)
        t1, _ = run_episode(sc, (-0.52, 1.0, 0.5))
        t2, _ = run_episode(sc, (-0.52, 1.0, 2.0))
        assert not np.array_equal(t1.columns["R_eq"], t2.columns["R_eq"])

    def test_determinism_bit_for_bit(self, tmp_path):
        sc = case_scenario(case=2, mode="apt", T=5.0)
        t1, _ = run_episode(sc, (-0.52, 0.9, 2.0))
        t2, _ = run_episode(sc, (-0.52, 0.9, 2.0))
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(f1)
        t2.to_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_inputs_respect_limits_posthoc(self, tmp_path):
        sc = case_scenario(case=1, mode="ppt", T=8.0)
        trace, _ = run_episode(sc)
        f = tmp_path / "t.csv"
        trace.to_csv(f)
        loaded = EpisodeTrace.from_csv(f)
        d = loaded.columns["delta_cmd"]
        F = loaded.columns["F_xr_cmd"]
        lim = sc.limits
        assert np.all(d >= lim.delta_min - 1e-9) and np.all(d <= lim.delta_max + 1e-9)
        assert np.all(F >= lim.F_min - 1e-6) and np.all(F <= lim.F_max + 1e-6)
        assert np.all(np.abs(np.diff(d)) <= lim.d_delta_lim + 1e-9)
        assert np.all(np.abs(np.diff(F)) <= lim.d_F_lim + 1e-6)

    def test_energy_sanity(self):
        sc = case_scenario(case=1, mode="ppt")
        trace, _ = run_episode(sc)
        V = trace.columns["V"]
        assert np.all(V >= 0.1) and np.all(V <= 40.0)

    def test_failure_classified_and_penalized(self):
        # strongly positive feedback gain destabilizes this plant
        sc = case_scenario(case=2, mode="apt",
                           apt=AptParams(w_r=1.0, w_e=0.0, k=0.6))
        trace, m = run_episode(sc, (-0.52, 1.0, -4.0))
        assert trace.failed
        assert trace.failure_reason != ""
        assert m.cost_J == sc.cost.j_fail

    def test_eight_path_scenario_runs(self):
        sc = Scenario(path=EightSpec(radius=40.0), mode="apt", T=10.0)
        trace, m = run_episode(sc, (-0.52, 1.0, 2.0))
        assert len(trace) > 50  # healthy on the first lobe
        assert np.isfinite(m.cost_J)

    @pytest.mark.parametrize("kappa", [0.3, 0.001])
    def test_initial_radius_is_clamped(self, kappa):
        """The path's first radius, 3.33 m or 1000 m, lies outside [5, 500]
        m; the episode starts at the clamped radius instead of raising."""
        sc = case_scenario(case=1, mode="ppt", T=2.0, path=ClothoidSpec(kappa=kappa))
        trace, _ = run_episode(sc)
        if kappa == 0.3:  # drifts from R0 = 5 m
            assert not trace.failed and len(trace) == 20
        else:  # 500 m, as a straight start (kappa = 0)
            assert trace.failure_reason == "speed out of range at step 0"

    def test_timestamps_uniform(self):
        sc = case_scenario(case=1, mode="ppt", T=4.0)
        trace, _ = run_episode(sc)
        t = trace.columns["t"]
        assert np.allclose(np.diff(t), sc.mpc.dT)


class TestModeTable:
    THETA = (-0.49, 0.99, 3.6)

    @pytest.mark.parametrize("mode", list(FREE_COMPONENTS))
    def test_trace_moves_exactly_with_free_components(self, mode):
        sc = case_scenario(case=1, mode=mode, T=1.0)
        base, _ = run_episode(sc, self.THETA)
        assert len(base) == 10 and not base.failed
        for comp, shift in enumerate((0.03, 0.1, 0.5)):
            theta = list(self.THETA)
            theta[comp] += shift
            moved, _ = run_episode(sc, theta)
            same = all(np.array_equal(base.columns[c], moved.columns[c])
                       for c in TRACE_COLUMNS)
            assert same == (comp not in FREE_COMPONENTS[mode]), (mode, comp)


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        sc = case_scenario(case=1, mode="ppt", T=3.0)
        trace, _ = run_episode(sc)
        f = tmp_path / "trace.csv"
        trace.to_csv(f)
        loaded = EpisodeTrace.from_csv(f)
        for name, col in trace.columns.items():
            np.testing.assert_allclose(loaded.columns[name], col, rtol=1e-11,
                                       err_msg=name)

    def test_metrics_reproduce_from_csv(self, tmp_path):
        sc = case_scenario(case=1, mode="ppt", T=6.0)
        trace, metrics = run_episode(sc)
        f = tmp_path / "trace.csv"
        trace.to_csv(f)
        loaded = EpisodeTrace.from_csv(f)
        again = metrics_from_trace(loaded, sc.cost)
        for fld in dataclasses.fields(metrics):
            a, b = getattr(metrics, fld.name), getattr(again, fld.name)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), fld.name


    def test_file_without_trace_columns_rejected(self, tmp_path):
        f = tmp_path / "path.csv"
        ClothoidSpec(length=2.0).build().to_csv(f)
        with pytest.raises(ConfigError, match=r"path\.csv: .*no column 't'"):
            EpisodeTrace.from_csv(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "trace.csv"
        _hand_trace([np.arange(len(TRACE_COLUMNS))] * 3).to_csv(f)
        lines = f.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 2)[0]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"trace\.csv: .*Line #3 "):
            EpisodeTrace.from_csv(f)

    def test_file_that_is_not_text_rejected(self, tmp_path):
        f = tmp_path / "bin.csv"
        f.write_bytes(b"\xff\xfet\x00,\x00")
        with pytest.raises(ConfigError, match=r"bin\.csv: not a trace, not text"):
            EpisodeTrace.from_csv(f)


def _hand_trace(rows, failed=False, reason=""):
    table = np.array(rows, float).reshape(-1, len(TRACE_COLUMNS))
    return EpisodeTrace(columns=dict(zip(TRACE_COLUMNS, table.T)),
                        failed=failed, failure_reason=reason)


class TestOutputBytes:
    """Exact bytes of the trace, history and metrics writers."""
    HEADER = ("t,X,Y,phi,V,beta,r,delta_cmd,F_xr_cmd,e,d_phi,d_psi,e_la,R_eq,"
              "delta_eq_hat,V_eq,beta_eq,r_eq,F_xr_eq,mpc_cost,dep_converged\n")

    def test_two_row_trace(self, tmp_path):
        second = [-1 / 3] * len(TRACE_COLUMNS)
        second[:3] = [0.1, 123456.789012345, 1e-20]
        second[-1] = -0.0
        _hand_trace([range(len(TRACE_COLUMNS)), second]).to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == (
            self.HEADER
            + "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20\n"
            + "0.1,123456.789012,1e-20," + "-0.333333333333," * 17 + "-0\n")

    def test_empty_and_failed_traces(self, tmp_path):
        f = tmp_path / "t.csv"
        _hand_trace([]).to_csv(f)
        assert f.read_text() == self.HEADER
        _hand_trace([], failed=True, reason="lost\nat step 0").to_csv(f)
        assert f.read_text() == self.HEADER + "# failed: lost at step 0\n"
        loaded = EpisodeTrace.from_csv(f)
        assert len(loaded) == 0
        assert loaded.failed and loaded.failure_reason == "lost at step 0"

    def test_three_row_history(self, tmp_path):
        thetas = np.array([[-0.52, 1.0, 0.0], [-0.5, 0.25, 1 / 3], [0.4, 2.0, -5.0]])
        costs = np.array([1.5, 10.0, -2.0625])
        bo = BoResult(theta_star=thetas[2], best_cost=-2.0625, thetas=thetas,
                      costs=costs, best_so_far=np.array([1.5, 1.5, -2.0625]))
        TuneResult(theta_star=thetas[2], bo=bo,
                   history_thetas=thetas).history_csv(tmp_path / "h.csv")
        assert (tmp_path / "h.csv").read_text() == (
            "iteration,delta_eq,w_r,w_e,cost,best_so_far\n"
            "0,-0.52,1,0,1.5,1.5\n"
            "1,-0.5,0.25,0.333333333333,10,1.5\n"
            "2,0.4,2,-5,-2.0625,-2.0625\n")

    def test_labelled_metrics(self, tmp_path):
        row = np.zeros(len(TRACE_COLUMNS))
        trace = _hand_trace([row, row], failed=True, reason="x")
        trace.columns["e"][:] = [3.0, -4.0]
        trace.columns["V"][:] = [1.0, 1.0]
        report([trace], ["run"], out_dir=tmp_path)
        assert (tmp_path / "metrics.csv").read_text() == (
            "label,rmse_e,rmse_dpsi,rmse_V,rmse_beta,rmse_r,rmse_delta,"
            "rmse_F,max_abs_e,cost_J\n"
            "run,3.53553390593,0,1,0,0,0,0,4,10\n")


class TestReport:
    def test_single_trace_table(self):
        sc = case_scenario(case=1, mode="ppt", T=3.0)
        trace, _ = run_episode(sc)
        table, reports = report([trace], ["baseline"])
        lines = table.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("baseline")
        assert len(reports) == 1

    def test_identical_traces_identical_rows(self):
        sc = case_scenario(case=1, mode="ppt", T=3.0)
        t1, _ = run_episode(sc)
        t2, _ = run_episode(sc)
        table, _ = report([t1, t2], ["a", "b"])
        rows = table.splitlines()[1:]
        assert rows[0].replace("a", "x", 1) == rows[1].replace("b", "x", 1)

    def test_mismatched_lengths_rejected(self):
        sc1 = case_scenario(case=1, mode="ppt", T=3.0)
        sc2 = case_scenario(case=1, mode="ppt", T=4.0)
        t1, _ = run_episode(sc1)
        t2, _ = run_episode(sc2)
        with pytest.raises(ConfigError):
            report([t1, t2], ["a", "b"])

    def test_one_label_per_trace(self):
        trace = EpisodeTrace({c: np.zeros(2) for c in TRACE_COLUMNS})
        with pytest.raises(ConfigError, match="one label per trace"):
            report([trace, trace], ["a"])

    def test_csv_bundle(self, tmp_path):
        sc = case_scenario(case=1, mode="ppt", T=3.0)
        trace, _ = run_episode(sc)
        report([trace], ["run"], out_dir=tmp_path)
        assert [f.name for f in tmp_path.iterdir()] == ["metrics.csv"]


class TestScenarioIo:
    def test_round_trip(self, tmp_path):
        sc = case_scenario(case=2, mode="almpc", T=6.0)
        f = tmp_path / "scenario.json"
        scenario_to_file(sc, f)
        loaded = scenario_from_file(f)
        assert loaded == sc

    def test_seed_of_an_older_file_is_ignored(self):
        # the tuning seed comes from tune(seed=...) / --seed only
        sc = case_scenario(case=1, mode="almpc", T=6.0)
        data = scenario_to_dict(sc)
        assert "seed" not in data
        assert scenario_from_dict({**data, "seed": 11}) == sc

    def test_eight_round_trip(self, tmp_path):
        sc = Scenario(path=EightSpec(radius=35.0), mode="ppt", T=5.0)
        f = tmp_path / "eight.json"
        scenario_to_file(sc, f)
        assert scenario_from_file(f) == sc

    def test_malformed_rejected(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"mode": "ppt"}')
        with pytest.raises(ConfigError):
            scenario_from_file(f)

    @pytest.mark.parametrize("content", [b'{"path": ', b"\x80\xff\x00 scenario"],
                             ids=["truncated-json", "binary"])
    def test_file_that_is_not_json_rejected(self, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        with pytest.raises(ConfigError, match="bad.json"):
            scenario_from_file(f)

    @pytest.mark.parametrize("mutate", [
        lambda d: d["limits"].update(d_F_max=1.0),
        lambda d: d["path"].update(kind="spiral"),
        lambda d: d.update(apt=[1.0, 0.0]),
        lambda d: d.pop("cost"),
    ], ids=["unknown-key", "unknown-path-kind", "section-not-a-dict",
            "missing-section"])
    def test_malformed_section_rejected(self, mutate):
        data = json.loads(json.dumps(scenario_to_dict(case_scenario(case=1))))
        mutate(data)
        with pytest.raises(ConfigError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, T):
        data = json.loads(json.dumps(scenario_to_dict(case_scenario(case=1))))
        data["T"] = T
        with pytest.raises(ConfigError, match="^T must be finite"):
            scenario_from_dict(data)
        with pytest.raises(ConfigError, match="^T must be finite"):
            case_scenario(case=1, T=T)

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError, match="case must be 1 or 2"):
            case_scenario(3)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            case_scenario(case=1, mode="zigzag")

    def test_duration_must_align(self):
        with pytest.raises(ConfigError):
            case_scenario(case=1, mode="ppt", T=1.234)

    def test_circle_fit_modes_need_three_horizon_points(self):
        # ppt_radius fits N_p path points; it raised at step 0 of the episode.
        # The adaptive-law modes never call it and run a one-step horizon
        for n_p in (1, 2):
            mpc_cfg = mpc_module.MpcConfig(N_p=n_p, N_c=1)
            for mode in ("ppt", "dep"):
                with pytest.raises(ConfigError, match="N_p >= 3"):
                    case_scenario(1, mode, mpc=mpc_cfg)
                data = json.loads(json.dumps(scenario_to_dict(case_scenario(1, mode))))
                data["mpc"].update(N_p=n_p, N_c=1)
                with pytest.raises(ConfigError, match="N_p >= 3"):
                    scenario_from_dict(data)
        for mode in ("apt", "almpc"):
            sc = case_scenario(1, mode, mpc=mpc_module.MpcConfig(N_p=1, N_c=1))
            trace, _ = run_episode(sc, (sc.apt.delta_eq_base, sc.apt.w_r, sc.apt.w_e))
            assert not trace.failed and len(trace) == sc.n_steps == 184


class TestTune:
    def test_smoke_and_history(self):
        sc = case_scenario(case=1, mode="dep", T=6.0)
        res = tune(sc, init=3, budget=5, seed=5)
        assert len(res.bo.costs) == 5
        assert np.all(np.diff(res.bo.best_so_far) <= 1e-15)
        assert res.history_thetas.shape == (5, 3)
        # pinned components stay at the defaults in dep mode
        assert np.allclose(res.history_thetas[:, 1], 1.0)
        assert np.allclose(res.history_thetas[:, 2], 0.0)

    def test_pinned_weights_follow_scenario(self):
        sc = case_scenario(case=1, mode="dep", T=3.0,
                           apt=AptParams(w_r=0.8, w_e=0.5))
        res = tune(sc, init=2, budget=3, seed=5)
        assert np.all(res.history_thetas[:, 1] == 0.8)
        assert np.all(res.history_thetas[:, 2] == 0.5)

    def test_history_csv_deterministic(self, tmp_path):
        sc = case_scenario(case=1, mode="dep", T=6.0)
        f1, f2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        tune(sc, init=3, budget=5, seed=7).history_csv(f1)
        tune(sc, init=3, budget=5, seed=7).history_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("warm", [[-0.5, 1.0], [-0.5, 1.0, 2.0, 0.0]])
    def test_extra_init_must_be_three_vectors(self, warm):
        sc = case_scenario(case=1, mode="dep", T=1.0)
        with pytest.raises(ConfigError, match="3-vectors"):
            tune(sc, init=2, budget=3, extra_init=[warm])

    def test_ppt_mode_not_tunable(self):
        sc = case_scenario(case=1, mode="ppt")
        with pytest.raises(ConfigError):
            tune(sc, init=3, budget=5)


def _completed_cost_bound(cfg: CostConfig) -> float:
    """Upper bound on episode_cost of a completed episode: |e| < E_FAIL,
    |d_psi| = |d_phi + beta| <= 2 pi, and a mean increment of at most
    E_FAIL (the mean of diff(|e|) over at least two steps)."""
    barrier = math.log(10.0 * (E_FAIL - cfg.e_max)) - math.log(cfg.eps)
    return math.log(E_FAIL + cfg.lam * 2.0 * math.pi + barrier + E_FAIL)


class TestTuneObjective:
    def test_failed_episode_cost_graded_by_steps(self):
        sc = case_scenario()
        cfg, n = sc.cost, sc.n_steps
        traces = [EpisodeTrace({c: np.zeros(k) for c in TRACE_COLUMNS}, failed=True)
                  for k in range(n + 1)]
        vals = np.array([tune_objective(t, metrics_from_trace(t, cfg), sc)
                         for t in traces])
        assert vals[0] == cfg.j_fail
        assert np.all(np.diff(vals) < 0.0)
        assert vals.min() > _completed_cost_bound(cfg)

    def test_failure_graded_against_the_episode_steps(self):
        sc = case_scenario(case=1, mode="almpc", T=4.0)
        j_fail = sc.cost.j_fail
        for k in (0, 1, 20, 39, 40):
            trace = EpisodeTrace({c: np.zeros(k) for c in TRACE_COLUMNS}, failed=True)
            got = tune_objective(trace, metrics_from_trace(trace, sc.cost), sc)
            assert math.isclose(got, j_fail * (1 - 0.5 * k / 40), rel_tol=1e-15)

    def test_longer_survivor_scores_lower_on_case2(self):
        sc = case_scenario(case=2, mode="almpc")
        early, m_early = run_episode(sc, (-0.3, 1.5, 4.0))
        # the case-1 optimum survives longer on the low-friction plant
        late, m_late = run_episode(sc, (-0.473, 0.993, 2.90))
        assert early.failed and late.failed
        assert 0 < len(early) < len(late)
        assert m_early.cost_J == m_late.cost_J == sc.cost.j_fail
        j_early = tune_objective(early, m_early, sc)
        j_late = tune_objective(late, m_late, sc)
        assert j_late < j_early < sc.cost.j_fail

    def test_completed_episode_keeps_cost_j(self):
        sc = case_scenario(case=2, mode="almpc")
        trace, m = run_episode(sc, (-0.5, 0.3, -3.0))
        assert not trace.failed
        assert tune_objective(trace, m, sc) == m.cost_J
        assert m.cost_J < _completed_cost_bound(sc.cost)
