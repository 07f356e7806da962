"""Drift-vehicle control: single-track drift dynamics, drift-equilibrium
solving, linearized MPC, adaptive path tracking, and a Bayesian-optimization
supervisor that learns the steering equilibrium and tracking-law weights
from closed-loop episode cost.
"""
from .bo import BoResult, ThetaBounds, acquire_next, bo_loop, expected_improvement
from .equilibrium import DriftEquilibrium, dep_sweep, solve_dep
from .gp import GpDataset, GpModel, gp_fit, gp_predict
from .harness import (CostConfig, EpisodeTrace, MetricsReport, Scenario, TuneResult,
                      case_scenario, episode_cost, metrics_from_trace, report,
                      run_episode, scenario_from_file, scenario_to_file, tune,
                      tune_objective)
from .mpc import (AugmentedModel, LinearModel, MpcConfig, MpcSolution, augment,
                  condense, linearize, solve_mpc)
from .paths import ClothoidSpec, EightSpec, PathTable, TrackingErrors, project
from .qp import QpResult, solve_qp
from .tracking import RADIUS_GRID, AptParams, apt_radius, ppt_radius, steer_feedback
from .vehicle import (ControlInput, ControlLimits, Pose, VehicleParams,
                      VehicleState, dynamics, step, wrap_angle)

__version__ = "0.1.0"
