"""Per-step drift-radius and steering references.

Two radius laws are provided: the adaptive law driven by the look-ahead
error, and the predictive baseline that fits candidate circles to the
upcoming path.  The steering feedback mirrors the base steering angle with
the turn direction and shifts it proportionally to the look-ahead error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import R_EQ_MAX, R_EQ_MIN
from .errors import ConfigError
from .paths import PathTable, Projection, TrackingErrors
from .vehicle import Pose


# signed candidate radii of the predictive baseline: 40 log-spaced
# magnitudes in [5, 500] m, left turns then right
RADIUS_GRID = np.outer([1.0, -1.0], np.geomspace(R_EQ_MIN, R_EQ_MAX, 40)).ravel()
RADIUS_GRID.flags.writeable = False


@dataclass(frozen=True)
class AptParams:
    w_r: float = 1.0              # radius weight [-]
    w_e: float = 0.0              # look-ahead error weight [-]
    x_la: float = 12.0            # look-ahead distance [m]
    k: float = -0.25              # steering feedback gain [rad/m]
    delta_eq_base: float = -0.52  # base steering equilibrium [rad]

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ConfigError(f"APT parameters must be finite, got {vars(self)}")
        if self.x_la <= 0:
            raise ConfigError("look-ahead distance must be positive")


def clamp_radius(R: float, fallback_sign: float) -> float:
    """R with |R| clamped to [R_EQ_MIN, R_EQ_MAX], its sign kept (fallback_sign at 0)."""
    sign = math.copysign(1.0, R) if R != 0.0 else fallback_sign
    return sign * min(max(abs(R), R_EQ_MIN), R_EQ_MAX)


def apt_radius(errors: TrackingErrors, p: AptParams) -> float:
    """Adaptive drift radius: weighted reference radius plus error term.

    The reference radius is capped before the law is applied so straight
    segments (infinite radius) stay finite; the result is clamped to
    [5, 500] m preserving its sign.
    """
    R_r = errors.R_r
    R_r = math.copysign(min(abs(R_r), R_EQ_MAX), R_r) if R_r != 0.0 else R_EQ_MAX
    R_eq = p.w_r * R_r + p.w_e * errors.e_la
    return clamp_radius(R_eq, math.copysign(1.0, R_r))


def steer_feedback(errors: TrackingErrors, p: AptParams, R_eq: float,
                   delta_min: float = -math.inf,
                   delta_max: float = math.inf) -> float:
    """Adjusted steering equilibrium: the base, negated unless R_eq > 0
    (drift switching), plus look-ahead feedback."""
    base = p.delta_eq_base if R_eq > 0 else -p.delta_eq_base
    delta_hat = base + p.k * errors.e_la
    return min(max(delta_hat, delta_min), delta_max)


def ppt_radius(pose: Pose, proj: Projection, path: PathTable, horizon_pts: int,
               radius_grid, beta: float = 0.0, stride: int = 1) -> float:
    """Predictive baseline: best circle through the vehicle fitting the path.

    Each candidate circle is tangent to the vehicle's course at its current
    position.  The candidate minimizing the summed squared radial offsets
    to the horizon_pts path samples after the foot point proj (taken every
    `stride` samples, so the window can match the prediction horizon's
    travel) wins.
    """
    if horizon_pts < 3:
        raise ConfigError("need at least 3 fit points")
    course = pose.phi + beta
    sin_c, cos_c = math.sin(course), math.cos(course)
    idx = proj.index + stride * np.arange(1, horizon_pts + 1)
    idx = idx[idx < len(path)]
    if len(idx) < 3:  # every sample after the foot point, at least the last three
        idx = np.arange(max(min(proj.index, len(path) - 4), 0) + 1, len(path))
    R = np.asarray(radius_grid, dtype=float)[:, None]
    offsets = np.hypot(path.x[idx] - (pose.X - R * sin_c),
                       path.y[idx] - (pose.Y + R * cos_c)) - np.abs(R)
    # stacked (1, k) @ (k, 1) products add like one vector dot per radius, so
    # the costs match a per-radius loop bit for bit; einsum adds in another order
    cost = (offsets[:, None, :] @ offsets[:, :, None]).ravel()
    best_R = float(R[np.argmin(cost), 0])
    return clamp_radius(best_R, math.copysign(1.0, proj.R_r))
