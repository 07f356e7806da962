"""Reference-path geometry: clothoid and figure-eight specs and tables,
projection, and the tracking-error quantities fed to the radius/steering laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvout import write_csv
from .errors import ConfigError, OffPathError
from .vehicle import Pose, wrap_angle

OFF_PATH_DISTANCE = 50.0  # m, projection guard
WINDOW_BACK, WINDOW_FWD = 40, 600  # samples searched around a hint index
SPACING = 0.25  # m, default sample interval of a path table


@dataclass(frozen=True)
class ClothoidSpec:
    x0: float = 0.0          # start x [m]
    y0: float = 0.0          # start y [m]
    theta0: float = 0.0      # initial tangent angle [rad]
    kappa: float = 0.025     # initial curvature [1/m]
    kappa_prime: float = 1.0 / 12000.0  # curvature rate [1/m^2]
    length: float = 360.0    # total arc length [m]

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ConfigError(f"clothoid parameters must be finite, got {vars(self)}")
        if self.length <= 0:
            raise ConfigError("clothoid length must be positive")

    def _tangent_angle(self, s: np.ndarray) -> np.ndarray:
        return self.theta0 + self.kappa * s + 0.5 * self.kappa_prime * s * s

    def build(self, spacing: float = SPACING) -> "PathTable":
        """Sample the clothoid by integrating cos/sin of its tangent angle.

        Each sample interval is integrated with composite Simpson on four
        panels, which keeps position error far below the projection
        refinement scale for sub-meter spacing.
        """
        if not 0 < spacing <= self.length:
            raise ConfigError("spacing must be in (0, length]")
        n = int(round(self.length / spacing)) + 1
        s = np.arange(n) * spacing
        # tangent angles at the 5 nodes of every interval, Simpson weights
        # for 4 panels per interval
        psi = self._tangent_angle(s[:-1, None] + np.linspace(0.0, spacing, 5))
        weights = (np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * (spacing / 4.0) / 3.0)[:, None]
        # stacked (1, 5) @ (5, 1) products add like one vector dot per
        # interval; gemv and einsum add in another order.  cumsum adds the
        # increments one after another from the start point
        x = np.cumsum(np.append(self.x0, (np.cos(psi)[:, None, :] @ weights).ravel()))
        y = np.cumsum(np.append(self.y0, (np.sin(psi)[:, None, :] @ weights).ravel()))
        phi = self._tangent_angle(s)
        kappa = self.kappa + self.kappa_prime * s
        return PathTable(s=s, x=x, y=y, phi=phi, kappa=kappa, spacing=spacing)


@dataclass(frozen=True)
class EightSpec:
    radius: float = 40.0  # lobe radius [m]

    def __post_init__(self):
        if not math.isfinite(self.radius):
            raise ConfigError(f"radius must be finite, got {self.radius}")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")

    def build(self, spacing: float = SPACING) -> "PathTable":
        """Figure-eight: two tangent circles of opposite curvature.

        Starts at the crossing point heading +x, runs the left (positive
        curvature) lobe as a full circle, then the right lobe.  Total length
        is 4*pi*radius and the curvature column is +-1/radius.
        """
        radius = self.radius
        lobe_len = 2.0 * math.pi * radius
        if not 0 < spacing <= lobe_len:
            raise ConfigError("spacing must be in (0, 2*pi*radius]")
        n_lobe = int(round(lobe_len / spacing))
        k = np.arange(2 * n_lobe + 1)
        s = k * spacing
        # left lobe: center (0, +R), counter-clockwise from angle -pi/2;
        # right lobe, from sample n_lobe on: center (0, -R), clockwise from +pi/2
        sign = np.where(k < n_lobe, 1.0, -1.0)
        s_lobe = s - np.where(k < n_lobe, 0.0, lobe_len)
        ang = sign * (-0.5 * math.pi + s_lobe / radius)
        x = radius * np.cos(ang)
        y = sign * radius + radius * np.sin(ang)
        phi = sign * (s_lobe / radius)
        kappa = sign / radius
        return PathTable(s=s, x=x, y=y, phi=phi, kappa=kappa, spacing=spacing)


PATH_KINDS = {"clothoid": ClothoidSpec, "eight": EightSpec}


@dataclass(frozen=True)
class PathTable:
    """Uniformly sampled path: arc length, position, tangent, curvature."""
    s: np.ndarray       # arc length [m], strictly increasing, uniform
    x: np.ndarray       # [m]
    y: np.ndarray       # [m]
    phi: np.ndarray     # tangent angle [rad], NOT wrapped (monotone-ish)
    kappa: np.ndarray   # curvature [1/m]
    spacing: float      # sample interval [m]

    def __len__(self) -> int:
        return len(self.s)

    def to_csv(self, path) -> None:
        write_csv(path, ["s", "X", "Y", "phi_r", "kappa"],
                  np.column_stack([self.s, self.x, self.y, self.phi, self.kappa]))


@dataclass(frozen=True)
class TrackingErrors:
    e: float      # signed lateral error, positive left of tangent [m]
    d_phi: float  # heading error [rad]
    d_psi: float  # course error = d_phi + beta [rad]
    e_la: float   # look-ahead error [m]
    R_r: float    # local reference radius 1/kappa, sign preserved [m]


@dataclass(frozen=True)
class Projection:
    index: int    # nearest sample index
    e: float      # signed lateral error [m]
    phi_r: float  # reference tangent angle at the foot point [rad]
    R_r: float    # signed reference radius [m]


def project(pose: Pose, path: PathTable,
            hint_index: int | None = None) -> Projection:
    """Project a pose onto the path: nearest sample plus quadratic refinement.

    The lateral error is signed positive when the pose lies left of the
    local path tangent.  With hint_index the search is restricted to a
    window around the previous foot point, which keeps progress monotone on
    self-intersecting paths (the figure-eight crossing is ambiguous to a
    purely global nearest-point search).
    """
    dx = path.x - pose.X
    dy = path.y - pose.Y
    d2 = dx * dx + dy * dy
    if hint_index is not None:
        lo = max(hint_index - WINDOW_BACK, 0)
        hi = min(hint_index + WINDOW_FWD, len(path) - 1)
        i = lo + int(np.argmin(d2[lo:hi + 1]))
    else:
        i = int(np.argmin(d2))
    dist = math.sqrt(float(d2[i]))
    if dist > OFF_PATH_DISTANCE:
        raise OffPathError(f"pose is {dist:.1f} m from the nearest sample")
    # quadratic fit through the three neighbouring squared distances
    t = 0.0
    if 0 < i < len(path) - 1:
        y0, y1, y2 = float(d2[i - 1]), float(d2[i]), float(d2[i + 1])
        denom = y0 - 2.0 * y1 + y2
        if abs(denom) > 1e-18:
            t = max(-1.0, min(1.0, 0.5 * (y0 - y2) / denom))
    if t >= 0.0:
        j, w = i, t
    else:
        j, w = i - 1, 1.0 + t
    if j >= len(path) - 1:
        j, w = len(path) - 2, 1.0
    rx = path.x[j] * (1.0 - w) + path.x[j + 1] * w
    ry = path.y[j] * (1.0 - w) + path.y[j + 1] * w
    rphi = path.phi[j] + wrap_angle(path.phi[j + 1] - path.phi[j]) * w
    rkap = path.kappa[j] * (1.0 - w) + path.kappa[j + 1] * w
    e = -(pose.X - rx) * math.sin(rphi) + (pose.Y - ry) * math.cos(rphi)
    if rkap != 0.0:
        R_r = 1.0 / rkap
    else:
        R_r = math.inf
    return Projection(index=i, e=float(e), phi_r=float(wrap_angle(rphi)),
                      R_r=float(R_r))


def errors_from_projection(proj: Projection, pose: Pose, beta: float,
                           x_la: float) -> TrackingErrors:
    d_phi = wrap_angle(pose.phi - proj.phi_r)
    d_psi = d_phi + beta
    e_la = proj.e + x_la * math.sin(d_psi)
    return TrackingErrors(e=proj.e, d_phi=d_phi, d_psi=d_psi, e_la=e_la,
                          R_r=proj.R_r)
