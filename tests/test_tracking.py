import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmpc.equilibrium import R_EQ_MAX, R_EQ_MIN
from driftmpc.errors import ConfigError
from driftmpc.paths import ClothoidSpec, EightSpec, TrackingErrors, project
from driftmpc.tracking import (RADIUS_GRID, AptParams, apt_radius, ppt_radius,
                               steer_feedback)
from driftmpc.vehicle import Pose


def radius_grid(n):
    """Signed candidate radii: n log-spaced magnitudes in [5, 500] m, left then right."""
    mags = np.geomspace(R_EQ_MIN, R_EQ_MAX, n)
    return np.concatenate([mags, -mags])


def test_radius_grid_is_a_read_only_constant():
    assert RADIUS_GRID.tobytes() == radius_grid(40).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        RADIUS_GRID[0] = 1.0


def errs(e=0.0, d_phi=0.0, d_psi=0.0, e_la=0.0, R_r=40.0):
    return TrackingErrors(e=e, d_phi=d_phi, d_psi=d_psi, e_la=e_la, R_r=R_r)


class TestAptRadius:
    def test_on_path_identity(self):
        p = AptParams(w_r=1.0, w_e=0.5)
        assert apt_radius(errs(e_la=0.0, R_r=40.0), p) == 40.0

    def test_learned_weights_fixture(self):
        p = AptParams(w_r=1.026, w_e=0.945)
        R = apt_radius(errs(e_la=0.5, R_r=40.0), p)
        assert math.isclose(R, 41.5125, abs_tol=1e-12)

    def test_zero_error_weight(self):
        p = AptParams(w_r=1.3, w_e=0.0)
        for e_la in (-3.0, 0.0, 3.0):
            assert apt_radius(errs(e_la=e_la, R_r=40.0), p) == 52.0

    def test_clamp_preserves_sign(self):
        p = AptParams(w_r=1.0, w_e=0.0)
        assert apt_radius(errs(R_r=3.0), p) == 5.0
        assert apt_radius(errs(R_r=-3.0), p) == -5.0
        assert apt_radius(errs(R_r=900.0), p) == 500.0
        assert apt_radius(errs(R_r=-900.0), p) == -500.0

    def test_infinite_reference_radius_capped(self):
        p = AptParams(w_r=1.0, w_e=1.0)
        R = apt_radius(errs(e_la=2.0, R_r=math.inf), p)
        assert R == 500.0

    def test_affine_in_lookahead_error(self):
        p = AptParams(w_r=0.9, w_e=1.7)
        vals = [apt_radius(errs(e_la=x, R_r=30.0), p) for x in (-1.0, 0.0, 1.0)]
        assert math.isclose(vals[2] - vals[1], vals[1] - vals[0], abs_tol=1e-12)
        assert math.isclose(vals[2] - vals[1], 1.7, abs_tol=1e-12)

    def test_corrective_direction(self):
        p = AptParams(w_r=1.0, w_e=0.8)
        inside = apt_radius(errs(e_la=1.0, R_r=40.0), p)
        outside = apt_radius(errs(e_la=-1.0, R_r=40.0), p)
        assert inside > 40.0 > outside


class TestSteerFeedback:
    def test_zero_error_returns_base(self):
        p = AptParams(w_r=1.0, w_e=0.0, k=-0.25, delta_eq_base=-0.52)
        assert steer_feedback(errs(e_la=0.0), p, 40.0) == -0.52

    def test_proportional_fixture(self):
        p = AptParams(w_r=1.0, w_e=0.0, k=0.25, delta_eq_base=-0.52)
        assert math.isclose(steer_feedback(errs(e_la=0.4), p, 40.0), -0.42, abs_tol=1e-12)

    def test_gain_disabled(self):
        p = AptParams(w_r=1.0, w_e=0.0, k=0.0, delta_eq_base=-0.52)
        for e_la in (-2.0, 2.0):
            assert steer_feedback(errs(e_la=e_la), p, 40.0) == -0.52

    def test_clamped_to_limits(self):
        p = AptParams(w_r=1.0, w_e=0.0, k=0.25, delta_eq_base=-0.52)
        assert steer_feedback(errs(e_la=10.0), p, 40.0, -1.0, 1.0) == 1.0
        assert steer_feedback(errs(e_la=-10.0), p, 40.0, -1.0, 1.0) == -1.0

    def test_affine_in_lookahead_error(self):
        p = AptParams(w_r=1.0, w_e=0.0, k=-0.25, delta_eq_base=-0.52)
        vals = [steer_feedback(errs(e_la=x), p, 40.0) for x in (-1.0, 0.0, 1.0)]
        assert math.isclose(vals[2] - vals[1], vals[1] - vals[0], abs_tol=1e-15)

    def test_right_turn_mirrors_the_base(self):
        # drift switching: a right turn counter-steers the other way; the
        # feedback term keeps its sign, as e_la is signed by the path
        p = AptParams(w_r=1.0, w_e=0.0, k=0.25, delta_eq_base=-0.52)
        assert steer_feedback(errs(e_la=0.0), p, -40.0) == 0.52
        assert math.isclose(steer_feedback(errs(e_la=0.4), p, -40.0), 0.62, abs_tol=1e-12)
        assert steer_feedback(errs(e_la=-10.0), p, -40.0, -1.0, 1.0) == -1.0

class TestPptRadius:
    def test_true_radius_recovered_on_circle(self):
        R = 40.0
        circle = ClothoidSpec(kappa=1 / R, kappa_prime=0.0, length=200.0).build(0.25)
        grid = np.array([10.0, 20.0, 40.0, 80.0, -10.0, -40.0])
        i = 100
        pose = Pose(float(circle.x[i]), float(circle.y[i]), float(circle.phi[i]))
        assert ppt_radius(pose, project(pose, circle), circle, 20, grid,
                          beta=0.0, stride=8) == 40.0

    def test_straight_path_prefers_flattest(self):
        straight = ClothoidSpec(kappa=0.0, kappa_prime=0.0, length=100.0).build(0.25)
        grid = RADIUS_GRID
        pose = Pose(5.0, 0.0, 0.0)
        R = ppt_radius(pose, project(pose, straight), straight, 20, grid, beta=0.0, stride=4)
        assert abs(R) == 500.0

    def test_matches_fine_grid_oracle(self):
        path = ClothoidSpec(kappa=1 / 40, kappa_prime=1 / 12000,
                            length=300.0).build(0.25)
        coarse = RADIUS_GRID
        fine = radius_grid(400)
        i = 400
        pose = Pose(float(path.x[i]) + 0.3, float(path.y[i]),
                    float(path.phi[i]) + 0.05)
        proj = project(pose, path)
        R_coarse = ppt_radius(pose, proj, path, 20, coarse, beta=-0.1, stride=8)
        R_fine = ppt_radius(pose, proj, path, 20, fine, beta=-0.1, stride=8)
        # coarse answer within one coarse-grid step of the refined one
        mags = np.geomspace(5, 500, 40)
        step_ratio = mags[1] / mags[0]
        assert R_coarse * R_fine > 0
        assert 1.0 / step_ratio <= abs(R_coarse / R_fine) <= step_ratio

    def test_grid_order_invariance(self, rng):
        path = ClothoidSpec(kappa=1 / 40, kappa_prime=1 / 12000,
                            length=300.0).build(0.25)
        grid = RADIUS_GRID
        shuffled = grid.copy()
        rng.shuffle(shuffled)
        pose = Pose(float(path.x[300]) + 0.2, float(path.y[300]), float(path.phi[300]))
        proj = project(pose, path)
        a = ppt_radius(pose, proj, path, 20, grid, beta=0.0, stride=8)
        b = ppt_radius(pose, proj, path, 20, shuffled, beta=0.0, stride=8)
        assert a == b

    def test_requires_enough_points(self):
        path = ClothoidSpec(kappa=1 / 40, kappa_prime=0.0, length=100.0).build(0.25)
        with pytest.raises(ConfigError):
            pose = Pose(0.0, 0.0, 0.0)
            ppt_radius(pose, project(pose, path), path, 2, [40.0])


def ppt_radius_loop(pose, path, horizon_pts, radius_grid, beta=0.0, stride=1,
                    hint_index=None):
    """Scalar oracle: one candidate circle at a time, strict < keeps the
    first of equal costs, then the sign-preserving clamp to [5, 500] m."""
    proj = project(pose, path, hint_index=hint_index)
    course = pose.phi + beta
    sin_c, cos_c = math.sin(course), math.cos(course)
    idx = proj.index + stride * np.arange(1, horizon_pts + 1)
    idx = idx[idx < len(path)]
    if len(idx) < 3:
        idx = np.arange(proj.index + 1, len(path))
        if len(idx) < 3:
            idx = np.arange(max(len(path) - 4, 0) + 1, len(path))
    px, py = path.x[idx], path.y[idx]
    best_R, best_cost = None, math.inf
    for R in np.asarray(radius_grid, dtype=float):
        offsets = np.hypot(px - (pose.X - R * sin_c), py - (pose.Y + R * cos_c)) - abs(R)
        cost = float(offsets @ offsets)
        if cost < best_cost:
            best_R, best_cost = float(R), cost
    if best_R == 0.0:
        return math.copysign(5.0, proj.R_r)
    return math.copysign(min(max(abs(best_R), 5.0), 500.0), best_R)


PATHS = {"clothoid": ClothoidSpec().build(), "eight": EightSpec(radius=30.0).build(),
         # 2, 3 and 4 samples: at most three after any foot point
         **{f"clothoid{n}": ClothoidSpec(length=0.25 * (n - 1)).build(0.25)
            for n in (2, 3, 4)}}


@st.composite
def ppt_cases(draw):
    path = PATHS[draw(st.sampled_from(sorted(PATHS)))]
    i = draw(st.integers(0, len(path) - 1))
    offset = st.floats(-2.0, 2.0)
    pose = Pose(float(path.x[i]) + draw(offset), float(path.y[i]) + draw(offset),
                float(path.phi[i]) + draw(st.floats(-0.5, 0.5)))
    hint = draw(st.one_of(st.none(), st.integers(-30, 30).map(
        lambda d: min(max(i + d, 0), len(path) - 1))))
    return dict(pose=pose, path=path, horizon_pts=draw(st.integers(3, 25)),
                radius_grid=radius_grid(draw(st.integers(1, 60))),
                beta=draw(st.floats(-0.8, 0.8)), stride=draw(st.integers(1, 12)),
                hint_index=hint)


@settings(max_examples=200, deadline=None)
@given(ppt_cases())
def test_ppt_radius_matches_scalar_loop(case):
    # the oracle projects once more, windowed at the foot point: a second
    # projection must not move the answer
    case = dict(case)
    proj = project(case["pose"], case["path"], case.pop("hint_index"))
    assert ppt_radius(proj=proj, **case) == ppt_radius_loop(**case, hint_index=proj.index)


@pytest.mark.parametrize("kind", ["clothoid", "eight"])
@pytest.mark.parametrize("back, horizon_pts, stride", [
    (10, 6, 5),  # the stride runs past the end: every sample after the foot
    (4, 6, 3),   # one strided sample: the four samples after the foot
    (3, 6, 5),   # foot at len(path) - 4, where the rule switches: the last three
    (3, 6, 1),   # foot at len(path) - 4, three strided samples: no fallback
    (2, 6, 1),   # fewer than 3 samples after the foot: the last three
    (0, 4, 1)])  # foot on the last sample: the last three
def test_ppt_radius_at_the_path_end_matches_loop(kind, back, horizon_pts, stride):
    path = PATHS[kind]
    i = len(path) - 1 - back
    phi = float(path.phi[i])
    # 0.4 m right of the sample, heading 0.1 rad off; the hint keeps the
    # eight's end from projecting onto its start
    pose = Pose(float(path.x[i]) + 0.4 * math.sin(phi),
                float(path.y[i]) - 0.4 * math.cos(phi), phi + 0.1)
    proj = project(pose, path, hint_index=i)
    assert proj.index == i
    grid = RADIUS_GRID
    assert ppt_radius(pose, proj, path, horizon_pts, grid, beta=-0.3, stride=stride) \
        == ppt_radius_loop(pose, path, horizon_pts, grid, beta=-0.3, stride=stride,
                           hint_index=i)


def test_apt_params_validation():
    with pytest.raises(ConfigError):
        AptParams(w_r=1.0, w_e=0.0, x_la=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(AptParams)])
def test_non_finite_apt_params_rejected(name, bad):
    with pytest.raises(ConfigError, match="finite"):
        AptParams(**{name: bad})
