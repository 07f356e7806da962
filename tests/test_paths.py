import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmpc.errors import ConfigError, OffPathError
from driftmpc.paths import (ClothoidSpec, EightSpec, PathTable, errors_from_projection,
                            project)
from driftmpc.vehicle import Pose, wrap_angle

STOCK = ClothoidSpec(x0=0.0, y0=0.0, theta0=0.0, kappa=1 / 40,
                     kappa_prime=1 / 12000, length=360.0)


def clothoid_loop(spec, spacing):
    """Oracle: Simpson on four panels, one interval at a time."""
    def tangent_angle(s):
        return spec.theta0 + spec.kappa * s + 0.5 * spec.kappa_prime * s * s

    n = int(round(spec.length / spacing)) + 1
    s = np.arange(n) * spacing
    x = np.empty(n)
    y = np.empty(n)
    x[0], y[0] = spec.x0, spec.y0
    offsets = np.linspace(0.0, spacing, 5)
    weights = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * (spacing / 4.0) / 3.0
    for i in range(1, n):
        psi = tangent_angle(s[i - 1] + offsets)
        x[i] = x[i - 1] + float(weights @ np.cos(psi))
        y[i] = y[i - 1] + float(weights @ np.sin(psi))
    return s, x, y, tangent_angle(s), spec.kappa + spec.kappa_prime * s


def eight_loop(radius, spacing):
    """Oracle: one lobe at a time, each from its own arc offset and sign."""
    lobe_len = 2.0 * math.pi * radius
    n_lobe = int(round(lobe_len / spacing))
    total = 2 * n_lobe + 1
    s = np.arange(total) * spacing
    x, y, phi, kappa = (np.empty(total) for _ in range(4))
    for part, sign, s0 in ((slice(0, n_lobe), 1.0, 0.0),
                           (slice(n_lobe, total), -1.0, lobe_len)):
        s_lobe = s[part] - s0
        ang = sign * (-0.5 * math.pi + s_lobe / radius)
        x[part] = radius * np.cos(ang)
        y[part] = sign * radius + radius * np.sin(ang)
        phi[part] = sign * (s_lobe / radius)
        kappa[part] = sign / radius
    return s, x, y, phi, kappa


def assert_same_bits(table, oracle):
    for name, want in zip(("s", "x", "y", "phi", "kappa"), oracle):
        assert getattr(table, name).tobytes() == want.tobytes(), name


@st.composite
def clothoids(draw):
    spec = ClothoidSpec(x0=draw(st.floats(-100.0, 100.0)), y0=draw(st.floats(-100.0, 100.0)),
                        theta0=draw(st.floats(-4.0, 4.0)),
                        kappa=draw(st.one_of(st.just(0.0), st.floats(-0.2, 0.2))),
                        kappa_prime=draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3))),
                        length=draw(st.floats(0.5, 800.0)))
    spacing = draw(st.one_of(st.just(spec.length), st.floats(0.05, 1.0)))
    return spec, min(spacing, spec.length)


@st.composite
def eights(draw):
    radius = draw(st.floats(0.5, 300.0))
    spacing = draw(st.one_of(st.just(2.0 * math.pi * radius), st.floats(0.05, 1.0)))
    return radius, min(spacing, 2.0 * math.pi * radius)


@settings(max_examples=100, deadline=None)
@given(clothoids())
@example((STOCK, 0.25))
@example((ClothoidSpec(kappa=0.0, kappa_prime=0.0, length=50.0), 0.5))
@example((ClothoidSpec(x0=3.3, y0=-1.7, theta0=0.4, kappa=-0.01, kappa_prime=1e-4,
                       length=123.4), 0.37))  # 123.4 m is not a multiple of 0.37 m
@example((ClothoidSpec(kappa=-0.05, kappa_prime=-1e-4, length=7.0), 7.0))
def test_clothoid_build_matches_interval_loop(case):
    spec, spacing = case
    assert_same_bits(spec.build(spacing), clothoid_loop(spec, spacing))


@settings(max_examples=100, deadline=None)
@given(eights())
@example((40.0, 0.25))
@example((7.3, 0.1))
@example((123.4, 0.37))
@example((40.0, 2.0 * math.pi * 40.0))
def test_eight_build_matches_lobe_loop(case):
    radius, spacing = case
    assert_same_bits(EightSpec(radius).build(spacing), eight_loop(radius, spacing))


class TestBuildClothoid:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ClothoidSpec)])
    def test_non_finite_field_rejected(self, name, bad):
        with pytest.raises(ConfigError, match="finite"):
            ClothoidSpec(**{name: bad})

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(ConfigError, match="length must be positive"):
            ClothoidSpec(length=length)

    def test_zero_curvature_is_straight(self):
        spec = ClothoidSpec(x0=1.0, y0=2.0, theta0=0.5, kappa=0.0,
                            kappa_prime=0.0, length=50.0)
        t = spec.build(0.5)
        np.testing.assert_allclose(t.x, 1.0 + t.s * math.cos(0.5), atol=1e-12)
        np.testing.assert_allclose(t.y, 2.0 + t.s * math.sin(0.5), atol=1e-12)

    def test_constant_curvature_circle(self):
        R = 40.0
        spec = ClothoidSpec(kappa=1 / R, kappa_prime=0.0, length=2 * math.pi * R)
        t = spec.build(0.25)
        # every sample must sit on the analytic circle
        x_true = R * np.sin(t.s / R)
        y_true = R * (1.0 - np.cos(t.s / R))
        err = np.hypot(t.x - x_true, t.y - y_true)
        assert err.max() < 1e-3
        # diametric opposition: the sample nearest arc pi*R lands near (0, 2R)
        i_half = int(round(math.pi * R / 0.25))
        s_half = t.s[i_half]
        assert math.hypot(t.x[i_half] - R * math.sin(s_half / R),
                          t.y[i_half] - R * (1 - math.cos(s_half / R))) < 1e-3
        assert math.isclose(t.y[i_half], 2 * R, abs_tol=0.01)

    def test_fine_quadrature_oracle_at_100m(self):
        # frozen from a 10^6-panel trapezoid integration of the stock spiral
        t = STOCK.build(0.25)
        i = int(round(100.0 / 0.25))
        assert math.isclose(t.x[i], 13.151682830333, abs_tol=1e-6)
        assert math.isclose(t.y[i], 66.836778125111, abs_tol=1e-6)
        assert math.isclose(t.phi[i], 2.916666666667, abs_tol=1e-9)

    def test_curvature_column_exactly_affine(self):
        t = STOCK.build(0.25)
        expected = STOCK.kappa + STOCK.kappa_prime * t.s
        assert np.array_equal(t.kappa, expected)

    def test_chords_bounded_by_spacing(self):
        t = STOCK.build(0.25)
        chords = np.hypot(np.diff(t.x), np.diff(t.y))
        assert np.all(chords <= 0.25 + 1e-9)

    def test_chord_sum_converges_to_length(self):
        spec = ClothoidSpec(kappa=1 / 40, kappa_prime=1 / 12000, length=100.0)
        gaps = []
        for spacing in (0.5, 0.25, 0.125):
            t = spec.build(spacing)
            gaps.append(spec.length - np.hypot(np.diff(t.x), np.diff(t.y)).sum())
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0

    def test_invalid_spacing(self):
        with pytest.raises(ConfigError):
            STOCK.build(0.0)


def test_path_csv_bytes(tmp_path):
    table = PathTable(s=np.array([0.0, 0.25]), x=np.array([0.0, 0.2499]),
                      y=np.array([0.0, 1 / 3]), phi=np.array([0.0, -1e-20]),
                      kappa=np.array([0.025, 0.025]), spacing=0.25)
    table.to_csv(tmp_path / "path.csv")
    assert (tmp_path / "path.csv").read_text() == (
        "s,X,Y,phi_r,kappa\n0,0,0,0,0.025\n0.25,0.2499,0.333333333333,-1e-20,0.025\n")


class TestBuildEight:
    def test_total_length(self):
        t = EightSpec(40.0).build(0.25)
        assert abs(t.s[-1] - 4 * math.pi * 40.0) <= 0.25

    def test_curvature_values_and_single_flip(self):
        t = EightSpec(40.0).build(0.25)
        assert set(np.unique(t.kappa)) == {1 / 40, -1 / 40}
        flips = np.sum(np.diff(np.sign(t.kappa)) != 0)
        assert flips == 1

    def test_closure(self):
        t = EightSpec(40.0).build(0.25)
        assert math.hypot(t.x[-1] - t.x[0], t.y[-1] - t.y[0]) <= 0.25 + 1e-9

    def test_invalid_radius(self):
        with pytest.raises(ConfigError):
            EightSpec(-1.0).build()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            EightSpec(bad)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, 2 * math.pi * 40.0 + 1e-9,
                                         1000.0, math.nan])
    def test_spacing_outside_one_lobe_rejected(self, spacing):
        with pytest.raises(ConfigError):
            EightSpec(40.0).build(spacing)

    def test_spacing_of_one_lobe_closes_both(self):
        t = EightSpec(40.0).build(2 * math.pi * 40.0)
        assert len(t) == 3
        np.testing.assert_allclose(t.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(t.y, 0.0, atol=1e-12)


class TestProject:
    def test_on_sample_zero_error(self):
        t = STOCK.build(0.25)
        proj = project(Pose(float(t.x[100]), float(t.y[100]), 0.0), t)
        assert abs(proj.e) < 1e-9

    def test_left_offset_positive_sign(self):
        straight = ClothoidSpec(kappa=0.0, kappa_prime=0.0, length=50.0).build(0.25)
        proj = project(Pose(20.0, 1.0, 0.0), straight)  # 1 m left of +x path
        assert math.isclose(proj.e, 1.0, abs_tol=1e-9)
        proj = project(Pose(20.0, -1.0, 0.0), straight)
        assert math.isclose(proj.e, -1.0, abs_tol=1e-9)

    def test_matches_exhaustive_search(self, rng):
        t = STOCK.build(0.25)
        for _ in range(50):
            i = rng.integers(5, len(t) - 5)
            px = t.x[i] + rng.uniform(-2, 2)
            py = t.y[i] + rng.uniform(-2, 2)
            proj = project(Pose(float(px), float(py), 0.0), t)
            d2 = (t.x - px) ** 2 + (t.y - py) ** 2
            assert proj.index == int(np.argmin(d2))

    def test_sign_increases_along_left_normal(self):
        t = STOCK.build(0.25)
        i = 200
        nx = -math.sin(t.phi[i])
        ny = math.cos(t.phi[i])
        es = []
        for d in (0.0, 0.5, 1.0, 1.5):
            proj = project(Pose(float(t.x[i] + d * nx), float(t.y[i] + d * ny), 0.0), t)
            es.append(proj.e)
        assert all(b > a for a, b in zip(es, es[1:]))

    def test_idempotent_foot_point(self):
        t = STOCK.build(0.25)
        proj = project(Pose(float(t.x[123] + 0.6), float(t.y[123]), 0.0), t)
        # reconstruct the foot point from the signed error and re-project
        pose = Pose(float(t.x[123] + 0.6), float(t.y[123]), 0.0)
        foot = Pose(pose.X + proj.e * math.sin(proj.phi_r),
                    pose.Y - proj.e * math.cos(proj.phi_r), 0.0)
        again = project(foot, t)
        assert abs(again.e) < 1e-6

    def test_off_path_raises(self):
        t = STOCK.build(0.25)
        with pytest.raises(OffPathError):
            project(Pose(500.0, -500.0, 0.0), t)

    def test_hint_window_restricts_search(self):
        t = EightSpec(40.0).build(0.25)
        n_lobe = int(round(2 * math.pi * 40.0 / 0.25))
        # at the crossing both lobes coincide; the hint picks the late one
        pose = Pose(0.05, 0.0, 0.0)
        assert project(pose, t).index < 10
        assert project(pose, t, hint_index=n_lobe - 5).index >= n_lobe - 10

    @pytest.mark.parametrize("ahead", [0.0, 0.1, 2.0])
    def test_past_the_last_sample_uses_the_last_interval(self, ahead):
        """A foot point on the last sample has no interval after it: the
        projection takes the end of the last one, the last sample itself."""
        t = STOCK.build(0.25)
        phi = float(t.phi[-1])
        d = 0.7  # left of the end tangent
        pose = Pose(float(t.x[-1]) + ahead * math.cos(phi) - d * math.sin(phi),
                    float(t.y[-1]) + ahead * math.sin(phi) + d * math.cos(phi), 0.0)
        proj = project(pose, t)
        assert proj.index == len(t) - 1
        assert math.isclose(proj.e, d, rel_tol=1e-9)
        assert math.isclose(proj.phi_r, wrap_angle(phi), abs_tol=1e-12)
        assert proj.R_r == 1.0 / t.kappa[-1]

    def test_radius_sign_preserved(self):
        t = EightSpec(40.0).build(0.25)
        n_lobe = int(round(2 * math.pi * 40.0 / 0.25))
        left = project(Pose(40.0, 40.0, 0.0), t, hint_index=n_lobe // 4)
        right = project(Pose(40.0, -40.0, 0.0), t, hint_index=n_lobe + n_lobe // 4)
        assert left.R_r > 0 > right.R_r


class TestTrackingErrors:
    def test_on_path_aligned_all_zero(self):
        t = STOCK.build(0.25)
        pose = Pose(float(t.x[80]), float(t.y[80]), float(t.phi[80]))
        errs = errors_from_projection(project(pose, t), pose, 0.0, 12.0)
        assert abs(errs.e) < 1e-9
        assert abs(errs.d_phi) < 1e-9
        assert abs(errs.d_psi) < 1e-9
        assert abs(errs.e_la) < 1e-7

    def test_course_error_projection(self):
        t = STOCK.build(0.25)
        i = 80
        pose = Pose(float(t.x[i]), float(t.y[i]),
                    float(t.phi[i]) + math.pi / 6)
        errs = errors_from_projection(project(pose, t), pose, 0.0, 12.0)
        assert math.isclose(errs.d_psi, math.pi / 6, abs_tol=1e-9)
        assert math.isclose(errs.e_la, errs.e + 12.0 * math.sin(math.pi / 6),
                            abs_tol=1e-12)
        assert math.isclose(errs.e_la, 6.0, abs_tol=1e-6)

    def test_pure_offset(self):
        straight = ClothoidSpec(kappa=0.0, kappa_prime=0.0, length=50.0).build(0.25)
        pose = Pose(25.0, -1.0, 0.0)
        errs = errors_from_projection(project(pose, straight), pose, 0.0, 12.0)
        assert math.isclose(errs.e_la, -1.0, abs_tol=1e-9)

    def test_sideslip_enters_course_error(self):
        t = STOCK.build(0.25)
        i = 80
        pose = Pose(float(t.x[i]), float(t.y[i]), float(t.phi[i]))
        errs = errors_from_projection(project(pose, t), pose, -0.4, 12.0)
        assert math.isclose(errs.d_psi, errs.d_phi - 0.4, abs_tol=1e-12)

    def test_heading_rotation_increases_dphi(self):
        t = STOCK.build(0.25)
        i = 80
        base = float(t.phi[i])
        poses = [Pose(float(t.x[i]), float(t.y[i]), base + d) for d in (-0.3, 0.0, 0.3)]
        vals = [errors_from_projection(project(p, t), p, 0.0, 12.0).d_phi
                for p in poses]
        assert vals[0] < vals[1] < vals[2]
