"""Tests for the look-ahead lateral and longitudinal guidance errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwnmpc import guidance as gd
from fwnmpc import paths


CFG = gd.GuidanceConfig()


def rot2(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def kernel(r, v_g, p, t, r_signed=0.0, g=9.81):
    """`gd.guidance_columns` on columns given as (3,) or (3, M) arrays."""
    col = lambda v: np.asarray(v, dtype=float).reshape(3, -1)
    r_signed = np.broadcast_to(np.asarray(r_signed, dtype=float),
                               col(r).shape[1:]).copy()
    return gd.guidance_columns(col(r), col(v_g), col(p), col(t), r_signed, g, CFG)


def on_track(t, v_g):
    """Errors on the track of unit tangent `t`, where the look-ahead is the
    horizontal unit tangent: eta_lat is its course minus that of `v_g`."""
    return kernel(np.zeros(3), v_g, np.zeros(3), t)


def look_ahead_course(t, err):
    """Course of the look-ahead for tangent `t` and error vector `err` back
    to the path, read from eta_lat against a northbound ground velocity."""
    r = np.zeros(3)
    return float(kernel(r, [13.5, 0.0, 0.0], r + np.append(err, 0.0), t).eta_lat[0])


class TestLateralTrackError:
    def test_on_path_zero(self):
        p = np.array([3.0, 0.0, 0.0])
        assert kernel(p, [13.5, 0.0, 0.0], p, [1.0, 0.0, 0.0]).e_lat[0] == 0.0

    def test_east_of_northward_path(self):
        # path tangent North, aircraft 5 m East of the closest point
        errs = kernel([5.0, 5.0, 0.0], [13.5, 0.0, 0.0], [5.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert errs.e_lat[0] == pytest.approx(-5.0)

    @given(angle=st.floats(-np.pi, np.pi), offset=st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_invariant_under_frame_rotation(self, angle, offset):
        t_bar = np.array([1.0, 0.0])
        p = np.array([7.0, 2.0])
        r = p + offset * np.array([0.0, 1.0])

        def e_lat(rot):
            return kernel([*rot2(r, rot), 0.0], [13.5, 0.0, 0.0], [*rot2(p, rot), 0.0],
                          [*rot2(t_bar, rot), 0.0]).e_lat[0]

        assert e_lat(angle) == pytest.approx(e_lat(0.0), abs=1e-9 * max(1.0, abs(offset)))


class TestTrackErrorBound:
    def test_above_unit_speed(self):
        assert gd.track_error_bound(10.0, 1.0) == pytest.approx(10.0)

    def test_zero_speed_floor(self):
        assert gd.track_error_bound(0.0, 1.0) == pytest.approx(0.5)

    def test_branches_agree_at_unit_speed(self):
        t_b = 1.0
        linear = 1.0 * t_b
        smooth = 0.5 * t_b * (1.0 + 1.0 ** 2)
        assert linear == smooth == gd.track_error_bound(1.0, t_b)

    def test_first_derivative_continuous_at_unit_speed(self):
        t_b = 1.3
        h = 1e-7
        below = (gd.track_error_bound(1.0, t_b) - gd.track_error_bound(1.0 - h, t_b)) / h
        above = (gd.track_error_bound(1.0 + h, t_b) - gd.track_error_bound(1.0, t_b)) / h
        assert below == pytest.approx(above, abs=1e-5)
        assert below == pytest.approx(t_b, abs=1e-5)


class TestLookaheadMapping:
    def test_endpoints(self):
        assert gd.lookahead_mapping(0.0) == 0.0
        assert gd.lookahead_mapping(1.0) == 1.0

    def test_midpoint(self):
        assert gd.lookahead_mapping(0.5) == pytest.approx(0.75)

    def test_saturates_input(self):
        assert gd.lookahead_mapping(1.7) == 1.0
        assert gd.lookahead_mapping(-0.3) == 0.0

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_on_unit_interval(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert gd.lookahead_mapping(lo) <= gd.lookahead_mapping(hi) + 1e-15


class TestLateralLookahead:
    def test_on_track_returns_tangent(self):
        t = np.array([0.6, 0.8, 0.0])
        # error vector along the tangent: zero lateral error, blend 0
        assert look_ahead_course(t, 5.0 * t[:2]) == pytest.approx(np.arctan2(0.8, 0.6),
                                                                   abs=1e-15)

    def test_full_error_returns_error_direction(self):
        # 40 m off a northbound path at 13.5 m/s is beyond the 13.5 m bound
        assert look_ahead_course([1.0, 0.0, 0.0], [0.0, -40.0]) == pytest.approx(-np.pi / 2)

    def test_perpendicular_blend_at_half(self):
        # the normalized error that maps to a blend of 0.5 -> 45 degrees
        e_prime = 1.0 - np.sqrt(0.5)
        assert gd.lookahead_mapping(e_prime) == pytest.approx(0.5, abs=1e-15)
        course = look_ahead_course([1.0, 0.0, 0.0], [0.0, 13.5 * e_prime])
        assert course == pytest.approx(np.pi / 4, abs=1e-12)

    def test_antiparallel_falls_back_to_tangent(self):
        # ahead of the closest point along the path: the tangent, not a
        # vanishing blend
        assert look_ahead_course([1.0, 0.0, 0.0], [-5.0, 0.0]) == 0.0

    def test_perpendicular_approach_beyond_boundary(self):
        """Far from the path the look-ahead aligns with the error direction."""
        course = look_ahead_course([0.0, 1.0, 0.0], [-30.0, 40.0])
        assert course == pytest.approx(np.arctan2(40.0, -30.0), abs=1e-9)


class TestEtaLat:
    def test_aligned_zero(self):
        assert on_track([1.0, 0.0, 0.0], [13.0, 0.0, 0.0]).eta_lat[0] == 0.0

    def test_north_lookahead_east_velocity(self):
        eta = on_track([1.0, 0.0, 0.0], [0.0, 9.0, 0.0]).eta_lat[0]
        assert eta == pytest.approx(-np.pi / 2)

    def test_wraps_through_pi(self):
        t = [np.cos(np.radians(170.0)), np.sin(np.radians(170.0)), 0.0]
        v_g = [np.cos(np.radians(-170.0)), np.sin(np.radians(-170.0)), 0.0]
        assert on_track(t, v_g).eta_lat[0] == pytest.approx(np.radians(-20.0), abs=1e-12)

    def test_zero_ground_speed_raises(self):
        seg = paths.LineSegment(b=np.array([100.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0)
        cp = paths.closest_point_line(seg, np.zeros(3))
        with pytest.raises(gd.ZeroGroundSpeedError):
            gd.guidance_errors(np.zeros(3), [0.0, 0.0, 0.0], seg, cp, CFG)
        # the column kernel stays finite: the velocity course reads 0
        assert on_track([0.0, 1.0, 0.0], np.zeros(3)).eta_lat[0] == pytest.approx(np.pi / 2)


def longitudinal(e_lon, v_g, t_pd):
    """(d_dot_sp, eta_lon) with the path `e_lon` below (+) or above (-) the
    aircraft and tangent down component `t_pd`."""
    t = [np.sqrt(1.0 - t_pd ** 2), 0.0, t_pd]
    errs = kernel(np.zeros(3), v_g, [0.0, 0.0, e_lon], t)
    return float(errs.d_dot_sp[0]), float(errs.eta_lon[0])


class TestLongitudinalSetpoint:
    def test_on_altitude_on_rate(self):
        # level path, level flight: e_lon = 0, d_dot = 0
        d_dot_sp, eta_lon = longitudinal(0.0, [13.5, 0.0, 0.0], 0.0)
        assert d_dot_sp == 0.0
        assert eta_lon == 0.0

    def test_normalization_by_rate_range(self):
        # with max climb 3.5 and max sink 1.5, a 5 m/s offset normalizes to 1
        v_g = np.array([13.5, 0.0, 1.5])
        d_dot_sp, eta_lon = longitudinal(-500.0, v_g, 0.0)
        assert d_dot_sp == pytest.approx(-3.5)
        assert eta_lon == pytest.approx((-3.5 - 1.5) / 5.0)
        assert abs(d_dot_sp - v_g[2]) == pytest.approx(5.0)

    def test_far_below_commands_max_climb(self):
        d_dot_sp, _ = longitudinal(-100.0, [13.5, 0.0, 0.0], 0.0)
        assert d_dot_sp == pytest.approx(-CFG.d_dot_clmb)

    def test_far_above_commands_max_sink(self):
        d_dot_sp, _ = longitudinal(100.0, [13.5, 0.0, 0.0], 0.0)
        assert d_dot_sp == pytest.approx(CFG.d_dot_sink)

    def test_on_track_rate_follows_path_slope(self):
        gamma_p = np.radians(8.0)
        v_g = np.array([13.5 * np.cos(gamma_p), 0.0, -13.5 * np.sin(gamma_p)])
        t_pd = -np.sin(gamma_p)
        d_dot_sp, eta_lon = longitudinal(0.0, v_g, t_pd)
        assert d_dot_sp == pytest.approx(13.5 * t_pd)
        assert eta_lon == pytest.approx(0.0, abs=1e-12)

    @given(e_lon=st.floats(-30.0, 30.0), d_dot=st.floats(-3.5, 1.5))
    @settings(max_examples=80, deadline=None)
    def test_eta_lon_bounded_for_in_envelope_rates(self, e_lon, d_dot):
        v_g = np.array([10.0, 3.0, d_dot])
        _, eta_lon = longitudinal(e_lon, v_g, 0.0)
        assert -1.0 - 1e-12 <= eta_lon <= 1.0 + 1e-12


def roll_feedforward(r_signed, e_prime):
    """phi_ff at 13.5 m/s northbound, `e_prime` of the 13.5 m bound east of a
    northbound path, for turns of signed radius `r_signed` (0: a line)."""
    e_prime = np.atleast_1d(e_prime)
    m = e_prime.size
    r = np.zeros((3, m))
    r[1] = -13.5 * e_prime
    return kernel(r, np.tile([[13.5], [0.0], [0.0]], m), np.zeros((3, m)),
                  np.tile([[1.0], [0.0], [0.0]], m), r_signed).phi_ff


class TestRollFeedforward:
    def test_line_zero(self):
        assert roll_feedforward(0.0, 0.0)[0] == 0.0

    def test_zero_at_error_boundary(self):
        assert roll_feedforward(35.0, 1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_coordinated_turn_bank_on_track(self):
        phi = roll_feedforward(35.0, 0.0)[0]
        assert phi == pytest.approx(np.arctan(13.5 ** 2 / (9.81 * 35.0)), rel=1e-12)
        assert phi == pytest.approx(0.488, abs=2e-3)

    def test_sign_follows_turn_direction(self):
        assert roll_feedforward(-35.0, 0.0)[0] < 0.0

    def test_continuous_in_normalized_error(self):
        vals = roll_feedforward(35.0, np.linspace(0.0, 1.0, 2001))
        assert np.max(np.abs(np.diff(vals))) < 2e-3


class TestGuidanceErrors:
    def test_on_path_aligned_is_zero_error(self):
        seg = paths.LineSegment(b=np.array([200.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0)
        r = np.array([20.0, 0.0, -50.0])
        cp = paths.closest_point_line(seg, r)
        v_g = np.array([13.5, 0.0, 0.0])
        errs = gd.guidance_errors(r, v_g, seg, cp, CFG)
        assert errs.eta_lat == pytest.approx(0.0, abs=1e-12)
        assert errs.eta_lon == pytest.approx(0.0, abs=1e-12)
        assert errs.e_lat == pytest.approx(0.0, abs=1e-12)
        assert errs.e_lon == pytest.approx(0.0, abs=1e-12)

    def test_unit_lookahead_norm(self):
        """The look-ahead is left unnormalized: eta_lat equals the angle of
        the unit look-ahead, the blend of the unit tangent and the unit
        error direction, renormalized."""
        seg = paths.LineSegment(b=np.array([200.0, 0.0, -50.0]), chi_p=0.4, gamma_p=0.05)
        r = np.array([20.0, 35.0, -42.0])
        v_g = np.array([12.0, 3.0, -0.5])
        cp = paths.closest_point_line(seg, r)
        errs = gd.guidance_errors(r, v_g, seg, cp, CFG)
        t_bar = cp.t_hat[:2] / np.linalg.norm(cp.t_hat[:2])
        e_bar = (cp.p - r)[:2] / np.linalg.norm((cp.p - r)[:2])
        theta = gd.lookahead_mapping(
            abs(errs.e_lat) / gd.track_error_bound(np.hypot(*v_g[:2]), CFG.t_b_lat))
        l_hat = (1.0 - theta) * t_bar + theta * e_bar
        l_hat /= np.linalg.norm(l_hat)
        expected = np.arctan2(l_hat[1], l_hat[0]) - np.arctan2(v_g[1], v_g[0])
        assert errs.eta_lat == pytest.approx(expected, abs=1e-12)

    @given(angle=st.floats(-np.pi, np.pi))
    @settings(max_examples=40, deadline=None)
    def test_frame_rotation_equivariance(self, angle):
        """Rotating all horizontal inputs leaves the scalar errors unchanged."""
        b = np.array([150.0, 40.0, -60.0])
        r = np.array([30.0, 18.0, -55.0])
        v_g = np.array([11.0, 4.0, 0.3])

        def errors_for(rot):
            b2 = np.array([*rot2(b[:2], rot), b[2]])
            r2 = np.array([*rot2(r[:2], rot), r[2]])
            v2 = np.array([*rot2(v_g[:2], rot), v_g[2]])
            seg = paths.LineSegment(b=b2, chi_p=0.7 + rot, gamma_p=0.03)
            cp = paths.closest_point_line(seg, r2)
            return gd.guidance_errors(r2, v2, seg, cp, CFG)

        base = errors_for(0.0)
        rotated = errors_for(angle)
        assert rotated.e_lat == pytest.approx(base.e_lat, abs=1e-9)
        assert rotated.e_lon == pytest.approx(base.e_lon, abs=1e-9)
        assert rotated.eta_lat == pytest.approx(base.eta_lat, abs=1e-9)
        assert rotated.eta_lon == pytest.approx(base.eta_lon, abs=1e-9)

    def test_one_position_call_matches_columns(self):
        """`guidance_errors` is one column of `guidance_columns`."""
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -80.0]), r_signed=-40.0,
                               chi_p=1.1, gamma_p=np.radians(6.0))
        r = np.array([25.0, -38.0, -71.0])
        v_g = np.array([9.0, 8.5, -0.7])
        cp = paths.closest_point_arc(seg, r)
        errs = gd.guidance_errors(r, v_g, seg, cp, CFG)
        cols = kernel(r, v_g, cp.p, cp.t_hat, seg.r_signed)
        for name, value in vars(errs).items():
            assert np.float64(value).tobytes() == getattr(cols, name).tobytes(), name
