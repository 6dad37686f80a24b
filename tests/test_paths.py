"""Tests for 3D path primitives, closest points, and segment switching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwnmpc import guidance as gd
from fwnmpc import paths
from fwnmpc.model import TWO_PI
from oracles import brute_force_arc_point


# ---------------------------------------------------------------------------
# Brute-force oracles. The lateral search scans a fine azimuth grid on the
# circle; the vertical search scans whole legs. Both are independent of the
# analytic projection under test.
# ---------------------------------------------------------------------------

def brute_force_line(seg, r, span=800.0, n=400001):
    t_hat = np.array([np.cos(seg.gamma_p) * np.cos(seg.chi_p),
                      np.cos(seg.gamma_p) * np.sin(seg.chi_p),
                      -np.sin(seg.gamma_p)])
    s = np.linspace(-span, span, n)
    pts = seg.b[None, :] + s[:, None] * t_hat[None, :]
    d2 = np.sum((pts - np.asarray(r)[None, :]) ** 2, axis=1)
    i = int(np.argmin(d2))
    # parabolic refinement on the quadratic distance
    if 0 < i < n - 1:
        denom = d2[i - 1] - 2 * d2[i] + d2[i + 1]
        shift = 0.5 * (d2[i - 1] - d2[i + 1]) / denom if denom != 0 else 0.0
        s_best = s[i] + shift * (s[1] - s[0])
    else:
        s_best = s[i]
    return seg.b + s_best * t_hat


@pytest.fixture
def cfg():
    return paths.SwitchConfig()


class TestClosestPointLine:
    def test_point_on_line_projects_to_itself(self):
        seg = paths.LineSegment(b=np.array([10.0, 5.0, -20.0]), chi_p=0.7, gamma_p=0.1)
        t_hat = paths.terminal_tangent(seg)
        r = seg.b - 37.0 * t_hat
        cp = paths.closest_point_line(seg, r)
        np.testing.assert_allclose(cp.p, r, atol=1e-12)
        np.testing.assert_allclose(cp.t_hat, t_hat, atol=1e-15)

    def test_axis_aligned_projection(self):
        seg = paths.LineSegment(b=np.zeros(3), chi_p=0.0, gamma_p=0.0)
        cp = paths.closest_point_line(seg, [5.0, 3.0, 0.0])
        np.testing.assert_allclose(cp.p, [5.0, 0.0, 0.0], atol=1e-15)

    def test_skew_case_matches_brute_force(self):
        seg = paths.LineSegment(b=np.array([12.0, -30.0, -55.0]),
                                chi_p=2.1, gamma_p=-0.2)
        r = np.array([80.0, 40.0, -90.0])
        cp = paths.closest_point_line(seg, r)
        expected = brute_force_line(seg, r)
        np.testing.assert_allclose(cp.p, expected, atol=1e-6)

    def test_tangent_is_unit(self):
        seg = paths.LineSegment(b=np.zeros(3), chi_p=1.2, gamma_p=0.3)
        cp = paths.closest_point_line(seg, [3.0, 4.0, 5.0])
        assert np.linalg.norm(cp.t_hat) == pytest.approx(1.0, abs=1e-15)


class TestClosestPointArc:
    def test_terminal_point_has_zero_offsets(self):
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -50.0]), r_signed=35.0,
                               chi_p=0.9, gamma_p=np.radians(8.0))
        b = paths.terminal_point(seg)
        cp = paths.closest_point_arc(seg, b)
        np.testing.assert_allclose(cp.p, b, atol=1e-9)
        assert cp.delta_chi == pytest.approx(0.0, abs=1e-12)
        assert cp.leg == 0

    def test_quarter_turn_altitude_deviation(self):
        """Offset behind the exit by pi/2 on a 35 m, 8 deg incline helix."""
        radius, incline = 35.0, np.radians(8.0)
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -100.0]), r_signed=radius,
                               chi_p=0.0, gamma_p=incline)
        # exit point is due west of center for a clockwise exit-north arc;
        # a quarter turn backwards (clockwise backwards = south) sits south of c.
        r = np.array([-radius, 0.0, -100.0 + 7.0])
        cp = paths.closest_point_arc(seg, r)
        assert cp.delta_chi == pytest.approx(np.pi / 2, abs=1e-12)
        expected_dd = (np.pi / 2) * radius * np.tan(incline)
        assert expected_dd == pytest.approx(7.727, abs=5e-3)
        assert cp.p[2] - seg.c[2] == pytest.approx(expected_dd, rel=1e-12)

    def test_on_circle_lateral_residual(self):
        seg = paths.ArcSegment(c=np.array([20.0, -40.0, -80.0]), r_signed=-42.0,
                               chi_p=1.3, gamma_p=np.radians(5.0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = seg.c + np.array([rng.uniform(-200, 200), rng.uniform(-200, 200),
                                  rng.uniform(-60, 60)])
            cp = paths.closest_point_arc(seg, r)
            lateral = np.hypot(*(cp.p[:2] - seg.c[:2]))
            assert lateral == pytest.approx(abs(seg.r_signed), abs=1e-9)

    def test_leg_choice_is_locally_optimal(self):
        """Midway altitudes resolve to the leg minimizing |d - p_d|."""
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -200.0]), r_signed=35.0,
                               chi_p=0.0, gamma_p=np.radians(8.0))
        pitch = TWO_PI * 35.0 * np.tan(np.radians(8.0))
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = rng.uniform(-np.pi, np.pi)
            depth = seg.c[2] + rng.uniform(-0.4, 3.2) * pitch
            r = np.array([35.0 * np.cos(lam) + rng.uniform(-20, 20),
                          35.0 * np.sin(lam) + rng.uniform(-20, 20), depth])
            cp = paths.closest_point_arc(seg, r)
            best = min(abs(r[2] - (cp.p[2] + k * pitch)) for k in range(-2, 3))
            assert abs(r[2] - cp.p[2]) <= best + 1e-9

    def test_matches_brute_force_grid(self):
        seg = paths.ArcSegment(c=np.array([15.0, 25.0, -120.0]), r_signed=-35.0,
                               chi_p=-0.6, gamma_p=np.radians(8.0))
        rng = np.random.default_rng(5)
        for _ in range(10):
            r = np.array([rng.uniform(-150, 150), rng.uniform(-150, 150),
                          rng.uniform(-180, -60)])
            cp = paths.closest_point_arc(seg, r)
            expected, _ = brute_force_arc_point(seg, r)
            np.testing.assert_allclose(cp.p, expected, atol=1e-6)

    def test_on_axis_query_flagged_invalid(self):
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -50.0]), r_signed=35.0,
                               chi_p=0.0, gamma_p=0.1)
        cp = paths.closest_point_arc(seg, seg.c + np.array([0.0, 0.0, 10.0]))
        assert not cp.valid

    def test_flat_arc_reduces_to_loiter(self):
        c = np.array([10.0, -5.0, -70.0])
        arc = paths.ArcSegment(c=c, r_signed=40.0, chi_p=0.4, gamma_p=0.0)
        loiter = paths.LoiterSegment(c=c, r_signed=40.0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            r = c + rng.uniform(-100, 100, size=3)
            if np.hypot(*(r[:2] - c[:2])) < paths.AXIS_EPS:
                continue
            cp_a = paths.closest_point_arc(arc, r)
            cp_l = paths.closest_point_arc(loiter, r)
            np.testing.assert_allclose(cp_a.p, cp_l.p, atol=1e-12)

    def test_tangent_continuity_along_helix(self):
        seg = paths.ArcSegment(c=np.array([0.0, 0.0, -100.0]), r_signed=35.0,
                               chi_p=0.0, gamma_p=np.radians(8.0))
        lam = np.linspace(-np.pi, np.pi, 721)
        tangents = []
        for L in lam:
            r = seg.c + np.array([36.0 * np.cos(L), 36.0 * np.sin(L), 5.0])
            tangents.append(paths.closest_point_arc(seg, r).t_hat)
        tangents = np.array(tangents)
        steps = np.linalg.norm(np.diff(tangents, axis=0), axis=1)
        assert np.max(steps) < 0.02


class TestPathTangent2d:
    """The guidance kernel reads the tangent's horizontal part normalized to
    unit length: on the track the look-ahead is that unit tangent, and an
    offset d across it gives |e_lat| = d."""

    LINE = paths.LineSegment(b=np.zeros(3), chi_p=0.0, gamma_p=0.0)

    @classmethod
    def errors(cls, t_hat, offset=0.0):
        chi = np.arctan2(t_hat[1], t_hat[0])
        r = offset * np.array([-np.sin(chi), np.cos(chi), 0.0])
        cp = paths.ClosestPoint(p=np.zeros(3), t_hat=t_hat)
        return gd.guidance_errors(r, [13.5, 0.0, 0.0], cls.LINE, cp, gd.GuidanceConfig())

    def test_axis_aligned(self):
        errs = self.errors(np.array([1.0, 0.0, 0.0]))
        assert errs.eta_lat == 0.0 and errs.e_lat == 0.0

    def test_diagonal_course(self):
        errs = self.errors(paths.tangent_from_course(np.pi / 4, 0.0))
        assert errs.eta_lat == pytest.approx(np.pi / 4, abs=1e-15)

    def test_steep_helix_renormalizes(self):
        errs = self.errors(paths.tangent_from_course(0.3, np.radians(40.0)), offset=2.5)
        assert errs.e_lat == pytest.approx(-2.5, abs=1e-12)


class TestTerminalPoint:
    @staticmethod
    def _tangent_course_at(seg, b):
        """Oracle: course of the circle tangent at point b, in travel direction."""
        lam = np.arctan2(b[1] - seg.c[1], b[0] - seg.c[0])
        direction = 1.0 if seg.r_signed > 0 else -1.0
        return lam + direction * np.pi / 2

    def test_clockwise_exit_north(self):
        seg = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=0.0, gamma_p=0.0)
        b = paths.terminal_point(seg)
        np.testing.assert_allclose(b, [0.0, -35.0, 0.0], atol=1e-12)
        course = self._tangent_course_at(seg, b)
        assert np.cos(course) == pytest.approx(np.cos(seg.chi_p), abs=1e-12)
        assert np.sin(course) == pytest.approx(np.sin(seg.chi_p), abs=1e-12)

    def test_clockwise_exit_east(self):
        seg = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=np.pi / 2, gamma_p=0.0)
        b = paths.terminal_point(seg)
        np.testing.assert_allclose(b, [35.0, 0.0, 0.0], atol=1e-12)
        course = self._tangent_course_at(seg, b)
        assert np.cos(course) == pytest.approx(np.cos(seg.chi_p), abs=1e-12)
        assert np.sin(course) == pytest.approx(np.sin(seg.chi_p), abs=1e-12)

    def test_sign_flip_mirrors_terminal_point(self):
        cw = paths.ArcSegment(c=np.array([5.0, 7.0, -10.0]), r_signed=35.0,
                              chi_p=0.3, gamma_p=0.0)
        ccw = paths.ArcSegment(c=np.array([5.0, 7.0, -10.0]), r_signed=-35.0,
                               chi_p=0.3, gamma_p=0.0)
        b_cw, b_ccw = paths.terminal_point(cw), paths.terminal_point(ccw)
        np.testing.assert_allclose(b_cw + b_ccw, 2 * cw.c, atol=1e-12)

    def test_loiter_has_no_terminal(self):
        seg = paths.LoiterSegment(c=np.zeros(3), r_signed=40.0)
        with pytest.raises(TypeError):
            paths.terminal_point(seg)


class TestSegmentPoints:
    @pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_point_of_another_shape_rejected(self, point):
        """A terminal point or center is a 3-vector; any other shape is
        refused when the segment is made, not at its first use."""
        with pytest.raises(ValueError, match="3-vector"):
            paths.LineSegment(b=point, chi_p=0.0, gamma_p=0.0)
        with pytest.raises(ValueError, match="3-vector"):
            paths.ArcSegment(c=point, r_signed=30.0, chi_p=0.0, gamma_p=0.0)
        with pytest.raises(ValueError, match="3-vector"):
            paths.LoiterSegment(c=point, r_signed=30.0)

    def test_point_stored_as_float_array(self):
        seg = paths.LineSegment(b=[1, 2, 3], chi_p=0.0, gamma_p=0.0)
        assert seg.b.dtype == float and seg.b.shape == (3,)


class TestSwitchingConditions:
    def test_proximity_inside_acceptance_radius(self, cfg):
        seg = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=0.0, gamma_p=0.0)
        b = paths.terminal_point(seg)
        r = b + np.array([10.0, 0.0, 0.0]) * (1 / np.sqrt(2))
        conds = paths.switching_conditions(seg, r, [13.0, 0.0, 0.0], cfg)
        assert conds.proximity

    def test_bearing_true_when_aligned(self, cfg):
        seg = paths.LineSegment(b=np.array([100.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0)
        v_g = 17.0 * paths.terminal_tangent(seg)
        conds = paths.switching_conditions(seg, [0.0, 0.0, 0.0], v_g, cfg)
        assert conds.bearing

    def test_travel_strict_at_terminal_point(self, cfg):
        seg = paths.LineSegment(b=np.array([100.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0)
        conds = paths.switching_conditions(seg, seg.b, [13.0, 0.0, 0.0], cfg)
        assert not conds.travel

    def test_zero_ground_speed_fails_bearing(self, cfg):
        seg = paths.LineSegment(b=np.array([100.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0)
        conds = paths.switching_conditions(seg, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], cfg)
        assert not conds.bearing

    def test_loiter_never_meets_conditions(self, cfg):
        seg = paths.LoiterSegment(c=np.zeros(3), r_signed=40.0)
        conds = paths.switching_conditions(seg, [0.0, -40.0, 0.0], [13.0, 0.0, 0.0], cfg)
        assert conds == paths.SwitchingConditions(False, False, False)
        assert not paths.terminal_conditions_met(seg, conds)

    def test_line_uses_travel_only(self, cfg):
        seg = paths.LineSegment(b=np.array([10.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0)
        past = paths.SwitchingConditions(proximity=False, bearing=False, travel=True)
        assert paths.terminal_conditions_met(seg, past)

    def test_arc_requires_all_three(self, cfg):
        seg = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=0.0, gamma_p=0.0)
        assert not paths.terminal_conditions_met(
            seg, paths.SwitchingConditions(True, True, False))
        assert paths.terminal_conditions_met(
            seg, paths.SwitchingConditions(True, True, True))

    def test_ground_velocity_function_called_only_where_bearing_decides(self, cfg):
        """The rollout passes a function for the ground velocity: a line, or
        an arc short of travel or proximity, never calls it."""
        arc = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=0.0, gamma_p=0.0)
        line = paths.LineSegment(b=paths.terminal_point(arc), chi_p=0.0, gamma_p=0.0)
        past = paths.terminal_point(arc) + np.array([5.0, 0.0, 0.0])
        calls = []

        def v_g():
            calls.append(1)
            return 13.0, 0.0, 0.0

        for seg, r in ((line, past), (arc, past - [10.0, 0.0, 0.0]),
                       (arc, past + [40.0, 0.0, 0.0])):
            _, bearing, _ = paths.terminal_conditions(paths.terminal_data(seg), r.tolist(),
                                                      v_g, cfg)
            assert not bearing
        assert not calls
        lazy = paths.terminal_conditions(paths.terminal_data(arc), past.tolist(), v_g, cfg)
        assert calls and lazy == paths.switching_conditions(arc, past, v_g(), cfg)
        assert paths.terminal_conditions_met(arc, lazy)


class TestAdvanceSwitchState:
    # unit growth rate makes the Euler accumulation arithmetic transparent
    CFG = paths.SwitchConfig(rho_sw=1.0)

    @staticmethod
    def _queue():
        segs = (paths.LineSegment(b=np.array([100.0, 0.0, 0.0]), chi_p=0.0, gamma_p=0.0),
                paths.LineSegment(b=np.array([100.0, 100.0, 0.0]), chi_p=np.pi / 2,
                                  gamma_p=0.0),
                paths.LoiterSegment(c=np.array([100.0, 150.0, 0.0]), r_signed=40.0))
        return paths.PathQueue(segments=segs)

    def test_unmet_conditions_hold_state(self):
        q = self._queue()
        conds = paths.SwitchingConditions(False, False, False)
        q2 = paths.advance_switch_state(q, conds, self.CFG, 0.1)
        assert q2.x_sw == 0.0 and q2.current_index == 0

    def test_euler_accumulation(self):
        q = self._queue()
        met = paths.SwitchingConditions(False, False, True)
        for _ in range(4):
            q = paths.advance_switch_state(q, met, self.CFG, 0.1)
        assert q.x_sw == pytest.approx(4 * self.CFG.rho_sw * 0.1)

    def test_threshold_zero_is_allowed(self):
        """At 0 the state latches once it is strictly inside the segment."""
        q = self._queue()
        cfg = paths.SwitchConfig(rho_sw=1.0, sw_threshold=0.0)
        unmet = paths.SwitchingConditions(False, False, False)
        assert paths.advance_switch_state(q, unmet, cfg, 0.1).x_sw == 0.0
        q = paths.advance_switch_state(q, paths.SwitchingConditions(False, False, True), cfg, 0.1)
        assert paths.advance_switch_state(q, unmet, cfg, 0.1).x_sw == pytest.approx(0.2)

    def test_latch_beyond_threshold(self):
        q = self._queue()
        met = paths.SwitchingConditions(False, False, True)
        unmet = paths.SwitchingConditions(False, False, False)
        for _ in range(6):
            q = paths.advance_switch_state(q, met, self.CFG, 0.1)
        assert q.x_sw == pytest.approx(0.6)
        q = paths.advance_switch_state(q, unmet, self.CFG, 0.1)
        assert q.x_sw == pytest.approx(0.7)
        # the float step: strictly past the threshold latches, at it holds
        assert paths.advance_switch(0.6, 0, 3, False, self.CFG, 0.1) == (0.7, 0)
        assert paths.advance_switch(0.5, 0, 3, False, self.CFG, 0.1) == (0.5, 0)

    def test_boundary_crossing_increments_index(self):
        q = self._queue()
        met = paths.SwitchingConditions(False, False, True)
        for _ in range(11):
            q = paths.advance_switch_state(q, met, self.CFG, 0.1)
        assert q.current_index == 1
        assert q.x_sw == pytest.approx(1.1)

    def test_queue_exhaustion_holds_last(self):
        q = self._queue()
        met = paths.SwitchingConditions(True, True, True)
        for _ in range(100):
            q = paths.advance_switch_state(q, met, self.CFG, 0.1)
        assert q.current_index == len(q.segments) - 1
        assert q.x_sw <= len(q.segments)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_index_is_monotone(self, seed):
        cfg = self.CFG
        rng = np.random.default_rng(seed)
        q = self._queue()
        prev = q.current_index
        for _ in range(60):
            conds = paths.SwitchingConditions(bool(rng.integers(2)), bool(rng.integers(2)),
                                              bool(rng.integers(2)))
            q = paths.advance_switch_state(q, conds, self.CFG, 0.1)
            assert q.current_index >= prev
            prev = q.current_index


class TestRandomQueriesAgainstBruteForce:
    def test_thousand_random_arc_queries(self):
        """Analytic closest point agrees with the grid/leg search to 1e-6 m."""
        rng = np.random.default_rng(2024)
        n_checked = 0
        while n_checked < 1000:
            radius = rng.uniform(20.0, 80.0) * rng.choice([-1.0, 1.0])
            gamma_p = rng.uniform(-0.25, 0.25)
            c = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100),
                          rng.uniform(-150, -50)])
            if rng.uniform() < 0.2:
                seg = paths.LoiterSegment(c=c, r_signed=radius)
            else:
                seg = paths.ArcSegment(c=c, r_signed=radius,
                                       chi_p=rng.uniform(-np.pi, np.pi), gamma_p=gamma_p)
            r = c + np.array([rng.uniform(-150, 150), rng.uniform(-150, 150),
                              rng.uniform(-80, 80)])
            if np.hypot(*(r[:2] - c[:2])) < 1.0:
                continue
            cp = paths.closest_point_arc(seg, r)
            # Lateral oracle: radial distance gap equals point-to-circle distance.
            lateral_gap = abs(np.hypot(*(r[:2] - c[:2])) - abs(radius))
            assert abs(np.hypot(*(cp.p[:2] - r[:2])) - lateral_gap) < 1e-9
            # Vertical oracle: scanned legs.
            if isinstance(seg, paths.ArcSegment) and abs(np.tan(seg.gamma_p)) > 1e-12:
                pitch = TWO_PI * abs(radius) * np.tan(seg.gamma_p)
                best = min(abs(r[2] - (cp.p[2] + k * pitch)) for k in range(-3, 4))
                assert abs(r[2] - cp.p[2]) <= best + 1e-9
            # Full-point agreement against the refined grid/leg search.
            expected, _ = brute_force_arc_point(seg, r)
            assert np.linalg.norm(cp.p - expected) < 1e-6
            n_checked += 1
