"""Tests for the closed-loop harness, config loading, and the CLI."""

import dataclasses
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import yaml

from fwnmpc import cli, config as cfgio, model as md, paths as pth, sim
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.scenarios import BUILTIN_SCENARIOS, chain_arc, chain_line
from oracles import checkout_env


def short_line_scenario(**overrides) -> sim.Scenario:
    """Small, fast scenario for harness tests: trim cruise down a line."""
    params = md.default_params()
    trim = md.solve_trim(params, 13.5, 0.0)
    seg = pth.LineSegment(b=np.array([2000.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0)
    base = dict(
        name="test_line",
        initial_state=trim.state(d=-50.0),
        segments=(seg,),
        duration=3.0,
        plant_params=params,
        ocp=nmpc_ocp.OcpConfig(n_steps=20, cold_start_sqp_iter=3),
    )
    base.update(overrides)
    return sim.Scenario(**base)


class TestChainHelpers:
    def test_line_end_point(self):
        seg, end, course = chain_line(np.array([0.0, 0.0, -50.0]), 0.0, 0.0, 100.0)
        np.testing.assert_allclose(end, [100.0, 0.0, -50.0], atol=1e-12)
        np.testing.assert_allclose(seg.b, end)

    def test_arc_tangent_continuity(self):
        start = np.array([10.0, -5.0, -80.0])
        seg, end, course = chain_arc(start, 0.3, 45.0, np.radians(5.0), np.pi / 2)
        # the arc's closest point at the start position is the start itself
        cp = pth.closest_point_arc(seg, start)
        np.testing.assert_allclose(cp.p, start, atol=1e-9)
        # and its tangent course there matches the entry course
        assert np.hypot(*(cp.t_hat[:2] / np.linalg.norm(cp.t_hat[:2])
                          - np.array([np.cos(0.3), np.sin(0.3)]))) < 1e-9
        # terminal point course matches the reported exit course
        t_b = pth.terminal_tangent(seg)
        np.testing.assert_allclose(t_b[:2] / np.linalg.norm(t_b[:2]),
                                   [np.cos(course), np.sin(course)], atol=1e-12)

    def test_climbing_arc_altitude_budget(self):
        start = np.array([0.0, 0.0, -50.0])
        gamma = np.radians(8.0)
        seg, end, _ = chain_arc(start, 0.0, 35.0, gamma, 2 * np.pi)
        climb = 2 * np.pi * 35.0 * np.tan(gamma)
        assert end[2] == pytest.approx(start[2] - climb, rel=1e-12)


class TestRunLoop:
    def test_trim_scenario_holds_trim(self):
        log = sim.run(short_line_scenario())
        v_err = np.abs(log.states[:, md.IDX_VA] - 13.5)
        assert np.max(v_err) < 0.01
        assert np.max(np.abs(log.e_lat)) < 0.01
        assert np.max(np.abs(log.e_lon)) < 0.01
        assert not np.any(log.degraded)

    def test_determinism_same_seed(self):
        sc = short_line_scenario(measurement_noise={"v_a": 0.1, "phi": 0.005})
        log1, log2 = sim.run(sc), sim.run(sc)
        np.testing.assert_array_equal(log1.states, log2.states)
        np.testing.assert_array_equal(log1.controls, log2.controls)

    def test_seed_changes_noise_draws(self):
        sc1 = short_line_scenario(measurement_noise={"v_a": 0.2}, seed=1)
        sc2 = short_line_scenario(measurement_noise={"v_a": 0.2}, seed=2)
        assert not np.array_equal(sim.run(sc1).controls, sim.run(sc2).controls)

    def test_event_application_at_exact_tick(self):
        sc = short_line_scenario(duration=2.0, events=(
            sim.Event(time=1.0, kind="motor_fail"),
            sim.Event(time=1.5, kind="motor_restore")))
        log = sim.run(sc)
        assert not log.motor_failed[log.time < 1.0 - 1e-12].any()
        window = (log.time >= 1.0) & (log.time < 1.5)
        assert log.motor_failed[window].all()
        assert not log.motor_failed[log.time >= 1.5].any()
        assert log.events_applied == ((1.0, "motor_fail"), (1.5, "motor_restore"))

    def test_event_off_grid_rejected(self):
        with pytest.raises(ValueError):
            short_line_scenario(events=(sim.Event(time=1.0012345, kind="motor_fail"),))

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError):
            short_line_scenario(events=(
                sim.Event(time=2.0, kind="motor_fail"),
                sim.Event(time=1.0, kind="motor_restore")))

    def test_motor_restore_returns_weights_exactly(self):
        """The controller weight object is restored to the identical values."""
        from fwnmpc.nmpc import solver as nmpc_solver
        weights = nmpc_ocp.default_weights()
        failed = nmpc_solver.apply_throttle_failure_weight(weights)
        assert failed.r_z[nmpc_ocp.Z_U_T] == 1e6
        # round trip: the original object is untouched and reused on restore
        np.testing.assert_array_equal(weights.r_z, nmpc_ocp.default_weights().r_z)

    def test_prediction_matches_plant_at_next_tick(self):
        """With plant = model and zero wind, the one-step state prediction
        differs from the finely integrated plant only by integration error."""
        sc = short_line_scenario(duration=1.0)
        params = sc.plant_params
        trim = md.solve_trim(params, 13.5, 0.0)
        refs = nmpc_ocp.References.from_trim(trim)
        from fwnmpc.nmpc import solver as nmpc_solver
        ctrl = nmpc_solver.NmpcController(params, sc.ocp, sc.weights, refs)
        queue = pth.PathQueue(segments=sc.segments)
        x = sc.initial_state.as_array()
        for _ in range(3):
            control, sol = ctrl.step(md.AircraftState.from_array(x), queue,
                                     sc.wind)
            predicted = sol.states[1]
            for _ in range(int(round(sc.ocp.t_iter / sc.plant_dt))):
                x = md.rk4_step_array(x, control.as_array(), sc.wind, params,
                                      sc.plant_dt)
            err = np.abs(x - predicted)
            assert np.max(err) < 1e-5

    def test_helix_cold_period_qp_iterations(self):
        """The cold period's eight SQP iterations take at most 60 QP
        iterations in all: a QP iteration moves many bounds at once."""
        log = sim.run(dataclasses.replace(BUILTIN_SCENARIOS["helix"](), duration=0.1))
        assert log.feedback[0] == "rollout:cold" and log.sqp_iters[0] == 8
        assert log.qp_iters[0] <= 60

    def test_line_guidance_errors_converge_below_millirad(self):
        """Plant = prediction model, zero wind, straight line: both guidance
        errors settle below 1e-3 and stay there."""
        params = md.default_params()
        trim = md.solve_trim(params, 13.5, 0.0)
        sc = short_line_scenario(
            initial_state=dataclasses.replace(trim.state(d=-48.0), e=10.0),
            duration=20.0,
            ocp=nmpc_ocp.OcpConfig(n_steps=40, cold_start_sqp_iter=5))
        log = sim.run(sc)
        settled = log.time >= 15.0
        assert np.max(np.abs(log.eta_lat[settled])) < 1e-3
        assert np.max(np.abs(log.eta_lon[settled])) < 1e-3

    def test_cold_start_guard_rotates_reversed_heading(self):
        params = md.default_params()
        trim = md.solve_trim(params, 13.5, 0.0)
        seg = pth.LineSegment(b=np.array([2000.0, 0.0, -50.0]), chi_p=0.0,
                              gamma_p=0.0)
        queue = pth.PathQueue(segments=(seg,))
        backwards = dataclasses.replace(trim.state(d=-50.0), xi=np.pi)
        import fwnmpc.guidance as gd
        guarded = sim.cold_start_heading_guard(backwards, queue, md.WindVector(),
                                               gd.GuidanceConfig())
        assert abs(md.wrap_angle(guarded.xi)) < np.radians(10.0)
        aligned = trim.state(d=-50.0)
        unchanged = sim.cold_start_heading_guard(aligned, queue, md.WindVector(),
                                                 gd.GuidanceConfig())
        assert unchanged.xi == aligned.xi


    def test_plant_domain_error_ends_run_with_reason(self, monkeypatch, tmp_path):
        """A `ModelDomainError` in the plant step at tick 24 ends the run: the
        log keeps the three controller ticks before it, the report names the
        reason, and the CSV holds only the logged rows."""
        plant_step = md.rk4_step_array
        calls = []

        def failing_step(x, *args, **kwargs):
            if np.ndim(x) == 1:
                calls.append(1)
                if len(calls) == 25:
                    raise md.ModelDomainError("injected")
            return plant_step(x, *args, **kwargs)

        monkeypatch.setattr(md, "rk4_step_array", failing_step)
        log = sim.run(short_line_scenario())
        assert len(calls) == 25
        np.testing.assert_allclose(log.time, [0.0, 0.1, 0.2])
        assert log.end_reason == ("plant model domain error in the step from"
                                  " t=0.24 s: injected")
        assert f"end: {log.end_reason}" in sim.emit_report(log)
        out = tmp_path / "partial.csv"
        sim.emit_csv(log, out)
        text = out.read_text()
        assert len(text.splitlines()) == 1 + 3 and "injected" not in text
        assert sim.run(short_line_scenario(duration=0.2)).end_reason == sim.END_COMPLETED


class TestOneGuidanceKernel:
    @pytest.mark.parametrize("name", ["helix", "dubins_course"])
    def test_logged_errors_are_controller_output_rows(self, name):
        """The logged eta_lat and eta_lon are rows Y_ETA_LAT and Y_ETA_LON of
        `raw_outputs` at the logged state and segment, bit for bit."""
        sc = dataclasses.replace(BUILTIN_SCENARIOS[name](), duration=3.0)
        assert not sc.measurement_noise
        params = sc.controller_params or sc.plant_params
        log = sim.run(sc)
        for x, u, k, eta_lat, eta_lon in zip(log.states, log.controls, log.seg_index,
                                             log.eta_lat, log.eta_lon):
            ctx = pth.HorizonContext.allocate(1)
            ctx.fill_run(slice(None), sc.segments[k], x[None, :3])
            y = nmpc_ocp.raw_outputs(x[:, None], u[:, None], ctx, sc.wind, params,
                                     sc.guidance, sc.ocp)[:, 0]
            assert y[nmpc_ocp.Y_ETA_LAT].tobytes() == eta_lat.tobytes()
            assert y[nmpc_ocp.Y_ETA_LON].tobytes() == eta_lon.tobytes()


class TestSettledStats:
    @staticmethod
    def _synthetic_log(e_lat, e_lon, v_err, seg_index=None, kinds=("line",)):
        n = len(e_lat)
        t = np.arange(n, dtype=float)
        states = np.zeros((n, md.STATE_DIM))
        states[:, md.IDX_VA] = 13.5 + np.asarray(v_err, dtype=float)
        return sim.SimLog(
            scenario_name="synthetic", v_a_ref=13.5, segment_kinds=kinds,
            time=t, states=states, controls=np.zeros((n, 3)),
            eta_lat=np.zeros(n), eta_lon=np.zeros(n),
            e_lat=np.asarray(e_lat, dtype=float), e_lon=np.asarray(e_lon, dtype=float),
            d_dot_sp=np.zeros(n),
            seg_index=np.zeros(n, dtype=int) if seg_index is None
            else np.asarray(seg_index, dtype=int),
            x_sw=np.zeros(n), motor_failed=np.zeros(n, dtype=bool),
            wind=np.zeros((n, 3)), objective=np.zeros(n), kkt_residual=np.zeros(n),
            qp_active_set=np.zeros(n, dtype=int), sqp_iters=np.ones(n, dtype=int),
            obj_nonincrease=np.ones(n, dtype=bool), degraded=np.zeros(n, dtype=bool),
            wall_time_s=np.full(n, 1e-3), events_applied=())

    def test_perfect_tracking_gives_zeros(self):
        log = self._synthetic_log(np.zeros(100), np.zeros(100), np.zeros(100))
        stats = sim.settled_error_stats(log, settle_time=10.0)
        assert stats.max_abs_e_lat == 0.0
        assert stats.max_abs_e_lon == 0.0
        assert stats.airspeed_rmse == 0.0

    def test_known_max_after_settle(self):
        e_lat = np.zeros(100)
        e_lat[5] = 9.0    # inside the settle window, must be ignored
        e_lat[60] = -2.5
        e_lon = np.zeros(100)
        e_lon[70] = 0.75
        v_err = np.zeros(100)
        v_err[80:] = 0.3
        log = self._synthetic_log(e_lat, e_lon, v_err)
        stats = sim.settled_error_stats(log, settle_time=30.0)
        assert stats.max_abs_e_lat == pytest.approx(2.5)
        assert stats.max_abs_e_lon == pytest.approx(0.75)
        assert stats.airspeed_rmse == pytest.approx(np.sqrt(np.mean(v_err[30:] ** 2)))

    def test_segment_kind_and_switch_masks(self):
        seg_index = np.zeros(100, dtype=int)
        seg_index[40:60] = 1   # an arc in the middle
        e_lat = np.zeros(100)
        e_lat[45] = 5.0        # on the arc: excluded by kind filter
        e_lat[62] = 3.0        # within 5 s after switching back: excluded
        e_lat[75] = 0.5
        log = self._synthetic_log(e_lat, np.zeros(100), np.zeros(100),
                                  seg_index=seg_index, kinds=("line", "arc"))
        stats = sim.settled_error_stats(log, settle_time=0.0, segment_kinds=("line",),
                                        post_switch_exclude=5.0)
        assert stats.max_abs_e_lat == pytest.approx(0.5)


class TestCsvAndReport:
    def test_csv_header_and_determinism(self, tmp_path):
        sc = short_line_scenario()
        log = sim.run(sc)
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sim.emit_csv(log, path1)
        sim.emit_csv(sim.run(sc), path2)
        data1, data2 = path1.read_bytes(), path2.read_bytes()
        assert data1 == data2
        header = data1.decode().splitlines()[0]
        assert header == ",".join(sim.CSV_COLUMNS)
        assert "wall" not in header

    def test_csv_columns_unchanged(self):
        """Timing, feedback-path and degraded-reason telemetry stay out of
        the CSV."""
        assert sim.CSV_COLUMNS == (
            "time", "n", "e", "d", "v_a", "gamma", "xi", "phi", "theta", "p", "q", "r",
            "delta_t", "u_t", "phi_ref", "theta_ref", "eta_lat", "eta_lon", "e_lat",
            "e_lon", "d_dot_sp", "seg_index", "x_sw", "motor_failed", "wind_n", "wind_e",
            "wind_d", "objective", "kkt_residual", "qp_active_set", "sqp_iters",
            "obj_nonincrease", "degraded")

    def test_report_contents(self):
        log = sim.run(short_line_scenario())
        report = sim.emit_report(log, settle_time=1.0)
        assert "max |e_lat|" in report
        assert "solver wall time" in report
        assert "events" in report
        assert "periods with near-axis rollout nodes: 0" in report
        assert "preparation phase per period (ms): p50 " in report
        assert "synchronous linearizations" not in report
        assert "embedded feedback: 30 of 31 periods; rollout feedback: 1 (cold 1)" in report
        assert "degraded periods: 0\n" in report
        assert f"QP iterations per period: p50 {np.median(log.qp_iters):g}" \
               f"  max {np.max(log.qp_iters)}\n" in report
        assert log.qp_iters.shape == log.sqp_iters.shape and np.all(log.qp_iters >= 1)
        axis_nodes = np.zeros_like(log.axis_nodes)
        axis_nodes[[1, 3]] = [2, 1]
        report = sim.emit_report(dataclasses.replace(log, axis_nodes=axis_nodes))
        assert "periods with near-axis rollout nodes: 2" in report

        degraded = log.degraded.copy()
        degraded[[2, 4, 5]] = True
        reasons = list(log.degraded_reason)
        reasons[2:6] = ["lin_alg", "", "domain", "lin_alg"]
        feedback = list(log.feedback)
        feedback[7:9] = ["rollout:weights_changed"] * 2
        report = sim.emit_report(dataclasses.replace(
            log, degraded=degraded, degraded_reason=tuple(reasons), feedback=tuple(feedback)))
        assert "degraded periods: 3 (domain 1, lin_alg 2)" in report
        assert "embedded feedback: 28 of 31 periods; rollout feedback: 3" \
               " (cold 1, weights_changed 2)" in report


class TestTwoPhaseController:
    """`sim.run` drives a preparation phase between the controller periods."""

    def test_phases_timed_apart(self):
        log = sim.run(short_line_scenario(duration=1.0))
        assert log.feedback == ("rollout:cold",) + ("embedded",) * 10
        assert np.all(log.prep_time_s[:-1] > 0.0) and np.isnan(log.prep_time_s[-1])
        assert np.all(log.wall_time_s > 0.0)

    def test_embedded_rows_carry_their_line_search(self):
        """A trim cruise embeds every warm period, and each row, the last
        one's too, carries the objective of its deferred line search."""
        log = sim.run(short_line_scenario(duration=1.0))
        assert log.feedback == ("rollout:cold",) + ("embedded",) * 10
        assert np.all(np.isfinite(log.objective)) and np.all(log.obj_nonincrease)

    def test_benchmark_probe_sees_every_period_and_qp(self, monkeypatch):
        """A short helix run calls `NmpcController.step` once per logged
        period, never solves a QP inside `prepare`, and solves every QP
        through `solver.solve_box_qp`, the name the benchmark's QP probe and
        tracer patch."""
        from fwnmpc.nmpc import qp as nmpc_qp
        from fwnmpc.nmpc import solver as nmpc_solver
        counts = {"step": 0, "probed_qp": 0, "qp": 0, "qp_in_prepare": 0}
        in_prepare = [False]
        step, prepare = nmpc_solver.NmpcController.step, nmpc_solver.NmpcController.prepare
        probed, result = nmpc_solver.solve_box_qp, nmpc_qp.QpResult

        def step_probe(*args, **kwargs):
            counts["step"] += 1
            return step(*args, **kwargs)

        def prepare_probe(*args, **kwargs):
            in_prepare[0] = True
            try:
                return prepare(*args, **kwargs)
            finally:
                in_prepare[0] = False

        def qp_probe(*args, **kwargs):
            counts["probed_qp"] += 1
            return probed(*args, **kwargs)

        class CountedResult(result):
            # every solve returns exactly one result
            def __init__(self, *args, **kwargs):
                counts["qp"] += 1
                counts["qp_in_prepare"] += in_prepare[0]
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(nmpc_solver.NmpcController, "step", step_probe)
        monkeypatch.setattr(nmpc_solver.NmpcController, "prepare", prepare_probe)
        monkeypatch.setattr(nmpc_solver, "solve_box_qp", qp_probe)
        monkeypatch.setattr(nmpc_qp, "QpResult", CountedResult)
        log = sim.run(dataclasses.replace(BUILTIN_SCENARIOS["helix"](), duration=1.0))
        assert counts["step"] == log.time.size == 11
        assert counts["qp_in_prepare"] == 0
        assert counts["qp"] == counts["probed_qp"] >= log.time.size
        assert log.feedback.count("embedded") == 10


SCENARIO_YAML = textwrap.dedent("""\
    name: yaml_line
    duration: 2.0
    v_a_ref: 13.5
    initial_state: {d: -50.0, v_a: 13.5}
    wind: {w_e: 1.0}
    segments:
      - {type: line, b: [2000.0, 0.0, -50.0], chi_p_deg: 0.0, gamma_p_deg: 0.0}
      - {type: arc, c: [2000.0, 45.0, -50.0], r_signed: 45.0, chi_p_deg: 90.0,
         gamma_p_deg: 0.0}
      - {type: loiter, c: [2000.0, 120.0, -50.0], r_signed: 45.0}
    ocp: {n_steps: 15, cold_start_sqp_iter: 2}
    switching: {eta_acpt_deg: 15.0}
    events:
      - {time: 1.0, kind: motor_fail}
""")


class TestConfigLoading:
    def test_scenario_yaml_round(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(SCENARIO_YAML)
        scenario = cfgio.load_scenario(path)
        assert scenario.name == "yaml_line"
        assert len(scenario.segments) == 3
        assert isinstance(scenario.segments[1], pth.ArcSegment)
        assert scenario.segments[1].chi_p == pytest.approx(np.pi / 2)
        assert scenario.ocp.n_steps == 15
        assert scenario.events[0].kind == "motor_fail"
        log = sim.run(scenario)
        assert log.time.shape[0] == 21

    def test_unknown_scenario_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SCENARIO_YAML + "unknown_knob: 1.0\n")
        with pytest.raises(cfgio.ConfigError, match="unknown_knob"):
            cfgio.load_scenario(path)

    def test_unknown_model_key_rejected(self):
        with pytest.raises(cfgio.ConfigError, match="c_t9"):
            cfgio.load_model_params({"open_loop": {"c_t9": 1.0}})

    def test_model_params_load_exact_names(self):
        node = {"closed_loop": {"l_p": -5.0},
                "open_loop": {"c_d0": 0.04},
                "constants": {"m": 2.65, "g": 9.81, "s_wing": 0.39, "rho_air": 1.225}}
        params = cfgio.load_model_params(node)
        assert params.closed_loop.l_p == -5.0
        assert params.open_loop.c_d0 == 0.04

    def test_bad_segment_type_rejected(self, tmp_path):
        bad = SCENARIO_YAML.replace("type: loiter", "type: spiral")
        path = tmp_path / "bad2.yaml"
        path.write_text(bad)
        with pytest.raises(cfgio.ConfigError, match="segment type"):
            cfgio.load_scenario(path)

    @pytest.mark.parametrize("index, edit, match", [
        (0, {"b": None}, "missing required key 'b'"),
        (1, {"chi_p_deg": None}, "missing required key 'chi_p_deg'"),
        (2, {"r_signed": None}, "missing required key 'r_signed'"),
        (1, {"chi_p_deg": "north"}, "north"),
        (0, {"b": [2000.0, 0.0]}, "3-vector"),
    ], ids=["missing_b", "missing_chi_p_deg", "missing_r_signed", "chi_p_deg_a_word",
            "two_element_b"])
    def test_malformed_segment_names_it(self, index, edit, match):
        """A missing key, a word where a number belongs or a 2-element point
        is a `ConfigError` naming the segment, not a bare KeyError or
        ValueError, nor a failure at the first controller step."""
        node = yaml.safe_load(SCENARIO_YAML)
        segment = node["segments"][index]
        for key, value in edit.items():
            if value is None:
                del segment[key]
            else:
                segment[key] = value
        with pytest.raises(cfgio.ConfigError, match=rf"segments\[{index}\]: .*{match}"):
            cfgio.load_scenario(node)

    def test_segments_not_a_list_rejected(self):
        node = yaml.safe_load(SCENARIO_YAML)
        node["segments"] = 5
        with pytest.raises(cfgio.ConfigError, match="segments: expected a list"):
            cfgio.load_scenario(node)

    def test_loading_from_a_path_closes_the_file(self, tmp_path):
        scenario_path, params_path = tmp_path / "scn.yaml", tmp_path / "params.yaml"
        scenario_path.write_text(SCENARIO_YAML)
        params_path.write_text("open_loop: {c_d0: 0.04}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfgio.load_scenario(scenario_path)
            cfgio.load_model_params(params_path)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("field, value", [("n_steps", "70.6"),
                                              ("cold_start_sqp_iter", "2.5"),
                                              ("seed", "1.5")])
    def test_non_integral_integer_field_rejected(self, tmp_path, field, value):
        """An integer field is never truncated: 70.6 is an error, not 70."""
        text = SCENARIO_YAML + f"seed: {value}\n" if field == "seed" else \
            SCENARIO_YAML.replace("ocp: {n_steps: 15, cold_start_sqp_iter: 2}",
                                  f"ocp: {{n_steps: 15, cold_start_sqp_iter: 2, {field}: {value}}}")
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(cfgio.ConfigError, match=f"{field}: expected an integer"):
            cfgio.load_scenario(path)

    @pytest.mark.parametrize("key, value", [
        ("seed", None), ("duration", None), ("v_a_ref", None), ("plant_dt", None),
        ("ocp.n_steps", [1]), ("seed", float("inf"))])
    def test_value_of_the_wrong_type_names_its_key(self, key, value):
        """A null, a list or an infinity where a number belongs is a
        `ConfigError` naming the key, not a bare TypeError or OverflowError."""
        node = yaml.safe_load(SCENARIO_YAML)
        *parents, leaf = key.split(".")
        target = node
        for name in parents:
            target = target[name]
        target[leaf] = value
        with pytest.raises(cfgio.ConfigError, match=rf"{re.escape(key)}: expected"):
            cfgio.load_scenario(node)

    def test_integral_integer_fields_load(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(SCENARIO_YAML.replace("n_steps: 15", "n_steps: 15.0") + "seed: 7\n")
        scenario = cfgio.load_scenario(path)
        assert scenario.ocp.n_steps == 15 and scenario.seed == 7

    def test_cold_start_without_iterations_rejected(self, tmp_path):
        """`cold_start_sqp_iter: 0` is an error, not one iteration."""
        with pytest.raises(ValueError, match="cold_start_sqp_iter"):
            nmpc_ocp.OcpConfig(cold_start_sqp_iter=0)
        path = tmp_path / "bad.yaml"
        path.write_text(SCENARIO_YAML.replace("cold_start_sqp_iter: 2", "cold_start_sqp_iter: 0"))
        with pytest.raises(cfgio.ConfigError, match="cold_start_sqp_iter"):
            cfgio.load_scenario(path)

    def test_max_sqp_iter_is_not_an_ocp_key(self, tmp_path):
        """A warm period runs one SQP iteration; there is no key to change it."""
        path = tmp_path / "bad.yaml"
        path.write_text(SCENARIO_YAML.replace("cold_start_sqp_iter: 2",
                                              "cold_start_sqp_iter: 2, max_sqp_iter: 1"))
        with pytest.raises(cfgio.ConfigError, match="max_sqp_iter"):
            cfgio.load_scenario(path)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(BUILTIN_SCENARIOS)

    def test_simulate_yaml_scenario(self, tmp_path, capsys):
        scn = tmp_path / "scn.yaml"
        scn.write_text(SCENARIO_YAML.replace("- {time: 1.0, kind: motor_fail}", "")
                       .replace("events:\n", ""))
        out = tmp_path / "run.csv"
        code = cli.main(["simulate", "--scenario", str(scn), "--out", str(out),
                         "--report"])
        assert code == 0
        assert out.exists()
        assert "max |e_lat|" in capsys.readouterr().out

    def test_simulate_unknown_scenario_fails(self, tmp_path):
        code = cli.main(["simulate", "--scenario", "no_such", "--out",
                         str(tmp_path / "x.csv")])
        assert code == 2

    def test_simulate_reports_run_cut_short(self, monkeypatch, tmp_path, capsys):
        """A plant `ModelDomainError` is named in the summary line, and
        `--strict` fails the run even though no period degraded."""
        plant_step = md.rk4_step_array
        calls = []

        def failing_step(x, *args, **kwargs):
            if np.ndim(x) == 1:
                calls.append(1)
                if len(calls) == 25:
                    raise md.ModelDomainError("injected")
            return plant_step(x, *args, **kwargs)

        monkeypatch.setattr(md, "rk4_step_array", failing_step)
        monkeypatch.setitem(BUILTIN_SCENARIOS, "test_line", short_line_scenario)
        argv = ["simulate", "--scenario", "test_line", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "3 samples, 0 degraded periods; run cut short: plant model domain" in out
        assert "t=0.24 s: injected" in out
        calls.clear()
        assert cli.main([*argv, "--strict"]) == 1

    @pytest.mark.parametrize("structure, n_sets", [("cl", 4), ("ol", 5)], ids=["cl", "ol"])
    def test_sysid_generate_fit_validate_round_trip(self, tmp_path, capsys, structure,
                                                     n_sets):
        data_dir = tmp_path / "data"
        assert cli.main(["sysid", "generate", "--structure", structure,
                         "--out-dir", str(data_dir)]) == 0
        files = sorted(str(p) for p in data_dir.glob("*.csv"))
        assert len(files) == n_sets
        report = tmp_path / "fit.txt"
        params_yaml = tmp_path / "params.yaml"
        code = cli.main(["sysid", "fit", "--structure", structure, "--data", *files,
                         "--report", str(report), "--params-out", str(params_yaml),
                         "--init-perturb", "0.1"])
        assert code == 0
        assert f"structure: {structure}" in report.read_text()
        code = cli.main(["sysid", "validate", "--structure", structure, "--params",
                         str(params_yaml), "--data", files[0]])
        assert code == 0
        assert "validation RMSE" in capsys.readouterr().out

    def test_console_script_entry(self):
        result = subprocess.run([sys.executable, "-m", "fwnmpc.cli", "list-scenarios"],
                                env=checkout_env(), capture_output=True, text=True)
        assert result.returncode == 0
        assert "helix" in result.stdout
