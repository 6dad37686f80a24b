"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them
inline); a failed assertion is the FAIL line. Scenario runs are shared
through session fixtures; the determinism criterion re-runs them.
"""

import os
import time

import numpy as np
import pytest

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc import sim, sysid
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.scenarios import scenario_dubins_course, scenario_helix, scenario_motor_failure
from oracles import brute_force_arc_point, central_difference_jacobians, \
    random_envelope_states, run_at_thread_count


def _csv_bytes(log) -> bytes:
    import tempfile
    with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as tmp:
        path = tmp.name
    sim.emit_csv(log, path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    return data


@pytest.fixture(scope="session")
def helix_run():
    t0 = time.perf_counter()
    log = sim.run(scenario_helix())
    wall = time.perf_counter() - t0
    return log, wall, _csv_bytes(log)


@pytest.fixture(scope="session")
def dubins_run():
    log = sim.run(scenario_dubins_course())
    return log, _csv_bytes(log)


@pytest.fixture(scope="session")
def motor_run():
    log = sim.run(scenario_motor_failure())
    return log, _csv_bytes(log)


class TestCriterion1Helix:
    def test_helix_tracking_bounds(self, helix_run):
        log, wall, _ = helix_run
        stats = sim.settled_error_stats(log, settle_time=30.0)
        assert stats.max_abs_e_lat <= 2.0
        assert stats.max_abs_e_lon <= 0.5
        assert stats.airspeed_rmse <= 0.5
        assert wall < 60.0
        assert not np.any(log.degraded)
        print(f"\nCRITERION 1 PASS: helix settled max|e_lat|={stats.max_abs_e_lat:.3f} m"
              f" (<=2), max|e_lon|={stats.max_abs_e_lon:.3f} m (<=0.5),"
              f" v RMSE={stats.airspeed_rmse:.3f} m/s (<=0.5), wall={wall:.1f} s (<60)")


class TestCriterion2DubinsCourse:
    def test_straight_segment_tracking_in_wind(self, dubins_run):
        log, _ = dubins_run
        stats = sim.settled_error_stats(
            log, settle_time=10.0, segment_kinds=("line",),
            post_switch_exclude=5.0, pre_switch_exclude=8.0)
        assert stats.n_samples > 100
        assert stats.max_abs_e_lat <= 1.0
        print(f"\nCRITERION 2 PASS (tracking): settled straight-segment"
              f" max|e_lat|={stats.max_abs_e_lat:.3f} m (<=1) over"
              f" {stats.n_samples} samples in 5 m/s wind")

    def test_all_corners_switch_cleanly(self, dubins_run):
        log, _ = dubins_run
        seq = [int(log.seg_index[i]) for i in np.flatnonzero(np.diff(log.seg_index)) + 1]
        expected = list(range(1, len(log.segment_kinds)))
        assert seq == expected, f"switch sequence {seq} != {expected}"
        assert np.all(np.diff(log.seg_index) >= 0)
        print(f"\nCRITERION 2 PASS (switching): visited all {len(expected) + 1}"
              f" segments in order, none skipped or revisited")


class TestCriterion3MotorFailure:
    def test_failure_scenario_bounds(self, motor_run):
        log, _ = motor_run
        v_ref = log.v_a_ref
        fail_window = (log.time >= 15.5) & (log.time <= 34.0)
        max_e_lat = float(np.max(np.abs(log.e_lat[fail_window])))
        assert max_e_lat <= 1.0

        cfg = nmpc_ocp.OcpConfig()
        alpha = log.states[:, md.IDX_THETA] - log.states[:, md.IDX_GAMMA]
        assert np.all(alpha <= cfg.alpha_plus + cfg.delta_alpha)
        assert np.all(alpha >= cfg.alpha_minus - cfg.delta_alpha)

        v_a = log.states[:, md.IDX_VA]
        recovery = []
        for t_event, t_next in ((15.5, 34.0), (34.0, float(log.time[-1]))):
            window = (log.time >= t_event + 10.0) & (log.time <= t_next)
            worst = float(np.max(np.abs(v_a[window] - v_ref)))
            recovery.append(worst)
            assert worst <= 1.0
        assert not np.any(log.degraded)

        # the huge throttle weight pins the command to its trim reference
        # within a second of activation and keeps it there until the restore
        # event fires (the t=34.0 sample is already post-restore)
        trim = md.solve_trim(scenario_motor_failure().plant_params, v_ref, 0.0)
        throttle_err = np.abs(log.controls[:, 0] - trim.u_t)
        first_second = (log.time >= 15.5) & (log.time <= 16.5)
        assert np.all(np.diff(throttle_err[first_second]) <= 1e-9)
        pinned = (log.time > 16.5) & (log.time < 34.0)
        assert np.max(throttle_err[pinned]) <= 1e-3
        print(f"\nCRITERION 3 PASS: failure-window max|e_lat|={max_e_lat:.3f} m (<=1),"
              f" alpha in [{np.degrees(alpha.min()):.2f}, {np.degrees(alpha.max()):.2f}] deg"
              f" (hard bounds +/- transition), v recovery {recovery[0]:.3f}/"
              f"{recovery[1]:.3f} m/s (<=1 within 10 s of each event)")


class TestCriterion4SolverTiming:
    def test_timing_logged_advisory(self, helix_run, motor_run):
        """Timing targets are advisory: logged, never asserted."""
        helix_log, _, _ = helix_run
        motor_log, _ = motor_run
        mean_70 = 1e3 * float(np.mean(helix_log.wall_time_s))
        mean_40 = 1e3 * float(np.mean(motor_log.wall_time_s))
        verdict_70 = "meets" if mean_70 < 100.0 else "misses"
        verdict_40 = "meets" if mean_40 < 50.0 else "misses"
        print(f"\nCRITERION 4 LOGGED (advisory): N=70 mean step {mean_70:.1f} ms"
              f" ({verdict_70} <100 ms target); N=40 mean step {mean_40:.1f} ms"
              f" ({verdict_40} <50 ms target)")


class TestOneFeedbackPath:
    def test_rollouts_only_where_no_preparation_fits(self, helix_run, dubins_run,
                                                     motor_run):
        """Every warm period embeds, except motor_failure's two periods whose
        throttle weight changed at an event."""
        motor_log = motor_run[0]
        event_rows = [int(np.argmin(np.abs(motor_log.time - t_ev)))
                      for t_ev, _ in motor_log.events_applied]
        assert len(event_rows) == 2
        for log, weights_changed in ((helix_run[0], []), (dubins_run[0], []),
                                     (motor_log, event_rows)):
            rollouts = {i: path for i, path in enumerate(log.feedback) if path != "embedded"}
            expected = {0: "rollout:cold"} | {i: "rollout:weights_changed"
                                               for i in weights_changed}
            assert rollouts == expected, log.scenario_name
        print("\nONE FEEDBACK PATH PASS: helix and dubins_course embed every warm"
              " period, motor_failure all but its 2 weight changes")


@pytest.fixture(scope="module")
def params():
    return md.default_params()


@pytest.fixture(scope="module")
def training(params):
    return {"cl": sysid.make_training_sets(params, "cl"),
            "ol": sysid.make_training_sets(params, "ol")}


class TestCriterion5SysidRecovery:
    N_SEEDS = 10

    def test_noiseless_recovery(self, params, training):
        worst = {}
        for structure, truth in (("cl", params.closed_loop.as_array()),
                                 ("ol", params.open_loop.as_array())):
            init = sysid.perturb_params(truth, 0.2, seed=42)
            report = sysid.estimate(structure, init, training[structure],
                                    constants=params.constants)
            assert report.converged
            rel = np.abs(report.params / truth - 1.0)
            worst[structure] = float(np.max(rel))
            assert worst[structure] <= 1e-3
        print(f"\nCRITERION 5 PASS (noiseless): max relative error"
              f" cl={worst['cl']:.2e}, ol={worst['ol']:.2e} (<=1e-3)")

    def test_noisy_recovery_identifiable(self, params, training):
        """Ten-seed Monte Carlo at validation-table noise magnitudes.

        A parameter is identifiable when its mean Gauss-Newton relative
        standard error stays below 2.5%; those must recover within 5%
        relative RMS across the seeds.
        """
        summary = {}
        for structure, truth in (("cl", params.closed_loop.as_array()),
                                 ("ol", params.open_loop.as_array())):
            errors = np.zeros((self.N_SEEDS, truth.size))
            rel_stds = np.zeros_like(errors)
            for seed in range(self.N_SEEDS):
                noisy = [sysid.add_output_noise(ds, seed=seed * 101 + i)
                         for i, ds in enumerate(training[structure])]
                init = sysid.perturb_params(truth, 0.2, seed=seed + 7)
                # noisy optima sit on weak-direction plateaus; the iteration
                # cap is far beyond what the identifiable directions need
                report = sysid.estimate(structure, init, noisy,
                                        constants=params.constants,
                                        grad_tol=1e-6, step_tol=1e-8, max_iter=35)
                errors[seed] = report.params / truth - 1.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel_stds[seed] = report.param_std / np.abs(report.params)
            mean_std = np.mean(rel_stds, axis=0)
            identifiable = mean_std <= sysid.IDENTIFIABLE_REL_STD
            assert np.count_nonzero(identifiable) >= 3
            rms = np.sqrt(np.mean(errors ** 2, axis=0))
            names = sysid.CL_PARAM_NAMES if structure == "cl" else sysid.OL_PARAM_NAMES
            for i in np.flatnonzero(identifiable):
                assert rms[i] <= 0.05, f"{structure}:{names[i]} rms {rms[i]:.3f}"
            summary[structure] = (int(np.count_nonzero(identifiable)),
                                  float(np.max(rms[identifiable])))
        print(f"\nCRITERION 5 PASS (noisy, {self.N_SEEDS} seeds): identifiable"
              f" params within 5% RMS -- cl: {summary['cl'][0]} params, worst"
              f" {summary['cl'][1]:.3%}; ol: {summary['ol'][0]} params, worst"
              f" {summary['ol'][1]:.3%}")

    def test_holdout_replay_bounded(self, params):
        holdout = sysid.make_freeform_dataset(params, duration=60.0, seed=99)
        result = sysid.open_loop_replay(params, holdout)
        assert holdout.t[-1] >= 60.0
        assert result["bounded"]
        print(f"\nCRITERION 5 PASS (replay): 60 s held-out open-loop replay bounded,"
              f" v_a RMSE={result['rmse']['v_a']:.2e} m/s")


class TestCriterion6NumericalProperties:
    def test_rk4_order(self):
        params = md.default_params()
        trim = md.solve_trim(params, 13.5, 0.0)
        control = np.array([0.6, 0.25, 0.05])
        wind = md.WindVector(1.0, -0.5, 0.1)

        def integrate(dt):
            x = trim.state().as_array()
            for _ in range(int(round(5.0 / dt))):
                x = md.rk4_step_array(x, control, wind, params, dt)
            return x

        x1, x2, x4 = integrate(0.04), integrate(0.02), integrate(0.01)
        order = float(np.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x4)))
        assert 3.8 <= order <= 4.2
        print(f"\nCRITERION 6 PASS (integration): measured RK4 order {order:.3f}"
              f" in [3.8, 4.2]")

    def test_shooting_jacobians_vs_central_difference(self):
        params = md.default_params()
        rng = np.random.default_rng(2718)
        states = random_envelope_states(rng, 100)
        controls = np.column_stack([rng.uniform(0, 1, 100),
                                    rng.uniform(-0.5, 0.5, 100),
                                    rng.uniform(-0.25, 0.25, 100)])
        wind = md.WindVector(1.0, 2.0, -0.3)
        a_all, b_all = nmpc_ocp.rk4_jacobians(states, controls, wind, params, 0.1)
        worst = 0.0
        for k in range(100):
            a_ref, b_ref = central_difference_jacobians(states[k], controls[k],
                                                        wind, params, 0.1)
            rel_a = np.linalg.norm(a_all[k] - a_ref) / np.linalg.norm(a_ref)
            rel_b = np.linalg.norm(b_all[k] - b_ref) / np.linalg.norm(b_ref)
            worst = max(worst, rel_a, rel_b)
        assert worst <= 1e-4
        print(f"\nCRITERION 6 PASS (sensitivities): worst relative deviation"
              f" {worst:.2e} over 100 envelope states (<=1e-4)")

    def test_objective_nonincrease_and_bounds_in_scenarios(self, helix_run,
                                                           dubins_run, motor_run):
        cfg = nmpc_ocp.OcpConfig()
        lo, hi = cfg.control_lower(), cfg.control_upper()
        for log in (helix_run[0], dubins_run[0], motor_run[0]):
            assert np.all(log.obj_nonincrease), log.scenario_name
            assert np.all(log.controls >= lo) and np.all(log.controls <= hi)
        print("\nCRITERION 6 PASS (solver discipline): objective non-increase on"
              " every logged iteration of criteria 1-3; all controls within box"
              " bounds on every step")

    def test_track_error_bound_branch_continuity(self):
        for t_b in (0.5, 1.0, 2.5):
            linear = 1.0 * t_b
            smooth = 0.5 * t_b * (1.0 + 1.0 ** 2)
            assert linear == smooth == gd.track_error_bound(1.0, t_b)
        print("\nCRITERION 6 PASS (guidance): track-error-bound branches agree"
              " exactly at unit speed")

    def test_alpha_soft_continuity_and_hard_bound_value(self):
        cfg = nmpc_ocp.OcpConfig()
        assert nmpc_ocp.alpha_soft(cfg.alpha_plus, cfg) == pytest.approx(1.0, abs=1e-12)
        assert nmpc_ocp.alpha_soft(cfg.alpha_minus, cfg) == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(cfg.alpha_minus - 2 * cfg.delta_alpha,
                           cfg.alpha_plus + 2 * cfg.delta_alpha, 20001)
        vals = nmpc_ocp.alpha_soft(grid, cfg)
        # a continuous ramp steps by at most (max slope) * (grid spacing);
        # the steepest point sampled is 3 transition-widths past an onset
        max_slope = 6.0 / cfg.delta_alpha
        h = grid[1] - grid[0]
        assert np.max(np.abs(np.diff(vals))) <= max_slope * h * 1.05
        print("\nCRITERION 6 PASS (soft constraint): continuous ramp, value 1.0"
              " exactly at both hard bounds")

    def test_closest_point_brute_force_thousand_queries(self):
        rng = np.random.default_rng(31415)
        worst = 0.0
        checked = 0
        while checked < 1000:
            radius = rng.uniform(20.0, 80.0) * rng.choice([-1.0, 1.0])
            c = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100),
                          rng.uniform(-150, -50)])
            if rng.uniform() < 0.2:
                seg = pth.LoiterSegment(c=c, r_signed=radius)
            else:
                seg = pth.ArcSegment(c=c, r_signed=radius,
                                     chi_p=rng.uniform(-np.pi, np.pi),
                                     gamma_p=rng.uniform(-0.25, 0.25))
            r = c + np.array([rng.uniform(-150, 150), rng.uniform(-150, 150),
                              rng.uniform(-80, 80)])
            if np.hypot(*(r[:2] - c[:2])) < 1.0:
                continue
            cp = pth.closest_point_arc(seg, r)
            expected, _ = brute_force_arc_point(seg, r)
            worst = max(worst, float(np.linalg.norm(cp.p - expected)))
            checked += 1
        assert worst <= 1e-6
        print(f"\nCRITERION 6 PASS (closest point): worst grid/leg-search deviation"
              f" {worst:.2e} m over 1000 random queries (<=1e-6)")


_SUBPROCESS_SNIPPET = """
import sys
from fwnmpc import sim
from fwnmpc.scenarios import BUILTIN_SCENARIOS
log = sim.run(BUILTIN_SCENARIOS[sys.argv[1]]())
sim.emit_csv(log, sys.argv[2])
"""


class TestCriterion7Determinism:
    @pytest.mark.parametrize("name", ["helix", "dubins_course", "motor_failure"])
    def test_csv_byte_identical(self, name, helix_run, dubins_run, motor_run,
                                tmp_path):
        baseline = {"helix": helix_run[2], "dubins_course": dubins_run[1],
                    "motor_failure": motor_run[1]}[name]

        # second in-process run
        from fwnmpc.scenarios import BUILTIN_SCENARIOS
        rerun = sim.run(BUILTIN_SCENARIOS[name]())
        rerun_path = tmp_path / f"{name}_rerun.csv"
        sim.emit_csv(rerun, rerun_path)
        assert rerun_path.read_bytes() == baseline

        # run under a different BLAS/OpenMP thread-count setting
        sub_path = tmp_path / f"{name}_threads1.csv"
        run_at_thread_count(_SUBPROCESS_SNIPPET, name, sub_path, threads=1)
        assert sub_path.read_bytes() == baseline
        print(f"\nCRITERION 7 PASS ({name}): CSV byte-identical across two runs"
              f" and across thread-count settings")
