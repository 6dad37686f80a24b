"""Benchmark workloads: the built-in closed-loop scenarios and a sysid fit.

Every workload is driven only through public fwnmpc functions. A run does
the same work at least three times, and more while the next repeat still
fits in the time budget. Each repeat is a set-up (its median is reported)
followed by the measured work: one scenario run, or one fit of each
structure. A check phase then re-evaluates the acceptance tolerances on the
outputs and proves the repeats agree bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import resource
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc import scenarios, sim, sysid
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.nmpc import solver as nmpc_solver

import tracer as tr

END_TO_END = (
    ("feedback_p50_ms", "ms"),
    ("realtime_factor", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Printed with the end-to-end metrics but not part of the result object,
# because they do not repeat within the bounds across seeds (README):
# the tail percentile moves with the share of a run a shared host is slow,
# and a fit's evaluation count with the seed.
UNGATED = (
    ("feedback_p90_ms", "ms"),
    ("fit_s", "s"),
)

# (name, unit) of every per-layer metric; the traced run reports all of them
# on every workload, with 0 where the layer is not on the workload's path.
PER_LAYER = (
    ("model.rk4_scalar_us", "us"),
    ("model.rk4_scalar_calls", "calls/op"),
    ("model.rk4_batch_ms", "ms"),
    ("model.rk4_batch_calls", "calls/op"),
    ("model.rk4_batch_cols", "cols/call"),
    ("model.trim_ms", "ms"),
    ("paths.closest_point_us", "us"),
    ("paths.closest_point_calls", "calls/op"),
    ("paths.switch_us", "us/op"),
    ("guidance.errors_us", "us"),
    ("nmpc.step_ms", "ms"),
    ("nmpc.step_self_ms", "ms"),
    ("nmpc.sqp_iters", "iters/op"),
    ("nmpc.sqp_self_ms", "ms"),
    ("nmpc.rollout_ms", "ms"),
    ("nmpc.rollout_self_ms", "ms"),
    ("nmpc.rollouts_per_iter", "calls/iter"),
    ("nmpc.residuals_ms", "ms"),
    ("nmpc.residuals_calls", "calls/op"),
    ("nmpc.raw_outputs_ms", "ms"),
    ("nmpc.raw_outputs_calls", "calls/op"),
    ("nmpc.raw_outputs_cols", "cols/call"),
    ("nmpc.dyn_jac_ms", "ms"),
    ("nmpc.out_jac_ms", "ms"),
    ("nmpc.qp_ms", "ms"),
    ("nmpc.qp_iters", "iters/call"),
    ("nmpc.qp_active", "bounds/call"),
    ("nmpc.qp_iteration_limit", "count"),
    ("nmpc.halvings", "count/op"),
    ("nmpc.ls_full_step_ratio", "ratio"),
    ("sim.self_ms_per_period", "ms/op"),
    ("sim.emit_csv_ms", "ms"),
    ("sim.csv_bytes", "bytes"),
    ("sysid.gen_s", "s"),
    ("sysid.fit_s", "s"),
    ("sysid.residual_single_ms", "ms"),
    ("sysid.residual_single_calls", "calls/op"),
    ("sysid.residual_batch_ms", "ms"),
    ("sysid.residual_batch_calls", "calls/op"),
    ("sysid.lm_iters", "iters/op"),
    ("sysid.lm_trials", "trials/op"),
    ("sysid.lm_accept_ratio", "ratio"),
    ("sysid.validate_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
)

STRUCTURES = ("cl", "ol")
# The measured work is done at least this many times over. The program is
# deterministic, so the repeats do the same work; each operation keeps its
# fastest timing, since a neighbour's load on a shared host only ever adds.
MIN_REPEATS = 3
SYSID_REL_TOL = 0.10          # single-fit form of criterion 5 (5 % RMS over seeds)


@dataclass(frozen=True)
class ClosedLoop:
    """A built-in scenario flown through `sim.run`."""

    builder: object
    duration: float
    checks: object
    limits: dict = field(default_factory=dict)

    def scenario(self, seed: int) -> sim.Scenario:
        """The built-in scenario with a seed-drawn initial-state offset.

        The offset (position within 0.2 m north and east and 0.1 m down,
        airspeed within 0.1 m/s) changes every sample of the run but not the
        amount of solver work, and decays long before any check window opens.
        """
        base = self.builder()
        rng = np.random.default_rng(seed)
        d_n, d_e = rng.uniform(-0.2, 0.2, 2)
        d_d, d_v = rng.uniform(-0.1, 0.1, 2)
        s0 = base.initial_state
        initial = replace(s0, n=s0.n + d_n, e=s0.e + d_e, d=s0.d + d_d, v_a=s0.v_a + d_v)
        return replace(base, initial_state=initial, duration=self.duration)


@dataclass(frozen=True)
class Sysid:
    """Seeded noisy fits of both model structures."""

    limits: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    value: float
    limit: float
    ok: bool
    failed: np.ndarray      # per-period mask of operations this check fails


def _window_check(name, value, limit, window, le=True) -> Check:
    """A check on an aggregate over a window: a miss fails every period in
    it, and an empty window (run too short to reach it) is a miss that fails
    every period of the run."""
    empty = not np.any(window)
    ok = (not empty) and bool(value <= limit if le else value >= limit)
    failed = np.ones_like(window) if empty else (window if not ok else np.zeros_like(window))
    return Check(name, float(value), float(limit), ok, failed)


def _period_check(name, bad, window, limit, value) -> Check:
    """A check per period: the periods in `window` flagged `bad` fail."""
    empty = not np.any(window)
    failed = np.ones_like(window) if empty else (bad & window)
    return Check(name, float(value), float(limit), not np.any(failed), failed)


def helix_checks(log: sim.SimLog, scenario: sim.Scenario, lim: dict) -> list:
    """Criterion 1: settled tracking bounds after the settling time."""
    st = sim.settled_error_stats(log, settle_time=lim["settle_time"])
    window = log.time >= lim["settle_time"]
    return [
        _window_check("settled_max_abs_e_lat_m", st.max_abs_e_lat, lim["e_lat"], window),
        _window_check("settled_max_abs_e_lon_m", st.max_abs_e_lon, lim["e_lon"], window),
        _window_check("settled_airspeed_rmse_mps", st.airspeed_rmse, lim["v_rmse"], window),
    ]


def dubins_checks(log: sim.SimLog, scenario: sim.Scenario, lim: dict) -> list:
    """Criterion 2: straight-leg tracking in wind and in-order switching."""
    st = sim.settled_error_stats(
        log, settle_time=lim["settle_time"], segment_kinds=("line",),
        post_switch_exclude=lim["post_switch_exclude"],
        pre_switch_exclude=lim["pre_switch_exclude"])
    window = log.time >= lim["settle_time"]
    samples_ok = st.n_samples >= lim["min_samples"]
    e_lat = st.max_abs_e_lat if samples_ok else float("inf")
    seq = [int(log.seg_index[i]) for i in np.flatnonzero(np.diff(log.seg_index)) + 1]
    in_order = seq == list(range(1, len(seq) + 1))
    everywhere = np.ones(log.time.shape, dtype=bool)
    switches = len(seq) if in_order else -1
    return [
        _window_check("straight_max_abs_e_lat_m", e_lat, lim["e_lat"], window),
        _window_check("switches_in_order", switches, lim["min_switches"], everywhere,
                      le=False),
    ]


def motor_checks(log: sim.SimLog, scenario: sim.Scenario, lim: dict) -> list:
    """Criterion 3: failure-window tracking, alpha band, airspeed recovery."""
    t_fail, t_restore = lim["t_fail"], lim["t_restore"]
    st = sim.settled_error_stats(log, settle_time=t_fail, end_time=t_restore)
    fail_window = (log.time >= t_fail) & (log.time <= t_restore)

    cfg = scenario.ocp
    alpha = log.states[:, md.IDX_THETA] - log.states[:, md.IDX_GAMMA]
    lo, hi = cfg.alpha_minus - cfg.delta_alpha, cfg.alpha_plus + cfg.delta_alpha
    everywhere = np.ones(log.time.shape, dtype=bool)
    alpha_bad = (alpha > hi) | (alpha < lo)

    v_err = np.abs(log.states[:, md.IDX_VA] - log.v_a_ref)
    recovery = ((log.time >= t_fail + lim["recovery_s"]) & (log.time <= t_restore)) | \
        (log.time >= t_restore + lim["recovery_s"])
    v_bad = v_err > lim["v_recovery"]
    return [
        _window_check("failure_window_max_abs_e_lat_m", st.max_abs_e_lat, lim["e_lat"],
                      fail_window),
        _period_check("alpha_band_violations", alpha_bad, everywhere, 0,
                      np.count_nonzero(alpha_bad)),
        _period_check("airspeed_recovery_max_err_mps", v_bad, recovery,
                      lim["v_recovery"], np.max(v_err[recovery], initial=0.0)),
    ]


WORKLOADS = {
    # first 35 s of the 70 s scenario: the ascending helix and the start of
    # the summit arc; short flights leave room for five repeats in a run
    "helix": ClosedLoop(
        scenarios.scenario_helix, 35.0, helix_checks,
        {"settle_time": 30.0, "e_lat": 2.0, "e_lon": 0.5, "v_rmse": 0.5}),
    # first 60 s of the 150 s course: two legs, two corners (the second one
    # down-wind and roll-limited) and four switches
    "dubins_wind": ClosedLoop(
        scenarios.scenario_dubins_course, 60.0, dubins_checks,
        {"settle_time": 10.0, "post_switch_exclude": 5.0, "pre_switch_exclude": 8.0,
         "min_samples": 100, "e_lat": 1.0, "min_switches": 4}),
    "motor_failure": ClosedLoop(
        scenarios.scenario_motor_failure, 55.0, motor_checks,
        {"t_fail": 15.5, "t_restore": 34.0, "e_lat": 1.0, "recovery_s": 10.0,
         "v_recovery": 1.0}),
    "sysid": Sysid({"rel_tol": SYSID_REL_TOL, "min_identifiable": 3,
                    "grad_tol": 1e-6, "step_tol": 1e-8, "max_iter": 35}),
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def csv_bytes(log: sim.SimLog, scratch: Path) -> bytes:
    """`sim.emit_csv` output, written through a file in the checkout."""
    scratch.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(suffix=".csv", dir=scratch)
    os.close(fd)
    try:
        sim.emit_csv(log, name)
        return Path(name).read_bytes()
    finally:
        os.unlink(name)


def _prepare(scenario: sim.Scenario):
    """Everything `sim.run` does before its first controller step."""
    params = scenario.controller_params or scenario.plant_params
    trim = md.solve_trim(params, scenario.v_a_ref, 0.0)
    refs = nmpc_ocp.References.from_trim(trim)
    controller = nmpc_solver.NmpcController(params, scenario.ocp, scenario.weights, refs,
                                            scenario.guidance, scenario.switching)
    queue = pth.PathQueue(segments=scenario.segments)
    state = sim.cold_start_heading_guard(scenario.initial_state, queue, scenario.wind,
                                         scenario.guidance)
    x = state.as_array()
    conds = pth.switching_conditions(queue.current_segment, x[:3],
                                     md.kinematics_array(x, scenario.wind), scenario.switching)
    queue = pth.advance_switch_state(queue, conds, scenario.switching, scenario.ocp.t_iter)
    return controller, queue, state


class Phase:
    """Calls one kind of work and keeps its wall times and, with a tracer,
    the tracer stats and wrapper bookkeeping of those calls alone."""

    def __init__(self, tracer: tr.Tracer | None):
        self.tracer = tracer
        self.walls: list = []
        self.deltas: list = []           # tracer stats of each call
        self.overhead_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        before = _snapshot(self.tracer)
        overhead0 = self.tracer.overhead_s if self.tracer is not None else 0.0
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.walls.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.deltas.append(self.tracer.stats.since(before))
            self.overhead_s += self.tracer.overhead_s - overhead0
        return out

    @property
    def stats(self) -> tr.Stats:
        return sum(self.deltas, tr.Stats())


class QpLimitProbe:
    """Marks each controller period in which a QP ended at its iteration
    limit, while the block runs.

    It wraps `NmpcController.step` and `solve_box_qp` as the solver calls it,
    reads the public `QpResult.status` and reads no clock. It is removed when
    the block ends.
    """

    def __init__(self):
        self.periods: list = []          # per step call: a QP hit its limit

    def __enter__(self):
        self._step = step = nmpc_solver.NmpcController.__dict__["step"]
        self._qp = qp = nmpc_solver.__dict__["solve_box_qp"]
        hits = [0]
        periods = self.periods

        @functools.wraps(qp)
        def qp_probe(*args, **kwargs):
            result = qp(*args, **kwargs)
            hits[0] += result.status == "iteration_limit"
            return result

        @functools.wraps(step)
        def step_probe(*args, **kwargs):
            before = hits[0]
            out = step(*args, **kwargs)
            periods.append(hits[0] > before)
            return out

        nmpc_solver.solve_box_qp = qp_probe
        nmpc_solver.NmpcController.step = step_probe
        return self

    def __exit__(self, *exc):
        nmpc_solver.NmpcController.step = self._step
        nmpc_solver.solve_box_qp = self._qp
        return False


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict                        # name -> value
    detail: dict                         # everything else worth printing
    checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def _set_up(wl: ClosedLoop, seed: int):
    """Scenario build, trim, controller construction and the cold-start
    solve, until the first control is available."""
    scenario = wl.scenario(seed)
    controller, queue, state = _prepare(scenario)
    control, sol = controller.step(state, queue, scenario.wind)
    return scenario, control.as_array(), sol.wall_time_s


def run_closed_loop(name: str, seed: int, seconds: float, tracer: tr.Tracer | None,
                    scratch: Path) -> RunResult:
    wl = WORKLOADS[name]
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    setup, episode = Phase(tracer), Phase(tracer)

    with ctx:
        # the first set-up pays one-off allocation and cache costs; discard it
        _set_up(wl, seed)
        logs, first, colds, qp_limits = [], [], [], []
        t_start = time.perf_counter()
        while True:
            scenario, control, cold = setup(_set_up, wl, seed)
            first.append(control)
            colds.append(cold)
            with QpLimitProbe() as probe:
                logs.append(episode(sim.run, scenario))
            qp_limits.append(probe.periods)
            elapsed = time.perf_counter() - t_start
            if len(logs) >= MIN_REPEATS and \
                    elapsed + episode.walls[-1] + setup.walls[-1] > seconds:
                break
        measured_wall = time.perf_counter() - t_start

    log = logs[0]
    t0 = time.perf_counter()
    data = csv_bytes(log, scratch)
    emit_ms = 1e3 * (time.perf_counter() - t0)
    repeats = {
        "setup_first_controls": all(np.array_equal(f, first[0]) for f in first),
        "episodes_csv": all(csv_bytes(other, scratch) == data for other in logs[1:]),
    }

    checks = wl.checks(log, scenario, wl.limits)
    failed_mask = log.degraded.copy()
    for check in checks:
        failed_mask |= check.failed
    # a QP that ends at its iteration limit fails its period; if the probe did
    # not see one step call per period, every period fails
    one_step_per_period = all(len(q) == log.time.size for q in qp_limits)
    qp_limit = np.any(qp_limits, axis=0) if one_step_per_period else \
        np.ones_like(failed_mask)
    failed_mask |= qp_limit
    if not all(repeats.values()):
        failed_mask[:] = True
    attempted = sum(lg.time.size for lg in logs)
    failed = int(np.count_nonzero(failed_mask)) * len(logs)

    # fastest timing of each period over the repeated episodes
    best = np.min([lg.wall_time_s for lg in logs], axis=0)
    warm = best[1:]
    metrics = {
        "feedback_p50_ms": 1e3 * float(np.percentile(warm, 50)),
        "realtime_factor": scenario.duration / min(episode.walls),
        "setup_s": float(np.median(setup.walls)),
        "peak_rss_mb": peak_rss_mb(),
    }
    first_warm = log.wall_time_s[1:]
    detail = {
        "t_iter_ms": 1e3 * scenario.ocp.t_iter,
        "horizon_n": scenario.ocp.n_steps,
        "sim_duration_s": scenario.duration,
        "episodes": len(logs),
        "episode_wall_s": episode.walls,
        "setup_wall_s": setup.walls,
        "feedback_p90_ms": 1e3 * float(np.percentile(warm, 90)),
        "feedback_samples": int(warm.size),
        # the cold-start solve alone, fastest of the set-ups and episodes
        "fit_s": float(min(colds + [best[0]])),
        "feedback_max_ms": 1e3 * float(np.max(warm)),
        "feedback_over_t_iter": int(np.count_nonzero(warm > scenario.ocp.t_iter)),
        "first_episode_p50_ms": 1e3 * float(np.percentile(first_warm, 50)),
        "first_episode_p90_ms": 1e3 * float(np.percentile(first_warm, 90)),
        "measured_wall_s": measured_wall,
        "degraded_periods": int(np.count_nonzero(log.degraded)),
        "qp_iteration_limit_periods": int(np.count_nonzero(qp_limit)),
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "repeats": repeats,
        "counts": {"sqp_iters": int(np.sum(log.sqp_iters)),
                   "periods": int(log.time.size),
                   "switches": int(np.count_nonzero(np.diff(log.seg_index)))},
    }
    if tracer is not None:
        metrics.update(closed_loop_layers(episode.stats, logs, episode.walls, emit_ms,
                                          len(data)))
        metrics.update(_trace_cost(episode.overhead_s, sum(episode.walls)))
        detail["counts"].update(closed_loop_counts(episode.deltas[0]))
    return RunResult(attempted, failed, metrics, detail, checks)


def _snapshot(tracer: tr.Tracer | None) -> tr.Stats | None:
    return tracer.stats.copy() if tracer is not None else None


def _per(stat: tr.Stat, scale: float, attr: str = "busy_s") -> float:
    return scale * getattr(stat, attr) / stat.calls if stat.calls else 0.0


def closed_loop_layers(t: tr.Stats, logs, walls, emit_ms, n_bytes) -> dict:
    """Per-layer metrics of the measured episodes, per warm controller
    period; calls inside the episodes' cold starts are left out."""
    periods = sum(lg.time.size - 1 for lg in logs)
    step_s = sum(float(np.sum(lg.wall_time_s)) for lg in logs)
    rk4s, rk4b = t.stat("model.rk4_scalar"), t.stat("model.rk4_batch")
    cp, sw, ge = t.stat("paths.closest_point"), t.stat("paths.switch"), t.stat("guidance.errors")
    step, sqp, roll = t.stat("nmpc.step"), t.stat("nmpc.sqp"), t.stat("nmpc.rollout")
    res, raw, qp = t.stat("nmpc.residuals"), t.stat("nmpc.raw_outputs"), t.stat("nmpc.qp")
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({
        "model.rk4_scalar_us": _per(rk4s, 1e6),
        "model.rk4_scalar_calls": rk4s.calls / periods,
        "model.rk4_batch_ms": _per(rk4b, 1e3),
        "model.rk4_batch_calls": rk4b.calls / periods,
        "model.rk4_batch_cols": _per(rk4b, 1.0, "units"),
        "model.trim_ms": _per(t.both("model.trim"), 1e3),
        "paths.closest_point_us": _per(cp, 1e6),
        "paths.closest_point_calls": cp.calls / periods,
        "paths.switch_us": 1e6 * sw.busy_s / periods,
        "guidance.errors_us": _per(ge, 1e6),
        "nmpc.step_ms": _per(step, 1e3),
        "nmpc.step_self_ms": _per(step, 1e3, "self_s"),
        "nmpc.sqp_iters": sqp.calls / periods,
        "nmpc.sqp_self_ms": _per(sqp, 1e3, "self_s"),
        "nmpc.rollout_ms": _per(roll, 1e3),
        "nmpc.rollout_self_ms": _per(roll, 1e3, "self_s"),
        "nmpc.rollouts_per_iter": roll.calls / sqp.calls if sqp.calls else 0.0,
        "nmpc.residuals_ms": _per(res, 1e3),
        "nmpc.residuals_calls": res.calls / periods,
        "nmpc.raw_outputs_ms": _per(raw, 1e3),
        "nmpc.raw_outputs_calls": raw.calls / periods,
        "nmpc.raw_outputs_cols": _per(raw, 1.0, "units"),
        "nmpc.dyn_jac_ms": _per(t.stat("nmpc.dyn_jac"), 1e3),
        "nmpc.out_jac_ms": _per(t.stat("nmpc.out_jac"), 1e3),
        "nmpc.qp_ms": _per(qp, 1e3),
        "nmpc.qp_iters": _per(qp, 1.0, "units"),
        "nmpc.qp_active": _per(qp, 1.0, "extra"),
        "nmpc.qp_iteration_limit": float(t.both("nmpc.qp").flags),
        "nmpc.halvings": sqp.units / periods,
        "nmpc.ls_full_step_ratio": _per(sqp, 1.0, "extra"),
        "sim.self_ms_per_period": 1e3 * (sum(walls) - step_s) / periods,
        "sim.emit_csv_ms": emit_ms,
        "sim.csv_bytes": float(n_bytes),
    })
    return out


def closed_loop_counts(episode: tr.Stats) -> dict:
    """Exact call counts of one episode, cold start included; they must
    repeat across runs of the same code."""
    return {
        "qp_iters": int(round(episode.both("nmpc.qp").units)),
        "halvings": int(round(episode.both("nmpc.sqp").units)),
        "rk4_scalar_calls": episode.both("model.rk4_scalar").calls,
        "rk4_batch_calls": episode.both("model.rk4_batch").calls,
        "closest_point_calls": episode.both("paths.closest_point").calls,
    }


def _trace_cost(overhead_s: float, wall: float) -> dict:
    return {"trace.wall_s": wall, "trace.overhead_pct": 100.0 * overhead_s / wall}


# ---------------------------------------------------------------------------
# sysid
# ---------------------------------------------------------------------------

def _data_seconds(datasets) -> float:
    return sum(float(ds.t[-1] - ds.t[0]) for ds in datasets)


def fit_checks(report: sysid.FitReport, truth: np.ndarray, lim: dict) -> list:
    """Criterion 5, per fit: converged, finite cost, and the parameters its
    own covariance marks identifiable recovered within `rel_tol`."""
    mask = sysid.identifiable_mask(report)
    rel = np.abs(report.params / truth - 1.0)
    worst = float(np.max(rel[mask], initial=0.0))
    n_id = int(np.count_nonzero(mask))
    ok = bool(report.converged and np.isfinite(report.cost)
              and n_id >= lim["min_identifiable"] and worst <= lim["rel_tol"])
    return [Check(f"{report.structure}_identifiable_max_rel_err", worst, lim["rel_tol"], ok,
                  np.array([not ok]))]


class EvalProbe:
    """Times every `sysid.residual_vector` call while the block runs.

    A residual evaluation is the estimator's unit step: candidate parameters
    in, output error out, 0.1-0.3 s per call. The probe adds two clock reads
    per call, the sysid counterpart of the step timer `sim.run` logs for the
    controller, and is removed when the block ends.
    """

    def __init__(self):
        self.calls: list = []        # (structure, batched, seconds)

    def __enter__(self):
        self._original = original = sysid.__dict__["residual_vector"]
        calls = self.calls

        @functools.wraps(original)
        def probe(structure, params, *args, **kwargs):
            t0 = time.perf_counter()
            out = original(structure, params, *args, **kwargs)
            calls.append((structure, out.ndim == 2, time.perf_counter() - t0))
            return out

        sysid.residual_vector = probe
        return self

    def __exit__(self, *exc):
        sysid.residual_vector = self._original
        return False


def _training_sets(params: md.ModelParams) -> dict:
    return {st: sysid.make_training_sets(params, st) for st in STRUCTURES}


def run_sysid(seed: int, seconds: float, tracer: tr.Tracer | None) -> RunResult:
    wl = WORKLOADS["sysid"]
    lim = wl.limits
    params = md.default_params()
    truths = {"cl": params.closed_loop.as_array(), "ol": params.open_loop.as_array()}
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    gen, fit = Phase(tracer), Phase(tracer)

    with ctx:
        sets = [gen(_training_sets, params)]
        training = sets[0]
        problems = {}
        for st, child in zip(STRUCTURES, np.random.SeedSequence(seed).spawn(len(STRUCTURES))):
            rng = np.random.default_rng(child)
            noisy = [sysid.add_output_noise(ds, seed=int(rng.integers(2**31)))
                     for ds in training[st]]
            problems[st] = (noisy, sysid.perturb_params(truths[st], 0.2,
                                                        seed=int(rng.integers(2**31))))

        rounds = []          # per repeat: {structure: (report, wall, probe calls)}
        t_start = time.perf_counter()
        while True:
            if rounds:
                sets.append(gen(_training_sets, params))
            fits = {}
            for st in STRUCTURES:
                noisy, init = problems[st]
                with EvalProbe() as probe:
                    report = fit(sysid.estimate, st, init, noisy, constants=params.constants,
                                 grad_tol=lim["grad_tol"], step_tol=lim["step_tol"],
                                 max_iter=lim["max_iter"])
                fits[st] = (report, fit.walls[-1], probe.calls)
            rounds.append(fits)
            round_wall = sum(f[1] for f in fits.values())
            elapsed = time.perf_counter() - t_start
            if len(rounds) >= MIN_REPEATS and elapsed + round_wall + gen.walls[-1] > seconds:
                break
        fit_wall = time.perf_counter() - t_start

    first = rounds[0]
    same_sets = all(
        np.array_equal(a.outputs[k], b.outputs[k])
        for other in sets[1:] for st in STRUCTURES
        for a, b in zip(other[st], training[st]) for k in a.outputs)
    same_fits = all(
        np.array_equal(r[st][0].params, first[st][0].params)
        and [c[:2] for c in r[st][2]] == [c[:2] for c in first[st][2]]
        for r in rounds[1:] for st in STRUCTURES)
    repeats = {"training_sets": bool(same_sets), "fits": bool(same_fits)}

    checks = []
    for st in STRUCTURES:
        checks.extend(fit_checks(first[st][0], truths[st], lim))
    failed = sum(int(np.count_nonzero(c.failed)) for c in checks) * len(rounds)
    attempted = len(STRUCTURES) * len(rounds)
    if not all(repeats.values()):
        failed = attempted

    # Over the one-column trials, per structure, then averaged: the two
    # structures' trials differ in cost by 2x. Every one-column trial of a
    # structure integrates the same steps, so its cost is one number; host
    # load only adds to it, and the fastest of all the run's trials measures
    # it. The p90 is taken over each trial's fastest timing over the repeats.
    cost, p90, rtf, fastest, by_structure = [], [], [], [], {}
    for st in STRUCTURES:
        calls = first[st][2]
        timed = rounds if same_fits else rounds[:1]    # same calls in every repeat
        best = np.min([[c[2] for c in r[st][2]] for r in timed], axis=0)
        single = best[[not batched for _, batched, _ in calls]]
        cost.append(float(np.min(single)))
        p90.append(np.percentile(single, 90))
        rtf.append(_data_seconds(training[st]) / cost[-1])
        fastest.append(min(r[st][1] for r in rounds))
        by_structure[st] = {"evaluations": len(calls), "single": int(single.size),
                            "trial_ms": 1e3 * cost[-1],
                            "trial_p50_ms": 1e3 * float(np.percentile(single, 50)),
                            "p90_ms": 1e3 * p90[-1],
                            "fit_wall_s": [r[st][1] for r in rounds],
                            "lm_accepted": int(first[st][0].n_iter),
                            "message": first[st][0].message}
    metrics = {
        "feedback_p50_ms": 1e3 * float(np.mean(cost)),
        "realtime_factor": float(np.mean(rtf)),
        "setup_s": float(np.median(gen.walls)),
        "peak_rss_mb": peak_rss_mb(),
    }
    digest = hashlib.sha256()
    for st in STRUCTURES:
        digest.update(np.ascontiguousarray(first[st][0].params).tobytes())
    detail = {
        "repeats_run": len(rounds),
        "by_structure": by_structure,
        "feedback_p90_ms": 1e3 * float(np.mean(p90)),
        "feedback_samples": int(sum(v["single"] for v in by_structure.values())),
        # the fastest fit of each structure, summed
        "fit_s": float(np.sum(fastest)),
        "measured_wall_s": fit_wall,
        "gen_wall_s": gen.walls,
        "params_sha256": digest.hexdigest(),
        "repeats": repeats,
        "counts": {"lm_accepted": int(sum(first[st][0].n_iter for st in STRUCTURES)),
                   "evaluations": int(sum(len(first[st][2]) for st in STRUCTURES))},
    }
    if tracer is not None:
        reports = [r[st][0] for r in rounds for st in STRUCTURES]
        metrics.update(sysid_layers(gen.stats, len(gen.walls), fit.stats, reports,
                                    gen.walls))
        metrics["sysid.fit_s"] = detail["fit_s"]
        metrics.update(_trace_cost(fit.overhead_s, sum(fit.walls)))
    return RunResult(attempted, failed, metrics, detail, checks)


def sysid_layers(setup: tr.Stats, n_gen: int, t: tr.Stats, reports, gens) -> dict:
    """Per-layer metrics per fit. The model layer runs only in training-set
    generation (set-up), so its counts are per generation."""
    n = len(reports)
    single, batch = t.stat("sysid.residual_single"), t.stat("sysid.residual_batch")
    rk4s, rk4b = setup.stat("model.rk4_scalar"), setup.stat("model.rk4_batch")
    accepted = sum(rep.n_iter for rep in reports)
    trials = single.calls - n            # one initial evaluation per fit
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({
        "model.rk4_scalar_us": _per(rk4s, 1e6),
        "model.rk4_scalar_calls": rk4s.calls / n_gen,
        "model.rk4_batch_ms": _per(rk4b, 1e3),
        "model.rk4_batch_calls": rk4b.calls / n_gen,
        "model.rk4_batch_cols": _per(rk4b, 1.0, "units"),
        "model.trim_ms": _per(setup.stat("model.trim"), 1e3),
        "sysid.gen_s": float(np.median(gens)),
        "sysid.residual_single_ms": _per(single, 1e3),
        "sysid.residual_single_calls": single.calls / n,
        "sysid.residual_batch_ms": _per(batch, 1e3),
        "sysid.residual_batch_calls": batch.calls / n,
        "sysid.lm_iters": accepted / n,
        "sysid.lm_trials": trials / n,
        "sysid.lm_accept_ratio": accepted / trials if trials else 0.0,
        "sysid.validate_ms": _per(t.stat("sysid.validate"), 1e3),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> RunResult:
    """Run one workload; with `trace` the per-layer tracer is installed for
    the set-up and measured phases and removed before returning."""
    if name not in WORKLOADS:
        raise KeyError(name)
    tracer = tr.Tracer() if trace else None
    if name == "sysid":
        return run_sysid(seed, seconds, tracer)
    return run_closed_loop(name, seed, seconds, tracer, scratch)
