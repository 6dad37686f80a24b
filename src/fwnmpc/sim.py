"""Deterministic closed-loop scenario harness.

The plant integrates at a fine fixed step with zero-order-hold controls; the
controller's feedback phase runs every `t_iter` on the measurement, and its
preparation phase runs right after, for the next period; scheduled events
(motor failure/restore) toggle the plant's thrust model and the controller's
throttle weight. Runs are bit-reproducible for a given scenario: randomness
only enters through the seeded measurement-noise generator.
"""

from __future__ import annotations

import io
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.nmpc import solver as nmpc_solver

EVENT_MOTOR_FAIL = "motor_fail"
EVENT_MOTOR_RESTORE = "motor_restore"
_EVENT_KINDS = (EVENT_MOTOR_FAIL, EVENT_MOTOR_RESTORE)

END_COMPLETED = "completed"

# heading misalignment beyond which the cold-start guard re-aims the aircraft
_COLD_START_GUARD = np.radians(170.0)

CSV_COLUMNS = (
    "time", *md.STATE_NAMES, "u_t", "phi_ref", "theta_ref", "eta_lat", "eta_lon",
    "e_lat", "e_lon", "d_dot_sp", "seg_index", "x_sw", "motor_failed", "wind_n",
    "wind_e", "wind_d", "objective", "kkt_residual", "qp_active_set", "sqp_iters",
    "obj_nonincrease", "degraded",
)


@dataclass(frozen=True)
class Event:
    """Scheduled plant/controller event."""

    time: float
    kind: str

    def __post_init__(self):
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.time < 0.0:
            raise ValueError("event time must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """Complete closed-loop experiment description."""

    name: str
    initial_state: md.AircraftState
    segments: tuple
    duration: float
    v_a_ref: float = 13.5
    wind: md.WindVector = field(default_factory=md.WindVector)
    plant_params: md.ModelParams = field(default_factory=md.default_params)
    controller_params: md.ModelParams | None = None
    ocp: nmpc_ocp.OcpConfig = field(default_factory=nmpc_ocp.OcpConfig)
    weights: nmpc_ocp.Weights = field(default_factory=nmpc_ocp.default_weights)
    guidance: gd.GuidanceConfig = field(default_factory=gd.GuidanceConfig)
    switching: pth.SwitchConfig = field(default_factory=pth.SwitchConfig)
    events: tuple = ()
    plant_dt: float = 0.01
    seed: int = 0
    measurement_noise: dict | None = None

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("scenario duration must be > 0")
        times = [ev.time for ev in self.events]
        if times != sorted(times):
            raise ValueError("events must be time-ordered")
        ratio = self.ocp.t_iter / self.plant_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("controller period must be a multiple of the plant step")
        for ev in self.events:
            tick = ev.time / self.plant_dt
            if abs(tick - round(tick)) > 1e-9:
                raise ValueError(f"event at t={ev.time} not on the plant time grid")
        for key, sigma in (self.measurement_noise or {}).items():
            if key not in md.STATE_NAMES:
                raise ValueError(f"measurement_noise: unknown state channel {key!r}")
            if isinstance(sigma, bool) or not (isinstance(sigma, numbers.Real)
                                               and 0 <= sigma < np.inf):
                raise ValueError(f"measurement_noise: {key}: expected a finite number >= 0, "
                                 f"got {sigma!r}")


@dataclass
class SimLog:
    """Per-controller-tick telemetry for one scenario run."""

    scenario_name: str
    v_a_ref: float
    segment_kinds: tuple           # kind string per queue segment
    time: np.ndarray
    states: np.ndarray             # (M, 12)
    controls: np.ndarray           # (M, 3)
    eta_lat: np.ndarray
    eta_lon: np.ndarray
    e_lat: np.ndarray
    e_lon: np.ndarray
    d_dot_sp: np.ndarray
    seg_index: np.ndarray
    x_sw: np.ndarray
    motor_failed: np.ndarray
    wind: np.ndarray               # (M, 3)
    objective: np.ndarray
    kkt_residual: np.ndarray
    qp_active_set: np.ndarray
    sqp_iters: np.ndarray
    obj_nonincrease: np.ndarray
    degraded: np.ndarray
    # feedback latency of the controller step (measurement in, control out);
    # report-only, never in CSV
    wall_time_s: np.ndarray
    events_applied: tuple
    # near-axis rollout nodes per period; report-only, never in CSV
    axis_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # `OcpSolution.qp_iters` per period; report-only, never in CSV
    qp_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # wall time of the preparation phase after each period, NaN where none
    # ran (after the last period); report-only, never in CSV
    prep_time_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # `OcpSolution.feedback` and `.degraded_reason` per period; report-only,
    # never in CSV
    degraded_reason: tuple = ()
    feedback: tuple = ()
    # why the run stopped; report-only, never in CSV
    end_reason: str = END_COMPLETED


def _segment_kind(seg) -> str:
    if isinstance(seg, pth.LineSegment):
        return "line"
    if isinstance(seg, pth.ArcSegment):
        return "arc"
    return "loiter"


def _zero_thrust(params: md.ModelParams) -> md.ModelParams:
    return replace(params, open_loop=replace(params.open_loop,
                                             c_t1=0.0, c_t2=0.0, c_t3=0.0))


def cold_start_heading_guard(state: md.AircraftState, queue: pth.PathQueue,
                             wind: md.WindVector,
                             cfg: gd.GuidanceConfig) -> md.AircraftState:
    """Rotate the initial heading away from the 180-degree guidance ambiguity.

    If the initial error angle is near the wrap point the aircraft is re-aimed
    along the look-ahead direction before the first solve.
    """
    v_g = md.kinematics_array(state.as_array(), wind)
    cp = pth.closest_point(queue.current_segment, state.position)
    try:
        errs = gd.guidance_errors(state.position, v_g, queue.current_segment, cp, cfg)
    except gd.ZeroGroundSpeedError:
        return state
    if abs(errs.eta_lat) <= _COLD_START_GUARD:
        return state
    new_xi = md.wrap_angle(state.xi + errs.eta_lat)
    return replace(state, xi=new_xi)


def run(scenario: Scenario) -> SimLog:
    """Execute one scenario deterministically and return its log.

    A plant step that leaves the model's domain (`md.ModelDomainError`)
    ends the run: the log keeps the ticks logged so far, and
    `SimLog.end_reason` says where and why it stopped.
    """
    plant_dt = scenario.plant_dt
    n_ticks = int(round(scenario.duration / plant_dt))
    ctrl_every = int(round(scenario.ocp.t_iter / plant_dt))

    plant_params = scenario.plant_params
    controller_params = scenario.controller_params or scenario.plant_params
    trim = md.solve_trim(controller_params, scenario.v_a_ref, 0.0)
    refs = nmpc_ocp.References.from_trim(trim)
    controller = nmpc_solver.NmpcController(
        controller_params, scenario.ocp, scenario.weights, refs,
        scenario.guidance, scenario.switching)
    base_weights = scenario.weights

    queue = pth.PathQueue(segments=scenario.segments)
    state0 = cold_start_heading_guard(scenario.initial_state, queue,
                                      scenario.wind, scenario.guidance)
    x = state0.as_array()
    rng = np.random.default_rng(scenario.seed)
    noise_idx = [(md.STATE_NAMES.index(key), float(sigma))
                 for key, sigma in (scenario.measurement_noise or {}).items()]

    plant_now = plant_params
    motor_failed = False
    pending = list(scenario.events)
    applied = []

    rows = []
    prep_times = []
    u_arr = np.array([trim.u_t, 0.0, trim.theta_ref])
    held_eta_lat = 0.0
    end_reason = END_COMPLETED

    for tick in range(n_ticks + 1):
        t = tick * plant_dt
        while pending and pending[0].time <= t + 1e-12:
            ev = pending.pop(0)
            if ev.kind == EVENT_MOTOR_FAIL:
                plant_now = _zero_thrust(plant_params)
                controller.weights = nmpc_solver.apply_throttle_failure_weight(base_weights)
                motor_failed = True
            else:
                plant_now = plant_params
                controller.weights = base_weights
                motor_failed = False
            applied.append((ev.time, ev.kind))

        if tick % ctrl_every == 0:
            measured = x.copy()
            for idx, sigma in noise_idx:
                measured[idx] += sigma * rng.standard_normal()
            measured_state = md.AircraftState.from_array(measured)

            v_g = md.kinematics_array(measured, scenario.wind)
            conds = pth.switching_conditions(queue.current_segment, measured[:3],
                                             v_g, scenario.switching)
            queue = pth.advance_switch_state(queue, conds, scenario.switching,
                                             scenario.ocp.t_iter)

            control, sol = controller.step(measured_state, queue, scenario.wind)
            u_arr = control.as_array()

            seg = queue.current_segment
            cp = pth.closest_point(seg, measured[:3])
            try:
                errs = gd.guidance_errors(measured[:3], v_g, seg, cp, scenario.guidance)
                held_eta_lat = errs.eta_lat
            except gd.ZeroGroundSpeedError:
                errs = gd.GuidanceErrors(eta_lat=held_eta_lat, eta_lon=0.0,
                                         e_lat=float("nan"), e_lon=float("nan"),
                                         d_dot_sp=0.0, e_prime=float("nan"),
                                         phi_ff=float("nan"))

            # preparation phase for the next period, if there is one; either
            # way an embedded period gets its line search and its row the
            # completed solution
            if tick + ctrl_every <= n_ticks:
                t_prep = time.perf_counter()
                settled = controller.prepare()
                prep_times.append(time.perf_counter() - t_prep)
            else:
                settled = controller.settle()
                prep_times.append(float("nan"))
            rows.append((t, x.copy(), u_arr.copy(), errs, queue.current_index,
                         queue.x_sw, motor_failed, settled or sol))

        if tick < n_ticks:
            try:
                x = md.rk4_step_array(x, u_arr, scenario.wind, plant_now, plant_dt)
            except md.ModelDomainError as exc:
                end_reason = f"plant model domain error in the step from t={t:.2f} s: {exc}"
                break

    m = len(rows)
    log = SimLog(
        scenario_name=scenario.name,
        v_a_ref=scenario.v_a_ref,
        segment_kinds=tuple(_segment_kind(s) for s in scenario.segments),
        time=np.array([r[0] for r in rows]),
        states=np.array([r[1] for r in rows]),
        controls=np.array([r[2] for r in rows]),
        eta_lat=np.array([r[3].eta_lat for r in rows]),
        eta_lon=np.array([r[3].eta_lon for r in rows]),
        e_lat=np.array([r[3].e_lat for r in rows]),
        e_lon=np.array([r[3].e_lon for r in rows]),
        d_dot_sp=np.array([r[3].d_dot_sp for r in rows]),
        seg_index=np.array([r[4] for r in rows], dtype=int),
        x_sw=np.array([r[5] for r in rows]),
        motor_failed=np.array([r[6] for r in rows], dtype=bool),
        wind=np.tile(scenario.wind.as_array(), (m, 1)),
        objective=np.array([r[7].objective for r in rows]),
        kkt_residual=np.array([r[7].kkt_residual for r in rows]),
        qp_active_set=np.array([r[7].qp_active_set for r in rows], dtype=int),
        sqp_iters=np.array([r[7].sqp_iters for r in rows], dtype=int),
        obj_nonincrease=np.array([r[7].obj_nonincrease_ok for r in rows], dtype=bool),
        degraded=np.array([r[7].degraded for r in rows], dtype=bool),
        wall_time_s=np.array([r[7].wall_time_s for r in rows]),
        events_applied=tuple(applied),
        axis_nodes=np.array([r[7].axis_nodes for r in rows], dtype=int),
        qp_iters=np.array([r[7].qp_iters for r in rows], dtype=int),
        prep_time_s=np.array(prep_times),
        feedback=tuple(r[7].feedback for r in rows),
        degraded_reason=tuple(r[7].degraded_reason for r in rows),
        end_reason=end_reason,
    )
    return log


@dataclass(frozen=True)
class SettledStats:
    max_abs_e_lat: float
    max_abs_e_lon: float
    airspeed_rmse: float
    n_samples: int


def settled_error_stats(log: SimLog, settle_time: float = 30.0,
                        segment_kinds: tuple | None = None,
                        post_switch_exclude: float = 0.0,
                        pre_switch_exclude: float = 0.0,
                        end_time: float | None = None) -> SettledStats:
    """Track-error and airspeed statistics after a settling period.

    `segment_kinds` restricts the sample mask to ticks whose active segment
    kind is listed (e.g. only straight legs). `post_switch_exclude` drops the
    transient window after each segment change; `pre_switch_exclude` drops
    the window before one, where the receding horizon is already negotiating
    the next segment.
    """
    mask = log.time >= settle_time
    if end_time is not None:
        mask &= log.time <= end_time
    if segment_kinds is not None:
        kinds = np.array([log.segment_kinds[i] for i in log.seg_index])
        mask &= np.isin(kinds, segment_kinds)
    switch_times = log.time[np.flatnonzero(np.diff(log.seg_index) != 0) + 1]
    if post_switch_exclude > 0.0:
        for t_sw in switch_times:
            mask &= ~((log.time >= t_sw) & (log.time < t_sw + post_switch_exclude))
    if pre_switch_exclude > 0.0:
        for t_sw in switch_times:
            mask &= ~((log.time >= t_sw - pre_switch_exclude) & (log.time < t_sw))
    if not np.any(mask):
        return SettledStats(float("nan"), float("nan"), float("nan"), 0)
    v_err = log.states[mask, md.IDX_VA] - log.v_a_ref
    return SettledStats(
        max_abs_e_lat=float(np.max(np.abs(log.e_lat[mask]))),
        max_abs_e_lon=float(np.max(np.abs(log.e_lon[mask]))),
        airspeed_rmse=float(np.sqrt(np.mean(v_err ** 2))),
        n_samples=int(np.count_nonzero(mask)),
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(log: SimLog, path) -> None:
    """Write the run log with a fixed header order.

    Byte-identical across repeated runs of the same scenario; wall-clock
    timing intentionally stays out (see the run report instead).
    """
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for i in range(log.time.shape[0]):
        st = log.states[i]
        u = log.controls[i]
        row = (
            log.time[i], st[0], st[1], st[2], st[3], st[4], st[5], st[6], st[7],
            st[8], st[9], st[10], st[11], u[0], u[1], u[2], log.eta_lat[i],
            log.eta_lon[i], log.e_lat[i], log.e_lon[i], log.d_dot_sp[i],
            int(log.seg_index[i]), log.x_sw[i], bool(log.motor_failed[i]),
            log.wind[i, 0], log.wind[i, 1], log.wind[i, 2], log.objective[i],
            log.kkt_residual[i], int(log.qp_active_set[i]), int(log.sqp_iters[i]),
            bool(log.obj_nonincrease[i]), bool(log.degraded[i]),
        )
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _percentiles_ms(seconds: np.ndarray) -> str:
    ms = 1e3 * seconds[np.isfinite(seconds)]
    if ms.size == 0:
        return "(none)"
    return f"p50 {np.percentile(ms, 50):.1f}  p90 {np.percentile(ms, 90):.1f}"


def _counted(labels) -> str:
    counts = Counter(labels)
    return ", ".join(f"{label} {counts[label]}" for label in sorted(counts))


def emit_report(log: SimLog, settle_time: float = 30.0) -> str:
    """Human-readable run summary: settled stats, solver timing, events."""
    stats = settled_error_stats(log, settle_time=settle_time)
    wall_ms = 1e3 * log.wall_time_s
    rollouts = [path.split(":", 1)[1] for path in log.feedback if path.startswith("rollout:")]
    degraded = int(np.count_nonzero(log.degraded))
    reasons = [r for r, d in zip(log.degraded_reason, log.degraded) if d]
    lines = [
        f"scenario: {log.scenario_name}",
        f"samples: {log.time.shape[0]}  duration: {log.time[-1]:.2f} s",
        f"end: {log.end_reason}",
        f"airspeed reference: {log.v_a_ref:.2f} m/s",
        "",
        f"settled after {settle_time:.0f} s ({stats.n_samples} samples):",
        f"  max |e_lat|: {stats.max_abs_e_lat:.3f} m",
        f"  max |e_lon|: {stats.max_abs_e_lon:.3f} m",
        f"  airspeed RMSE: {stats.airspeed_rmse:.3f} m/s",
        "",
        "solver wall time per period, feedback phase (measurement in, control out; ms):",
        f"  mean {np.mean(wall_ms):.1f}  p50 {np.percentile(wall_ms, 50):.1f}"
        f"  p90 {np.percentile(wall_ms, 90):.1f}  p99 {np.percentile(wall_ms, 99):.1f}"
        f"  max {np.max(wall_ms):.1f}",
        f"preparation phase per period (ms): {_percentiles_ms(log.prep_time_s)}",
        f"embedded feedback: {log.feedback.count('embedded')} of {log.time.shape[0]} periods;"
        f" rollout feedback: {len(rollouts)}"
        + (f" ({_counted(rollouts)})" if rollouts else ""),
        f"QP iterations per period: p50 {np.median(log.qp_iters):g}  max {np.max(log.qp_iters)}",
        f"objective non-increase satisfied: {bool(np.all(log.obj_nonincrease))}",
        f"degraded periods: {degraded}" + (f" ({_counted(reasons)})" if reasons else ""),
        f"periods with near-axis rollout nodes: {int(np.count_nonzero(log.axis_nodes))}",
        "",
        "segment switches:",
    ]
    switches = np.flatnonzero(np.diff(log.seg_index) != 0) + 1
    if switches.size == 0:
        lines.append("  (none)")
    for i in switches:
        lines.append(f"  t={log.time[i]:7.2f} s -> segment {int(log.seg_index[i])}"
                     f" ({log.segment_kinds[log.seg_index[i]]})")
    lines.append("")
    lines.append("events:")
    if not log.events_applied:
        lines.append("  (none)")
    for t_ev, kind in log.events_applied:
        lines.append(f"  t={t_ev:7.2f} s  {kind}")
    return "\n".join(lines) + "\n"
