"""Optimal-control problem pieces: configuration, weighted outputs, horizon
propagation with in-horizon segment switching, and shooting sensitivities.

The output vector per shooting node stacks the tracked quantities
y = [eta_lat, eta_lon, v_a, p, q, r, alpha_soft] with the penalized controls
z = [delta_t_dot, u_t, phi_ref - phi_ff, theta_ref]. Residuals are normalized
by configurable signal ranges so the weights stay comparable across signals.

Within a horizon the active path segment per node is decided during forward
propagation and then frozen: the switching state is piecewise logic, not a
smooth state, so it is never differentiated through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth

# Output vector layout.
Y_ETA_LAT, Y_ETA_LON, Y_VA, Y_P, Y_Q, Y_R, Y_ALPHA_SOFT = range(7)
N_Y = 7
Z_DELTA_T_DOT, Z_U_T, Z_PHI_REF, Z_THETA_REF = range(4)
N_Z = 4
N_OUT = N_Y + N_Z

# Raw output rows that live on a circle and need wrap-aware differencing.
ANGLE_OUTPUT_ROWS = (Y_ETA_LAT,)

_FD_EPS = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class OcpConfig:
    """Horizon, timing, and constraint configuration."""

    n_steps: int = 70            # shooting intervals per horizon
    t_step: float = 0.1          # s, shooting interval
    t_iter: float = 0.1          # s, controller period
    cold_start_sqp_iter: int = 8
    u_t_min: float = 0.0
    u_t_max: float = 1.0
    phi_ref_max: float = float(np.radians(30.0))
    theta_ref_max: float = float(np.radians(15.0))
    alpha_minus: float = float(np.radians(-3.0))
    alpha_plus: float = float(np.radians(8.0))
    delta_alpha: float = float(np.radians(2.0))

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("horizon needs at least 2 shooting intervals")
        if self.t_step <= 0.0 or self.t_iter <= 0.0:
            raise ValueError("t_step and t_iter must be > 0")
        if self.cold_start_sqp_iter < 1:
            raise ValueError("cold_start_sqp_iter must be >= 1")
        if not (self.u_t_min < self.u_t_max and self.phi_ref_max > 0.0
                and self.theta_ref_max > 0.0):
            raise ValueError("control bounds must be ordered and non-empty")
        if not (self.alpha_minus < self.alpha_plus and self.delta_alpha > 0.0):
            raise ValueError("angle-of-attack bounds must be ordered with delta_alpha > 0")

    def control_lower(self) -> np.ndarray:
        return np.array([self.u_t_min, -self.phi_ref_max, -self.theta_ref_max])

    def control_upper(self) -> np.ndarray:
        return np.array([self.u_t_max, self.phi_ref_max, self.theta_ref_max])


def _default_q_y() -> np.ndarray:
    # relative ordering: longitudinal path error above lateral, strong
    # soft-constraint penalty, firm airspeed hold, light rate damping
    return np.array([20.0, 24.0, 30.0, 0.3, 0.3, 0.2, 60.0])


def _default_r_z() -> np.ndarray:
    return np.array([0.8, 2.0, 3.0, 4.0])


def _default_p_end() -> np.ndarray:
    # end term over the guidance errors and airspeed only
    return np.array([20.0, 24.0, 30.0, 0.0, 0.0, 0.0, 0.0])


def _default_y_scale() -> np.ndarray:
    # expected error ranges for nominal flight
    return np.array([np.pi / 2, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])


def _default_z_scale() -> np.ndarray:
    return np.array([0.2, 0.5, np.radians(30.0), np.radians(15.0)])


@dataclass(frozen=True)
class Weights:
    """Diagonal output/control/end-term weights plus normalization ranges."""

    q_y: np.ndarray = field(default_factory=_default_q_y)
    r_z: np.ndarray = field(default_factory=_default_r_z)
    p_end: np.ndarray = field(default_factory=_default_p_end)
    y_scale: np.ndarray = field(default_factory=_default_y_scale)
    z_scale: np.ndarray = field(default_factory=_default_z_scale)

    def __post_init__(self):
        for name, size in (("q_y", N_Y), ("r_z", N_Z), ("p_end", N_Y),
                           ("y_scale", N_Y), ("z_scale", N_Z)):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},)")
        if np.any(self.q_y < 0) or np.any(self.r_z < 0) or np.any(self.p_end < 0):
            raise ValueError("weights must be non-negative")
        if np.any(self.y_scale <= 0) or np.any(self.z_scale <= 0):
            raise ValueError("normalization ranges must be positive")


def default_weights() -> Weights:
    return Weights()


@dataclass(frozen=True)
class References:
    """Constant tracking references: airspeed command and control trims.

    The airspeed command must stay inside the identified envelope.
    """

    v_a_ref: float
    u_t_trim: float
    theta_ref_trim: float

    V_A_ENVELOPE = (11.0, 18.0)

    def __post_init__(self):
        lo, hi = self.V_A_ENVELOPE
        if not lo <= self.v_a_ref <= hi:
            raise ValueError(f"airspeed reference {self.v_a_ref} outside "
                             f"the identified envelope [{lo}, {hi}] m/s")

    @classmethod
    def from_trim(cls, trim: md.TrimPoint) -> "References":
        return cls(v_a_ref=trim.v_a, u_t_trim=trim.u_t, theta_ref_trim=trim.theta_ref)

    def stage_reference(self) -> np.ndarray:
        ref = np.zeros(N_OUT)
        ref[Y_VA] = self.v_a_ref
        ref[N_Y + Z_U_T] = self.u_t_trim
        ref[N_Y + Z_THETA_REF] = self.theta_ref_trim
        return ref

    def end_reference(self) -> np.ndarray:
        ref = np.zeros(N_Y)
        ref[Y_VA] = self.v_a_ref
        return ref


def alpha_soft(alpha, cfg: OcpConfig):
    """Soft angle-of-attack penalty: zero in the safe band, quadratic ramps
    starting one transition width inside the hard bounds, reaching exactly 1
    at the bounds."""
    a = np.asarray(alpha, dtype=float)
    upper_onset = cfg.alpha_plus - cfg.delta_alpha
    lower_onset = cfg.alpha_minus + cfg.delta_alpha
    up = ((a - upper_onset) / cfg.delta_alpha) ** 2
    low = ((a - lower_onset) / cfg.delta_alpha) ** 2
    out = np.where(a > upper_onset, up, np.where(a < lower_onset, low, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class Horizon:
    """Forward-propagated shooting trajectory with frozen per-node contexts."""

    states: np.ndarray        # (N+1, 12)
    context: pth.HorizonContext  # M = N+1 entries
    x_sw: np.ndarray          # (N+1,)
    axis_nodes: int = 0       # arc/loiter nodes within AXIS_EPS of the axis

    @property
    def seg_index(self) -> np.ndarray:
        return self.context.seg_index


def propagate_horizon(x0: np.ndarray, controls: np.ndarray, queue: pth.PathQueue,
                      wind: md.WindVector, params: md.ModelParams, cfg: OcpConfig,
                      switch_cfg: pth.SwitchConfig) -> Horizon:
    """Integrate the horizon, advancing the switching state node by node.

    The per-node loop works on plain floats only: the switching recursion of
    the plant-side queue (`pth.terminal_conditions` and `pth.advance_switch`)
    and one `md.float_step` step. The ground velocity is worked out only
    where a bearing test needs it. The frozen path context is then built in
    one vectorized pass per run of nodes on the same segment (see
    `pth.HorizonContext.fill_run`), which refuses helix legs already passed
    within the horizon, so altitude transients can never re-select a lower
    leg.
    """
    n = cfg.n_steps
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (n, md.CONTROL_DIM):
        raise ValueError(f"expected controls of shape ({n}, {md.CONTROL_DIM})")
    rows = [np.asarray(x0, dtype=float).tolist()]
    sw_nodes, idx_nodes = [float(queue.x_sw)], [int(queue.current_index)]
    _extend_nodes(rows, sw_nodes, idx_nodes, controls.tolist(), queue.segments, wind,
                  params, cfg.t_step, switch_cfg)
    return _frozen_horizon(rows, sw_nodes, idx_nodes, queue.segments)


def shift_horizon(horizon: Horizon, controls: np.ndarray, queue: pth.PathQueue,
                  wind: md.WindVector, params: md.ModelParams, cfg: OcpConfig,
                  switch_cfg: pth.SwitchConfig) -> Horizon:
    """The horizon one node later: `horizon` shifted by one node, the new
    end node stepped with the last row of `controls`, the contexts re-filled.

    `controls` are the controls of `horizon` shifted by one node, so nodes
    1..N are reused as they are. The result equals, bit for bit,
    `propagate_horizon(horizon.states[1], controls, PathQueue(queue.segments,
    horizon.x_sw[1], horizon.seg_index[1]), ...)` for one RK4 step instead
    of N. Only `queue.segments` is read.
    """
    n = cfg.n_steps
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (n, md.CONTROL_DIM) or horizon.states.shape[0] != n + 1:
        raise ValueError(f"expected controls of shape ({n}, {md.CONTROL_DIM})"
                         f" and a horizon of {n + 1} nodes")
    rows = horizon.states[1:].tolist()
    sw_nodes, idx_nodes = horizon.x_sw[1:].tolist(), horizon.seg_index[1:].tolist()
    _extend_nodes(rows, sw_nodes, idx_nodes, controls[-1:].tolist(), queue.segments, wind,
                  params, cfg.t_step, switch_cfg)
    return _frozen_horizon(rows, sw_nodes, idx_nodes, queue.segments)


def _extend_nodes(rows: list, sw_nodes: list, idx_nodes: list, controls: list,
                  segments: tuple, wind: md.WindVector, params: md.ModelParams,
                  dt: float, switch_cfg: pth.SwitchConfig) -> None:
    """Append one node per control row to the plain-float node lists: the
    switching step at the last node, then one RK4 step."""
    n_seg = len(segments)
    step = md.float_step(wind, params)
    terms: dict[int, tuple | None] = {}
    x, sw, idx = rows[-1], sw_nodes[-1], idx_nodes[-1]
    for u in controls:
        if idx not in terms:
            terms[idx] = pth.terminal_data(segments[idx])
        conds = pth.terminal_conditions(terms[idx], x,
                                        lambda: md.kinematics(x, wind, md.FLOATS), switch_cfg)
        sw, idx = pth.advance_switch(sw, idx, n_seg,
                                     pth.terminal_conditions_met(segments[idx], conds),
                                     switch_cfg, dt)
        x = step(x, u, dt)
        rows.append(x)
        sw_nodes.append(sw)
        idx_nodes.append(idx)


def _frozen_horizon(rows: list, sw_nodes: list, idx_nodes: list, segments: tuple) -> Horizon:
    """The horizon of the node lists, with its path contexts filled in one
    vectorized pass per run of nodes on the same segment."""
    states = np.array(rows)
    m = states.shape[0]
    ctx = pth.HorizonContext.allocate(m)
    ctx.seg_index[:] = idx_nodes
    bounds = [0, *(np.flatnonzero(np.diff(ctx.seg_index)) + 1), m]
    axis_nodes = sum(ctx.fill_run(slice(a, b), segments[idx_nodes[a]], states[a:b, :3])
                     for a, b in zip(bounds, bounds[1:]))
    return Horizon(states=states, context=ctx, x_sw=np.array(sw_nodes),
                   axis_nodes=axis_nodes)


# ---------------------------------------------------------------------------
# Raw output evaluation, vectorized over columns.
# ---------------------------------------------------------------------------

def raw_outputs(x: np.ndarray, u: np.ndarray, ctx: pth.HorizonContext,
                wind: md.WindVector, params: md.ModelParams,
                guidance_cfg: gd.GuidanceConfig, cfg: OcpConfig) -> np.ndarray:
    """Evaluate the stacked [y; z] outputs for state/control columns.

    `x` is (12, M), `u` is (3, M), and `ctx` holds M per-column frozen path
    contexts. The guidance rows and the roll feed-forward come from
    `pth.closest_point_columns` and `gd.guidance_columns`, the kernels the
    closed-loop log evaluates at one position.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p, t = pth.closest_point_columns(x[:3], ctx)
    errs = gd.guidance_columns(x[:3], md.kinematics_array(x, wind), p, t, ctx.r_signed,
                               params.constants.g, guidance_cfg)

    out = np.empty((N_OUT, x.shape[1]))
    out[Y_ETA_LAT] = errs.eta_lat
    out[Y_ETA_LON] = errs.eta_lon
    out[Y_VA] = x[md.IDX_VA]
    out[Y_P] = x[md.IDX_P]
    out[Y_Q] = x[md.IDX_Q]
    out[Y_R] = x[md.IDX_R]
    out[Y_ALPHA_SOFT] = alpha_soft(x[md.IDX_THETA] - x[md.IDX_GAMMA], cfg)
    out[N_Y + Z_DELTA_T_DOT] = (u[md.IDX_U_T] - x[md.IDX_DELTA_T]) / params.open_loop.tau_t
    out[N_Y + Z_U_T] = u[md.IDX_U_T]
    out[N_Y + Z_PHI_REF] = u[md.IDX_PHI_REF] - errs.phi_ff
    out[N_Y + Z_THETA_REF] = u[md.IDX_THETA_REF]
    return out


# ---------------------------------------------------------------------------
# Shooting sensitivities.
# ---------------------------------------------------------------------------

def fd_batch(*points: np.ndarray):
    """Repeat-and-perturb batch for forward differences at N points.

    Each argument holds the (N, d_i) values of one input at the N points.
    Every point gets 1 + sum(d_i) columns: column 0 holds the point as is,
    and column 1 + j raises the j-th entry, counted across the inputs, by
    its step. Returns the per-input (d_i, N * cols) batches and the (N,
    sum(d_i)) steps.
    """
    cols = 1 + sum(p.shape[1] for p in points)
    steps = [_FD_EPS * np.maximum(1.0, np.abs(p)) for p in points]
    batches, offset = [], 1
    for p, h in zip(points, steps):
        batch = np.repeat(p.T, cols, axis=1)
        for i in range(p.shape[1]):
            batch[i, (offset + i)::cols] += h[:, i]
        batches.append(batch)
        offset += p.shape[1]
    return batches, np.concatenate(steps, axis=1)


def fd_jacobians(values: np.ndarray, steps: np.ndarray, angle_rows=()) -> np.ndarray:
    """(N, R, sum(d_i)) forward-difference Jacobians from the (R, N * cols)
    function values of an `fd_batch` batch; the differences of `angle_rows`
    are wrapped."""
    values = values.reshape(values.shape[0], steps.shape[0], -1)
    diffs = values[:, :, 1:] - values[:, :, :1]
    for row in angle_rows:
        diffs[row] = md.wrap_angle(diffs[row])
    return np.transpose(diffs / steps[None, :, :], (1, 0, 2))


def rk4_jacobians(states: np.ndarray, controls: np.ndarray, wind: md.WindVector,
                  params: md.ModelParams, dt: float):
    """Forward-difference Jacobians of the shooting step for all intervals.

    `states` is (N, 12) at interval starts, `controls` is (N, 3). All N*(16)
    perturbed integrations run as one batched call. Angle-state differences
    are wrapped so nodes near the heading wrap stay smooth.

    Returns (A, B) with shapes (N, 12, 12) and (N, 12, 3).
    """
    (x_batch, u_batch), steps = fd_batch(np.asarray(states, dtype=float),
                                         np.asarray(controls, dtype=float))
    next_batch = md.rk4_step_array(x_batch, u_batch, wind, params, dt)
    jac = fd_jacobians(next_batch, steps, md.ANGLE_STATES)
    return jac[:, :, :md.STATE_DIM], jac[:, :, md.STATE_DIM:]
