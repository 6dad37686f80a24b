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

import math
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

# Segment kind codes used in the vectorized horizon context.
KIND_LINE, KIND_ARC, KIND_LOITER = 0, 1, 2


@dataclass(frozen=True)
class OcpConfig:
    """Horizon, timing, and constraint configuration."""

    n_steps: int = 70            # shooting intervals per horizon
    t_step: float = 0.1          # s, shooting interval
    t_iter: float = 0.1          # s, controller period
    max_sqp_iter: int = 1        # SQP iterations per warm-started period
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


# ---------------------------------------------------------------------------
# Horizon context: per-node frozen path data in structure-of-arrays form so
# output evaluation vectorizes over nodes and finite-difference columns.
# ---------------------------------------------------------------------------

@dataclass
class HorizonContext:
    kind: np.ndarray        # (M,) segment kind code
    anchor_n: np.ndarray    # (M,) line terminal b / arc center c
    anchor_e: np.ndarray
    anchor_d: np.ndarray
    chi_p: np.ndarray       # (M,)
    gamma_p: np.ndarray     # (M,) elevation (0 for loiter)
    r_signed: np.ndarray    # (M,) signed radius (0 for line)
    leg: np.ndarray         # (M,) frozen helix leg
    delta_chi: np.ndarray   # (M,) backward angle at the node
    lam: np.ndarray         # (M,) azimuth at the node
    seg_index: np.ndarray   # (M,) queue index

    @classmethod
    def allocate(cls, m: int) -> "HorizonContext":
        z = lambda: np.zeros(m)
        return cls(kind=np.zeros(m, dtype=np.int8), anchor_n=z(), anchor_e=z(),
                   anchor_d=z(), chi_p=z(), gamma_p=z(), r_signed=z(), leg=z(),
                   delta_chi=z(), lam=z(), seg_index=np.zeros(m, dtype=int))

    def fill_run(self, run: slice, seg, pos: np.ndarray) -> int:
        """Record the frozen data of the nodes in `run`, all on segment `seg`,
        from their (M, 3) positions `pos`.

        Nodes of an arc choose their helix leg under a cap: the leg of the
        previous node in the run, so legs already passed are refused. A node
        within AXIS_EPS of an arc or loiter axis has no closest point; it
        gets delta_chi = 0 and leg 0, and the cap restarts there. Returns
        the number of such near-axis nodes.
        """
        if isinstance(seg, pth.LineSegment):
            self.kind[run] = KIND_LINE
            self.anchor_n[run], self.anchor_e[run], self.anchor_d[run] = seg.b
            self.chi_p[run] = seg.chi_p
            self.gamma_p[run] = seg.gamma_p
            return 0
        is_loiter = isinstance(seg, pth.LoiterSegment)
        self.kind[run] = KIND_LOITER if is_loiter else KIND_ARC
        self.anchor_n[run], self.anchor_e[run], self.anchor_d[run] = seg.c
        self.r_signed[run] = seg.r_signed
        d_n, d_e = pos[:, 0] - seg.c[0], pos[:, 1] - seg.c[1]
        lam = np.arctan2(d_e, d_n)
        self.lam[run] = lam
        on_axis = np.hypot(d_n, d_e) < pth.AXIS_EPS
        if is_loiter:
            return int(np.count_nonzero(on_axis))

        self.chi_p[run] = seg.chi_p
        self.gamma_p[run] = seg.gamma_p
        direction = pth.arc_direction(seg)
        radius = abs(seg.r_signed)
        lam_b = seg.chi_p - direction * np.pi / 2
        delta_chi = np.mod(direction * (lam_b - lam), md.TWO_PI)
        slope = np.tan(seg.gamma_p)
        if abs(slope) < pth.FLAT_SLOPE_EPS:
            leg = np.zeros(lam.shape)
        else:
            pitch = md.TWO_PI * radius * slope
            # + 0.0 turns a rounded -0.0 into the 0.0 of an integer leg
            leg = np.round((pos[:, 2] - (seg.c[2] + delta_chi * radius * slope))
                           / pitch) + 0.0
        delta_chi[on_axis] = 0.0
        leg[on_axis] = 0.0
        cuts = np.flatnonzero(on_axis)
        self.delta_chi[run] = delta_chi
        self.leg[run] = np.concatenate(
            [np.minimum.accumulate(part) for part in np.split(leg, cuts) if part.size])
        return int(cuts.size)

    def select(self, idx) -> "HorizonContext":
        return HorizonContext(*[getattr(self, f)[idx] for f in _CTX_FIELDS])

    def repeat(self, k: int) -> "HorizonContext":
        return HorizonContext(*[np.repeat(getattr(self, f), k) for f in _CTX_FIELDS])


_CTX_FIELDS = ("kind", "anchor_n", "anchor_e", "anchor_d", "chi_p", "gamma_p",
               "r_signed", "leg", "delta_chi", "lam", "seg_index")


@dataclass
class Horizon:
    """Forward-propagated shooting trajectory with frozen per-node contexts."""

    states: np.ndarray        # (N+1, 12)
    context: HorizonContext   # M = N+1 entries
    x_sw: np.ndarray          # (N+1,)
    axis_nodes: int = 0       # arc/loiter nodes within AXIS_EPS of the axis

    @property
    def seg_index(self) -> np.ndarray:
        return self.context.seg_index


def propagate_horizon(x0: np.ndarray, controls: np.ndarray, queue: pth.PathQueue,
                      wind: md.WindVector, params: md.ModelParams, cfg: OcpConfig,
                      switch_cfg: pth.SwitchConfig) -> Horizon:
    """Integrate the horizon, advancing the switching state node by node.

    The per-node loop works on plain floats only: the switching recursion,
    the same Euler/latch logic as the plant-side queue advance, inlined, and
    one `rk4_step_floats` step. The frozen path context is then built in
    one vectorized pass per run of nodes on the same segment (see
    `HorizonContext.fill_run`), which refuses helix legs already passed
    within the horizon, so altitude transients can never re-select a lower
    leg.
    """
    n = cfg.n_steps
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (n, md.CONTROL_DIM):
        raise ValueError(f"expected controls of shape ({n}, {md.CONTROL_DIM})")

    segments = queue.segments
    n_seg = len(segments)
    # terminal point/tangent per segment, resolved lazily
    term_cache: dict[int, tuple | None] = {}

    def terminal_data(idx: int):
        if idx not in term_cache:
            seg = segments[idx]
            if isinstance(seg, pth.LoiterSegment):
                term_cache[idx] = None
            else:
                b = pth.terminal_point(seg)
                t_b = pth.terminal_tangent(seg)
                term_cache[idx] = (float(b[0]), float(b[1]), float(b[2]),
                                   float(t_b[0]), float(t_b[1]), float(t_b[2]),
                                   isinstance(seg, pth.LineSegment))
        return term_cache[idx]

    cos_acpt = float(np.cos(switch_cfg.eta_acpt))
    r_acpt_sq = switch_cfg.r_acpt ** 2
    sw = float(queue.x_sw)
    idx = int(queue.current_index)

    x = np.asarray(x0, dtype=float).tolist()
    rows, sw_nodes, idx_nodes = [x], [sw], [idx]
    for u in controls.tolist():
        # terminal conditions on plain floats
        term = terminal_data(idx)
        met = False
        if term is not None:
            b_n, b_e, b_d, tb_n, tb_e, tb_d, is_line = term
            dn, de, dd = x[0] - b_n, x[1] - b_e, x[2] - b_d
            travel = dn * tb_n + de * tb_e + dd * tb_d > 0.0
            if is_line:
                met = travel
            elif travel and dn * dn + de * de + dd * dd < r_acpt_sq:
                v_a, gamma, xi = x[3], x[4], x[5]
                cg = math.cos(gamma)
                v_gn = v_a * cg * math.cos(xi) + wind.w_n
                v_ge = v_a * cg * math.sin(xi) + wind.w_e
                v_gd = -v_a * math.sin(gamma) + wind.w_d
                speed = math.sqrt(v_gn * v_gn + v_ge * v_ge + v_gd * v_gd)
                if speed > 0.0:
                    met = (v_gn * tb_n + v_ge * tb_e + v_gd * tb_d) / speed > cos_acpt
        if met or (sw - idx) > switch_cfg.sw_threshold:
            sw = min(sw + switch_cfg.rho_sw * cfg.t_step, float(n_seg))
        idx = max(min(math.floor(sw), n_seg - 1), idx)

        x = md.rk4_step_floats(x, u, wind, params, cfg.t_step)
        rows.append(x)
        sw_nodes.append(sw)
        idx_nodes.append(idx)

    states = np.array(rows)
    ctx = HorizonContext.allocate(n + 1)
    ctx.seg_index[:] = idx_nodes
    bounds = [0, *(np.flatnonzero(np.diff(ctx.seg_index)) + 1), n + 1]
    axis_nodes = sum(ctx.fill_run(slice(a, b), segments[idx_nodes[a]], states[a:b, :3])
                     for a, b in zip(bounds, bounds[1:]))
    return Horizon(states=states, context=ctx, x_sw=np.array(sw_nodes),
                   axis_nodes=axis_nodes)


# ---------------------------------------------------------------------------
# Raw output evaluation, vectorized over columns.
# ---------------------------------------------------------------------------

def raw_outputs(x: np.ndarray, u: np.ndarray, ctx: HorizonContext,
                wind: md.WindVector, params: md.ModelParams,
                guidance_cfg: gd.GuidanceConfig, cfg: OcpConfig) -> np.ndarray:
    """Evaluate the stacked [y; z] outputs for state/control columns.

    `x` is (12, M), `u` is (3, M), and `ctx` holds M per-column frozen path
    contexts. Helix vertical position uses the frozen leg and a wrap-free
    angular offset around the context azimuth, so the outputs stay smooth for
    finite-difference columns near the exit azimuth.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m = x.shape[1]
    out = np.empty((N_OUT, m))

    r_n, r_e, r_d = x[md.IDX_N], x[md.IDX_E], x[md.IDX_D]
    v_g = md.kinematics_array(x, wind)
    v_gn, v_ge, v_gd = v_g[0], v_g[1], v_g[2]

    line = ctx.kind == KIND_LINE
    arc_like = ~line

    # --- closest point and tangent, branch-by-mask ---
    cos_g, sin_g = np.cos(ctx.gamma_p), np.sin(ctx.gamma_p)

    # line branch
    t_line_n = cos_g * np.cos(ctx.chi_p)
    t_line_e = cos_g * np.sin(ctx.chi_p)
    t_line_d = -sin_g
    dn, de, dd = r_n - ctx.anchor_n, r_e - ctx.anchor_e, r_d - ctx.anchor_d
    proj = dn * t_line_n + de * t_line_e + dd * t_line_d
    p_line_n = ctx.anchor_n + proj * t_line_n
    p_line_e = ctx.anchor_e + proj * t_line_e
    p_line_d = ctx.anchor_d + proj * t_line_d

    # arc/loiter branch
    direction = np.where(ctx.r_signed >= 0.0, 1.0, -1.0)
    radius = np.abs(ctx.r_signed)
    rho_n, rho_e = r_n - ctx.anchor_n, r_e - ctx.anchor_e
    rho = np.maximum(np.hypot(rho_n, rho_e), 1e-9)
    lam = np.arctan2(rho_e, rho_n)
    safe_radius = np.where(arc_like, radius, 1.0)
    p_arc_n = ctx.anchor_n + safe_radius * rho_n / rho
    p_arc_e = ctx.anchor_e + safe_radius * rho_e / rho
    # smooth backward angle around the frozen node azimuth
    delta_chi = ctx.delta_chi - direction * md.wrap_angle(lam - ctx.lam)
    slope = np.tan(ctx.gamma_p)
    pitch = 2.0 * np.pi * safe_radius * slope
    p_arc_d = ctx.anchor_d + delta_chi * safe_radius * slope + ctx.leg * pitch
    course = lam + direction * np.pi / 2
    t_arc_n = cos_g * np.cos(course)
    t_arc_e = cos_g * np.sin(course)
    t_arc_d = -sin_g

    p_n = np.where(line, p_line_n, p_arc_n)
    p_e = np.where(line, p_line_e, p_arc_e)
    p_d = np.where(line, p_line_d, p_arc_d)
    t_n = np.where(line, t_line_n, t_arc_n)
    t_e = np.where(line, t_line_e, t_arc_e)
    t_d = np.where(line, t_line_d, t_arc_d)

    # --- lateral guidance ---
    t_norm = np.maximum(np.hypot(t_n, t_e), 1e-12)
    tb_n, tb_e = t_n / t_norm, t_e / t_norm
    e_lat = tb_n * (p_e - r_e) - tb_e * (p_n - r_n)

    speed_lat = np.hypot(v_gn, v_ge)
    e_b_lat = np.where(speed_lat > 1.0, speed_lat * guidance_cfg.t_b_lat,
                       0.5 * guidance_cfg.t_b_lat * (1.0 + speed_lat ** 2))
    e_prime = np.clip(np.abs(e_lat) / e_b_lat, 0.0, 1.0)
    theta_l = -e_prime * (e_prime - 2.0)

    err_n, err_e = p_n - r_n, p_e - r_e
    err_norm = np.hypot(err_n, err_e)
    safe_err = np.maximum(err_norm, 1e-12)
    eb_n = np.where(err_norm > 1e-12, err_n / safe_err, 0.0)
    eb_e = np.where(err_norm > 1e-12, err_e / safe_err, 0.0)
    l_n = (1.0 - theta_l) * tb_n + theta_l * eb_n
    l_e = (1.0 - theta_l) * tb_e + theta_l * eb_e
    l_norm = np.hypot(l_n, l_e)
    degenerate = l_norm < 1e-12
    l_n = np.where(degenerate, tb_n, l_n)
    l_e = np.where(degenerate, tb_e, l_e)

    safe_speed_n = np.where(speed_lat > 1e-9, v_gn, 1.0)
    safe_speed_e = np.where(speed_lat > 1e-9, v_ge, 0.0)
    eta_lat = md.wrap_angle(np.arctan2(l_e, l_n) - np.arctan2(safe_speed_e, safe_speed_n))

    # --- longitudinal guidance ---
    e_lon = p_d - r_d
    speed = np.sqrt(v_gn ** 2 + v_ge ** 2 + v_gd ** 2)
    d_dot_p = np.clip(speed * t_d, -guidance_cfg.d_dot_clmb, guidance_cfg.d_dot_sink)
    delta_dd = np.where(e_lon < 0.0, -guidance_cfg.d_dot_clmb - d_dot_p,
                        guidance_cfg.d_dot_sink - d_dot_p)
    abs_dd = np.abs(delta_dd)
    e_b_lon = np.where(abs_dd > 1.0, guidance_cfg.t_b_lon * abs_dd,
                       0.5 * guidance_cfg.t_b_lon * (1.0 + delta_dd ** 2))
    e_prime_lon = np.clip(np.abs(e_lon / e_b_lon), 0.0, 1.0)
    theta_lon = -e_prime_lon * (e_prime_lon - 2.0)
    d_dot_sp = delta_dd * theta_lon + d_dot_p
    eta_lon = (d_dot_sp - v_gd) / (guidance_cfg.d_dot_clmb + guidance_cfg.d_dot_sink)

    # --- roll feed-forward (zero on lines) ---
    safe_r_signed = np.where(arc_like, ctx.r_signed, 1.0)
    bank = np.arctan(speed_lat ** 2 / (params.constants.g * safe_r_signed))
    fade = 0.5 * (1.0 + np.cos(np.pi * e_prime))
    phi_ff = np.where(arc_like, bank * fade, 0.0)

    alpha = x[md.IDX_THETA] - x[md.IDX_GAMMA]

    out[Y_ETA_LAT] = eta_lat
    out[Y_ETA_LON] = eta_lon
    out[Y_VA] = x[md.IDX_VA]
    out[Y_P] = x[md.IDX_P]
    out[Y_Q] = x[md.IDX_Q]
    out[Y_R] = x[md.IDX_R]
    out[Y_ALPHA_SOFT] = alpha_soft(alpha, cfg)
    out[N_Y + Z_DELTA_T_DOT] = (u[md.IDX_U_T] - x[md.IDX_DELTA_T]) / params.open_loop.tau_t
    out[N_Y + Z_U_T] = u[md.IDX_U_T]
    out[N_Y + Z_PHI_REF] = u[md.IDX_PHI_REF] - phi_ff
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
