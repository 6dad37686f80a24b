"""Shared independent oracles and test tooling used by unit and acceptance tests.

Every oracle here is deliberately written from first principles (grid searches,
central differences) and must not call into the code paths it checks, beyond
plain data access. The `reference_*` functions keep the plain per-node forms
of optimized code paths, which must match them byte for byte.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fwnmpc
from fwnmpc import model as md
from fwnmpc import paths
from fwnmpc.nmpc import ocp

TWO_PI = 2.0 * np.pi

_LAM_GRID = np.linspace(-np.pi, np.pi, 200_001)
_COS_GRID = np.cos(_LAM_GRID)
_SIN_GRID = np.sin(_LAM_GRID)


def brute_force_arc_point(seg, r):
    """Decoupled closest point oracle: azimuth grid search with parabolic
    refinement for the lateral part, whole-leg scan for the vertical part."""
    r = np.asarray(r, dtype=float)
    radius = abs(seg.r_signed)
    d2 = (seg.c[0] + radius * _COS_GRID - r[0]) ** 2 \
        + (seg.c[1] + radius * _SIN_GRID - r[1]) ** 2
    i = int(np.argmin(d2))
    i = min(max(i, 1), len(_LAM_GRID) - 2)
    denom = d2[i - 1] - 2 * d2[i] + d2[i + 1]
    shift = 0.5 * (d2[i - 1] - d2[i + 1]) / denom if denom > 0 else 0.0
    lam = _LAM_GRID[i] + shift * (_LAM_GRID[1] - _LAM_GRID[0])
    p_ne = seg.c[:2] + radius * np.array([np.cos(lam), np.sin(lam)])

    if isinstance(seg, paths.LoiterSegment) or abs(np.tan(seg.gamma_p)) < 1e-12:
        return np.array([p_ne[0], p_ne[1], seg.c[2]]), 0

    direction = 1.0 if seg.r_signed > 0 else -1.0
    lam_b = seg.chi_p - direction * np.pi / 2
    dchi = np.mod(direction * (lam_b - lam), TWO_PI)
    slope = np.tan(seg.gamma_p)
    pitch = TWO_PI * radius * slope
    base_d = seg.c[2] + dchi * radius * slope
    center = int(np.round((r[2] - base_d) / pitch))
    legs = center + np.arange(-6, 7)
    cand = base_d + legs * pitch
    j = int(np.argmin(np.abs(cand - r[2])))
    return np.array([p_ne[0], p_ne[1], cand[j]]), int(legs[j])


def random_envelope_states(rng, n):
    """States across the identified flight envelope."""
    states = np.empty((n, md.STATE_DIM))
    states[:, md.IDX_N] = rng.uniform(-200, 200, n)
    states[:, md.IDX_E] = rng.uniform(-200, 200, n)
    states[:, md.IDX_D] = rng.uniform(-150, -30, n)
    states[:, md.IDX_VA] = rng.uniform(11.0, 18.0, n)
    states[:, md.IDX_GAMMA] = rng.uniform(-0.2, 0.2, n)
    states[:, md.IDX_XI] = rng.uniform(-np.pi, np.pi, n)
    states[:, md.IDX_PHI] = rng.uniform(-0.5, 0.5, n)
    states[:, md.IDX_THETA] = rng.uniform(-0.25, 0.25, n)
    states[:, md.IDX_P] = rng.uniform(-1.0, 1.0, n)
    states[:, md.IDX_Q] = rng.uniform(-1.0, 1.0, n)
    states[:, md.IDX_R] = rng.uniform(-1.0, 1.0, n)
    states[:, md.IDX_DELTA_T] = rng.uniform(0.1, 0.9, n)
    return states


def central_difference_jacobians(x, u, wind, params, dt):
    """Central-difference oracle for the shooting-step Jacobians."""
    n_x, n_u = md.STATE_DIM, md.CONTROL_DIM
    a_mat = np.empty((n_x, n_x))
    b_mat = np.empty((n_x, n_u))
    for i in range(n_x):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = md.rk4_step_array(xp, u, wind, params, dt)
        fm = md.rk4_step_array(xm, u, wind, params, dt)
        diff = fp - fm
        for idx in md.ANGLE_STATES:
            diff[idx] = md.wrap_angle(diff[idx])
        a_mat[:, i] = diff / (2 * h)
    for j in range(n_u):
        h = 1e-6 * max(1.0, abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        fp = md.rk4_step_array(x, up, wind, params, dt)
        fm = md.rk4_step_array(x, um, wind, params, dt)
        diff = fp - fm
        for idx in md.ANGLE_STATES:
            diff[idx] = md.wrap_angle(diff[idx])
        b_mat[:, j] = diff / (2 * h)
    return a_mat, b_mat


def _reference_derivative(x, u, wind, params):
    """Plain-float state derivative returned as an array, as the scalar RK4
    path computed it before the fused float step."""
    v_a, gamma, xi = float(x[md.IDX_VA]), float(x[md.IDX_GAMMA]), float(x[md.IDX_XI])
    phi, theta = float(x[md.IDX_PHI]), float(x[md.IDX_THETA])
    p, q, r = float(x[md.IDX_P]), float(x[md.IDX_Q]), float(x[md.IDX_R])
    delta_t = float(x[md.IDX_DELTA_T])
    u_t, phi_ref, theta_ref = float(u[0]), float(u[1]), float(u[2])
    ol, cl, consts = params.open_loop, params.closed_loop, params.constants

    cos_gamma = math.cos(gamma)
    if abs(cos_gamma) < md.COS_GAMMA_FLOOR:
        raise md.ModelDomainError("flight path angle too close to vertical for heading dynamics")
    alpha = theta - gamma
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    v_prop = v_a * cos_a
    if v_prop < md.PROP_SPEED_FLOOR:
        v_prop = md.PROP_SPEED_FLOOR
    power = ol.c_t1 * delta_t + ol.c_t2 * delta_t ** 2 + ol.c_t3 * delta_t ** 3
    thrust = power / v_prop
    qbar_s = 0.5 * consts.rho_air * v_a * v_a * consts.s_wing
    drag = qbar_s * (ol.c_d0 + ol.c_dalpha * alpha + ol.c_dalpha2 * alpha * alpha)
    lift = qbar_s * (ol.c_l0 + ol.c_lalpha * alpha + ol.c_lalpha2 * alpha * alpha)
    side_force = thrust * sin_a + lift
    m, g = consts.m, consts.g

    return np.array([
        v_a * cos_gamma * math.cos(xi) + wind.w_n,
        v_a * cos_gamma * math.sin(xi) + wind.w_e,
        -v_a * math.sin(gamma) + wind.w_d,
        (thrust * cos_a - drag) / m - g * math.sin(gamma),
        (side_force * cos_phi - m * g * cos_gamma) / (m * v_a),
        sin_phi * side_force / (m * v_a * cos_gamma),
        p,
        q * cos_phi - r * sin_phi,
        cl.l_p * p + cl.l_r * r + cl.l_ephi * (phi_ref - phi),
        v_a * v_a * (cl.m_0 + cl.m_alpha * alpha + cl.m_q * q
                     + cl.m_etheta * (theta_ref - theta)),
        cl.n_r * r + cl.n_phi * phi + cl.n_phiref * phi_ref,
        (u_t - delta_t) / ol.tau_t,
    ])


def reference_rk4_step(x, u, wind, params, dt):
    """Single-state RK4 step with array stage sums and post-step angle wrap,
    the form of the scalar path before the fused float step."""
    x = np.asarray(x, dtype=float)
    k1 = _reference_derivative(x, u, wind, params)
    k2 = _reference_derivative(x + 0.5 * dt * k1, u, wind, params)
    k3 = _reference_derivative(x + 0.5 * dt * k2, u, wind, params)
    k4 = _reference_derivative(x + dt * k3, u, wind, params)
    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for idx in md.ANGLE_STATES:
        x_next[idx] = math.pi - ((math.pi - x_next[idx]) % TWO_PI)
    if not np.all(np.isfinite(x_next)):
        raise md.ModelDomainError("non-finite state after integration step")
    return x_next


def _reference_arc_leg(seg, r, leg_cap):
    """(valid, delta_chi, leg) of the scalar arc closest point: backward angle
    to the exit point, nearest helix leg under `leg_cap`; a query within
    AXIS_EPS of the axis is invalid with delta_chi = 0 and leg 0."""
    rho_n, rho_e = r[0] - seg.c[0], r[1] - seg.c[1]
    if float(np.hypot(rho_n, rho_e)) < paths.AXIS_EPS:
        return False, 0.0, 0
    if isinstance(seg, paths.LoiterSegment):
        return True, 0.0, 0
    direction = 1.0 if seg.r_signed > 0.0 else -1.0
    lam = float(np.arctan2(rho_e, rho_n))
    lam_b = seg.chi_p - direction * np.pi / 2
    delta_chi = float(np.mod(direction * (lam_b - lam), TWO_PI))
    radius, slope = abs(seg.r_signed), np.tan(seg.gamma_p)
    if abs(slope) < paths.FLAT_SLOPE_EPS:
        return True, delta_chi, 0
    leg = int(np.round((r[2] - (seg.c[2] + delta_chi * radius * slope))
                       / (TWO_PI * radius * slope)))
    return True, delta_chi, leg if leg_cap is None else min(leg, leg_cap)


def reference_propagate_horizon(x0, controls, queue, wind, params, cfg, switch_cfg):
    """Node-by-node horizon rollout: a `PathQueue` and a capped scalar arc
    closest point per node (a near-axis node carries the cap across), the
    inlined switching recursion, and `reference_rk4_step`. Returns (states,
    x_sw, context fields by name)."""
    n = cfg.n_steps
    segments = queue.segments
    n_seg = len(segments)
    states = np.empty((n + 1, md.STATE_DIM))
    x_sw = np.empty(n + 1)
    ctx = paths.HorizonContext.allocate(n + 1)
    cos_acpt = float(np.cos(switch_cfg.eta_acpt))
    sw = float(queue.x_sw)
    idx = int(queue.current_index)
    x = np.asarray(x0, dtype=float).copy()
    leg_cap, last_index = None, idx

    for k in range(n + 1):
        states[k] = x
        x_sw[k] = sw
        if idx != last_index:
            leg_cap, last_index = None, idx
        seg = paths.PathQueue(segments=segments, x_sw=sw, current_index=idx).current_segment
        r = x[:3]
        ctx.seg_index[k] = idx
        if isinstance(seg, paths.LineSegment):
            ctx.kind[k] = paths.KIND_LINE
            ctx.anchor_n[k], ctx.anchor_e[k], ctx.anchor_d[k] = seg.b
            ctx.chi_p[k], ctx.gamma_p[k] = seg.chi_p, seg.gamma_p
        else:
            valid, delta_chi, leg = _reference_arc_leg(seg, r, leg_cap)
            is_loiter = isinstance(seg, paths.LoiterSegment)
            ctx.kind[k] = paths.KIND_LOITER if is_loiter else paths.KIND_ARC
            ctx.anchor_n[k], ctx.anchor_e[k], ctx.anchor_d[k] = seg.c
            ctx.chi_p[k] = 0.0 if is_loiter else seg.chi_p
            ctx.gamma_p[k] = 0.0 if is_loiter else seg.gamma_p
            ctx.r_signed[k] = seg.r_signed
            ctx.leg[k] = leg
            ctx.delta_chi[k] = delta_chi
            ctx.lam[k] = float(np.arctan2(r[1] - seg.c[1], r[0] - seg.c[0]))
            if valid and not is_loiter:
                leg_cap = leg
        if k == n:
            break

        met = False
        if not isinstance(seg, paths.LoiterSegment):
            b, t_b = paths.terminal_point(seg), paths.terminal_tangent(seg)
            dn, de, dd = x[0] - float(b[0]), x[1] - float(b[1]), x[2] - float(b[2])
            tb_n, tb_e, tb_d = float(t_b[0]), float(t_b[1]), float(t_b[2])
            travel = dn * tb_n + de * tb_e + dd * tb_d > 0.0
            if isinstance(seg, paths.LineSegment):
                met = travel
            elif travel and dn * dn + de * de + dd * dd < switch_cfg.r_acpt ** 2:
                v_a, gamma, xi = float(x[3]), float(x[4]), float(x[5])
                cg = math.cos(gamma)
                v_gn = v_a * cg * math.cos(xi) + wind.w_n
                v_ge = v_a * cg * math.sin(xi) + wind.w_e
                v_gd = -v_a * math.sin(gamma) + wind.w_d
                speed = math.sqrt(v_gn * v_gn + v_ge * v_ge + v_gd * v_gd)
                if speed > 0.0:
                    met = (v_gn * tb_n + v_ge * tb_e + v_gd * tb_d) / speed > cos_acpt
        if met or (sw - idx) > switch_cfg.sw_threshold:
            sw = min(sw + switch_cfg.rho_sw * cfg.t_step, float(n_seg))
        idx = max(min(int(np.floor(sw)), n_seg - 1), idx)
        x = reference_rk4_step(x, controls[k], wind, params, cfg.t_step)
    return states, x_sw, {f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx)}


def checkout_env() -> dict:
    """This process's environment with this checkout's package first on
    PYTHONPATH, for a new interpreter that must import it."""
    src = str(Path(fwnmpc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_at_thread_count(code, *args, threads):
    """Run `code` (with `args` as its argv) in a new interpreter whose
    BLAS/OpenMP pools have `threads` threads, importing this checkout's
    package; return its stdout."""
    env = checkout_env()
    env.update({"OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads),
                "MKL_NUM_THREADS": str(threads)})
    run = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         check=True, env=env, capture_output=True, text=True)
    return run.stdout


def select_context(ctx, idx):
    """The columns `idx` of a `paths.HorizonContext`."""
    return paths.HorizonContext(**{f.name: getattr(ctx, f.name)[idx]
                                   for f in dataclasses.fields(ctx)})


def train_validate_split(datasets: list, train_fraction: float = 0.7,
                         seed: int = 0) -> tuple[list, list]:
    """Shuffle and split experiment sets into training and validation groups."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(len(datasets))
    n_train = int(round(train_fraction * len(datasets)))
    n_train = min(max(n_train, 1), len(datasets) - 1) if len(datasets) > 1 else 1
    train = [datasets[i] for i in order[:n_train]]
    val = [datasets[i] for i in order[n_train:]]
    return train, val


def reference_residuals(problem, horizon, controls):
    """Two-pass weighted residuals of a shooting problem: one `raw_outputs`
    call on nodes 0..N-1 and one on the end node."""
    n = problem.n
    stage_ctx = select_context(horizon.context, slice(0, n))
    raw = ocp.raw_outputs(horizon.states[:n].T, controls.T, stage_ctx, problem.wind,
                          problem.params, problem.guidance_cfg, problem.cfg)
    stage_res = problem.stage_weight[:, None] * (raw - problem.stage_ref[:, None])
    end_ctx = select_context(horizon.context, slice(n, n + 1))
    raw_end = ocp.raw_outputs(horizon.states[n:].T, np.zeros((1, md.CONTROL_DIM)).T, end_ctx,
                              problem.wind, problem.params, problem.guidance_cfg, problem.cfg)
    end_res = problem.end_weight * (raw_end[:ocp.N_Y, 0] - problem.end_ref)
    return np.concatenate([stage_res.T.ravel(), end_res])


def reference_residual_jacobians(problem, horizon, controls):
    """Two-pass weighted output Jacobians (C_k, D_k, C_N): one FD batch on
    nodes 0..N-1 and one on the end node's state."""
    n, n_x = problem.n, md.STATE_DIM
    (x_batch, u_batch), steps = ocp.fd_batch(horizon.states[:n], controls)
    ctx_batch = select_context(horizon.context, slice(0, n)).repeat(1 + steps.shape[1])
    raw = ocp.raw_outputs(x_batch, u_batch, ctx_batch, problem.wind, problem.params,
                          problem.guidance_cfg, problem.cfg)
    jac = ocp.fd_jacobians(raw, steps, ocp.ANGLE_OUTPUT_ROWS)
    jac *= problem.stage_weight[None, :, None]

    (xe_batch,), steps_end = ocp.fd_batch(horizon.states[n:])
    ctx_end = select_context(horizon.context, slice(n, n + 1)).repeat(1 + n_x)
    raw_end = ocp.raw_outputs(xe_batch, np.zeros((md.CONTROL_DIM, 1 + n_x)), ctx_end,
                              problem.wind, problem.params, problem.guidance_cfg, problem.cfg)
    c_end = ocp.fd_jacobians(raw_end[:ocp.N_Y], steps_end,
                             ocp.ANGLE_OUTPUT_ROWS)[0] * problem.end_weight[:, None]
    return jac[:, :, :n_x], jac[:, :, n_x:], c_end
