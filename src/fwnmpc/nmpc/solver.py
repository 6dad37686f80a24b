"""Gauss-Newton SQP over the shooting horizon and the controller session.

Each iteration re-propagates the horizon from the measured state (so the
shooting gaps vanish identically), linearizes dynamics and weighted outputs,
condenses the continuity constraints into a dense control-space QP with box
bounds, solves it with the primal active-set method, and applies the full
step with objective-increase fallback to step halving.

Condensing builds H = J^T J and g = J^T r stage by stage with a forward
sensitivity pass and a backward adjoint pass (Andersson et al. 2013), in
O(N^2) and without forming the condensed Jacobian J. A period in which a QP
stops at its iteration limit keeps its line-searched controls and is
flagged degraded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp
from fwnmpc.nmpc.qp import solve_box_qp

_OBJ_SLACK = 1e-12   # relative slack for the non-increase acceptance test
_MAX_HALVINGS = 4


@dataclass
class OcpSolution:
    """Solver output for one controller period."""

    states: np.ndarray            # (N+1, 12)
    controls: np.ndarray          # (N, 3)
    seg_index: np.ndarray         # (N+1,)
    x_sw: np.ndarray              # (N+1,)
    objective: float
    objective_before: float
    kkt_residual: float
    qp_status: str                # first non-optimal QP status of the period, else "optimal"
    qp_active_set: int
    sqp_iters: int
    halvings: int                 # line-search halvings summed over the period's iterations
    obj_nonincrease_ok: bool
    degraded: bool = False        # a solver failure, or a QP at its iteration limit
    wall_time_s: float = 0.0
    axis_nodes: int = 0           # near-axis arc/loiter nodes of the final horizon


class AircraftShootingProblem:
    """One controller period's OCP: frozen queue snapshot, wind, references."""

    def __init__(self, params: md.ModelParams, cfg: ocp.OcpConfig,
                 weights: ocp.Weights, refs: ocp.References,
                 guidance_cfg: gd.GuidanceConfig, switch_cfg: pth.SwitchConfig,
                 queue: pth.PathQueue, wind: md.WindVector):
        self.params = params
        self.cfg = cfg
        self.weights = weights
        self.refs = refs
        self.guidance_cfg = guidance_cfg
        self.switch_cfg = switch_cfg
        self.queue = queue
        self.wind = wind

        self.n = cfg.n_steps
        self.stage_weight = np.concatenate([
            np.sqrt(weights.q_y * cfg.t_step) / weights.y_scale,
            np.sqrt(weights.r_z * cfg.t_step) / weights.z_scale])
        self.end_weight = np.sqrt(weights.p_end) / weights.y_scale
        self.stage_ref = refs.stage_reference()
        self.end_ref = refs.end_reference()
        self.u_lb = np.tile(cfg.control_lower(), (self.n, 1))
        self.u_ub = np.tile(cfg.control_upper(), (self.n, 1))

    # -- evaluation ---------------------------------------------------------

    def rollout(self, x0: np.ndarray, controls: np.ndarray) -> ocp.Horizon:
        return ocp.propagate_horizon(x0, controls, self.queue, self.wind,
                                     self.params, self.cfg, self.switch_cfg)

    def residuals(self, horizon: ocp.Horizon, controls: np.ndarray) -> np.ndarray:
        """Weighted residual vector, stages then end term."""
        n = self.n
        stage_ctx = horizon.context.select(slice(0, n))
        raw = ocp.raw_outputs(horizon.states[:n].T, controls.T, stage_ctx,
                              self.wind, self.params, self.guidance_cfg, self.cfg)
        stage_res = self.stage_weight[:, None] * (raw - self.stage_ref[:, None])

        end_ctx = horizon.context.select(slice(n, n + 1))
        raw_end = ocp.raw_outputs(horizon.states[n:].T,
                                  np.zeros((1, md.CONTROL_DIM)).T, end_ctx,
                                  self.wind, self.params, self.guidance_cfg, self.cfg)
        end_res = self.end_weight * (raw_end[:ocp.N_Y, 0] - self.end_ref)
        return np.concatenate([stage_res.T.ravel(), end_res])

    def objective(self, residual: np.ndarray) -> float:
        # numpy's pairwise sum, not BLAS ddot: reduction order must not
        # depend on the thread-count setting (bit-reproducible runs)
        return float(np.sum(residual * residual))

    # -- linearization ------------------------------------------------------

    def dynamics_jacobians(self, horizon: ocp.Horizon, controls: np.ndarray):
        return ocp.rk4_jacobians(horizon.states[:-1], controls, self.wind,
                                 self.params, self.cfg.t_step)

    def residual_jacobians(self, horizon: ocp.Horizon, controls: np.ndarray):
        """Weighted output Jacobians (C_k wrt state, D_k wrt control) per stage
        plus the end-term state Jacobian, all by forward differences with
        wrap-aware angle rows."""
        n, n_x = self.n, md.STATE_DIM
        (x_batch, u_batch), steps = ocp.fd_batch(horizon.states[:n], controls)
        ctx_batch = horizon.context.select(slice(0, n)).repeat(1 + steps.shape[1])
        raw = ocp.raw_outputs(x_batch, u_batch, ctx_batch, self.wind, self.params,
                              self.guidance_cfg, self.cfg)
        jac = ocp.fd_jacobians(raw, steps, ocp.ANGLE_OUTPUT_ROWS)
        jac *= self.stage_weight[None, :, None]
        c_stage, d_stage = jac[:, :, :n_x], jac[:, :, n_x:]

        # end term: state Jacobian of the y-outputs only
        (xe_batch,), steps_end = ocp.fd_batch(horizon.states[n:])
        ctx_end = horizon.context.select(slice(n, n + 1)).repeat(1 + n_x)
        raw_end = ocp.raw_outputs(xe_batch, np.zeros((md.CONTROL_DIM, 1 + n_x)), ctx_end,
                                  self.wind, self.params, self.guidance_cfg, self.cfg)
        c_end = ocp.fd_jacobians(raw_end[:ocp.N_Y], steps_end,
                                 ocp.ANGLE_OUTPUT_ROWS)[0] * self.end_weight[:, None]
        return c_stage, d_stage, c_end

    def bounds(self):
        return self.u_lb, self.u_ub


@dataclass
class SqpIterationResult:
    controls: np.ndarray
    horizon: ocp.Horizon
    residual: np.ndarray
    objective: float
    objective_before: float
    step_norm: float
    kkt_residual: float
    qp_status: str
    qp_active_set: int
    halvings: int
    accepted: bool


def condensed_normal_equations(a_mat: np.ndarray, b_mat: np.ndarray,
                               c_stage: np.ndarray, d_stage: np.ndarray,
                               c_end: np.ndarray, residual: np.ndarray):
    """Gauss-Newton normal equations H = J^T J, g = J^T r of the condensed
    problem, without forming the condensed Jacobian J.

    Takes the stage blocks A_k = a_mat[k], B_k = b_mat[k], C_k = c_stage[k],
    D_k = d_stage[k], the end block C_N = c_end, and the stacked stage and
    end residuals; every dimension is read from the shapes. A forward pass
    builds the condensed output rows J_k = C_k S_k + D_k E_k, with the state
    sensitivity S_{k+1} = A_k S_k + B_k E_k (E_k selects node k's controls),
    so J_k is zero beyond column n_u (k+1). A backward adjoint pass forms
    L_k = C_k^T J_k + A_k^T L_{k+1} from L_N = C_N^T J_N, and row block k of
    H as D_k^T J_k + B_k^T L_{k+1}: one product [D_k^T B_k^T; C_k^T A_k^T]
    [J_k; L_{k+1}] per node over the lower triangle, with the residual as an
    extra column that yields g. The upper triangle is mirrored, so H is
    exactly symmetric. The cost grows as O(N^2), and no product is large
    enough for a threaded BLAS to split, so the bits do not depend on the
    thread count.
    """
    n, n_x, n_u = b_mat.shape
    n_out = c_stage.shape[1]
    n_dec = n * n_u

    # forward: rows[k] = [r_k | J_k]; sens[:, :m] holds S_k's nonzero columns
    rows = np.empty((n, n_out, 1 + n_dec))
    rows[:, :, 0] = residual[:n * n_out].reshape(n, n_out)
    sens, sens_next = np.empty((n_x, n_dec)), np.empty((n_x, n_dec))
    for k in range(n):
        m = k * n_u
        np.matmul(c_stage[k], sens[:, :m], out=rows[k, :, 1:1 + m])
        rows[k, :, 1 + m:1 + m + n_u] = d_stage[k]
        np.matmul(a_mat[k], sens[:, :m], out=sens_next[:, :m])
        sens_next[:, m:m + n_u] = b_mat[k]
        sens, sens_next = sens_next, sens
    end_rows = np.empty((c_end.shape[0], 1 + n_dec))
    end_rows[:, 0] = residual[n * n_out:]
    np.matmul(c_end, sens, out=end_rows[:, 1:])

    # backward: stack[:n_out] = [r_k | J_k] over stack[n_out:] = L_{k+1}, the
    # residual's adjoint in column 0; each node keeps the columns node k-1 reads
    lhs = np.empty((n, n_u + n_x, n_out + n_x))
    lhs[:, :n_u, :n_out] = d_stage.transpose(0, 2, 1)
    lhs[:, :n_u, n_out:] = b_mat.transpose(0, 2, 1)
    lhs[:, n_u:, :n_out] = c_stage.transpose(0, 2, 1)
    lhs[:, n_u:, n_out:] = a_mat.transpose(0, 2, 1)
    stack = np.empty((n_out + n_x, 1 + n_dec))
    np.matmul(c_end.T, end_rows, out=stack[n_out:])
    prod = np.empty((n_u + n_x, 1 + n_dec))
    h_mat = np.empty((n_dec, n_dec))
    g_vec = np.empty(n_dec)
    for k in range(n - 1, -1, -1):
        m = k * n_u
        width = 1 + m + n_u
        stack[:n_out, :width] = rows[k, :, :width]
        np.matmul(lhs[k], stack[:, :width], out=prod[:, :width])
        g_vec[m:m + n_u] = prod[:n_u, 0]
        h_mat[m:m + n_u, :m + n_u] = prod[:n_u, 1:width]
        stack[n_out:, :1 + m] = prod[n_u:, :1 + m]
    for i in range(n_dec - 1):
        h_mat[i, i + 1:] = h_mat[i + 1:, i]
    return h_mat, g_vec


def sqp_iterate(problem: AircraftShootingProblem, x0: np.ndarray,
                controls: np.ndarray, horizon: ocp.Horizon | None = None,
                residual: np.ndarray | None = None,
                reg: float = 1e-8) -> SqpIterationResult:
    """One Gauss-Newton iteration with condensing and box-constrained QP."""
    if horizon is None:
        horizon = problem.rollout(x0, controls)
    if residual is None:
        residual = problem.residuals(horizon, controls)
    obj0 = problem.objective(residual)

    a_mat, b_mat = problem.dynamics_jacobians(horizon, controls)
    c_stage, d_stage, c_end = problem.residual_jacobians(horizon, controls)
    finite = np.empty(a_mat.shape[0] + 1, dtype=bool)
    finite[:-1] = np.logical_and.reduce(
        [np.isfinite(block).all(axis=(1, 2)) for block in (a_mat, b_mat, c_stage, d_stage)])
    finite[-1] = np.isfinite(c_end).all()
    if not finite.all():
        bad = int(np.argmin(finite))
        where = " (end term)" if bad == a_mat.shape[0] else ""
        raise md.ModelDomainError(f"non-finite linearization at shooting node {bad}{where}")

    h_mat, g_vec = condensed_normal_equations(a_mat, b_mat, c_stage, d_stage,
                                              c_end, residual)
    h_mat[np.diag_indices_from(h_mat)] += reg

    u_lb, u_ub = problem.bounds()
    qp = solve_box_qp(h_mat, g_vec, (u_lb - controls).ravel(),
                      (u_ub - controls).ravel())
    delta = qp.x.reshape(controls.shape)
    step_norm = float(np.max(np.abs(delta), initial=0.0))

    # full step, halving on objective increase
    alpha = 1.0
    accepted = False
    halvings = 0
    best = (controls, horizon, residual, obj0)
    for _ in range(_MAX_HALVINGS + 1):
        cand_u = np.clip(controls + alpha * delta, u_lb, u_ub)
        cand_h = problem.rollout(x0, cand_u)
        cand_r = problem.residuals(cand_h, cand_u)
        cand_obj = problem.objective(cand_r)
        if cand_obj <= obj0 * (1.0 + _OBJ_SLACK) + _OBJ_SLACK:
            best = (cand_u, cand_h, cand_r, cand_obj)
            accepted = True
            break
        halvings += 1
        alpha *= 0.5

    u_new, h_new, r_new, obj_new = best
    return SqpIterationResult(
        controls=u_new, horizon=h_new, residual=r_new, objective=obj_new,
        objective_before=obj0, step_norm=step_norm, kkt_residual=qp.kkt_residual,
        qp_status=qp.status, qp_active_set=qp.n_active,
        halvings=halvings, accepted=accepted)


def apply_throttle_failure_weight(weights: ocp.Weights,
                                  magnitude: float = 1.0e6) -> ocp.Weights:
    """Pin the throttle command to its reference with an overwhelming weight."""
    r_z = weights.r_z.copy()
    r_z[ocp.Z_U_T] = magnitude
    return replace(weights, r_z=r_z)


class NmpcController:
    """Stateful controller session: warm starting, fixed-iteration stepping.

    One `step` per controller period; not reentrant. All functions below the
    session are pure, so the object may be moved between threads between
    calls.
    """

    def __init__(self, params: md.ModelParams, cfg: ocp.OcpConfig,
                 weights: ocp.Weights, refs: ocp.References,
                 guidance_cfg: gd.GuidanceConfig | None = None,
                 switch_cfg: pth.SwitchConfig | None = None):
        self.params = params
        self.cfg = cfg
        self.weights = weights
        self.refs = refs
        self.guidance_cfg = guidance_cfg or gd.GuidanceConfig()
        self.switch_cfg = switch_cfg or pth.SwitchConfig()
        self._trim_control = np.array([refs.u_t_trim, 0.0, refs.theta_ref_trim])
        self._controls: np.ndarray | None = None
        self._last_control = md.ControlInput(u_t=refs.u_t_trim, phi_ref=0.0,
                                             theta_ref=refs.theta_ref_trim)
        self._last_solution: OcpSolution | None = None

    def reset(self) -> None:
        self._controls = None
        self._last_solution = None

    def step(self, measured: md.AircraftState, queue: pth.PathQueue,
             wind: md.WindVector) -> tuple[md.ControlInput, OcpSolution]:
        """Advance one controller period and return the first control."""
        t_start = time.perf_counter()
        x0 = measured.as_array()
        problem = AircraftShootingProblem(
            self.params, self.cfg, self.weights, self.refs, self.guidance_cfg,
            self.switch_cfg, queue, wind)

        if self._controls is None:
            controls = np.tile(self._trim_control, (self.cfg.n_steps, 1))
            n_iter = self.cfg.cold_start_sqp_iter
        else:
            controls = np.vstack([self._controls[1:], self._controls[-1:]])
            n_iter = self.cfg.max_sqp_iter
        controls = np.clip(controls, *problem.bounds())

        try:
            solution = self._solve(problem, x0, controls, n_iter)
        except (md.ModelDomainError, np.linalg.LinAlgError, FloatingPointError):
            solution = self._degraded_solution()
            solution.wall_time_s = time.perf_counter() - t_start
            return self._last_control, solution

        solution.wall_time_s = time.perf_counter() - t_start
        self._controls = solution.controls
        self._last_control = md.ControlInput.from_array(solution.controls[0])
        self._last_solution = solution
        return self._last_control, solution

    def _solve(self, problem: AircraftShootingProblem, x0: np.ndarray,
               controls: np.ndarray, n_iter: int) -> OcpSolution:
        horizon = None
        residual = None
        nonincrease_ok = True
        first_obj = None
        result = None
        qp_status = None      # the first QP status of the period that is not optimal
        iters_run = 0
        halvings = 0
        for _ in range(max(n_iter, 1)):
            result = sqp_iterate(problem, x0, controls, horizon=horizon,
                                 residual=residual)
            iters_run += 1
            halvings += result.halvings
            if first_obj is None:
                first_obj = result.objective_before
            if qp_status is None and result.qp_status != "optimal":
                qp_status = result.qp_status
            nonincrease_ok &= result.objective <= result.objective_before \
                * (1.0 + 1e-9) + 1e-9
            controls, horizon, residual = result.controls, result.horizon, result.residual
            if result.step_norm < 1e-10:
                break

        if not np.all(np.isfinite(controls)):
            raise md.ModelDomainError("non-finite controls out of SQP")
        return OcpSolution(
            states=result.horizon.states, controls=controls,
            seg_index=result.horizon.seg_index.copy(), x_sw=result.horizon.x_sw.copy(),
            objective=result.objective, objective_before=float(first_obj),
            kkt_residual=result.kkt_residual, qp_status=qp_status or result.qp_status,
            qp_active_set=result.qp_active_set, sqp_iters=iters_run,
            halvings=halvings, obj_nonincrease_ok=bool(nonincrease_ok),
            degraded=qp_status == "iteration_limit", axis_nodes=result.horizon.axis_nodes)

    def _degraded_solution(self) -> OcpSolution:
        n = self.cfg.n_steps
        if self._last_solution is not None:
            sol = replace(self._last_solution)
        else:
            sol = OcpSolution(
                states=np.zeros((n + 1, md.STATE_DIM)), controls=np.tile(
                    self._trim_control, (n, 1)),
                seg_index=np.zeros(n + 1, dtype=int), x_sw=np.zeros(n + 1),
                objective=float("nan"), objective_before=float("nan"),
                kkt_residual=float("nan"), qp_status="failed", qp_active_set=0,
                sqp_iters=0, halvings=0, obj_nonincrease_ok=True)
        sol.degraded = True
        return sol
