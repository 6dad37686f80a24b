"""Gauss-Newton SQP over the shooting horizon and the controller session.

Each iteration re-propagates the horizon from the measured state (so the
shooting gaps vanish identically), linearizes dynamics and weighted outputs,
condenses the continuity constraints into a dense control-space QP with box
bounds, solves it by projected Newton, and applies the full step with
objective-increase fallback to step halving.

Condensing builds H = J^T J stage by stage with a forward sensitivity pass
and a backward adjoint pass (Andersson et al. 2013), in O(N^2) and without
forming the condensed Jacobian J; g = J^T r takes one O(N) adjoint pass.

A warm controller period runs as a real-time iteration (Diehl, Bock and
Schloeder 2005) in two phases. The preparation phase, `NmpcController.prepare`,
runs between periods: it shifts the last accepted horizon by one node and
builds a `Linearization` there: H, the QP factor, and the gradient and
M = J_u^T J_x0 at the shifted node 0, the prediction x_pred, and the QP's
first Newton step there, s0 + K (x_meas - x_pred).
The feedback phase, `step`, embeds the measurement (initial-value
embedding): it solves the prepared QP for g = gradient + M (x_meas - x_pred)
from that first step and sends the full step's first control, with no
rollout. Every warm period with a preparation for its weights and wind
embeds. The next preparation runs that period's line search from the
measurement with node 0 held at the control sent; its baseline is the warm
plan with the same node 0, which it keeps if every step length raises the
objective, so the objective never increases. A cold start, a period without
a usable preparation, and one whose weights or wind changed roll out from
the measurement instead and linearize there (`sqp_iterate`). A period in
which a QP stops at its iteration limit keeps its controls and is flagged
degraded.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace

import numpy as np

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp
from fwnmpc.nmpc.qp import QpFactor, first_newton_step, prepare_box_qp, solve_box_qp

_OBJ_SLACK = 1e-12   # relative slack for the non-increase acceptance test
_MAX_HALVINGS = 4
_REG = 1e-8          # added to H's diagonal before the QP
_ANGLE_ROWS = np.array(md.ANGLE_STATES)


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
    qp_iters: int                 # QP iterations summed over the period; 0 if its solver raised
    halvings: int                 # line-search halvings summed over the period's iterations
    obj_nonincrease_ok: bool
    degraded: bool = False        # a solver failure, or a QP at its iteration limit
    # why the period degraded: "qp_iteration_limit", or the solver exception
    # that held the last control: "non_finite_linearization", "lin_alg"
    # (np.linalg.LinAlgError), "domain" (any other md.ModelDomainError) or
    # "floating_point" (FloatingPointError); "" if it did not degrade
    degraded_reason: str = ""
    # "embedded", or "rollout:<cause>" with a cause of "cold" (no warm start),
    # "not_prepared" (no `prepare` since the last step), "prepare_failed"
    # (`prepare` raised) or "weights_changed" (the weights or the wind differ
    # from the preparation's); a rollout linearizes at the rollout from the
    # measurement (see `NmpcController`)
    feedback: str = ""
    wall_time_s: float = 0.0      # feedback latency: measurement in, control out
    axis_nodes: int = 0           # near-axis arc/loiter nodes of the final horizon


class NonFiniteLinearizationError(md.ModelDomainError):
    """A Jacobian block of a linearization holds a NaN or an infinity."""


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
        """Weighted residual vector, stages then end term, from one output
        pass over the N+1 nodes (node N with zero controls)."""
        node_u = np.vstack([controls, np.zeros((1, md.CONTROL_DIM))])
        return self._weighted(ocp.raw_outputs(horizon.states.T, node_u.T, horizon.context,
                                              self.wind, self.params, self.guidance_cfg,
                                              self.cfg))

    def _weighted(self, raw: np.ndarray) -> np.ndarray:
        """The residual vector of the (R, N+1) raw outputs at the nodes."""
        n = self.n
        stage_res = self.stage_weight[:, None] * (raw[:, :n] - self.stage_ref[:, None])
        end_res = self.end_weight * (raw[:ocp.N_Y, n] - self.end_ref)
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
        plus the end-term state Jacobian, by forward differences with
        wrap-aware angle rows over one batch of the N+1 nodes (node N with
        zero controls, of which the end term reads the y-rows and states);
        and the residual vector at the nodes, from the batch's unperturbed
        column of each node."""
        n, n_x = self.n, md.STATE_DIM
        node_u = np.vstack([controls, np.zeros((1, md.CONTROL_DIM))])
        (x_batch, u_batch), steps = ocp.fd_batch(horizon.states, node_u)
        raw = ocp.raw_outputs(x_batch, u_batch, horizon.context.repeat(1 + steps.shape[1]),
                              self.wind, self.params, self.guidance_cfg, self.cfg)
        jac = ocp.fd_jacobians(raw, steps, ocp.ANGLE_OUTPUT_ROWS)
        stage = jac[:n] * self.stage_weight[None, :, None]
        c_end = jac[n, :ocp.N_Y, :n_x] * self.end_weight[:, None]
        residual = self._weighted(raw.reshape(raw.shape[0], n + 1, -1)[:, :, 0])
        return stage[:, :, :n_x], stage[:, :, n_x:], c_end, residual

    def bounds(self):
        return self.u_lb, self.u_ub


@dataclass(frozen=True)
class Linearization:
    """The part of one Gauss-Newton iteration that the measured state does
    not enter, at a horizon and its controls: the condensed Hessian H plus
    the regularization, and the QP's box with the factor of its starting
    free block; with the segment index, weights and wind it holds for.
    It also holds the gradient at the horizon's own initial state x0 and M,
    so that g = gradient + M (x_0 - x0) to first order, and the QP's first
    Newton step for that g, s0 + K (x_0 - x0): -H_FF^-1 g_F on its starting
    free set F, zero on the fixed set.
    """

    controls: np.ndarray          # (N, 3) linearization point
    h_mat: np.ndarray             # (3N, 3N)
    lb: np.ndarray                # (3N,) the QP's box: the control bounds less `controls`
    ub: np.ndarray                # (3N,)
    factor: QpFactor
    gradient: np.ndarray          # (3N,) J_u^T r at the horizon
    m_mat: np.ndarray             # (3N, 12) J_u^T J_x0
    s0: np.ndarray                # (3N,) the QP's first Newton step for `gradient`
    k_mat: np.ndarray             # (3N, 12) its change per unit change of x0
    x0: np.ndarray                # (12,) the horizon's node 0
    seg_index: np.ndarray         # (N+1,) segment index per node
    stage_weight: np.ndarray
    end_weight: np.ndarray
    wind: md.WindVector


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
    qp_iters: int
    halvings: int
    accepted: bool


def condensed_normal_equations(a_mat: np.ndarray, b_mat: np.ndarray,
                               c_stage: np.ndarray, d_stage: np.ndarray,
                               c_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton Hessian H = J^T J of the condensed problem and
    M = J^T J_x0, without forming the condensed Jacobian J;
    `condensed_gradient` gives J^T r.

    Takes the stage blocks A_k = a_mat[k], B_k = b_mat[k], C_k = c_stage[k],
    D_k = d_stage[k] and the end block C_N = c_end; every dimension is read
    from the shapes. A forward pass builds the condensed output rows
    J_k = C_k S_k + D_k E_k, with the state sensitivity
    S_{k+1} = A_k S_k + B_k E_k (E_k selects node k's controls), so J_k is
    zero beyond column n_u (k+1). A backward adjoint pass forms
    L_k = C_k^T J_k + A_k^T L_{k+1} from L_N = C_N^T J_N, and row block k of
    H as D_k^T J_k + B_k^T L_{k+1}: one product [D_k^T B_k^T; C_k^T A_k^T]
    [J_k; L_{k+1}] per node over the lower triangle. The upper triangle is
    mirrored, so H is exactly symmetric. The cost grows as O(N^2), and no
    product is large enough for a threaded BLAS to split, so the bits do not
    depend on the thread count. No residual enters, so H can be built before
    the measurement arrives.

    Both passes also carry the n_x columns of the initial state x_0, from
    S_0 = I, for M: the (n_dec, n_x) change of the gradient J^T r per unit
    change of x_0. They ride in arrays of their own, so H keeps its bits.
    """
    n, n_x, n_u = b_mat.shape
    n_out = c_stage.shape[1]
    n_dec = n * n_u

    # forward: rows[k] = J_k; sens[:, :m] holds S_k's nonzero columns, and
    # phi[k] the initial-state columns
    rows = np.empty((n, n_out, n_dec))
    sens, sens_next = np.empty((n_x, n_dec)), np.empty((n_x, n_dec))
    phi = np.empty((n + 1, n_x, n_x))
    phi[0] = np.eye(n_x)
    for k in range(n):
        m = k * n_u
        np.matmul(c_stage[k], sens[:, :m], out=rows[k, :, :m])
        rows[k, :, m:m + n_u] = d_stage[k]
        np.matmul(a_mat[k], sens[:, :m], out=sens_next[:, :m])
        sens_next[:, m:m + n_u] = b_mat[k]
        sens, sens_next = sens_next, sens
        np.matmul(a_mat[k], phi[k], out=phi[k + 1])
    end_rows = c_end @ sens

    # backward: stack[:n_out] = J_k over stack[n_out:] = L_{k+1}; each node
    # keeps the columns node k-1 reads
    lhs = np.empty((n, n_u + n_x, n_out + n_x))
    lhs[:, :n_u, :n_out] = d_stage.transpose(0, 2, 1)
    lhs[:, :n_u, n_out:] = b_mat.transpose(0, 2, 1)
    lhs[:, n_u:, :n_out] = c_stage.transpose(0, 2, 1)
    lhs[:, n_u:, n_out:] = a_mat.transpose(0, 2, 1)
    stack = np.empty((n_out + n_x, n_dec))
    np.matmul(c_end.T, end_rows, out=stack[n_out:])
    prod = np.empty((n_u + n_x, n_dec))
    h_mat = np.empty((n_dec, n_dec))
    stack0, prod0 = np.empty((n_out + n_x, n_x)), np.empty((n_u + n_x, n_x))
    np.matmul(c_end.T, c_end @ phi[n], out=stack0[n_out:])
    x0_rows = c_stage @ phi[:n]
    m_mat = np.empty((n_dec, n_x))
    for k in range(n - 1, -1, -1):
        m = k * n_u
        width = m + n_u
        stack[:n_out, :width] = rows[k, :, :width]
        np.matmul(lhs[k], stack[:, :width], out=prod[:, :width])
        h_mat[m:width, :width] = prod[:n_u, :width]
        stack[n_out:, :m] = prod[n_u:, :m]
        stack0[:n_out] = x0_rows[k]
        np.matmul(lhs[k], stack0, out=prod0)
        m_mat[m:width] = prod0[:n_u]
        stack0[n_out:] = prod0[n_u:]
    # mirror the lower triangle onto the strict upper one
    np.copyto(h_mat, h_mat.T, where=np.tri(n_dec, k=-1, dtype=bool).T)
    return h_mat, m_mat


def condensed_gradient(a_mat: np.ndarray, b_mat: np.ndarray, c_stage: np.ndarray,
                       d_stage: np.ndarray, c_end: np.ndarray,
                       residual: np.ndarray) -> np.ndarray:
    """Gradient g = J^T r of the condensed problem for the stacked stage and
    end residuals, by one backward adjoint pass in O(N).

    With the blocks of `condensed_normal_equations`: lambda_N = C_N^T r_N,
    g_k = D_k^T r_k + B_k^T lambda_{k+1} and
    lambda_k = C_k^T r_k + A_k^T lambda_{k+1}. Every product is an einsum,
    which sums in an order fixed by the code and calls no BLAS, so the bits
    do not depend on the thread count.
    """
    n, n_x, n_u = b_mat.shape
    n_out = c_stage.shape[1]
    r_stage = residual[:n * n_out].reshape(n, n_out)
    own = np.einsum("kij,ki->kj", np.concatenate([d_stage, c_stage], axis=2), r_stage)
    back = np.concatenate([b_mat, a_mat], axis=2)
    lam = np.einsum("ij,i->j", c_end, residual[n * n_out:])
    for k in range(n - 1, -1, -1):
        # own[k] becomes [g_k | lambda_k]
        own[k] += np.einsum("ij,i->j", back[k], lam)
        lam = own[k, n_u:]
    return own[:, :n_u].ravel()


def linearize(problem: AircraftShootingProblem, horizon: ocp.Horizon,
              controls: np.ndarray) -> Linearization:
    """Jacobians, regularized condensed Hessian, QP factor, M and the
    gradient at `horizon` and `controls`, and s0 and K (`Linearization`).
    The gradient's residual is the one `residual_jacobians` evaluates at
    the unperturbed columns of its batch; the output kernels work column
    by column, so it has the bits of `residuals`. s0 comes from the solve
    that the QP's first iteration makes, so a QP started from it has the
    bits of one that is not.

    Raises `NonFiniteLinearizationError`, naming the first shooting node
    with a non-finite Jacobian entry, and `np.linalg.LinAlgError` if the
    QP's starting free block is not positive definite.
    """
    a_mat, b_mat = problem.dynamics_jacobians(horizon, controls)
    c_stage, d_stage, c_end, residual = problem.residual_jacobians(horizon, controls)
    finite = np.empty(a_mat.shape[0] + 1, dtype=bool)
    finite[:-1] = np.logical_and.reduce(
        [np.isfinite(block).all(axis=(1, 2)) for block in (a_mat, b_mat, c_stage, d_stage)])
    finite[-1] = np.isfinite(c_end).all()
    if not finite.all():
        bad = int(np.argmin(finite))
        where = " (end term)" if bad == a_mat.shape[0] else ""
        raise NonFiniteLinearizationError(
            f"non-finite linearization at shooting node {bad}{where}")

    h_mat, m_mat = condensed_normal_equations(a_mat, b_mat, c_stage, d_stage, c_end)
    h_mat[np.diag_indices_from(h_mat)] += _REG
    u_lb, u_ub = problem.bounds()
    lb, ub = (u_lb - controls).ravel(), (u_ub - controls).ravel()
    factor = prepare_box_qp(h_mat, lb, ub)
    gradient = condensed_gradient(a_mat, b_mat, c_stage, d_stage, c_end, residual)
    return Linearization(
        controls=controls, h_mat=h_mat, lb=lb, ub=ub, factor=factor, gradient=gradient,
        m_mat=m_mat, s0=first_newton_step(h_mat, gradient, lb, ub, factor),
        k_mat=factor.newton_step(m_mat), x0=horizon.states[0], seg_index=horizon.seg_index,
        stage_weight=problem.stage_weight, end_weight=problem.end_weight, wind=problem.wind)


def _same_weights(prepared: Linearization, problem: AircraftShootingProblem) -> bool:
    return (np.array_equal(prepared.stage_weight, problem.stage_weight)
            and np.array_equal(prepared.end_weight, problem.end_weight)
            and prepared.wind == problem.wind)


def _line_search(problem: AircraftShootingProblem, x0: np.ndarray, delta: np.ndarray,
                 base: tuple):
    """Full step, halving on objective increase, from the baseline `base`,
    the (controls, horizon, residual, objective) of a rollout from `x0`:
    that tuple of the first candidate clip(controls + alpha delta),
    alpha = 1, 1/2, ..., whose rollout from `x0` does not raise the
    objective over the baseline's, else `base` itself; and the halvings,
    _MAX_HALVINGS + 1 when none was accepted."""
    controls, obj0 = base[0], base[3]
    u_lb, u_ub = problem.bounds()
    for halvings in range(_MAX_HALVINGS + 1):
        cand_u = np.clip(controls + 0.5 ** halvings * delta, u_lb, u_ub)
        cand_h = problem.rollout(x0, cand_u)
        cand_r = problem.residuals(cand_h, cand_u)
        cand_obj = problem.objective(cand_r)
        if cand_obj <= obj0 * (1.0 + _OBJ_SLACK) + _OBJ_SLACK:
            return (cand_u, cand_h, cand_r, cand_obj), halvings
    return base, _MAX_HALVINGS + 1


def sqp_iterate(problem: AircraftShootingProblem, x0: np.ndarray,
                controls: np.ndarray, horizon: ocp.Horizon | None = None,
                residual: np.ndarray | None = None) -> SqpIterationResult:
    """One Gauss-Newton iteration with condensing and box-constrained QP,
    linearized at the rollout from `x0` (`horizon` and `residual`, if
    given, are that rollout's); its QP starts from the linearization's
    first Newton step."""
    if horizon is None:
        horizon = problem.rollout(x0, controls)
    if residual is None:
        residual = problem.residuals(horizon, controls)
    obj0 = problem.objective(residual)
    lin = linearize(problem, horizon, controls)
    qp = solve_box_qp(lin.h_mat, lin.gradient, lin.lb, lin.ub, factor=lin.factor,
                      first_step=lin.s0)
    delta = qp.x.reshape(controls.shape)
    (u_new, h_new, r_new, obj_new), halvings = _line_search(
        problem, x0, delta, (controls, horizon, residual, obj0))
    return SqpIterationResult(
        controls=u_new, horizon=h_new, residual=r_new, objective=obj_new,
        objective_before=obj0, step_norm=float(np.max(np.abs(delta), initial=0.0)),
        kkt_residual=qp.kkt_residual, qp_status=qp.status, qp_active_set=qp.n_active,
        qp_iters=qp.n_iter, halvings=halvings, accepted=halvings <= _MAX_HALVINGS)


def apply_throttle_failure_weight(weights: ocp.Weights,
                                  magnitude: float = 1.0e6) -> ocp.Weights:
    """Pin the throttle command to its reference with an overwhelming weight."""
    r_z = weights.r_z.copy()
    r_z[ocp.Z_U_T] = magnitude
    return replace(weights, r_z=r_z)


class NmpcController:
    """Stateful controller session: warm starting, up to
    `cold_start_sqp_iter` SQP iterations on a cold start and one per warm
    period (the real-time iteration).

    One `step` per controller period, and optionally one `prepare` between
    a step and the next; not reentrant. After `prepare`, a warm period with
    the same weights and wind is embedded (`feedback` "embedded"), however
    far the measurement lies from the prediction (dx0, angle rows wrapped)
    and whatever the queue's switching state; its line search waits for the
    next `prepare`, or for `settle` after the last period, which return the
    period's completed solution. Any other period rolls out from the
    measurement and linearizes there (`sqp_iterate`), with `feedback`
    "rollout:<cause>": "cold", "not_prepared", "prepare_failed" or
    "weights_changed"; without `prepare`, every period does. All functions
    below the session are pure, so the object may be moved between threads
    between calls. `weights` may be replaced between periods, and the new
    object is read from the next period on; it must not be changed in place.
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
        self._last_control = md.ControlInput(u_t=refs.u_t_trim, phi_ref=0.0,
                                             theta_ref=refs.theta_ref_trim)
        self._base_problem: AircraftShootingProblem | None = None
        self.reset()

    def reset(self) -> None:
        self._controls: np.ndarray | None = None
        self._last_solution: OcpSolution | None = None
        # the last accepted horizon with the queue and wind it was rolled out on
        self._last_horizon: tuple | None = None
        self._prepared: Linearization | None = None
        self._prepare_failed = False
        # an embedded period awaiting its line search
        self._pending: tuple | None = None

    def _problem(self, queue: pth.PathQueue, wind: md.WindVector) -> AircraftShootingProblem:
        """The period's problem, a shallow copy that shares its weight,
        reference and bound arrays with the problem built once per `weights`
        object (the weights are replaced, never changed in place)."""
        if self._base_problem is None or self._base_problem.weights is not self.weights:
            self._base_problem = AircraftShootingProblem(
                self.params, self.cfg, self.weights, self.refs, self.guidance_cfg,
                self.switch_cfg, queue, wind)
        problem = copy.copy(self._base_problem)
        problem.queue, problem.wind = queue, wind
        return problem

    def _warm_controls(self, problem: AircraftShootingProblem) -> np.ndarray:
        """The last accepted controls shifted by one node, last row repeated."""
        shifted = np.vstack([self._controls[1:], self._controls[-1:]])
        return np.clip(shifted, *problem.bounds())

    def prepare(self) -> OcpSolution | None:
        """Preparation phase for the next period, before its measurement.

        Returns `settle()`, then shifts the last accepted horizon by one node
        with the controls the next warm start uses, and linearizes there
        (`linearize`). Prepares nothing before the first successful step. A
        failure is kept, not raised: the next step then rolls out
        ("rollout:prepare_failed").
        """
        self._prepared = None
        self._prepare_failed = False
        done = self.settle()
        if self._last_horizon is None:
            return done
        horizon, queue, wind = self._last_horizon
        problem = self._problem(queue, wind)
        controls = self._warm_controls(problem)
        try:
            shifted = ocp.shift_horizon(horizon, controls, queue, wind, self.params,
                                        self.cfg, self.switch_cfg)
            self._prepared = linearize(problem, shifted, controls)
        except (md.ModelDomainError, np.linalg.LinAlgError, FloatingPointError):
            self._prepare_failed = True
        return done

    def settle(self) -> OcpSolution | None:
        """The deferred line search of the last period, if it was embedded,
        rolled out from its measurement. Its baseline (`objective_before`)
        is the warm plan with node 0 held at the control sent; the step on
        nodes 1..N-1 is halved on objective increase (`_line_search`), and
        the baseline is kept if every length raises the objective, so the
        objective never increases. The accepted horizon is the one `prepare`
        shifts.

        Returns a new solution of that period with the line search's states,
        controls, objectives and halvings (the one `step` returned is left
        as it was), or None if no period is pending. A rollout that raises
        marks it degraded and leaves nothing to prepare from.
        """
        if self._pending is None:
            return None
        problem, x0, held, delta, sent = self._pending
        self._pending = None
        try:
            horizon = problem.rollout(x0, held)
            residual = problem.residuals(horizon, held)
            obj0 = problem.objective(residual)
            (u_new, h_new, _, obj), halvings = _line_search(
                problem, x0, delta, (held, horizon, residual, obj0))
        except (md.ModelDomainError, FloatingPointError) as exc:
            self._last_horizon = None
            self._prepare_failed = True
            done = replace(sent, degraded=True, degraded_reason=_degraded_reason(exc))
        else:
            self._controls = u_new
            self._last_horizon = (h_new, problem.queue, problem.wind)
            done = replace(sent, states=h_new.states, controls=u_new,
                           seg_index=h_new.seg_index.copy(), x_sw=h_new.x_sw.copy(),
                           objective=obj, objective_before=obj0, halvings=halvings,
                           obj_nonincrease_ok=_nonincrease(obj, obj0),
                           axis_nodes=h_new.axis_nodes)
        self._last_solution = done
        return done

    def step(self, measured: md.AircraftState, queue: pth.PathQueue,
             wind: md.WindVector) -> tuple[md.ControlInput, OcpSolution]:
        """Feedback phase: advance one controller period and return the first
        control. `wall_time_s` of the solution is this call's wall time. A
        line search still pending from an embedded period runs first. Only
        the rollout path builds the warm start (`_solve`)."""
        t_start = time.perf_counter()
        self.settle()
        x0 = measured.as_array()
        problem = self._problem(queue, wind)
        prepared, self._prepared = self._prepared, None
        prepare_failed, self._prepare_failed = self._prepare_failed, False
        if self._controls is None:
            cause = "cold"
        elif prepared is None:
            cause = "prepare_failed" if prepare_failed else "not_prepared"
        elif not _same_weights(prepared, problem):
            cause = "weights_changed"
        else:
            cause = None
        feedback = "embedded" if cause is None else f"rollout:{cause}"

        try:
            if cause is None:
                solution = self._embed(problem, x0, prepared)
            else:
                solution, horizon = self._solve(problem, x0)
        except (md.ModelDomainError, np.linalg.LinAlgError, FloatingPointError) as exc:
            solution = self._degraded_solution(_degraded_reason(exc))
            solution.feedback = feedback
            solution.wall_time_s = time.perf_counter() - t_start
            return self._last_control, solution

        solution.feedback = feedback
        solution.wall_time_s = time.perf_counter() - t_start
        self._controls = solution.controls
        if cause is not None:
            self._last_horizon = (horizon, queue, wind)
        self._last_control = md.ControlInput.from_array(solution.controls[0])
        self._last_solution = solution
        return self._last_control, solution

    def _embed(self, problem: AircraftShootingProblem, x0: np.ndarray,
               lin: Linearization) -> OcpSolution:
        """The embedded feedback: g = gradient + M dx0 for the measurement's
        offset dx0 from the prediction, angle rows wrapped, the prepared QP
        on the prepared box from its first step s0 + K dx0, and the full
        step, whose line search waits for `settle`. When the first step
        stays in the box, the QP takes it as it is and its second iteration
        ends the solve at the KKT check, without a solve, so the QP costs
        one product with H and that check. Until `settle` the solution's
        states, x_sw and objectives are NaN. A non-finite measurement raises
        `md.ModelDomainError`, as its rollout would."""
        dx0 = x0 - lin.x0
        if not np.all(np.isfinite(dx0)):
            raise md.ModelDomainError("non-finite measured state")
        dx0[_ANGLE_ROWS] = md.wrap_angle(dx0[_ANGLE_ROWS])
        # einsum: a fixed-order product, so the bits do not follow the BLAS threads
        g_vec = lin.gradient + np.einsum("ij,j->i", lin.m_mat, dx0)
        first_step = lin.s0 + np.einsum("ij,j->i", lin.k_mat, dx0)
        qp = solve_box_qp(lin.h_mat, g_vec, lin.lb, lin.ub, factor=lin.factor,
                          first_step=first_step)
        delta = qp.x.reshape(lin.controls.shape)
        plan = np.clip(lin.controls + delta, *problem.bounds())
        if not np.all(np.isfinite(plan)):
            raise md.ModelDomainError("non-finite controls out of SQP")
        n = self.cfg.n_steps
        degraded = qp.status == "iteration_limit"
        solution = OcpSolution(
            states=np.full((n + 1, md.STATE_DIM), np.nan), controls=plan,
            seg_index=lin.seg_index.copy(), x_sw=np.full(n + 1, np.nan),
            objective=float("nan"), objective_before=float("nan"),
            kkt_residual=qp.kkt_residual, qp_status=qp.status, qp_active_set=qp.n_active,
            sqp_iters=1, qp_iters=qp.n_iter, halvings=0, obj_nonincrease_ok=True,
            degraded=degraded, degraded_reason="qp_iteration_limit" if degraded else "")
        # the deferred line search's baseline and step: node 0 held at the
        # control sent
        held = lin.controls.copy()
        held[0] = plan[0]
        delta = delta.copy()
        delta[0] = 0.0
        self._pending = (problem, x0, held, delta, solution)
        return solution

    def _solve(self, problem: AircraftShootingProblem, x0: np.ndarray):
        """The period's SQP iterations, from the trim controls on a cold
        start and from `_warm_controls` otherwise. Returns the solution and
        its final horizon."""
        if self._controls is None:
            controls = np.clip(np.tile(self._trim_control, (self.cfg.n_steps, 1)),
                               *problem.bounds())
            n_iter = self.cfg.cold_start_sqp_iter
        else:
            controls = self._warm_controls(problem)
            n_iter = 1
        horizon = None
        residual = None
        nonincrease_ok = True
        first = None
        result = None
        qp_status = None      # the first QP status of the period that is not optimal
        iters_run = 0
        qp_iters = 0
        halvings = 0
        for _ in range(n_iter):
            result = sqp_iterate(problem, x0, controls, horizon=horizon, residual=residual)
            iters_run += 1
            qp_iters += result.qp_iters
            halvings += result.halvings
            if first is None:
                first = result
            if qp_status is None and result.qp_status != "optimal":
                qp_status = result.qp_status
            nonincrease_ok &= _nonincrease(result.objective, result.objective_before)
            controls, horizon, residual = result.controls, result.horizon, result.residual
            if result.step_norm < 1e-10:
                break

        if not np.all(np.isfinite(controls)):
            raise md.ModelDomainError("non-finite controls out of SQP")
        degraded = qp_status == "iteration_limit"
        solution = OcpSolution(
            states=horizon.states, controls=controls,
            seg_index=horizon.seg_index.copy(), x_sw=horizon.x_sw.copy(),
            objective=result.objective, objective_before=float(first.objective_before),
            kkt_residual=result.kkt_residual, qp_status=qp_status or result.qp_status,
            qp_active_set=result.qp_active_set, sqp_iters=iters_run, qp_iters=qp_iters,
            halvings=halvings, obj_nonincrease_ok=bool(nonincrease_ok),
            degraded=degraded, degraded_reason="qp_iteration_limit" if degraded else "",
            axis_nodes=horizon.axis_nodes)
        return solution, horizon

    def _degraded_solution(self, reason: str) -> OcpSolution:
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
                sqp_iters=0, qp_iters=0, halvings=0, obj_nonincrease_ok=True)
        sol.qp_iters = 0
        sol.degraded = True
        sol.degraded_reason = reason
        return sol


def _nonincrease(objective: float, objective_before: float) -> bool:
    """`OcpSolution.obj_nonincrease_ok` of one iteration."""
    return bool(objective <= objective_before * (1.0 + 1e-9) + 1e-9)


def _degraded_reason(exc: Exception) -> str:
    """`OcpSolution.degraded_reason` of a solver exception."""
    if isinstance(exc, NonFiniteLinearizationError):
        return "non_finite_linearization"
    if isinstance(exc, md.ModelDomainError):
        return "domain"
    if isinstance(exc, np.linalg.LinAlgError):
        return "lin_alg"
    return "floating_point"
