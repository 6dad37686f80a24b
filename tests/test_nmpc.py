"""Tests for the NMPC layer: outputs, sensitivities, SQP, and controller."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp, solver
from fwnmpc.nmpc import qp as qp_module
from fwnmpc.nmpc.qp import solve_box_qp
from fwnmpc.scenarios import scenario_dubins_course, scenario_helix
from oracles import central_difference_jacobians, random_envelope_states, \
    reference_propagate_horizon, reference_residual_jacobians, reference_residuals, \
    run_at_thread_count, select_context


@pytest.fixture(scope="module")
def params():
    return md.default_params()


@pytest.fixture(scope="module")
def trim(params):
    return md.solve_trim(params, 13.5, 0.0)


@pytest.fixture(scope="module")
def refs(trim):
    return ocp.References.from_trim(trim)


def make_problem(params, refs, queue, wind=md.WindVector(), n_steps=20,
                 weights=None, cfg=None):
    cfg = cfg or ocp.OcpConfig(n_steps=n_steps)
    return solver.AircraftShootingProblem(
        params, cfg, weights or ocp.default_weights(), refs,
        gd.GuidanceConfig(), pth.SwitchConfig(), queue, wind)


def line_queue(d=-50.0):
    seg = pth.LineSegment(b=np.array([5000.0, 0.0, d]), chi_p=0.0, gamma_p=0.0)
    return pth.PathQueue(segments=(seg,))


class TestAlphaSoft:
    CFG = ocp.OcpConfig()

    def test_zero_inside_band(self):
        assert ocp.alpha_soft(np.radians(2.0), self.CFG) == 0.0

    def test_unity_at_hard_bounds(self):
        assert ocp.alpha_soft(self.CFG.alpha_plus, self.CFG) == pytest.approx(1.0, rel=1e-12)
        assert ocp.alpha_soft(self.CFG.alpha_minus, self.CFG) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_midway_in_transition(self):
        assert ocp.alpha_soft(np.radians(7.0), self.CFG) == pytest.approx(0.25, rel=1e-12)

    def test_continuous_at_onsets(self):
        for onset in (self.CFG.alpha_plus - self.CFG.delta_alpha,
                      self.CFG.alpha_minus + self.CFG.delta_alpha):
            eps = 1e-9
            below = ocp.alpha_soft(onset - eps, self.CFG)
            above = ocp.alpha_soft(onset + eps, self.CFG)
            assert abs(above - below) < 1e-12

    def test_vectorized(self):
        vals = ocp.alpha_soft(np.radians([2.0, 7.0, 8.0, -3.0]), self.CFG)
        np.testing.assert_allclose(vals, [0.0, 0.25, 1.0, 1.0], rtol=1e-12)


class TestSensitivities:
    def test_forward_vs_central_on_envelope(self, params):
        """Relative Frobenius error <= 1e-4 over 100 random envelope states."""
        rng = np.random.default_rng(123)
        states = random_envelope_states(rng, 100)
        controls = np.column_stack([
            rng.uniform(0.0, 1.0, 100),
            rng.uniform(-0.5, 0.5, 100),
            rng.uniform(-0.25, 0.25, 100)])
        wind = md.WindVector(1.5, -2.0, 0.3)
        a_all, b_all = ocp.rk4_jacobians(states, controls, wind, params, 0.1)
        for k in range(100):
            a_ref, b_ref = central_difference_jacobians(
                states[k], controls[k], wind, params, 0.1)
            rel_a = np.linalg.norm(a_all[k] - a_ref) / np.linalg.norm(a_ref)
            rel_b = np.linalg.norm(b_all[k] - b_ref) / max(np.linalg.norm(b_ref), 1e-12)
            assert rel_a <= 1e-4
            assert rel_b <= 1e-4

    def test_throttle_lag_closed_form(self, params, trim):
        """The throttle-state row reproduces the first-order-lag transition."""
        dt, tau = 0.1, params.open_loop.tau_t
        states = trim.state().as_array()[None, :]
        controls = trim.control().as_array()[None, :]
        a_mat, b_mat = ocp.rk4_jacobians(states, controls, md.WindVector(), params, dt)
        decay = np.exp(-dt / tau)
        assert a_mat[0, md.IDX_DELTA_T, md.IDX_DELTA_T] == pytest.approx(decay, abs=2e-5)
        assert b_mat[0, md.IDX_DELTA_T, md.IDX_U_T] == pytest.approx(1.0 - decay, abs=2e-5)

    def test_reference_rows_analytic(self, params):
        """Derivative-level control columns match the closed-loop gain symbols."""
        state = md.AircraftState(v_a=14.0, gamma=0.03, phi=0.2, theta=0.1,
                                 p=0.1, q=0.05, r=0.2, delta_t=0.5)
        x, u = state.as_array(), np.array([0.5, 0.1, 0.05])
        wind = md.WindVector()
        h = 1e-7
        cl = params.closed_loop

        def column(j):
            up = u.copy()
            up[j] += h
            return (md.derivative_array(x, up, wind, params)
                    - md.derivative_array(x, u, wind, params)) / h

        col_phi = column(md.IDX_PHI_REF)
        assert col_phi[md.IDX_P] == pytest.approx(cl.l_ephi, rel=1e-6)
        assert col_phi[md.IDX_R] == pytest.approx(cl.n_phiref, rel=1e-6)
        col_theta = column(md.IDX_THETA_REF)
        assert col_theta[md.IDX_Q] == pytest.approx(state.v_a ** 2 * cl.m_etheta, rel=1e-6)

    def test_positions_have_zero_control_columns(self, params):
        state = md.AircraftState(v_a=13.0, delta_t=0.4)
        x, u = state.as_array(), np.array([0.4, 0.0, 0.0])
        wind = md.WindVector()
        for j in range(md.CONTROL_DIM):
            up = u.copy()
            up[j] += 1e-6
            diff = md.derivative_array(x, up, wind, params) \
                - md.derivative_array(x, u, wind, params)
            np.testing.assert_allclose(diff[:3], 0.0, atol=1e-15)


class LinearToyProblem:
    """LQR-reducible shooting problem implementing the solver protocol."""

    def __init__(self, a, b, q, r, p_end, x0_dim=None, n=12, lb=None, ub=None):
        self.a, self.b = a, b
        self.q_sqrt = np.sqrt(q)
        self.r_sqrt = np.sqrt(r)
        self.p_sqrt = np.sqrt(p_end)
        self.n = n
        self.n_x = a.shape[0]
        self.n_u = b.shape[1]
        self.lb = lb if lb is not None else -1e9 * np.ones((n, self.n_u))
        self.ub = ub if ub is not None else 1e9 * np.ones((n, self.n_u))

    def rollout(self, x0, controls):
        states = np.empty((self.n + 1, self.n_x))
        states[0] = x0
        for k in range(self.n):
            states[k + 1] = self.a @ states[k] + self.b @ controls[k]
        return states

    def residuals(self, states, controls):
        parts = []
        for k in range(self.n):
            parts.append(self.q_sqrt * states[k])
            parts.append(self.r_sqrt * controls[k])
        parts.append(self.p_sqrt * states[self.n])
        return np.concatenate(parts)

    def objective(self, residual):
        return float(residual @ residual)

    def dynamics_jacobians(self, states, controls):
        n = self.n
        return (np.repeat(self.a[None], n, axis=0), np.repeat(self.b[None], n, axis=0))

    def residual_jacobians(self, states, controls):
        n = self.n
        c_stage = np.zeros((n, self.n_x + self.n_u, self.n_x))
        d_stage = np.zeros((n, self.n_x + self.n_u, self.n_u))
        c_stage[:, :self.n_x, :] = np.diag(self.q_sqrt)
        d_stage[:, self.n_x:, :] = np.diag(self.r_sqrt)
        return c_stage, d_stage, np.diag(self.p_sqrt)

    def bounds(self):
        return self.lb, self.ub


def toy_sqp_iterate(problem, x0, controls):
    """Drive the production normal equations and the QP for the toy problem.

    Feeds the toy's exact Jacobians to `condensed_normal_equations` and
    `condensed_gradient`, so the Riccati comparison checks the algebra that
    sqp_iterate runs.
    """
    states = problem.rollout(x0, controls)
    residual = problem.residuals(states, controls)
    obj0 = problem.objective(residual)
    a_mat, b_mat = problem.dynamics_jacobians(states, controls)
    c_stage, d_stage, c_end = problem.residual_jacobians(states, controls)
    h_mat, _ = solver.condensed_normal_equations(a_mat, b_mat, c_stage, d_stage, c_end)
    g_vec = solver.condensed_gradient(a_mat, b_mat, c_stage, d_stage, c_end, residual)
    h_mat[np.diag_indices_from(h_mat)] += 1e-12
    lb, ub = problem.bounds()
    qp = solve_box_qp(h_mat, g_vec, (lb - controls).ravel(), (ub - controls).ravel())
    controls_new = np.clip(controls + qp.x.reshape(controls.shape), lb, ub)
    states_new = problem.rollout(x0, controls_new)
    return controls_new, states_new, problem.objective(
        problem.residuals(states_new, controls_new)), obj0


def riccati_regulator(a, b, q, r, p_end, x0, n):
    """Finite-horizon discrete LQR oracle via backward Riccati recursion."""
    p = np.diag(p_end).astype(float)
    gains = []
    for _ in range(n):
        btp = b.T @ p
        k_gain = np.linalg.solve(np.diag(r) + btp @ b, btp @ a)
        p = np.diag(q) + a.T @ p @ (a - b @ k_gain)
        gains.append(k_gain)
    gains.reverse()
    x = x0.copy()
    states, controls = [x0.copy()], []
    for k in range(n):
        u = -gains[k] @ x
        x = a @ x + b @ u
        controls.append(u)
        states.append(x.copy())
    return np.array(states), np.array(controls)


class TestSqpOnLinearProblem:
    A = np.array([[1.0, 0.1], [-0.05, 0.97]])
    B = np.array([[0.005], [0.1]])
    Q = np.array([2.0, 0.5])
    R = np.array([0.3])
    P = np.array([4.0, 1.0])

    def test_single_iteration_reaches_riccati_optimum(self):
        problem = LinearToyProblem(self.A, self.B, self.Q, self.R, self.P, n=12)
        x0 = np.array([1.0, -0.5])
        u0 = np.zeros((12, 1))
        u1, states, obj, _ = toy_sqp_iterate(problem, x0, u0)
        exp_states, exp_controls = riccati_regulator(self.A, self.B, self.Q, self.R,
                                                     self.P, x0, 12)
        np.testing.assert_allclose(u1, exp_controls, atol=1e-7)
        np.testing.assert_allclose(states, exp_states, atol=1e-7)

    def test_second_iteration_is_fixed_point(self):
        problem = LinearToyProblem(self.A, self.B, self.Q, self.R, self.P, n=12)
        x0 = np.array([1.0, -0.5])
        u1, _, _, _ = toy_sqp_iterate(problem, x0, np.zeros((12, 1)))
        u2, _, obj2, obj_before = toy_sqp_iterate(problem, x0, u1)
        np.testing.assert_allclose(u2, u1, atol=1e-8)
        assert obj2 <= obj_before + 1e-12

    def test_bound_saturation_matches_clamped_qp_oracle(self):
        """Two-step horizon with a tight input box: exact bound activation."""
        lb, ub = -0.2 * np.ones((2, 1)), 0.2 * np.ones((2, 1))
        problem = LinearToyProblem(self.A, self.B, self.Q, self.R, self.P, n=2,
                                   lb=lb, ub=ub)
        x0 = np.array([4.0, 0.0])
        u1, _, _, _ = toy_sqp_iterate(problem, x0, np.zeros((2, 1)))
        # oracle: dense least-squares over the 2-var box by fine enumeration
        # of the active-set patterns (free/lower/upper per variable)
        import itertools
        states0 = problem.rollout(x0, np.zeros((2, 1)))
        best = None
        for pat in itertools.product((-1, 0, 1), repeat=2):
            u = np.zeros(2)
            free = [i for i, s in enumerate(pat) if s == 0]
            for i, s in enumerate(pat):
                u[i] = lb[i, 0] if s == -1 else (ub[i, 0] if s == 1 else 0.0)

            def total_obj(u_vec):
                um = u_vec.reshape(2, 1)
                st = problem.rollout(x0, um)
                return problem.objective(problem.residuals(st, um))

            if free:
                # quadratic in the free vars: solve by sampled normal equations
                import numpy.polynomial.polynomial as _  # noqa: F401
                h = 1e-4
                grad = np.zeros(len(free))
                hess = np.zeros((len(free), len(free)))
                f0 = total_obj(u)
                for a_i, i in enumerate(free):
                    up, um_ = u.copy(), u.copy()
                    up[i] += h
                    um_[i] -= h
                    grad[a_i] = (total_obj(up) - total_obj(um_)) / (2 * h)
                    hess[a_i, a_i] = (total_obj(up) - 2 * f0 + total_obj(um_)) / h ** 2
                for a_i, i in enumerate(free):
                    for b_i, j in enumerate(free):
                        if b_i <= a_i:
                            continue
                        upp = u.copy()
                        upp[i] += h
                        upp[j] += h
                        hess_ij = (total_obj(upp) - total_obj(u + _unit(2, i) * h)
                                   - total_obj(u + _unit(2, j) * h) + f0) / h ** 2
                        hess[a_i, b_i] = hess[b_i, a_i] = hess_ij
                try:
                    u_free = np.linalg.solve(hess, -grad) + u[free]
                except np.linalg.LinAlgError:
                    continue
                u[free] = u_free
            if np.any(u < lb[:, 0] - 1e-9) or np.any(u > ub[:, 0] + 1e-9):
                continue
            obj = total_obj(u)
            if best is None or obj < best[1]:
                best = (u.copy(), obj)
        np.testing.assert_allclose(u1.ravel(), best[0], atol=1e-6)
        # exact activation, not merely close
        assert u1[0, 0] == lb[0, 0] or u1[0, 0] == ub[0, 0]

    def test_embedded_gradient_equals_rollout_gradient(self):
        """g = g(x_pred) + M dx0 equals the gradient of a rollout from
        x_pred + dx0 to rounding: the toy is linear, so the embedding is exact."""
        problem = LinearToyProblem(self.A, self.B, self.Q, self.R, self.P, n=12)
        x_pred, dx0 = np.array([1.0, -0.5]), np.array([0.03, -0.02])
        controls = np.linspace(-0.2, 0.2, 12)[:, None]
        states = problem.rollout(x_pred, controls)
        blocks = problem.dynamics_jacobians(states, controls) \
            + problem.residual_jacobians(states, controls)
        _, m_mat = solver.condensed_normal_equations(*blocks)

        def gradient(x0):
            residual = problem.residuals(problem.rollout(x0, controls), controls)
            return solver.condensed_gradient(*blocks, residual)

        direct = gradient(x_pred + dx0)
        np.testing.assert_allclose(gradient(x_pred) + m_mat @ dx0, direct,
                                   rtol=0, atol=1e-13 * np.max(np.abs(direct)))


def _unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def random_stage_blocks(rng, n, n_u, n_x=12, n_out=11, n_end=7):
    """Seeded dense stage blocks A, B, C, D, the end block and a residual."""
    return dict(a=rng.normal(scale=0.3, size=(n, n_x, n_x)), b=rng.normal(size=(n, n_x, n_u)),
                c=rng.normal(size=(n, n_out, n_x)), d=rng.normal(size=(n, n_out, n_u)),
                c_end=rng.normal(size=(n_end, n_x)), r=rng.normal(size=n * n_out + n_end))


def dense_condensed_jacobian(a, b, c, d, c_end):
    """Condensed Jacobian built one output row at a time from the state
    sensitivity S_k = dx_k/du, S_0 = 0, S_{k+1} = A_k S_k + B_k E_k."""
    n, n_x, n_u = b.shape
    n_out = c.shape[1]
    jac = np.zeros((n * n_out + c_end.shape[0], n * n_u))
    sens = np.zeros((n_x, n * n_u))
    for k in range(n):
        cols = slice(k * n_u, (k + 1) * n_u)
        for i in range(n_out):
            jac[k * n_out + i] = c[k, i] @ sens
            jac[k * n_out + i, cols] += d[k, i]
        sens = a[k] @ sens
        sens[:, cols] += b[k]
    for i in range(c_end.shape[0]):
        jac[n * n_out + i] = c_end[i] @ sens
    return jac


def assert_matches_dense_oracle(h_mat, g_vec, blk):
    """H = J^T J and g = J^T r of the dense condensed Jacobian, to 1e-12 of
    their largest entries."""
    jac = dense_condensed_jacobian(blk["a"], blk["b"], blk["c"], blk["d"], blk["c_end"])
    h_ref, g_ref = jac.T @ jac, jac.T @ blk["r"]
    np.testing.assert_allclose(h_mat, h_ref, rtol=0, atol=1e-12 * np.max(np.abs(h_ref)))
    np.testing.assert_allclose(g_vec, g_ref, rtol=0, atol=1e-12 * np.max(np.abs(g_ref)))


_NORMAL_EQUATIONS_SNIPPET = """
import sys
import numpy as np
from fwnmpc.nmpc.qp import first_newton_step, prepare_box_qp
from fwnmpc.nmpc.solver import condensed_gradient, condensed_normal_equations
blk = np.load(sys.argv[1])
h, m = condensed_normal_equations(blk["a"], blk["b"], blk["c"], blk["d"], blk["c_end"])
g = condensed_gradient(blk["a"], blk["b"], blk["c"], blk["d"], blk["c_end"], blk["r"])
# the prepared first step, as `linearize` makes it
factor = prepare_box_qp(h, blk["lb"], blk["ub"])
s0 = first_newton_step(h, g, blk["lb"], blk["ub"], factor)
k = factor.newton_step(m)
print(h.tobytes().hex(), g.tobytes().hex(), m.tobytes().hex(), s0.tobytes().hex(),
      k.tobytes().hex())
"""


def normal_equations(blk):
    """H from `condensed_normal_equations` and g from `condensed_gradient`."""
    blocks = blk["a"], blk["b"], blk["c"], blk["d"], blk["c_end"]
    return (solver.condensed_normal_equations(*blocks)[0],
            solver.condensed_gradient(*blocks, blk["r"]))


class TestCondensedNormalEquations:
    """H by `condensed_normal_equations` and g = J^T r by `condensed_gradient`."""

    @pytest.mark.parametrize("n", [2, 3, 70])
    @pytest.mark.parametrize("n_u", [1, 3])
    def test_matches_dense_oracle(self, n, n_u):
        blk = random_stage_blocks(np.random.default_rng(10 * n + n_u), n, n_u)
        h_mat, g_vec = normal_equations(blk)
        assert h_mat.shape == (n * n_u, n * n_u) and g_vec.shape == (n * n_u,)
        assert_matches_dense_oracle(h_mat, g_vec, blk)
        assert np.array_equal(h_mat, h_mat.T)

    @pytest.mark.parametrize("n_u", [1, 3])
    def test_zero_blocks_stay_exactly_zero(self, n_u):
        """With A = 0 the outputs of node k depend on the controls of nodes
        k-1 and k only: H is block tridiagonal, every other block exactly
        zero, and g_k = D_k^T r_k + B_k^T C_{k+1}^T r_{k+1}."""
        n, n_out = 6, 11
        blk = random_stage_blocks(np.random.default_rng(5), n, n_u)
        blk["a"][:] = 0.0
        h_mat, g_vec = normal_equations(blk)
        blocks = h_mat.reshape(n, n_u, n, n_u)
        for i in range(n):
            for j in range(n):
                nonzero = bool(np.any(blocks[i, :, j, :] != 0.0))
                assert nonzero == (abs(i - j) <= 1), (i, j)
        r = blk["r"][:n * n_out].reshape(n, n_out)
        for k in range(n):
            c_next, r_next = (blk["c"][k + 1], r[k + 1]) if k + 1 < n else \
                (blk["c_end"], blk["r"][n * n_out:])
            expected = blk["d"][k].T @ r[k] + blk["b"][k].T @ (c_next.T @ r_next)
            np.testing.assert_allclose(g_vec[k * n_u:(k + 1) * n_u], expected,
                                       rtol=1e-13, atol=1e-13)

    def test_bytes_equal_at_one_and_two_blas_threads(self, tmp_path):
        """H, g and M of a dense 70-node problem, and the QP's prepared first
        step s0 and K for a box that starts with some variables fixed, built in
        processes with one and with two BLAS/OpenMP threads, have the same
        bits. (A BLAS that caps its threads at the CPU count runs one thread in
        both processes on a one-CPU machine, where the check cannot fail.)"""
        blk = random_stage_blocks(np.random.default_rng(70), 70, 3)
        lb, ub = -np.ones(210), np.ones(210)
        lb[::17] = 0.0
        path = tmp_path / "blocks.npz"
        np.savez(path, lb=lb, ub=ub, **blk)
        outputs = [run_at_thread_count(_NORMAL_EQUATIONS_SNIPPET, path, threads=threads).split()
                   for threads in (1, 2)]
        assert outputs[0] == outputs[1]
        h_hex, g_hex, m_hex, s0_hex, k_hex = outputs[0]
        h_mat = np.frombuffer(bytes.fromhex(h_hex)).reshape(210, 210)
        g_vec = np.frombuffer(bytes.fromhex(g_hex))
        assert_matches_dense_oracle(h_mat, g_vec, blk)
        # s0 = -H_FF^-1 g_F and K = -H_FF^-1 M_F, zero on the fixed start
        free = np.flatnonzero(lb < 0.0)
        h_ff = h_mat[np.ix_(free, free)]
        for got_hex, rhs in ((s0_hex, g_vec),
                             (k_hex, np.frombuffer(bytes.fromhex(m_hex)).reshape(210, 12))):
            got = np.frombuffer(bytes.fromhex(got_hex)).reshape(rhs.shape)
            expected = -np.linalg.solve(h_ff, rhs[free])
            assert not np.any(np.delete(got, free, axis=0))
            np.testing.assert_allclose(got[free], expected, rtol=0,
                                       atol=1e-10 * np.max(np.abs(expected)))


class TestAircraftSqp:
    def test_kkt_point_has_tiny_step(self, params, refs, trim):
        """Iterating to convergence then once more moves less than 1e-8."""
        queue = line_queue()
        problem = make_problem(params, refs, queue, n_steps=12)
        cfg = problem.cfg
        x0 = trim.state(d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (12, 1))
        horizon = residual = None
        for _ in range(60):
            res = solver.sqp_iterate(problem, x0, controls, horizon=horizon,
                                     residual=residual)
            controls, horizon, residual = res.controls, res.horizon, res.residual
            if res.step_norm < 1e-12:
                break
        final = solver.sqp_iterate(problem, x0, controls, horizon=horizon,
                                   residual=residual)
        assert final.step_norm <= 1e-8

    def test_objective_never_increases(self, params, refs, trim):
        queue = line_queue()
        problem = make_problem(params, refs, queue, n_steps=15)
        x0 = trim.state(e=25.0, d=-45.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (15, 1))
        horizon = residual = None
        for _ in range(12):
            res = solver.sqp_iterate(problem, x0, controls, horizon=horizon,
                                     residual=residual)
            assert res.objective <= res.objective_before * (1 + 1e-12) + 1e-12
            controls, horizon, residual = res.controls, res.horizon, res.residual

    def test_quadratic_cost_identity(self, params, refs, trim):
        """Reported objective equals the weight-matrix quadratic form."""
        queue = line_queue()
        problem = make_problem(params, refs, queue, n_steps=10)
        cfg, weights = problem.cfg, problem.weights
        x0 = trim.state(e=12.0, d=-48.0).as_array()
        controls = np.tile([trim.u_t, 0.05, trim.theta_ref], (10, 1))
        horizon = problem.rollout(x0, controls)
        residual = problem.residuals(horizon, controls)
        reported = problem.objective(residual)

        total = 0.0
        stage_ref = refs.stage_reference()
        for k in range(10):
            raw = ocp.raw_outputs(horizon.states[k][:, None], controls[k][:, None],
                                  select_context(horizon.context, slice(k, k + 1)),
                                  problem.wind, params, problem.guidance_cfg, cfg)[:, 0]
            err = raw - stage_ref
            err_y, err_z = err[:ocp.N_Y], err[ocp.N_Y:]
            total += float(err_y @ np.diag(weights.q_y / weights.y_scale ** 2) @ err_y
                           + err_z @ np.diag(weights.r_z / weights.z_scale ** 2) @ err_z) \
                * cfg.t_step
        raw_end = ocp.raw_outputs(horizon.states[-1][:, None], np.zeros((3, 1)),
                                  select_context(horizon.context, slice(10, 11)),
                                  problem.wind, params, problem.guidance_cfg, cfg)[:ocp.N_Y, 0]
        err_end = raw_end - refs.end_reference()
        total += float(err_end @ np.diag(weights.p_end / weights.y_scale ** 2) @ err_end)
        assert reported == pytest.approx(total, rel=1e-12)

    def test_roll_saturates_exactly_at_bound(self, params, refs, trim):
        """A far-off path demands more than 30 deg roll; the command pins there."""
        cfg = ocp.OcpConfig(n_steps=25, cold_start_sqp_iter=6)
        seg = pth.LineSegment(b=np.array([0.0, 5000.0, -50.0]), chi_p=np.pi / 2,
                              gamma_p=0.0)
        queue = pth.PathQueue(segments=(seg,))
        ctrl = solver.NmpcController(params, cfg, ocp.default_weights(), refs)
        state = trim.state(n=0.0, e=0.0, d=-50.0, xi=0.0)  # path demands a hard right
        control, sol = ctrl.step(state, queue, md.WindVector())
        assert np.max(sol.controls[:, 1]) == cfg.phi_ref_max
        assert np.all(sol.controls >= cfg.control_lower() - 0.0)
        assert np.all(sol.controls <= cfg.control_upper() + 0.0)


class TestNonFiniteLinearization:
    """A non-finite Jacobian entry in any block names its shooting node."""

    @staticmethod
    def poisoned_problem(params, refs, block, entry):
        """A 10-node problem whose output Jacobian `block` (1 = D, 2 = C_N)
        holds a NaN at `entry`."""
        problem = make_problem(params, refs, line_queue(), n_steps=10)
        jacobians = problem.residual_jacobians

        def poisoned(horizon, controls):
            blocks = [a.copy() for a in jacobians(horizon, controls)]
            blocks[block][entry] = np.nan
            return tuple(blocks)

        problem.residual_jacobians = poisoned
        return problem

    def test_nan_in_end_term_names_end_node(self, params, refs, trim):
        problem = self.poisoned_problem(params, refs, 2, (0, 0))
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (10, 1))
        with pytest.raises(md.ModelDomainError, match=r"shooting node 10 \(end term\)"):
            solver.sqp_iterate(problem, trim.state(d=-50.0).as_array(), controls)

    def test_nan_in_one_stage_control_block_names_that_node(self, params, refs, trim):
        problem = self.poisoned_problem(params, refs, 1, (5, 0, 0))
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (10, 1))
        with pytest.raises(md.ModelDomainError, match=r"shooting node 5$"):
            solver.sqp_iterate(problem, trim.state(d=-50.0).as_array(), controls)


class TestPropagateHorizon:
    def test_matches_public_switch_functions(self, params, refs, trim):
        """The inlined in-horizon switching equals the public queue advance."""
        segs = (
            pth.LineSegment(b=np.array([60.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0),
            pth.ArcSegment(c=np.array([60.0, 40.0, -50.0]), r_signed=40.0,
                           chi_p=np.pi / 2, gamma_p=0.0),
            pth.LoiterSegment(c=np.array([100.0, 80.0, -50.0]), r_signed=40.0),
        )
        queue = pth.PathQueue(segments=segs)
        cfg = ocp.OcpConfig(n_steps=60)
        swcfg = pth.SwitchConfig()
        wind = md.WindVector(0.5, -0.5, 0.0)
        x0 = trim.state(n=20.0, e=0.0, d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (60, 1))
        horizon = ocp.propagate_horizon(x0, controls, queue, wind, params, cfg, swcfg)

        # replay with the public functions
        q = queue
        x = x0.copy()
        for k in range(cfg.n_steps + 1):
            assert horizon.x_sw[k] == pytest.approx(q.x_sw, abs=1e-12)
            assert horizon.seg_index[k] == q.current_index
            if k == cfg.n_steps:
                break
            v_g = md.kinematics_array(x, wind)
            conds = pth.switching_conditions(q.current_segment, x[:3], v_g, swcfg)
            q = pth.advance_switch_state(q, conds, swcfg, cfg.t_step)
            x = md.rk4_step_array(x, controls[k], wind, params, cfg.t_step)
            np.testing.assert_allclose(horizon.states[k + 1], x, atol=1e-12)

    @staticmethod
    def assert_bytes_equal_reference(x0, controls, queue, wind, params, cfg, swcfg):
        horizon = ocp.propagate_horizon(x0, controls, queue, wind, params, cfg, swcfg)
        states, x_sw, fields = reference_propagate_horizon(x0, controls, queue, wind,
                                                           params, cfg, swcfg)
        assert horizon.states.tobytes() == states.tobytes()
        assert horizon.x_sw.tobytes() == x_sw.tobytes()
        assert len(fields) == 11
        for name, expected in fields.items():
            got = getattr(horizon.context, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        return horizon

    def test_bytes_equal_reference_on_helix_with_binding_leg_cap(self, params, trim):
        """Level flight along the 1.75-turn climbing helix of the helix
        scenario: the nearest leg rises during the horizon, and the cap
        holds the leg at the one already reached."""
        sc = scenario_helix()
        helix = sc.segments[0]
        cfg = ocp.OcpConfig()
        x0 = replace(sc.initial_state, gamma=0.0, theta=trim.theta,
                     delta_t=trim.delta_t).as_array()
        bank = float(np.arctan(13.5 ** 2 / (params.constants.g * helix.r_signed)))
        controls = np.tile([trim.u_t, bank, trim.theta_ref], (cfg.n_steps, 1))
        horizon = self.assert_bytes_equal_reference(
            x0, controls, pth.PathQueue(segments=sc.segments), md.WindVector(0.8, 0.4, 0.0),
            params, cfg, sc.switching)
        uncapped = [pth.closest_point_arc(helix, r).leg for r in horizon.states[:, :3]]
        assert np.any(np.array(uncapped) > horizon.context.leg)
        assert horizon.axis_nodes == 0

    def test_bytes_equal_reference_just_above_final_helix_leg(self, params):
        """Climbing a quarter turn before the helix exit, 1 m above the path:
        the nearest leg rounds from just below zero, which must store 0.0
        as the integer leg did, never -0.0."""
        sc = scenario_helix()
        helix = sc.segments[0]
        climb = md.solve_trim(params, 13.5, helix.gamma_p)
        slope = np.tan(helix.gamma_p)
        start = replace(sc.initial_state, n=float(helix.c[0]) - helix.r_signed,
                        e=float(helix.c[1]), xi=-np.pi / 2,
                        d=float(helix.c[2]) + np.pi / 2 * helix.r_signed * slope - 1.0)
        bank = float(np.arctan((13.5 * np.cos(helix.gamma_p)) ** 2
                               / (params.constants.g * helix.r_signed)))
        cfg = ocp.OcpConfig(n_steps=20)
        controls = np.tile([climb.u_t, bank, climb.theta_ref], (cfg.n_steps, 1))
        self.assert_bytes_equal_reference(
            start.as_array(), controls, pth.PathQueue(segments=sc.segments),
            md.WindVector(), params, cfg, sc.switching)

    def test_bytes_equal_reference_line_arc_loiter_in_wind(self, params, trim):
        """The queue of the public-switch replay, with the switch mid-horizon."""
        segs = (
            pth.LineSegment(b=np.array([60.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0),
            pth.ArcSegment(c=np.array([60.0, 40.0, -50.0]), r_signed=40.0,
                           chi_p=np.pi / 2, gamma_p=0.0),
            pth.LoiterSegment(c=np.array([100.0, 80.0, -50.0]), r_signed=40.0),
        )
        cfg = ocp.OcpConfig(n_steps=60)
        x0 = trim.state(n=20.0, e=0.0, d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.2, trim.theta_ref], (60, 1))
        horizon = self.assert_bytes_equal_reference(
            x0, controls, pth.PathQueue(segments=segs), md.WindVector(0.5, -0.5, 0.0),
            params, cfg, pth.SwitchConfig())
        assert horizon.seg_index[0] == 0 < horizon.seg_index[-1]

    def test_bytes_equal_reference_across_helix_axis(self, params, trim):
        """Node 5 lies exactly on the axis of a descending helix: it has no
        closest point, and the leg cap carries across it, so the leg after
        it never lies above the legs before it."""
        cfg = ocp.OcpConfig(n_steps=30)
        x0 = trim.state(d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (30, 1))
        free = ocp.propagate_horizon(x0, controls, line_queue(), md.WindVector(),
                                     params, cfg, pth.SwitchConfig())
        c_n, c_e = free.states[5, :2]
        helix = pth.ArcSegment(c=np.array([c_n, c_e, -74.0]), r_signed=-12.0,
                               chi_p=2.0, gamma_p=np.radians(-10.0))
        horizon = self.assert_bytes_equal_reference(
            x0, controls, pth.PathQueue(segments=(helix,)), md.WindVector(),
            params, cfg, pth.SwitchConfig())
        assert horizon.axis_nodes == 1
        assert horizon.context.delta_chi[5] == 0.0 and horizon.context.leg[5] == 0.0
        assert horizon.context.leg[6] <= horizon.context.leg[4]

    def test_rollout_from_helix_axis_reports_axis_node(self, params, trim):
        """A rollout started on the helix axis counts the node instead of
        hiding it; the node carries delta_chi = 0 and leg 0."""
        sc = scenario_helix()
        helix = sc.segments[0]
        cfg = ocp.OcpConfig()
        x0 = replace(sc.initial_state, n=float(helix.c[0]), e=float(helix.c[1])).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (cfg.n_steps, 1))
        horizon = ocp.propagate_horizon(x0, controls, pth.PathQueue(segments=sc.segments),
                                        md.WindVector(), params, cfg, sc.switching)
        assert horizon.axis_nodes >= 1
        assert horizon.context.kind[0] == pth.KIND_ARC
        assert horizon.context.delta_chi[0] == 0.0 and horizon.context.leg[0] == 0.0

    def test_segment_switch_at_correct_node(self, params, refs, trim):
        """Terminal conditions crossing inside the horizon switch the node index."""
        b_dist = 20.0
        segs = (
            pth.LineSegment(b=np.array([b_dist, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0),
            pth.LineSegment(b=np.array([b_dist, 1000.0, -50.0]), chi_p=np.pi / 2,
                            gamma_p=0.0),
        )
        queue = pth.PathQueue(segments=segs)
        cfg = ocp.OcpConfig(n_steps=40)
        x0 = trim.state(n=0.0, e=0.0, d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (40, 1))
        swcfg = pth.SwitchConfig()
        horizon = ocp.propagate_horizon(x0, controls, queue, md.WindVector(), params,
                                        cfg, swcfg)
        # the travel condition crosses at ~b_dist / 13.5 m/s; the switching
        # state then needs 1/rho_sw seconds to cross the segment boundary
        first_switch = int(np.argmax(horizon.seg_index > 0))
        crossing = b_dist / 13.5
        expected = int(np.ceil((crossing + 1.0 / swcfg.rho_sw) / cfg.t_step))
        assert abs(first_switch - expected) <= 2

    def test_rejects_bad_control_shape(self, params, refs, trim):
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=10)
        with pytest.raises(ValueError):
            ocp.propagate_horizon(trim.state().as_array(), np.zeros((5, 3)), queue,
                                  md.WindVector(), params, cfg, pth.SwitchConfig())

    def test_horizon_config_requires_two_steps(self):
        with pytest.raises(ValueError):
            ocp.OcpConfig(n_steps=0)


class TestShiftHorizon:
    """`shift_horizon` equals the rollout from node 1, bit for bit."""

    @staticmethod
    def assert_shift_is_rollout_from_node_one(x0, controls, queue, wind, params, cfg, swcfg):
        horizon = ocp.propagate_horizon(x0, controls, queue, wind, params, cfg, swcfg)
        shifted_u = np.vstack([controls[1:], controls[-1:]])
        shifted = ocp.shift_horizon(horizon, shifted_u, queue, wind, params, cfg, swcfg)
        node_one = pth.PathQueue(segments=queue.segments, x_sw=float(horizon.x_sw[1]),
                                 current_index=int(horizon.seg_index[1]))
        expected = ocp.propagate_horizon(horizon.states[1], shifted_u, node_one, wind,
                                         params, cfg, swcfg)
        assert shifted.states.tobytes() == expected.states.tobytes()
        assert shifted.x_sw.tobytes() == expected.x_sw.tobytes()
        for name in pth._CTX_FIELDS:
            got, want = getattr(shifted.context, name), getattr(expected.context, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert shifted.axis_nodes == expected.axis_nodes
        return horizon, shifted

    def test_helix_leg_cap_released_by_the_shift(self, params, trim):
        """Level flight along the climbing helix of the helix scenario, from
        the node before the nearest leg rises: the rollout caps node 1 at
        node 0's leg, and the shifted horizon, whose node 0 is that node,
        re-fills it at the higher leg."""
        sc = scenario_helix()
        helix = sc.segments[0]
        wind = md.WindVector(0.8, 0.4, 0.0)
        bank = float(np.arctan(13.5 ** 2 / (params.constants.g * helix.r_signed)))
        controls = np.tile([trim.u_t, bank, trim.theta_ref], (sc.ocp.n_steps, 1))
        controls[-5:, 1] = 0.0
        queue = pth.PathQueue(segments=sc.segments)
        level = ocp.propagate_horizon(
            replace(sc.initial_state, gamma=0.0, theta=trim.theta,
                    delta_t=trim.delta_t).as_array(),
            np.tile(controls[0], (sc.ocp.n_steps, 1)), queue, wind, params, sc.ocp,
            sc.switching)
        uncapped = np.array([pth.closest_point_arc(helix, r).leg for r in level.states[:, :3]])
        rise = int(np.argmax(uncapped > uncapped[0]))
        assert rise > 0
        horizon, shifted = self.assert_shift_is_rollout_from_node_one(
            level.states[rise - 1], controls, queue, wind, params, sc.ocp, sc.switching)
        assert shifted.context.leg[0] > horizon.context.leg[1] == horizon.context.leg[0]

    def test_dubins_corners_in_wind(self, params, trim):
        """Wings level along the first leg of the Dubins course, from start
        points 1 m apart: the horizon switches to the first corner at every
        node from the 20th on, the new end node included."""
        sc = scenario_dubins_course()
        switch_nodes = set()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (sc.ocp.n_steps, 1))
        for north in np.arange(250.0, 330.0, 1.0):
            x0 = trim.state(n=north, e=0.0, d=-60.0).as_array()
            _, shifted = self.assert_shift_is_rollout_from_node_one(
                x0, controls, pth.PathQueue(segments=sc.segments), sc.wind, params, sc.ocp,
                sc.switching)
            switch_nodes.update(np.flatnonzero(np.diff(shifted.seg_index)) + 1)
        assert set(range(20, sc.ocp.n_steps + 1)) <= switch_nodes

    def test_line_arc_loiter_with_switch_mid_horizon(self, params, trim):
        segs = (
            pth.LineSegment(b=np.array([60.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0),
            pth.ArcSegment(c=np.array([60.0, 40.0, -50.0]), r_signed=40.0,
                           chi_p=np.pi / 2, gamma_p=0.0),
            pth.LoiterSegment(c=np.array([100.0, 80.0, -50.0]), r_signed=40.0),
        )
        cfg = ocp.OcpConfig(n_steps=60)
        x0 = trim.state(n=20.0, e=0.0, d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.2, trim.theta_ref], (60, 1))
        horizon, _ = self.assert_shift_is_rollout_from_node_one(
            x0, controls, pth.PathQueue(segments=segs), md.WindVector(0.5, -0.5, 0.0),
            params, cfg, pth.SwitchConfig())
        assert horizon.seg_index[1] == 0 < horizon.seg_index[-1]

    def test_rejects_unshifted_shapes(self, params, trim):
        cfg = ocp.OcpConfig(n_steps=10)
        x0 = trim.state(d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (10, 1))
        horizon = ocp.propagate_horizon(x0, controls, line_queue(), md.WindVector(), params,
                                        cfg, pth.SwitchConfig())
        with pytest.raises(ValueError):
            ocp.shift_horizon(horizon, controls[:9], line_queue(), md.WindVector(), params,
                              cfg, pth.SwitchConfig())


class TestOnePassOutputs:
    """`residuals` and `residual_jacobians` evaluate the N+1 nodes in one
    `raw_outputs` call, and equal the two-pass references bit for bit; the
    residual that `residual_jacobians` reads from its batch has the bits of
    `residuals`."""

    @staticmethod
    def assert_bytes_equal_reference(problem, horizon, controls):
        residual = problem.residuals(horizon, controls)
        assert residual.tobytes() == reference_residuals(problem, horizon, controls).tobytes()
        *blocks, at_nodes = problem.residual_jacobians(horizon, controls)
        for got, want in zip(blocks, reference_residual_jacobians(problem, horizon, controls),
                             strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert at_nodes.tobytes() == residual.tobytes()

    def test_helix_horizon_with_near_axis_node(self, params, refs, trim):
        """Node 5 lies exactly on the axis of a descending helix."""
        cfg = ocp.OcpConfig(n_steps=30)
        x0 = trim.state(d=-50.0).as_array()
        controls = np.tile([trim.u_t, 0.05, trim.theta_ref], (30, 1))
        wind = md.WindVector(0.8, 0.4, 0.0)
        free = make_problem(params, refs, line_queue(), wind, cfg=cfg).rollout(x0, controls)
        c_n, c_e = free.states[5, :2]
        helix = pth.ArcSegment(c=np.array([c_n, c_e, -74.0]), r_signed=-12.0,
                               chi_p=2.0, gamma_p=np.radians(-10.0))
        problem = make_problem(params, refs, pth.PathQueue(segments=(helix,)), wind, cfg=cfg)
        horizon = problem.rollout(x0, controls)
        assert horizon.axis_nodes == 1 and horizon.context.delta_chi[5] == 0.0
        self.assert_bytes_equal_reference(problem, horizon, controls)

    def test_dubins_horizon_with_end_node_on_the_next_segment(self, params, refs, trim):
        """Wings level along the first leg of the Dubins course in its wind,
        from the start point whose horizon switches at the end node."""
        sc = scenario_dubins_course()
        problem = solver.AircraftShootingProblem(
            params, sc.ocp, sc.weights, refs, sc.guidance, sc.switching,
            pth.PathQueue(segments=sc.segments), sc.wind)
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (sc.ocp.n_steps, 1))
        horizon = problem.rollout(trim.state(n=259.0, e=0.0, d=-60.0).as_array(), controls)
        assert horizon.seg_index[-2] == 0 < horizon.seg_index[-1]
        self.assert_bytes_equal_reference(problem, horizon, controls)

    def test_line_arc_loiter_horizon_in_wind(self, params, refs, trim):
        segs = (
            pth.LineSegment(b=np.array([60.0, 0.0, -50.0]), chi_p=0.0, gamma_p=0.0),
            pth.ArcSegment(c=np.array([60.0, 40.0, -50.0]), r_signed=40.0,
                           chi_p=np.pi / 2, gamma_p=0.0),
            pth.LoiterSegment(c=np.array([100.0, 80.0, -50.0]), r_signed=40.0),
        )
        problem = make_problem(params, refs, pth.PathQueue(segments=segs),
                               md.WindVector(0.5, -0.5, 0.0), n_steps=70)
        controls = np.tile([trim.u_t, 0.3, trim.theta_ref], (70, 1))
        horizon = problem.rollout(trim.state(n=20.0, e=0.0, d=-50.0).as_array(), controls)
        assert list(np.unique(horizon.seg_index)) == [0, 1, 2]
        self.assert_bytes_equal_reference(problem, horizon, controls)

    def test_one_raw_outputs_call_each(self, params, refs, trim, monkeypatch):
        problem = make_problem(params, refs, line_queue(), n_steps=12)
        controls = np.tile([trim.u_t, 0.0, trim.theta_ref], (12, 1))
        horizon = problem.rollout(trim.state(e=3.0, d=-50.0).as_array(), controls)
        columns = []
        raw_outputs = ocp.raw_outputs

        def counted(x, *args, **kwargs):
            columns.append(x.shape[1])
            return raw_outputs(x, *args, **kwargs)

        monkeypatch.setattr(ocp, "raw_outputs", counted)
        problem.residuals(horizon, controls)
        assert columns == [13]
        problem.residual_jacobians(horizon, controls)
        assert columns == [13, 13 * (1 + md.STATE_DIM + md.CONTROL_DIM)]


class TestPreparedIteration:
    """What `linearize` prepares for the embedded feedback: M, s0 and K."""

    @staticmethod
    def helix_problem(params, refs, trim, n_steps=30):
        sc = scenario_helix()
        problem = make_problem(params, refs, pth.PathQueue(segments=sc.segments),
                               wind=md.WindVector(0.8, 0.4, 0.0), n_steps=n_steps)
        x0 = replace(sc.initial_state, gamma=0.0, theta=trim.theta,
                     delta_t=trim.delta_t).as_array()
        controls = np.tile([trim.u_t, 0.3, trim.theta_ref], (n_steps, 1))
        controls[:4, 1] = problem.cfg.phi_ref_max      # start on a roll bound
        return problem, x0, controls

    def test_m_matches_central_differences_of_the_gradient(self, params, refs, trim):
        """M = J_u^T J_x0 of a helix linearization against central differences
        of g(x0) = J_u^T r(rollout from x0), J_u held; g(x0) at the
        linearization's own node 0 is its gradient."""
        problem, x0, controls = self.helix_problem(params, refs, trim)
        horizon = problem.rollout(x0, controls)
        lin = solver.linearize(problem, horizon, controls)
        blocks = problem.dynamics_jacobians(horizon, controls) \
            + problem.residual_jacobians(horizon, controls)[:3]

        def gradient(x):
            residual = problem.residuals(problem.rollout(x, controls), controls)
            return solver.condensed_gradient(*blocks, residual)

        assert gradient(x0).tobytes() == lin.gradient.tobytes()
        fd = np.empty_like(lin.m_mat)
        for j in range(md.STATE_DIM):
            h = 1e-5 * max(1.0, abs(x0[j]))
            step = h * np.eye(md.STATE_DIM)[j]
            fd[:, j] = (gradient(x0 + step) - gradient(x0 - step)) / (2.0 * h)
        np.testing.assert_allclose(lin.m_mat, fd, rtol=0, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("on_bound", [False, True])
    def test_first_step_matches_a_dense_solve(self, params, refs, trim, on_bound):
        """s0 = -H_FF^-1 g_F and K = -H_FF^-1 M_F of a helix linearization on
        the QP's starting free set F, zero on its fixed set, against
        np.linalg.solve; with the roll of nodes 0-3 on its bound, F leaves
        them out."""
        problem, x0, controls = self.helix_problem(params, refs, trim)
        if not on_bound:
            controls[:, 1] = 0.3
        lin = solver.linearize(problem, problem.rollout(x0, controls), controls)
        free = lin.factor.free
        assert (free.size < controls.size) == on_bound
        h_ff = lin.h_mat[np.ix_(free, free)]
        for got, rhs in ((lin.s0, lin.gradient), (lin.k_mat, lin.m_mat)):
            expected = -np.linalg.solve(h_ff, rhs[free])
            assert not np.any(np.delete(got, free, axis=0))
            np.testing.assert_allclose(got[free], expected, rtol=0,
                                       atol=1e-10 * np.max(np.abs(expected)))


class TestController:
    def test_trim_on_path_stays_at_trim(self, params, refs, trim):
        """Repeated calls at trim on the path return the trim control."""
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=30)
        ctrl = solver.NmpcController(params, cfg, ocp.default_weights(), refs)
        state = trim.state(d=-50.0)
        for _ in range(4):
            control, sol = ctrl.step(state, queue, md.WindVector())
            assert not sol.degraded
        assert control.u_t == pytest.approx(trim.u_t, abs=5e-3)
        assert control.phi_ref == pytest.approx(0.0, abs=2e-3)
        assert control.theta_ref == pytest.approx(trim.theta_ref, abs=5e-3)

    def test_cold_start_converges_within_three_calls(self, params, refs, trim):
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=30)
        ctrl = solver.NmpcController(params, cfg, ocp.default_weights(), refs)
        state = trim.state(e=8.0, d=-50.0)
        objectives = []
        for _ in range(3):
            _, sol = ctrl.step(state, queue, md.WindVector())
            objectives.append(sol.objective)
        # warm shifts perturb the initial guess between calls, so ask for a
        # clean KKT point and an objective matching the cold-start solve
        assert sol.kkt_residual < 1e-6
        assert objectives[-1] <= objectives[0] * 1.02 + 1e-12

    def test_warm_shift_preserves_bounds(self, params, refs, trim):
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=20)
        ctrl = solver.NmpcController(params, cfg, ocp.default_weights(), refs)
        state = trim.state(e=40.0, d=-50.0)
        for _ in range(5):
            _, sol = ctrl.step(state, queue, md.WindVector())
            assert np.all(sol.controls >= cfg.control_lower())
            assert np.all(sol.controls <= cfg.control_upper())

    def test_qp_iteration_limit_degrades_the_period(self, params, refs, trim, monkeypatch):
        """A QP that stops at its iteration limit on the 2nd of 3 cold-start
        iterations flags the period degraded and names that status; the
        line-searched controls are kept."""
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=20, cold_start_sqp_iter=3)
        state = trim.state(e=8.0, d=-50.0)
        _, clean = solver.NmpcController(params, cfg, ocp.default_weights(), refs).step(
            state, queue, md.WindVector())
        assert clean.sqp_iters == 3 and clean.qp_status == "optimal" and not clean.degraded

        solve = solver.solve_box_qp
        statuses = []

        def limit_on_second(*args, **kwargs):
            result = solve(*args, **kwargs)
            statuses.append(result.status)
            return replace(result, status="iteration_limit") if len(statuses) == 2 else result

        monkeypatch.setattr(solver, "solve_box_qp", limit_on_second)
        control, sol = solver.NmpcController(params, cfg, ocp.default_weights(), refs).step(
            state, queue, md.WindVector())
        assert statuses == ["optimal"] * 3 and sol.sqp_iters == 3
        assert sol.degraded and sol.degraded_reason == "qp_iteration_limit"
        assert sol.qp_status == "iteration_limit"
        np.testing.assert_array_equal(sol.controls, clean.controls)
        assert control == md.ControlInput.from_array(clean.controls[0])

    def test_halvings_summed_over_the_period(self, params, refs, trim, monkeypatch):
        """A halving on the 1st of 3 cold-start iterations is reported, not
        overwritten by the last iteration's count."""
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=20, cold_start_sqp_iter=3)
        iterate = solver.sqp_iterate
        calls = []

        def halve_on_first(*args, **kwargs):
            result = iterate(*args, **kwargs)
            calls.append(result.halvings)
            return replace(result, halvings=1) if len(calls) == 1 else result

        monkeypatch.setattr(solver, "sqp_iterate", halve_on_first)
        _, sol = solver.NmpcController(params, cfg, ocp.default_weights(), refs).step(
            trim.state(e=8.0, d=-50.0), queue, md.WindVector())
        assert calls == [0, 0, 0] and sol.sqp_iters == 3
        assert sol.halvings == 1

    def test_solution_carries_axis_nodes_of_final_horizon(self, params, refs, trim):
        """A period measured on a helix axis reports its near-axis nodes."""
        sc = scenario_helix()
        helix = sc.segments[0]
        cfg = ocp.OcpConfig(n_steps=20)
        state = replace(sc.initial_state, n=float(helix.c[0]), e=float(helix.c[1]))
        _, sol = solver.NmpcController(params, cfg, ocp.default_weights(), refs).step(
            state, pth.PathQueue(segments=sc.segments), md.WindVector())
        assert not sol.degraded and sol.axis_nodes >= 1

    def test_degraded_flag_on_solver_failure(self, params, refs):
        queue = line_queue()
        cfg = ocp.OcpConfig(n_steps=10)
        ctrl = solver.NmpcController(params, cfg, ocp.default_weights(), refs)
        bad_state = md.AircraftState(v_a=13.5, gamma=1.55)  # nearly vertical
        control, sol = ctrl.step(bad_state, queue, md.WindVector())
        assert sol.degraded and sol.degraded_reason == "domain"
        assert sol.feedback == "rollout:cold"
        assert control.u_t == pytest.approx(refs.u_t_trim)

    @pytest.mark.parametrize("target, error, reason", [
        ("residual_jacobians", None, "non_finite_linearization"),
        ("prepare_box_qp", np.linalg.LinAlgError, "lin_alg"),
        ("rollout", FloatingPointError, "floating_point"),
        ("rollout", md.ModelDomainError, "domain"),
    ])
    def test_degraded_reason_names_the_exception(self, params, refs, trim, monkeypatch,
                                                 target, error, reason):
        """A warm period whose solve raises keeps the last control and names
        why; the next period solves again."""
        ctrl = solver.NmpcController(params, ocp.OcpConfig(n_steps=10),
                                     ocp.default_weights(), refs)
        state, queue = trim.state(e=3.0, d=-50.0), line_queue()
        good, first = ctrl.step(state, queue, md.WindVector())
        assert not first.degraded and first.degraded_reason == ""
        if target == "residual_jacobians":
            jacobians = solver.AircraftShootingProblem.residual_jacobians

            def broken(problem, horizon, controls):
                c_stage, d_stage, c_end, residual = jacobians(problem, horizon, controls)
                return c_stage, d_stage, np.full_like(c_end, np.nan), residual
        else:
            def broken(*args, **kwargs):
                raise error("injected")
        owner = solver if target == "prepare_box_qp" else solver.AircraftShootingProblem
        with monkeypatch.context() as patch:
            patch.setattr(owner, target, broken)
            control, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.degraded and sol.degraded_reason == reason
        assert sol.feedback == "rollout:not_prepared"
        assert control == good
        _, after = ctrl.step(state, queue, md.WindVector())
        assert not after.degraded and after.degraded_reason == ""


class TestRealTimeIteration:
    """`prepare` between periods, and the feedback path each period took."""

    @staticmethod
    def controller(params, refs, n_steps=20):
        return solver.NmpcController(params, ocp.OcpConfig(n_steps=n_steps),
                                     ocp.default_weights(), refs)

    def test_causes_cold_not_prepared_prepared(self, params, refs, trim):
        ctrl = self.controller(params, refs)
        state, queue = trim.state(e=3.0, d=-50.0), line_queue()
        ctrl.prepare()      # nothing to prepare from before the first step
        labels = []
        for prepare in (False, False, True, True):
            _, sol = ctrl.step(state, queue, md.WindVector())
            labels.append(sol.feedback)
            assert not sol.degraded
            if prepare:
                ctrl.prepare()
        _, sol = ctrl.step(state, queue, md.WindVector())
        labels.append(sol.feedback)
        assert labels == ["rollout:cold", "rollout:not_prepared", "rollout:not_prepared",
                          "embedded", "embedded"]

    def test_weights_changed(self, params, refs, trim):
        ctrl = self.controller(params, refs)
        state, queue = trim.state(e=3.0, d=-50.0), line_queue()
        ctrl.step(state, queue, md.WindVector())
        ctrl.prepare()
        ctrl.weights = solver.apply_throttle_failure_weight(ctrl.weights)
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == "rollout:weights_changed"

    def test_context_changed(self, params, refs, trim):
        """The plant queue switched to the next segment after `prepare`: the
        period still embeds, and its deferred line search rolls out on the
        switched queue."""
        segs = (line_queue().segments[0],
                pth.LineSegment(b=np.array([5000.0, 5000.0, -50.0]), chi_p=np.pi / 2,
                                gamma_p=0.0))
        ctrl = self.controller(params, refs)
        state = trim.state(e=3.0, d=-50.0)
        ctrl.step(state, pth.PathQueue(segments=segs), md.WindVector())
        ctrl.prepare()
        _, sol = ctrl.step(state, pth.PathQueue(segments=segs, x_sw=1.0, current_index=1),
                           md.WindVector())
        assert sol.feedback == "embedded" and not sol.degraded
        done = ctrl.settle()
        assert done.seg_index[0] == 1 and done.x_sw[0] == 1.0 and done.obj_nonincrease_ok

    @pytest.mark.parametrize("error", [md.ModelDomainError, np.linalg.LinAlgError,
                                       FloatingPointError])
    def test_prepare_failed(self, params, refs, trim, monkeypatch, error):
        """`prepare` keeps its failure; the next step rolls out."""
        ctrl = self.controller(params, refs)
        state, queue = trim.state(e=3.0, d=-50.0), line_queue()
        ctrl.step(state, queue, md.WindVector())

        def broken(*args, **kwargs):
            raise error("injected")

        with monkeypatch.context() as patch:
            patch.setattr(solver, "linearize", broken)
            ctrl.prepare()
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == "rollout:prepare_failed" and not sol.degraded
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == "rollout:not_prepared"

    @staticmethod
    def at_prediction(sol, queue, offset=0.0):
        """The measurement at node 1 of the horizon that `sol` accepted, which
        `prepare` shifts to the prediction's node 0, plus `offset`, and the
        queue in that node's switching state."""
        state = md.AircraftState.from_array(sol.states[1] + offset)
        return state, pth.PathQueue(segments=queue.segments, x_sw=float(sol.x_sw[1]),
                                    current_index=int(sol.seg_index[1]))

    def embedding_ready(self, params, refs, trim):
        """A controller after a warm period without halvings and its
        `prepare`, the queue, and that period's solution."""
        ctrl = self.controller(params, refs)
        queue = line_queue()
        _, sol = ctrl.step(trim.state(e=3.0, d=-50.0), queue, md.WindVector())
        ctrl.prepare()
        state, queue = self.at_prediction(sol, queue)
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.halvings == 0
        return ctrl, queue, ctrl.prepare() or sol

    def test_step_is_feedback_only(self, params, refs, trim, monkeypatch):
        """After `prepare`, a warm step computes no Jacobian and no QP factor,
        also far off the prediction; one measured near the prediction also
        no rollout, no residual, no output, no warm start and no QP solve:
        its QP takes the prepared first step, and the free gradient
        certifies it."""
        ctrl = self.controller(params, refs)
        state, queue = trim.state(e=3.0, d=-50.0), line_queue()
        ctrl.step(state, queue, md.WindVector())
        ctrl.prepare()
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(ocp, "rk4_jacobians")
        count(solver.AircraftShootingProblem, "residual_jacobians")
        count(solver, "prepare_box_qp")
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == "embedded" and calls == []

        sol = ctrl.prepare()
        count(ocp, "propagate_horizon")
        count(solver.AircraftShootingProblem, "residuals")
        count(ocp, "raw_outputs")
        count(solver.NmpcController, "_warm_controls")
        count(qp_module, "_cholesky_solve")
        state, queue = self.at_prediction(sol, queue, np.full(md.STATE_DIM, 0.005))
        calls.clear()
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == "embedded"
        assert calls == [] and sol.qp_iters == 2
        assert np.isnan(sol.objective) and np.isnan(sol.states).all()

    @pytest.mark.parametrize("cause", ["weights_changed", "no_preparation"])
    def test_fallback_takes_the_rollout_path(self, params, refs, trim, monkeypatch, cause):
        """A period without a preparation for its weights rolls its
        measurement out, and its feedback label names why."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        label = cause
        if cause == "weights_changed":
            ctrl.weights = solver.apply_throttle_failure_weight(ctrl.weights)
        elif cause == "no_preparation":
            ctrl.step(state, queue, md.WindVector())
            state, queue = self.at_prediction(ctrl.settle(), queue)
            label = "not_prepared"
        iterations = []
        iterate = solver.sqp_iterate
        monkeypatch.setattr(solver, "sqp_iterate",
                            lambda *args, **kwargs: iterations.append(1) or iterate(*args,
                                                                                    **kwargs))
        _, sol = ctrl.step(state, queue, md.WindVector())
        assert sol.feedback == f"rollout:{label}"
        assert iterations == [1] and np.isfinite(sol.objective) and not sol.degraded

    @pytest.mark.parametrize("case", ["dx0_over_bound", "queue_changed"])
    def test_off_the_prediction_embeds(self, params, refs, trim, monkeypatch, case):
        """A measurement 0.6 off the prediction, or a queue whose x_sw is not
        the prediction's, embeds without a Jacobian, and the deferred line
        search from the measurement does not raise the objective."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        offset = np.zeros(md.STATE_DIM)
        if case == "dx0_over_bound":
            offset[[md.IDX_VA, 1, 2]] = [0.6, -0.6, 0.6]
        state, queue = self.at_prediction(sol, queue, offset)
        if case == "queue_changed":
            queue = replace(queue, x_sw=queue.x_sw + 0.25)
        jacobians = []
        rk4_jacobians = ocp.rk4_jacobians
        monkeypatch.setattr(ocp, "rk4_jacobians",
                            lambda *args: jacobians.append(1) or rk4_jacobians(*args))
        _, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded" and not sent.degraded and jacobians == []
        done = ctrl.settle()
        assert done.obj_nonincrease_ok and done.objective <= done.objective_before
        assert done.states[0].tobytes() == state.as_array().tobytes()
        assert done.x_sw[0] == queue.x_sw

    def test_non_finite_measurement_holds_the_last_control(self, params, refs, trim,
                                                           monkeypatch):
        """A NaN in the measurement of an embedded period is a domain error
        before any QP, as a rollout from it would be: the period holds the
        last control, and the next one solves again."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        held = md.ControlInput.from_array(sol.controls[0])
        measured = state.as_array()
        measured[md.IDX_VA] = np.nan
        solves = []
        solve = solver.solve_box_qp
        monkeypatch.setattr(solver, "solve_box_qp",
                            lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
        control, sent = ctrl.step(md.AircraftState.from_array(measured), queue, md.WindVector())
        assert sent.feedback == "embedded" and solves == []
        assert sent.degraded and sent.degraded_reason == "domain" and control == held
        assert ctrl.prepare() is None
        _, after = ctrl.step(state, queue, md.WindVector())
        assert not after.degraded and np.all(np.isfinite(after.controls))

    def test_embedded_period_completed_by_the_next_prepare(self, params, refs, trim):
        """The deferred line search fills in a new solution; the one `step`
        returned keeps its NaN placeholders."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        control, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded"
        done = ctrl.prepare()
        assert done is not sent and np.isnan(sent.objective)
        assert done.halvings == 0 and done.obj_nonincrease_ok
        assert done.objective <= done.objective_before
        np.testing.assert_array_equal(done.controls, sent.controls)
        assert done.states[0].tobytes() == state.as_array().tobytes()
        assert control == md.ControlInput.from_array(done.controls[0])
        assert ctrl.prepare() is None and ctrl.settle() is None

    def test_embedded_step_agrees_with_the_rollout_step(self, params, refs, trim,
                                                        monkeypatch):
        """The embedded full step equals the step of a rollout from the
        measurement, linearized there, bit for bit at the prediction, and to
        second order in dx0 off it."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)

        def both_steps(offset):
            state, at = self.at_prediction(sol, queue, offset)
            embedded, rollout = copy.deepcopy(ctrl), copy.deepcopy(ctrl)
            _, sent = embedded.step(state, at, md.WindVector())
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_same_weights", lambda *args: False)
                _, rolled = rollout.step(state, at, md.WindVector())
            assert (sent.feedback, rolled.feedback) == ("embedded", "rollout:weights_changed")
            assert rolled.halvings == 0
            return sent.controls, rolled.controls

        sent, rolled = both_steps(0.0)
        assert sent.tobytes() == rolled.tobytes()
        sent_off, rolled_off = both_steps(np.full(md.STATE_DIM, 0.01))
        assert np.max(np.abs(sent_off - rolled_off)) \
            <= 0.05 * np.max(np.abs(rolled_off - rolled))

    def test_qp_iters_count_the_periods_qp_iterations(self, params, refs, trim, monkeypatch):
        """`qp_iters` sums the QP iterations of a cold start's SQP
        iterations, and is the embedded QP's own count in an embedded
        period, where the deferred line search keeps it."""
        counts = []
        solve = solver.solve_box_qp

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            counts.append(result.n_iter)
            return result

        monkeypatch.setattr(solver, "solve_box_qp", counted)
        ctrl = self.controller(params, refs)
        _, sol = ctrl.step(trim.state(e=3.0, d=-50.0), line_queue(), md.WindVector())
        assert sol.sqp_iters == len(counts) > 1 and sol.qp_iters == sum(counts)

        # off the prediction, s0 + K dx0 is the exact first step: one step
        # and the stationarity check, as at the prediction
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue, np.full(md.STATE_DIM, 0.005))
        counts.clear()
        _, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded" and sent.qp_active_set == 0
        assert counts == [2] and sent.qp_iters == 2
        assert ctrl.prepare().qp_iters == 2

    def test_embedded_qp_at_its_limit_degrades_the_period(self, params, refs, trim,
                                                          monkeypatch):
        """The embedded QP goes through `solver.solve_box_qp`; one that stops
        at its iteration limit flags the period degraded, also after its
        line search."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        solve = solver.solve_box_qp
        monkeypatch.setattr(solver, "solve_box_qp", lambda *args, **kwargs: replace(
            solve(*args, **kwargs), status="iteration_limit"))
        _, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded"
        done = ctrl.prepare()
        for sol in (sent, done):
            assert sol.degraded and sol.degraded_reason == "qp_iteration_limit"
            assert sol.qp_status == "iteration_limit"

    def test_deferred_halving_holds_the_control_sent(self, params, refs, trim, monkeypatch):
        """A full step rejected by the deferred line search is halved on
        nodes 1..N-1 only, and the next period embeds as well."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        control, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded"
        objective = solver.AircraftShootingProblem.objective
        seen = []

        def reject_full_step(problem, residual):
            seen.append(objective(problem, residual))
            return np.inf if len(seen) == 2 else seen[-1]

        with monkeypatch.context() as patch:
            patch.setattr(solver.AircraftShootingProblem, "objective", reject_full_step)
            done = ctrl.prepare()
        assert len(seen) == 3 and done.halvings == 1 and done.objective == seen[2]
        assert done.controls[0].tobytes() == sent.controls[0].tobytes()
        assert control == md.ControlInput.from_array(done.controls[0])
        assert not np.array_equal(done.controls[1:], sent.controls[1:])
        state, queue = self.at_prediction(done, queue)
        _, after = ctrl.step(state, queue, md.WindVector())
        assert after.feedback == "embedded"

    def test_rejected_deferred_search_keeps_the_held_warm_plan(self, params, refs, trim,
                                                              monkeypatch):
        """A deferred line search that rejects all five step lengths keeps
        its baseline: the warm plan with node 0 held at the control sent,
        rolled out from the measurement, so the objective does not rise."""
        ctrl, queue, sol = self.embedding_ready(params, refs, trim)
        state, queue = self.at_prediction(sol, queue)
        control, sent = ctrl.step(state, queue, md.WindVector())
        assert sent.feedback == "embedded"
        objective = solver.AircraftShootingProblem.objective
        seen = []

        def reject_every_step(problem, residual):
            seen.append(objective(problem, residual))
            return seen[0] if len(seen) == 1 else np.inf

        with monkeypatch.context() as patch:
            patch.setattr(solver.AircraftShootingProblem, "objective", reject_every_step)
            done = ctrl.prepare()
        assert len(seen) == 6 and done.halvings == 5
        assert done.obj_nonincrease_ok and done.objective == done.objective_before == seen[0]
        warm = np.vstack([sol.controls[1:], sol.controls[-1:]])
        assert done.controls[0].tobytes() == sent.controls[0].tobytes()
        assert done.controls[1:].tobytes() == warm[1:].tobytes()
        assert control == md.ControlInput.from_array(done.controls[0])
        horizon = make_problem(params, refs, queue).rollout(state.as_array(), done.controls)
        assert done.states.tobytes() == horizon.states.tobytes()
        state, queue = self.at_prediction(done, queue)
        _, after = ctrl.step(state, queue, md.WindVector())
        assert after.feedback == "embedded" and not after.degraded


class TestThrottleFailureWeight:
    def test_weight_set_to_1e6(self):
        weights = ocp.default_weights()
        failed = solver.apply_throttle_failure_weight(weights)
        assert failed.r_z[ocp.Z_U_T] == 1.0e6

    def test_other_entries_unchanged(self):
        weights = ocp.default_weights()
        failed = solver.apply_throttle_failure_weight(weights)
        np.testing.assert_array_equal(failed.q_y, weights.q_y)
        np.testing.assert_array_equal(failed.p_end, weights.p_end)
        mask = np.arange(ocp.N_Z) != ocp.Z_U_T
        np.testing.assert_array_equal(failed.r_z[mask], weights.r_z[mask])

    def test_restore_round_trip(self):
        weights = ocp.default_weights()
        before = weights.r_z.copy()
        _ = solver.apply_throttle_failure_weight(weights)
        np.testing.assert_array_equal(weights.r_z, before)
