"""Tests for the box-constrained projected-Newton QP solver."""

import itertools

import numpy as np
import pytest

from fwnmpc.nmpc import qp as qp_module
from fwnmpc.nmpc.qp import first_newton_step, prepare_box_qp, solve_box_qp
from oracles import run_at_thread_count


def enumerate_box_qp(h_mat, g_vec, lb, ub):
    """Exact oracle: enumerate every free/lower/upper pattern, solve the
    equality-constrained system, and keep the best feasible KKT point.

    The patterns that share a free set are solved together, one column per
    choice of lower and upper bounds for the other variables."""
    n = g_vec.shape[0]
    best = None
    for free in itertools.product((False, True), repeat=n):
        free = np.array(free)
        bound = ~free
        n_bound = int(np.count_nonzero(bound))
        # column k puts bound variable j on its upper bound where bit j of k is set
        upper = (np.arange(2 ** n_bound) >> np.arange(n_bound)[:, None]) & 1 == 1
        x = np.empty((n, upper.shape[1]))
        x[bound] = np.where(upper, ub[bound, None], lb[bound, None])
        if free.any():
            rhs = -(g_vec[free, None] + h_mat[np.ix_(free, bound)] @ x[bound])
            try:
                x[free] = np.linalg.solve(h_mat[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
        grad = h_mat @ x + g_vec[:, None]
        ok = np.all((x >= lb[:, None] - 1e-9) & (x <= ub[:, None] + 1e-9), axis=0)
        ok &= np.all(np.abs(grad[free]) <= 1e-7, axis=0)
        ok &= np.all(np.where(upper, grad[bound], -grad[bound]) <= 1e-7, axis=0)
        for k in np.flatnonzero(ok):
            obj = 0.5 * x[:, k] @ h_mat @ x[:, k] + g_vec @ x[:, k]
            if best is None or obj < best[1] - 1e-12:
                best = (x[:, k], obj)
    assert best is not None, "oracle found no KKT point"
    return best[0]


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, cond, n)
    return q @ np.diag(eigs) @ q.T


def assert_optimal_kkt_point(h, g, lb, ub, res):
    """`res` is optimal and a KKT point: feasible, its variables off their
    bounds solve the free block given the rest (a dense solve), and the
    multipliers of the bounds it sits on have the right signs."""
    assert res.status == "optimal"
    assert np.all(res.x >= lb) and np.all(res.x <= ub)
    free = (res.x > lb) & (res.x < ub)
    ref = res.x.copy()
    ref[free] = np.linalg.solve(h[np.ix_(free, free)],
                                -(g[free] + h[np.ix_(free, ~free)] @ res.x[~free]))
    np.testing.assert_allclose(res.x, ref, rtol=0, atol=1e-10)
    grad = h @ res.x + g
    moving = lb < ub
    assert np.all(grad[moving & (res.x == lb)] >= -1e-8)
    assert np.all(grad[moving & (res.x == ub)] <= 1e-8)
    assert res.kkt_residual < 1e-8


class TestSolveBoxQp:
    def test_unconstrained_newton_point(self):
        rng = np.random.default_rng(0)
        h = random_spd(rng, 6)
        g = rng.normal(size=6)
        res = solve_box_qp(h, g, -1e6 * np.ones(6), 1e6 * np.ones(6))
        np.testing.assert_allclose(res.x, np.linalg.solve(h, -g), atol=1e-9)
        assert res.status == "optimal"
        assert res.n_active == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        h = random_spd(rng, n, cond=30.0)
        g = 3.0 * rng.normal(size=n)
        lb = -rng.uniform(0.1, 1.0, size=n)
        ub = rng.uniform(0.1, 1.0, size=n)
        res = solve_box_qp(h, g, lb, ub)
        expected = enumerate_box_qp(h, g, lb, ub)
        np.testing.assert_allclose(res.x, expected, atol=1e-8)
        assert res.status == "optimal"

    def test_solution_feasible_and_kkt_clean(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            h = random_spd(rng, n, cond=100.0)
            g = 5.0 * rng.normal(size=n)
            lb, ub = -rng.uniform(0.05, 2.0, n), rng.uniform(0.05, 2.0, n)
            res = solve_box_qp(h, g, lb, ub)
            assert np.all(res.x >= lb - 1e-12) and np.all(res.x <= ub + 1e-12)
            assert res.kkt_residual < 1e-7

    @pytest.mark.parametrize("n", [70, 210])
    def test_unconstrained_newton_point_beyond_one_block(self, n):
        # the free block spans several factorization blocks, the last one
        # partial, and the working set never changes
        rng = np.random.default_rng(n)
        h = random_spd(rng, n, cond=1e3)
        g = rng.normal(size=n)
        res = solve_box_qp(h, g, -1e6 * np.ones(n), 1e6 * np.ones(n))
        assert res.status == "optimal"
        assert res.n_active == 0
        # one exact Newton step, then a stationary check
        assert res.n_iter == 2
        np.testing.assert_allclose(res.x, np.linalg.solve(h, -g), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [70, 210])
    @pytest.mark.parametrize("start_on_bounds", [False, True])
    def test_matches_reference_beyond_one_block(self, n, start_on_bounds):
        """Bounds are met from an all-free start, and with some variables
        starting on an upper bound, bounds at the start are released as
        well, on free blocks of more than one factorization block."""
        rng = np.random.default_rng(n)
        h = random_spd(rng, n, cond=1e3)
        g = 40.0 * rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        start = rng.random(n) < 0.1 if start_on_bounds else np.zeros(n, dtype=bool)
        ub[start] = 0.0
        res = solve_box_qp(h, g, lb, ub)
        assert 0 < res.n_active < n
        assert res.n_iter > 2
        assert np.any(res.x[start] < 0.0) == start_on_bounds
        assert np.count_nonzero((res.x == lb) | (res.x == ub)) == res.n_active
        assert_optimal_kkt_point(h, g, lb, ub, res)

    def test_every_iterate_lowers_the_objective(self, monkeypatch):
        """The full Newton step lies far outside the box, and its clipped
        point can raise the objective; the projected search shortens it, so
        every iterate lowers the objective."""
        iterates = []
        bound_state = qp_module._bound_state
        monkeypatch.setattr(qp_module, "_bound_state",
                            lambda x, lb, ub: iterates.append(x) or bound_state(x, lb, ub))
        n = 12
        for seed in range(4):
            rng = np.random.default_rng(seed)
            h, g = random_spd(rng, n, cond=1e3), 40.0 * rng.normal(size=n)
            lb, ub = -np.ones(n), np.ones(n)
            iterates.clear()
            res = solve_box_qp(h, g, lb, ub)
            # the start, then one iterate per step
            assert res.status == "optimal" and len(iterates) == res.n_iter
            assert np.all(np.diff([0.5 * x @ h @ x + g @ x for x in iterates]) < 0.0)

    def test_many_bounds_change_per_iteration(self):
        """About a third of 210 bounds are active at the optimum, reached
        from an all-free start in at most 10 iterations, where moving one
        bound per iteration would take one per active bound."""
        rng = np.random.default_rng(21)
        n = 210
        h = random_spd(rng, n, cond=1e3)
        g = 300.0 * rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        res = solve_box_qp(h, g, lb, ub)
        assert n // 4 <= res.n_active <= n // 2
        assert res.n_iter <= 10
        assert_optimal_kkt_point(h, g, lb, ub, res)

    def test_all_bounds_active(self):
        h = np.eye(3)
        g = np.array([-10.0, 10.0, -10.0])
        res = solve_box_qp(h, g, -np.ones(3), np.ones(3))
        np.testing.assert_allclose(res.x, [1.0, -1.0, 1.0])
        assert res.n_active == 3

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError):
            solve_box_qp(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h = random_spd(rng, 8)
        g = rng.normal(size=8)
        lb, ub = -0.3 * np.ones(8), 0.3 * np.ones(8)
        first = solve_box_qp(h, g, lb, ub)
        second = solve_box_qp(h, g, lb, ub)
        assert np.array_equal(first.x, second.x)
        assert first.n_iter == second.n_iter

    def test_singular_hessian_raises(self):
        h = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            solve_box_qp(h, np.array([1.0, -1.0, 0.5]), -np.ones(3), np.ones(3))

    def test_singular_block_met_on_release_raises(self):
        # x1 starts on its upper bound, so the first free block {x0} is
        # positive definite; the gradient then releases x1, and the free block
        # {x0, x1} is singular
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = np.array([0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_box_qp(h, g, -np.ones(2), np.array([1.0, 0.0]))

    def test_no_progress_ends_at_the_iteration_limit(self, monkeypatch):
        """A step that never moves the iterate: the loop stops after 3n + 10
        iterations at the starting point and reports its KKT residual."""
        rng = np.random.default_rng(4)
        n = 12
        h, g = random_spd(rng, n), rng.normal(size=n)
        monkeypatch.setattr(qp_module.QpFactor, "newton_step",
                            lambda factor, grad: np.zeros(grad.shape))
        res = solve_box_qp(h, g, -np.ones(n), np.ones(n))
        assert res.status == "iteration_limit" and res.n_iter == 3 * n + 10
        assert not np.any(res.x) and res.n_active == 0
        assert res.kkt_residual == np.max(np.abs(g))


class TestPreparedFactor:
    """`solve_box_qp` with a factor from `prepare_box_qp`."""

    @staticmethod
    def box_qp(n, seed):
        """A QP whose start sits on some bounds and whose iteration adds and
        drops bounds."""
        rng = np.random.default_rng(seed)
        h = random_spd(rng, n, cond=1e3)
        g = 40.0 * rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        lb[::9] = 0.0
        ub[4::11] = 0.0
        return h, g, lb, ub

    @pytest.mark.parametrize("n", [12, 210])
    def test_same_result_with_and_without_prepared_factor(self, n):
        h, g, lb, ub = self.box_qp(n, n)
        factor = prepare_box_qp(h, lb, ub)
        assert 0 < factor.free.size < n
        plain = solve_box_qp(h, g, lb, ub)
        prepared = solve_box_qp(h, g, lb, ub, factor=factor)
        assert plain.n_iter > 2 and plain.n_active > 0
        assert prepared.x.tobytes() == plain.x.tobytes()
        assert (prepared.status, prepared.n_iter, prepared.n_active, prepared.kkt_residual) \
            == (plain.status, plain.n_iter, plain.n_active, plain.kkt_residual)
        # the factor is only read, so it serves a second solve unchanged
        again = solve_box_qp(h, -g, lb, ub, factor=factor)
        assert again.x.tobytes() == solve_box_qp(h, -g, lb, ub).x.tobytes()

    def test_nothing_free(self):
        h, g, _, _ = self.box_qp(6, 1)
        zero = np.zeros(6)
        factor = prepare_box_qp(h, zero, zero)
        assert factor.free.size == 0 and factor.chol is None
        res = solve_box_qp(h, g, zero, zero, factor=factor)
        assert res.status == "optimal" and not np.any(res.x)

    def test_mismatched_free_set_raises(self):
        h, g, lb, ub = self.box_qp(12, 2)
        factor = prepare_box_qp(h, lb, ub)
        with pytest.raises(ValueError, match="free set"):
            solve_box_qp(h, g, -np.ones(12), np.ones(12), factor=factor)
        # variable 1 starts on a bound the factor's free set does not hold
        ub[1] = 0.0
        with pytest.raises(ValueError, match="free set"):
            solve_box_qp(h, g, lb, ub, factor=factor)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            prepare_box_qp(np.ones((2, 2)), -np.ones(2), np.ones(2))

    def test_pivot_below_the_floor_in_a_later_leaf_raises(self):
        """Variable 40, in the second diagonal leaf, is nearly a copy of
        variable 10 in the first: its pivot after the Schur update is about
        2e-15 of its diagonal entry, positive, so LAPACK accepts it, but
        below the relative floor of 70 machine epsilons."""
        n = 70
        h = np.eye(n)
        h[10, 40] = h[40, 10] = 1.0 - 1e-15
        low = np.linalg.cholesky(h)
        assert 0.0 < low[40, 40] ** 2 < n * np.finfo(float).eps
        with pytest.raises(np.linalg.LinAlgError):
            prepare_box_qp(h, -np.ones(n), np.ones(n))
        with pytest.raises(np.linalg.LinAlgError):
            solve_box_qp(h, np.ones(n), -np.ones(n), np.ones(n))


class TestPreparedFirstStep:
    """`solve_box_qp` given its first Newton step."""

    @pytest.mark.parametrize("n", [12, 210])
    def test_replays_the_first_iteration(self, n):
        """From a start with some variables fixed away from zero, so that
        the first gradient is H x + g."""
        h, g, lb, ub = TestPreparedFactor.box_qp(n, n)
        lb[::9] = 0.2
        ub = np.maximum(ub, lb)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        assert not np.any(np.delete(step, factor.free))
        plain = solve_box_qp(h, g, lb, ub)
        prepared = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        assert plain.n_iter > 2 and plain.n_active > 0
        assert prepared.x.tobytes() == plain.x.tobytes()
        assert (prepared.status, prepared.n_iter, prepared.n_active, prepared.kkt_residual) \
            == (plain.status, plain.n_iter, plain.n_active, plain.kkt_residual)

    @pytest.mark.parametrize("seed", range(6))
    def test_affine_first_step_crossing_a_bound_matches_oracle(self, seed):
        """g(p) = g0 + M p: the first step s0 + K p, with s0 for g0 and
        K = -H_FF^-1 M_F, crosses a bound; the solve from it ends where the
        plain solve and the enumeration oracle do."""
        rng = np.random.default_rng(seed)
        n = 6
        h = random_spd(rng, n, cond=30.0)
        g0, m_mat, p = rng.normal(size=n), rng.normal(size=(n, 3)), 3.0 * rng.normal(size=3)
        lb, ub = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        lb[0] = 0.0      # starts on a bound
        factor = prepare_box_qp(h, lb, ub)
        k_mat = factor.newton_step(m_mat)
        assert not np.any(k_mat[0])
        g = g0 + m_mat @ p
        step = first_newton_step(h, g0, lb, ub, factor) + k_mat @ p
        np.testing.assert_allclose(step, first_newton_step(h, g, lb, ub, factor),
                                   rtol=0, atol=1e-12 * np.max(np.abs(step)))
        assert np.any(step > ub) or np.any(step < lb)
        prepared = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        plain = solve_box_qp(h, g, lb, ub)
        assert prepared.status == "optimal" and prepared.n_active > 0
        assert (prepared.n_iter, prepared.n_active) == (plain.n_iter, plain.n_active)
        np.testing.assert_allclose(prepared.x, plain.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prepared.x, enumerate_box_qp(h, g, lb, ub), atol=1e-8)

    def test_first_step_is_taken_as_given(self):
        """Half the Newton step as the first step leaves the other half to a
        second Newton step: one iteration more, the same optimum."""
        rng = np.random.default_rng(5)
        n = 40
        h, g = random_spd(rng, n, cond=1e2), rng.normal(size=n)
        lb, ub = -1e6 * np.ones(n), 1e6 * np.ones(n)
        factor = prepare_box_qp(h, lb, ub)
        plain = solve_box_qp(h, g, lb, ub, factor=factor)
        half = solve_box_qp(h, g, lb, ub, factor=factor,
                            first_step=0.5 * first_newton_step(h, g, lb, ub, factor))
        assert plain.n_iter == 2 and half.n_iter == 3
        np.testing.assert_allclose(half.x, plain.x, rtol=0, atol=1e-12)
        # off by a relative 1e-9, the step leaves a gradient of about 1e-9,
        # above the tolerance of 1e-10: one more Newton step
        near = solve_box_qp(h, g, lb, ub, factor=factor,
                            first_step=(1.0 + 1e-9) * first_newton_step(h, g, lb, ub, factor))
        assert near.n_iter == 3
        np.testing.assert_allclose(near.x, plain.x, rtol=0, atol=1e-12)

    def test_ascent_first_step_is_refused(self):
        """The negated Newton step leaves the box and raises the objective
        at every length the projected search tries, so the iterate stays;
        the next iteration's Newton step ends where the plain solve does."""
        h, g, lb, ub = TestPreparedFactor.box_qp(12, 3)
        factor = prepare_box_qp(h, lb, ub)
        step = -50.0 * first_newton_step(h, g, lb, ub, factor)
        assert np.any(step > ub) or np.any(step < lb)
        res = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        plain = solve_box_qp(h, g, lb, ub)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, plain.x, rtol=0, atol=1e-12)

    def test_stationary_first_step(self):
        """A zero first step leaves the start as it is; the next iteration
        frees the variable that the gradient pulls off its bound."""
        h = np.diag([2.0, 2.0])
        g = np.array([-1.0, 0.0])
        lb, ub = np.array([0.0, -1.0]), np.ones(2)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        assert not np.any(step)
        plain = solve_box_qp(h, g, lb, ub)
        prepared = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        assert prepared.x.tobytes() == plain.x.tobytes()
        assert prepared.n_iter == plain.n_iter
        np.testing.assert_allclose(prepared.x, [0.5, 0.0])


class TestAgainstReferenceLoop:
    """`solve_box_qp` over a seeded sweep, against the plain solve from the
    box's start as the reference: a prepared factor and its first Newton
    step give the reference's bytes, and the reference and a solve from an
    affine first step end at the exact optimum."""

    @staticmethod
    def random_box_qp(rng, n, g_scale):
        """Some bounds at zero, so that the start sits on them, and some
        fixed."""
        h = random_spd(rng, n, cond=1e3)
        g = g_scale * rng.normal(size=n)
        lb, ub = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        lb[rng.random(n) < 0.1] = 0.0
        ub[rng.random(n) < 0.1] = 0.0
        fixed = rng.random(n) < 0.05
        lb[fixed] = ub[fixed] = 0.0
        return h, g, lb, ub

    @pytest.mark.parametrize("n", [5, 12, 70, 210])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("g_scale", [0.05, 3.0])
    def test_bytes_equal_reference(self, n, seed, g_scale):
        """The optimum is the enumeration oracle's for n <= 12 and a KKT
        point checked by a dense solve beyond."""
        rng = np.random.default_rng(1000 * n + seed)
        h, g, lb, ub = self.random_box_qp(rng, n, g_scale)
        ref = solve_box_qp(h, g, lb, ub)
        factor = prepare_box_qp(h, lb, ub)
        for kwargs in ({"factor": factor},
                       {"factor": factor, "first_step": first_newton_step(h, g, lb, ub, factor)}):
            res = solve_box_qp(h, g, lb, ub, **kwargs)
            assert res.x.tobytes() == ref.x.tobytes()
            assert (res.status, res.n_iter, res.n_active, res.kkt_residual) \
                == (ref.status, ref.n_iter, ref.n_active, ref.kkt_residual)
        # g + M p from the first step s0 + K p
        m_mat, p = rng.normal(size=(n, 12)), g_scale * rng.normal(size=12)
        step = first_newton_step(h, g, lb, ub, factor) + factor.newton_step(m_mat) @ p
        affine = solve_box_qp(h, g + m_mat @ p, lb, ub, factor=factor, first_step=step)
        for g_case, res in ((g, ref), (g + m_mat @ p, affine)):
            if n <= 12:
                assert res.status == "optimal"
                np.testing.assert_allclose(res.x, enumerate_box_qp(h, g_case, lb, ub), atol=1e-8)
            else:
                assert_optimal_kkt_point(h, g_case, lb, ub, res)

    def test_free_gradient_over_tol_falls_back_to_a_newton_step(self, monkeypatch):
        """g so large that the free gradient after the exact first Newton
        step stays above the tolerance, at the rounding level of H x + g:
        every later iteration solves for its step, and the iteration stops
        at its limit on the Newton point."""
        rng = np.random.default_rng(11)
        n = 70
        h = random_spd(rng, n, cond=1e3)
        g = 1e8 * rng.normal(size=n)
        lb, ub = -1e12 * np.ones(n), 1e12 * np.ones(n)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        assert np.max(np.abs(h @ step + g)) > 1e-10
        solves = []
        newton_step = qp_module.QpFactor.newton_step

        def counted(factor, grad):
            solves.append(grad)
            return newton_step(factor, grad)

        monkeypatch.setattr(qp_module.QpFactor, "newton_step", counted)
        res = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        assert res.status == "iteration_limit" and len(solves) == res.n_iter - 1
        assert res.kkt_residual < 1e-12 * np.max(np.abs(g))
        x = np.linalg.solve(h, -g)
        np.testing.assert_allclose(res.x, x, rtol=0, atol=1e-12 * np.max(np.abs(x)))

    def test_exact_first_step_is_certified_without_a_solve(self, monkeypatch):
        """The exact first Newton step of an unconstrained QP stays in the
        box, so it is taken as it is, and the second iteration's KKT check
        ends the solve without a solve."""
        rng = np.random.default_rng(12)
        n = 210
        h, g = random_spd(rng, n, cond=1e3), rng.normal(size=n)
        lb, ub = -1e6 * np.ones(n), 1e6 * np.ones(n)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        monkeypatch.setattr(qp_module, "_cholesky_solve", None)
        res = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        monkeypatch.undo()
        assert res.status == "optimal" and res.n_iter == 2
        assert np.array_equal(res.x, step)
        assert_optimal_kkt_point(h, g, lb, ub, res)


_THREADS_SNIPPET = """
import hashlib
import sys
import numpy as np
from fwnmpc.nmpc import qp
from fwnmpc.nmpc.qp import first_newton_step, prepare_box_qp, solve_box_qp
data = np.load(sys.argv[1])
h, g, lb, ub = data["h"], data["g"], data["lb"], data["ub"]
# count the factorizations: the start's and one per changed free set
factor_free, factors = qp._factor_free, []
qp._factor_free = lambda h_mat, free: factors.append(free.size) or factor_free(h_mat, free)
res = solve_box_qp(h, g, lb, ub)
qp._factor_free = factor_free
print(res.status, res.n_iter, res.n_active, len(factors), res.x.tobytes().hex())
# the prepared path: the factor, and a solve from the affine first step
# s0 + K p for g + M p, which changes the working set
factor = prepare_box_qp(h, lb, ub)
digest = hashlib.sha256()
for rows in factor.chol:
    for row in rows:
        digest.update(row.tobytes())
m_mat, p = data["m"], data["p"]
s0 = first_newton_step(h, g, lb, ub, factor)
k_mat = factor.newton_step(m_mat)
step = s0 + np.einsum("ij,j->i", k_mat, p)
res = solve_box_qp(h, g + np.einsum("ij,j->i", m_mat, p), lb, ub, factor=factor,
                   first_step=step)
print(digest.hexdigest(), s0.tobytes().hex(), k_mat.tobytes().hex(), res.status, res.n_iter,
      res.n_active, res.x.tobytes().hex())
"""


class TestThreadCountIndependence:
    def test_bytes_equal_at_one_and_two_blas_threads(self, tmp_path):
        """The same 210-variable QP, solved in processes with one and with two
        BLAS/OpenMP threads, gives the same bits. (A BLAS that caps its
        threads at the CPU count runs one thread in both processes on a
        one-CPU machine, where the check cannot fail.)"""
        rng = np.random.default_rng(3)
        n = 210
        h = random_spd(rng, n, cond=1e3)
        g = 40.0 * rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        m_mat, p = rng.normal(size=(n, 12)), 10.0 * rng.normal(size=12)
        qp_path = tmp_path / "qp.npz"
        np.savez(qp_path, h=h, g=g, lb=lb, ub=ub, m=m_mat, p=p)

        outputs = [run_at_thread_count(_THREADS_SNIPPET, qp_path, threads=threads).split()
                   for threads in (1, 2)]
        status, n_iter, n_active, n_factors, x_hex = outputs[0][:5]
        assert status == "optimal"
        assert 0 < int(n_active) < n
        assert int(n_iter) > 2
        # the free block is factored anew at least twice after the start
        assert int(n_factors) >= 3
        assert outputs[0] == outputs[1]
        # and the bits are the right answer: the final active bounds fixed,
        # the rest solves the free block
        x = np.frombuffer(bytes.fromhex(x_hex))
        free = (x > lb) & (x < ub)
        ref = x.copy()
        ref[free] = np.linalg.solve(h[np.ix_(free, free)], -(g[free] + h[np.ix_(free, ~free)] @ x[~free]))
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10)

        # the prepared path: s0 and K solve the free block (all of it here),
        # and the solve from s0 + K p changes the working set and ends where
        # the plain solve does
        _, s0_hex, k_hex, status, n_iter, n_active, x_hex = outputs[0][5:]
        s0 = np.frombuffer(bytes.fromhex(s0_hex))
        k_mat = np.frombuffer(bytes.fromhex(k_hex)).reshape(n, 12)
        np.testing.assert_allclose(s0, -np.linalg.solve(h, g), rtol=0, atol=1e-10 * np.max(np.abs(s0)))
        np.testing.assert_allclose(k_mat, -np.linalg.solve(h, m_mat), rtol=0,
                                   atol=1e-10 * np.max(np.abs(k_mat)))
        assert status == "optimal" and int(n_iter) > 2 and 0 < int(n_active) < n
        plain = solve_box_qp(h, g + m_mat @ p, lb, ub)
        assert (plain.n_iter, plain.n_active) == (int(n_iter), int(n_active))
        np.testing.assert_allclose(np.frombuffer(bytes.fromhex(x_hex)), plain.x, rtol=0, atol=1e-10)
