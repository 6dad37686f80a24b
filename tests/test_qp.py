"""Tests for the box-constrained active-set QP solver."""

import itertools

import numpy as np
import pytest

from fwnmpc.nmpc import qp as qp_module
from fwnmpc.nmpc.qp import _factor_free, _FreeBasis, first_newton_step, prepare_box_qp, \
    solve_box_qp
from oracles import reference_solve_box_qp, run_at_thread_count


def enumerate_box_qp(h_mat, g_vec, lb, ub):
    """Exact oracle: enumerate every free/lower/upper pattern, solve the
    equality-constrained system, and keep the best feasible KKT point."""
    n = g_vec.shape[0]
    best = None
    for pattern in itertools.product((0, -1, 1), repeat=n):
        x = np.empty(n)
        free = [i for i, s in enumerate(pattern) if s == 0]
        for i, s in enumerate(pattern):
            if s == -1:
                x[i] = lb[i]
            elif s == 1:
                x[i] = ub[i]
        if free:
            idx = np.array(free)
            rhs = -(g_vec[idx] + h_mat[np.ix_(idx, [i for i in range(n) if i not in free])]
                    @ x[[i for i in range(n) if i not in free]])
            try:
                x[idx] = np.linalg.solve(h_mat[np.ix_(idx, idx)], rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(x < lb - 1e-9) or np.any(x > ub + 1e-9):
            continue
        grad = h_mat @ x + g_vec
        ok = True
        for i, s in enumerate(pattern):
            if s == 0 and abs(grad[i]) > 1e-7:
                ok = False
            if s == -1 and grad[i] < -1e-7:
                ok = False
            if s == 1 and grad[i] > 1e-7:
                ok = False
        if not ok:
            continue
        obj = 0.5 * x @ h_mat @ x + g_vec @ x
        if best is None or obj < best[1] - 1e-12:
            best = (x, obj)
    assert best is not None, "oracle found no KKT point"
    return best[0]


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, cond, n)
    return q @ np.diag(eigs) @ q.T


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
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_reference_beyond_one_block(self, n, warm):
        """Bounds are blocked from an all-free start, and with a warm start
        some bounds at the start are released as well, on free blocks of
        more than one factorization block."""
        rng = np.random.default_rng(n)
        h = random_spd(rng, n, cond=1e3)
        g = 40.0 * rng.normal(size=n)
        lb, ub = -np.ones(n), np.ones(n)
        x0 = np.where(rng.random(n) < 0.1, ub, 0.0) if warm else None
        res = solve_box_qp(h, g, lb, ub, x0=x0)
        assert res.status == "optimal"
        assert 0 < res.n_active < n
        assert res.n_iter > 2
        assert np.all(res.x >= lb) and np.all(res.x <= ub)
        # reference: fix the final active bounds and solve for the rest
        free = (res.x > lb) & (res.x < ub)
        assert np.count_nonzero(~free) == res.n_active
        ref = res.x.copy()
        ref[free] = np.linalg.solve(h[np.ix_(free, free)],
                                    -(g[free] + h[np.ix_(free, ~free)] @ res.x[~free]))
        np.testing.assert_allclose(res.x, ref, rtol=0, atol=1e-10)
        # optimal multipliers on the active bounds
        grad = h @ res.x + g
        assert np.all(grad[res.x == lb] >= -1e-8) and np.all(grad[res.x == ub] <= 1e-8)
        assert res.kkt_residual < 1e-8

    def test_all_bounds_active(self):
        h = np.eye(3)
        g = np.array([-10.0, 10.0, -10.0])
        res = solve_box_qp(h, g, -np.ones(3), np.ones(3))
        np.testing.assert_allclose(res.x, [1.0, -1.0, 1.0])
        assert res.n_active == 3

    def test_warm_start_point_respected(self):
        h = np.diag([2.0, 2.0])
        g = np.array([-1.0, -1.0])
        res = solve_box_qp(h, g, np.zeros(2), np.ones(2), x0=np.array([0.9, 0.9]))
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)

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
        # x1 starts at its upper bound, so the first free block {x0} is
        # positive definite; the gradient then releases x1, and the free block
        # {x0, x1} is singular
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = np.array([0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_box_qp(h, g, -np.ones(2), np.ones(2), x0=np.array([0.0, 1.0]))


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
        with pytest.raises(ValueError, match="free set"):
            solve_box_qp(h, g, lb, ub, x0=np.full(12, 1.0), factor=factor)

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

    def test_stationary_first_step(self):
        """A zero first step goes straight to the multiplier check, which
        releases the bound whose multiplier has the wrong sign."""
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
    """`solve_box_qp` against the plain active-set loop it optimizes
    (`oracles.reference_solve_box_qp`), which solves for a Newton step in
    every iteration after the first: the same bits and counts."""

    @staticmethod
    def assert_same(res, ref):
        assert res.x.tobytes() == ref.x.tobytes()
        assert (res.status, res.n_iter, res.n_active, res.kkt_residual) \
            == (ref.status, ref.n_iter, ref.n_active, ref.kkt_residual)

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
        rng = np.random.default_rng(1000 * n + seed)
        h, g, lb, ub = self.random_box_qp(rng, n, g_scale)
        cases = [(g, {})]
        # warm: a start on a mix of bounds and interior points, some of
        # whose bounds the multiplier check releases
        x0 = np.where(rng.random(n) < 0.3, np.where(rng.random(n) < 0.5, lb, ub),
                      0.5 * (lb + ub))
        cases.append((g, {"x0": x0}))
        factor = prepare_box_qp(h, lb, ub)
        cases.append((g, {"factor": factor}))
        cases.append((g, {"factor": factor,
                          "first_step": first_newton_step(h, g, lb, ub, factor)}))
        m_mat, p = rng.normal(size=(n, 12)), g_scale * rng.normal(size=12)
        step = first_newton_step(h, g, lb, ub, factor) + factor.newton_step(m_mat) @ p
        cases.append((g + m_mat @ p, {"factor": factor, "first_step": step}))
        for g_case, kwargs in cases:
            res = solve_box_qp(h, g_case, lb, ub, **kwargs)
            self.assert_same(res, reference_solve_box_qp(h, g_case, lb, ub, **kwargs))

    def test_free_gradient_over_tol_falls_back_to_a_newton_step(self, monkeypatch):
        """g so large that the free gradient after the exact first Newton
        step stays above the tolerance: the second iteration solves for its
        step, as the reference does."""
        rng = np.random.default_rng(11)
        n = 70
        h = random_spd(rng, n, cond=1e3)
        g = 1e8 * rng.normal(size=n)
        lb, ub = -1e12 * np.ones(n), 1e12 * np.ones(n)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        assert np.max(np.abs(h @ step + g)) > 1e-10
        solves = []
        newton_step = qp_module._FreeBasis.newton_step

        def counted(basis, grad):
            solves.append(grad)
            return newton_step(basis, grad)

        monkeypatch.setattr(qp_module._FreeBasis, "newton_step", counted)
        res = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        assert len(solves) >= 1
        self.assert_same(res, reference_solve_box_qp(h, g, lb, ub, factor=factor, first_step=step))

    def test_exact_first_step_is_certified_without_a_solve(self, monkeypatch):
        """The exact first Newton step of an unconstrained QP: the second
        iteration's free gradient is within the tolerance, so it solves
        nothing and goes to the multiplier check."""
        rng = np.random.default_rng(12)
        n = 210
        h, g = random_spd(rng, n, cond=1e3), rng.normal(size=n)
        lb, ub = -1e6 * np.ones(n), 1e6 * np.ones(n)
        factor = prepare_box_qp(h, lb, ub)
        step = first_newton_step(h, g, lb, ub, factor)
        monkeypatch.setattr(qp_module, "_cholesky_solve", None)
        res = solve_box_qp(h, g, lb, ub, factor=factor, first_step=step)
        monkeypatch.undo()
        assert res.n_iter == 2
        self.assert_same(res, reference_solve_box_qp(h, g, lb, ub, factor=factor, first_step=step))


class TestFreeBasis:
    """The factor kept by the solver against np.linalg.solve, on free blocks
    of several factorization blocks, through bound changes of both kinds."""

    @staticmethod
    def assert_newton_step_exact(basis, h, free, grad):
        expected = np.zeros(h.shape[0])
        expected[free] = -np.linalg.solve(h[np.ix_(free, free)], grad[free])
        np.testing.assert_allclose(basis.newton_step(grad), expected, rtol=0,
                                   atol=1e-11 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", [70, 210])
    def test_factor_and_updates_match_solve(self, n):
        rng = np.random.default_rng(n)
        h = random_spd(rng, n, cond=1e3)
        grad = rng.normal(size=n)
        free = list(range(0, n, 7)) + [i for i in range(n) if i % 7]
        fixed = free[-5:]
        free = free[:-5]
        basis = _FreeBasis(h, _factor_free(h, np.array(free)))
        self.assert_newton_step_exact(basis, h, free, grad)
        # fix some variables, release the ones fixed from the start, then fix
        # a few more
        changes = [("remove", i) for i in free[3:n:23]] + [("add", i) for i in fixed]
        changes += [("remove", i) for i in free[5:n:31]]
        for kind, i in changes:
            if kind == "remove":
                basis.remove(i)
                free.remove(i)
            else:
                basis.add(i)
                free.append(i)
            self.assert_newton_step_exact(basis, h, free, grad)
        # the basis stays H-orthonormal: V^T H_FF V = I
        m = basis.m
        rows, v = basis.rows[:m], basis.v[:m, :m]
        np.testing.assert_allclose(v.T @ h[np.ix_(rows, rows)] @ v, np.eye(m), rtol=0, atol=1e-10)


_THREADS_SNIPPET = """
import hashlib
import sys
import numpy as np
from fwnmpc.nmpc.qp import first_newton_step, prepare_box_qp, solve_box_qp
data = np.load(sys.argv[1])
h, g, lb, ub = data["h"], data["g"], data["lb"], data["ub"]
res = solve_box_qp(h, g, lb, ub)
print(res.status, res.n_iter, res.n_active, res.x.tobytes().hex())
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
        status, n_iter, n_active, x_hex = outputs[0][:4]
        assert status == "optimal"
        assert 0 < int(n_active) < n
        assert int(n_iter) > 2
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
        _, s0_hex, k_hex, status, n_iter, n_active, x_hex = outputs[0][4:]
        s0 = np.frombuffer(bytes.fromhex(s0_hex))
        k_mat = np.frombuffer(bytes.fromhex(k_hex)).reshape(n, 12)
        np.testing.assert_allclose(s0, -np.linalg.solve(h, g), rtol=0, atol=1e-10 * np.max(np.abs(s0)))
        np.testing.assert_allclose(k_mat, -np.linalg.solve(h, m_mat), rtol=0,
                                   atol=1e-10 * np.max(np.abs(k_mat)))
        assert status == "optimal" and int(n_iter) > 2 and 0 < int(n_active) < n
        plain = solve_box_qp(h, g + m_mat @ p, lb, ub)
        assert (plain.n_iter, plain.n_active) == (int(n_iter), int(n_active))
        np.testing.assert_allclose(np.frombuffer(bytes.fromhex(x_hex)), plain.x, rtol=0, atol=1e-10)
