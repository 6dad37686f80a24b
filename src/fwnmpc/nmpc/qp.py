"""Dense box-constrained QP via a deterministic primal active-set method.

Solves  min 0.5 x^T H x + g^T x  subject to  lb <= x <= ub  for symmetric
positive-definite H. Starting from a feasible interior point, the working
set only ever holds variable bounds, so every equality-constrained subproblem
reduces to a linear solve on the free variables. Ties in the ratio test and
multiplier selection break toward the lowest index, which makes the iteration
deterministic and cycle-free on these problems.

The free block H_FF is factored once per solve, by a blocked Cholesky
factorization, and Newton steps reuse that factor while the working set
stays as it is. The starting working set depends on the box alone, so
`prepare_box_qp` can factor it before the gradient is known, and a solve
given that factor starts with its triangular solves. A caller that already
holds the first Newton step (`first_newton_step`, or an affine model of it
in a parameter of g) passes it in, and the first iteration skips even
those. The first working-set change turns the factor into a basis V of the
free coordinates with V^T H_FF V = I (V = L^-T), and every change updates V
in O(n^2) instead of solving from scratch (the Goldfarb-Idnani 1983 scheme,
as in qpOASES): a released bound borders V with one H-orthonormalized
column; a blocked bound is rotated into a single column of V by one
Householder reflection, and that column is dropped. The Newton step on the
free set is then -V V^T grad.

After a full step that no bound blocked, the next iteration computes the
gradient, as every iteration does, and a free gradient within the step
tolerance certifies that the point is stationary on its working set: the
iteration goes on to the multiplier check without solving for a step that
would be zero to rounding. Every other iteration, including one after a
full step whose free gradient is above the tolerance, solves for its Newton
step, so a first step that is not the exact Newton step is followed by one
that is.

The bits do not depend on the BLAS thread count. LAPACK `potrf`
(`np.linalg.cholesky`) and the inverse of the factor run on diagonal leaves
of at most 32 rows, and every other product is a numpy `@` over a tile of at
most 32 rows and 8192 entries of its left factor, with at most 32 columns
on the right. OpenBLAS runs a potrf below order 64, an LU of fewer than
10000 entries, a gemv of fewer than 9216 entries and a gemm of at most
262144 multiply-adds on the calling thread alone, so no call is split by
the thread count, and the iterates and the closed-loop CSVs keep their bits
at any BLAS thread-count setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FREE, _LOWER, _UPPER = 0, -1, 1

# Diagonal leaf of the factorization and row tile of the products; a tile
# also reads at most _TILE entries of its left factor (module docstring)
_BLOCK = 32
_TILE = 8192

_NOT_PD = "free block of the QP Hessian is not positive definite"


@dataclass(frozen=True)
class QpResult:
    x: np.ndarray
    status: str               # "optimal" or "iteration_limit"
    n_iter: int
    n_active: int
    kkt_residual: float


@dataclass(frozen=True)
class QpFactor:
    """Factor of the free block of H at a solve's starting point, made
    ahead of the solve by `prepare_box_qp`."""

    free: np.ndarray          # indices of the starting free set
    chol: tuple | None        # `_cholesky` of H_FF, None if nothing is free

    def newton_step(self, grad: np.ndarray) -> np.ndarray:
        """-H_FF^-1 grad_F on the starting free set, zero elsewhere; a 2-D
        `grad` (n, k) is solved for its k columns at once."""
        step = np.zeros(grad.shape)
        if self.free.size:
            step[self.free] = -_cholesky_solve(*self.chol, grad[self.free])
        return step


def prepare_box_qp(h_mat: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> QpFactor:
    """Factor the free block of `h_mat` at the starting point of
    `solve_box_qp(h_mat, g, lb, ub)`, which depends on the box alone.

    Raises `np.linalg.LinAlgError` if that block is not numerically
    positive definite.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    _, state = _start(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float), None)
    return _factor_free(h_mat, np.flatnonzero(state == _FREE))


def first_newton_step(h_mat: np.ndarray, g_vec: np.ndarray, lb: np.ndarray,
                      ub: np.ndarray, factor: QpFactor) -> np.ndarray:
    """The Newton step that the first iteration of
    `solve_box_qp(h_mat, g_vec, lb, ub, factor=factor)` solves for, by the
    same computation, so that passing it back as `first_step` leaves every
    iterate's bits as they were."""
    x, _ = _start(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float), None)
    return factor.newton_step(_product(np.asarray(h_mat, dtype=float), x) + g_vec)


def solve_box_qp(h_mat: np.ndarray, g_vec: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray, x0: np.ndarray | None = None,
                 factor: QpFactor | None = None,
                 first_step: np.ndarray | None = None) -> QpResult:
    """Minimize a strictly convex quadratic over a box.

    `factor`, from `prepare_box_qp` on the same `h_mat`, replaces the
    factorization of the starting free block; the iterates are the same to
    the bit. `first_step`, the first iteration's Newton step if known
    (`first_newton_step`, or an affine model of it), replaces that
    iteration's solve and must be zero off the starting free set; the
    iteration runs on from it unchanged, so a first step that is not the
    Newton step is followed by a Newton step. After a full step that no
    bound blocked, a free gradient within the step tolerance certifies the
    point without a solve (module docstring). Raises `ValueError` if the
    factor's free set is not this solve's starting free set, and
    `np.linalg.LinAlgError` if a free block of `h_mat` met during the
    iteration is not numerically positive definite.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    g_vec = np.asarray(g_vec, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = g_vec.shape[0]
    tol = 1e-10
    max_iter = 3 * n + 10

    x, state = _start(lb, ub, x0)
    # degenerate equal-bound variables stay fixed forever
    fixed = lb == ub
    start_free = np.flatnonzero(state == _FREE)
    if factor is None:
        factor = _factor_free(h_mat, start_free)
    elif not np.array_equal(factor.free, start_free):
        raise ValueError("the prepared factor's free set is not the solve's starting free set")
    basis = _FreeBasis(h_mat, factor)

    full_step = False         # the last iteration took its whole step, no bound blocking
    for it in range(1, max_iter + 1):
        if it > 1 or first_step is None:
            grad = _product(h_mat, x) + g_vec
            # after a full step, a free gradient within tol certifies that
            # the iterate is stationary on its working set
            if full_step and np.maximum.reduce(np.abs(grad[state == _FREE]), initial=0.0) <= tol:
                step = None
            else:
                step = basis.newton_step(grad)
        else:
            grad, step = None, np.asarray(first_step, dtype=float)

        if step is None or np.max(np.abs(step), initial=0.0) <= tol:
            # stationary on the working set: check bound multipliers
            if grad is None:
                grad = _product(h_mat, x) + g_vec
            viol = _violations(grad, state, fixed)
            active = state != _FREE
            worst = np.flatnonzero(active & (viol > tol))
            if worst.size == 0:
                return QpResult(x=x, status="optimal", n_iter=it,
                                n_active=int(np.count_nonzero(active)),
                                kkt_residual=_kkt_residual(viol))
            state[worst[0]] = _FREE  # release lowest index (Bland)
            basis.add(worst[0])
            full_step = False
            continue

        # ratio test toward the nearest blocking bound, scanning candidates
        # in index order
        free = state == _FREE
        up = free & (step > tol)
        down = free & (step < -tol)
        ratio = np.divide(np.where(up, ub, lb) - x, step, out=np.full(n, np.inf),
                          where=up | down)
        alpha = 1.0
        blocking = -1
        for i in np.flatnonzero(ratio < 1.0 - 1e-15):
            if ratio[i] < alpha - 1e-15:
                alpha, blocking = ratio[i], i

        x = x + max(alpha, 0.0) * step
        if blocking >= 0:
            side = _UPPER if up[blocking] else _LOWER
            state[blocking] = side
            x[blocking] = ub[blocking] if side == _UPPER else lb[blocking]
            basis.remove(blocking)
        np.clip(x, lb, ub, out=x)
        full_step = blocking < 0

    grad = _product(h_mat, x) + g_vec
    return QpResult(x=x, status="iteration_limit", n_iter=max_iter,
                    n_active=int(np.count_nonzero(state != _FREE)),
                    kkt_residual=_kkt_residual(_violations(grad, state, fixed)))


def _violations(grad: np.ndarray, state: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Per variable: |grad| if free; on an active bound the multiplier's
    violation, -lambda (above zero where the multiplier has the wrong sign);
    zero if fixed."""
    viol = np.where(state == _FREE, np.abs(grad), state * grad)
    viol[fixed] = 0.0
    return viol


def _kkt_residual(viol: np.ndarray) -> float:
    """Max complementarity/stationarity violation of `_violations`; abs
    makes a zero +0.0."""
    return abs(float(np.maximum.reduce(viol, initial=0.0)))


def _start(lb: np.ndarray, ub: np.ndarray, x0: np.ndarray | None):
    """Feasible starting point and working set: bounds the point sits on
    are active."""
    if (lb > ub).any():
        raise ValueError("inconsistent box bounds")
    x = np.zeros(lb.shape[0]) if x0 is None else np.array(x0, dtype=float)
    np.clip(x, lb, ub, out=x)
    state = np.full(lb.shape[0], _FREE, dtype=np.int8)
    state[x <= lb] = _LOWER
    state[x >= ub] = _UPPER
    return x, state


def _pivot_rtol(n: int) -> float:
    # relative pivot floor: a free block below it is singular to working
    # precision
    return max(n, 1) * np.finfo(float).eps


def _factor_free(h_mat: np.ndarray, free: np.ndarray) -> QpFactor:
    """The factor of the free block H_FF of the free set `free`."""
    if not free.size:
        return QpFactor(free=free, chol=None)
    h_ff = h_mat if free.size == h_mat.shape[0] else h_mat[np.ix_(free, free)]
    return QpFactor(free=free, chol=_cholesky(h_ff, _pivot_rtol(h_mat.shape[0])))


class _FreeBasis:
    """Factor of the free block H_FF, updated as the working set changes.

    Until the first change the Newton step is solved with the blocked
    Cholesky factor of the initial free block. The first change converts it
    into a basis V with V^T H_FF V = I, whose row r belongs to variable
    `rows[r]` (the order of the updates, not the index order). The
    conversion is another O(n^3) pass, which a solve whose working set never
    changes does not pay: in the closed loop of the built-in scenarios that
    is most warm-started solves (99% on the helix, 95% in the first 60 s of
    the Dubins course, 72% in the motor-failure run).
    """

    def __init__(self, h_mat: np.ndarray, factor: QpFactor):
        n = h_mat.shape[0]
        self.h_mat = h_mat
        self.pivot_rtol = _pivot_rtol(n)
        self.rows = np.zeros(n, dtype=np.intp)
        self.m = factor.free.size
        self.rows[:self.m] = factor.free
        self.factor = factor      # read only, so a prepared factor serves many solves
        self.v = None

    def newton_step(self, grad: np.ndarray) -> np.ndarray:
        """-H_FF^-1 grad_F on the free set, zero elsewhere."""
        if self.v is None:
            return self.factor.newton_step(grad)
        step = np.zeros(grad.shape[0])
        m = self.m
        if m:
            rows, v = self.rows[:m], self.v[:m, :m]
            step[rows] = -_product(v, _product(v.T, grad[rows]))
        return step

    def add(self, i: int) -> None:
        """Free variable i: border V with the H-orthonormalized unit vector e_i."""
        v_full = self._basis()
        m = self.m
        rows, v = self.rows[:m], v_full[:m, :m]
        coef = _product(v.T, self.h_mat[rows, i])
        h_ii = self.h_mat[i, i]
        pivot = h_ii - np.sum(coef * coef)
        if not pivot > self.pivot_rtol * abs(h_ii):
            raise np.linalg.LinAlgError(_NOT_PD)
        scale = 1.0 / math.sqrt(pivot)
        v_full[:m, m] = -scale * _product(v, coef)
        v_full[m, :m] = 0.0
        v_full[m, m] = scale
        self.rows[m] = i
        self.m = m + 1

    def remove(self, i: int) -> None:
        """Fix variable i: reflect its row of V onto the last column, then drop
        that column and the row."""
        m = self.m
        v = self._basis()[:m, :m]
        k = int(np.flatnonzero(self.rows[:m] == i)[0])
        u = v[k].copy()
        u[-1] += math.copysign(math.sqrt(np.sum(u * u)), u[-1])
        beta = np.sum(u * u)
        if beta > 0.0:
            v -= np.multiply.outer(_product(v, u) * (2.0 / beta), u)
        last = m - 1
        v[k, :last] = v[last, :last]
        self.rows[k] = self.rows[last]
        self.m = last

    def _basis(self) -> np.ndarray:
        if self.v is None:
            n = self.h_mat.shape[0]
            self.v = np.zeros((n, n))
            if self.m:
                self.v[:self.m, :self.m] = _inverse_transpose(self.factor.chol[0])
        return self.v


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, in row tiles of a that OpenBLAS runs on one thread each (see
    the module docstring); b has at most _BLOCK columns."""
    rows = max(1, min(_BLOCK, _TILE // max(a.shape[1], 1)))
    if a.shape[0] <= rows:
        return a @ b
    out = np.empty(a.shape[:1] + b.shape[1:])
    for r0 in range(0, a.shape[0], rows):
        np.matmul(a[r0:r0 + rows], b, out=out[r0:r0 + rows])
    return out


def _blocks(n: int):
    return [(k0, min(k0 + _BLOCK, n)) for k0 in range(0, n, _BLOCK)]


def _cholesky(a: np.ndarray, pivot_rtol: float):
    """Blocked left-looking Cholesky a = L L^T, with LAPACK on each diagonal
    leaf of the Schur complement.

    Returns the factor as the block rows of its two substitutions, with
    V_kk = L_kk^-T: forward row k is [-V_kk^T L_k,<k | V_kk^T], so that
    y_k = row [y_<k; r_k] solves L y = r, and back row k is
    [V_kk | -V_kk L_>k,k^T], so that x_k = row [y_k; x_>k] solves L^T x = y.
    Only the lower triangle of `a` is used. Raises `np.linalg.LinAlgError`
    at a pivot not above `pivot_rtol` times its diagonal entry of `a`.
    """
    n = a.shape[0]
    floor = pivot_rtol * np.abs(np.diagonal(a))
    low = np.zeros((n, n))
    fwd, back = [], []
    for k0, k1 in _blocks(n):
        b = k1 - k0
        # block column of the Schur complement left by the previous blocks
        col = a[k0:, k0:k1]
        if k0:
            col = col - _product(low[k0:, :k0], low[k0:k1, :k0].T)
        l_kk = np.linalg.cholesky(col[:b])
        # potrf refuses only pivots <= 0; a pivot is its diagonal entry squared
        if not np.all(np.diagonal(l_kk) ** 2 > floor[k0:k1]):
            raise np.linalg.LinAlgError(_NOT_PD)
        # an upper-triangular LU needs no pivoting, so this is back
        # substitution, exactly zero below the diagonal
        v_kk = np.linalg.inv(l_kk.T)
        low[k1:, k0:k1] = _product(col[b:], v_kk)
        row = np.empty((b, k1))
        row[:, :k0] = -_product(low[k0:k1, :k0].T, v_kk).T
        row[:, k0:] = v_kk.T
        fwd.append(row)
        row = np.empty((b, n - k0))
        row[:, :b] = v_kk
        row[:, b:] = -_product(low[k1:, k0:k1], v_kk.T).T
        back.append(row)
    return fwd, back


def _cholesky_solve(fwd: list, back: list, rhs: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 rhs, of one column or several, by blocked forward and back
    substitution with the block rows of `_cholesky`, one product each."""
    blocks = _blocks(rhs.shape[0])
    y = np.array(rhs, dtype=float)
    for (k0, k1), row in zip(blocks, fwd):
        y[k0:k1] = _product(row, y[:k1])
    for (k0, k1), row in zip(reversed(blocks), reversed(back)):
        y[k0:k1] = _product(row, y[k0:])
    return y


def _inverse_transpose(fwd: list) -> np.ndarray:
    """Upper-triangular V = L^-T, so that V^T (L L^T) V = I: by blocks,
    V22 = L22^-T and V12 = -V11 L21^T V22, where -L21^T V22 and V22 are the
    transposed parts of forward row k."""
    n = fwd[-1].shape[1]
    v = np.zeros((n, n))
    for (k0, k1), row in zip(_blocks(n), fwd):
        v[k0:k1, k0:k1] = row[:, k0:].T
        if k0:
            v[:k0, k0:k1] = _product(v[:k0, :k0], row[:, :k0].T)
    return v
