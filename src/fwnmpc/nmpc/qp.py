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
given that factor starts with its triangular solves. The first working-set
change turns the factor into a basis V of the free coordinates with
V^T H_FF V = I (V = L^-T), and every change updates V in O(n^2) instead of
solving from scratch (the Goldfarb-Idnani 1983 scheme, as in qpOASES): a
released bound borders V with one H-orthonormalized column; a blocked bound
is rotated into a single column of V by one Householder reflection, and
that column is dropped. The Newton step on the free set is then -V V^T grad.

All of this linear algebra uses numpy elementwise operations, `np.sum` and
`np.einsum` (which never calls BLAS unless asked to optimize), and no BLAS
or LAPACK call. Threaded BLAS/LAPACK kernels split their reductions by the
thread count, so their bits, and with them the iterates and the closed-loop
CSVs, would change with the BLAS thread-count setting; here the reduction
order is fixed by the code alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FREE, _LOWER, _UPPER = 0, -1, 1

# Row block of the factorization: the pivots inside a block are eliminated
# one at a time, everything else runs in block products.
_BLOCK = 32

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


def prepare_box_qp(h_mat: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> QpFactor:
    """Factor the free block of `h_mat` at the starting point of
    `solve_box_qp(h_mat, g, lb, ub)`, which depends on the box alone.

    Raises `np.linalg.LinAlgError` if that block is not numerically
    positive definite.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    _, state = _start(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float), None)
    return _factor_free(h_mat, np.flatnonzero(state == _FREE))


def solve_box_qp(h_mat: np.ndarray, g_vec: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray, x0: np.ndarray | None = None,
                 factor: QpFactor | None = None) -> QpResult:
    """Minimize a strictly convex quadratic over a box.

    `factor`, from `prepare_box_qp` on the same `h_mat`, replaces the
    factorization of the starting free block; the iterates are the same to
    the bit. Raises `ValueError` if its free set is not this solve's
    starting free set, and `np.linalg.LinAlgError` if a free block of
    `h_mat` met during the iteration is not numerically positive definite.
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

    for it in range(1, max_iter + 1):
        grad = _matvec(h_mat, x) + g_vec
        step = basis.newton_step(grad)

        if np.max(np.abs(step), initial=0.0) <= tol:
            # stationary on the working set: check bound multipliers
            lam = np.where(state == _LOWER, grad, np.where(state == _UPPER, -grad, np.inf))
            lam[fixed] = np.inf
            worst = np.flatnonzero(lam < -tol)
            if worst.size == 0:
                kkt = _kkt_residual(grad, state, fixed)
                return QpResult(x=x, status="optimal", n_iter=it,
                                n_active=int(np.count_nonzero(state != _FREE)), kkt_residual=kkt)
            state[worst[0]] = _FREE  # release lowest index (Bland)
            basis.add(worst[0])
            continue

        # ratio test toward the nearest blocking bound, scanning candidates
        # in index order
        free = state == _FREE
        up = free & (step > tol)
        down = free & (step < -tol)
        ratio = np.full(n, np.inf)
        ratio[up] = (ub[up] - x[up]) / step[up]
        ratio[down] = (lb[down] - x[down]) / step[down]
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
        x = np.clip(x, lb, ub)

    grad = _matvec(h_mat, x) + g_vec
    return QpResult(x=x, status="iteration_limit", n_iter=max_iter,
                    n_active=int(np.count_nonzero(state != _FREE)),
                    kkt_residual=_kkt_residual(grad, state, fixed))


def _kkt_residual(grad: np.ndarray, state: np.ndarray, fixed: np.ndarray) -> float:
    """Max complementarity/stationarity violation at the current point."""
    free_viol = np.where(state == _FREE, np.abs(grad), 0.0)
    lower_viol = np.where(state == _LOWER, np.maximum(-grad, 0.0), 0.0)
    upper_viol = np.where(state == _UPPER, np.maximum(grad, 0.0), 0.0)
    viol = np.maximum(free_viol, np.maximum(lower_viol, upper_viol))
    viol[fixed] = 0.0
    return float(np.max(viol, initial=0.0))


def _start(lb: np.ndarray, ub: np.ndarray, x0: np.ndarray | None):
    """Feasible starting point and working set: bounds the point sits on
    are active."""
    if np.any(lb > ub):
        raise ValueError("inconsistent box bounds")
    x = np.clip(np.zeros(lb.shape[0]) if x0 is None else np.asarray(x0, dtype=float), lb, ub)
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
        self.chol = factor.chol   # read only, so a prepared factor serves many solves
        self.v = None

    def newton_step(self, grad: np.ndarray) -> np.ndarray:
        """-H_FF^-1 grad_F on the free set, zero elsewhere."""
        step = np.zeros(grad.shape[0])
        m = self.m
        if m:
            rows = self.rows[:m]
            if self.v is None:
                step[rows] = -_cholesky_solve(*self.chol, grad[rows])
            else:
                v = self.v[:m, :m]
                step[rows] = -_matvec(v, np.einsum("ji,j->i", v, grad[rows]))
        return step

    def add(self, i: int) -> None:
        """Free variable i: border V with the H-orthonormalized unit vector e_i."""
        v_full = self._basis()
        m = self.m
        rows, v = self.rows[:m], v_full[:m, :m]
        coef = np.einsum("ji,j->i", v, self.h_mat[rows, i])
        h_ii = self.h_mat[i, i]
        pivot = h_ii - np.sum(coef * coef)
        if not pivot > self.pivot_rtol * abs(h_ii):
            raise np.linalg.LinAlgError(_NOT_PD)
        scale = 1.0 / math.sqrt(pivot)
        v_full[:m, m] = -scale * _matvec(v, coef)
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
            v -= np.multiply.outer(_matvec(v, u) * (2.0 / beta), u)
        last = m - 1
        v[k, :last] = v[last, :last]
        self.rows[k] = self.rows[last]
        self.m = last

    def _basis(self) -> np.ndarray:
        if self.v is None:
            n = self.h_mat.shape[0]
            self.v = np.zeros((n, n))
            if self.m:
                self.v[:self.m, :self.m] = _inverse_transpose(*self.chol)
        return self.v


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,j->i", a, x)


def _blocks(n: int):
    return [(k0, min(k0 + _BLOCK, n)) for k0 in range(0, n, _BLOCK)]


def _cholesky(a: np.ndarray, pivot_rtol: float):
    """Blocked left-looking Cholesky a = L L^T.

    Returns L, of which only the blocks below the diagonal blocks are
    filled, and the inverses of its diagonal blocks. Only the lower
    triangle of `a` is used.
    """
    n = a.shape[0]
    floor = (pivot_rtol * np.abs(np.diagonal(a))).tolist()
    low = np.zeros((n, n))
    inv_diag = []
    for k0, k1 in _blocks(n):
        # block column of the Schur complement left by the previous blocks
        col = a[k0:, k0:k1]
        if k0:
            col = col - np.einsum("ik,jk->ij", low[k0:, :k0], low[k0:k1, :k0])
        # the transpose puts the lower triangle where the kernel reads
        l_kk_inv = _pivot_block(col[:k1 - k0].T, floor[k0:k1])
        inv_diag.append(l_kk_inv)
        if k1 < n:
            low[k1:, k0:k1] = np.einsum("ik,jk->ij", col[k1 - k0:], l_kk_inv)
    return low, inv_diag


def _cholesky_solve(low: np.ndarray, inv_diag: list, rhs: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 rhs by blocked forward and back substitution."""
    n = rhs.shape[0]
    blocks = _blocks(n)
    y = np.empty_like(rhs)
    for (k0, k1), l_kk_inv in zip(blocks, inv_diag):
        r = rhs[k0:k1] - _matvec(low[k0:k1, :k0], y[:k0]) if k0 else rhs[k0:k1]
        y[k0:k1] = _matvec(l_kk_inv, r)
    for (k0, k1), l_kk_inv in reversed(list(zip(blocks, inv_diag))):
        r = y[k0:k1] - np.einsum("ji,j->i", low[k1:, k0:k1], y[k1:]) if k1 < n else y[k0:k1]
        y[k0:k1] = np.einsum("ji,j->i", l_kk_inv, r)
    return y


def _inverse_transpose(low: np.ndarray, inv_diag: list) -> np.ndarray:
    """Upper-triangular V = L^-T, so that V^T (L L^T) V = I: by blocks,
    V22 = L22^-T and V12 = -V11 L21^T V22."""
    n = low.shape[0]
    v = np.zeros((n, n))
    for (k0, k1), l_kk_inv in zip(_blocks(n), inv_diag):
        v[k0:k1, k0:k1] = l_kk_inv.T
        if k0:
            cross = np.einsum("ki,jk->ij", low[k0:k1, :k0], l_kk_inv)
            v[:k0, k0:k1] = -np.einsum("ik,kj->ij", v[:k0, :k0], cross)
    return v


def _pivot_block(s: np.ndarray, floor: list) -> np.ndarray:
    """Inverse L^-1 of the Cholesky factor of one diagonal block s = L L^T,
    reading the upper triangle of s.

    Eliminating [s | I] by rows, one scaled pivot at a time, turns s into
    L^T and I into L^-1.
    """
    b = s.shape[0]
    aug = np.zeros((b, 2 * b))
    aug[:, :b] = s
    aug[:, b:] = np.eye(b)
    for j in range(b):
        pivot = aug[j, j]
        if not pivot > floor[j]:
            raise np.linalg.LinAlgError(_NOT_PD)
        # row j of L^-1 is still zero from column b + j + 1 on
        row = aug[j, j:b + j + 1]
        row *= 1.0 / math.sqrt(pivot)
        aug[j + 1:, j + 1:b + j + 1] -= row[1:b - j, None] * row[1:]
    return aug[:, b:]
