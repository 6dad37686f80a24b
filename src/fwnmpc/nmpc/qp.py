"""Dense box-constrained QP by projected Newton on a blocked Cholesky factor.

Solves  min 0.5 x^T H x + g^T x  subject to  lb <= x <= ub  for symmetric
positive-definite H with the projected Newton method (Bertsekas 1982,
"Projected Newton methods for optimization problems with simple
constraints", SIAM J. Control Optim. 20(2)). The iteration starts at the
point of the box nearest zero. Each iteration after the first splits the
variables by the gradient: a variable on a bound that the gradient presses
it against (state * grad <= 0, with state -1 on the lower bound and +1 on
the upper) is binding and stays there, as does a fixed one (lb == ub);
every other variable is free, including one on a bound that the gradient
pulls it off. The step is the Newton step on the free set,
-H_FF^-1 grad_F. If x + step stays in the box it is taken as it is: on a
face, the Newton step of a quadratic is exact. Otherwise the step is
projected onto the box, x(alpha) = clip(x + alpha step), and alpha halves
from 1 until the decrease of the quadratic is at least 1e-4 of
-grad . (x(alpha) - x). One iteration can thus move any number of bounds,
and the loop ends when the KKT residual is within its tolerance. The
iteration is deterministic: it has no ties to break.

The free block H_FF is factored by a blocked Cholesky factorization, anew
only when the free set changes. The first iteration works on the starting
free set, whatever the gradient's signs at the starting bounds, and that set
depends on the box alone, so `prepare_box_qp` can factor it before the
gradient is known, and a solve given that factor starts with its
triangular solves. A caller that already holds the first Newton step
(`first_newton_step`, or an affine model of it in a parameter of g) passes
it in, and the first iteration skips even those: a step that stays in the
box then costs the solve one product with H and the KKT check.

The bits do not depend on the BLAS thread count. LAPACK `potrf`
(`np.linalg.cholesky`) and the inverse of the factor run on diagonal leaves
of at most 32 rows, and every other product is a numpy `@` over a tile of at
most 32 rows and 8192 entries of its left factor, with at most 32 columns
on the right. OpenBLAS runs a potrf below order 64, an LU of fewer than
10000 entries, a gemv of fewer than 9216 entries and a gemm of at most
262144 multiply-adds on the calling thread alone, so no call is split by
the thread count. Every other reduction is an `np.sum` of elementwise
products, so the iterates and the closed-loop CSVs keep their bits at any
BLAS thread-count setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FREE, _LOWER, _UPPER = 0, -1, 1

# Diagonal leaf of the factorization and row tile of the products; a tile
# also reads at most _TILE entries of its left factor (module docstring)
_BLOCK = 32
_TILE = 8192

# Projected search: the share of the first-order decrease that a step must
# achieve, and the halvings after which the iterate stays where it is
_SUFFICIENT = 1e-4
_MAX_HALVINGS = 50

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
    """Factor of the free block of H for one free set; `prepare_box_qp`
    makes the one of a solve's starting free set ahead of the solve."""

    free: np.ndarray          # indices of the free set
    chol: tuple | None        # `_cholesky` of H_FF, None if nothing is free

    def newton_step(self, grad: np.ndarray) -> np.ndarray:
        """-H_FF^-1 grad_F on the free set, zero elsewhere; a 2-D `grad`
        (n, k) is solved for its k columns at once."""
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
    _, state = _start(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
    return _factor_free(h_mat, np.flatnonzero(state == _FREE))


def first_newton_step(h_mat: np.ndarray, g_vec: np.ndarray, lb: np.ndarray,
                      ub: np.ndarray, factor: QpFactor) -> np.ndarray:
    """The Newton step that the first iteration of
    `solve_box_qp(h_mat, g_vec, lb, ub, factor=factor)` solves for, by the
    same computation, so that passing it back as `first_step` leaves every
    iterate's bits as they were."""
    x, _ = _start(np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
    return factor.newton_step(_product(np.asarray(h_mat, dtype=float), x) + g_vec)


def solve_box_qp(h_mat: np.ndarray, g_vec: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray, factor: QpFactor | None = None,
                 first_step: np.ndarray | None = None) -> QpResult:
    """Minimize a strictly convex quadratic over a box by projected Newton
    (module docstring); `n_active` counts the binding variables at the end.

    `factor`, from `prepare_box_qp` on the same `h_mat`, replaces the
    factorization of the starting free block; the iterates are the same to
    the bit. `first_step`, the first iteration's Newton step if known
    (`first_newton_step`, or an affine model of it), replaces that
    iteration's solve and must be zero off the starting free set; it is
    taken as given, so a first step that is not the Newton step is followed
    by a Newton step. Raises `ValueError` if the factor's free set is not
    this solve's starting free set, and `np.linalg.LinAlgError` if a free
    block of `h_mat` met during the iteration is not numerically positive
    definite.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    g_vec = np.asarray(g_vec, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = g_vec.shape[0]
    tol = 1e-10
    max_iter = 3 * n + 10

    x, state = _start(lb, ub)
    fixed = lb == ub
    start_free = np.flatnonzero(state == _FREE)
    if factor is None:
        factor = _factor_free(h_mat, start_free)
    elif not np.array_equal(factor.free, start_free):
        raise ValueError("the prepared factor's free set is not the solve's starting free set")

    grad = None
    for it in range(1, max_iter + 1):
        if it == 1 and first_step is not None:
            step = np.asarray(first_step, dtype=float)
        else:
            grad = _product(h_mat, x) + g_vec
            if it > 1:
                kkt = _kkt_residual(_violations(grad, state, fixed))
                if kkt <= tol:
                    return QpResult(x=x, status="optimal", n_iter=it,
                                    n_active=int(np.count_nonzero(_binding(grad, state, fixed))),
                                    kkt_residual=kkt)
                free = np.flatnonzero(~_binding(grad, state, fixed))
                if not np.array_equal(free, factor.free):
                    factor = _factor_free(h_mat, free)
            step = factor.newton_step(grad)

        full = x + step
        x_new = np.clip(full, lb, ub)
        if not np.array_equal(x_new, full):
            if grad is None:
                grad = _product(h_mat, x) + g_vec
            x_new = _projected_search(h_mat, grad, x, step, lb, ub, x_new)
        x = x_new
        state = _bound_state(x, lb, ub)

    grad = _product(h_mat, x) + g_vec
    return QpResult(x=x, status="iteration_limit", n_iter=max_iter,
                    n_active=int(np.count_nonzero(_binding(grad, state, fixed))),
                    kkt_residual=_kkt_residual(_violations(grad, state, fixed)))


def _projected_search(h_mat: np.ndarray, grad: np.ndarray, x: np.ndarray,
                      step: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                      x_new: np.ndarray) -> np.ndarray:
    """The first of x(alpha) = clip(x + alpha step), alpha = 1, 1/2, ...,
    starting from `x_new` = x(1), whose decrease of the quadratic is at least
    _SUFFICIENT of -grad . (x(alpha) - x); `x` itself if none of
    _MAX_HALVINGS is."""
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        dx = x_new - x
        slope = np.sum(grad * dx)
        if slope + 0.5 * np.sum(dx * _product(h_mat, dx)) <= _SUFFICIENT * slope:
            return x_new
        alpha *= 0.5
        x_new = np.clip(x + alpha * step, lb, ub)
    return x


def _binding(grad: np.ndarray, state: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Variables held on their bound: fixed, or on a bound that the gradient
    presses them against."""
    return fixed | ((state != _FREE) & (state * grad <= 0.0))


def _violations(grad: np.ndarray, state: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Per variable: |grad| if off its bounds; on a bound the multiplier's
    violation, -lambda (above zero where the multiplier has the wrong sign);
    zero if fixed."""
    viol = np.where(state == _FREE, np.abs(grad), state * grad)
    viol[fixed] = 0.0
    return viol


def _kkt_residual(viol: np.ndarray) -> float:
    """Max complementarity/stationarity violation of `_violations`; abs
    makes a zero +0.0."""
    return abs(float(np.maximum.reduce(viol, initial=0.0)))


def _bound_state(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Per variable: _LOWER or _UPPER on that bound, _FREE between them."""
    state = np.full(x.shape[0], _FREE, dtype=np.int8)
    state[x <= lb] = _LOWER
    state[x >= ub] = _UPPER
    return state


def _start(lb: np.ndarray, ub: np.ndarray):
    """The starting point, the point of the box nearest zero, and its bound
    state."""
    if (lb > ub).any():
        raise ValueError("inconsistent box bounds")
    x = np.clip(np.zeros(lb.shape[0]), lb, ub)
    return x, _bound_state(x, lb, ub)


def _factor_free(h_mat: np.ndarray, free: np.ndarray) -> QpFactor:
    """The factor of the free block H_FF of the free set `free`."""
    if not free.size:
        return QpFactor(free=free, chol=None)
    h_ff = h_mat if free.size == h_mat.shape[0] else h_mat[np.ix_(free, free)]
    # relative pivot floor: a free block below it is singular to working
    # precision
    return QpFactor(free=free, chol=_cholesky(h_ff, h_mat.shape[0] * np.finfo(float).eps))


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
