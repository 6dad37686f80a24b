"""Shared independent oracles and test tooling used by unit and acceptance tests.

Every oracle here is deliberately written from first principles (grid searches,
central differences) and must not call into the code paths it checks, beyond
plain data access.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fwnmpc
from fwnmpc import model as md
from fwnmpc import paths

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


def run_at_thread_count(code, *args, threads):
    """Run `code` (with `args` as its argv) in a new interpreter whose
    BLAS/OpenMP pools have `threads` threads, importing this checkout's
    package; return its stdout."""
    src = str(Path(fwnmpc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads),
                "MKL_NUM_THREADS": str(threads)})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         check=True, env=env, capture_output=True, text=True)
    return run.stdout
