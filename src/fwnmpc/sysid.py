"""Grey-box output-error identification on synthetic flight data.

Two decoupled model structures are estimated: the stabilized attitude
response (states phi/theta/p/q/r, with airspeed and flight path angle fed
from logged data) and the non-stabilized velocity-axis dynamics (states
v_a/gamma/delta_t, with attitude fed from logged data, body accelerations in
the output set). Estimation is Levenberg-Marquardt on channel-weighted
output residuals; static force/power curves are fit first by linear least
squares on quasi-static samples to seed the nonlinear estimate.

Both structures integrate the rate functions of `fwnmpc.model` (the
attitude rates; the force balance and the body accelerations) with its one
RK4 step, `md.rk4`, so one derivative and one integrator serve the plant,
the predictor and the identification structures. A batch of parameter
vectors (the finite-difference residual Jacobian, which carries its own base
column) steps `md.rk4` on numpy rows, all datasets of one sample interval in
one pass. A single vector (an estimator trial, a dataset's outputs, a
validation) steps each dataset through the structure's plain-float step,
generated from `md.rk4` over its rates. The cl residuals of both agree bit
for bit; the ol ones may differ in the last bit where the power curve's
`**` rounds apart. The estimator's reductions are fixed-order `einsum`s, so
a fit gives the same bytes at any BLAS thread count.

Each structure's facts (parameters, the `ModelParams` field that holds them,
input, initial-state and output channels, rates) live in one `STRUCTURES`
record, which the simulator, the estimator, validation and the CLI read.
Synthetic data come from one full-model flight loop (`_fly`), which also
serves the hold-out replay, and one builder, `make_dataset`, which swaps a
flight's outputs for the structure's own outputs at the true parameters.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from fwnmpc import model as md

CL_PARAM_NAMES = ("l_p", "l_r", "l_ephi", "m_0", "m_alpha", "m_q", "m_etheta",
                  "n_r", "n_phi", "n_phiref")
OL_PARAM_NAMES = ("c_t1", "c_t2", "c_t3", "tau_t", "c_d0", "c_dalpha",
                  "c_dalpha2", "c_l0", "c_lalpha", "c_lalpha2")

CL_INPUTS = ("phi_ref", "theta_ref", "v_a", "gamma")
CL_OUTPUTS = ("phi", "theta", "p", "q", "r")
OL_INPUTS = ("phi", "theta", "u_t")
OL_OUTPUTS = ("v_a", "gamma", "a_x", "a_z")
FULL_INPUTS = ("u_t", "phi_ref", "theta_ref")
FULL_OUTPUTS = ("phi", "theta", "p", "q", "r", "v_a", "gamma", "a_x", "a_z")

# validation-set error magnitudes used as default channel normalization
DEFAULT_CHANNEL_WEIGHTS = {
    "phi": np.radians(1.610), "theta": np.radians(0.921),
    "p": np.radians(5.140), "q": np.radians(3.390), "r": np.radians(2.650),
    "v_a": 0.424, "gamma": np.radians(1.680), "a_x": 0.217, "a_z": 0.660,
}


class SysidError(ValueError):
    """Estimation pipeline error."""


class RankDeficiencyError(SysidError):
    """The static-curve regression has insufficient excitation."""


@dataclass(frozen=True)
class ManeuverSpec:
    """Excitation maneuver description around a trim point."""

    kind: str = "dynamic_211"          # static | dynamic_211 | freeform
    v_a: float = 13.5                  # trim airspeed (m/s)
    gamma: float = 0.0                 # trim flight path angle (rad)
    channels: tuple = ("phi_ref",)     # stepped channels
    amplitude: dict | float = 0.2      # per-channel or shared step amplitude
    base_width: float = 1.0            # s, the "1" of the 2-1-1 pattern
    settle_time: float = 2.0           # s at trim before the steps
    duration: float = 14.0             # s total
    sample_rate: float = 40.0          # Hz

    def __post_init__(self):
        if self.kind not in ("static", "dynamic_211", "freeform"):
            raise ValueError(f"unknown maneuver kind {self.kind!r}")
        if self.sample_rate <= 0 or self.base_width <= 0 or self.duration <= 0:
            raise ValueError("maneuver timing parameters must be positive")
        for ch in self.channels:
            if ch not in ("u_t", "phi_ref", "theta_ref"):
                raise ValueError(f"unknown step channel {ch!r}")

    def amplitude_for(self, channel: str) -> float:
        if isinstance(self.amplitude, dict):
            return float(self.amplitude[channel])
        return float(self.amplitude)


@dataclass
class Dataset:
    """Uniformly sampled input/output records for one experiment, in increasing time."""

    structure: str                 # cl | ol | static | full
    t: np.ndarray
    inputs: dict
    outputs: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        dt = np.diff(self.t)
        if self.t.size < 2 or np.max(np.abs(dt - dt[0])) > 1e-9:
            raise ValueError("dataset must be uniformly sampled")
        if not np.all(dt > 0.0):
            raise ValueError("dataset time must increase")
        n = self.t.size
        for name, arr in {**self.inputs, **self.outputs}.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"channel {name!r} length mismatch")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass
class FitReport:
    """Estimation result with a Gauss-Newton covariance approximation."""

    structure: str
    param_names: tuple
    params: np.ndarray
    init_params: np.ndarray
    cost: float
    n_iter: int
    converged: bool
    message: str
    per_output_rmse: dict
    param_std: np.ndarray
    covariance: np.ndarray


# ---------------------------------------------------------------------------
# Maneuver generation.
# ---------------------------------------------------------------------------

def generate_211(spec: ManeuverSpec) -> tuple[np.ndarray, dict]:
    """Reference offsets for a 2-1-1 maneuver: alternating pulses of width
    2w, w, w with signs (+, -, +), after a settling period at trim."""
    n = int(round(spec.duration * spec.sample_rate)) + 1
    t = np.arange(n) / spec.sample_rate
    offsets = {}
    t0, w = spec.settle_time, spec.base_width
    for ch in spec.channels:
        amp = spec.amplitude_for(ch)
        series = np.zeros(n)
        series[(t >= t0) & (t < t0 + 2 * w)] = amp
        series[(t >= t0 + 2 * w) & (t < t0 + 3 * w)] = -amp
        series[(t >= t0 + 3 * w) & (t < t0 + 4 * w)] = amp
        offsets[ch] = series
    return t, offsets


def _freeform_offsets(spec: ManeuverSpec, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    """Smooth pseudo-random reference wandering for hold-out testing."""
    n = int(round(spec.duration * spec.sample_rate)) + 1
    t = np.arange(n) / spec.sample_rate
    offsets = {}
    for ch in spec.channels:
        amp = spec.amplitude_for(ch)
        series = np.zeros(n)
        for freq, phase, gain in zip(rng.uniform(0.05, 0.35, 4),
                                     rng.uniform(0, 2 * np.pi, 4),
                                     rng.uniform(0.3, 1.0, 4)):
            series += gain * np.sin(2 * np.pi * freq * t + phase)
        series *= amp / max(np.max(np.abs(series)), 1e-9)
        series[t < spec.settle_time] = 0.0
        offsets[ch] = series
    return t, offsets


# ---------------------------------------------------------------------------
# Structure simulators: one parameter vector through a generated float step,
# a batch of them over numpy columns.
# ---------------------------------------------------------------------------

def _as_param_matrix(params, names) -> np.ndarray:
    if isinstance(params, (md.ClosedLoopParams, md.OpenLoopParams)):
        vec = params.as_array()
    else:
        vec = np.asarray(params, dtype=float)
    if vec.ndim == 1:
        vec = vec[:, None]
    if vec.shape[0] != len(names):
        raise ValueError(f"expected {len(names)} parameters, got {vec.shape[0]}")
    return vec


def _squeeze(params) -> bool:
    if isinstance(params, (md.ClosedLoopParams, md.OpenLoopParams)):
        return True
    return np.asarray(params).ndim == 1


# samples averaged for the simulator initial condition; maneuvers start from
# a settled trim, so averaging the first 0.2 s suppresses measurement noise
# in the initial state without biasing it
INIT_AVG_SAMPLES = 8


def _initial_value(channel) -> float:
    arr = np.asarray(channel, dtype=float)
    return float(np.mean(arr[:min(INIT_AVG_SAMPLES, arr.size)]))


def _expand(arr: np.ndarray, b: int) -> np.ndarray:
    """Repeat dataset columns for each parameter column (dataset-major)."""
    return np.repeat(arr, b, axis=-1)


def _cl_rates(s, u, cl, consts, xp=np):
    phi, theta, p, q, r = s
    phi_ref, theta_ref, v_a, gamma = u
    return md.attitude_rates(phi, theta, p, q, r, v_a, gamma, phi_ref, theta_ref, cl, xp)


def _ol_rates(s, u, ol, consts, xp=np):
    v_a, gamma, delta_t = s
    phi, theta, u_t = u
    return md.force_balance(v_a, gamma, phi, theta, delta_t, u_t, ol, consts, xp)[:3]


class Structure(NamedTuple):
    """The facts of one identification structure."""

    param_names: tuple   # estimated parameters, in vector order
    params_field: str    # the `ModelParams` field that holds them
    inputs: tuple        # input channels, in the order the rates read them
    init: tuple          # channels whose first samples give the initial state
    outputs: tuple       # output channels, in the order the simulator returns them
    rates: Callable      # (state, inputs, params, constants, xp) -> tuple of state rates


STRUCTURES = {
    "cl": Structure(CL_PARAM_NAMES, "closed_loop", CL_INPUTS, CL_OUTPUTS, CL_OUTPUTS,
                    _cl_rates),
    "ol": Structure(OL_PARAM_NAMES, "open_loop", OL_INPUTS, ("v_a", "gamma", "u_t"),
                    OL_OUTPUTS, _ol_rates),
}


def _structure(structure: str) -> Structure:
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    return STRUCTURES[structure]


_CONSTANT_NAMES = tuple(f.name for f in fields(md.PhysicalConstants))


def _generate_step(name: str, st: Structure):
    """The plain-float `md.rk4` step `(c, x, u_left, u_mid, u_right, dt)` of a
    structure's rates, `c` its parameters in vector order, then the constants."""
    n, k = len(st.param_names), len(st.inputs)

    def body(c, x, u_left, u_mid, u_right, dt, xp):
        par = SimpleNamespace(**dict(zip(st.param_names, c)))
        consts = SimpleNamespace(**dict(zip(_CONSTANT_NAMES, c[n:])))
        return md.rk4(st.rates, x, u_left, u_mid, u_right, dt, par, consts, xp)

    return md.compile_float_step(body, f"<generated fwnmpc.sysid {name} step>",
                                 c=n + len(_CONSTANT_NAMES), x=len(st.init),
                                 u_left=k, u_mid=k, u_right=k)


_FLOAT_STEPS = {name: _generate_step(name, st) for name, st in STRUCTURES.items()}


def _ol_outputs(x: np.ndarray, theta: np.ndarray, ol, consts) -> np.ndarray:
    """The ol outputs of the state trajectory `x` under the pitch input
    `theta`: airspeed, flight path angle and the body accelerations."""
    v_a, gamma, delta_t = x
    a_x, a_z = md.specific_forces(v_a, theta - gamma, delta_t, ol, consts)
    return np.stack([v_a, gamma, a_x, a_z])


def _simulate(st: Structure, p: np.ndarray, group: list, h: float,
              consts: md.PhysicalConstants) -> np.ndarray:
    """State trajectories of one structure over datasets of one sample
    interval for every parameter column of `p` (P, B) at once:
    (S, T, D * B), with T the longest dataset's length and the columns
    dataset-major. `md.rk4` steps each interval on numpy rows, each input
    channel held at the interval's left, midpoint and right samples, which
    are expanded to the state columns as the loop reaches them.

    A shorter dataset's inputs are padded to T by holding its last sample.
    The integration is causal and every column is elementwise-independent,
    so a dataset's first `t.size` samples are bit-identical to its own pass;
    the padded tail is the caller's to discard."""
    b = p.shape[1]
    n = max(ds.t.size for ds in group)
    # the model's rate functions read parameters by field name, so each
    # field here is one row of parameter columns
    par = SimpleNamespace(**dict(zip(st.param_names, np.tile(p, (1, len(group))))))
    inputs = np.array([[np.pad(np.asarray(ds.inputs[name], dtype=float),
                               (0, n - ds.t.size), mode="edge")
                        for ds in group] for name in st.inputs]).transpose(0, 2, 1)
    x = np.empty((len(st.init), n, b * len(group)))
    x[:, 0] = state = _expand(np.array([[_initial_value({**ds.inputs, **ds.outputs}[name])
                                         for ds in group] for name in st.init]), b)
    u_right = _expand(inputs[:, 0], b)
    # unstable parameter trials may overflow; the estimator checks for
    # non-finite cost explicitly, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            u_left, u_right = u_right, _expand(inputs[:, k], b)
            state = md.rk4(st.rates, state, u_left, 0.5 * (u_left + u_right), u_right, h,
                           par, consts)
            x[:, k] = state
    return x


def _simulate_floats(structure: str, c: tuple, ds: Dataset) -> np.ndarray:
    """The state trajectory of one structure over one dataset through its
    generated step, `c` the step's coefficients: (S, T, 1). Where numpy
    would return inf or NaN, the step raises (`**` overflows, `math.cos` of
    inf, a division by zero, a non-finite state); the states from that
    sample on are NaN then."""
    st, step = STRUCTURES[structure], _FLOAT_STEPS[structure]
    inputs = np.array([np.asarray(ds.inputs[name], dtype=float) for name in st.inputs])
    left = inputs.T.tolist()
    mid = (0.5 * (inputs[:, :-1] + inputs[:, 1:])).T.tolist()
    h = ds.dt
    states = [[_initial_value({**ds.inputs, **ds.outputs}[name]) for name in st.init]]
    try:
        for u_left, u_mid, u_right in zip(left, mid, left[1:]):
            states.append(step(c, states[-1], u_left, u_mid, u_right, h))
    except (OverflowError, ZeroDivisionError, ValueError):
        states += [[math.nan] * len(st.init)] * (len(left) - len(states))
    return np.array(states).T[..., None]


def _simulate_datasets(structure: str, p: np.ndarray, datasets: list,
                       consts: md.PhysicalConstants) -> list:
    """Each dataset's (n_outputs, T_i, B) outputs for the parameter columns of
    `p`. A single column integrates each dataset on plain floats; a batch
    takes one `_simulate` pass over columns per sample interval. The ol body
    accelerations are formed per dataset, on its own samples, so the force
    stage's temporaries stay the size of one dataset."""
    st = _structure(structure)
    b = p.shape[1]
    if b == 1:
        par = SimpleNamespace(**dict(zip(st.param_names, p[:, 0].tolist())))
        c = (*p[:, 0].tolist(), *(getattr(consts, name) for name in _CONSTANT_NAMES))
        states = [_simulate_floats(structure, c, ds) for ds in datasets]
    else:
        par = SimpleNamespace(**dict(zip(st.param_names, p)))
        groups: dict = {}
        for i, ds in enumerate(datasets):
            groups.setdefault(round(ds.dt, 12), []).append(i)
        states = [None] * len(datasets)
        for h, idxs in groups.items():
            x = _simulate(st, p, [datasets[i] for i in idxs], h, consts)
            for j, i in enumerate(idxs):
                states[i] = x[:, :datasets[i].t.size, j * b:(j + 1) * b]
    if st.outputs == st.init:      # cl: the outputs are the states
        return states
    with np.errstate(over="ignore", invalid="ignore"):
        return [_ol_outputs(x, np.asarray(ds.inputs["theta"], dtype=float)[:, None], par,
                            consts) for x, ds in zip(states, datasets)]


def simulate_structure(structure: str, params, dataset: Dataset,
                       constants: md.PhysicalConstants | None = None) -> np.ndarray:
    """Simulate one structure over the dataset inputs.

    Returns the structure's outputs with shape (n_outputs, T) for a single
    parameter vector or (n_outputs, T, B) for a batch.
    """
    p = _as_param_matrix(params, _structure(structure).param_names)
    out = _simulate_datasets(structure, p, [dataset], constants or md.PhysicalConstants())[0]
    return out[:, :, 0] if _squeeze(params) else out


def _channel_weights(structure: str, weights: dict | None) -> np.ndarray:
    table = dict(DEFAULT_CHANNEL_WEIGHTS)
    if weights:
        table.update(weights)
    return np.array([table[name] for name in _structure(structure).outputs])


def residual_vector(structure: str, params, datasets: list, weights: dict | None = None,
                    constants: md.PhysicalConstants | None = None) -> np.ndarray:
    """Channel-normalized output residuals stacked over all datasets.

    Shape (n_res,) for a single parameter vector, (n_res, B) for a batch.
    A single vector integrates each dataset on plain floats. A batch
    integrates all datasets of one sample interval together in one padded
    pass over its columns, which is what keeps the finite-difference
    Jacobians cheap.
    """
    st = _structure(structure)
    w = _channel_weights(structure, weights)
    p = _as_param_matrix(params, st.param_names)
    sims = _simulate_datasets(structure, p, datasets, constants or md.PhysicalConstants())

    res = np.empty((sum(sim[..., 0].size for sim in sims), p.shape[1]))
    row = 0
    for ds, sim in zip(datasets, sims):
        meas = np.stack([np.asarray(ds.outputs[name], dtype=float)
                         for name in st.outputs])
        # this dataset's rows of `res`, viewed in the layout of `sim`
        block = res[row:row + sim[..., 0].size].reshape(sim.shape)
        np.subtract(sim, meas[:, :, None], out=block)
        block /= w[:, None, None]
        row += sim[..., 0].size
    return res[:, 0] if _squeeze(params) else res


def output_error_cost(structure: str, params, datasets: list, weights: dict | None = None,
                      constants: md.PhysicalConstants | None = None) -> float:
    """Weighted sum of squared output residuals over all samples."""
    r = residual_vector(structure, params, datasets, weights, constants)
    if r.ndim != 1:
        raise ValueError("output_error_cost expects a single parameter vector")
    return _sum_squares(r)


def _sum_squares(r: np.ndarray) -> float:
    """`r @ r` as an `einsum`: a fixed-order reduction, so its bits do not
    follow the BLAS thread count."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.einsum("i,i->", r, r))


# ---------------------------------------------------------------------------
# Static-curve initial fit.
# ---------------------------------------------------------------------------

RATE_THRESHOLD = float(np.radians(1.0))  # quasi-static body-rate gate (rad/s)
# the throttle lag cannot be observed statically; the static fit seeds it here
STATIC_TAU_T = 0.5


def fit_static_curves(datasets: list, constants: md.PhysicalConstants | None = None):
    """Linear least squares for the lift/drag quadratics and the cubic power
    polynomial from quasi-static samples.

    A sample is quasi-static when each body rate stays below RATE_THRESHOLD
    plus three times that channel's default noise sigma
    (`DEFAULT_CHANNEL_WEIGHTS`, which `add_output_noise` draws), so a sweep
    noised at the default sigmas keeps its held samples. The body
    accelerations of the model are linear in all nine force/power
    coefficients, so the model evaluated at each unit coefficient vector
    gives one regressor column of the joint least-squares system. The
    throttle lag is seeded with STATIC_TAU_T.

    Returns (OpenLoopParams initial guess, diagnostics dict with the
    acceleration residual norm in m/s^2). Raises RankDeficiencyError when
    the excitation cannot separate the coefficients (e.g. a single angle of
    attack).
    """
    consts = constants or md.PhysicalConstants()
    names = tuple(n for n in OL_PARAM_NAMES if n != "tau_t")
    unit = SimpleNamespace(**dict(zip(names, np.eye(len(names))[:, :, None])))
    rows, rhs = [], []
    n_total = n_kept = 0
    for ds in datasets:
        need = ("v_a", "gamma", "theta", "u_t", "a_x", "a_z", "p", "q", "r")
        chans = {**ds.inputs, **ds.outputs}
        missing = [c for c in need if c not in chans]
        if missing:
            raise SysidError(f"static dataset missing channels {missing}")
        chans = {c: np.asarray(chans[c], dtype=float) for c in need}
        quiet = np.all([np.abs(chans[c])
                        < RATE_THRESHOLD + 3.0 * DEFAULT_CHANNEL_WEIGHTS[c]
                        for c in ("p", "q", "r")], axis=0)
        n_total += quiet.size
        n_kept += int(np.count_nonzero(quiet))
        q = {c: chans[c][quiet] for c in need}
        a_x, a_z = md.specific_forces(q["v_a"], q["theta"] - q["gamma"], q["u_t"],
                                      unit, consts)
        rows += [a_x.T, a_z.T]
        rhs += [q["a_x"], q["a_z"]]
    if n_kept == 0:
        raise RankDeficiencyError("no quasi-static samples left after rate filtering")
    a_mat = np.concatenate(rows)
    b_vec = np.concatenate(rhs)
    if np.linalg.matrix_rank(a_mat, tol=1e-8) < 9:
        raise RankDeficiencyError("static excitation is rank deficient; vary "
                                  "airspeed, angle of attack, and throttle")
    coef, residuals, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    guess = md.OpenLoopParams(
        c_t1=coef[0], c_t2=coef[1], c_t3=coef[2], tau_t=STATIC_TAU_T,
        c_d0=max(coef[3], 1e-4), c_dalpha=coef[4], c_dalpha2=coef[5],
        c_l0=coef[6], c_lalpha=max(coef[7], 1e-3), c_lalpha2=coef[8])
    diag = {"n_samples": n_total, "n_quasi_static": n_kept,
            "residual_norm": float(np.sqrt(residuals[0])) if np.size(residuals) else 0.0}
    return guess, diag


# ---------------------------------------------------------------------------
# Levenberg-Marquardt estimation.
# ---------------------------------------------------------------------------

def estimate(structure: str, initial_params, datasets: list,
             weights: dict | None = None,
             constants: md.PhysicalConstants | None = None,
             max_iter: int = 200, grad_tol: float = 1e-8,
             step_tol: float = 1e-10) -> FitReport:
    """Minimize the output-error cost by Levenberg-Marquardt.

    Damping starts at 1e-3 with the usual divide-by-10 on success and
    multiply-by-10 on rejection. Terminates on gradient norm, step norm, or
    the iteration cap. The report carries a Gauss-Newton covariance so weakly
    identifiable directions are visible rather than hidden.
    """
    names = _structure(structure).param_names
    p = _as_param_matrix(initial_params, names)[:, 0].copy()
    init = p.copy()
    n_par = p.size

    def res(vec):
        return residual_vector(structure, vec, datasets, weights, constants)

    def jacobian(vec):
        # step small enough that forward-difference truncation stays below
        # the 1e-5 agreement bound against a central-difference oracle
        steps = np.maximum(5e-8 * np.abs(vec), 1e-10)
        # column 0 is the base point, so every difference is taken within
        # one batch on the column integrator (the float one may round apart)
        batch = np.repeat(vec[:, None], n_par + 1, axis=1)
        batch[np.arange(n_par), np.arange(1, n_par + 1)] += steps
        r_batch = residual_vector(structure, batch, datasets, weights, constants)
        # in place: the same operations as `(r_batch[:, 1:] - r_batch[:, :1])
        # / steps`, without two (n_res, n_par) temporaries
        jac = r_batch[:, 1:]
        jac -= r_batch[:, :1]
        jac /= steps[None, :]
        return jac

    def gram(jac):
        # `jac.T @ jac` as an `einsum`: a fixed-order reduction, so the fit's
        # bits do not follow the BLAS thread count
        return np.einsum("ij,ik->jk", jac, jac)

    r = res(p)
    cost = _sum_squares(r)
    if not np.isfinite(cost):
        return _failed_report(structure, names, p, init, cost, "non-finite initial cost")

    lam = 1e-3
    n_accepted = 0
    message = "max iterations reached"
    converged = False
    jac = jac_at = None
    for _ in range(max_iter):
        jac = None       # the last Jacobian goes before the next is formed
        jac, jac_at = jacobian(p), p
        grad = np.einsum("ij,i->j", jac, r)
        if np.linalg.norm(grad, np.inf) < grad_tol:
            converged = True
            message = "gradient tolerance reached"
            break
        h_mat = gram(jac)
        d_vec = np.maximum(np.diag(h_mat), 1e-12)
        accepted = False
        while lam <= 1e10:
            try:
                step = np.linalg.solve(h_mat + lam * np.diag(d_vec), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            r_try = res(p_try)
            cost_try = _sum_squares(r_try)
            if np.isfinite(cost_try) and cost_try < cost:
                p, r, cost = p_try, r_try, cost_try
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                n_accepted += 1
                break
            lam *= 10.0
        if not accepted:
            converged = True
            message = "no further decrease (damping limit)"
            break
        if np.linalg.norm(step) < step_tol:
            converged = True
            message = "step tolerance reached"
            break
    if not np.isfinite(cost):
        return _failed_report(structure, names, p, init, cost, "diverged")

    # an accepted last step (step tolerance or iteration cap) moved p away
    # from the point of the last Jacobian
    if jac_at is not p:
        jac = None
        jac = jacobian(p)
    dof = max(r.size - n_par, 1)
    sigma_sq = cost / dof
    h_mat = gram(jac)
    try:
        cov = sigma_sq * np.linalg.inv(h_mat)
    except np.linalg.LinAlgError:
        cov = sigma_sq * np.linalg.pinv(h_mat)
    std = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return FitReport(structure=structure, param_names=names, params=p,
                     init_params=init, cost=cost, n_iter=n_accepted,
                     converged=converged, message=message,
                     per_output_rmse=validate(structure, p, datasets, constants),
                     param_std=std, covariance=cov)


def _failed_report(structure, names, p, init, cost, message) -> FitReport:
    n = len(names)
    return FitReport(structure=structure, param_names=names, params=p,
                     init_params=init, cost=float(cost), n_iter=0, converged=False,
                     message=message, per_output_rmse={},
                     param_std=np.full(n, np.nan),
                     covariance=np.full((n, n), np.nan))


def validate(structure: str, params, datasets: list,
             constants: md.PhysicalConstants | None = None) -> dict:
    """Unweighted per-output RMSE over the given (held-out) datasets."""
    st = _structure(structure)
    p = _as_param_matrix(params, st.param_names)
    sims = _simulate_datasets(structure, p, datasets, constants or md.PhysicalConstants())
    sq_sum = {name: 0.0 for name in st.outputs}
    count = 0
    for ds, sim in zip(datasets, sims):
        count += ds.t.size
        for i, name in enumerate(st.outputs):
            err = sim[i, :, 0] - np.asarray(ds.outputs[name], dtype=float)
            sq_sum[name] += float(err @ err)
    return {name: float(np.sqrt(sq_sum[name] / count)) for name in st.outputs}


# ---------------------------------------------------------------------------
# Synthetic data generation.
# ---------------------------------------------------------------------------

def _fly(params: md.ModelParams, state: np.ndarray, controls: np.ndarray,
         h: float) -> dict:
    """Fly the full model from `state` under the (T, 3) control samples, each
    held for one step of `h`; returns the T samples of every state channel
    and of the body accelerations."""
    wind = md.WindVector()
    states = np.empty((controls.shape[0], md.STATE_DIM))
    states[0] = state
    for k in range(1, controls.shape[0]):
        states[k] = state = md.rk4_step_array(state, controls[k - 1], wind, params, h)
    a_x, a_z = md.body_accelerations_array(states.T, params.open_loop, params.constants)
    # one array per channel, so a dataset keeps only the channels it reads
    chans = {name: column.copy() for name, column in zip(md.STATE_NAMES, states.T)}
    return {**chans, "a_x": a_x, "a_z": a_z}


def _full_model_run(params: md.ModelParams, spec: ManeuverSpec,
                    rng: np.random.Generator | None = None):
    """Drive the full model with maneuver references; returns channel dict."""
    trim = md.solve_trim(params, spec.v_a, spec.gamma)
    if spec.kind == "freeform":
        t, offsets = _freeform_offsets(spec, rng or np.random.default_rng(0))
    else:
        t, offsets = generate_211(spec)
        if spec.kind == "static":
            offsets = {ch: np.zeros_like(t) for ch in offsets}
    zero = np.zeros(t.size)
    refs = {"u_t": np.clip(trim.u_t + offsets.get("u_t", zero), 0.0, 1.0),
            "phi_ref": offsets.get("phi_ref", zero),
            "theta_ref": trim.theta_ref + offsets.get("theta_ref", zero)}
    # FULL_INPUTS is the control vector order
    controls = np.column_stack([refs[name] for name in FULL_INPUTS])
    chans = _fly(params, trim.state().as_array(), controls, 1.0 / spec.sample_rate)
    return t, {**chans, **refs}


def _self_consistent(structure: str, params: md.ModelParams, t: np.ndarray,
                     chans: dict, meta: dict) -> Dataset:
    """Dataset of one structure whose inputs are taken from `chans` and whose
    outputs the structure simulator regenerates at the true parameters, so
    the estimation target is exactly representable. The outputs in `chans`
    only seed the initial state."""
    st = _structure(structure)
    ds = Dataset(structure=structure, t=t,
                 inputs={name: chans[name] for name in st.inputs},
                 outputs={name: chans[name] for name in st.outputs}, meta=meta)
    sim = simulate_structure(structure, getattr(params, st.params_field), ds,
                             params.constants)
    ds.outputs = dict(zip(st.outputs, sim))
    return ds


def make_dataset(structure: str, params: md.ModelParams, spec: ManeuverSpec,
                 rng: np.random.Generator | None = None) -> Dataset:
    """Structure dataset with self-consistent outputs around one maneuver.

    The inputs come from a full-model run (realistic trajectories); the
    outputs are regenerated by the structure simulator at the true
    parameters.
    """
    t, chans = _full_model_run(params, spec, rng)
    return _self_consistent(structure, params, t, chans, {"spec": spec})


def make_static_dataset(params: md.ModelParams, v_points=None, gamma_points=None,
                        hold_time: float = 1.0, sample_rate: float = 40.0) -> Dataset:
    """Quasi-static trim sweep across airspeed and flight path angle.

    Each grid point contributes a held segment at exact trim, so body rates
    are identically zero and the force curves are sampled cleanly.
    """
    v_points = v_points if v_points is not None else np.linspace(11.0, 18.0, 8)
    # steep descents at low speed need negative thrust; keep the grid feasible
    gamma_points = gamma_points if gamma_points is not None \
        else np.radians([-3.0, 0.0, 3.0, 6.0])
    per = int(round(hold_time * sample_rate))
    grid = [(v, gam, md.solve_trim(params, float(v), float(gam)))
            for v in v_points for gam in gamma_points]
    acc_x, acc_z = md.body_accelerations_array(
        np.stack([trim.state().as_array() for _, _, trim in grid], axis=1),
        params.open_loop, params.constants)
    held = dict(zip(("v_a", "gamma", "theta", "u_t"),
                    np.array([(v, gam, trim.theta, trim.u_t) for v, gam, trim in grid]).T))
    held.update(a_x=acc_x, a_z=acc_z)
    arrays = {k: np.repeat(v, per) for k, v in held.items()}
    n = per * len(grid)
    arrays.update({k: np.zeros(n) for k in ("p", "q", "r", "phi")})
    t = np.arange(n) / sample_rate
    inputs = {k: arrays[k] for k in ("theta", "u_t", "phi")}
    outputs = {k: arrays[k] for k in ("v_a", "gamma", "a_x", "a_z", "p", "q", "r")}
    return Dataset(structure="static", t=t, inputs=inputs, outputs=outputs)


def make_freeform_dataset(params: md.ModelParams, duration: float = 70.0,
                          seed: int = 0) -> Dataset:
    """Hold-out full-model run under smooth pseudo-random references."""
    spec = ManeuverSpec(kind="freeform", v_a=13.5, gamma=0.0,
                        channels=("u_t", "phi_ref", "theta_ref"),
                        amplitude={"u_t": 0.18, "phi_ref": np.radians(22.0),
                                   "theta_ref": np.radians(5.0)},
                        duration=duration, settle_time=1.0)
    t, chans = _full_model_run(params, spec, np.random.default_rng(seed))
    return Dataset(structure="full", t=t,
                   inputs={name: chans[name] for name in FULL_INPUTS},
                   outputs={name: chans[name] for name in FULL_OUTPUTS})


def add_output_noise(dataset: Dataset, sigmas: dict | None = None,
                     seed: int = 0) -> Dataset:
    """Additive Gaussian measurement noise on the output channels."""
    table = dict(DEFAULT_CHANNEL_WEIGHTS)
    if sigmas:
        table.update(sigmas)
    rng = np.random.default_rng(seed)
    noisy = {}
    for name, arr in dataset.outputs.items():
        sigma = table.get(name, 0.0)
        noisy[name] = np.asarray(arr, dtype=float) + sigma * rng.standard_normal(arr.shape)
    return Dataset(structure=dataset.structure, t=dataset.t.copy(),
                   inputs={k: np.asarray(v, dtype=float).copy()
                           for k, v in dataset.inputs.items()},
                   outputs=noisy, meta=dict(dataset.meta))


def perturb_params(params, fraction: float = 0.2, seed: int = 0):
    """Multiplicative uniform perturbation for estimator initialization."""
    vec = params.as_array() if hasattr(params, "as_array") else np.asarray(params, float)
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-fraction, fraction, vec.shape)
    return vec * factors


def standard_cl_specs() -> list:
    """Default attitude-response excitation suite across the speed envelope."""
    return [
        ManeuverSpec(v_a=12.0, channels=("phi_ref",), amplitude=np.radians(20.0),
                     duration=14.0),
        ManeuverSpec(v_a=13.5, channels=("theta_ref",), amplitude=np.radians(7.0),
                     duration=14.0),
        ManeuverSpec(v_a=16.0, channels=("phi_ref", "theta_ref"),
                     amplitude={"phi_ref": np.radians(15.0),
                                "theta_ref": np.radians(5.0)}, duration=14.0),
        ManeuverSpec(v_a=14.5, channels=("phi_ref",), amplitude=np.radians(18.0),
                     base_width=0.6, duration=12.0),
    ]


def standard_ol_specs() -> list:
    """Default velocity-axis excitation suite: throttle and pitch steps."""
    return [
        ManeuverSpec(v_a=12.0, channels=("u_t",), amplitude=0.28, duration=14.0),
        ManeuverSpec(v_a=13.5, channels=("theta_ref",), amplitude=np.radians(7.0),
                     duration=14.0),
        ManeuverSpec(v_a=16.0, channels=("u_t", "theta_ref"),
                     amplitude={"u_t": 0.3, "theta_ref": np.radians(5.0)},
                     duration=14.0),
        ManeuverSpec(v_a=13.5, gamma=np.radians(4.0), channels=("u_t",),
                     amplitude=0.3, duration=14.0),
    ]


def make_training_sets(params: md.ModelParams, structure: str) -> list:
    """Self-consistent synthetic training sets for one structure.

    The open-loop suite includes the quasi-static trim sweep, which carries
    most of the information about the force-curve shapes.
    """
    if structure == "cl":
        return [make_dataset("cl", params, spec) for spec in standard_cl_specs()]
    if structure == "ol":
        static = make_static_dataset(params, hold_time=0.25)
        return [make_dataset("ol", params, spec) for spec in standard_ol_specs()] + [
            _self_consistent("ol", params, static.t, {**static.inputs, **static.outputs},
                             {})]
    raise ValueError(f"unknown structure {structure!r}")


# a parameter counts as identifiable at the configured noise level when its
# Gauss-Newton relative standard error stays below this bound
IDENTIFIABLE_REL_STD = 0.025


def identifiable_mask(report: FitReport,
                      threshold: float = IDENTIFIABLE_REL_STD) -> np.ndarray:
    """Boolean mask of parameters whose confidence interval is tight enough
    to hold them to a recovery tolerance."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = report.param_std / np.abs(report.params)
    return np.isfinite(rel) & (rel <= threshold)


def open_loop_replay(params: md.ModelParams, dataset: Dataset) -> dict:
    """Replay the combined model over a full-channel dataset, feeding only
    references and throttle; per-channel RMSE against the recorded outputs."""
    if dataset.structure != "full":
        raise SysidError("replay requires a full-channel dataset")
    first = {name: dataset.outputs[name][0] for name in FULL_OUTPUTS}
    first["delta_t"] = dataset.inputs["u_t"][0]
    state = np.array([first.get(name, 0.0) for name in md.STATE_NAMES])
    controls = np.column_stack([dataset.inputs[name] for name in FULL_INPUTS])
    sim = _fly(params, state, controls, dataset.dt)
    rmse = {}
    for name in FULL_OUTPUTS:
        err = sim[name] - np.asarray(dataset.outputs[name], dtype=float)
        rmse[name] = float(np.sqrt(np.mean(err ** 2)))
    finite = all(np.all(np.isfinite(sim[name])) for name in FULL_OUTPUTS)
    return {"rmse": rmse, "bounded": finite and rmse["v_a"] < 5.0
            and rmse["phi"] < np.radians(30.0)}


# ---------------------------------------------------------------------------
# CSV round trip and report formatting.
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, path) -> None:
    """CSV with declared header: time plus input and output channel names."""
    in_names = sorted(dataset.inputs)
    out_names = sorted(dataset.outputs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"structure={dataset.structure}"])
        writer.writerow(["time"] + [f"in:{n}" for n in in_names]
                        + [f"out:{n}" for n in out_names])
        for i in range(dataset.t.size):
            row = [format(dataset.t[i], ".17g")]
            row += [format(float(dataset.inputs[n][i]), ".17g") for n in in_names]
            row += [format(float(dataset.outputs[n][i]), ".17g") for n in out_names]
            writer.writerow(row)


def load_dataset(path) -> Dataset:
    """Read a dataset written by `save_dataset`; malformed files raise SysidError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        tag = next(reader, [])
        if len(tag) != 1 or not tag[0].startswith("structure="):
            raise SysidError(f"{path}: missing structure tag line")
        structure = tag[0].split("=", 1)[1]
        header = next(reader, [])
        if not header or header[0] != "time":
            raise SysidError(f"{path}: first column must be time")
        rows = list(reader)
    if not rows:
        raise SysidError(f"{path}: no data rows")
    for line, row in enumerate(rows, start=3):
        if len(row) != len(header):
            raise SysidError(f"{path}: line {line} has {len(row)} fields, "
                             f"the header has {len(header)}")
    columns = {"in:": {}, "out:": {}}
    for j, name in enumerate(header[1:], start=1):
        prefix = "in:" if name.startswith("in:") else "out:"
        if not name.startswith(prefix):
            raise SysidError(f"{path}: channel {name!r} lacks in:/out: prefix")
        columns[prefix][name[len(prefix):]] = j
    try:
        data = np.array([[float(v) for v in row] for row in rows])
        return Dataset(structure=structure, t=data[:, 0],
                       inputs={n: data[:, j] for n, j in columns["in:"].items()},
                       outputs={n: data[:, j] for n, j in columns["out:"].items()})
    except ValueError as exc:
        raise SysidError(f"{path}: {exc}") from exc


def report_text(report: FitReport) -> str:
    """Structured text rendering of a fit report."""
    lines = [
        f"structure: {report.structure}",
        f"converged: {report.converged} ({report.message})",
        f"iterations: {report.n_iter}",
        f"cost: {report.cost:.6e}",
        "",
        f"{'parameter':<12} {'estimate':>14} {'initial':>14} {'std':>12} {'rel std':>9}",
    ]
    for i, name in enumerate(report.param_names):
        rel = report.param_std[i] / abs(report.params[i]) \
            if report.params[i] != 0 else float("inf")
        lines.append(f"{name:<12} {report.params[i]:>14.6g} "
                     f"{report.init_params[i]:>14.6g} {report.param_std[i]:>12.3g} "
                     f"{rel:>9.2%}")
    lines.append("")
    lines.append("validation RMSE per output:")
    for name, val in report.per_output_rmse.items():
        lines.append(f"  {name:<8} {val:.6g}")
    return "\n".join(lines) + "\n"
