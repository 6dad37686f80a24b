"""Control-augmented fixed-wing flight model.

The airframe is abstracted at the autopilot interface: attitude references
and throttle command go in; the stabilized attitude/rate response, the
open-loop velocity-axis dynamics, and 3DOF position kinematics in wind come
out. Each piece of the model (power curve, forces, force balance, attitude
rates, position kinematics) is written once, and `derivative` composes them
into one state derivative for the simulation plant, the NMPC prediction
model and the data generation of `fwnmpc.sysid`, whose two identification
structures integrate the same rate functions: on plain floats for one
parameter vector, over parameter columns for a batch.

The body is written once and evaluated in elementwise namespaces: under
`numpy` it broadcasts over state and parameter columns (finite-difference
batches); under `FLOATS` (`math` trig, a float maximum, `bool`) it runs on
plain floats, as the generated steps below do. Each expression
keeps the form that rounds the same in both (`v_a * v_a`, not `v_a ** 2`);
only the power curve's powers may round apart, libm's `pow` on a float
against numpy's loop on an array.

The RK4 step is written once, as `rk4` over a list of state rows: numpy
rows for state columns, floats or symbols for one state. The plant, the
horizon rollout and the sysid trials step single states through generated
code: `compile_float_step` evaluates a step body built on `rk4` once more in
a recording namespace whose values are symbols, and emits the record as one
straight-line function with the float operations and operand order of the
body under `FLOATS`, so it gives their bits. The model's step takes the wind
and parameter fields as arguments, so it serves every parameter set. An
operation the recorder does not know raises at generation; the source holds
only names the recorder made, literals from the body and its own messages.

Conventions: NED inertial axes (altitude is -d), all angles in radians,
angles stored wrapped to (-pi, pi].
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from types import ModuleType, SimpleNamespace

import numpy as np

TWO_PI = 2.0 * np.pi

# Guards for regimes where the model structure is undefined.
PROP_SPEED_FLOOR = 1.0   # m/s, minimum effective propeller free stream
COS_GAMMA_FLOOR = 0.05   # heading dynamics are singular in vertical flight

# State vector layout, shared by the plant, the predictor, and the estimators.
IDX_N, IDX_E, IDX_D = 0, 1, 2
IDX_VA, IDX_GAMMA, IDX_XI = 3, 4, 5
IDX_PHI, IDX_THETA = 6, 7
IDX_P, IDX_Q, IDX_R = 8, 9, 10
IDX_DELTA_T = 11
STATE_DIM = 12
ANGLE_STATES = (IDX_GAMMA, IDX_XI, IDX_PHI, IDX_THETA)

# Control vector layout.
IDX_U_T, IDX_PHI_REF, IDX_THETA_REF = 0, 1, 2
CONTROL_DIM = 3


class ModelDomainError(ValueError):
    """State left the domain where the model equations are valid."""


def wrap_angle(angle):
    """Wrap an angle (scalar or array) to the half-open interval (-pi, pi]."""
    wrapped = _wrap(np.asarray(angle, dtype=float))
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def _wrap(angle):
    """`wrap_angle` on a float, an array or a symbol of the recording namespace."""
    return math.pi - ((math.pi - angle) % TWO_PI)


@dataclass(frozen=True)
class AircraftState:
    """Full aircraft state.

    Attributes
    ----------
    n, e, d : float
        Inertial position, NED (m).
    v_a : float
        Airspeed (m/s), strictly positive in nominal flight.
    gamma : float
        Air-relative flight path angle (rad).
    xi : float
        Heading of the airspeed vector from North (rad).
    phi, theta : float
        Roll and pitch angles (rad).
    p, q, r : float
        Body rates (rad/s).
    delta_t : float
        Throttle lag state, dimensionless in [0, 1].
    """

    n: float = 0.0
    e: float = 0.0
    d: float = 0.0
    v_a: float = 13.5
    gamma: float = 0.0
    xi: float = 0.0
    phi: float = 0.0
    theta: float = 0.0
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    delta_t: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.n, self.e, self.d, self.v_a, self.gamma, self.xi,
             self.phi, self.theta, self.p, self.q, self.r, self.delta_t])

    @classmethod
    def from_array(cls, x: np.ndarray) -> "AircraftState":
        x = np.asarray(x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"expected state vector of shape ({STATE_DIM},), got {x.shape}")
        return cls(*[float(v) for v in x])

    @property
    def position(self) -> np.ndarray:
        return np.array([self.n, self.e, self.d])

    def wrapped(self) -> "AircraftState":
        """Copy with all stored angles wrapped to (-pi, pi]."""
        return replace(self, gamma=wrap_angle(self.gamma), xi=wrap_angle(self.xi),
                       phi=wrap_angle(self.phi), theta=wrap_angle(self.theta))


# channel name of each state vector entry, in state vector order
STATE_NAMES = tuple(f.name for f in fields(AircraftState))


@dataclass(frozen=True)
class ControlInput:
    """Autopilot-level control: throttle plus attitude references."""

    u_t: float = 0.0        # throttle input, dimensionless [0, 1]
    phi_ref: float = 0.0    # roll reference (rad)
    theta_ref: float = 0.0  # pitch reference (rad)

    def as_array(self) -> np.ndarray:
        return np.array([self.u_t, self.phi_ref, self.theta_ref])

    @classmethod
    def from_array(cls, u: np.ndarray) -> "ControlInput":
        u = np.asarray(u, dtype=float)
        if u.shape != (CONTROL_DIM,):
            raise ValueError(f"expected control vector of shape ({CONTROL_DIM},), got {u.shape}")
        return cls(float(u[0]), float(u[1]), float(u[2]))


@dataclass(frozen=True)
class WindVector:
    """Inertial wind, modeled as a static disturbance over one horizon."""

    w_n: float = 0.0
    w_e: float = 0.0
    w_d: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.w_n, self.w_e, self.w_d])


@dataclass(frozen=True)
class ClosedLoopParams:
    """Coefficients of the stabilized attitude/rate response.

    The attitude error gains must be positive (stabilizing sign); the
    pitch-rate row scales with airspeed squared.
    """

    l_p: float = -7.2
    l_r: float = 0.8
    l_ephi: float = 16.0
    m_0: float = 0.002
    m_alpha: float = -0.01
    m_q: float = -0.035
    m_etheta: float = 0.15
    n_r: float = -2.0
    n_phi: float = 0.8
    n_phiref: float = 0.65

    def __post_init__(self):
        if self.l_ephi <= 0.0 or self.m_etheta <= 0.0:
            raise ValueError("attitude error gains l_ephi and m_etheta must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.l_p, self.l_r, self.l_ephi, self.m_0, self.m_alpha,
                         self.m_q, self.m_etheta, self.n_r, self.n_phi, self.n_phiref])

    @classmethod
    def from_array(cls, v) -> "ClosedLoopParams":
        return cls(*[float(x) for x in v])


@dataclass(frozen=True)
class OpenLoopParams:
    """Throttle, drag, and lift coefficients of the non-stabilized dynamics.

    Thrust is modeled as a cubic power polynomial in the lagged throttle
    state divided by the effective propeller free stream; lift and drag are
    quadratic polynomials in angle of attack scaled by dynamic pressure.
    """

    c_t1: float = 40.0     # W per unit throttle state
    c_t2: float = 45.0     # W per unit throttle state squared
    c_t3: float = 65.0     # W per unit throttle state cubed
    tau_t: float = 0.4     # throttle lag time constant (s)
    c_d0: float = 0.035
    c_dalpha: float = 0.22
    c_dalpha2: float = 1.6
    c_l0: float = 0.40
    c_lalpha: float = 4.5
    c_lalpha2: float = 0.5

    def __post_init__(self):
        if self.tau_t <= 0.0:
            raise ValueError("throttle lag time constant tau_t must be > 0")
        if self.c_d0 <= 0.0:
            raise ValueError("parasitic drag c_d0 must be > 0")
        if self.c_lalpha <= 0.0:
            raise ValueError("lift slope c_lalpha must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.c_t1, self.c_t2, self.c_t3, self.tau_t,
                         self.c_d0, self.c_dalpha, self.c_dalpha2,
                         self.c_l0, self.c_lalpha, self.c_lalpha2])

    @classmethod
    def from_array(cls, v) -> "OpenLoopParams":
        return cls(*[float(x) for x in v])


@dataclass(frozen=True)
class PhysicalConstants:
    """Airframe mass/geometry constants and ambient air density.

    Defaults describe the nominal 2.65 kg, 2.6 m span test airframe at
    sea-level standard density.
    """

    m: float = 2.65        # kg
    g: float = 9.81        # m/s^2
    s_wing: float = 0.39   # m^2
    rho_air: float = 1.225  # kg/m^3

    def __post_init__(self):
        for name in ("m", "g", "s_wing", "rho_air"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"physical constant {name} must be > 0")


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter set: closed-loop, open-loop, and physical constants."""

    closed_loop: ClosedLoopParams = field(default_factory=ClosedLoopParams)
    open_loop: OpenLoopParams = field(default_factory=OpenLoopParams)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)


def default_params() -> ModelParams:
    """Documented nominal parameter set for the 2.65 kg test airframe.

    Chosen so that (a) the static lift/drag/power curves have the expected
    qualitative shapes, (b) a level trim at 13.5 m/s exists with throttle in
    (0.3, 0.7) and angle of attack in (0 deg, 5 deg), and (c) the stabilized
    attitude response settles a 10 deg step in under 2 s.
    """
    return ModelParams()


# ---------------------------------------------------------------------------
# One body of rate expressions. Every function below takes an elementwise
# namespace `xp`: `numpy` (the default) broadcasts over state quantities and
# over parameter fields, which are read by name and may be floats or arrays
# over columns; `FLOATS` evaluates the same expressions on plain floats.
# ---------------------------------------------------------------------------

def _float_maximum(a, b):
    """The larger of two floats; a NaN `a` stays NaN, as under `np.maximum`."""
    return b if a < b else a


# The plain-float namespace: `math` trig, a float maximum for the propeller
# floor and `bool` for the domain test. One state evaluates an order of
# magnitude faster on plain floats than as a one-column array. A module
# object, since its attribute reads are the fastest the interpreter has.
FLOATS = ModuleType("FLOATS")
vars(FLOATS).update(cos=math.cos, sin=math.sin, maximum=_float_maximum, any=bool)


def power_curve(delta_t, ol: OpenLoopParams):
    """Motor power polynomial in the lagged throttle state (W)."""
    return ol.c_t1 * delta_t + ol.c_t2 * delta_t ** 2 + ol.c_t3 * delta_t ** 3


def forces_array(v_a, alpha, delta_t, ol: OpenLoopParams, consts: PhysicalConstants,
                 xp=np):
    """Thrust, drag, and lift (N) at airspeed, angle of attack and throttle state.

    The propeller free stream v_a*cos(alpha) is floored at PROP_SPEED_FLOOR.
    Under `numpy` the inputs enter as float arrays, so a numpy scalar's
    powers take the array loop's bits, not libm's.
    """
    if xp is np:
        v_a = np.asarray(v_a, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        delta_t = np.asarray(delta_t, dtype=float)
    thrust = power_curve(delta_t, ol) / xp.maximum(v_a * xp.cos(alpha), PROP_SPEED_FLOOR)
    qbar_s = 0.5 * consts.rho_air * v_a * v_a * consts.s_wing
    drag = qbar_s * (ol.c_d0 + ol.c_dalpha * alpha + ol.c_dalpha2 * alpha * alpha)
    lift = qbar_s * (ol.c_l0 + ol.c_lalpha * alpha + ol.c_lalpha2 * alpha * alpha)
    return thrust, drag, lift


def attitude_rates(phi, theta, p, q, r, v_a, gamma, phi_ref, theta_ref, cl, xp=np):
    """Rates of (phi, theta, p, q, r) for the stabilized attitude response.

    `cl` is read by field name only, so a `ClosedLoopParams` or any object
    whose fields are arrays over parameter columns both serve.
    """
    alpha = theta - gamma
    return (p,
            q * xp.cos(phi) - r * xp.sin(phi),
            cl.l_p * p + cl.l_r * r + cl.l_ephi * (phi_ref - phi),
            v_a * v_a * (cl.m_0 + cl.m_alpha * alpha + cl.m_q * q
                         + cl.m_etheta * (theta_ref - theta)),
            cl.n_r * r + cl.n_phi * phi + cl.n_phiref * phi_ref)


def force_balance(v_a, gamma, phi, theta, delta_t, u_t, ol, consts: PhysicalConstants,
                  xp=np):
    """Rates of (v_a, gamma, delta_t) and the normal force (N).

    The normal force, thrust plus lift perpendicular to the airspeed vector
    in the symmetry plane, also turns the heading (see `derivative`).
    `ol` is read by field name only, like `cl` in `attitude_rates`.
    """
    alpha = theta - gamma
    thrust, drag, lift = forces_array(v_a, alpha, delta_t, ol, consts, xp)
    m, g = consts.m, consts.g
    normal_force = thrust * xp.sin(alpha) + lift
    v_a_dot = (thrust * xp.cos(alpha) - drag) / m - g * xp.sin(gamma)
    gamma_dot = (normal_force * xp.cos(phi) - m * g * xp.cos(gamma)) / (m * v_a)
    delta_t_dot = (u_t - delta_t) / ol.tau_t
    return v_a_dot, gamma_dot, delta_t_dot, normal_force


def specific_forces(v_a, alpha, delta_t, ol, consts: PhysicalConstants):
    """x-body and z-body specific accelerations (m/s^2).

    Note the rotation's (2,2) entry is -cos(alpha): positive lift maps to
    negative a_z in the down-positive body axis.
    """
    thrust, drag, lift = forces_array(v_a, alpha, delta_t, ol, consts)
    cos_alpha, sin_alpha = np.cos(alpha), np.sin(alpha)
    f_xv = (thrust * cos_alpha - drag) / consts.m
    f_zv = (thrust * sin_alpha + lift) / consts.m
    a_x = cos_alpha * f_xv + sin_alpha * f_zv
    a_z = sin_alpha * f_xv - cos_alpha * f_zv
    return a_x, a_z


def kinematics(x, wind: WindVector, xp=np):
    """Position rates (n_dot, e_dot, d_dot) in wind."""
    v_a, gamma, xi = x[IDX_VA], x[IDX_GAMMA], x[IDX_XI]
    cos_gamma = xp.cos(gamma)
    return (v_a * cos_gamma * xp.cos(xi) + wind.w_n,
            v_a * cos_gamma * xp.sin(xi) + wind.w_e,
            -v_a * xp.sin(gamma) + wind.w_d)


def kinematics_array(x, wind: WindVector):
    """Position rates [n_dot, e_dot, d_dot] in wind, stacked as one array."""
    return np.stack(np.broadcast_arrays(*kinematics(x, wind)))


def body_accelerations_array(x, ol: OpenLoopParams, consts: PhysicalConstants):
    """`specific_forces` at state columns of shape (12,) or (12, B)."""
    return specific_forces(x[IDX_VA], x[IDX_THETA] - x[IDX_GAMMA], x[IDX_DELTA_T],
                           ol, consts)


def derivative(x, u, wind: WindVector, params: ModelParams, xp=np) -> tuple:
    """The state derivative as a tuple of the 12 rates, in state order.

    `x` and `u` are indexed by the state and control layouts: float lists
    under `FLOATS`, arrays (one entry or one row of columns each) under
    `numpy`. The plant, the predictor and the data generation all use it.
    """
    v_a, gamma, phi, theta = x[IDX_VA], x[IDX_GAMMA], x[IDX_PHI], x[IDX_THETA]
    cos_gamma = xp.cos(gamma)
    if xp.any(abs(cos_gamma) < COS_GAMMA_FLOOR):
        raise ModelDomainError("flight path angle too close to vertical for heading dynamics")
    consts = params.constants
    v_a_dot, gamma_dot, delta_t_dot, normal_force = force_balance(
        v_a, gamma, phi, theta, x[IDX_DELTA_T], u[IDX_U_T], params.open_loop, consts, xp)
    return (*kinematics(x, wind, xp), v_a_dot, gamma_dot,
            xp.sin(phi) * normal_force / (consts.m * v_a * cos_gamma),
            *attitude_rates(phi, theta, x[IDX_P], x[IDX_Q], x[IDX_R], v_a, gamma,
                            u[IDX_PHI_REF], u[IDX_THETA_REF], params.closed_loop, xp),
            delta_t_dot)


# ---------------------------------------------------------------------------
# Integration: the one RK4 step, and the plain-float steps generated from it.
# A step body is evaluated once on symbols in a recording namespace, and the
# record is emitted as one straight-line function of float lists and dt.
# ---------------------------------------------------------------------------

def rk4(rates, x, u_left, u_mid, u_right, h, *args) -> list:
    """One classical RK4 step of `rates(state, inputs, *args)` from the state
    rows `x` (floats, numpy rows or symbols), with the inputs at the
    interval's left end, midpoint and right end; the plant and the predictor
    pass one control three times. The stage sums keep one operand order,
    `x + (0.5 h) k` and `x + (h / 6) (((k1 + 2 k2) + 2 k3) + k4)`, so every
    form gives the bits of the others wherever the rates do."""
    half = 0.5 * h
    k1 = rates(x, u_left, *args)
    k2 = rates([s + half * k for s, k in zip(x, k1)], u_mid, *args)
    k3 = rates([s + half * k for s, k in zip(x, k2)], u_mid, *args)
    k4 = rates([s + h * k for s, k in zip(x, k3)], u_right, *args)
    sixth = h / 6.0
    return [s + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
            for s, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _rk4_wrapped(rates, x, u, dt, wind, params, xp=np) -> list:
    """One `rk4` step of the state `rates` under one control, angles wrapped."""
    y = rk4(rates, x, u, u, u, dt, wind, params, xp)
    for i in ANGLE_STATES:
        y[i] = _wrap(y[i])
    return y


def _binary(op: str):
    """The operator `op` and its reflection on symbols, operands in order."""
    fmt = f"({{}} {op} {{}})"
    return (lambda a, b: a.rec.record(fmt, a, b)), (lambda a, b: a.rec.record(fmt, b, a))


class _Symbol:
    """A value of the recording namespace: one node of its record. An
    operation the recorder does not know raises, so a body that uses one
    cannot be traced into a step that computes something else."""

    __slots__ = ("rec", "node")
    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")
    __mod__, __rmod__ = _binary("%")
    __pow__, __rpow__ = _binary("**")

    def __init__(self, rec: "_Recorder", node: int):
        self.rec, self.node = rec, node

    def __neg__(self):
        return self.rec.record("(-{})", self)

    def __abs__(self):
        return self.rec.record("abs({})", self)

    def __lt__(self, other):
        return self.rec.record("({} < {})", self, other)

    def _unknown(self, *args):
        raise TypeError("the recording namespace has no such operation")

    __eq__ = __ne__ = __le__ = __gt__ = __ge__ = __bool__ = __float__ = __index__ = _unknown
    __array_ufunc__ = None     # numpy hands its operators back to the symbol


def _literal(value) -> str:
    """Source text of a constant of the body: a finite float or int, whose
    `repr` reads back as the same number."""
    if type(value) not in (float, int) or not math.isfinite(value):
        raise TypeError(f"the recorder cannot emit the constant {value!r}")
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _Recorder:
    """The recording namespace. Each operation on its symbols appends a node,
    a format and its operands (node numbers or literal text), unless the
    same node is already recorded, so an expression the body repeats is one
    node. Each `any` appends a guard, which is true only at `raise_at`."""

    def __init__(self, raise_at: int | None = None):
        self.nodes: list[tuple] = []
        self.known: dict[tuple, int] = {}
        self.guards: list[int] = []
        self.raise_at = raise_at

    def record(self, fmt: str, *args) -> _Symbol:
        key = (fmt, tuple(a.node if isinstance(a, _Symbol) else _literal(a) for a in args))
        if key not in self.known:
            self.known[key] = len(self.nodes)
            self.nodes.append(key)
        return _Symbol(self, self.known[key])

    def cos(self, a):
        return self.record("cos({})", a)

    def sin(self, a):
        return self.record("sin({})", a)

    def maximum(self, a, b):
        return self.record("({} if {} < {} else {})", b, a, b, a)   # `_float_maximum`

    def any(self, condition: _Symbol) -> bool:
        self.guards.append(len(self.nodes))
        self.nodes.append(("guard", (condition.node,)))
        return len(self.guards) - 1 == self.raise_at

    def __getattr__(self, name):
        raise TypeError(f"the recording namespace has no `{name}`")


def _trace(body, sizes: dict, raise_at: int | None = None):
    """The recorder after `body` on the symbols `{name}0..` of each entry of
    `sizes` and `dt`, and the nodes of its results."""
    rec = _Recorder(raise_at)
    args = [[rec.record(f"{name}{i}") for i in range(n)] for name, n in sizes.items()]
    return rec, [y.node for y in body(*args, rec.record("dt"), rec)]


def compile_float_step(body, filename: str, **sizes: int):
    """Compile `body(*lists, dt, xp) -> list` into the plain-float function
    `step(*lists, dt) -> list`, the list arguments named and sized by `sizes`.

    A node of the record used once is inlined into its user unless a guard
    lies between them, a node used more often or a result gets a name, and
    a node no result or guard reads is dropped. Each guard's message comes
    from tracing the body again with that guard true. The step refuses
    dt <= 0 and raises ModelDomainError on a non-finite result. Its source
    is registered in `linecache` under `filename`, for tracebacks and `pdb`.
    """
    rec, results = _trace(body, sizes)
    messages = {}
    for k, node in enumerate(rec.guards):
        try:
            _trace(body, sizes, raise_at=k)
        except ModelDomainError as exc:
            messages[node] = str(exc)
        else:
            raise TypeError("a guard of the body raises no ModelDomainError")
    n = len(rec.nodes)
    live, uses, user = [False] * n, [0] * n, [n] * n
    for k in (*results, *rec.guards):
        live[k] = True
    for k in reversed(range(n)):
        for a in rec.nodes[k][1] if live[k] else ():
            if isinstance(a, int):
                live[a] = True
                uses[a] += 1
                user[a] = k
    for k in results:
        uses[k] += 2     # read by the finite check and the return, so named
    segment = [sum(g < k for g in rec.guards) for k in range(n + 1)]

    lines = [f"{', '.join(f'{name}{i}' for i in range(size))}, = {name}"
             for name, size in sizes.items()]
    lines += ["if dt <= 0.0:", "    raise ValueError('integration step dt must be > 0')"]
    text = {}
    for k, (fmt, args) in enumerate(rec.nodes):
        if k in messages:
            lines += [f"if {text[args[0]]}:", f"    raise ModelDomainError({messages[k]!r})"]
        elif uses[k]:
            src = fmt.format(*(text[a] if isinstance(a, int) else a for a in args))
            if src.isidentifier() or (uses[k] == 1 and segment[k] == segment[user[k]]):
                text[k] = src
            else:
                text[k] = f"t{k}"
                lines.append(f"t{k} = {src}")
    y = [text[k] for k in results]
    lines.append(f"if not ({' and '.join(f'isfinite({v})' for v in y)}):")
    lines.append("    raise ModelDomainError('non-finite state after integration step')")
    lines.append(f"return [{', '.join(y)}]")
    source = f"def step({', '.join(sizes)}, dt):\n" + "".join(f"    {line}\n" for line in lines)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"cos": math.cos, "sin": math.sin, "isfinite": math.isfinite,
                 "ModelDomainError": ModelDomainError}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["step"]


_STEP_GROUPS = ((None, WindVector), ("closed_loop", ClosedLoopParams),
                ("open_loop", OpenLoopParams), ("constants", PhysicalConstants))
_WIND_COEFFICIENTS = attrgetter(*(f.name for f in fields(WindVector)))
_PARAM_COEFFICIENTS = attrgetter(*(f"{group}.{f.name}" for group, cls in _STEP_GROUPS[1:]
                                   for f in fields(cls)))
_N_COEFFICIENTS = sum(len(fields(cls)) for _, cls in _STEP_GROUPS)


def _generate_rk4_floats(rates=derivative):
    """The plain-float step `(c, x, u, dt) -> list` of `_rk4_wrapped` over
    the state `rates`. It takes the wind and parameter fields as one tuple
    `c`, in `_STEP_GROUPS` order, so one function serves every set."""
    def body(c, x, u, dt, xp):
        c = iter(c)
        groups = {group: SimpleNamespace(**{f.name: next(c) for f in fields(cls)})
                  for group, cls in _STEP_GROUPS}
        return _rk4_wrapped(rates, x, u, dt, groups.pop(None), SimpleNamespace(**groups), xp)

    return compile_float_step(body, "<generated fwnmpc.model rk4_step>",
                              c=_N_COEFFICIENTS, x=STATE_DIM, u=CONTROL_DIM)


_RK4_FLOATS = _generate_rk4_floats()


def float_step(wind: WindVector, params: ModelParams):
    """One RK4 step of a single state held as a list of floats, with `wind`
    and `params` bound: `step(x, u, dt)`, `u` a sequence of three; the step
    generated from `rk4` over `derivative`, for a loop that steps many
    states under one wind and parameter set."""
    return partial(_RK4_FLOATS, _WIND_COEFFICIENTS(wind) + _PARAM_COEFFICIENTS(params))


def rk4_step_array(x, u, wind: WindVector, params: ModelParams, dt: float):
    """One `rk4` step of `derivative` with the post-step angle wrap.

    A single state of shape (12,) runs through `float_step`; state
    columns of shape (12, B) step as numpy rows.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim == 1:
        return np.array(float_step(wind, params)(x.tolist(), u.tolist(), dt))
    if dt <= 0.0:
        raise ValueError("integration step dt must be > 0")
    x_next = np.array(_rk4_wrapped(derivative, x, u, dt, wind, params))
    if not np.all(np.isfinite(x_next)):
        raise ModelDomainError("non-finite state after integration step")
    return x_next


# ---------------------------------------------------------------------------
# Trim.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrimPoint:
    """Steady wings-level flight condition at fixed airspeed and path angle."""

    v_a: float
    gamma: float
    alpha: float
    delta_t: float
    theta: float
    theta_ref: float
    u_t: float
    phi: float = 0.0

    def state(self, n: float = 0.0, e: float = 0.0, d: float = 0.0,
              xi: float = 0.0) -> AircraftState:
        return AircraftState(n=n, e=e, d=d, v_a=self.v_a, gamma=self.gamma, xi=xi,
                             phi=self.phi, theta=self.theta, p=0.0, q=0.0, r=0.0,
                             delta_t=self.delta_t)

    def control(self) -> ControlInput:
        return ControlInput(u_t=self.u_t, phi_ref=0.0, theta_ref=self.theta_ref)


def solve_trim(params: ModelParams, v_a: float, gamma: float = 0.0,
               tol: float = 1e-12, max_iter: int = 60) -> TrimPoint:
    """Solve the wings-level force balance for (alpha, delta_t) by Newton iteration.

    Raises ModelDomainError if no balance exists within throttle and angle
    limits (e.g. a commanded climb beyond the power available).
    """
    ol, consts = params.open_loop, params.constants

    def residual(z):
        alpha, delta_t = z
        v_a_dot, gamma_dot, _, _ = force_balance(v_a, gamma, 0.0, alpha + gamma, delta_t,
                                                 delta_t, ol, consts)
        return np.array([float(v_a_dot), float(gamma_dot)])

    z = np.array([0.03, 0.5])
    for _ in range(max_iter):
        f = residual(z)
        if np.linalg.norm(f, np.inf) < tol:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(z[j]))
            zp = z.copy()
            zp[j] += h
            jac[:, j] = (residual(zp) - f) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ModelDomainError("trim Newton iteration hit a singular Jacobian") from exc
        z = z + step
    else:
        raise ModelDomainError(f"trim iteration did not converge at v_a={v_a}, gamma={gamma}")

    alpha, delta_t = float(z[0]), float(z[1])
    if not (0.0 <= delta_t <= 1.0):
        raise ModelDomainError(f"trim throttle {delta_t:.3f} outside [0, 1]")
    if abs(alpha) > 0.35:
        raise ModelDomainError(f"trim angle of attack {np.degrees(alpha):.1f} deg implausible")

    cl = params.closed_loop
    theta = alpha + gamma
    # Pitch-rate equilibrium at q = 0 fixes the reference offset.
    theta_ref = theta - (cl.m_0 + cl.m_alpha * alpha) / cl.m_etheta
    return TrimPoint(v_a=v_a, gamma=gamma, alpha=alpha, delta_t=delta_t,
                     theta=theta, theta_ref=theta_ref, u_t=delta_t)
