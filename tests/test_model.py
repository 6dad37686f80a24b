"""Tests for the control-augmented flight model and integrator."""

import math
import traceback
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwnmpc import model as m
from fwnmpc import sim
from oracles import random_envelope_states, reference_rk4_step


@pytest.fixture(scope="module")
def params():
    return m.default_params()


@pytest.fixture(scope="module")
def trim(params):
    return m.solve_trim(params, 13.5, 0.0)


# ---------------------------------------------------------------------------
# Independent oracles: the formulas below are written out from scratch and
# must never import from the module under test beyond plain data access.
# ---------------------------------------------------------------------------

def oracle_attitude_rates(state, control, cl):
    import math
    alpha = state.theta - state.gamma
    return [
        state.p,
        state.q * math.cos(state.phi) - state.r * math.sin(state.phi),
        cl.l_p * state.p + cl.l_r * state.r + cl.l_ephi * (control.phi_ref - state.phi),
        state.v_a ** 2 * (cl.m_0 + cl.m_alpha * alpha + cl.m_q * state.q
                          + cl.m_etheta * (control.theta_ref - state.theta)),
        cl.n_r * state.r + cl.n_phi * state.phi + cl.n_phiref * control.phi_ref,
    ]


def oracle_forces(v_a, alpha, delta_t, ol, consts):
    import math
    power = ol.c_t1 * delta_t + ol.c_t2 * delta_t ** 2 + ol.c_t3 * delta_t ** 3
    thrust = power / (v_a * math.cos(alpha))
    qbar_s = 0.5 * consts.rho_air * v_a ** 2 * consts.s_wing
    drag = qbar_s * (ol.c_d0 + ol.c_dalpha * alpha + ol.c_dalpha2 * alpha ** 2)
    lift = qbar_s * (ol.c_l0 + ol.c_lalpha * alpha + ol.c_lalpha2 * alpha ** 2)
    return thrust, drag, lift


class TestAngleOfAttack:
    """The body accelerations of a state are the specific forces at
    alpha = theta - gamma."""

    @staticmethod
    def assert_alpha(params, theta, gamma, alpha):
        st_ = m.AircraftState(theta=theta, gamma=gamma, delta_t=0.4)
        got = m.body_accelerations_array(st_.as_array(), params.open_loop, params.constants)
        want = m.specific_forces(st_.v_a, alpha, st_.delta_t, params.open_loop,
                                 params.constants)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_direct_subtraction(self, params):
        self.assert_alpha(params, 0.1, 0.02, 0.1 - 0.02)
        assert 0.1 - 0.02 == pytest.approx(0.08)

    def test_zero(self, params):
        self.assert_alpha(params, 0.0, 0.0, 0.0)

    def test_negative(self, params):
        self.assert_alpha(params, -0.05, 0.05, -0.10)


def forces(state, params):
    """(thrust, drag, lift) of a state at alpha = theta - gamma."""
    return m.forces_array(state.v_a, state.theta - state.gamma, state.delta_t,
                          params.open_loop, params.constants)


def body_accelerations(state, params):
    return m.body_accelerations_array(state.as_array(), params.open_loop, params.constants)


def rk4_step(state, control, params, dt):
    """One `rk4_step_array` step of a dataclass state in zero wind."""
    return m.AircraftState.from_array(m.rk4_step_array(
        state.as_array(), control.as_array(), m.WindVector(), params, dt))


def attitude_rates(state, control, cl):
    return np.array(m.attitude_rates(state.phi, state.theta, state.p, state.q, state.r,
                                     state.v_a, state.gamma, control.phi_ref,
                                     control.theta_ref, cl))


def force_balance(state, control, params):
    return np.array(m.force_balance(state.v_a, state.gamma, state.phi, state.theta,
                                    state.delta_t, control.u_t, params.open_loop,
                                    params.constants))


def batch_derivative(state, control, wind, params):
    """One column through the numpy column path of `derivative`."""
    return np.stack(m.derivative(state.as_array()[:, None], control.as_array()[:, None],
                                 wind, params))[:, 0]


class TestAttitudeDynamics:
    def test_phi_dot_is_p(self, params):
        st_ = m.AircraftState(phi=0.0, p=0.2)
        rates = attitude_rates(st_, m.ControlInput(), params.closed_loop)
        assert rates[0] == pytest.approx(0.2)

    def test_theta_dot_at_wings_level(self, params):
        st_ = m.AircraftState(phi=0.0, q=0.1, r=0.3)
        rates = attitude_rates(st_, m.ControlInput(), params.closed_loop)
        assert rates[1] == pytest.approx(0.1)

    def test_full_row_matches_oracle(self, params, trim):
        state = m.AircraftState(v_a=13.5, gamma=0.01, xi=0.3, phi=0.2, theta=0.06,
                                p=0.05, q=-0.02, r=0.11, delta_t=0.4)
        control = m.ControlInput(u_t=0.5, phi_ref=0.25, theta_ref=0.04)
        expected = oracle_attitude_rates(state, control, params.closed_loop)
        rates = attitude_rates(state, control, params.closed_loop)
        np.testing.assert_allclose(rates, expected, rtol=0, atol=1e-14)
        der = batch_derivative(state, control, m.WindVector(), params)
        np.testing.assert_allclose(der[m.IDX_PHI:m.IDX_R + 1], expected, rtol=0, atol=1e-14)

    def test_affine_in_references(self, params):
        """Superposition in (phi_ref, theta_ref) holds to machine precision."""
        state = m.AircraftState(v_a=14.0, gamma=0.02, phi=0.1, theta=0.05,
                                p=0.2, q=0.1, r=-0.05)
        cl = params.closed_loop

        def rates(phi_ref, theta_ref):
            return attitude_rates(state, m.ControlInput(0.4, phi_ref, theta_ref), cl)

        base = rates(0.0, 0.0)
        d_phi = rates(0.3, 0.0) - base
        d_theta = rates(0.0, 0.2) - base
        combined = rates(0.3 * 0.7, 0.2 * 0.7)
        np.testing.assert_allclose(combined, base + 0.7 * d_phi + 0.7 * d_theta,
                                   rtol=0, atol=1e-12)


class TestForces:
    def test_zero_throttle_zero_thrust(self, params):
        st_ = m.AircraftState(v_a=13.5, delta_t=0.0)
        thrust, _, _ = forces(st_, params)
        assert thrust == 0.0

    def test_drag_collapses_at_zero_alpha(self, params):
        v_a = 12.0
        st_ = m.AircraftState(v_a=v_a, theta=0.0, gamma=0.0)
        _, drag, _ = forces(st_, params)
        expected = 0.5 * params.constants.rho_air * v_a ** 2 * params.constants.s_wing \
            * params.open_loop.c_d0
        assert drag == pytest.approx(expected, rel=1e-14)

    def test_matches_oracle(self, params):
        st_ = m.AircraftState(v_a=13.5, theta=0.03, gamma=0.0, delta_t=0.5)
        got = forces(st_, params)
        expected = oracle_forces(13.5, 0.03, 0.5, params.open_loop, params.constants)
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_quadratic_speed_scaling(self, params):
        """Lift and drag scale exactly with airspeed squared at fixed alpha."""
        alpha = 0.04
        _, d1, l1 = m.forces_array(12.0, alpha, 0.0, params.open_loop, params.constants)
        _, d2, l2 = m.forces_array(24.0, alpha, 0.0, params.open_loop, params.constants)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-14)
        assert l2 == pytest.approx(4.0 * l1, rel=1e-14)

    def test_prop_guard_counted(self, params):
        """Below PROP_SPEED_FLOOR the thrust divides by the floor, exactly,
        on columns and on plain floats."""
        st_ = m.AircraftState(v_a=0.5, delta_t=0.5)
        expected = m.power_curve(np.asarray(0.5), params.open_loop) / m.PROP_SPEED_FLOOR
        thrust, _, _ = forces(st_, params)
        assert thrust.tobytes() == expected.tobytes()
        thrust, _, _ = m.forces_array(0.5, 0.0, 0.5, params.open_loop, params.constants,
                                      m.FLOATS)
        assert thrust == m.power_curve(0.5, params.open_loop) / m.PROP_SPEED_FLOOR


class TestVelocityDynamics:
    def test_throttle_lag_equilibrium(self, params):
        st_ = m.AircraftState(v_a=13.5, delta_t=0.37)
        rates = force_balance(st_, m.ControlInput(u_t=0.37), params)
        assert rates[2] == pytest.approx(0.0, abs=1e-15)

    def test_trim_force_balance(self, params, trim):
        rates = force_balance(trim.state(), trim.control(), params)
        assert rates[0] == pytest.approx(0.0, abs=1e-10)
        assert rates[1] == pytest.approx(0.0, abs=1e-10)

    def test_wings_level_no_heading_rate(self, params):
        st_ = m.AircraftState(v_a=13.5, phi=0.0, delta_t=0.4)
        der = batch_derivative(st_, m.ControlInput(u_t=0.4), m.WindVector(), params)
        assert der[m.IDX_XI] == 0.0

    def test_vertical_flight_rejected(self, params):
        st_ = m.AircraftState(v_a=13.5, gamma=np.pi / 2 - 0.01)
        with pytest.raises(m.ModelDomainError):
            batch_derivative(st_, m.ControlInput(), m.WindVector(), params)
        with pytest.raises(m.ModelDomainError):
            m.derivative(st_.as_array().tolist(), m.ControlInput().as_array().tolist(),
                         m.WindVector(), params, m.FLOATS)


class TestKinematics:
    def test_north_cruise(self):
        st_ = m.AircraftState(v_a=10.0, gamma=0.0, xi=0.0)
        np.testing.assert_allclose(m.kinematics_array(st_.as_array(), m.WindVector()),
                                   [10.0, 0.0, 0.0])

    def test_wind_cancels_airspeed(self):
        st_ = m.AircraftState(v_a=10.0, gamma=0.0, xi=np.pi / 2)
        rates = m.kinematics_array(st_.as_array(), m.WindVector(w_e=-10.0))
        np.testing.assert_allclose(rates, [0.0, 0.0, 0.0], atol=1e-15)

    def test_climbing_north(self):
        st_ = m.AircraftState(v_a=10.0, gamma=np.pi / 6, xi=0.0)
        rates = m.kinematics_array(st_.as_array(), m.WindVector())
        np.testing.assert_allclose(rates, [10.0 * np.cos(np.pi / 6), 0.0, -5.0], atol=1e-12)

    @given(v_a=st.floats(5.0, 30.0), gamma=st.floats(-1.0, 1.0),
           xi=st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_zero_wind_ground_speed_is_airspeed(self, v_a, gamma, xi):
        st_ = m.AircraftState(v_a=v_a, gamma=gamma, xi=xi)
        speed = np.linalg.norm(m.kinematics_array(st_.as_array(), m.WindVector()))
        assert speed == pytest.approx(v_a, rel=1e-13)


class TestBodyAccelerations:
    def test_thrust_equals_drag_zero_ax(self, params):
        # Find delta_t with T = D at alpha = 0 by bisection on the model-free oracle.
        ol, consts = params.open_loop, params.constants
        v_a = 13.0
        drag = oracle_forces(v_a, 0.0, 0.0, ol, consts)[1]
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if oracle_forces(v_a, 0.0, mid, ol, consts)[0] < drag:
                lo = mid
            else:
                hi = mid
        st_ = m.AircraftState(v_a=v_a, theta=0.0, gamma=0.0, delta_t=0.5 * (lo + hi))
        a_x, _ = body_accelerations(st_, params)
        assert a_x == pytest.approx(0.0, abs=1e-9)

    def test_zero_alpha_az_is_minus_lift_over_mass(self, params):
        st_ = m.AircraftState(v_a=13.0, theta=0.0, gamma=0.0, delta_t=0.4)
        _, _, lift = forces(st_, params)
        _, a_z = body_accelerations(st_, params)
        assert a_z == pytest.approx(-lift / params.constants.m, rel=1e-14)

    def test_matches_oracle_at_trim(self, params, trim):
        import math
        state = trim.state()
        alpha = trim.alpha
        thrust, drag, lift = oracle_forces(state.v_a, alpha, state.delta_t,
                                           params.open_loop, params.constants)
        f_xv = (thrust * math.cos(alpha) - drag) / params.constants.m
        f_zv = (thrust * math.sin(alpha) + lift) / params.constants.m
        expected = (math.cos(alpha) * f_xv + math.sin(alpha) * f_zv,
                    math.sin(alpha) * f_xv - math.cos(alpha) * f_zv)
        got = body_accelerations(state, params)
        np.testing.assert_allclose(got, expected, rtol=1e-13)


class TestFullDerivative:
    def test_composition(self, params, trim):
        state = m.AircraftState(n=5.0, e=-3.0, d=-40.0, v_a=13.0, gamma=0.02, xi=0.4,
                                phi=0.1, theta=0.05, p=0.01, q=0.02, r=0.03, delta_t=0.5)
        control = m.ControlInput(0.5, 0.1, 0.03)
        wind = m.WindVector(1.0, -2.0, 0.5)
        der = batch_derivative(state, control, wind, params)
        np.testing.assert_allclose(der[:3], m.kinematics_array(state.as_array(), wind),
                                   rtol=1e-15)
        v_a_dot, gamma_dot, delta_t_dot, normal_force = force_balance(state, control, params)
        assert der[m.IDX_VA] == pytest.approx(v_a_dot, rel=1e-15)
        assert der[m.IDX_GAMMA] == pytest.approx(gamma_dot, rel=1e-15)
        assert der[m.IDX_DELTA_T] == pytest.approx(delta_t_dot, rel=1e-15)
        xi_dot = np.sin(state.phi) * normal_force / (
            params.constants.m * state.v_a * np.cos(state.gamma))
        assert der[m.IDX_XI] == pytest.approx(xi_dot, rel=1e-15)
        att = attitude_rates(state, control, params.closed_loop)
        np.testing.assert_allclose(der[6:11], att, rtol=1e-15)

    def test_batched_matches_scalar(self, params):
        """Columns through `numpy` give the bits of single states through
        `FLOATS` wherever the power curve does; a cubed numpy array and a
        cubed float may round apart, and then the rates agree to rounding."""
        rng = np.random.default_rng(7)
        grid = [m.AircraftState(v_a=12 + i, gamma=0.01 * i, xi=0.1 * i, phi=0.05 * i,
                                theta=0.02 * i, delta_t=0.1 * i).as_array()
                for i in range(5)]
        below_floor = m.AircraftState(v_a=0.6 * m.PROP_SPEED_FLOOR, theta=0.1,
                                      delta_t=0.5).as_array()
        xs = np.column_stack([*grid, *random_envelope_states(rng, 200), below_floor])
        n = xs.shape[1]
        us = rng.uniform([0, -0.3, -0.2], [1, 0.3, 0.2], size=(n, 3)).T
        wind = m.WindVector(1.0, 0.5, -0.2)
        batch = np.stack(m.derivative(xs, us, wind, params))
        ol = params.open_loop
        same_power = m.power_curve(xs[m.IDX_DELTA_T], ol) == np.array(
            [m.power_curve(d, ol) for d in xs[m.IDX_DELTA_T].tolist()])
        assert same_power[:5].all() and same_power[-1]
        for i in range(n):
            single = np.array(m.derivative(xs[:, i].tolist(), us[:, i].tolist(), wind, params,
                                           m.FLOATS))
            if same_power[i]:
                assert batch[:, i].tobytes() == single.tobytes()
            else:
                np.testing.assert_allclose(batch[:, i], single, rtol=1e-15, atol=1e-14)

    def test_near_vertical_column_rejected(self, params, trim):
        """One near-vertical column fails the whole batch with the message of
        the single-state path."""
        xs = np.repeat(trim.state().as_array()[:, None], 4, axis=1)
        xs[m.IDX_GAMMA, 2] = 1.55
        us = np.repeat(trim.control().as_array()[:, None], 4, axis=1)
        with pytest.raises(m.ModelDomainError) as single:
            m.float_step(m.WindVector(), params)(xs[:, 2].tolist(), us[:, 2].tolist(), 0.1)
        with pytest.raises(m.ModelDomainError) as batch:
            m.rk4_step_array(xs, us, m.WindVector(), params, 0.1)
        assert str(batch.value) == str(single.value)
        assert "vertical" in str(batch.value)


class TestParameterColumns:
    """A parameter object whose fields are (M,) arrays gives, column by
    column, the bits of the dataclass built from that column."""

    M = 6

    def columns(self, vec, seed):
        rng = np.random.default_rng(seed)
        return vec[:, None] * rng.uniform(0.8, 1.2, (vec.size, self.M))

    def states(self, seed):
        rng = np.random.default_rng(seed)
        names = ("v_a", "gamma", "phi", "theta", "p", "q", "r", "delta_t",
                 "u_t", "phi_ref", "theta_ref")
        lo = [11.0, -0.1, -0.5, -0.1, -0.3, -0.3, -0.3, 0.0, 0.0, -0.5, -0.2]
        hi = [18.0, 0.1, 0.5, 0.2, 0.3, 0.3, 0.3, 1.0, 1.0, 0.5, 0.2]
        return dict(zip(names, rng.uniform(lo, hi, (self.M, len(names))).T))

    def assert_columns_match(self, fn, cols, make):
        names = [f.name for f in fields(make)]
        wide = fn(SimpleNamespace(**dict(zip(names, cols))))
        for j in range(self.M):
            narrow = fn(make.from_array(cols[:, j]))
            for got, want in zip(wide, narrow):
                assert got[j].tobytes() == want[j].tobytes()

    def test_attitude_rates(self, params):
        s = self.states(1)
        self.assert_columns_match(
            lambda cl: m.attitude_rates(s["phi"], s["theta"], s["p"], s["q"], s["r"],
                                        s["v_a"], s["gamma"], s["phi_ref"],
                                        s["theta_ref"], cl),
            self.columns(params.closed_loop.as_array(), 2), m.ClosedLoopParams)

    def test_force_balance_and_specific_forces(self, params):
        s = self.states(3)
        consts = params.constants

        def rates(ol):
            return (m.force_balance(s["v_a"], s["gamma"], s["phi"], s["theta"],
                                    s["delta_t"], s["u_t"], ol, consts)
                    + m.specific_forces(s["v_a"], s["theta"] - s["gamma"], s["delta_t"],
                                        ol, consts))

        self.assert_columns_match(rates, self.columns(params.open_loop.as_array(), 4),
                                  m.OpenLoopParams)


class TestRk4Step:
    def test_fixed_point_for_zero_derivative(self, params, trim):
        """Level trim with zero wind is stationary in every non-position state."""
        nxt = rk4_step(trim.state(), trim.control(), params, 0.05)
        x0, x1 = trim.state().as_array(), nxt.as_array()
        np.testing.assert_allclose(x1[3:], x0[3:], atol=1e-12)

    def test_throttle_lag_matches_exponential(self, params, trim):
        """Closed-form first-order lag solution, 1 s horizon, dt = 0.01."""
        tau = params.open_loop.tau_t
        u_t, d0 = 0.8, 0.2
        state = trim.state()
        state = m.AircraftState(**{**state.__dict__, "delta_t": d0})
        control = m.ControlInput(u_t=u_t, phi_ref=0.0, theta_ref=trim.theta_ref)
        for _ in range(100):
            state = rk4_step(state, control, params, 0.01)
        expected = u_t + (d0 - u_t) * np.exp(-1.0 / tau)
        assert state.delta_t == pytest.approx(expected, abs=1e-6)

    def test_convergence_order(self, params, trim):
        """Richardson order estimate over a 5 s maneuvering trajectory."""
        control = m.ControlInput(u_t=0.6, phi_ref=0.25, theta_ref=0.05)
        wind = m.WindVector(1.0, -0.5, 0.1)

        def integrate(dt):
            x = trim.state().as_array()
            for _ in range(int(round(5.0 / dt))):
                x = m.rk4_step_array(x, control.as_array(), wind, params, dt)
            return x

        # Successive-difference Richardson estimate: ||x(dt)-x(dt/2)|| over
        # ||x(dt/2)-x(dt/4)|| equals 2^p exactly for an order-p method. The
        # steps must divide the 5 s horizon exactly.
        x1, x2, x4 = integrate(0.04), integrate(0.02), integrate(0.01)
        order = np.log2(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x4))
        assert 3.8 <= order <= 4.2

    def test_rejects_nonpositive_dt(self, params, trim):
        with pytest.raises(ValueError):
            rk4_step(trim.state(), trim.control(), params, 0.0)

    @given(u_t=st.floats(0.0, 1.0), d0=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_throttle_state_stays_in_unit_interval(self, params, trim, u_t, d0):
        state = m.AircraftState(**{**trim.state().__dict__, "delta_t": d0})
        control = m.ControlInput(u_t=u_t, theta_ref=trim.theta_ref)
        for _ in range(20):
            state = rk4_step(state, control, params, 0.1)
            assert 0.0 <= state.delta_t <= 1.0


class TestRk4StepFloats:
    """The generated plain-float step against the array-stage scalar RK4
    oracle."""

    WIND = m.WindVector(1.5, -2.0, 0.3)

    @staticmethod
    def perturbed(params, rng):
        """`params` with every field of its three groups scaled by a factor
        in [0.8, 1.2]."""
        groups = {g.name: getattr(params, g.name) for g in fields(params)}
        return replace(params, **{
            name: replace(group, **{f.name: getattr(group, f.name) * rng.uniform(0.8, 1.2)
                                    for f in fields(group)})
            for name, group in groups.items()})

    @pytest.mark.parametrize("wind", [
        m.WindVector(), m.WindVector(-0.0, 0.0, -0.0), m.WindVector(1.5, -2.0, 0.3),
        m.WindVector(-4.0, -0.0, 0.7),
    ])
    def test_bytes_equal_oracle_across_params_and_winds(self, params, wind):
        """Perturbed parameter sets, and default and perturbed ones with the
        zero power coefficients of a motor failure, in each wind; the bound
        step of `float_step` gives the same bytes."""
        rng = np.random.default_rng(17)
        sets = [self.perturbed(params, rng) for _ in range(12)]
        sets += [sim._zero_thrust(params), sim._zero_thrust(sets[0])]
        assert all(getattr(p, g.name) != getattr(params, g.name)
                   for p in sets[:12] for g in fields(params))
        states = random_envelope_states(rng, 8 * len(sets))
        controls = np.column_stack([rng.uniform(0.0, 1.0, len(states)),
                                    rng.uniform(-0.5, 0.5, len(states)),
                                    rng.uniform(-0.25, 0.25, len(states))])
        for i, (x, u) in enumerate(zip(states, controls)):
            p = sets[i % len(sets)]
            expected = reference_rk4_step(x, u, wind, p, 0.1).tobytes()
            assert np.array(m.float_step(wind, p)(x.tolist(), u.tolist(), 0.1)).tobytes() \
                == expected

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, params, trim, dt):
        x, u = trim.state().as_array().tolist(), trim.control().as_array().tolist()
        with pytest.raises(ValueError, match="dt must be > 0"):
            m.float_step(self.WIND, params)(x, u, dt)

    @pytest.mark.parametrize("edit", [
        lambda rate, xp: xp.tan(rate),              # a function the namespace lacks
        lambda rate, xp: rate // 1.0,               # an operator the recorder lacks
        lambda rate, xp: rate if rate > 0.0 else -rate,   # a branch on a value
        lambda rate, xp: math.exp(rate),            # a function outside the namespace
        lambda rate, xp: np.float64(2.0) * rate,    # a constant that is no float
        lambda rate, xp: -rate if xp.any(rate < 0.0) else rate,   # a guard that returns
    ])
    def test_generation_refuses_an_unknown_operation(self, edit):
        """A body using an operation the recorder does not know cannot be
        traced: generation raises instead of emitting some other step."""
        def body(x, u, wind, params, xp=np):
            rates = list(m.derivative(x, u, wind, params, xp))
            rates[m.IDX_P] = edit(rates[m.IDX_P], xp)
            return tuple(rates)

        with pytest.raises(TypeError):
            m._generate_rk4_floats(body)

    def test_columns_equal_oracle(self, params):
        """A (12, B) batch steps every column to the oracle's bytes. An
        array's `**` and a float's may round apart in the power curve, so
        the byte comparison takes c_t2 = c_t3 = 0, where the powers only
        meet zeros; with the default curve the columns agree to rounding."""
        rng = np.random.default_rng(23)
        xs = random_envelope_states(rng, 300).T
        us = np.array([rng.uniform(0.0, 1.0, 300), rng.uniform(-0.5, 0.5, 300),
                       rng.uniform(-0.25, 0.25, 300)])
        linear = replace(params, open_loop=replace(params.open_loop, c_t2=0.0, c_t3=0.0))
        for p in (linear, params):
            batch = m.rk4_step_array(xs, us, self.WIND, p, 0.1)
            for j in range(xs.shape[1]):
                expected = reference_rk4_step(xs[:, j], us[:, j], self.WIND, p, 0.1)
                if p is linear:
                    assert batch[:, j].tobytes() == expected.tobytes()
                else:
                    np.testing.assert_allclose(batch[:, j], expected, rtol=1e-13, atol=1e-13)

    def test_generated_source_shows_in_tracebacks(self, params, trim):
        """A domain error raised inside the generated step shows its source
        line, as `pdb` does, through `linecache`."""
        x = trim.state().as_array()
        x[m.IDX_GAMMA] = 1.55
        with pytest.raises(m.ModelDomainError) as exc:
            m.float_step(self.WIND, params)(x.tolist(), trim.control().as_array().tolist(), 0.1)
        frame = traceback.extract_tb(exc.value.__traceback__)[-1]
        assert frame.filename == "<generated fwnmpc.model rk4_step>"
        assert frame.line.startswith("raise ModelDomainError(")

    def test_bytes_equal_oracle_on_random_states(self, params):
        rng = np.random.default_rng(7)
        states = random_envelope_states(rng, 500)
        controls = np.column_stack([rng.uniform(0.0, 1.0, 500),
                                    rng.uniform(-0.5, 0.5, 500),
                                    rng.uniform(-0.25, 0.25, 500)])
        for x, u in zip(states, controls):
            expected = reference_rk4_step(x, u, self.WIND, params, 0.1)
            got = m.float_step(self.WIND, params)(x.tolist(), u.tolist(), 0.1)
            assert np.array(got).tobytes() == expected.tobytes()
            assert m.rk4_step_array(x, u, self.WIND, params, 0.1).tobytes() \
                == expected.tobytes()

    def test_prop_guard_count_matches_oracle(self, params, trim):
        """Below PROP_SPEED_FLOOR the clamped step keeps the oracle's bytes."""
        x = trim.state(xi=0.3).as_array()
        x[m.IDX_VA] = 0.6 * m.PROP_SPEED_FLOOR
        u = trim.control().as_array()
        got = m.float_step(self.WIND, params)(x.tolist(), u.tolist(), 0.01)
        expected = reference_rk4_step(x, u, self.WIND, params, 0.01)
        assert np.array(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 1.55, "vertical"),
        ("delta_t", float("nan"), "non-finite"),
    ])
    def test_domain_errors_match_oracle(self, params, trim, field, value, message):
        x = trim.state().as_array()
        x[[f.name for f in fields(m.AircraftState)].index(field)] = value
        u = trim.control().as_array()
        with pytest.raises(m.ModelDomainError, match=message) as expected:
            reference_rk4_step(x, u, self.WIND, params, 0.1)
        with pytest.raises(m.ModelDomainError, match=message) as got:
            m.float_step(self.WIND, params)(x.tolist(), u.tolist(), 0.1)
        assert str(got.value) == str(expected.value)


class TestAngleWrap:
    def test_half_open_interval(self):
        assert m.wrap_angle(np.pi) == pytest.approx(np.pi)
        assert m.wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert m.wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    @given(a=st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_wrap_is_idempotent_and_congruent(self, a):
        w = m.wrap_angle(a)
        assert -np.pi < w <= np.pi + 1e-12
        assert np.cos(w) == pytest.approx(np.cos(a), abs=1e-9)
        assert np.sin(w) == pytest.approx(np.sin(a), abs=1e-9)


class TestTrim:
    def test_level_trim_in_design_envelope(self, params, trim):
        assert 0.0 < np.degrees(trim.alpha) < 5.0
        assert 0.3 < trim.u_t < 0.7

    def test_state_is_equilibrium(self, params, trim):
        der = np.array(m.derivative(trim.state().as_array().tolist(),
                                    trim.control().as_array().tolist(), m.WindVector(), params,
                                    m.FLOATS))
        np.testing.assert_allclose(der[3:], np.zeros(9), atol=1e-9)

    def test_lateral_subsystem_stable(self, params):
        cl = params.closed_loop
        a_mat = np.array([[0.0, 1.0, 0.0],
                          [-cl.l_ephi, cl.l_p, cl.l_r],
                          [cl.n_phi, 0.0, cl.n_r]])
        assert np.all(np.real(np.linalg.eigvals(a_mat)) < 0.0)

    def test_attitude_loop_settles_ten_degree_step(self, params, trim):
        """Attitude response with frozen velocity states settles in < 2 s."""
        cl = params.closed_loop
        v_a, gamma = 13.5, 0.0
        theta_ref = trim.theta_ref + np.radians(10.0)

        def deriv(s):
            phi, theta, p, q, r = s
            alpha = theta - gamma
            return np.array([
                p,
                q * np.cos(phi) - r * np.sin(phi),
                cl.l_p * p + cl.l_r * r + cl.l_ephi * (np.radians(10.0) - phi),
                v_a ** 2 * (cl.m_0 + cl.m_alpha * alpha + cl.m_q * q
                            + cl.m_etheta * (theta_ref - theta)),
                cl.n_r * r + cl.n_phi * phi + cl.n_phiref * np.radians(10.0)])

        dt, t_end = 0.005, 3.0
        s = np.array([0.0, trim.theta, 0.0, 0.0, 0.0])
        hist = []
        for _ in range(int(t_end / dt)):
            k1 = deriv(s)
            k2 = deriv(s + dt / 2 * k1)
            k3 = deriv(s + dt / 2 * k2)
            k4 = deriv(s + dt * k3)
            s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            hist.append(s[:2].copy())
        hist = np.array(hist)
        for col in range(2):
            final = hist[-1, col]
            band = max(0.05 * abs(np.radians(10.0)), 1e-3)
            out = np.where(np.abs(hist[:, col] - final) > band)[0]
            settle = (out[-1] + 1) * dt if len(out) else 0.0
            assert settle < 2.0
