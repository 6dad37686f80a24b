"""Tests for the grey-box identification pipeline."""

import traceback
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from fwnmpc import model as md
from fwnmpc import sysid
from oracles import run_at_thread_count, train_validate_split


@pytest.fixture(scope="module")
def params():
    return md.default_params()


@pytest.fixture(scope="module")
def cl_sets(params):
    return sysid.make_training_sets(params, "cl")


@pytest.fixture(scope="module")
def ol_sets(params):
    return sysid.make_training_sets(params, "ol")


# noisy fits of both structures at four iterations; prints the bytes of
# their params, covariance and cost
_FIT_SNIPPET = """
from fwnmpc import model as md
from fwnmpc import sysid
params = md.default_params()
for structure in ("cl", "ol"):
    truth = getattr(params, sysid.STRUCTURES[structure].params_field).as_array()
    noisy = [sysid.add_output_noise(ds, seed=5 + i)
             for i, ds in enumerate(sysid.make_training_sets(params, structure))]
    init = sysid.perturb_params(truth, 0.2, seed=3)
    report = sysid.estimate(structure, init, noisy, constants=params.constants, max_iter=4)
    print(structure, report.n_iter, report.params.tobytes().hex(),
          report.covariance.tobytes().hex(), report.cost.hex())
"""


def lm_jacobian(structure, vec, datasets):
    """The forward-difference residual Jacobian as `estimate` forms it: one
    batch whose column 0 is the point itself, every column differenced
    against that column."""
    steps = np.maximum(5e-8 * np.abs(vec), 1e-10)
    batch = np.repeat(vec[:, None], vec.size + 1, axis=1)
    batch[np.arange(vec.size), np.arange(1, vec.size + 1)] += steps
    r_batch = sysid.residual_vector(structure, batch, datasets)
    return (r_batch[:, 1:] - r_batch[:, :1]) / steps


class TestGenerate211:
    def test_pulse_edges(self):
        spec = sysid.ManeuverSpec(channels=("phi_ref",), amplitude=0.3,
                                  base_width=1.0, settle_time=2.0, duration=10.0,
                                  sample_rate=40.0)
        t, offsets = sysid.generate_211(spec)
        sig = offsets["phi_ref"]
        edges = t[np.flatnonzero(np.diff(sig) != 0.0) + 1]
        np.testing.assert_allclose(edges, [2.0, 4.0, 5.0, 6.0], atol=1e-9)

    def test_sign_pattern(self):
        spec = sysid.ManeuverSpec(channels=("theta_ref",), amplitude=0.1,
                                  base_width=1.0, settle_time=2.0, duration=10.0)
        t, offsets = sysid.generate_211(spec)
        sig = offsets["theta_ref"]
        assert sig[np.searchsorted(t, 3.0)] == pytest.approx(0.1)    # first pulse, 2w
        assert sig[np.searchsorted(t, 4.5)] == pytest.approx(-0.1)   # second, w
        assert sig[np.searchsorted(t, 5.5)] == pytest.approx(0.1)    # third, w
        assert sig[np.searchsorted(t, 7.0)] == 0.0

    def test_coupled_channels_share_pattern(self):
        spec = sysid.ManeuverSpec(channels=("phi_ref", "u_t"),
                                  amplitude={"phi_ref": 0.2, "u_t": 0.1})
        _, offsets = sysid.generate_211(spec)
        np.testing.assert_allclose(offsets["phi_ref"] / 0.2, offsets["u_t"] / 0.1)

    def test_rejects_unknown_channel(self):
        with pytest.raises(ValueError):
            sysid.ManeuverSpec(channels=("aileron",))


class TestSimulateStructure:
    def test_cl_trim_hold_constant(self, params):
        n = 101
        t = np.arange(n) / 40.0
        trim = md.solve_trim(params, 13.5, 0.0)
        inputs = {"phi_ref": np.zeros(n), "theta_ref": np.full(n, trim.theta_ref),
                  "v_a": np.full(n, 13.5), "gamma": np.zeros(n)}
        outputs = {"phi": np.zeros(n), "theta": np.full(n, trim.theta),
                   "p": np.zeros(n), "q": np.zeros(n), "r": np.zeros(n)}
        ds = sysid.Dataset(structure="cl", t=t, inputs=inputs, outputs=outputs)
        sim = sysid.simulate_structure("cl", params.closed_loop, ds)
        np.testing.assert_allclose(sim[0], 0.0, atol=1e-12)             # phi
        np.testing.assert_allclose(sim[1], trim.theta, atol=1e-9)       # theta

    def test_cl_roll_step_settles_monotonically_enough(self, params):
        spec = sysid.ManeuverSpec(v_a=13.5, channels=("phi_ref",),
                                  amplitude=np.radians(10.0), settle_time=0.5,
                                  base_width=6.0, duration=7.0)
        t, offsets = sysid.generate_211(spec)
        n = t.size
        inputs = {"phi_ref": offsets["phi_ref"], "theta_ref": np.zeros(n),
                  "v_a": np.full(n, 13.5), "gamma": np.zeros(n)}
        outputs = {k: np.zeros(n) for k in sysid.CL_OUTPUTS}
        ds = sysid.Dataset(structure="cl", t=t, inputs=inputs, outputs=outputs)
        phi = sysid.simulate_structure("cl", params.closed_loop, ds)[0]
        # response inside the long first pulse approaches the commanded value
        window = (t > 3.0) & (t < 6.0)
        assert np.all(np.abs(phi[window] - np.radians(10.0)) < np.radians(1.0))

    def test_ol_throttle_step_raises_ax_then_airspeed(self, params):
        spec = sysid.ManeuverSpec(v_a=13.5, channels=("u_t",), amplitude=0.25,
                                  settle_time=1.0, base_width=4.0, duration=8.0)
        ds = sysid.make_dataset("ol", params, spec)
        sim = sysid.simulate_structure("ol", params.open_loop, ds, params.constants)
        t = ds.t
        a_x, v_a = sim[2], sim[0]
        before = t < 1.0
        early = (t > 1.5) & (t < 2.5)
        assert np.mean(a_x[early]) > np.mean(a_x[before]) + 0.05
        late = (t > 3.5) & (t < 5.0)
        assert np.mean(v_a[late]) > np.mean(v_a[before]) + 0.2

    def test_batched_matches_single(self, params, cl_sets):
        ds = cl_sets[0]
        base = params.closed_loop.as_array()
        batch = np.column_stack([base, base * 1.05, base * 0.97])
        sims = sysid.simulate_structure("cl", batch, ds)
        single = sysid.simulate_structure("cl", base * 1.05, ds)
        np.testing.assert_allclose(sims[:, :, 1], single, rtol=1e-13)

    def test_flight_loop_matches_per_sample_model(self, params):
        """The full-model run behind every dataset records, bit for bit, the
        model stepped one sample at a time and the body accelerations
        evaluated one state at a time."""
        spec = sysid.standard_ol_specs()[0]
        t, chans = sysid._full_model_run(params, spec)
        controls = np.column_stack([chans[n] for n in ("u_t", "phi_ref", "theta_ref")])
        x = md.solve_trim(params, spec.v_a, spec.gamma).state().as_array()
        ref = {name: [] for name in (*md.STATE_NAMES, "a_x", "a_z")}
        for k in range(t.size):
            a_x, a_z = md.body_accelerations_array(x, params.open_loop, params.constants)
            for name, value in (*zip(md.STATE_NAMES, x), ("a_x", a_x), ("a_z", a_z)):
                ref[name].append(float(value))
            if k < t.size - 1:
                x = md.rk4_step_array(x, controls[k], md.WindVector(), params,
                                      1.0 / spec.sample_rate)
        for name, values in ref.items():
            got = np.ascontiguousarray(chans[name])
            assert np.array(values).tobytes() == got.tobytes(), name


class TestOutputErrorCost:
    def test_zero_at_truth(self, params, cl_sets):
        # numpy's vector transcendentals can differ from the scalar path by
        # an ulp, so "zero" here means far below any physical residual
        cost = sysid.output_error_cost("cl", params.closed_loop.as_array(), cl_sets)
        assert cost <= 1e-20

    def test_positive_under_perturbation(self, params, cl_sets):
        vec = params.closed_loop.as_array() * 1.05
        assert sysid.output_error_cost("cl", vec, cl_sets) > 0.0

    def test_matches_hand_sum_on_toy_set(self, params):
        n = 3
        t = np.arange(n) / 40.0
        trim = md.solve_trim(params, 13.5, 0.0)
        inputs = {"phi_ref": np.zeros(n), "theta_ref": np.full(n, trim.theta_ref),
                  "v_a": np.full(n, 13.5), "gamma": np.zeros(n)}
        outputs = {"phi": np.array([0.0, 0.01, -0.02]),
                   "theta": np.full(n, trim.theta),
                   "p": np.zeros(n), "q": np.zeros(n), "r": np.zeros(n)}
        ds = sysid.Dataset(structure="cl", t=t, inputs=inputs, outputs=outputs)
        sim = sysid.simulate_structure("cl", params.closed_loop, ds)
        w = sysid.DEFAULT_CHANNEL_WEIGHTS
        expected = 0.0
        for i, name in enumerate(sysid.CL_OUTPUTS):
            expected += np.sum(((sim[i] - outputs[name]) / w[name]) ** 2)
        got = sysid.output_error_cost("cl", params.closed_loop.as_array(), [ds])
        assert got == pytest.approx(expected, rel=1e-12)


    def test_mixed_lengths_and_intervals_match_per_dataset_calls(self, params, cl_sets):
        """One padded pass per sample interval gives, bit for bit, the
        residuals of one call per dataset, and a column that overflows in
        the padded tail leaves the short dataset's rows untouched."""
        long = cl_sets[0]
        assert long.t.size == 561

        def cut(rows, t):
            return sysid.Dataset(structure="cl", t=t,
                                 inputs={k: v[rows] for k, v in long.inputs.items()},
                                 outputs={k: v[rows] for k, v in long.outputs.items()})

        short = cut(slice(80, 121), np.arange(41) / 40.0)     # spans the first step
        coarse = cut(slice(0, None, 2), np.arange(281) / 20.0)
        sets = [short, long, coarse]
        base = params.closed_loop.as_array()
        diverging = base.copy()
        diverging[0] = 100.0      # unstable roll damping: overflows after the short set
        batch = np.column_stack([base * 1.05, diverging, base * 0.97])
        n_short = 5 * short.t.size
        for p in (base * 1.05, diverging, batch):
            got = sysid.residual_vector("cl", p, sets)
            oracle = np.concatenate([sysid.residual_vector("cl", p, [ds]) for ds in sets])
            assert got.tobytes() == oracle.tobytes()
        assert np.all(np.isfinite(got[:n_short]))
        assert not np.all(np.isfinite(got[n_short:, 1]))
        # on plain floats the diverging vector raises inside the integration
        # (`math.cos` of inf); it returns non-finite rows instead, and the
        # short dataset's rows are those of its own call
        single = sysid.residual_vector("cl", diverging, sets)
        assert np.all(np.isfinite(single[:n_short]))
        assert not np.all(np.isfinite(single[n_short:]))


class TestFloatPath:
    """One parameter vector integrates on plain floats, a batch on columns."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cl_single_vector_equals_batch_column(self, params, cl_sets, seed):
        vec = sysid.perturb_params(params.closed_loop, 0.2, seed=seed)
        single = sysid.residual_vector("cl", vec, cl_sets)
        batch = sysid.residual_vector("cl", np.column_stack([vec, vec * 1.01]), cl_sets)
        assert single.tobytes() == np.ascontiguousarray(batch[:, 0]).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ol_single_vector_agrees_with_batch_column(self, params, ol_sets, seed):
        # the power curve's `delta_t ** 2` and `** 3` are libm's `pow` on a
        # float and numpy's power loop on an array, which may round apart in
        # the last bit (about 50 of 10 256 residuals differ, by <= 2.7e-15)
        vec = sysid.perturb_params(params.open_loop, 0.2, seed=seed)
        single = sysid.residual_vector("ol", vec, ol_sets, constants=params.constants)
        batch = sysid.residual_vector("ol", np.column_stack([vec, vec * 1.01]), ol_sets,
                                      constants=params.constants)
        np.testing.assert_allclose(single, batch[:, 0], rtol=0, atol=1e-12)

    def test_shape_follows_the_parameters(self, params, cl_sets):
        vec = params.closed_loop.as_array()
        n_res = 5 * sum(ds.t.size for ds in cl_sets)
        assert sysid.residual_vector("cl", vec, cl_sets).shape == (n_res,)
        assert sysid.residual_vector("cl", params.closed_loop, cl_sets).shape == (n_res,)
        assert sysid.residual_vector("cl", vec[:, None], cl_sets).shape == (n_res, 1)
        batch = np.column_stack([vec, vec, vec])
        assert sysid.residual_vector("cl", batch, cl_sets).shape == (n_res, 3)

    @pytest.mark.parametrize("structure", ["cl", "ol"])
    def test_generated_steps_equal_rk4_under_floats(self, params, structure):
        """Each structure's generated step gives the bytes of `md.rk4` over
        its rates under `md.FLOATS`, sample by sample along a training set,
        at three perturbed parameter sets."""
        st = sysid.STRUCTURES[structure]
        step = sysid._FLOAT_STEPS[structure]
        consts = params.constants
        ds = sysid.make_training_sets(params, structure)[1]
        inputs = np.array([ds.inputs[name] for name in st.inputs])
        mid = 0.5 * (inputs[:, :-1] + inputs[:, 1:])
        truth = getattr(params, st.params_field)
        for seed in range(3):
            vec = sysid.perturb_params(truth, 0.2, seed=seed).tolist()
            par = SimpleNamespace(**dict(zip(st.param_names, vec)))
            c = (*vec, consts.m, consts.g, consts.s_wing, consts.rho_air)
            x = [float(ds.outputs.get(name, ds.inputs.get(name))[0]) for name in st.init]
            for k in range(ds.t.size - 1):
                args = inputs[:, k].tolist(), mid[:, k].tolist(), inputs[:, k + 1].tolist()
                want = md.rk4(st.rates, x, *args, ds.dt, par, consts, md.FLOATS)
                got = step(c, x, *args, ds.dt)
                assert np.array(got).tobytes() == np.array(want).tobytes()
                x = want

    def test_diverging_vector_gives_nan_rows_from_the_failing_sample(self, params, cl_sets):
        """The unstable roll damping of `l_p = 100` leaves the finite domain
        inside the run: the samples before are the states, every one from
        the failing step on is NaN, and the step there raises."""
        ds = cl_sets[0]
        vec = params.closed_loop.as_array()
        vec[0] = 100.0
        sim = sysid.simulate_structure("cl", vec, ds)
        bad = int(np.flatnonzero(~np.all(np.isfinite(sim), axis=0))[0])
        assert 1 < bad < ds.t.size - 1
        assert np.all(np.isfinite(sim[:, :bad]))
        assert np.all(np.isnan(sim[:, bad:]))
        inputs = np.array([ds.inputs[name] for name in sysid.CL_INPUTS])
        left, right = inputs[:, bad - 1], inputs[:, bad]
        c = (*vec.tolist(), *(getattr(params.constants, f.name)
                              for f in fields(md.PhysicalConstants)))
        with pytest.raises((OverflowError, ZeroDivisionError, ValueError)):
            sysid._FLOAT_STEPS["cl"](c, sim[:, bad - 1].tolist(), left.tolist(),
                                     (0.5 * (left + right)).tolist(), right.tolist(), ds.dt)

    @pytest.mark.parametrize("structure", ["cl", "ol"])
    def test_generated_source_shows_in_tracebacks(self, structure):
        st = sysid.STRUCTURES[structure]
        u = [0.0] * len(st.inputs)
        with pytest.raises(ValueError, match="dt must be > 0") as exc:
            sysid._FLOAT_STEPS[structure]([1.0] * 14, [0.0] * len(st.init), u, u, u, 0.0)
        frame = traceback.extract_tb(exc.value.__traceback__)[-1]
        assert frame.filename == f"<generated fwnmpc.sysid {structure} step>"
        assert frame.line == "raise ValueError('integration step dt must be > 0')"

    @pytest.mark.parametrize("channel, value", [
        ("v_a", 0.0),        # the flight path rate divides by zero
        ("u_t", 1e200),      # the power curve's `**` overflows
        ("theta", np.inf),   # `math.cos` of inf
    ], ids=["zero_division", "overflow", "domain"])
    def test_float_error_gives_non_finite_rows(self, params, ol_sets, channel, value):
        """Where numpy returns inf or NaN, float arithmetic raises; the
        integration turns that into NaN states from that step on."""
        ds = ol_sets[0]
        chans = {**ds.inputs, **ds.outputs}
        chans[channel] = np.full(ds.t.size, value)
        bad = sysid.Dataset(structure="ol", t=ds.t,
                            inputs={k: chans[k] for k in ds.inputs},
                            outputs={k: chans[k] for k in ds.outputs})
        vec = params.open_loop.as_array()
        sim = sysid.simulate_structure("ol", vec, bad, params.constants)
        assert sim.shape == (4, ds.t.size)
        assert np.all(np.isnan(sim[:, 1:]))
        r = sysid.residual_vector("ol", vec, [bad, ds], constants=params.constants)
        n_bad = 4 * ds.t.size
        assert not np.any(np.isfinite(r[:n_bad].reshape(4, -1)[:, 1:]))
        assert r[n_bad:].tobytes() == sysid.residual_vector(
            "ol", vec, [ds], constants=params.constants).tobytes()


class TestFitStaticCurves:
    def test_noiseless_sweep_recovers_polynomials(self, params):
        static = sysid.make_static_dataset(params, hold_time=0.1)
        guess, diag = sysid.fit_static_curves([static], params.constants)
        truth = params.open_loop
        for name in ("c_t1", "c_t2", "c_t3", "c_d0", "c_dalpha", "c_dalpha2",
                     "c_l0", "c_lalpha", "c_lalpha2"):
            assert getattr(guess, name) == pytest.approx(getattr(truth, name),
                                                         rel=1e-6, abs=1e-6)
        assert diag["n_quasi_static"] == diag["n_samples"]

    def test_rate_filter_removes_dynamic_samples(self, params):
        static = sysid.make_static_dataset(params, hold_time=0.1)
        n = static.t.size
        # poison the second half with body rates and absurd accelerations
        q = static.outputs["q"].copy()
        a_x = static.outputs["a_x"].copy()
        q[n // 2:] = np.radians(20.0)
        a_x[n // 2:] = 99.0
        poisoned = sysid.Dataset(structure="static", t=static.t,
                                 inputs=dict(static.inputs),
                                 outputs={**static.outputs, "q": q, "a_x": a_x})
        guess, diag = sysid.fit_static_curves([poisoned], params.constants)
        assert diag["n_quasi_static"] <= n // 2
        assert guess.c_d0 == pytest.approx(params.open_loop.c_d0, rel=1e-6)

    def test_default_noise_keeps_held_samples(self, params):
        """The rate gate scales with the default rate noise, so a sweep noised
        at the default sigmas keeps its held samples and still fits."""
        static = sysid.add_output_noise(sysid.make_static_dataset(params, hold_time=0.25),
                                        seed=1)
        guess, diag = sysid.fit_static_curves([static], params.constants)
        assert diag["n_quasi_static"] >= 0.95 * diag["n_samples"]
        assert np.all(np.isfinite(guess.as_array()))

    def test_single_alpha_is_rank_deficient(self, params):
        static = sysid.make_static_dataset(params, v_points=[13.5],
                                           gamma_points=[0.0], hold_time=0.5)
        with pytest.raises(sysid.RankDeficiencyError):
            sysid.fit_static_curves([static], params.constants)


class TestEstimate:
    def test_noiseless_recovery_cl(self, params, cl_sets):
        init = sysid.perturb_params(params.closed_loop, 0.2, seed=3)
        report = sysid.estimate("cl", init, cl_sets)
        assert report.converged
        rel = np.abs(report.params / params.closed_loop.as_array() - 1.0)
        assert np.max(rel) <= 1e-3

    def test_noiseless_recovery_ol(self, params, ol_sets):
        init = sysid.perturb_params(params.open_loop, 0.2, seed=5)
        report = sysid.estimate("ol", init, ol_sets, constants=params.constants)
        assert report.converged
        rel = np.abs(report.params / params.open_loop.as_array() - 1.0)
        assert np.max(rel) <= 1e-3

    def test_truth_init_converges_without_steps(self, params, cl_sets):
        report = sysid.estimate("cl", params.closed_loop.as_array(), cl_sets)
        assert report.converged
        assert report.n_iter == 0

    def test_divergent_init_reports_failure_flag(self, params, cl_sets):
        bad = params.closed_loop.as_array().copy()
        bad[2] = -bad[2] * 1e6  # wildly unstable attitude gain
        report = sysid.estimate("cl", bad, cl_sets, max_iter=3)
        assert not report.converged or not np.isfinite(report.cost) \
            or report.cost > 1e3

    def test_gradient_matches_central_difference(self, params, cl_sets):
        """LM's internal forward-difference gradient against a central oracle."""
        vec = params.closed_loop.as_array() * 1.03
        r0 = sysid.residual_vector("cl", vec, cl_sets)
        grad_fd = lm_jacobian("cl", vec, cl_sets).T @ r0

        grad_cd = np.empty_like(vec)
        for i in range(vec.size):
            h = max(1e-6 * abs(vec[i]), 1e-9)
            up, dn = vec.copy(), vec.copy()
            up[i] += h
            dn[i] -= h
            cost_up = sysid.output_error_cost("cl", up, cl_sets)
            cost_dn = sysid.output_error_cost("cl", dn, cl_sets)
            # J^T r = 0.5 d(cost)/dp for cost = r^T r
            grad_cd[i] = (cost_up - cost_dn) / (4 * h)
        rel = np.abs(grad_fd - grad_cd) / np.maximum(np.abs(grad_cd), 1e-12)
        assert np.max(rel) <= 1e-5

    def test_decoupling_cl_ignores_ol_params(self, params, cl_sets):
        """The attitude-structure residual does not depend on the airframe
        constants that the force balance reads."""
        truth = params.closed_loop.as_array()
        base = sysid.residual_vector("cl", truth, cl_sets)
        other = sysid.residual_vector("cl", truth, cl_sets, constants=md.PhysicalConstants(
            m=4.1, g=9.79, s_wing=0.55, rho_air=1.05))
        assert base.tobytes() == other.tobytes()
        assert base @ base <= 1e-20

    def test_covariance_at_returned_params(self, params, cl_sets):
        """The reported std comes from the Jacobian at the returned
        parameters, also when the fit stops right after an accepted step."""
        init = sysid.perturb_params(params.closed_loop, 0.2, seed=3)
        report = sysid.estimate("cl", init, cl_sets, max_iter=1)
        assert report.n_iter == 1
        vec = report.params
        r0 = sysid.residual_vector("cl", vec, cl_sets)
        jac = lm_jacobian("cl", vec, cl_sets)
        cov = (r0 @ r0) / (r0.size - vec.size) * np.linalg.inv(jac.T @ jac)
        np.testing.assert_allclose(report.param_std, np.sqrt(np.diag(cov)), rtol=1e-9)

    def test_trials_and_jacobian_batches_call_residual_vector(self, params, ol_sets,
                                                               monkeypatch):
        """Every trial is one module-level `residual_vector` call with a 1-D
        result, and every Jacobian one with a 2-D result whose first column
        is the point itself, so no difference mixes the float integrator
        with the column one."""
        calls = []
        original = sysid.residual_vector

        def spy(structure, p, *args, **kwargs):
            out = original(structure, p, *args, **kwargs)
            calls.append((np.array(p, copy=True), out))
            return out

        monkeypatch.setattr(sysid, "residual_vector", spy)
        init = sysid.perturb_params(params.open_loop, 0.2, seed=5)
        report = sysid.estimate("ol", init, ol_sets, constants=params.constants, max_iter=2)
        assert report.n_iter == 2
        singles = [p for p, out in calls if out.ndim == 1]
        batches = [p for p, out in calls if out.ndim == 2]
        assert len(singles) >= 3 and all(p.shape == (10,) for p in singles)
        # one per iteration, and one at the returned point for the covariance
        assert len(batches) == 3
        for p in batches:
            assert p.shape == (10, 11)
            steps = p[:, 1:] - p[:, :1]
            assert np.count_nonzero(steps) == 10 and np.all(np.diag(steps) > 0)
        assert batches[-1][:, 0].tobytes() == report.params.tobytes()

    def test_fit_bytes_do_not_follow_blas_threads(self):
        """Noisy fits of both structures give the same params, covariance
        and cost bytes at one and at two BLAS threads: the estimator's
        reductions are fixed-order `einsum`s."""
        outputs = [run_at_thread_count(_FIT_SNIPPET, threads=threads) for threads in (1, 2)]
        assert outputs[0].count("\n") == 2
        assert outputs[0] == outputs[1]

    def test_identifiable_mask_flags_weak_directions(self, params, ol_sets):
        noisy = [sysid.add_output_noise(ds, seed=7 + i) for i, ds in enumerate(ol_sets)]
        init = sysid.perturb_params(params.open_loop, 0.15, seed=11)
        report = sysid.estimate("ol", init, noisy, constants=params.constants,
                                grad_tol=1e-6)
        mask = sysid.identifiable_mask(report)
        names = np.array(report.param_names)
        # the quadratic lift curvature is structurally weak at this noise level
        assert "c_lalpha2" not in set(names[mask])
        # the dominant lift coefficients are comfortably identifiable
        assert {"c_l0", "c_lalpha"}.issubset(set(names[mask]))


class TestValidateAndSplit:
    def test_truth_rmse_is_noise_floor(self, params, cl_sets):
        noisy = [sysid.add_output_noise(ds, seed=21 + i) for i, ds in enumerate(cl_sets)]
        rmse = sysid.validate("cl", params.closed_loop.as_array(), noisy)
        for name, val in rmse.items():
            sigma = sysid.DEFAULT_CHANNEL_WEIGHTS[name]
            assert 0.8 * sigma < val < 1.2 * sigma

    def test_one_pass_matches_per_dataset_oracle(self, params, ol_sets):
        """The one-pass validation keeps each dataset's accumulation order,
        so it equals, bit for bit, one simulation per dataset; the ol suite
        mixes 561-sample maneuvers with the 320-sample static sweep."""
        assert sorted({ds.t.size for ds in ol_sets}) == [320, 561]
        vec = params.open_loop.as_array() * 1.03
        sq_sum = dict.fromkeys(sysid.OL_OUTPUTS, 0.0)
        for ds in ol_sets:
            sim = sysid.simulate_structure("ol", vec, ds, params.constants)
            for i, name in enumerate(sysid.OL_OUTPUTS):
                err = sim[i] - ds.outputs[name]
                sq_sum[name] += float(err @ err)
        count = sum(ds.t.size for ds in ol_sets)
        oracle = {name: float(np.sqrt(val / count)) for name, val in sq_sum.items()}
        assert sysid.validate("ol", vec, ol_sets, params.constants) == oracle

    def test_split_bookkeeping(self, cl_sets):
        sets = cl_sets * 3  # 12 experiment sets
        train, val = train_validate_split(sets, 0.7, seed=1)
        assert len(train) == round(0.7 * len(sets))
        assert len(train) + len(val) == len(sets)

    def test_replay_bounded_for_stable_params(self, params):
        ff = sysid.make_freeform_dataset(params, duration=60.0, seed=4)
        assert ff.t[-1] >= 60.0
        result = sysid.open_loop_replay(params, ff)
        assert result["bounded"]
        assert result["rmse"]["v_a"] == pytest.approx(0.0, abs=1e-9)


class TestDatasetCsv:
    def test_round_trip(self, params, tmp_path, cl_sets):
        path = tmp_path / "cl_set.csv"
        sysid.save_dataset(cl_sets[0], path)
        loaded = sysid.load_dataset(path)
        assert loaded.structure == "cl"
        np.testing.assert_allclose(loaded.t, cl_sets[0].t, atol=0)
        for name in sysid.CL_INPUTS:
            np.testing.assert_allclose(loaded.inputs[name], cl_sets[0].inputs[name],
                                       atol=0)
        for name in sysid.CL_OUTPUTS:
            np.testing.assert_allclose(loaded.outputs[name], cl_sets[0].outputs[name],
                                       atol=0)

    @pytest.mark.parametrize("body", [
        "structure=cl\ntime,in:phi_ref,out:phi\n",
        "structure=cl\ntime,in:phi_ref,out:phi\n0,0,0\n0.025,0\n",
        "structure=cl\ntime,in:phi_ref,out:phi\n0,0,0\n0.025,x,0\n",
        "structure=cl\ntime,in:phi_ref,out:phi\n0,0,0\n",
        "structure=cl\ntime,in:phi_ref,out:phi\n0,0,0\n-0.025,0,0\n-0.05,0,0\n",
    ], ids=["header_only", "ragged_row", "not_a_number", "single_row", "decreasing_time"])
    def test_malformed_file_names_its_path(self, tmp_path, body):
        path = tmp_path / "bad_set.csv"
        path.write_text(body)
        with pytest.raises(sysid.SysidError, match="bad_set.csv"):
            sysid.load_dataset(path)

    def test_nonuniform_sampling_rejected(self):
        """An uneven time axis, and an even one that does not increase, which
        the simulators would integrate backwards or not at all."""
        for t, message in ((np.array([0.0, 0.1, 0.3]), "uniformly sampled"),
                           (-0.025 * np.arange(10), "must increase"),
                           (np.zeros(4), "must increase")):
            with pytest.raises(ValueError, match=message):
                sysid.Dataset(structure="cl", t=t, inputs={}, outputs={})

    def test_report_text_renders(self, params, cl_sets):
        report = sysid.estimate("cl", params.closed_loop.as_array(), cl_sets)
        text = sysid.report_text(report)
        assert "structure: cl" in text
        assert "l_ephi" in text
