"""Tests for the grey-box identification pipeline."""

import numpy as np
import pytest

from fwnmpc import model as md
from fwnmpc import sysid
from oracles import train_validate_split


@pytest.fixture(scope="module")
def params():
    return md.default_params()


@pytest.fixture(scope="module")
def cl_sets(params):
    return sysid.make_training_sets(params, "cl")


@pytest.fixture(scope="module")
def ol_sets(params):
    return sysid.make_training_sets(params, "ol")


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
        for p in (base * 1.05, batch):
            got = sysid.residual_vector("cl", p, sets)
            oracle = np.concatenate([sysid.residual_vector("cl", p, [ds]) for ds in sets])
            assert got.tobytes() == oracle.tobytes()
        n_short = 5 * short.t.size
        assert np.all(np.isfinite(got[:n_short]))
        assert not np.all(np.isfinite(got[n_short:, 1]))


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
        steps = np.maximum(5e-8 * np.abs(vec), 1e-10)  # mirror the LM internals
        batch = np.repeat(vec[:, None], vec.size, axis=1)
        batch[np.arange(vec.size), np.arange(vec.size)] += steps
        jac = (sysid.residual_vector("cl", batch, cl_sets) - r0[:, None]) / steps
        grad_fd = jac.T @ r0

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
        steps = np.maximum(5e-8 * np.abs(vec), 1e-10)  # mirror the LM internals
        batch = np.repeat(vec[:, None], vec.size, axis=1)
        batch[np.arange(vec.size), np.arange(vec.size)] += steps
        jac = (sysid.residual_vector("cl", batch, cl_sets) - r0[:, None]) / steps
        cov = (r0 @ r0) / (r0.size - vec.size) * np.linalg.inv(jac.T @ jac)
        np.testing.assert_allclose(report.param_std, np.sqrt(np.diag(cov)), rtol=1e-9)

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
    ], ids=["header_only", "ragged_row", "not_a_number", "single_row"])
    def test_malformed_file_names_its_path(self, tmp_path, body):
        path = tmp_path / "bad_set.csv"
        path.write_text(body)
        with pytest.raises(sysid.SysidError, match="bad_set.csv"):
            sysid.load_dataset(path)

    def test_nonuniform_sampling_rejected(self):
        with pytest.raises(ValueError):
            sysid.Dataset(structure="cl", t=np.array([0.0, 0.1, 0.3]),
                          inputs={}, outputs={})

    def test_report_text_renders(self, params, cl_sets):
        report = sysid.estimate("cl", params.closed_loop.as_array(), cl_sets)
        text = sysid.report_text(report)
        assert "structure: cl" in text
        assert "l_ephi" in text
