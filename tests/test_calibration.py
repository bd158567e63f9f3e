"""Least squares force mapping, the RMSE report, and the bench jig."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amphisense import calibration as cal
from amphisense import magnetics as mg


# linear elastic ground truth used by the jig tests: axial compression plus
# small-angle pitch/yaw displacement of a magnet resting 4 mm under the sensor
P0, C_F, C_P, C_Y = 4.0, 0.0305, 0.003636, 0.003636


def foot_transduce(w: cal.FootWrench):
    return np.stack([P0 - C_F * w.f_x, P0 * C_Y * w.tau_yaw, P0 * C_P * w.tau_pitch],
                    axis=-1)


FOOT_PARAMS = mg.DipoleParams(n_t=50.0)

FLOW_K, FLOW_LEVER = 25.0, 30.0
FLOW_RHO, FLOW_DZ0, FLOW_A0, FLOW_NT = 3.0, 4.0, math.radians(20.0), 120.0
FLOW_PARAMS = mg.DipoleParams(n_t=FLOW_NT)


def flow_transduce(force):
    th = force * FLOW_LEVER / FLOW_K
    return mg.FlowPose(
        p_x=FLOW_RHO * math.cos(th),
        p_y=FLOW_RHO * math.sin(th),
        h_y=math.sin(FLOW_A0 + th),
        d_z0=FLOW_DZ0,
    )


def quad_basis(X):
    """The foot models' 10-term basis at each row of X."""
    return cal._feature_matrix("foot", X)


class TestFeatures:
    def test_origin(self):
        np.testing.assert_array_equal(
            quad_basis([[0, 0, 0]]), [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]
        )

    def test_ones(self):
        np.testing.assert_array_equal(quad_basis([[1, 1, 1]]), np.ones((1, 10)))

    def test_direct_expansion(self):
        np.testing.assert_array_equal(
            quad_basis([[2, 0, -1], [0, 0, 0]]),
            [[1, 2, 0, -1, 4, 0, 1, 0, -2, 0], [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]
        )

    def test_flow_basis(self):
        np.testing.assert_array_equal(cal._feature_matrix("flow", [[2, -3]]),
                                      [[1, 2, -3, 4, 9, -6]])

    # the bases written out, each with its feature names, as the reference
    # for the basis and names that each kind's coordinates generate
    WRITTEN_OUT = {
        "foot": (("1", "p_x", "p_y", "p_z", "p_x^2", "p_y^2", "p_z^2",
                  "p_x*p_y", "p_x*p_z", "p_y*p_z"),
                 lambda x, y, z: np.column_stack(
                     [np.ones(len(x)), x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])),
        "flow": (("1", "dp_x", "dp_y", "dp_x^2", "dp_y^2", "dp_x*dp_y"),
                 lambda x, y: np.column_stack([np.ones(len(x)), x, y, x * x, y * y, x * y])),
    }

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["foot", "flow"]),
           st.lists(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3),
                    min_size=1, max_size=20))
    def test_generated_basis_equals_written_out(self, kind, rows):
        names, basis = self.WRITTEN_OUT[kind]
        X = np.array(rows)[:, :3 if kind == "foot" else 2]
        assert cal.KINDS[kind].features == names
        np.testing.assert_array_equal(cal._feature_matrix(kind, X), basis(*X.T))


def _dataset_from(X, Y, kind="foot", cycle="c0"):
    n = len(X)
    return cal.CalibrationDataset(kind, X, Y, [cycle] * n, ["synth"] * n)


class TestFit:
    def test_exact_recovery_single_term(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(200, 3))
        Y = np.column_stack([2.0 * X[:, 0] ** 2, np.zeros(200), np.zeros(200)])
        model = cal.fit_poly(_dataset_from(X, Y))
        assert model.coef[0, 4] == pytest.approx(2.0, abs=1e-9)
        others = np.delete(model.coef[0], 4)
        assert np.max(np.abs(others)) < 1e-9
        # and the fitted model evaluates the pure square correctly
        tau_pitch = cal.apply_poly_batch(model, [[3.0, 0.0, 0.0]])[0, 0]
        assert tau_pitch == pytest.approx(18.0, abs=1e-8)

    def test_recovery_within_standard_errors(self):
        rng = np.random.default_rng(42)
        truth = rng.normal(size=(3, 10))
        X = rng.uniform(-1.5, 1.5, size=(500, 3))
        F = quad_basis(X)
        sigma = 0.01
        Y = F @ truth.T + rng.normal(scale=sigma, size=(500, 3))
        model = cal.fit_poly(_dataset_from(X, Y))
        se = sigma * np.sqrt(np.diag(np.linalg.inv(F.T @ F)))
        assert np.all(np.abs(model.coef - truth) <= 3.0 * se[None, :])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["foot", "flow"]), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-5.0, 5.0), min_size=30, max_size=30))
    def test_exact_recovery_of_generated_quadratic(self, kind, seed, flat):
        # noiseless outputs of a quadratic truth, with the basis written out
        # here: the fit returns it up to rounding; X on [-2, 2] keeps the
        # feature matrix well conditioned, and 1e-9 is far above its rounding
        dims, n_out, k = (3, 3, 10) if kind == "foot" else (2, 1, 6)
        truth = np.array(flat[:n_out * k]).reshape(n_out, k)
        X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(60, dims))
        if kind == "foot":
            x, y, z = X.T
            F = np.column_stack([x ** 0, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z])
        else:
            x, y = X.T
            F = np.column_stack([x ** 0, x, y, x * x, y * y, x * y])
        Y = F @ truth.T
        model = cal.fit_poly(_dataset_from(X, Y, kind=kind))
        np.testing.assert_allclose(model.coef, truth, rtol=0, atol=1e-9)
        assert np.all(model.train_rmse < 1e-9)

    def test_insufficient_samples(self):
        X = np.zeros((5, 3))
        Y = np.zeros((5, 3))
        with pytest.raises(cal.InsufficientSamplesError):
            cal.fit_poly(_dataset_from(X, Y))

    def test_rank_deficiency_names_features(self):
        # axis-aligned samples never excite the p_y*p_z cross term
        rng = np.random.default_rng(1)
        pts = []
        for axis in range(3):
            for _ in range(40):
                v = np.zeros(3)
                v[axis] = rng.uniform(-2, 2)
                pts.append(v)
        X = np.array(pts)
        Y = X @ rng.normal(size=(3, 3))
        with pytest.raises(cal.RankDeficiencyError) as ei:
            cal.fit_poly(_dataset_from(X, Y))
        assert "p_y*p_z" in str(ei.value)

    def test_ols_optimality(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(80, 3))
        Y = rng.normal(size=(80, 3))
        ds = _dataset_from(X, Y)
        model = cal.fit_poly(ds)
        F = quad_basis(X)
        sse0 = np.sum((Y - F @ model.coef.T) ** 2)
        for idx in [(0, 0), (1, 4), (2, 9)]:
            for eps in (1e-4, -1e-4):
                pert = model.coef.copy()
                pert[idx] += eps
                assert np.sum((Y - F @ pert.T) ** 2) > sse0


class TestApplyEvaluate:
    def test_zero_model(self):
        model = cal.PolyModel(kind="foot", coef=np.zeros((3, 10)), train_rmse=np.zeros(3))
        out = cal.apply_poly_batch(model, [[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_rmse_zero_for_exact_model(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(60, 3))
        truth = rng.normal(size=(3, 10))
        F = quad_basis(X)
        Y = F @ truth.T
        model = cal.fit_poly(_dataset_from(X, Y, cycle="train"))
        ev = _dataset_from(X[:20], Y[:20], cycle="eval")
        rep = cal.evaluate_rmse(model, ev)
        assert all(v < 1e-10 for v in rep.rmse.values())

    def test_rmse_constant_offset(self):
        model = cal.PolyModel(kind="foot", coef=np.zeros((3, 10)), train_rmse=np.zeros(3))
        X = np.random.default_rng(0).uniform(-1, 1, size=(30, 3))
        Y = np.full((30, 3), [1.5, -2.0, 0.25])
        rep = cal.evaluate_rmse(model, _dataset_from(X, Y))
        assert rep.rmse["tau_pitch"] == pytest.approx(1.5)
        assert rep.rmse["tau_yaw"] == pytest.approx(2.0)
        assert rep.rmse["f_x"] == pytest.approx(0.25)

    def test_cycle_overlap_rejected(self):
        X = np.random.default_rng(0).uniform(-1, 1, size=(40, 3))
        Y = np.zeros((40, 3))
        ds = _dataset_from(X, Y, cycle="shared")
        model = cal.fit_poly(ds)
        with pytest.raises(cal.CycleOverlapError):
            cal.evaluate_rmse(model, ds)

    def test_empty_eval_rejected(self):
        model = cal.PolyModel(kind="foot", coef=np.zeros((3, 10)), train_rmse=np.zeros(3))
        empty = cal.CalibrationDataset("foot", np.empty((0, 3)), np.empty((0, 3)), [], [])
        with pytest.raises(cal.EmptyEvalError):
            cal.evaluate_rmse(model, empty)


class TestReferenceTorqueAndFinAngle:
    def test_reference_torque(self):
        assert cal.reference_torque(1.0, 10.0) == 10.0
        assert cal.reference_torque(0.0, 5.0) == 0.0
        assert cal.reference_torque(0.5, 19.0) == pytest.approx(9.5)

    def test_lever_positive(self):
        with pytest.raises(cal.CalibrationError):
            cal.reference_torque(1.0, 0.0)

    def test_fin_angle_identity_and_rotation(self):
        rest = mg.FlowPose(3.0, 0.0, 0.3, 4.0)
        assert cal.fin_angle(rest, rest) == 0.0
        th = math.pi / 6
        rot = mg.FlowPose(3.0 * math.cos(th), 3.0 * math.sin(th), 0.3, 4.0)
        assert cal.fin_angle(rot, rest) == pytest.approx(th, abs=1e-12)

    def test_fin_angle_scale_invariance(self):
        rest = mg.FlowPose(2.0, 1.0, 0.0, 4.0)
        pose = mg.FlowPose(-1.0, 2.2, 0.0, 4.0)
        a1 = cal.fin_angle(pose, rest)
        rest2 = mg.FlowPose(4.0, 2.0, 0.0, 4.0)
        pose2 = mg.FlowPose(-2.0, 4.4, 0.0, 4.0)
        assert cal.fin_angle(pose2, rest2) == pytest.approx(a1, abs=1e-12)

    def test_fin_angle_full_range(self):
        rest = mg.FlowPose(3.0, 0.0, 0.0, 4.0)
        for th in np.linspace(-math.pi + 1e-6, math.pi, 25):
            pose = mg.FlowPose(3.0 * math.cos(th), 3.0 * math.sin(th), 0.0, 4.0)
            assert cal.fin_angle(pose, rest) == pytest.approx(th, abs=1e-12)

    def test_fin_angle_degenerate(self):
        rest = mg.FlowPose(3.0, 0.0, 0.0, 4.0)
        with pytest.raises(mg.DegeneratePoseError):
            cal.fin_angle(mg.FlowPose(0.1, 0.0, 0.0, 4.0), rest)


class TestJig:
    def test_protocol_shape(self):
        rng = np.random.default_rng(0)
        cfg = cal.JigConfig(n_train=10, n_eval=2)
        ds = cal.simulate_jig(foot_transduce, FOOT_PARAMS, cfg, rng)
        assert len(ds.cycles) == 4 * 12
        train, ev = ds.train_eval_split(n_eval=2)
        assert len(train.cycles) == 4 * 10 and len(ev.cycles) == 4 * 2
        assert not set(train.cycles) & set(ev.cycles)
        assert len(ds) == 4 * 12 * cfg.samples_per_cycle

    def test_rows_counts_a_units_bench(self):
        # what calibrate's size bound counts, for each kind's bench
        for cfg, transduce, params in (
                (cal.JigConfig(n_train=3, n_eval=1), foot_transduce, FOOT_PARAMS),
                (cal.JigConfig(kind="flow", samples_per_cycle=9), flow_transduce, FLOW_PARAMS)):
            ds = cal.simulate_jig(transduce, params, cfg, np.random.default_rng(0))
            assert len(ds) == cfg.rows

    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan")])
    def test_noise_sigma_must_be_non_negative(self, sigma):
        with pytest.raises(cal.CalibrationError):
            cal.JigConfig(noise_sigma=sigma)

    def test_noiseless_refit_is_exact(self):
        rng = np.random.default_rng(5)
        ds = cal.simulate_jig(
            foot_transduce, FOOT_PARAMS, cal.JigConfig(noise_sigma=0.0), rng
        )
        train, ev = ds.train_eval_split()
        rep = cal.evaluate_rmse(cal.fit_poly(train), ev)
        assert all(v < 1e-6 for v in rep.rmse.values())

    def test_noise_band_frozen_config(self):
        # frozen bench defaults; the bands are wide relative to seed scatter
        rng = np.random.default_rng(0)
        ds = cal.simulate_jig(foot_transduce, FOOT_PARAMS, cal.JigConfig(), rng)
        train, ev = ds.train_eval_split()
        rep = cal.evaluate_rmse(cal.fit_poly(train), ev)
        assert 1.26 <= rep.mean_torque_rmse <= 2.5
        assert 0.24 <= rep.rmse["f_x"] <= 0.34

    def test_single_axis_only_schedule_is_deficient(self):
        rng = np.random.default_rng(1)
        cfg = cal.JigConfig(load_types=("fx", "pitch", "yaw"), noise_sigma=0.0)
        ds = cal.simulate_jig(foot_transduce, FOOT_PARAMS, cfg, rng)
        train, _ = ds.train_eval_split()
        with pytest.raises(cal.RankDeficiencyError):
            cal.fit_poly(train)

    def test_foot_jig_below_noise_floor_raises(self):
        # a magnet 100 mm away gives 1e-4 mT, under the 1e-3 mT floor
        cfg = cal.JigConfig(noise_sigma=0.0)
        with pytest.raises(mg.BelowNoiseFloorError):
            cal.simulate_jig(lambda w: np.tile([100.0, 0.0, 0.0], (len(w.f_x), 1)),
                             FOOT_PARAMS, cfg, np.random.default_rng(0))

    def test_foot_jig_noise_is_drawn_per_point(self):
        # one noise block equals per-point draws in schedule order, so the
        # noiseless sweep plus those draws inverts to the same estimates
        cfg = cal.JigConfig(n_average=3)
        ds = cal.simulate_jig(foot_transduce, FOOT_PARAMS, cfg, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        B = np.array([mg.dipole_flux_radial(foot_transduce(cal.FootWrench(*y)), FOOT_PARAMS)
                      for y in ds.Y])
        noise = np.array([rng.normal(scale=cfg.noise_sigma, size=(3, 3)).mean(axis=0)
                          for _ in B])
        want = np.array([mg.invert_foot_flux(b, FOOT_PARAMS) for b in B + noise])
        np.testing.assert_allclose(ds.X, want, rtol=1e-13, atol=1e-13)

    def test_flow_jig_linear_angle_force(self):
        rng = np.random.default_rng(2)
        cfg = cal.JigConfig(kind="flow", n_average=8)
        ds = cal.simulate_jig(flow_transduce, FLOW_PARAMS, cfg, rng)
        rest = flow_transduce(0.0)
        angles = np.array(
            [
                cal.fin_angle(
                    mg.FlowPose(x[0] + rest.p_x, x[1] + rest.p_y, rest.h_y, FLOW_DZ0),
                    rest,
                )
                for x in ds.X
            ]
        )
        forces = ds.Y[:, 0]
        slope, intercept = np.polyfit(forces, angles, 1)
        pred = slope * forces + intercept
        ss_res = np.sum((angles - pred) ** 2)
        ss_tot = np.sum((angles - angles.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99
        assert slope == pytest.approx(FLOW_LEVER / FLOW_K, rel=0.05)

    def test_flow_jig_renders_one_cycle(self):
        # every cycle repeats the same loads: the rest pose, then one cycle
        calls = []

        def transduce(force):
            calls.append(force)
            return flow_transduce(force)

        cfg = cal.JigConfig(kind="flow", n_train=3, n_eval=2)
        ds = cal.simulate_jig(transduce, FLOW_PARAMS, cfg, np.random.default_rng(5))
        assert len(ds) == 5 * cfg.samples_per_cycle
        assert len(calls) == 1 + cfg.samples_per_cycle

    def test_flow_jig_degenerate_pose_raises(self):
        # near the load peak the magnet sits 0.5 mm from the sensor, under
        # the 1 mm min_distance
        def transduce(force):
            return mg.FlowPose(0.3, 0.0, 0.0, 0.4) if force > 0.25 else flow_transduce(force)
        with pytest.raises(mg.DegeneratePoseError):
            cal.simulate_jig(transduce, FLOW_PARAMS, cal.JigConfig(kind="flow"),
                             np.random.default_rng(0))

    def test_flow_jig_fit_and_rmse(self):
        rng = np.random.default_rng(3)
        cfg = cal.JigConfig(kind="flow", n_average=8)
        ds = cal.simulate_jig(flow_transduce, FLOW_PARAMS, cfg, rng)
        train, ev = ds.train_eval_split()
        rep = cal.evaluate_rmse(cal.fit_poly(train), ev)
        assert rep.rmse["force"] < 0.05

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["foot", "flow"]), n_units=st.integers(1, 6),
           n_average=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_jigs_equal_one_unit_jigs(self, kind, n_units, n_average, seed):
        # each unit of one bench pass is the lone bench with its generator,
        # bit for bit; six flow units (2952 rows) span three Newton blocks
        transduce, params = ((foot_transduce, FOOT_PARAMS) if kind == "foot"
                             else (flow_transduce, FLOW_PARAMS))
        cfg = cal.JigConfig(kind=kind, n_average=n_average)
        many = cal.simulate_jigs(transduce, params, cfg,
                                 [np.random.default_rng(seed + i) for i in range(n_units)])
        assert len(many) == n_units
        for i, ds in enumerate(many):
            one = cal.simulate_jig(transduce, params, cfg, np.random.default_rng(seed + i))
            np.testing.assert_array_equal(ds.X, one.X)
            np.testing.assert_array_equal(ds.Y, one.Y)
            assert ds.cycle_ids == one.cycle_ids and ds.load_types == one.load_types

    def test_jigs_without_units_render_nothing(self):
        calls = []
        assert cal.simulate_jigs(calls.append, FLOW_PARAMS, cal.JigConfig(kind="flow"), []) == []
        assert calls == []

    def test_flow_jig_stall_names_its_unit_and_sweep_point(self):
        # a noise draw far off the model image stalls that row alone; the
        # error counts the sweep point within the unit that drew it
        class SpikeRng:
            def __init__(self, point):
                self.point = point

            def normal(self, scale, size):
                z = np.zeros(size)
                z[self.point] = 1e3
                return z

        cfg = cal.JigConfig(kind="flow", n_average=2)
        rngs = [np.random.default_rng(0), SpikeRng(17), SpikeRng(5)]
        with pytest.raises(mg.NoConvergenceError, match=r"sweep point 17 of unit 1$"):
            cal.simulate_jigs(flow_transduce, FLOW_PARAMS, cfg, rngs)
        with pytest.raises(mg.NoConvergenceError, match=r"sweep point 5 of unit 0$"):
            cal.simulate_jig(flow_transduce, FLOW_PARAMS, cfg, SpikeRng(5))


class TestSerialization:
    def test_model_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(50, 3))
        Y = rng.normal(size=(50, 3))
        model = cal.fit_poly(_dataset_from(X, Y))
        path = tmp_path / "model.json"
        model.to_json(path)
        back = cal.PolyModel.from_json(path)
        np.testing.assert_array_equal(back.coef, model.coef)
        assert back.kind == "foot"
        assert back.train_cycles == model.train_cycles
