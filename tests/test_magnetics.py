"""Dipole models, inversions, and the low-pass stage.

Expected values marked as frozen oracles were computed with 40-digit mpmath
arithmetic from the same closed-form expressions, written out term by term.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amphisense import magnetics as mg


PARAMS = mg.DipoleParams()

# fin geometry used throughout: magnet 3 mm off-axis, 4 mm below the sensor,
# magnetization tilted 20 deg from the spoke
FLOW_RHO = 3.0
FLOW_DZ0 = 4.0
FLOW_ALPHA0 = math.radians(20.0)
FLOW_NT = 120.0
FLOW_PARAMS = mg.DipoleParams(n_t=FLOW_NT)


def fin_pose(theta):
    return mg.FlowPose(
        p_x=FLOW_RHO * math.cos(theta),
        p_y=FLOW_RHO * math.sin(theta),
        h_y=math.sin(FLOW_ALPHA0 + theta),
        d_z0=FLOW_DZ0,
    )


FLOW_GUESS = fin_pose(0.0)


class TestDipoleForward:
    def test_general_pose_frozen_oracle(self):
        pose = mg.MagnetPose(p=[1.5, -2.0, 3.0], h=[0.0, 0.6, 0.8])
        b = mg.dipole_flux(pose, PARAMS)
        expect = [0.29729606090304252, -0.90014640662310096, -0.077076756530418431]
        np.testing.assert_allclose(b, expect, rtol=1e-14)

    def test_radial_pose_frozen_oracle(self):
        p = np.array([2.0, 1.0, -3.5])
        b = mg.dipole_flux_radial(p, PARAMS)
        expect = [-0.67212770426381012, -0.33606385213190506, 1.1762234824616677]
        np.testing.assert_allclose(b, expect, rtol=1e-14)

    def test_radial_specialization_matches_general(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.uniform(-6, 6, size=3)
            if np.linalg.norm(p) < 1.5:
                continue
            h = -p / np.linalg.norm(p)
            b_gen = mg.dipole_flux(mg.MagnetPose(p=p, h=h), PARAMS)
            b_rad = mg.dipole_flux_radial(p, PARAMS)
            np.testing.assert_allclose(b_rad, b_gen, rtol=1e-12, atol=1e-15)

    def test_inverse_cube_scaling(self):
        # doubling the distance along a ray divides the flux by 8
        p = np.array([1.2, -0.8, 2.1])
        b1 = mg.dipole_flux_radial(p, PARAMS)
        b2 = mg.dipole_flux_radial(2.0 * p, PARAMS)
        np.testing.assert_allclose(np.linalg.norm(b1) / np.linalg.norm(b2), 8.0, rtol=1e-12)

    def test_flux_antiparallel_to_offset_in_radial_geometry(self):
        p = np.array([0.9, 2.0, -1.1])
        b = mg.dipole_flux_radial(p, PARAMS)
        cosang = np.dot(b, p) / (np.linalg.norm(b) * np.linalg.norm(p))
        assert cosang == pytest.approx(-1.0, abs=1e-12)

    def test_radial_over_rows_matches_single_poses(self):
        rng = np.random.default_rng(8)
        P = rng.uniform(1.5, 6.0, size=(200, 3)) * rng.choice([-1.0, 1.0], size=(200, 3))
        want = np.array([mg.dipole_flux_radial(p, PARAMS) for p in P])
        np.testing.assert_array_equal(mg.dipole_flux_radial(P, PARAMS), want)

    def test_too_close_raises(self):
        with pytest.raises(mg.DegeneratePoseError):
            mg.dipole_flux_radial([0.2, 0.2, 0.2], PARAMS)
        with pytest.raises(mg.DegeneratePoseError):
            mg.dipole_flux_radial([[3.0, 0.0, 0.0], [0.2, 0.2, 0.2]], PARAMS)
        with pytest.raises(mg.DegeneratePoseError):
            mg.dipole_flux(mg.MagnetPose(p=[0.1, 0.0, 0.3], h=[1.0, 0.0, 0.0]), PARAMS)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            mg.MagnetPose(p=[1.0, 2.0], h=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            mg.MagnetPose(p=[1.0, 2.0, 3.0], h=[1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            mg.MagnetPose(p=[1.0, np.nan, 0.0], h=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            mg.DipoleParams(n_t=-1.0)


class TestFootInversion:
    def test_round_trip_random_poses(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-8, 8, size=3)
            if np.linalg.norm(p) < 1.5 or np.linalg.norm(p) > 20:
                continue
            b = mg.dipole_flux_radial(p, PARAMS)
            p_rec = mg.invert_foot_flux(b, PARAMS)
            np.testing.assert_allclose(p_rec, p, rtol=1e-10, atol=1e-12)

    def test_distance_law(self):
        # |p| = (2 n_t / |B|)^(1/3) exactly
        p = np.array([3.0, -1.0, 2.0])
        b = mg.dipole_flux_radial(p, PARAMS)
        d = (2.0 * PARAMS.n_t / np.linalg.norm(b)) ** (1.0 / 3.0)
        assert d == pytest.approx(np.linalg.norm(p), rel=1e-12)

    def test_noise_floor_raises(self):
        with pytest.raises(mg.BelowNoiseFloorError):
            mg.invert_foot_flux([1e-5, 0.0, 0.0], PARAMS)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        ps = rng.uniform(1.8, 6.0, size=(64, 3)) * rng.choice([-1.0, 1.0], size=(64, 3))
        B = np.array([mg.dipole_flux_radial(p, PARAMS) for p in ps])
        rec = mg.invert_foot_flux_batch(B, PARAMS)
        np.testing.assert_allclose(rec, ps, rtol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=20))
    def test_batch_round_trip_above_floor(self, rows):
        # positions from just past min_distance to just inside the distance
        # where |B| = 2 n_t / |p|^3 reaches the noise floor
        u = np.array([r[:3] for r in rows])
        u[np.linalg.norm(u, axis=1) < 1e-3] = (1.0, 0.0, 0.0)
        d_lo = 1.001 * PARAMS.min_distance
        d_hi = 0.999 * (2.0 * PARAMS.n_t / PARAMS.noise_floor) ** (1.0 / 3.0)
        dist = d_lo + np.array([r[3] for r in rows]) * (d_hi - d_lo)
        P = u / np.linalg.norm(u, axis=1)[:, None] * dist[:, None]
        got = mg.invert_foot_flux_batch(mg.dipole_flux_radial(P, PARAMS), PARAMS)
        # a cube root and a fourth power lose a few ulps of the distance
        # (at most 1.7e-15 of it over 2e5 random positions)
        err = np.abs(got - P).max(axis=1)
        assert np.all(err <= 1e-13 * dist)

    def test_batch_nan_below_floor(self):
        B = np.array([[1e-5, 0.0, 0.0], [0.5, 0.1, -0.2]])
        rec = mg.invert_foot_flux_batch(B, PARAMS)
        assert np.isnan(rec[0]).all()
        assert np.isfinite(rec[1]).all()


class TestFlowForward:
    def test_frozen_oracle_17deg(self):
        b = mg.flow_flux(fin_pose(math.radians(17.0)), FLOW_PARAMS)
        expect = [0.16501210957988658, -0.2928924739402866, 1.2990310789744398]
        np.testing.assert_allclose(b, expect, rtol=1e-14)

    def test_matches_general_dipole(self):
        for thd in (-35.0, -10.0, 5.0, 28.0):
            fp = fin_pose(math.radians(thd))
            pose = mg.MagnetPose(p=[fp.p_x, fp.p_y, fp.d_z0], h=[fp.h_x, fp.h_y, 0.0])
            np.testing.assert_allclose(
                mg.flow_flux(fp, FLOW_PARAMS),
                mg.dipole_flux(pose, FLOW_PARAMS),
                rtol=1e-13,
            )

    def test_hy_bound_enforced(self):
        with pytest.raises(ValueError):
            mg.FlowPose(p_x=3.0, p_y=0.0, h_y=1.2, d_z0=4.0)


class TestFlowInversion:
    def test_rest_pose_round_trip(self):
        b = mg.flow_flux(FLOW_GUESS, FLOW_PARAMS)
        rec = mg.invert_flow_flux(b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)
        assert rec.p_x == pytest.approx(FLOW_GUESS.p_x, abs=1e-8)
        assert rec.p_y == pytest.approx(FLOW_GUESS.p_y, abs=1e-8)
        assert rec.h_y == pytest.approx(FLOW_GUESS.h_y, abs=1e-8)

    def test_sweep_round_trip_cold_start(self):
        # every fix seeded only from the rest pose; grid fallback must cover
        # the whole fin range
        for thd in np.arange(-40.0, 40.5, 1.0):
            th = math.radians(thd)
            fp = fin_pose(th)
            b = mg.flow_flux(fp, FLOW_PARAMS)
            rec = mg.invert_flow_flux(b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)
            th_rec = math.atan2(rec.p_y, rec.p_x)
            assert abs(th_rec - th) < 1e-6
            resid = np.linalg.norm(mg.flow_flux(rec, FLOW_PARAMS) - b)
            assert resid < 1e-10

    def test_batch_round_trip(self):
        ths = np.linspace(-0.9, 0.9, 301)
        Q = np.column_stack(
            [FLOW_RHO * np.cos(ths), FLOW_RHO * np.sin(ths), np.sin(FLOW_ALPHA0 + ths)]
        )
        B = mg.flow_flux_batch(Q, FLOW_DZ0, FLOW_NT)
        sols, ok = mg.invert_flow_flux_batch(B, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)
        assert ok.all()
        np.testing.assert_allclose(sols, Q, atol=1e-8)

    def test_noise_floor_raises(self):
        with pytest.raises(mg.NoConvergenceError):
            mg.invert_flow_flux([1e-6, 0.0, 0.0], FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)
        # the batch marks such a row unconverged instead
        b = np.vstack([mg.flow_flux(FLOW_GUESS, FLOW_PARAMS), [1e-6, 0.0, 0.0]])
        _, ok = mg.invert_flow_flux_batch(b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)
        assert ok.tolist() == [True, False]

    def test_off_image_flux_rejected_when_strict(self):
        # with B_x = B_y = 0 the model caps |B_z| below ~5.8 mT for this
        # geometry, so this point has no exact root; strict mode must refuse
        # rather than return the projection
        b = np.array([0.0, 0.0, 10.0])
        with pytest.raises(mg.NoConvergenceError):
            mg.invert_flow_flux(b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS)

    def test_off_image_flux_accepted_with_tolerance(self):
        true_th = 0.2
        b = mg.flow_flux(fin_pose(true_th), FLOW_PARAMS) + np.array([0.002, -0.001, 0.002])
        rec = mg.invert_flow_flux(
            b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS, resid_accept=0.05
        )
        th_rec = math.atan2(rec.p_y, rec.p_x)
        assert abs(th_rec - true_th) < 0.05

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-40.0, 40.0),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=150),
           st.floats(0.0, 0.005), st.integers(0, 2**32 - 1))
    def test_noisy_sweep_stays_on_physical_branch(self, start_deg, steps_deg, eps, seed):
        # a continuous sweep within +-40 deg, each flux axis off by at most
        # eps mT; the batch is seeded only from the rest pose
        th = np.radians(np.clip(start_deg + np.cumsum([0.0] + steps_deg), -40.0, 40.0))
        Q = np.column_stack(
            [FLOW_RHO * np.cos(th), FLOW_RHO * np.sin(th), np.sin(FLOW_ALPHA0 + th)]
        )
        noise = np.random.default_rng(seed).uniform(-eps, eps, size=Q.shape)
        B = mg.flow_flux_batch(Q, FLOW_DZ0, FLOW_NT) + noise
        sols, ok = mg.invert_flow_flux_batch(
            B, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS, resid_accept=max(5.0 * eps, 1e-9)
        )
        assert ok.all()
        # the hinge angle's gradient over flux has norm 290.6 deg/mT at every
        # angle of this geometry, so noise of norm <= sqrt(3) eps moves a fix
        # on the physical branch by at most 2.52 deg to first order; 3 deg
        # leaves room for the curvature
        th_hat = np.arctan2(sols[:, 1], sols[:, 0])
        assert np.max(np.abs(th_hat - th)) < math.radians(3.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-40.0, 40.0),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
           st.floats(0.0, 0.05), st.booleans(), st.integers(0, 2**32 - 1))
    def test_fix_independent_of_other_rows(self, start_deg, steps_deg, eps, lsq, seed):
        # a noisy sweep within +-40 deg inverted whole, in reversed or
        # shuffled order, and row by row gives the same bits and mask; with
        # lsq False the off-image rows stall, so the mask is mixed
        th = np.radians(np.clip(start_deg + np.cumsum([0.0] + steps_deg), -40.0, 40.0))
        Q = np.column_stack(
            [FLOW_RHO * np.cos(th), FLOW_RHO * np.sin(th), np.sin(FLOW_ALPHA0 + th)]
        )
        rng = np.random.default_rng(seed)
        B = mg.flow_flux_batch(Q, FLOW_DZ0, FLOW_NT) + rng.uniform(-eps, eps, size=Q.shape)
        accept = 5.0 * eps if lsq else 0.0

        def invert(b):
            return mg.invert_flow_flux_batch(b, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS,
                                             resid_accept=accept)

        sols, ok = invert(B)
        order = rng.permutation(len(B)) if seed % 2 else np.arange(len(B))[::-1]
        back = np.empty_like(sols)
        back[order], back_ok = invert(B[order])
        rows = [invert(b[None]) for b in B]
        for got, got_ok in ((back, back_ok[np.argsort(order)]),
                            (np.vstack([r[0] for r in rows]),
                             np.concatenate([r[1] for r in rows]))):
            assert got.tobytes() == sols.tobytes()
            assert got_ok.tolist() == ok.tolist()

    def test_filtered_noisy_stream(self):
        # the scenario signal path: raw flux + noise -> low-pass -> inversion
        rng = np.random.default_rng(7)
        t = np.arange(0.0, 4.0, 1e-3)
        th = np.deg2rad(40) * np.sin(2 * np.pi * 0.78 * t)
        Q = np.column_stack(
            [FLOW_RHO * np.cos(th), FLOW_RHO * np.sin(th), np.sin(FLOW_ALPHA0 + th)]
        )
        B = mg.flow_flux_batch(Q, FLOW_DZ0, FLOW_NT)
        B += rng.normal(scale=0.01, size=B.shape)
        Bf = mg.lowpass_trace(B, 1e-3)
        sols, ok = mg.invert_flow_flux_batch(
            Bf, FLOW_DZ0, FLOW_PARAMS, FLOW_GUESS, resid_accept=0.05
        )
        assert ok.all()
        th_hat = np.arctan2(sols[:, 1], sols[:, 0])
        th_lagged = mg.lowpass_trace(th, 1e-3)
        rmse = np.sqrt(np.mean((th_hat - th_lagged)[500:] ** 2))
        assert rmse < math.radians(1.0)


class TestLowPass:
    def test_alpha_and_tau_frozen(self):
        # from a zero first sample, the output after a unit sample is alpha
        alpha = mg.lowpass_trace(np.array([0.0, 1.0]), 1e-3)[1]
        assert alpha == pytest.approx(0.022119143858920179, rel=1e-15)
        tau = 1e-3 / alpha - 1e-3
        assert tau == pytest.approx(0.044209706414415371, rel=1e-15)

    def test_step_sequence_frozen_oracle(self):
        # y0 = 0 (first sample), then three unit samples
        y = mg.lowpass_trace(np.array([0.0, 1.0, 1.0, 1.0]), 1e-3)
        expect = [0.022119143858920179, 0.043749031192788753, 0.064900483937067251]
        for got, e in zip(y[1:], expect):
            assert got == pytest.approx(e, rel=1e-15)

    def test_bibo_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3.0, 5.0, size=(500, 3))
        y = mg.lowpass_trace(x, 1e-3)
        assert y.min() >= x.min() - 1e-12 and y.max() <= x.max() + 1e-12

    def test_dc_gain_unity(self):
        x = np.full((4000, 1), 1.7)
        y = mg.lowpass_trace(x, 1e-3)
        assert y[-1, 0] == pytest.approx(1.7, rel=1e-12)

    def test_attenuation_at_10x_cutoff(self):
        # first-order magnitude response: 1/sqrt(1 + (f/fc)^2)
        fs, fc, f = 1000.0, 3.6, 36.0
        t = np.arange(0, 8.0, 1 / fs)
        x = np.sin(2 * np.pi * f * t)
        y = mg.lowpass_trace(x, 1 / fs, cutoff_hz=fc)
        gain = y[2000:].std() / x[2000:].std()
        assert gain == pytest.approx(1.0 / math.hypot(1.0, f / fc), rel=0.05)

    def test_trace_matches_stepwise(self):
        # independent reference: the recurrence stepped sample by sample,
        # y[n] = y[n-1] + alpha (x[n] - y[n-1]) from y[0] = x[0]
        rng = np.random.default_rng(5)
        x = rng.normal(size=(256, 3))
        tau = 1.0 / (2.0 * math.pi * 3.6)
        alpha = 1e-3 / (tau + 1e-3)
        step = [x[0]]
        for xi in x[1:]:
            step.append(step[-1] + alpha * (xi - step[-1]))
        np.testing.assert_allclose(mg.lowpass_trace(x, 1e-3), step, atol=1e-12)

    def test_continuation_is_exact(self):
        # a trace filtered in pieces, each continuing from the last output,
        # equals the trace filtered whole, bit for bit
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 3))
        whole = mg.lowpass_trace(x, 1e-3)
        head = mg.lowpass_trace(x[:117], 1e-3)
        tail = mg.lowpass_trace(x[117:], 1e-3, y0=head[-1])
        np.testing.assert_array_equal(np.vstack([head, tail]), whole)
        np.testing.assert_array_equal(
            mg.lowpass_trace(x[117:, 0], 1e-3, y0=head[-1, 0]), whole[117:, 0])
