"""Plant model tests: kinematics, transduction, forces, scenario runs.

Expected values are either closed-form hand calculations done in the
test body, structural identities (force closure, symmetry, determinism),
or spectral checks against numpy.fft as an independent oracle.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amphisense import busring, calibration, cpg, magnetics, plant


def cc_lag_cycles(x, y, period_s, dt):
    # circular cross-correlation peak delay of y behind x, in cycles
    x = x - x.mean()
    y = y - y.mean()
    n = len(x)
    cc = np.fft.irfft(np.fft.rfft(x).conj() * np.fft.rfft(y), n)
    k = int(np.argmax(cc))
    if k > n // 2:
        k -= n
    return k * dt / period_s


class TestKinematics:
    def test_straight_pose(self):
        # zero joints: spine lies on the -x axis
        kin = plant.RobotKinematics()
        fk = kin.forward(np.zeros(16))
        assert np.allclose(fk["nodes"][:, 1], 0.0)
        assert np.allclose(fk["nodes"][:, 0], -0.055 * np.arange(9))
        assert np.allclose(fk["snout"], [0.06, 0.0])
        assert np.allclose(fk["tail_tip"], [-0.59, 0.0])

    def test_feet_left_right(self):
        # robot faces +x; left feet sit at +y
        fk = plant.RobotKinematics().forward(np.zeros(16))
        fl, fr, hl, hr = fk["feet"]
        assert fl[1] > 0 and hl[1] > 0
        assert fr[1] < 0 and hr[1] < 0
        assert fl[0] == pytest.approx(fr[0])
        assert fl[0] > hl[0]  # front girdle ahead of hind

    def test_single_joint_bend(self):
        # ax1 = 90 deg: first link heading pi + pi/2, so
        # node_1 = (0, -L); later links follow at the same heading
        kin = plant.RobotKinematics()
        q = np.zeros(16)
        q[0] = math.pi / 2.0
        fk = kin.forward(q)
        assert np.allclose(fk["nodes"][1], [0.0, -0.055], atol=1e-15)
        assert np.allclose(fk["nodes"][2], [0.0, -0.110], atol=1e-15)

    def test_fin_mounts(self):
        # mounts at mid-link, tail fin at the tail tip
        fk = plant.RobotKinematics().forward(np.zeros(16))
        assert np.allclose(fk["fin_mounts"][0], [-0.0275, 0.0])
        assert np.allclose(fk["fin_mounts"][4], [-0.4125, 0.0])
        assert np.allclose(fk["fin_mounts"][5], fk["tail_tip"])


class TestFootDeflection:
    def test_rest(self):
        # no load: magnet at (p0, 0, 0)
        p = plant.foot_deflection_p(calibration.FootWrench(0, 0, 0),
                                    plant.ElasticFootModel())
        assert np.allclose(p, [4.0, 0.0, 0.0])

    def test_linear_map_values(self):
        # hand evaluation of the linear law at (10, -20, 3)
        m = plant.ElasticFootModel()
        p = plant.foot_deflection_p(
            calibration.FootWrench(tau_pitch=10.0, tau_yaw=-20.0, f_x=3.0), m
        )
        assert p[0] == pytest.approx(4.0 - 0.0305 * 3.0, abs=1e-15)
        assert p[1] == pytest.approx(4.0 * 0.003636 * -20.0, abs=1e-15)
        assert p[2] == pytest.approx(4.0 * 0.003636 * 10.0, abs=1e-15)

    def test_linearity_and_decoupling(self):
        m = plant.ElasticFootModel()
        rest = plant.foot_deflection_p(calibration.FootWrench(0, 0, 0), m)
        w = calibration.FootWrench(5.0, -7.0, 2.0)
        w2 = calibration.FootWrench(10.0, -14.0, 4.0)
        d1 = plant.foot_deflection_p(w, m) - rest
        d2 = plant.foot_deflection_p(w2, m) - rest
        assert np.allclose(d2, 2.0 * d1, atol=1e-14)
        # pure axial force leaves the lateral coordinates at zero
        dx = plant.foot_deflection_p(calibration.FootWrench(0, 0, 6.0), m) - rest
        assert dx[1] == 0.0 and dx[2] == 0.0

    def test_caps_raise(self):
        m = plant.ElasticFootModel()
        with pytest.raises(plant.ElasticRangeError):
            plant.foot_deflection_p(calibration.FootWrench(0, 0, m.f_cap + 1), m)
        with pytest.raises(plant.ElasticRangeError):
            plant.foot_deflection_p(calibration.FootWrench(m.tau_cap + 1, 0, 0), m)

    def test_h_is_antiradial(self):
        # the runner renders a foot's flux with the radial law, which holds
        # for a moment pointing back at the sensor: the general dipole with
        # h = -p/|p| at the deflected magnet gives the same flux
        p = plant.foot_deflection_p(
            calibration.FootWrench(30.0, -40.0, 5.0), plant.ElasticFootModel()
        )
        params = magnetics.DipoleParams(n_t=50.0)
        general = magnetics.dipole_flux(
            magnetics.MagnetPose(p=p, h=-p / np.linalg.norm(p)), params)
        np.testing.assert_allclose(magnetics.dipole_flux_radial(p, params), general,
                                   rtol=1e-12)


class TestFinModel:
    def test_angle_spring_law(self):
        # theta = F * lever / k
        fin = plant.FlowFinModel()
        assert fin.angle_for_force(0.0) == 0.0
        assert fin.angle_for_force(0.25) == pytest.approx(0.25 * 30.0 / 25.0)
        assert fin.angle_for_force(-0.1) == pytest.approx(-0.12)

    def test_end_stop(self):
        fin = plant.FlowFinModel()
        assert fin.angle_for_force(5.0) == pytest.approx(fin.theta_cap)
        assert fin.angle_for_force(-5.0) == pytest.approx(-fin.theta_cap)

    def test_pose_geometry(self):
        # magnet rides a 3 mm arm; moment tilts with the plate
        fin = plant.FlowFinModel()
        rest = fin.pose_for_angle(0.0)
        assert (rest.p_x, rest.p_y) == (3.0, 0.0)
        assert rest.h_y == pytest.approx(math.sin(math.radians(20.0)))
        th = math.radians(30.0)
        pose = fin.pose_for_angle(th)
        assert pose.p_x == pytest.approx(3.0 * math.cos(th))
        assert pose.p_y == pytest.approx(3.0 * math.sin(th))
        assert pose.h_y == pytest.approx(math.sin(math.radians(50.0)))
        assert pose.d_z0 == 4.0

    def test_drag_force_value(self):
        # v_n = sqrt(U^2 + v^2) sin(theta); F = c_d v_n |v_n|
        fin = plant.FlowFinModel()
        vn = math.sqrt(0.2**2 + 0.5**2) * math.sin(0.3)
        want = fin.c_d * vn * abs(vn)
        got = plant.fin_drag_force(0.3, 0.5, 0.2, fin)
        assert got == pytest.approx(want, rel=1e-15)
        # odd in the joint angle
        assert plant.fin_drag_force(-0.3, 0.5, 0.2, fin) == pytest.approx(-want)

    def test_drag_quadratic_scaling(self):
        fin = plant.FlowFinModel()
        f1 = plant.fin_drag_force(0.2, 0.3, 0.1, fin)
        f2 = plant.fin_drag_force(0.2, 0.6, 0.2, fin)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)

    def test_still_water(self):
        assert plant.fin_drag_force(0.4, 0.0, 0.0, plant.FlowFinModel()) == 0.0


def contact_forces(*args, **kwargs):
    # the wrench array's rows (f_x, tau_pitch, tau_yaw) as FootWrench objects
    w, s = plant.contact_forces(*args, **kwargs)
    return [calibration.FootWrench(tau_pitch=tp, tau_yaw=ty, f_x=fx)
            for fx, tp, ty in w], s


class TestContactForces:
    def test_equal_split(self):
        # identical legs share the weight in quarters
        w, s = contact_forces(np.zeros(16), [True] * 4, 20.0)
        assert [x.f_x for x in w] == pytest.approx([5.0] * 4)
        assert np.allclose(s, s[0])

    def test_force_closure_exact(self):
        # closure must hold for any pose and any non-empty stance set
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = np.zeros(16)
            q[8:] = rng.uniform(-0.3, 0.3, 8)
            mask = rng.random(4) < 0.7
            if not mask.any():
                mask[0] = True
            weight = rng.uniform(1.0, 30.0)
            w, _ = contact_forces(q, mask, weight)
            assert sum(x.f_x for x in w) == pytest.approx(weight, abs=1e-12)
            for x, m in zip(w, mask):
                if not m:
                    assert x.f_x == 0.0 and x.tau_yaw == 0.0

    def test_floating(self):
        w, _ = contact_forces(np.zeros(16), [False] * 4, 20.0)
        assert all(x.f_x == 0.0 for x in w)

    def test_stance_weights_smooth_band(self):
        # within the walking elevation amplitude the weighting stays
        # strictly inside (s_min, 1): no clipping kinks in the force
        cfg = plant.ContactConfig()
        for elev in np.linspace(-math.radians(20), math.radians(20), 41):
            q = np.zeros(16)
            q[9:16:2] = elev
            s = plant.stance_weights(q, cfg)
            assert np.all(s > cfg.s_min) and np.all(s < 1.0)

    def test_yaw_friction_sign(self):
        # yaw torque follows the swing rate through mu and lever
        cfg = plant.ContactConfig()
        q0 = np.zeros(16)
        q1 = np.zeros(16)
        rate = cpg.TWO_PI * 0.47 * cfg.swing_ref  # exactly the peak rate
        q1[8] = rate * 1e-3
        w, _ = contact_forces(q1, [True] * 4, 20.0, cfg, q_prev=q0, dt=1e-3)
        assert w[0].tau_yaw == pytest.approx(cfg.mu_yaw * w[0].f_x * cfg.yaw_lever_mm)
        assert w[1].tau_yaw == 0.0

    def test_trace_matches_single_poses(self):
        # a trace of poses gives, row by row, the wrenches of each pose alone
        rng = np.random.default_rng(9)
        q = np.zeros((40, 16))
        q[:, 8:] = rng.uniform(-0.4, 0.4, (40, 8))
        mask = rng.random((40, 4)) < 0.7
        weight = rng.uniform(1.0, 30.0, 40)
        w, s = plant.contact_forces(q[1:], mask[1:], weight[1:], q_prev=q[:-1])
        for k in range(1, 40):
            wk, sk = plant.contact_forces(q[k], mask[k], weight[k], q_prev=q[k - 1])
            np.testing.assert_array_equal(w[k - 1], wk)
            np.testing.assert_array_equal(s[k - 1], sk)

    def test_pitch_cop_follows_swing(self):
        cfg = plant.ContactConfig()
        q = np.zeros(16)
        q[8] = cfg.swing_ref / 2.0
        w, _ = contact_forces(q, [True] * 4, 20.0, cfg)
        assert w[0].tau_pitch == pytest.approx(w[0].f_x * cfg.cop_offset_mm * 0.5)


class TestFlowForces:
    def test_stationary_zero(self):
        # straight body, still water
        kin = plant.RobotKinematics()
        fin = plant.FlowFinModel()
        q = np.zeros((100, 16))
        f, a = plant.flow_forces(q, kin, fin, stream_speed=0.0)
        assert np.all(f == 0.0) and np.all(a == 0.0)

    def test_single_joint_periodicity(self):
        # one joint oscillating at f0: the fin force behind it
        # is periodic at f0 (odd drag law keeps the fundamental)
        kin = plant.RobotKinematics()
        fin = plant.FlowFinModel()
        dt, f0, n = 1e-3, 1.0, 4000
        t = dt * np.arange(n)
        q = np.zeros((n, 16))
        q[:, 0] = 0.4 * np.sin(2 * np.pi * f0 * t)
        forces, _ = plant.flow_forces(q, kin, fin, stream_speed=0.2, dt=dt)
        spec = np.abs(np.fft.rfft(forces[:, 0] - forces[:, 0].mean()))
        freqs = np.fft.rfftfreq(n, dt)
        assert freqs[np.argmax(spec)] == pytest.approx(f0, abs=freqs[1])

    def test_traveling_wave_synchrony(self):
        # design check behind the fin placement: on a swim-like wave the
        # drag force tracks the anterior joint within a tenth of a cycle
        kin = plant.RobotKinematics()
        fin = plant.FlowFinModel()
        dt, f0 = 1e-3, 0.78
        n = int(8.0 / dt)
        t = dt * np.arange(n)
        amp = math.radians(29.0)
        kappa = 2 * math.pi / 7.0
        q = np.zeros((n, 16))
        for k in range(8):
            q[:, k] = amp * np.sin(2 * np.pi * f0 * t - k * kappa)
        forces, _ = plant.flow_forces(q, kin, fin, stream_speed=0.2, dt=dt)
        for fi, name in enumerate(plant.FIN_NAMES):
            ax = q[:, plant.FIN_ANTERIOR_JOINT[fi]]
            lag = cc_lag_cycles(ax, forces[:, fi], 1.0 / f0, dt)
            assert abs(lag) < 0.10, f"{name}: lag {lag:.3f} cycles"


class TestScenarioConfig:
    def test_bad_terrain(self):
        with pytest.raises(plant.PlantError):
            plant.Scenario(terrain="lava")

    def test_bad_duration(self):
        with pytest.raises(plant.PlantError):
            plant.Scenario(duration_s=-1.0)

    @pytest.mark.parametrize("field", ["duration_s", "dt", "x_start", "drive_switch_t"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers(self, field, value):
        with pytest.raises(plant.PlantError, match="finite"):
            plant.Scenario(**{field: value})

    def test_unknown_key_and_module(self):
        with pytest.raises(plant.PlantError, match="dragg"):
            plant.Scenario.from_json({"dragg": 1})
        with pytest.raises(plant.PlantError):
            plant.Scenario(log_flux=("foot_xx",))

    def test_json_round_trip(self, tmp_path):
        sc = plant.Scenario(name="rt", terrain="shoreline", x_waterline=0.2,
                            duration_s=3.0, seed=9)
        path = tmp_path / "sc.json"
        sc.to_json(path)
        back = plant.Scenario.from_json(path)
        assert back == sc

    @pytest.mark.parametrize("doc", [{"duration_s": 1e13}, {"duration_s": 700.0},
                                     {"duration_s": 1.0, "dt": 5e-324}])
    def test_run_past_the_budget_is_refused(self, doc):
        # refused as the scenario is made, before run_scenario allocates
        with pytest.raises(plant.PlantError, match="a run holds at most"):
            plant.Scenario(**doc)

    def test_budget_counts_the_trace_row_and_the_working_set(self):
        # the most ticks a run may hold, one logged module less or more
        for log_flux in ((), plant.SENSOR_NAMES):
            tick = plant._row_bytes(log_flux) + plant._TICK_BYTES
            most = plant._MAX_BYTES // tick
            plant.Scenario(duration_s=most * 1e-3, log_flux=log_flux)
            with pytest.raises(plant.PlantError, match=f"at most {most} ticks of {tick} B"):
                plant.Scenario(duration_s=(most + 1) * 1e-3, log_flux=log_flux)

    def test_bundled_scenarios_load(self):
        import importlib.resources as res

        names = set()
        for name in ("walk_floor", "swim_pool", "shoreline_transition"):
            ref = res.files("amphisense") / "scenarios" / f"{name}.json"
            with res.as_file(ref) as path:
                sc = plant.Scenario.from_json(path)
            names.add(sc.name)
            assert sc.duration_s * sc.dt > 0
        assert names == {"walk_floor", "swim_pool", "shoreline_transition"}


class TestRunScenario:
    def test_ring_schedule_matches_event_sim(self):
        # the runner samples each module on busring's closed-form fault-free
        # schedule; it must agree with the simulated ring exactly
        line = busring.LineConfig()
        n = len(plant.SENSOR_NAMES)
        stats = busring.simulate_ring(n, line, 0.02)
        due = busring.ring_starts(n, line, 0.02)
        rounds = np.zeros(n, dtype=int)
        for t_end, i in zip(stats.frame_ends, stats.frame_modules):
            assert t_end == pytest.approx(due[i, rounds[i]] + line.frame_time, abs=1e-12)
            rounds[i] += 1
        assert rounds.min() > 10

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.7e-3])
    def test_ring_samples_follow_the_tick_rule(self, dt):
        # each module's next sample lands on the first tick at or after its
        # slot time, at most one per tick (binding when dt exceeds the
        # 1.3 ms round); checked against that rule applied tick by tick
        line = busring.LineConfig()
        n_mod, n_steps = len(plant.SENSOR_NAMES), 400
        slot = line.frame_time + line.inter_frame_gap
        round_p = busring.ring_round_period(n_mod, line)
        sc = plant.Scenario(dt=dt, seed=3)
        ticks, noise = plant._ring_samples(n_steps, sc, line)
        want = [[] for _ in range(n_mod)]
        for k in range(n_steps):
            for i in range(n_mod):
                due = line.ctrl_time + line.inter_frame_gap + i * slot \
                    + len(want[i]) * round_p
                if due <= k * dt:
                    want[i].append(k)
        for i in range(n_mod):
            np.testing.assert_array_equal(ticks[i], want[i])
            assert noise[i].shape == (len(want[i]), 3)
        # the noise block is drawn in (tick, module) order
        order = sorted((k, i, j) for i in range(n_mod) for j, k in enumerate(want[i]))
        z = np.random.default_rng(sc.seed * 100 + 7).standard_normal((len(order), 3))
        for row, (_, i, j) in zip(z, order):
            np.testing.assert_array_equal(noise[i][j], sc.noise_sigma_mt * row)

    def test_floor_smoke(self):
        sc = plant.Scenario(name="smk", terrain="floor", duration_s=1.5,
                            window_start=0.2, seed=10)
        res = plant.run_scenario(sc)
        assert res.data.shape[0] == 1500
        total = sum(res.col(f"gt_foot_{leg}_fx") for leg in ("fl", "fr", "hl", "hr"))
        # force closure on every tick of the trace
        assert np.allclose(total, sc.weight_n, atol=1e-9)
        assert np.all(res.col("mode") == 0.0)
        assert np.all(np.isfinite(res.data))
        # fins stay dry on the floor
        assert np.all(res.col("gt_fin_tail_force") == 0.0)

    def test_water_smoke(self):
        sc = plant.Scenario(name="smk", terrain="water", duration_s=2.5,
                            drive_switch_t=0.5, feedback=False,
                            window_start=1.0, seed=11)
        res = plant.run_scenario(sc)
        for leg in ("fl", "fr", "hl", "hr"):
            assert np.all(res.col(f"gt_foot_{leg}_fx") == 0.0)
        assert res.switch_time == pytest.approx(0.5, abs=2e-3)
        assert np.all(res.col("mode")[res.col("t") > 0.5] == 1.0)
        # limb targets collapse fast after the switch (rate a = 20/s)
        late = res.col("t") > 2.0
        for leg in ("fl", "fr", "hl", "hr"):
            assert np.abs(res.col(f"gt_q_{leg}_swing")[late]).max() < 1e-3

    def test_estimates_track_truth(self):
        sc = plant.Scenario(name="smk", terrain="floor", duration_s=2.0,
                            window_start=0.2, seed=12)
        res = plant.run_scenario(sc)
        w = res.col("t") >= 1.0
        for leg in ("fl", "fr", "hl", "hr"):
            err = res.col(f"est_foot_{leg}_fx")[w] - res.col(f"gt_foot_{leg}_fx")[w]
            assert np.sqrt(np.mean(err**2)) < 0.5

    def test_determinism(self, tmp_path):
        sc = plant.Scenario(name="det", terrain="floor", duration_s=1.2,
                            window_start=0.2, seed=13)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        plant.run_scenario(sc).write_csv(a)
        plant.run_scenario(sc).write_csv(b)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 100_000

    def test_csv_round_trip(self, tmp_path):
        sc = plant.Scenario(name="rt", terrain="floor", duration_s=0.5,
                            window_start=0.1, seed=14)
        res = plant.run_scenario(sc)
        path = tmp_path / "t.csv"
        res.write_csv(path)
        back = plant.ScenarioResult.read_csv(path)
        assert back.columns == res.columns
        assert np.allclose(back.data, res.data, atol=1e-9)

    def test_one_tick_holds_estimates_at_zero(self):
        # the first ring slot lands after tick 0, so every stream is empty
        res = plant.run_scenario(plant.Scenario(name="tick", duration_s=1e-3))
        assert res.data.shape[0] == 1
        for j, name in enumerate(res.columns):
            if name.startswith(("est_", "raw_", "filt_")):
                assert res.data[0, j] == 0.0, name

    def test_row_bytes_is_the_trace_row(self):
        sc = plant.Scenario(name="row", duration_s=0.01, log_flux=("fin_tail",))
        res = plant.run_scenario(sc)
        assert plant._row_bytes(sc.log_flux) == res.data.itemsize * res.data.shape[1]

    def test_working_set_per_tick(self, monkeypatch):
        # a run keeps its trace and, per tick, only the ring's samples (ticks
        # and noise) and the stage temporaries.  The models are fitted once
        # and reused, so the peak is the run's own: it grows by 394 B a tick
        # beyond the trace row (the oscillator history, the whole-ring noise
        # block and the per-module filter copies took it to 708 B)
        doc = dict(terrain="water", drive=cpg.D_SWIM, feedback=False, seed=1)
        models = plant._fit_sensor_models(plant.Scenario(**doc))
        monkeypatch.setattr(plant, "_fit_sensor_models", lambda sc: models)
        plant.run_scenario(plant.Scenario(name="warm", duration_s=0.05, **doc))
        peak = {}
        for n in (300, 600):
            tracemalloc.start()
            try:
                res = plant.run_scenario(plant.Scenario(name="mem", duration_s=n * 1e-3, **doc))
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        row = res.data.itemsize * res.data.shape[1]
        assert (peak[600] - peak[300]) / 300 <= row + 512

    def test_switch_steps_each_tick_once(self, monkeypatch):
        # walking advances poll by poll and the swim span resumes from the
        # state kept at the switch tick: one network step per tick in all
        calls = []
        step = cpg.step_network

        def counting_step(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(cpg, "step_network", counting_step)
        sc = plant.Scenario(name="shore", terrain="shoreline", duration_s=1.2,
                            advance_speed=0.08, x_start=0.2, window_start=0.2,
                            seed=1)
        res = plant.run_scenario(sc)
        assert res.switch_time is not None
        assert len(calls) == len(res.data)

    def test_each_sample_sensed_once(self, monkeypatch):
        # the estimator senses a module's new samples where it takes them:
        # the feet at each poll, each fin once at the end of the run
        calls = []
        sense = plant._sense

        def recording(name, tk, *args):
            calls.append((name, tk.copy()))
            return sense(name, tk, *args)

        monkeypatch.setattr(plant, "_sense", recording)
        sc = plant.Scenario(name="shore", terrain="shoreline", duration_s=1.2,
                            advance_speed=0.08, x_start=0.2, window_start=0.2,
                            seed=1)
        res = plant.run_scenario(sc)
        assert res.switch_time is not None
        names = [name for name, _ in calls]
        for name in plant.FIN_NAMES:
            assert names.count(name) == 1, name
        ticks, _ = plant._ring_samples(len(res.data), sc, busring.LineConfig())
        for i, name in enumerate(plant.SENSOR_NAMES):
            sensed = np.concatenate([tk for nm, tk in calls if nm == name])
            np.testing.assert_array_equal(sensed, ticks[i], err_msg=name)

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_supervisor_reads_est_foot_sum(self, seed, monkeypatch):
        # every foot sum the supervisor acts on is the trace's est_foot_sum
        # at its poll tick, bit for bit
        sums = []
        decide = cpg.transition_controller

        def recording(load, cmd):
            sums.append(load)
            return decide(load, cmd)

        monkeypatch.setattr(cpg, "transition_controller", recording)
        sc = plant.Scenario(name="shore", terrain="shoreline", duration_s=1.2,
                            advance_speed=0.08, x_start=0.2, window_start=0.2,
                            seed=seed)
        res = plant.run_scenario(sc)
        polls = [k for k in range(0, len(res.data), 20)
                 if k * sc.dt >= cpg.SWITCH_HOLDOFF_S][:len(sums)]
        assert len(polls) == len(sums) > 1
        assert res.switch_time == res.col("t")[polls[-1]]
        for k, s in zip(polls, sums):
            assert s == res.col("est_foot_sum")[k], k

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), x_start=st.floats(0.15, 0.3),
           advance_speed=st.floats(0.0, 0.3), duration=st.floats(0.3, 0.6))
    def test_supervisor_reads_est_foot_sum_generated(self, seed, x_start, advance_speed,
                                                     duration):
        # the listed-seed test above over generated shoreline runs, about
        # half of which switch: each poll reads est_foot_sum at its tick, bit
        # for bit, and a switch falls on the last poll read
        sums = []
        decide = cpg.transition_controller

        def recording(load, cmd):
            sums.append(load)
            return decide(load, cmd)

        sc = plant.Scenario(name="shore", terrain="shoreline", duration_s=duration,
                            advance_speed=advance_speed, x_start=x_start,
                            window_start=0.2, seed=seed)
        with mock.patch.object(cpg, "transition_controller", recording):
            res = plant.run_scenario(sc)
        polls = [k for k in range(0, len(res.data), 20) if k * sc.dt >= cpg.SWITCH_HOLDOFF_S]
        if res.switch_time is None:
            assert len(sums) == len(polls)
        else:
            polls = polls[:len(sums)]
            assert res.switch_time == res.col("t")[polls[-1]]
        for k, s in zip(polls, sums):
            assert s == res.col("est_foot_sum")[k], k

    @settings(max_examples=10, deadline=None)
    @given(terrain=st.sampled_from(["floor", "water", "shoreline"]),
           seed=st.integers(0, 2**16), x_start=st.floats(0.0, 0.4),
           advance_speed=st.floats(0.0, 0.3), feedback=st.booleans(),
           switch_t=st.none() | st.floats(0.0, 0.5), duration_s=st.floats(0.1, 0.5),
           log_flux=st.lists(st.sampled_from(plant.SENSOR_NAMES), max_size=3, unique=True))
    @example(terrain="shoreline", seed=1, x_start=0.3, advance_speed=0.0, feedback=True,
             switch_t=None, duration_s=0.3, log_flux=[])    # a feedback switch at 0.06 s
    @example(terrain="shoreline", seed=2, x_start=-0.2, advance_speed=0.0, feedback=False,
             switch_t=0.15, duration_s=0.3, log_flux=["fin_tail"])   # an open-loop one
    def test_trace_invariants_generated(self, terrain, seed, x_start, advance_speed,
                                        feedback, switch_t, duration_s, log_flux):
        # est_foot_sum is the in-order sum of the feet's est_*_fx columns, the
        # mode never goes back from swimming, and the fins' truth is zero on
        # the floor and on the shoreline until the switch
        sc = plant.Scenario(name="inv", terrain=terrain, seed=seed, x_start=x_start,
                            advance_speed=advance_speed, feedback=feedback,
                            drive_switch_t=switch_t, duration_s=duration_s,
                            log_flux=log_flux)
        res = plant.run_scenario(sc)
        fx = [res.col(f"est_{nm}_fx") for nm in plant.FOOT_NAMES]
        np.testing.assert_array_equal(res.col("est_foot_sum"),
                                      ((fx[0] + fx[1]) + fx[2]) + fx[3])
        mode = res.col("mode")
        assert set(np.unique(mode)) <= {0.0, 1.0} and np.all(np.diff(mode) >= 0.0)
        if res.switch_time is not None:
            assert mode[int(round(res.switch_time / sc.dt))] == 1.0
        if terrain != "water":
            dry = mode == 0.0 if terrain == "shoreline" else slice(None)
            for nm in plant.FIN_NAMES:
                for q in ("force", "angle"):
                    assert np.all(res.col(f"gt_{nm}_{q}")[dry] == 0.0), (nm, q)

    def test_fin_stall_names_the_first_stalled_fin(self, monkeypatch):
        # the fins' streams are inverted in one call; a stall still names the
        # first fin, in module order, whose stream stalls, and its first
        # stalled sample's time.  A 1 T spike lies far off the fin's flux
        # image, so its filtered sample stalls.
        sc = plant.Scenario(name="stall", terrain="water", drive=cpg.D_SWIM,
                            duration_s=0.4, seed=2)
        ticks, _ = plant._ring_samples(400, sc, busring.LineConfig())
        spike_at = {"fin_link4": ticks[plant.SENSOR_NAMES.index("fin_link4")][150],
                    "fin_link6": ticks[plant.SENSOR_NAMES.index("fin_link6")][40]}
        assert spike_at["fin_link6"] < spike_at["fin_link4"]
        sense = plant._sense

        def spiked(name, tk, *args):
            b = sense(name, tk, *args)
            if name in spike_at:
                b[tk == spike_at[name]] = 1e3
            return b

        monkeypatch.setattr(plant, "_sense", spiked)
        with pytest.raises(magnetics.NoConvergenceError) as err:
            plant.run_scenario(sc)
        t = spike_at["fin_link4"] * sc.dt
        assert str(err.value) == f"fin_link4: fin inversion stalled at t = {t:.3f} s"

    def test_foot_stall_names_the_foot_and_its_time(self, monkeypatch):
        # a foot whose flux reads zero filters to the noise floor at its
        # first sample; the supervisor's first poll inverts it and names it
        sc = plant.Scenario(name="stall", duration_s=0.4, seed=2)
        ticks, _ = plant._ring_samples(400, sc, busring.LineConfig())
        sense = plant._sense

        def dead_hr(name, tk, *args):
            b = sense(name, tk, *args)
            return 0.0 * b if name == "foot_hr" else b

        monkeypatch.setattr(plant, "_sense", dead_hr)
        with pytest.raises(magnetics.BelowNoiseFloorError) as err:
            plant.run_scenario(sc)
        t = ticks[plant.SENSOR_NAMES.index("foot_hr")][0] * sc.dt
        assert str(err.value) == f"foot_hr: flux below noise floor at t = {t:.3f} s"

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_feedback_changes_nothing_before_the_switch(self, seed):
        # the supervisor only reads estimates up to its poll and the switch
        # only acts after it, so no tick before the switch depends on it:
        # estimates made poll by poll equal those made once at the end
        kw = dict(name="shore", terrain="shoreline", duration_s=1.2,
                  advance_speed=0.08, x_start=0.2, window_start=0.2, seed=seed)
        fb = plant.run_scenario(plant.Scenario(feedback=True, **kw))
        open_loop = plant.run_scenario(plant.Scenario(feedback=False, **kw))
        assert fb.switch_time is not None and open_loop.switch_time is None
        k = int(round(fb.switch_time / 1e-3))
        assert fb.col("mode")[k] == 1.0 and fb.col("mode")[k - 1] == 0.0
        np.testing.assert_array_equal(fb.data[:k], open_loop.data[:k])

    @settings(max_examples=3, deadline=None)
    @given(terrain=st.sampled_from(["floor", "water", "shoreline"]),
           seed=st.integers(0, 2**16), x_start=st.floats(-0.2, 0.6),
           feedback=st.booleans(), switch_t=st.none() | st.floats(0.0, 0.3),
           duration_s=st.floats(0.1, 0.3))
    @example(terrain="shoreline", seed=1, x_start=0.3, feedback=True, switch_t=None,
             duration_s=0.3)     # a feedback switch at 0.06 s
    def test_span_length_changes_nothing(self, terrain, seed, x_start, feedback, switch_t,
                                         duration_s):
        # spans only bound the temporaries: at any length the run gives the
        # same data and switch time
        sc = plant.Scenario(name="span", terrain=terrain, seed=seed, x_start=x_start,
                            feedback=feedback, drive_switch_t=switch_t,
                            duration_s=duration_s)
        runs = []
        for span in (1, 7, 256, 5000):
            with mock.patch.object(plant, "_SPAN", span):
                runs.append(plant.run_scenario(sc))
        for res in runs[1:]:
            np.testing.assert_array_equal(res.data, runs[0].data)
            assert res.switch_time == runs[0].switch_time
