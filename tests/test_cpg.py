"""Oscillator network: saturation maps, locking, gaits, transition."""

import math

import numpy as np
import pytest

from amphisense import cpg

TWO_PI = 2.0 * math.pi


def const_map(v, band=(0.0, 10.0)):
    return cpg.SaturationMap(c1=0.0, c0=v, d_low=band[0], d_high=band[1])


def single_osc(omega, R, a=20.0):
    return cpg.OscillatorParams(
        a=np.array([a]),
        omega_maps=(const_map(omega),),
        amp_maps=(const_map(R),),
    )


def osc_pair(omega, R, w, b, a=20.0):
    params = cpg.OscillatorParams(
        a=np.array([a, a]),
        omega_maps=(const_map(omega),) * 2,
        amp_maps=(const_map(R),) * 2,
    )
    graph = cpg.CouplingGraph(n=2, edges=((0, 1, w, b), (1, 0, w, -b)))
    return params, graph


# joint k is oscillators 2k (flexor) and 2k + 1 (extensor)
FLEXOR = np.arange(cpg.N_JOINTS) * 2
EXTENSOR = FLEXOR + 1
JOINT = {nm: k for k, nm in enumerate(cpg.JOINT_NAMES)}


def wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def integrate(phi, r, drive, params, graph, dt, n_steps):
    """n_steps of step_network at a fixed drive; phases and amplitudes
    (n_steps + 1, ..., n), the first row the start."""
    phis = np.empty((n_steps + 1,) + np.shape(phi))
    rs = np.empty_like(phis)
    phis[0], rs[0] = phi, r
    for k in range(n_steps):
        phis[k + 1], rs[k + 1] = cpg.step_network(phis[k], rs[k], drive, params, graph, dt)
    return phis, rs


def dense(graph):
    """The graph's edges as n x n weight and bias matrices W[i, j], B[i, j]."""
    W, B = np.zeros((graph.n, graph.n)), np.zeros((graph.n, graph.n))
    for i, j, w, b in graph.edges:
        W[i, j], B[i, j] = w, b
    return W, B


class TestSaturationMap:
    def test_affine_inside_band(self):
        m = cpg.SaturationMap(c1=2.0, c0=1.0, d_low=1.0, d_high=3.0)
        assert m.value(2.0) == 5.0
        assert m.value(1.0) == 3.0 and m.value(3.0) == 7.0

    def test_zero_outside_band(self):
        m = cpg.SaturationMap(c1=2.0, c0=1.0, d_low=1.0, d_high=3.0)
        assert m.value(0.5) == 0.0
        assert m.value(3.1) == 0.0

    def test_band_ordering_enforced(self):
        with pytest.raises(cpg.CpgConfigError):
            cpg.SaturationMap(c1=0.0, c0=1.0, d_low=2.0, d_high=2.0)

    def test_limb_rate_saturates_at_swim_drive(self):
        assert cpg.LIMB_OMEGA_MAP.value(cpg.D_SWIM) == 0.0
        assert cpg.LIMB_AMP_MAP.value(cpg.D_SWIM) == 0.0
        assert cpg.LIMB_OMEGA_MAP.value(cpg.D_WALK) == pytest.approx(
            TWO_PI * 0.47
        )

    def test_axial_rate_anchors(self):
        assert cpg.AXIAL_OMEGA_MAP.value(cpg.D_WALK) == pytest.approx(
            TWO_PI * 0.47
        )
        assert cpg.AXIAL_OMEGA_MAP.value(cpg.D_SWIM) == pytest.approx(
            TWO_PI * 0.78
        )

    def test_axial_amplitude_anchors(self):
        assert cpg.AXIAL_AMP_MAP.value(cpg.D_WALK) == pytest.approx(math.radians(10.0))
        assert cpg.AXIAL_AMP_MAP.value(cpg.D_SWIM) == pytest.approx(math.radians(14.5))


class TestBuildNetwork:
    def setup_method(self):
        self.params, self.graph = cpg.build_gait_network()

    def test_counts(self):
        assert self.params.n == 32
        assert len(cpg.JOINT_NAMES) == cpg.N_JOINTS == 16
        idx = np.concatenate([FLEXOR, EXTENSOR])
        assert sorted(idx.tolist()) == list(range(32))

    def test_connected(self):
        assert self.graph.is_connected()

    def test_intrinsic_follows_the_drive(self):
        # the kept pair must never answer for another drive, and callers
        # cannot write into it
        for d in (cpg.D_WALK, cpg.D_SWIM, cpg.D_WALK, cpg.D_WALK, 3.0):
            omega, R = self.params.intrinsic(d)
            np.testing.assert_array_equal(omega, [m.value(d) for m in self.params.omega_maps])
            np.testing.assert_array_equal(R, [m.value(d) for m in self.params.amp_maps])
            assert not omega.flags.writeable and not R.flags.writeable

    def test_pair_edges_have_pi_bias(self):
        for f, e in zip(FLEXOR, EXTENSOR):
            found = [b for (i, j, w, b) in self.graph.edges if i == f and j == e]
            assert found and abs(abs(found[0]) - math.pi) < 1e-12

    def test_bidirectional_antisymmetric(self):
        W, B = dense(self.graph)
        assert np.array_equal(W > 0, (W > 0).T)
        mask = W > 0
        assert np.allclose(wrap(B + B.T)[mask], 0.0, atol=1e-12)

    def test_uniform_weight(self):
        W, _ = dense(self.graph)
        assert set(np.unique(W)) == {0.0, cpg.W_EDGE}

    def test_invalid_edges_rejected(self):
        with pytest.raises(cpg.CpgConfigError):
            cpg.CouplingGraph(n=2, edges=((0, 0, 1.0, 0.0),))
        with pytest.raises(cpg.CpgConfigError):
            cpg.CouplingGraph(n=2, edges=((0, 5, 1.0, 0.0),))
        with pytest.raises(cpg.CpgConfigError):
            cpg.CouplingGraph(n=2, edges=((0, 1, -1.0, 0.0),))
        with pytest.raises(cpg.CpgConfigError):
            cpg.CouplingGraph(n=2, edges=((0, 1.0, 1.0, 0.0),))
        with pytest.raises(cpg.CpgConfigError):
            cpg.CouplingGraph(n=2, edges=((0, 1, 1.0, 0.0), (0, 1, 2.0, 0.5)))


class TestStepNetwork:
    def test_uncoupled_phase_growth(self):
        params = single_osc(TWO_PI, 1.0)
        graph = cpg.CouplingGraph(n=1, edges=())
        phi, r = np.zeros(1), np.ones(1)
        for _ in range(1000):
            phi, r = cpg.step_network(phi, r, 1.0, params, graph, 1e-3)
        assert phi[0] == pytest.approx(TWO_PI, abs=1e-6)

    def test_amplitude_exponential_convergence(self):
        a, R, r0 = 20.0, 1.0, 0.5
        params = single_osc(0.0, R, a=a)
        graph = cpg.CouplingGraph(n=1, edges=())
        phi, r = np.zeros(1), np.array([r0])
        t_end = 5.0 / a
        n = int(round(t_end / 1e-3))
        for _ in range(n):
            phi, r = cpg.step_network(phi, r, 1.0, params, graph, 1e-3)
        gap0 = abs(R - r0)
        assert abs(r[0] - R) < 0.007 * gap0
        analytic = R + (r0 - R) * math.exp(-a * t_end)
        assert r[0] == pytest.approx(analytic, abs=1e-9)

    def test_pair_locks_at_bias(self):
        b = 0.7
        params, graph = osc_pair(TWO_PI * 0.5, 1.0, w=10.0, b=b)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phis, _ = integrate(rng.uniform(0, TWO_PI, 2), np.ones(2), 1.0, params, graph,
                                1e-3, 5000)
            diff = wrap(phis[-1, 1] - phis[-1, 0])
            assert diff == pytest.approx(b, abs=1e-6)

    def test_dt_validation(self):
        params = single_osc(1.0, 1.0)
        graph = cpg.CouplingGraph(n=1, edges=())
        with pytest.raises(ValueError):
            cpg.step_network(np.zeros(1), np.ones(1), 1.0, params, graph, 0.0)
        with pytest.raises(ValueError):
            cpg.step_network(np.zeros(1), np.ones(1), 1.0, params, graph, 0.02)

    def test_negative_amplitude_rejected(self):
        params = single_osc(1.0, 1.0)
        graph = cpg.CouplingGraph(n=1, edges=())
        with pytest.raises(cpg.CpgConfigError):
            cpg.step_network(np.zeros(1), np.array([-0.1]), 1.0, params, graph, 1e-3)


class TestOutputs:
    def test_output_extremes(self):
        x = cpg.oscillator_output(np.array([0.0, math.pi]), np.ones(2))
        assert x[0] == pytest.approx(2.0)
        assert x[1] == pytest.approx(0.0, abs=1e-15)

    def test_output_range(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0, 2, 50)
        x = cpg.oscillator_output(rng.uniform(-10, 10, 50), r)
        assert np.all(x >= 0) and np.all(x <= 2 * r + 1e-15)

    def test_joint_targets_symmetric_pair(self):
        assert cpg.joint_targets(np.array([1.3, 1.3]))[0] == 0.0

    def test_joint_targets_antiphase_pair(self):
        r, gain = 0.8, 1.7
        for phi in np.linspace(0, TWO_PI, 17):
            x = cpg.oscillator_output(np.array([phi, phi + math.pi]), np.full(2, r))
            ang = cpg.joint_targets(x, gain=gain)[0]
            assert ang == pytest.approx(gain * 2 * r * math.cos(phi), abs=1e-12)


def _measure_freq(sig, t):
    s = sig - sig.mean()
    idx = np.nonzero((s[:-1] < 0) & (s[1:] >= 0))[0]
    tc = t[idx] + (t[idx + 1] - t[idx]) * (-s[idx]) / (s[idx + 1] - s[idx])
    return (len(tc) - 1) / (tc[-1] - tc[0])


@pytest.fixture(scope="module")
def network():
    return cpg.build_gait_network()


@pytest.fixture(scope="module")
def walk_run(network):
    params, graph = network
    phi, r = cpg.initial_state(params, cpg.D_WALK, rng=np.random.default_rng(11))
    phis, rs = integrate(phi, r, cpg.D_WALK, params, graph, 1e-3, 16000)
    return 1e-3 * np.arange(16001), phis, rs


@pytest.fixture(scope="module")
def swim_run(network):
    # start from the locked walk pattern, then switch drive, as on the robot
    params, graph = network
    phi, r = cpg.initial_state(params, cpg.D_WALK, rng=np.random.default_rng(12))
    phis, rs = integrate(phi, r, cpg.D_WALK, params, graph, 1e-3, 8000)
    phis2, rs2 = integrate(phis[-1], rs[-1], cpg.D_SWIM, params, graph, 1e-3, 14000)
    return 8.0 + 1e-3 * np.arange(14001), phis2, rs2


class TestWalking:
    def test_frequency(self, walk_run):
        t, phis, rs = walk_run
        x = rs * (1 + np.cos(phis))
        ang = cpg.joint_targets(x)
        f = _measure_freq(ang[6000:, 0], t[6000:])
        assert abs(f - 0.47) / 0.47 < 0.02

    def test_axial_amplitude(self, walk_run):
        t, phis, rs = walk_run
        ang = cpg.joint_targets(rs * (1 + np.cos(phis)))
        amp = math.degrees(np.ptp(ang[6000:, 0]) / 2)
        assert amp == pytest.approx(20.0, abs=0.2)

    def test_trot_phase_relations(self, walk_run):
        t, phis, rs = walk_run
        ph = {leg: phis[-1, FLEXOR[JOINT[f"{leg}_swing"]]] for leg in cpg.LEGS}
        cyc = lambda d: abs(wrap(d)) / TWO_PI
        # diagonal pairs in phase
        assert cyc(ph["fl"] - ph["hr"]) < 0.05
        assert cyc(ph["fr"] - ph["hl"]) < 0.05
        # ipsilateral pairs a half cycle apart
        assert abs(cyc(ph["fl"] - ph["hl"]) - 0.5) < 0.05
        assert abs(cyc(ph["fr"] - ph["hr"]) - 0.5) < 0.05

    def test_elevation_quadrature(self, walk_run):
        t, phis, rs = walk_run
        d = phis[-1, FLEXOR[JOINT["fl_elev"]]] - phis[-1, FLEXOR[JOINT["fl_swing"]]]
        assert wrap(d) == pytest.approx(math.pi / 2, abs=0.05)


class TestSwimming:
    def test_frequency(self, swim_run):
        t, phis, rs = swim_run
        ang = cpg.joint_targets(rs * (1 + np.cos(phis)))
        f = _measure_freq(ang[6000:, 0], t[6000:])
        assert abs(f - 0.78) / 0.78 < 0.02

    def test_axial_amplitude(self, swim_run):
        t, phis, rs = swim_run
        ang = cpg.joint_targets(rs * (1 + np.cos(phis)))
        amp = math.degrees(np.ptp(ang[6000:, 0]) / 2)
        assert abs(amp - 29.0) < 1.0

    def test_traveling_wave(self, swim_run):
        t, phis, rs = swim_run
        ax = phis[-1, FLEXOR[:8]]
        gaps = wrap(np.diff(ax))
        assert np.all(gaps < 0.0)
        total = abs(gaps.sum())
        assert abs(total - TWO_PI) / TWO_PI < 0.05

    def test_limb_silencing_within_three_cycles(self, swim_run):
        t, phis, rs = swim_run
        ang = cpg.joint_targets(rs * (1 + np.cos(phis)))
        k3 = int(3 / 0.78 / 1e-3)
        limb_cols = slice(cpg.N_AXIAL_JOINTS, cpg.N_JOINTS)
        assert np.abs(ang[k3:, limb_cols]).max() < 1e-3


class TestNetworkProperties:
    def test_phase_lock_from_random_initializations(self, network):
        # active (axial) relative phases reach a unique fixed point; limb
        # phases carry no amplitude at swim drive and are excluded.  The 20
        # seeds step together as one (20, 32) state.
        params, graph = network
        ax = np.concatenate([FLEXOR[:8], EXTENSOR[:8]])
        phi, r = np.stack([cpg.initial_state(params, cpg.D_SWIM,
                                             rng=np.random.default_rng(seed))
                           for seed in range(20)], axis=1)
        for _ in range(30000):
            phi, r = cpg.step_network(phi, r, cpg.D_SWIM, params, graph, 1e-3)
        rel = wrap(phi[:, ax] - phi[:, ax[:1]])
        assert np.abs(wrap(rel[1:] - rel[0])).max() < 1e-3

    def test_halving_dt_leaves_lock_unchanged(self, network):
        params, graph = network

        def steady(dt):
            phi, r = cpg.initial_state(params, cpg.D_WALK)
            for _ in range(int(25.0 / dt)):
                phi, r = cpg.step_network(phi, r, cpg.D_WALK, params, graph, dt)
            return wrap(phi - phi[0])

        d1, d2 = steady(1e-3), steady(5e-4)
        assert np.abs(wrap(d1 - d2)).max() < 1e-4


class TestTransition:
    def test_above_threshold_keeps_walking(self):
        cmd = cpg.GaitCommand(cpg.GaitMode.WALKING, cpg.D_WALK)
        out = cpg.transition_controller(20.0, cmd)
        assert out.mode is cpg.GaitMode.WALKING and out.drive == cpg.D_WALK

    def test_below_threshold_switches(self):
        cmd = cpg.GaitCommand(cpg.GaitMode.WALKING, cpg.D_WALK)
        out = cpg.transition_controller(6.9, cmd)
        assert out.mode is cpg.GaitMode.SWIMMING and out.drive == cpg.D_SWIM

    def test_threshold_is_strict(self):
        cmd = cpg.GaitCommand(cpg.GaitMode.WALKING, cpg.D_WALK)
        assert cpg.transition_controller(7.0, cmd).mode is cpg.GaitMode.WALKING

    def test_one_way(self):
        cmd = cpg.GaitCommand(cpg.GaitMode.SWIMMING, cpg.D_SWIM)
        out = cpg.transition_controller(30.0, cmd)
        assert out.mode is cpg.GaitMode.SWIMMING and out.drive == cpg.D_SWIM


class TestSerialization:
    def test_initial_state_reproducible(self, network):
        params, _ = network
        phi1, r1 = cpg.initial_state(params, cpg.D_WALK, rng=np.random.default_rng(9))
        phi2, _ = cpg.initial_state(params, cpg.D_WALK, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(phi1, phi2)
        omega, R = params.intrinsic(cpg.D_WALK)
        np.testing.assert_array_equal(r1, R)
