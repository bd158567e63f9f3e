"""The numeric cores of magnetics and cpg against independent references.

Each is checked against a plain reimplementation of what it computes:
the low-pass filter against the stepwise recurrence and bit for bit
against scipy's lfilter (which the package itself does not import), the
batch fin flux against the general point dipole, the Jacobian against
finite differences, the fin inversion against a row-at-a-time Newton on
Python floats, its grid seed against the full 151-point scan, and the RK4
step against a loop-by-loop derivative, against the dense n x n form of
its coupling sum and, where the amplitudes sit at their targets, against
the general step that integrates them.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amphisense import cpg
from amphisense import magnetics as mg


def _alpha(dt, cutoff_hz=3.6):
    """The coefficient lowpass_trace takes from its sample step dt."""
    tau = 1.0 / (2.0 * math.pi * cutoff_hz)
    return dt / (tau + dt)


def test_lowpass_scan_against_reference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 3))
    dt = 1e-3
    alpha = _alpha(dt)
    got = mg.lowpass_trace(x, dt)
    ref = np.empty_like(x)
    y = x[0].copy()
    ref[0] = y
    for i in range(1, len(x)):
        y = y + alpha * (x[i] - y)
        ref[i] = y
    np.testing.assert_allclose(got, ref, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lowpass_scan_matches_lfilter(data):
    # the scan rounds as lfilter's direct form II transposed does, so the
    # two agree exactly, with and without a continued output y0
    signal = pytest.importorskip("scipy.signal")
    n, k = data.draw(st.integers(1, 400)), data.draw(st.integers(1, 3))
    x = data.draw(arrays(np.float64, (n, k), elements=st.floats(-1e3, 1e3)))
    # dt for a coefficient in (1e-4, 0.999), which lowpass_trace recomputes
    target = data.draw(st.floats(1e-4, 0.999))
    dt = target / (1.0 - target) / (2.0 * math.pi * 3.6)
    alpha = _alpha(dt)
    y0 = data.draw(st.none() | arrays(np.float64, (k,), elements=st.floats(-1e3, 1e3)))
    zi = (1.0 - alpha) * np.asarray(x[0] if y0 is None else y0)[None, :]
    ref, _ = signal.lfilter([alpha], [1.0, alpha - 1.0], x, axis=0, zi=zi)
    np.testing.assert_array_equal(mg.lowpass_trace(x, dt, y0=y0), ref)


def test_import_leaves_scipy_out():
    script = "import sys, amphisense.harness; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_flow_flux_batch_against_scalar():
    rng = np.random.default_rng(1)
    ths = rng.uniform(-1.0, 1.0, size=64)
    Q = np.column_stack([3.0 * np.cos(ths), 3.0 * np.sin(ths), np.sin(0.35 + ths)])
    got = mg.flow_flux_batch(Q, 4.0, 120.0)
    params = mg.DipoleParams(n_t=120.0)
    ref = np.array([
        mg.dipole_flux(mg.MagnetPose(p=[px, py, 4.0], h=[math.sqrt(1.0 - hy * hy), hy, 0.0]),
                       params)
        for px, py, hy in Q
    ])
    np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_flow_jacobian_matches_finite_differences():
    q0 = np.array([2.9, 0.4, 0.45])
    J = mg._flow_jacobian(q0[None], 4.0, 120.0)[0]
    eps = 1e-7
    for c in range(3):
        qp, qm = q0.copy(), q0.copy()
        qp[c] += eps
        qm[c] -= eps
        fp, fm = mg.flow_flux_batch(np.array([qp, qm]), 4.0, 120.0)
        np.testing.assert_allclose(J[:, c], (fp - fm) / (2 * eps), rtol=1e-6, atol=1e-8)


def _scalar_flow_invert(b, pz, n_t, guess, resid_accept):
    """One flux row on Python floats: the best point of the 151-point
    +-75 deg rotation grid, then damped Newton with a Cramer solve."""
    def resid(q):
        px, py, hy = q
        hx = math.sqrt(max(1.0 - hy * hy, 0.0))
        r2 = px * px + py * py + pz * pz
        r5 = r2 * r2 * math.sqrt(r2)
        m = hx * px + hy * py
        f = (n_t * (3.0 * m * px - r2 * hx) / r5 - b[0],
             n_t * (3.0 * m * py - r2 * hy) / r5 - b[1], n_t * (3.0 * m * pz) / r5 - b[2])
        return f, math.sqrt(f[0] * f[0] + f[1] * f[1] + f[2] * f[2])

    rho, beta0 = math.hypot(guess[0], guess[1]), math.atan2(guess[1], guess[0])
    alpha0 = math.asin(guess[2])
    q, best, half = guess, math.inf, math.radians(75.0)
    for g in range(151):
        th = -half + 2.0 * half * g / 150
        cand = (rho * math.cos(beta0 + th), rho * math.sin(beta0 + th), math.sin(alpha0 + th))
        r = resid(cand)[1]
        if r < best:
            q, best = cand, r
    f, fn = resid(q)
    for _ in range(50):
        if fn <= 1e-10:
            break
        (a, b_, c), (d, e, g), (h, i, k) = mg._flow_jacobian(np.array([q]), pz, n_t)[0].tolist()
        r0, r1, r2 = -f[0], -f[1], -f[2]
        det = a * (e * k - g * i) - b_ * (d * k - g * h) + c * (d * i - e * h)
        if abs(det) < 1e-300:
            break
        s = ((r0 * (e * k - g * i) - b_ * (r1 * k - g * r2) + c * (r1 * i - e * r2)) / det,
             (a * (r1 * k - g * r2) - r0 * (d * k - g * h) + c * (d * r2 - r1 * h)) / det,
             (a * (e * r2 - r1 * i) - b_ * (d * r2 - r1 * h) + r0 * (d * i - e * h)) / det)
        step = 1.0
        for _bt in range(30):
            t = (q[0] + step * s[0], q[1] + step * s[1],
                 min(max(q[2] + step * s[2], -0.999999), 0.999999))
            if t[0] * t[0] + t[1] * t[1] + pz * pz >= 0.0625 and resid(t)[1] < fn:
                q, (f, fn) = t, resid(t)
                break
            step *= 0.5
        else:
            break
    return q, fn <= max(resid_accept, 1e-10)


def test_flow_invert_batch_against_scalar_newton():
    # a noisy sweep past the +-40 deg fin range; strict, a few rows stall
    rng = np.random.default_rng(4)
    ths = rng.uniform(-1.0, 1.0, size=120)
    Q = np.column_stack([3.0 * np.cos(ths), 3.0 * np.sin(ths), np.sin(0.35 + ths)])
    B = mg.flow_flux_batch(Q, 4.0, 120.0) + rng.normal(scale=0.05, size=Q.shape)
    guess = (3.0, 0.0, math.sin(0.35))
    for accept in (0.0, 0.1):
        got, ok = mg._flow_invert(B, 4.0, 120.0, np.array(guess), accept)
        ref = [_scalar_flow_invert(b, 4.0, 120.0, guess, accept) for b in B.tolist()]
        np.testing.assert_array_equal(got, [q for q, _ in ref])
        assert ok.tolist() == [k for _, k in ref]
        assert ok.all() == bool(accept)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_flow_invert_batch_rows_are_independent(data):
    # a row comes out the same whatever rows share its call: a lone row and
    # the two halves of any split equal the whole batch, at and around the
    # Newton block size.  Strict acceptance, so stalled rows are among them.
    nb = mg._NEWTON_BLOCK
    n = data.draw(st.sampled_from([1, 7, nb - 1, nb, nb + 1, 2 * nb + 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ths = rng.uniform(-1.0, 1.0, size=n)
    Q = np.column_stack([3.0 * np.cos(ths), 3.0 * np.sin(ths), np.sin(0.35 + ths)])
    B = mg.flow_flux_batch(Q, 4.0, 120.0) + rng.normal(scale=0.05, size=Q.shape)
    guess = np.array([3.0, 0.0, math.sin(0.35)])
    accept = data.draw(st.sampled_from([0.0, 0.1]))
    got, ok = mg._flow_invert(B, 4.0, 120.0, guess, accept)
    cut = data.draw(st.integers(0, n))
    head, ok_head = mg._flow_invert(B[:cut], 4.0, 120.0, guess, accept)
    tail, ok_tail = mg._flow_invert(B[cut:], 4.0, 120.0, guess, accept)
    np.testing.assert_array_equal(got, np.concatenate([head, tail]))
    np.testing.assert_array_equal(ok, np.concatenate([ok_head, ok_tail]))
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        lone, ok_lone = mg._flow_invert(B[i:i + 1], 4.0, 120.0, guess, accept)
        np.testing.assert_array_equal(got[i], lone[0])
        assert ok[i] == ok_lone[0]


def _full_scan_seed(B, pz, n_t, guess):
    """The grid seed by scanning every one of the 151 grid points."""
    rho, beta0 = math.hypot(guess[0], guess[1]), math.atan2(guess[1], guess[0])
    alpha0 = math.asin(min(max(guess[2], -1.0), 1.0))
    half = math.radians(75.0)
    ths = [-half + 2.0 * half * g / 150 for g in range(151)]
    grid = np.array([(rho * math.cos(beta0 + th), rho * math.sin(beta0 + th),
                      min(max(math.sin(alpha0 + th), -1.0), 1.0)) for th in ths] + [guess])
    best, pick = np.full(len(B), math.inf), np.full(len(B), 151)
    with np.errstate(over="ignore", invalid="ignore"):
        for g, f in enumerate(mg.flow_flux_batch(grid[:-1], pz, n_t).tolist()):
            resid = mg._norm(f[0] - B[:, 0], f[1] - B[:, 1], f[2] - B[:, 2])
            better = resid < best
            best[better], pick[better] = resid[better], g
    return grid[pick]


def _fin_rows(rng, n, alpha0, beta0, ths, sigma):
    """Flux rows of the guess pose (3 mm, beta0, alpha0) turned through ths,
    with noise sigma (mT)."""
    Q = np.column_stack([3.0 * np.cos(beta0 + ths), 3.0 * np.sin(beta0 + ths),
                         np.sin(alpha0 + ths)])
    return mg.flow_flux_batch(Q, 4.0, 120.0) + rng.normal(scale=sigma, size=(n, 3))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_grid_seed_matches_full_scan(data):
    # the seed scans a few grid points a row; it picks what the full scan
    # picks on the fin family over the whole circle, near and past the
    # rigid range's edge (alpha0 + theta = 90 deg), on rows of noise alone,
    # tiny, huge and non-finite rows, and with the guess turned about z
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    alpha0 = math.radians(data.draw(st.sampled_from([20.0, -20.0, 0.0, 45.0, 89.9, 90.0])))
    beta0 = data.draw(st.sampled_from([0.0, 0.7, -2.5]))
    guess = [3.0 * math.cos(beta0), 3.0 * math.sin(beta0), math.sin(alpha0)]
    sigma = data.draw(st.sampled_from([0.0, 0.01, 0.05]))
    n = 400
    ths = np.concatenate([rng.uniform(-math.pi, math.pi, n),
                          math.pi / 2 - alpha0 + rng.normal(scale=0.02, size=n)])
    B = np.concatenate([
        _fin_rows(rng, 2 * n, alpha0, beta0, ths, sigma),
        rng.normal(scale=0.05, size=(n, 3)),                   # noise alone
        rng.normal(scale=data.draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e6, 1e200])),
                   size=(n, 3)),
    ])
    B[rng.integers(0, len(B), 20), rng.integers(0, 3, 20)] = rng.choice(
        [np.nan, np.inf, -np.inf], 20)
    with np.errstate(over="ignore"):
        got = mg._flow_grid_seed(B, mg._flow_grid(4.0, 120.0, guess))
    np.testing.assert_array_equal(got, _full_scan_seed(B, 4.0, 120.0, guess))


def test_grid_seed_matches_full_scan_past_70_deg():
    # the fin's rows at 59-69 deg under 0.05 mT noise, where the grid's
    # points past alpha0 + theta = 90 deg (theta > 70 deg) compete
    rng = np.random.default_rng(11)
    guess = [3.0, 0.0, math.sin(math.radians(20.0))]
    ths = rng.uniform(math.radians(59.0), math.radians(69.0), 20_000)
    B = _fin_rows(rng, len(ths), math.radians(20.0), 0.0, ths, 0.05)
    got = mg._flow_grid_seed(B, mg._flow_grid(4.0, 120.0, guess))
    np.testing.assert_array_equal(got, _full_scan_seed(B, 4.0, 120.0, guess))


def _dense(n, edges):
    """Weight and bias matrices W[i, j], B[i, j] of an edge list."""
    W, B = np.zeros((n, n)), np.zeros((n, n))
    for i, j, w, b in edges:
        W[i, j], B[i, j] = w, b
    return W, B


def _tiny_network():
    n = 4
    rng = np.random.default_rng(2)
    phi = rng.uniform(0, 2 * np.pi, n)
    r = rng.uniform(0.1, 0.4, n)
    omega = np.array([2.0, 2.1, 1.9, 2.05]) * 2 * np.pi
    graph = cpg.CouplingGraph(n=n, edges=(
        (0, 1, 10.0, math.pi), (0, 3, 10.0, 0.5),
        (1, 0, 10.0, -math.pi), (1, 2, 10.0, 0.3),
        (2, 1, 10.0, -0.3), (2, 3, 10.0, math.pi),
        (3, 0, 10.0, -0.5), (3, 2, 10.0, -math.pi),
    ))
    a = np.full(n, 20.0)
    R = np.array([0.2, 0.3, 0.25, 0.2])
    return phi, r, omega, graph, a, R


def test_cpg_step_against_reference():
    phi, r, omega, graph, a, R = _tiny_network()
    W, B = _dense(graph.n, graph.edges)
    dt = 1e-3
    got_phi, got_r = cpg._rk4_step(phi, r, omega, graph.arrays, a, R, dt)

    def deriv(ph, rr):
        dphi = np.empty_like(ph)
        dr = np.empty_like(rr)
        for i in range(len(ph)):
            acc = 0.0
            for j in range(len(ph)):
                acc += rr[j] * W[i, j] * math.sin(ph[j] - ph[i] - B[i, j])
            dphi[i] = omega[i] + acc
            dr[i] = a[i] * (R[i] - rr[i])
        return dphi, dr

    k1p, k1r = deriv(phi, r)
    k2p, k2r = deriv(phi + 0.5 * dt * k1p, r + 0.5 * dt * k1r)
    k3p, k3r = deriv(phi + 0.5 * dt * k2p, r + 0.5 * dt * k2r)
    k4p, k4r = deriv(phi + dt * k3p, r + dt * k3r)
    ref_phi = phi + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    ref_r = r + dt / 6 * (k1r + 2 * k2r + 2 * k3r + k4r)
    np.testing.assert_allclose(got_phi, ref_phi, atol=1e-13)
    np.testing.assert_allclose(got_r, ref_r, atol=1e-13)


def test_step_network_matches_cpg_step():
    # the per-tick call steps as the kernel does at its drive's rates and
    # targets, here constant maps that give the tiny network's at any drive
    phi, r, omega, graph, a, R = _tiny_network()
    dt = 1e-3
    const = lambda v: cpg.SaturationMap(0.0, float(v), 0.0, 10.0)
    params = cpg.OscillatorParams(a=a, omega_maps=tuple(map(const, omega)),
                                  amp_maps=tuple(map(const, R)), groups=("axial",) * 4)
    trace = [(phi, r)]
    for _ in range(500):
        trace.append(cpg.step_network(*trace[-1], 1.0, params, graph, dt))
    phis, rs = np.array(trace).transpose(1, 0, 2)
    assert phis.shape == (501, 4)
    p, q = phi.copy(), r.copy()
    for _ in range(500):
        p, q = cpg._rk4_step(p, q, omega, graph.arrays, a, R, dt)
    np.testing.assert_array_equal(phis[-1], p)
    np.testing.assert_array_equal(rs[-1], q)


@pytest.fixture(scope="module")
def gait_network():
    return cpg.build_gait_network()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cpg_batch_rows_equal_lone_states(gait_network, data):
    # a batch over leading axes steps each row exactly as it steps alone,
    # through cpg_step and through step_network
    params, graph, _ = gait_network
    lead = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    phi = data.draw(arrays(np.float64, lead + (cpg.N_OSC,), elements=st.floats(0.0, 2 * math.pi)))
    r = data.draw(arrays(np.float64, lead + (cpg.N_OSC,), elements=st.floats(0.0, 0.5)))
    drive = data.draw(st.sampled_from([cpg.D_WALK, 3.0, cpg.D_SWIM]))
    omega, R = params.intrinsic(drive)
    n_steps = data.draw(st.integers(1, 20))
    args = (omega, graph.arrays, params.a, R, 1e-3)

    p, q = phi, r
    sp, sq = phi, r
    for _ in range(n_steps):
        p, q = cpg._rk4_step(p, q, *args)
        sp, sq = cpg.step_network(sp, sq, drive, params, graph, 1e-3)
    assert sp.shape == sq.shape == phi.shape
    for idx in np.ndindex(*lead):
        lone_p, lone_q = phi[idx], r[idx]
        for _ in range(n_steps):
            lone_p, lone_q = cpg._rk4_step(lone_p, lone_q, *args)
        np.testing.assert_array_equal(p[idx], lone_p)
        np.testing.assert_array_equal(q[idx], lone_q)
        np.testing.assert_array_equal(sp[idx], lone_p)
        np.testing.assert_array_equal(sq[idx], lone_q)


def _general_rk4(phi, r, omega, edges, a, R, dt):
    """The RK4 step that integrates the amplitudes at every stage."""
    I, J, w, b = edges
    if phi.ndim > 1:
        offset = np.arange(0, phi.size, phi.shape[-1])[:, None]
        I, J = offset + I, offset + J

    def deriv(ph, rr):
        p, q = ph.ravel(), rr.ravel()
        c = (w * q[J]) * np.sin(p[J] - p[I] - b)
        pull = np.bincount(I.ravel(), c.ravel(), minlength=phi.size).reshape(phi.shape)
        return omega + pull, a * (R - rr)

    k1p, k1r = deriv(phi, r)
    k2p, k2r = deriv(phi + 0.5 * dt * k1p, r + 0.5 * dt * k1r)
    k3p, k3r = deriv(phi + 0.5 * dt * k2p, r + 0.5 * dt * k2r)
    k4p, k4r = deriv(phi + dt * k3p, r + dt * k3r)
    return (phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
            r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r))


def _same_bits(x, y):
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(y))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_phase_only_step_equals_general_step(gait_network, data):
    # amplitudes at their targets (the limbs' 0 at the swim drive, some as
    # -0.0), one row one ulp off them, or NaN and inf amplitudes: the step
    # gives the general step's bits, signed zeros included
    params, graph, _ = gait_network
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    drive = data.draw(st.sampled_from([cpg.D_WALK, cpg.D_SWIM]))
    omega, R = params.intrinsic(drive)
    R = np.where(data.draw(arrays(bool, cpg.N_OSC)) & (R == 0.0), -0.0, R)
    phi = data.draw(arrays(np.float64, lead + (cpg.N_OSC,), elements=st.floats(0.0, 2 * math.pi)))
    r = np.broadcast_to(R, phi.shape).copy()
    r[data.draw(arrays(bool, phi.shape)) & (r == 0.0)] *= -1.0
    case = data.draw(st.sampled_from(["targets", "ulp", "nan", "inf"]))
    at = tuple(data.draw(st.integers(0, m - 1)) for m in phi.shape)
    if case == "ulp":
        r[at] = np.nextafter(r[at], data.draw(st.sampled_from([-np.inf, np.inf])))
    elif case != "targets":
        r[at] = {"nan": np.nan, "inf": np.inf}[case]
    args = (omega, graph.arrays, params.a, R, 1e-3)
    assert (case == "targets") == (not np.count_nonzero(params.a * (R - r)))
    with np.errstate(invalid="ignore"):
        got, ref = cpg._rk4_step(phi, r, *args), _general_rk4(phi, r, *args)
    for x, y in zip(got, ref):
        _same_bits(x, y)


@pytest.mark.parametrize("drive", [cpg.D_WALK, cpg.D_SWIM])
def test_cpg_step_tracks_dense_coupling(gait_network, drive):
    # the edge-list sum reorders the dense row sum's additions only, so
    # 5,000 steps of the gait network stay within rounding of the dense form
    params, graph, _ = gait_network
    W, B = _dense(graph.n, graph.edges)
    omega, R = params.intrinsic(drive)
    a = params.a
    dt = 1e-3

    def deriv(ph, rr):
        return omega + (W * np.sin(ph[None, :] - ph[:, None] - B)) @ rr, a * (R - rr)

    p, q = ref_p, ref_q = cpg.initial_state(params, drive, rng=np.random.default_rng(7))
    for _ in range(5000):
        p, q = cpg._rk4_step(p, q, omega, graph.arrays, a, R, dt)
        k1p, k1r = deriv(ref_p, ref_q)
        k2p, k2r = deriv(ref_p + 0.5 * dt * k1p, ref_q + 0.5 * dt * k1r)
        k3p, k3r = deriv(ref_p + 0.5 * dt * k2p, ref_q + 0.5 * dt * k2r)
        k4p, k4r = deriv(ref_p + dt * k3p, ref_q + dt * k3r)
        ref_p = ref_p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        ref_q = ref_q + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    np.testing.assert_allclose(p, ref_p, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q, ref_q, rtol=0.0, atol=1e-12)
