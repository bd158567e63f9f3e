"""Numerical kernels: the low-pass scan, the fin flux model and its Newton
inversion, and the phase-oscillator RK4 step.

Work that is independent across elements is vectorized with numpy.  The
sequential recurrences (the low-pass scan, Newton continuation over a flux
stream) loop in Python on floats and tuples, which cost far less per
operation than numpy scalars.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# first-order low-pass scan
# ---------------------------------------------------------------------------

# A Python loop per column.  Each output is rounded as
# fl(fl((1 - alpha) y[n-1]) + fl(alpha x[n])), the order in which scipy's
# lfilter (direct form II transposed) computes this filter, so both give
# the same bits.

def lowpass_scan(x: np.ndarray, alpha: float, y0=None) -> np.ndarray:
    """First-order IIR scan down the rows of x, continuing from the output
    y0 (k,) before them; by default the trace starts at x[0]."""
    # y[n] = alpha x[n] + (1 - alpha) y[n-1], with y[-1] = y0 (default x[0])
    x, alpha = np.asarray(x, dtype=float), float(alpha)
    c = 1.0 - alpha
    v = alpha * x
    y = np.empty_like(v)
    for j in range(x.shape[1]):
        p = float(x[0, j] if y0 is None else y0[j])
        col = []
        for vn in v[:, j].tolist():
            p = c * p + vn
            col.append(p)
        y[:, j] = col
    return y


# ---------------------------------------------------------------------------
# fin-magnet flux model and Newton inversion
# ---------------------------------------------------------------------------
# Unknowns q = (p_x, p_y, h_y); p_z is fixed, h_x = sqrt(1 - h_y^2), h_z = 0.
# The scalar cores take and return floats and tuples: q, a flux f and a step
# s are 3-tuples, a Jacobian is a tuple of three rows.

def _flow_flux_core(px, py, hy, pz, n_t):
    hx = math.sqrt(max(1.0 - hy * hy, 0.0))
    r2 = px * px + py * py + pz * pz
    r = math.sqrt(r2)
    r5 = r2 * r2 * r
    m = hx * px + hy * py
    return (n_t * (3.0 * m * px - r2 * hx) / r5,
            n_t * (3.0 * m * py - r2 * hy) / r5,
            n_t * (3.0 * m * pz) / r5)


def _flow_jacobian(px, py, hy, pz, n_t):
    """Analytic Jacobian of the flux model w.r.t. (p_x, p_y, h_y), by rows."""
    hx = math.sqrt(max(1.0 - hy * hy, 1e-12))
    r2 = px * px + py * py + pz * pz
    r = math.sqrt(r2)
    r5 = r2 * r2 * r
    r7 = r5 * r2
    m = hx * px + hy * py
    nx = 3.0 * m * px - r2 * hx
    ny = 3.0 * m * py - r2 * hy
    nz = 3.0 * m * pz
    # d/dp_x
    j00 = n_t * ((hx * px + 3.0 * m) / r5 - 5.0 * px * nx / r7)
    j10 = n_t * ((3.0 * hx * py - 2.0 * px * hy) / r5 - 5.0 * px * ny / r7)
    j20 = n_t * (3.0 * hx * pz / r5 - 5.0 * px * nz / r7)
    # d/dp_y
    j01 = n_t * ((3.0 * hy * px - 2.0 * py * hx) / r5 - 5.0 * py * nx / r7)
    j11 = n_t * ((hy * py + 3.0 * m) / r5 - 5.0 * py * ny / r7)
    j21 = n_t * (3.0 * hy * pz / r5 - 5.0 * py * nz / r7)
    # d/dh_y, through h_x as well
    dm = -hy / hx * px + py
    j02 = n_t * (3.0 * dm * px + r2 * hy / hx) / r5
    j12 = n_t * (3.0 * dm * py - r2) / r5
    j22 = n_t * (3.0 * dm * pz) / r5
    return (j00, j01, j02), (j10, j11, j12), (j20, j21, j22)


def _solve3(J, f):
    """Cramer solve of J s = -f for a 3x3 system; returns (ok, s), with ok
    False if J is singular."""
    (a, b, c), (d, e, g), (h, i, k) = J
    det = a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h)
    if abs(det) < 1e-300:
        return False, (0.0, 0.0, 0.0)
    r0, r1, r2 = -f[0], -f[1], -f[2]
    return True, ((r0 * (e * k - g * i) - b * (r1 * k - g * r2) + c * (r1 * i - e * r2)) / det,
                  (a * (r1 * k - g * r2) - r0 * (d * k - g * h) + c * (d * r2 - r1 * h)) / det,
                  (a * (e * r2 - r1 * i) - b * (d * r2 - r1 * h) + r0 * (d * i - e * h)) / det)


def _flow_newton_core(bx, by, bz, pz, n_t, q, tol, max_iter):
    """Damped Newton on the flux residual from q.

    Returns (q, residual_norm, converged).  Steps are backtracked until the
    residual drops; h_y is clamped inside (-1, 1) and the magnet is kept off
    the sensor origin so the model stays finite.
    """
    f0, f1, f2 = _flow_flux_core(q[0], q[1], q[2], pz, n_t)
    f0 -= bx
    f1 -= by
    f2 -= bz
    fn = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    for _ in range(max_iter):
        if fn <= tol:
            return q, fn, True
        ok, s = _solve3(_flow_jacobian(q[0], q[1], q[2], pz, n_t), (f0, f1, f2))
        if not ok:
            return q, fn, False
        step = 1.0
        improved = False
        for _bt in range(30):
            q0 = q[0] + step * s[0]
            q1 = q[1] + step * s[1]
            q2 = q[2] + step * s[2]
            if q2 > 0.999999:
                q2 = 0.999999
            elif q2 < -0.999999:
                q2 = -0.999999
            if q0 * q0 + q1 * q1 + pz * pz < 0.0625:
                step *= 0.5
                continue
            g0, g1, g2 = _flow_flux_core(q0, q1, q2, pz, n_t)
            g0 -= bx
            g1 -= by
            g2 -= bz
            fnn = math.sqrt(g0 * g0 + g1 * g1 + g2 * g2)
            if fnn < fn:
                q = (q0, q1, q2)
                f0, f1, f2 = g0, g1, g2
                fn = fnn
                improved = True
                break
            step *= 0.5
        if not improved:
            return q, fn, False
    return q, fn, fn <= tol


def _flow_grid_seed(bx, by, bz, pz, n_t, rho, beta0, alpha0, q):
    """Best fin rotation of the guess pose on a coarse +-75 deg grid; q comes
    back unchanged if no grid point has a finite residual.

    The guess pose defines the physical one-parameter family (magnet on a
    circle of radius rho, magnetization co-rotating); seeding from it keeps
    Newton on the physical branch when several exact roots exist.
    """
    best = math.inf
    n_grid = 151
    half = math.radians(75.0)
    for g in range(n_grid):
        th = -half + 2.0 * half * g / (n_grid - 1)
        px = rho * math.cos(beta0 + th)
        py = rho * math.sin(beta0 + th)
        hy = math.sin(alpha0 + th)
        if hy > 1.0:
            hy = 1.0
        elif hy < -1.0:
            hy = -1.0
        f = _flow_flux_core(px, py, hy, pz, n_t)
        resid = math.sqrt((f[0] - bx) ** 2 + (f[1] - by) ** 2 + (f[2] - bz) ** 2)
        if resid < best:
            best = resid
            q = (px, py, hy)
    return q


def _flow_family(guess):
    """Radius, spoke angle and magnetization angle of the guess pose."""
    return (math.hypot(guess[0], guess[1]), math.atan2(guess[1], guess[0]),
            math.asin(min(max(guess[2], -1.0), 1.0)))


def _flow_invert_one(bx, by, bz, pz, n_t, seed, rho, beta0, alpha0,
                     max_jump, trust_seed, tol, resid_accept, max_iter):
    """One flux fix: Newton from seed, falling back to a grid reseed.

    Returns (q, ok).  Newton with backtracking descends the residual norm,
    so a stall is the least-squares projection onto the model image; that
    point is accepted when its residual is within resid_accept (noisy flux
    generically lies a little off the image).  A root found from a trusted
    seed also has to stay within max_jump of it (stream continuity); cold
    seeds always go through the grid, which pins the result to the physical
    branch.  Distances weight h_y by rho so all three coordinates are
    mm-equivalent.
    """
    accept = resid_accept if resid_accept > tol else tol
    qa, ra, ok_a = _flow_newton_core(bx, by, bz, pz, n_t, seed, tol, max_iter)
    if trust_seed:
        d2 = (qa[0] - seed[0]) ** 2 + (qa[1] - seed[1]) ** 2 + (rho * (qa[2] - seed[2])) ** 2
        if d2 <= max_jump * max_jump and ra <= accept:
            return qa, True
    q = _flow_grid_seed(bx, by, bz, pz, n_t, rho, beta0, alpha0, qa)
    qb, rb, ok_b = _flow_newton_core(bx, by, bz, pz, n_t, q, tol, max_iter)
    if ok_b:
        return qb, True
    if ok_a and not trust_seed:
        # exact root from the caller's own seed; grid only stalled
        return qa, True
    return qb, rb <= accept


def flow_flux_into(px, py, hy, pz, n_t, out):
    out[0], out[1], out[2] = _flow_flux_core(px, py, hy, pz, n_t)


def flow_flux_batch(Q: np.ndarray, pz: float, n_t: float) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    px, py, hy = Q[:, 0], Q[:, 1], Q[:, 2]
    hx = np.sqrt(np.maximum(1.0 - hy * hy, 0.0))
    r2 = px * px + py * py + pz * pz
    r5 = r2 * r2 * np.sqrt(r2)
    m = hx * px + hy * py
    out = np.empty_like(Q)
    out[:, 0] = n_t * (3.0 * m * px - r2 * hx) / r5
    out[:, 1] = n_t * (3.0 * m * py - r2 * hy) / r5
    out[:, 2] = n_t * (3.0 * m * pz) / r5
    return out


def flow_newton_batch(B, pz, n_t, guess, max_jump, tol, resid_accept, max_iter):
    """Continuation over a flux stream: each row warm-starts from the last fix.

    Returns the (N, 3) fixes and an (N,) bool convergence mask.
    """
    B = np.asarray(B, dtype=float)
    pz, n_t, max_jump, tol = float(pz), float(n_t), float(max_jump), float(tol)
    resid_accept, max_iter = float(resid_accept), int(max_iter)
    guess = tuple(np.asarray(guess, dtype=float).tolist())
    rho, beta0, alpha0 = _flow_family(guess)
    sols = np.empty_like(B)
    oks = np.zeros(B.shape[0], dtype=np.bool_)
    warm = guess
    have_warm = False
    for k, (bx, by, bz) in enumerate(B.tolist()):
        q, ok = _flow_invert_one(
            bx, by, bz, pz, n_t, warm, rho, beta0, alpha0, max_jump, have_warm,
            tol, resid_accept, max_iter,
        )
        sols[k] = q
        oks[k] = ok
        warm, have_warm = (q, True) if ok else (guess, False)
    return sols, oks


# ---------------------------------------------------------------------------
# phase-oscillator network integration
# ---------------------------------------------------------------------------
# State per oscillator: phase phi and amplitude r.
#   dphi_i = omega_i + sum_j r_j W_ij sin(phi_j - phi_i - B_ij)
#   dr_i   = a_i (R_i - r_i)
# Amplitude-weighted coupling lets a unit pulled to r = 0 release its
# neighbours entirely.  Integrated with classic RK4.

def _cpg_deriv(phi, r, omega, W, Bias, a, R):
    D = phi[None, :] - phi[:, None] - Bias
    return omega + (W * np.sin(D)) @ r, a * (R - r)


def cpg_step(phi, r, omega, W, Bias, a, R, dt):
    k1p, k1r = _cpg_deriv(phi, r, omega, W, Bias, a, R)
    k2p, k2r = _cpg_deriv(phi + 0.5 * dt * k1p, r + 0.5 * dt * k1r, omega, W, Bias, a, R)
    k3p, k3r = _cpg_deriv(phi + 0.5 * dt * k2p, r + 0.5 * dt * k2r, omega, W, Bias, a, R)
    k4p, k4r = _cpg_deriv(phi + dt * k3p, r + dt * k3r, omega, W, Bias, a, R)
    phi2 = phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    r2 = r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    return phi2, r2


def cpg_rollout(phi0, r0, omega, W, Bias, a, R, dt, n_steps):
    n = phi0.shape[0]
    phis = np.empty((n_steps + 1, n))
    rs = np.empty((n_steps + 1, n))
    phi, r = phi0, r0
    phis[0] = phi
    rs[0] = r
    for k in range(n_steps):
        phi, r = cpg_step(phi, r, omega, W, Bias, a, R, dt)
        phis[k + 1] = phi
        rs[k + 1] = r
    return phis, rs
