"""Numerical kernels: the low-pass scan, the fin flux model and its Newton
inversion, and the phase-oscillator RK4 step.

Work that is independent across elements is vectorized with numpy; the fin
inversion runs its Newton iterations over all flux rows at once, and the
oscillator step runs over the coupling graph's edge list and over any
leading axes of the state, so a batch of networks takes one call.  The
low-pass scan, a sequential recurrence, loops in Python on floats, which
cost far less per operation than numpy scalars.
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
# Rows q = (p_x, p_y, h_y); p_z is fixed, h_x = sqrt(1 - h_y^2), h_z = 0.
# Each flux row is inverted on its own, whatever the rows around it.


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


def _flow_jacobian(Q: np.ndarray, pz: float, n_t: float) -> np.ndarray:
    """Analytic Jacobian of flow_flux_batch w.r.t. (p_x, p_y, h_y), (n, 3, 3)."""
    px, py, hy = Q[:, 0], Q[:, 1], Q[:, 2]
    hx = np.sqrt(np.maximum(1.0 - hy * hy, 1e-12))
    r2 = px * px + py * py + pz * pz
    r5 = r2 * r2 * np.sqrt(r2)
    r7 = r5 * r2
    m = hx * px + hy * py
    nx = 3.0 * m * px - r2 * hx
    ny = 3.0 * m * py - r2 * hy
    nz = 3.0 * m * pz
    dm = -hy / hx * px + py     # dm/dh_y, through h_x as well
    J = np.empty(Q.shape + (3,))
    J[:, 0, 0] = n_t * ((hx * px + 3.0 * m) / r5 - 5.0 * px * nx / r7)
    J[:, 1, 0] = n_t * ((3.0 * hx * py - 2.0 * px * hy) / r5 - 5.0 * px * ny / r7)
    J[:, 2, 0] = n_t * (3.0 * hx * pz / r5 - 5.0 * px * nz / r7)
    J[:, 0, 1] = n_t * ((3.0 * hy * px - 2.0 * py * hx) / r5 - 5.0 * py * nx / r7)
    J[:, 1, 1] = n_t * ((hy * py + 3.0 * m) / r5 - 5.0 * py * ny / r7)
    J[:, 2, 1] = n_t * (3.0 * hy * pz / r5 - 5.0 * py * nz / r7)
    J[:, 0, 2] = n_t * (3.0 * dm * px + r2 * hy / hx) / r5
    J[:, 1, 2] = n_t * (3.0 * dm * py - r2) / r5
    J[:, 2, 2] = n_t * (3.0 * dm * pz) / r5
    return J


def _solve3(J, F):
    """Cramer solve of J s = -F per row: s (n, 3) and where J is regular."""
    (a, b, c), (d, e, g), (h, i, k) = J.transpose(1, 2, 0)
    r0, r1, r2 = -F.T
    det = a * (e * k - g * i) - b * (d * k - g * h) + c * (d * i - e * h)
    s = np.column_stack([
        r0 * (e * k - g * i) - b * (r1 * k - g * r2) + c * (r1 * i - e * r2),
        a * (r1 * k - g * r2) - r0 * (d * k - g * h) + c * (d * r2 - r1 * h),
        a * (e * r2 - r1 * i) - b * (d * r2 - r1 * h) + r0 * (d * i - e * h),
    ]) / det[:, None]
    return s, ~(np.abs(det) < 1e-300)


def _norm(d0, d1, d2):
    return np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


def _flow_grid_seed(B, pz, n_t, guess):
    """Best fin rotation of the guess pose on a 151-point +-75 deg grid, per
    row (the guess if none has a finite residual).  The guess fixes the
    physical family (magnet on a circle of radius rho, magnetization
    co-rotating), so Newton starts on the physical branch of the roots.
    The scan reuses its row buffers, so it allocates nothing per grid point."""
    rho, beta0 = math.hypot(guess[0], guess[1]), math.atan2(guess[1], guess[0])
    alpha0 = math.asin(min(max(guess[2], -1.0), 1.0))
    half = math.radians(75.0)
    ths = [-half + 2.0 * half * g / 150 for g in range(151)]
    grid = np.array([(rho * math.cos(beta0 + th), rho * math.sin(beta0 + th),
                      min(max(math.sin(alpha0 + th), -1.0), 1.0)) for th in ths] + [guess])
    n = len(B)
    best, resid, d = np.full(n, math.inf), np.empty(n), np.empty(n)
    pick = np.full(n, len(ths), np.int16)     # the guess, grid's last row
    better = np.empty(n, bool)
    for g, f in enumerate(flow_flux_batch(grid[:-1], pz, n_t).tolist()):
        # resid = _norm(f0 - b0, f1 - b1, f2 - b2), the same roundings in place
        np.subtract(f[0], B[:, 0], out=resid)
        np.multiply(resid, resid, out=resid)
        for c in (1, 2):
            np.subtract(f[c], B[:, c], out=d)
            np.multiply(d, d, out=d)
            resid += d
        np.sqrt(resid, out=resid)
        np.less(resid, best, out=better)
        np.copyto(best, resid, where=better)
        np.copyto(pick, g, where=better)
    return grid[pick]


# Rows per Newton block.  Each block pays the iteration's per-call numpy
# overhead once (about 0.6 ms a block on a 2-core x86 box), and its
# temporaries, a few hundred bytes a row, stay this size however many rows
# one call inverts.  2048 rows saved some of that overhead but raised a swim
# run's peak memory above that of inverting each fin on its own.
_NEWTON_BLOCK = 1024


def flow_invert_batch(B, pz, n_t, guess, resid_accept):
    """Fin poses (N, 3) of the flux rows B (N, 3) and their (N,) bool mask.

    Damped Newton from each row's grid seed, backtracking a step up to 30
    times until the residual drops, with h_y clamped inside (-1, 1) and the
    magnet kept off the sensor origin.  A stall is the least-squares
    projection onto the model image; it is accepted within resid_accept (mT).
    The rows are seeded together and iterated in blocks of _NEWTON_BLOCK.
    """
    B = np.asarray(B, dtype=float)
    Q = _flow_grid_seed(B, pz, n_t, np.asarray(guess, dtype=float).tolist())
    fn = np.empty(len(B))
    for a in range(0, len(B), _NEWTON_BLOCK):
        rows = slice(a, a + _NEWTON_BLOCK)
        fn[rows] = _flow_newton(Q[rows], B[rows], pz, n_t)
    return Q, fn <= (resid_accept if resid_accept > 1e-10 else 1e-10)


def _flow_newton(Q, B, pz, n_t):
    """Damped Newton on the rows of Q in place; their final residuals."""
    F = flow_flux_batch(Q, pz, n_t) - B
    fn = _norm(*F.T)
    live = np.arange(len(B))                  # rows still iterating
    with np.errstate(all="ignore"):
        for _ in range(50):
            live = live[~(fn[live] <= 1e-10)]
            if not len(live):
                break
            s, solvable = _solve3(_flow_jacobian(Q[live], pz, n_t), F[live])
            live, s = live[solvable], s[solvable]
            step = np.ones(len(live))
            search = np.arange(len(live))     # positions in live still backtracking
            for _bt in range(30):
                rows = live[search]
                T = Q[rows] + step[search, None] * s[search]
                np.clip(T[:, 2], -0.999999, 0.999999, out=T[:, 2])
                G = flow_flux_batch(T, pz, n_t) - B[rows]
                gn = _norm(*G.T)
                near = T[:, 0] * T[:, 0] + T[:, 1] * T[:, 1] + pz * pz < 0.0625
                down = (gn < fn[rows]) & ~near
                took = rows[down]
                Q[took], F[took], fn[took] = T[down], G[down], gn[down]
                search = search[~down]
                step[search] *= 0.5
                if not len(search):
                    break
            live = np.delete(live, search)    # no descent in 30 halvings: a stall
    return fn


# ---------------------------------------------------------------------------
# phase-oscillator network integration
# ---------------------------------------------------------------------------
# State per oscillator: phase phi and amplitude r, over leading axes (..., n).
#   dphi_i = omega_i + sum over edges (i, j) of w_ij r_j sin(phi_j - phi_i - b_ij)
#   dr_i   = a_i (R_i - r_i)
# Amplitude-weighted coupling lets a unit pulled to r = 0 release its
# neighbours entirely.  Integrated with classic RK4.
#
# The coupling is gathered over the edge list (I, J, w, b), not a dense
# n x n matrix: the gait graph has 88 edges among 32 units.  bincount sums
# each unit's terms in edge order.  Leading rows are flattened into offset
# indices, one bincount for all of them, so every row is summed in the same
# order as a state stepped alone and a batch row equals it bit for bit.


def cpg_step(phi, r, omega, edges, a, R, dt):
    """One RK4 step of states phi, r (..., n); edges is (I, J, w, b)."""
    I, J, w, b = edges
    if phi.ndim > 1:   # index each leading row's units in the flattened state
        offset = np.arange(0, phi.size, phi.shape[-1])[:, None]
        I, J = offset + I, offset + J
    bins = I.ravel()

    def deriv(ph, rr):
        p, q = ph.ravel(), rr.ravel()
        c = (w * q[J]) * np.sin(p[J] - p[I] - b)
        pull = np.bincount(bins, c.ravel(), minlength=phi.size).reshape(phi.shape)
        return omega + pull, a * (R - rr)

    k1p, k1r = deriv(phi, r)
    k2p, k2r = deriv(phi + 0.5 * dt * k1p, r + 0.5 * dt * k1r)
    k3p, k3r = deriv(phi + 0.5 * dt * k2p, r + 0.5 * dt * k2r)
    k4p, k4r = deriv(phi + dt * k3p, r + dt * k3r)
    phi2 = phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    r2 = r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    return phi2, r2

