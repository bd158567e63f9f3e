"""Numerical kernels: the low-pass scan, the fin flux model and its Newton
inversion, and the phase-oscillator RK4 step.

Work that is independent across elements is vectorized with numpy; the fin
inversion seeds each flux row from the few rotation-grid points its own
rotation angle leaves in contention and runs its Newton iterations over
blocks of rows at once, and the oscillator step runs over the coupling
graph's edge list and over any leading axes of the state, so a batch of
networks takes one call, skipping the amplitude half of RK4 while every
amplitude sits at its target.  The low-pass scan, a sequential
recurrence, loops in Python on floats, which cost far less per operation
than numpy scalars.
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


# The seed turns the guess pose about the sensor's z axis through a
# 151-point +-75 deg grid.  Where |alpha0 + theta| <= 90 deg the pose turns
# whole (magnet on a circle of radius rho at a fixed height, magnetization
# co-rotating), so its flux turns with it: (B_x, B_y) by theta, B_z and |B|
# fixed.  On that rigid range a row's residual grows with the angle between
# its own (B_x, B_y) and the grid point's, so it is smallest at the grid
# point nearest the row's rotation angle, or at an edge of the range when
# that angle falls outside it.  Each row scans those points (five around
# the nearest, inside the range, and both edges) and every non-rigid point,
# in increasing grid order with the full scan's residual arithmetic and tie
# rule.  The points it skips lose by at least 2 |B_xy| |F_xy| (cos 0.5 deg -
# cos 2.5 deg) in the squared residual, over a thousand times its rounding
# error when |B_xy| |F_xy| > 2 _SHARP (|B|^2 + |F|^2); the other rows,
# non-finite ones among them, scan all 151 points.

_GRID_HALF = math.radians(75.0)
_GRID_N = 151
_SHARP = 1e-9


def _flow_grid(pz, n_t, guess):
    """The seed grid of the guess pose (a list): poses (152, 3) with the
    guess last, their fluxes as a list of rows and as columns (3, 151), and
    the rigid range's first and last index."""
    rho, beta0 = math.hypot(guess[0], guess[1]), math.atan2(guess[1], guess[0])
    alpha0 = math.asin(min(max(guess[2], -1.0), 1.0))
    ths = [-_GRID_HALF + 2.0 * _GRID_HALF * g / (_GRID_N - 1) for g in range(_GRID_N)]
    poses = np.array([(rho * math.cos(beta0 + th), rho * math.sin(beta0 + th),
                       min(max(math.sin(alpha0 + th), -1.0), 1.0)) for th in ths] + [guess])
    F = flow_flux_batch(poses[:-1], pz, n_t)
    rigid = [g for g, th in enumerate(ths) if abs(alpha0 + th) <= 0.5 * math.pi]
    return poses, F.tolist(), F.T.copy(), rigid[0], rigid[-1]


def _grid_scan(B, points):
    """Grid index of each row's least residual over points, pairs (g, f) of
    a grid index and its flux (three floats, or three (n,) arrays of each
    row's own point), in increasing g; _GRID_N where none is finite.
    The scan reuses its row buffers, so it allocates nothing per point."""
    n = len(B)
    b = B.T.copy()     # contiguous columns
    best, resid, d = np.full(n, math.inf), np.empty(n), np.empty(n)
    pick = np.full(n, _GRID_N, np.intp)     # the guess, the grid's last pose
    better = np.empty(n, bool)
    for g, f in points:
        # resid = _norm(f0 - b0, f1 - b1, f2 - b2), the same roundings in place
        np.subtract(f[0], b[0], out=resid)
        np.multiply(resid, resid, out=resid)
        for c in (1, 2):
            np.subtract(f[c], b[c], out=d)
            np.multiply(d, d, out=d)
            resid += d
        np.sqrt(resid, out=resid)
        np.less(resid, best, out=better)
        np.copyto(best, resid, where=better)
        np.copyto(pick, g, where=better)
    return pick


def _flow_grid_seed(B, grid):
    """Each row's best pose on the seed grid of _flow_grid (the guess if no
    grid point has a finite residual), as the full 151-point scan picks it.
    The guess fixes the physical family, so Newton starts on the physical
    branch of the roots."""
    poses, Fl, Fc, lo, hi = grid
    mid = _GRID_N // 2                  # theta = 0
    mx, my, mz = Fl[mid]
    bx, by, bz = B.T
    with np.errstate(invalid="ignore", over="ignore"):
        b_xy2 = bx * bx + by * by
        sharp = (np.sqrt(b_xy2) * math.hypot(mx, my)
                 > 2.0 * _SHARP * (b_xy2 + bz * bz + (mx * mx + my * my + mz * mz)))
        # each row's rotation from theta = 0, in grid steps
        turn = np.arctan2(mx * by - my * bx, mx * bx + my * by)
        near = np.rint(turn * ((_GRID_N - 1) / (2.0 * _GRID_HALF))) + mid
    flat = ~sharp
    wide = flat.any()
    if wide:
        near[flat] = mid
    near = np.minimum(np.maximum(near, lo + 2), hi - 2).astype(np.intp)
    window = [(g, (Fc[0].take(g), Fc[1].take(g), Fc[2].take(g)))
              for g in (near - 2, near - 1, near, near + 1, near + 2)]
    pick = _grid_scan(B, [(g, Fl[g]) for g in range(lo + 1)] + window
                      + [(g, Fl[g]) for g in range(hi, _GRID_N)])
    if wide:
        pick[flat] = _grid_scan(B[flat], enumerate(Fl))
    return poses[pick]


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
    The rows are seeded and iterated in blocks of _NEWTON_BLOCK.
    """
    B = np.asarray(B, dtype=float)
    grid = _flow_grid(pz, n_t, np.asarray(guess, dtype=float).tolist())
    Q, fn = np.empty_like(B), np.empty(len(B))
    for a in range(0, len(B), _NEWTON_BLOCK):
        rows = slice(a, a + _NEWTON_BLOCK)
        Q[rows] = _flow_grid_seed(B[rows], grid)
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
#
# Amplitudes at their targets stay there: when a (R - r) is exactly zero
# for every unit (each walking tick, a swim from its first tick), every
# stage adds an exact zero to r, so the step skips the amplitude half and
# weighs the coupling by r once.  With a > 0 that zero is +0.0 wherever r
# is -0.0, so r + 0.0 is the general step's r to the sign of its zeros.  A
# NaN or infinite amplitude leaves a (R - r) non-zero: the general step.
# After a drive change r relaxes toward the new R (the limbs' decay toward
# 0 never ends in it), so the general step stays.


def cpg_step(phi, r, omega, edges, a, R, dt):
    """One RK4 step of states phi, r (..., n); edges is (I, J, w, b) and the
    rates a are positive."""
    I, J, w, b = edges
    if phi.ndim > 1:   # index each leading row's units in the flattened state
        offset = np.arange(0, phi.size, phi.shape[-1])[:, None]
        I, J = offset + I, offset + J
    bins = I.ravel()
    kr = [a * (R - r)]
    still = not np.count_nonzero(kr[0])
    w_still = w * r.ravel()[J] if still else None

    def dphi(ph, rr):
        p = ph.ravel()
        c = (w_still if still else w * rr.ravel()[J]) * np.sin(p[J] - p[I] - b)
        return omega + np.bincount(bins, c.ravel(), minlength=phi.size).reshape(phi.shape)

    kp = [dphi(phi, r)]
    for h in (0.5 * dt, 0.5 * dt, dt):    # stages 2-4, each from the one before
        rr = r
        if not still:
            rr = r + h * kr[-1]
            kr.append(a * (R - rr))
        kp.append(dphi(phi + h * kp[-1], rr))
    phi2 = phi + dt / 6.0 * (kp[0] + 2.0 * kp[1] + 2.0 * kp[2] + kp[3])
    if still:
        return phi2, r + 0.0
    return phi2, r + dt / 6.0 * (kr[0] + 2.0 * kr[1] + 2.0 * kr[2] + kr[3])

