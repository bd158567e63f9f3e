"""Magnetic dipole models for the two sensor geometries and their inversions.

Conventions: positions in mm, flux in mT, the lumped dipole constant ``n_t``
in mT*mm^3.  A 3-vector is a float64 numpy array of shape (3,).

The foot sensor constrains the magnet so its magnetization always points back
at the sensor origin; its forward model then collapses to a radial law that
inverts in closed form.  The flow sensor rotates a magnet about the z axis,
leaving three coupled flux equations in (p_x, p_y, h_y) that are solved
numerically: each flux row is seeded from the few points of a rotation grid
that its own rotation angle leaves in contention, and damped Newton runs
over blocks of rows at once.  The low-pass filter, a sequential recurrence,
loops in Python on floats, which cost far less per operation than numpy
scalars.
"""

import math

import numpy as np


class SensorModelError(ValueError):
    """Base class for sensing-model failures."""


class DegeneratePoseError(SensorModelError):
    """Magnet too close to the sensor origin for the dipole model."""


class BelowNoiseFloorError(SensorModelError):
    """Measured flux too weak to contain a magnet position."""


class NoConvergenceError(SensorModelError):
    """Numeric inversion failed to reach the residual tolerance."""


def _as_vec3(v):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector components: {v}")
    return v


class DipoleParams:
    """Lumped dipole constant and validity guards.

    n_t collects permeabilities and the magnetic moment into one positive
    constant.  The guards are the same for every sensor: min_distance (mm)
    rejects poses where the point-dipole model is meaningless, noise_floor
    (mT) is the weakest flux accepted by inversions.
    """

    min_distance = 1.0
    noise_floor = 1e-3

    def __init__(self, n_t=50.0):
        self.n_t = n_t
        if not (self.n_t > 0):
            raise ValueError("n_t must be positive")


class MagnetPose:
    """Magnet position p (mm) and unit magnetization direction h."""

    def __init__(self, p, h):
        self.p = _as_vec3(p)
        self.h = _as_vec3(h)
        nh = np.linalg.norm(self.h)
        if abs(nh - 1.0) > 1e-9:
            raise ValueError(f"|h| must be 1, got {nh}")
        if np.linalg.norm(self.p) == 0.0:
            raise ValueError("magnet position must not coincide with the sensor origin")


class FlowPose:
    """Fin-magnet state: in-plane position, y magnetization component, fixed z.

    h_x is implied as +sqrt(1 - h_y^2); the geometry must keep the
    magnetization within +-90 deg of the +x axis for this to hold.
    """

    def __init__(self, p_x, p_y, h_y, d_z0):
        self.p_x = p_x
        self.p_y = p_y
        self.h_y = h_y
        self.d_z0 = d_z0
        if abs(self.h_y) > 1.0:
            raise ValueError(f"|h_y| must be <= 1, got {self.h_y}")

    @property
    def h_x(self):
        return math.sqrt(max(1.0 - self.h_y * self.h_y, 0.0))

    @property
    def p(self):
        return np.array([self.p_x, self.p_y, self.d_z0])

    def as_array(self):
        return np.array([self.p_x, self.p_y, self.h_y])


def dipole_flux(pose: MagnetPose, params: DipoleParams) -> np.ndarray:
    """Point-dipole flux at the origin from a magnet at pose.

    B = n_t * [3 (h . p) p - |p|^2 h] / |p|^5
    """
    p, h = pose.p, pose.h
    dist = np.linalg.norm(p)
    if dist < params.min_distance:
        raise DegeneratePoseError(f"magnet at {dist:.3g} mm, below {params.min_distance} mm")
    hp = float(np.dot(h, p))
    return params.n_t * (3.0 * hp * p - dist * dist * h) / dist**5


def dipole_flux_radial(p, params: DipoleParams) -> np.ndarray:
    """Dipole flux for the foot geometry, where h = -p/|p| at every pose.

    Collapses to B = -n_t * 2 p / |p|^4, for one position (3,) or (..., 3).
    """
    p = np.asarray(p, dtype=float)
    dist = np.sqrt(p[..., 0] * p[..., 0] + p[..., 1] * p[..., 1] + p[..., 2] * p[..., 2])
    if not np.all(dist >= params.min_distance):     # NaN fails too
        raise DegeneratePoseError(
            f"magnet at {np.min(dist):.3g} mm, below {params.min_distance} mm")
    # float_power is libm's pow, as float ** is; power's SIMD loop rounds apart
    return -params.n_t * 2.0 * p / np.float_power(dist, 4)[..., None]


def invert_foot_flux(b, params: DipoleParams) -> np.ndarray:
    """Closed-form magnet position from foot-sensor flux.

    From the radial law: |p| = (2 n_t / |B|)^(1/3) and p = -B |p|^4 / (2 n_t).
    """
    p = invert_foot_flux_batch(_as_vec3(b)[None], params)[0]
    if np.isnan(p[0]):
        raise BelowNoiseFloorError(f"|B| = {np.linalg.norm(b):.3g} mT at or below "
                                   f"floor {params.noise_floor} mT")
    return p


def invert_foot_flux_batch(b: np.ndarray, params: DipoleParams) -> np.ndarray:
    """Vectorized invert_foot_flux over an (N, 3) flux array.

    Rows at or below the noise floor come back as NaN instead of raising.
    """
    b = np.asarray(b, dtype=float)
    bn = np.linalg.norm(b, axis=1)
    ok = bn > params.noise_floor
    dist = np.where(ok, (2.0 * params.n_t / np.where(ok, bn, 1.0)) ** (1.0 / 3.0), np.nan)
    return -b * (dist**4 / (2.0 * params.n_t))[:, None]


def flow_flux(pose: FlowPose, params: DipoleParams) -> np.ndarray:
    """Dipole flux for the fin geometry (h_z = 0, p_z fixed at d_z0)."""
    p = pose.p
    dist = np.linalg.norm(p)
    if dist < params.min_distance:
        raise DegeneratePoseError(f"magnet at {dist:.3g} mm, below {params.min_distance} mm")
    return flow_flux_batch(pose.as_array()[None], pose.d_z0, params.n_t)[0]


# Rows q = (p_x, p_y, h_y); p_z is fixed, h_x = sqrt(1 - h_y^2), h_z = 0.
# Each flux row is inverted on its own, whatever the rows around it.

def flow_flux_batch(Q: np.ndarray, pz: float, n_t: float) -> np.ndarray:
    """flow_flux over fin pose rows Q (N, 3) of (p_x, p_y, h_y) at the
    fixed height pz, without the distance guard: flux rows (N, 3)."""
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


def _flow_invert(B, pz, n_t, guess, resid_accept):
    """Fin poses (N, 3) of the flux rows B (N, 3) and their (N,) bool mask.

    Damped Newton from each row's grid seed, backtracking a step up to 30
    times until the residual drops, with h_y clamped inside (-1, 1) and the
    magnet kept off the sensor origin.  A stall is the least-squares
    projection onto the model image; it is accepted within resid_accept (mT).
    The rows are seeded and iterated in blocks of _NEWTON_BLOCK.  Rejected
    rows keep their last iterate, which invert_flow_flux_batch sets to NaN.
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


def invert_flow_flux(
    b,
    d_z0: float,
    params: DipoleParams,
    initial_guess: FlowPose,
    resid_accept: float = 0.0,
) -> FlowPose:
    """Solve the three fin flux equations for (p_x, p_y, h_y).

    Damped Newton, seeded from the best fin rotation of initial_guess on a
    coarse +-75 deg grid; the grid keeps the solver on the physical branch
    (the system admits spurious exact roots away from the fin's circle of
    motion).  Noisy flux generically sits slightly off the model image,
    where no exact root exists; a least-squares projection whose residual is
    within resid_accept (mT) is accepted instead.  Raises NoConvergenceError
    when the fix does not get close enough.
    """
    b = _as_vec3(b)
    if np.linalg.norm(b) <= params.noise_floor:
        raise NoConvergenceError("flux below noise floor; no reachable fin pose")
    sols, ok = invert_flow_flux_batch(b[None], d_z0, params, initial_guess,
                                      resid_accept=resid_accept)
    if not ok[0]:
        raise NoConvergenceError(f"flow inversion stalled on flux {b} mT")
    return FlowPose(p_x=sols[0, 0], p_y=sols[0, 1], h_y=sols[0, 2], d_z0=d_z0)


def invert_flow_flux_batch(
    b: np.ndarray,
    d_z0: float,
    params: DipoleParams,
    initial_guess: FlowPose,
    resid_accept: float = 0.0,
):
    """invert_flow_flux over an (N, 3) flux array, each row on its own.

    Returns an (N, 3) array of (p_x, p_y, h_y) rows and an (N,) bool
    convergence mask; unconverged rows, and rows at or below the noise
    floor, come back NaN.
    """
    b = np.asarray(b, dtype=float)
    sols, ok = _flow_invert(b, d_z0, params.n_t, initial_guess.as_array(), resid_accept)
    ok &= np.linalg.norm(b, axis=1) > params.noise_floor
    sols[~ok] = np.nan
    return sols, ok


def lowpass_trace(x: np.ndarray, dt: float, cutoff_hz: float = 3.6, y0=None) -> np.ndarray:
    """Filter a whole (N,) or (N, k) uniformly-sampled trace in one pass,
    from its first sample, or continuing an earlier output y0."""
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        return x.copy()
    tau = 1.0 / (2.0 * math.pi * cutoff_hz)
    alpha = float(dt / (tau + dt))
    # y[n] = alpha x[n] + (1 - alpha) y[n-1], with y[-1] = y0 (default x[0]),
    # a Python loop per column.  Each output is rounded as
    # fl(fl((1 - alpha) y[n-1]) + fl(alpha x[n])), the order in which scipy's
    # lfilter (direct form II transposed) computes this filter, so both give
    # the same bits.
    x2 = x.reshape(len(x), -1)
    y0 = None if y0 is None else np.ravel(y0)
    c = 1.0 - alpha
    v = alpha * x2
    y = np.empty_like(v)
    for j in range(x2.shape[1]):
        p = float(x2[0, j] if y0 is None else y0[j])
        col = []
        for vn in v[:, j].tolist():
            p = c * p + vn
            col.append(p)
        y[:, j] = col
    return y.reshape(x.shape)
