"""Magnetic dipole models for the two sensor geometries and their inversions.

Conventions: positions in mm, flux in mT, the lumped dipole constant ``n_t``
in mT*mm^3.  A 3-vector is a float64 numpy array of shape (3,).

The foot sensor constrains the magnet so its magnetization always points back
at the sensor origin; its forward model then collapses to a radial law that
inverts in closed form.  The flow sensor rotates a magnet about the z axis,
leaving three coupled flux equations in (p_x, p_y, h_y) that are solved
numerically.
"""

import math

import numpy as np
from dataclasses import dataclass

from . import _kernels


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


@dataclass
class DipoleParams:
    """Lumped dipole constant and validity guards.

    n_t collects permeabilities and the magnetic moment into one positive
    constant; min_distance (mm) rejects poses where the point-dipole model is
    meaningless, noise_floor (mT) is the weakest flux accepted by inversions.
    """

    n_t: float = 50.0
    min_distance: float = 1.0
    noise_floor: float = 1e-3

    def __post_init__(self):
        if not (self.n_t > 0):
            raise ValueError("n_t must be positive")
        if not (self.min_distance > 0):
            raise ValueError("min_distance must be positive")


@dataclass
class MagnetPose:
    """Magnet position p (mm) and unit magnetization direction h."""

    p: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.p = _as_vec3(self.p)
        self.h = _as_vec3(self.h)
        nh = np.linalg.norm(self.h)
        if abs(nh - 1.0) > 1e-9:
            raise ValueError(f"|h| must be 1, got {nh}")
        if np.linalg.norm(self.p) == 0.0:
            raise ValueError("magnet position must not coincide with the sensor origin")


@dataclass
class FlowPose:
    """Fin-magnet state: in-plane position, y magnetization component, fixed z.

    h_x is implied as +sqrt(1 - h_y^2); the geometry must keep the
    magnetization within +-90 deg of the +x axis for this to hold.
    """

    p_x: float
    p_y: float
    h_y: float
    d_z0: float

    def __post_init__(self):
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
    return _kernels.flow_flux_batch(pose.as_array()[None], pose.d_z0, params.n_t)[0]


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
    sols, ok = _kernels.flow_invert_batch(
        b, d_z0, params.n_t, initial_guess.as_array(), resid_accept)
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
    alpha = dt / (tau + dt)
    y0 = None if y0 is None else np.ravel(y0)
    return _kernels.lowpass_scan(x.reshape(len(x), -1), alpha, y0).reshape(x.shape)
