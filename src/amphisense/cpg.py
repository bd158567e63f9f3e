"""Phase-oscillator gait network with drive-dependent walk/swim patterns.

Sixteen antagonist oscillator pairs (eight spine joints, two joints per
leg) coupled on a sparse graph.  Each oscillator integrates

    dphi_i/dt = omega_i(d) + sum_j r_j w_ij sin(phi_j - phi_i - b_ij)
    dr_i/dt   = a_i (R_i(d) - r_i)
    x_i       = r_i (1 + cos phi_i)

where the intrinsic rate omega_i and target amplitude R_i come from
piecewise-affine saturation maps of the scalar drive d.  Limb maps cut
off below the swim drive, so at high drive the limb amplitudes decay to
zero and (because coupling terms carry the source amplitude r_j) the
limbs drop out of the network: the spine alone carries a traveling
wave.  At low drive all 32 oscillators are active and the limb graph
locks the legs into a diagonal trot while pinning the girdle segments.

A one-way supervisor switches the drive from walk to swim when the
summed foot load falls below a threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# drive operating points and the gait frequencies they must produce
D_WALK = 2.0
D_SWIM = 5.0
FREQ_WALK_HZ = 0.47
FREQ_SWIM_HZ = 0.78

# amplitude targets: 20 deg peak axial bend at walk, 29 deg at swim
# (joint angle peaks at 2*R for an anti-phase pair, see joint_targets)
R_AXIAL_WALK = math.radians(20.0) / 2.0
R_AXIAL_SWIM = math.radians(29.0) / 2.0
R_LIMB_WALK = math.radians(20.0) / 2.0

W_EDGE = 10.0   # coupling weight on every edge, 1/s
A_RATE = 20.0   # amplitude convergence rate, 1/s
# head-to-tail phase lag of the spine chain while swimming, spread evenly
# over the 7 inter-joint gaps: one full wavelength
AXIAL_TOTAL_LAG = TWO_PI

FOOT_SUM_THRESHOLD_N = 7.0
SWITCH_HOLDOFF_S = 0.05    # until every foot has reported; zeros read airborne

MAX_DT_S = 0.010    # the longest RK4 step the network takes

N_AXIAL_JOINTS = 8
N_JOINTS = 16
N_OSC = 32

# axial joints carrying the limb girdles
FRONT_GIRDLE_JOINT = 1
HIND_GIRDLE_JOINT = 5

LEGS = ("fl", "fr", "hl", "hr")
# diagonal pairs stride together, ipsilateral pairs alternate
LIMB_WALK_PHASE = {"fl": 0.0, "fr": math.pi, "hl": math.pi, "hr": 0.0}
GIRDLE_PHASE = {"front": 0.0, "hind": math.pi}


class CpgConfigError(ValueError):
    """Raised for malformed network configuration."""


class GaitMode(enum.Enum):
    WALKING = "walking"
    SWIMMING = "swimming"


@dataclass(frozen=True)
class SaturationMap:
    """Affine drive response c1*d + c0 inside [d_low, d_high], zero outside."""

    c1: float
    c0: float
    d_low: float
    d_high: float

    def __post_init__(self):
        if not self.d_low < self.d_high:
            raise CpgConfigError("saturation band requires d_low < d_high")

    def value(self, d: float) -> float:
        if self.d_low <= d <= self.d_high:
            return self.c1 * d + self.c0
        return 0.0


def _affine_through(d0, v0, d1, v1, band):
    c1 = (v1 - v0) / (d1 - d0)
    return SaturationMap(c1=c1, c0=v0 - c1 * d0, d_low=band[0], d_high=band[1])


# axial maps stay live across both gaits; limb maps cut off below d_swim
AXIAL_BAND = (0.5, 6.0)
LIMB_BAND = (0.5, 4.0)

AXIAL_OMEGA_MAP = _affine_through(
    D_WALK, TWO_PI * FREQ_WALK_HZ, D_SWIM, TWO_PI * FREQ_SWIM_HZ, AXIAL_BAND
)
AXIAL_AMP_MAP = _affine_through(D_WALK, R_AXIAL_WALK, D_SWIM, R_AXIAL_SWIM, AXIAL_BAND)
LIMB_OMEGA_MAP = SaturationMap(0.0, TWO_PI * FREQ_WALK_HZ, *LIMB_BAND)
LIMB_AMP_MAP = SaturationMap(0.0, R_LIMB_WALK, *LIMB_BAND)


@dataclass(frozen=True)
class OscillatorParams:
    """Per-oscillator rate constants, saturation maps, and group tags."""

    a: np.ndarray
    omega_maps: tuple
    amp_maps: tuple
    groups: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        n = a.shape[0]
        if not (len(self.omega_maps) == len(self.amp_maps) == len(self.groups) == n):
            raise CpgConfigError("per-oscillator field lengths disagree")
        if np.any(a <= 0.0):
            raise CpgConfigError("amplitude rates a_i must be positive")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def intrinsic(self, d: float):
        """Intrinsic rates and target amplitudes at drive d, as read-only
        arrays.  The last drive's pair is kept: step_network asks for it
        every tick, and a run changes its drive at most once."""
        memo = self.__dict__.get("_intrinsic_memo")
        if memo is not None and memo[0] == d:
            return memo[1], memo[2]
        omega = np.array([m.value(d) for m in self.omega_maps])
        R = np.array([m.value(d) for m in self.amp_maps])
        omega.flags.writeable = False
        R.flags.writeable = False
        object.__setattr__(self, "_intrinsic_memo", (d, omega, R))
        return omega, R


@dataclass(frozen=True)
class CouplingGraph:
    """Directed weighted edge list (i, j, w_ij, b_ij) over n oscillators.

    `arrays` holds the same edges as read-only arrays (I, J, w, b), the
    form the RK4 step gathers over.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for i, j, w, b in self.edges:
            if i == j:
                raise CpgConfigError("self-coupling is not allowed")
            if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))
                    and 0 <= i < self.n and 0 <= j < self.n):
                raise CpgConfigError("edge endpoints must be integers in [0, n)")
            if not (math.isfinite(w) and w >= 0.0):
                raise CpgConfigError("edge weight must be finite and >= 0")
            if (i, j) in seen:
                raise CpgConfigError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        arrays = (np.array([e[0] for e in self.edges], dtype=np.intp),
                  np.array([e[1] for e in self.edges], dtype=np.intp),
                  np.array([e[2] for e in self.edges], dtype=float),
                  np.array([e[3] for e in self.edges], dtype=float))
        for arr in arrays:
            arr.flags.writeable = False
        object.__setattr__(self, "arrays", arrays)

    def is_connected(self) -> bool:
        """Whether every oscillator is reached over edges of positive weight,
        taken in either direction."""
        adj = [[] for _ in range(self.n)]
        for i, j, w, _ in self.edges:
            if w > 0:
                adj[i].append(j)
                adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


@dataclass(frozen=True)
class JointMap:
    """Joint names and the (flexor, extensor) oscillator index of each."""

    names: tuple
    flexor: np.ndarray
    extensor: np.ndarray
    groups: tuple


def initial_state(params: OscillatorParams, drive: float, rng=None):
    """Phases (n,) at 0 or random and amplitudes at their drive targets,
    as a pair (phi, r)."""
    omega, R = params.intrinsic(drive)
    if rng is None:
        phi = np.zeros(params.n)
    else:
        phi = rng.uniform(0.0, TWO_PI, size=params.n)
    return phi, R.copy()


def build_gait_network():
    """Construct the 32-oscillator network.

    Returns
    -------
    (OscillatorParams, CouplingGraph, JointMap)

    Notes
    -----
    Joint order: spine joints ax1..ax8 head to tail, then per leg
    (fl, fr, hl, hr) a swing joint and an elevation joint.  Oscillators
    2k / 2k+1 are the flexor / extensor of joint k.  Edge conventions:
    an edge added as (i, j, w, b) locks phi_j - phi_i = b, and every
    edge is installed bidirectionally with the opposite bias, so any
    phase-locked state of the full network advances at the amplitude
    weighted mean of the intrinsic rates.
    """
    names = [f"ax{k + 1}" for k in range(N_AXIAL_JOINTS)]
    groups = ["axial"] * N_AXIAL_JOINTS
    for leg in LEGS:
        names += [f"{leg}_swing", f"{leg}_elev"]
        groups += ["limb", "limb"]
    names = tuple(names)
    groups = tuple(groups)

    flexor = np.arange(N_JOINTS) * 2
    extensor = flexor + 1
    jmap = JointMap(names=names, flexor=flexor, extensor=extensor, groups=groups)

    osc_groups = []
    omega_maps = []
    amp_maps = []
    for g in groups:
        for _ in range(2):
            osc_groups.append(g)
            if g == "axial":
                omega_maps.append(AXIAL_OMEGA_MAP)
                amp_maps.append(AXIAL_AMP_MAP)
            else:
                omega_maps.append(LIMB_OMEGA_MAP)
                amp_maps.append(LIMB_AMP_MAP)
    params = OscillatorParams(
        a=np.full(N_OSC, A_RATE),
        omega_maps=tuple(omega_maps),
        amp_maps=tuple(amp_maps),
        groups=tuple(osc_groups),
    )

    edges = []

    def add_sym(i, j, b):
        edges.append((int(i), int(j), W_EDGE, float(b)))
        edges.append((int(j), int(i), W_EDGE, -float(b)))

    # antagonist pairs
    for k in range(N_JOINTS):
        add_sym(flexor[k], extensor[k], math.pi)

    # spine chain, head leads: phi drops by one gap per joint
    gap = AXIAL_TOTAL_LAG / (N_AXIAL_JOINTS - 1)
    for k in range(N_AXIAL_JOINTS - 1):
        add_sym(flexor[k], flexor[k + 1], -gap)
        add_sym(extensor[k], extensor[k + 1], -gap)

    joint_index = {nm: k for k, nm in enumerate(names)}
    swing_flex = {leg: flexor[joint_index[f"{leg}_swing"]] for leg in LEGS}
    elev_flex = {leg: flexor[joint_index[f"{leg}_elev"]] for leg in LEGS}

    # inter-leg trot graph on the swing flexors
    for a_i in range(len(LEGS)):
        for b_i in range(a_i + 1, len(LEGS)):
            la, lb = LEGS[a_i], LEGS[b_i]
            add_sym(swing_flex[la], swing_flex[lb],
                    LIMB_WALK_PHASE[lb] - LIMB_WALK_PHASE[la])

    # elevation runs a quarter cycle ahead of swing: the foot presses
    # down exactly while the swing joint sweeps back through stance
    for leg in LEGS:
        add_sym(swing_flex[leg], elev_flex[leg], math.pi / 2.0)

    # legs pin their girdle segment; front and hind girdles end up a
    # half cycle apart, bending the trunk into the standing S shape
    for leg in LEGS:
        girdle = FRONT_GIRDLE_JOINT if leg in ("fl", "fr") else HIND_GIRDLE_JOINT
        gphase = GIRDLE_PHASE["front" if leg in ("fl", "fr") else "hind"]
        add_sym(flexor[girdle], swing_flex[leg], LIMB_WALK_PHASE[leg] - gphase)

    graph = CouplingGraph(n=N_OSC, edges=tuple(edges))
    return params, graph, jmap


# The network equations (module docstring) integrated with classic RK4 over
# states phi, r with leading axes (..., n).
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

def _rk4_step(phi, r, omega, edges, a, R, dt):
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


def step_network(phi: np.ndarray, r: np.ndarray, drive: float, params: OscillatorParams,
                 graph: CouplingGraph, dt: float):
    """Advance phases phi and amplitudes r one RK4 step of length dt (s) at
    the given drive; returns the new (phi, r), amplitudes clamped at 0.

    Intrinsic rates and amplitude targets come from the drive of this call,
    so a drive change takes effect at the next step.  phi and r may carry
    leading axes (..., n), a batch of networks stepped together; each row
    evolves bit for bit as it would alone.
    """
    if not 0.0 < dt <= MAX_DT_S:
        raise ValueError(f"dt must be in (0, {MAX_DT_S:g}] s")
    if np.count_nonzero(r < 0.0):
        raise CpgConfigError("amplitudes must be non-negative")
    omega, R = params.intrinsic(drive)
    phi, r = _rk4_step(phi, r, omega, graph.arrays, params.a, R, dt)
    return phi, np.maximum(r, 0.0)


def oscillator_output(phi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Activity x_i = r_i (1 + cos phi_i)."""
    return r * (1.0 + np.cos(phi))


def joint_targets(x: np.ndarray, jmap: JointMap, gain: float = 1.0) -> np.ndarray:
    """Joint angles from antagonist activity differences.

    For a pair locked in anti-phase with common amplitude r the output
    is gain * 2 r cos(phi_flexor).
    """
    x = np.asarray(x, dtype=float)
    return gain * (x[..., jmap.flexor] - x[..., jmap.extensor])


@dataclass(frozen=True)
class GaitCommand:
    mode: GaitMode
    drive: float


def transition_controller(load: float, cmd: GaitCommand) -> GaitCommand:
    """One-way walk-to-swim supervisor on the summed foot load (N): swims
    from a load below FOOT_SUM_THRESHOLD_N."""
    if cmd.mode is GaitMode.WALKING and load < FOOT_SUM_THRESHOLD_N:
        return GaitCommand(mode=GaitMode.SWIMMING, drive=D_SWIM)
    return cmd
