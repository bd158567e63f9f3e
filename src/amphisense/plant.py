"""Synthetic robot plant: kinematics, elastic sensing, forces, scenarios.

Quasi-static desk-scale stand-in for the hardware.  A planar kinematic
chain (8 spine links, 4 two-joint legs) follows the oscillator network's
joint targets at 1 kHz.  Foot and fin loads are synthesized from the
pose; at each ring bus sample tick one estimator for all ten modules
pushes them through the elastic transduction models into magnet poses,
renders flux with sensor noise, quantizes it as the wire carries it, and
filters, inverts and calibrates it back into estimates -- the same
signal path the robot runs, with ground truth retained at every stage.

Contact model: a foot's share of supported weight follows a smooth
stance-depth weighting s = s_min + (1 - s_min) u of its leg elevation
joint, so force traces stay continuous and their phases mirror the
gait.  Fin model: water streams along the link anterior to each fin;
the fin plate rides its own link, bent away from the stream by the
anterior joint angle, and quadratic plate drag loads the torsion
spring.  The plate-normal projection is what makes the fin force trace
phase-locked to the anterior joint rather than to the mount's lateral
velocity (which runs a quarter cycle off).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import busring, calibration, cpg, magnetics

G_ACCEL = 9.81

FOOT_NAMES = ("foot_fl", "foot_fr", "foot_hl", "foot_hr")
FIN_NAMES = ("fin_link1", "fin_link2", "fin_link4", "fin_link6",
             "fin_link8", "fin_tail")
SENSOR_NAMES = FOOT_NAMES + FIN_NAMES
FIN_MOUNT_LINKS = (0, 1, 3, 5, 7, "tail")   # 0-based spine link per fin
FIN_ANTERIOR_JOINT = (0, 1, 3, 5, 7, 7)     # 0-based axial joint per fin


class PlantError(ValueError):
    """Base class for plant configuration and range failures."""


class ElasticRangeError(PlantError):
    """Load outside the transducer's elastic (linear) range."""


@dataclass(frozen=True)
class RobotKinematics:
    """Planar chain geometry; lengths in meters."""

    link_length: float = 0.055
    head_length: float = 0.06
    tail_length: float = 0.15
    leg_length: float = 0.075
    leg_lateral: float = 0.03
    n_axial: int = 8
    front_girdle: int = cpg.FRONT_GIRDLE_JOINT
    hind_girdle: int = cpg.HIND_GIRDLE_JOINT

    def forward(self, q):
        """Forward kinematics in the body frame (robot faces +x).

        Parameters
        ----------
        q : (..., 16) joint angles, rad: 8 axial then per leg swing/elev;
            leading axes (a trace of poses) carry through.

        Returns
        -------
        dict with axial node positions (..., 9, 2), link headings (..., 8),
        snout/tail points, foot positions (..., 4, 2), fin mount points
        (..., 6, 2).
        """
        q = np.asarray(q, dtype=float)
        lead = q.shape[:-1]
        # spine extends backward from the first joint at the origin
        headings = math.pi + np.cumsum(q[..., : self.n_axial], axis=-1)
        steps = self.link_length * _unit(headings)
        nodes = np.concatenate([np.zeros(lead + (1, 2)), np.cumsum(steps, axis=-2)], axis=-2)
        snout = np.broadcast_to([self.head_length, 0.0], lead + (2,))
        tail_tip = nodes[..., -1, :] + self.tail_length * _unit(headings[..., -1])

        # legs fl, fr at the front girdle, hl, hr at the hind one.  Links
        # run backward (heading ~ pi), so the robot's left (+y when facing
        # +x) sits at heading - pi/2: a lateral offset, then the swung leg
        girdle = [self.front_girdle] * 2 + [self.hind_girdle] * 2
        side = np.array([-1.0, 1.0, -1.0, 1.0])
        beta = headings[..., girdle] + side * math.pi / 2.0
        root = nodes[..., girdle, :] + self.leg_lateral * _unit(beta)
        feet = root + self.leg_length * _unit(beta + side * q[..., 8:16:2])

        mounts = np.stack([tail_tip if link == "tail" else
                           0.5 * (nodes[..., link, :] + nodes[..., link + 1, :])
                           for link in FIN_MOUNT_LINKS], axis=-2)
        return {
            "nodes": nodes,
            "headings": headings,
            "snout": snout,
            "tail_tip": tail_tip,
            "feet": feet,
            "fin_mounts": mounts,
        }


def _unit(angle):
    """Unit vectors (..., 2) at the given headings."""
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


@dataclass(frozen=True)
class ElasticFootModel:
    """Linear elastic skin: load to magnet displacement, mm per native unit.

    The magnet rests at (p0, 0, 0) mm under the sensor.  Pressing along
    the sensor x axis compresses the gap; pitch/yaw moments swing the
    magnet laterally in proportion to p0.  Loads beyond the caps leave
    the linear regime and raise (the hardware saturates there).
    """

    p0_mm: float = 4.0
    c_fx: float = 0.0305        # mm per N
    c_pitch: float = 0.003636   # rad per N*mm
    c_yaw: float = 0.003636
    f_cap: float = 30.0         # N
    tau_cap: float = 150.0      # N*mm

    def __post_init__(self):
        if min(self.c_fx, self.c_pitch, self.c_yaw) <= 0:
            raise PlantError("compliances must be positive")


def foot_deflection_p(wrench: calibration.FootWrench,
                      model: ElasticFootModel) -> np.ndarray:
    """Magnet position (mm) under a foot wrench; raises beyond the caps.
    Array-valued wrench fields give positions (..., 3)."""
    if np.any(np.abs(wrench.f_x) > model.f_cap):
        raise ElasticRangeError(f"f_x {np.max(np.abs(wrench.f_x)):.2f} N beyond elastic range")
    if np.any(np.maximum(np.abs(wrench.tau_pitch), np.abs(wrench.tau_yaw)) > model.tau_cap):
        raise ElasticRangeError("torque beyond elastic range")
    return np.stack([
        model.p0_mm - model.c_fx * wrench.f_x,
        model.p0_mm * model.c_yaw * wrench.tau_yaw,
        model.p0_mm * model.c_pitch * wrench.tau_pitch,
    ], axis=-1)


@dataclass(frozen=True)
class FlowFinModel:
    """Spring-loaded drag plate with a magnet on its hinge lever.

    Travel is limited by mechanical end stops at +-theta_cap: loads
    beyond the stop leave the magnet parked there (the spring only ever
    reacts the stop torque), which is what the sensor reports during
    violent transients.
    """

    k_torsion: float = 25.0      # N*mm per rad
    lever_mm: float = 30.0
    c_d: float = 0.8             # N per (m/s)^2 of plate-normal flow
    rho_mm: float = 3.0          # magnet orbit radius
    d_z0_mm: float = 4.0
    alpha0: float = math.radians(20.0)
    n_t: float = 120.0
    theta_cap: float = math.radians(45.0)

    def __post_init__(self):
        if self.k_torsion <= 0 or self.lever_mm <= 0:
            raise PlantError("spring constant and lever must be positive")

    def angle_for_force(self, force_n):
        """Hinge angle (rad) under a plate force, scalar or array."""
        theta = force_n * self.lever_mm / self.k_torsion
        return np.clip(theta, -self.theta_cap, self.theta_cap)

    def magnet_coords(self, theta):
        """Magnet (p_x, p_y, h_y) at hinge angle(s) theta; shape (..., 3)."""
        return np.stack([self.rho_mm * np.cos(theta), self.rho_mm * np.sin(theta),
                         np.sin(self.alpha0 + theta)], axis=-1)

    def pose_for_angle(self, theta: float) -> magnetics.FlowPose:
        p_x, p_y, h_y = self.magnet_coords(theta)
        return magnetics.FlowPose(p_x=p_x, p_y=p_y, h_y=h_y, d_z0=self.d_z0_mm)

    def pose_for_force(self, force_n: float) -> magnetics.FlowPose:
        return self.pose_for_angle(self.angle_for_force(force_n))

    @property
    def dipole_params(self) -> magnetics.DipoleParams:
        return magnetics.DipoleParams(n_t=self.n_t)


_KIN = RobotKinematics()
_FOOT_MODEL = ElasticFootModel()
_FOOT_DIPOLE = magnetics.DipoleParams(n_t=50.0)
_FIN = FlowFinModel()


@dataclass(frozen=True)
class ContactConfig:
    # contact threshold sits above the walking elevation amplitude (20 deg)
    # so the sprawled gait modulates load without ever fully unloading a
    # foot; the weighting then stays a pure sinusoid (no clip kinks)
    s_min: float = 0.45          # shallow stance-depth floor of the weighting
    elev_ref: float = math.radians(24.0)
    elev_contact: float = math.radians(24.0)
    mu_yaw: float = 0.3
    yaw_lever_mm: float = 15.0
    cop_offset_mm: float = 5.0
    swing_ref: float = math.radians(20.0)


def stance_weights(q, cfg: ContactConfig):
    """Smooth per-foot stance depth from the leg elevation joints."""
    q = np.asarray(q, dtype=float)
    elev = q[..., 9:16:2]
    u = np.clip((cfg.elev_contact - elev) / (2.0 * cfg.elev_ref), 0.0, 1.0)
    in_contact = elev < cfg.elev_contact
    return np.where(in_contact, cfg.s_min + (1.0 - cfg.s_min) * u, 0.0)


def contact_forces(q, on_floor, weight_n, cfg: ContactConfig = ContactConfig(),
                   q_prev=None, dt: float = 1e-3):
    """Per-foot wrenches supporting `weight_n` on the stance feet.

    q is a pose (16,) or a trace (n, 16), q_prev the poses a tick earlier
    (None: no swing motion), weight_n a scalar or one value per pose and
    on_floor (..., 4) flags load-bearing terrain under each foot.  The
    supported weight is split over stance feet proportionally to the
    smooth stance weighting; zero stance feet means floating (all-zero
    wrenches).  Yaw torque models sliding friction against the swing
    motion, pitch torque a center-of-pressure offset that follows the
    swing angle.  Returns wrenches (..., 4, 3) as (f_x, tau_pitch,
    tau_yaw) and the stance weights (..., 4).
    """
    q = np.asarray(q, dtype=float)
    s = stance_weights(q, cfg) * np.asarray(on_floor, dtype=float)
    total = s.sum(axis=-1, keepdims=True)
    swing = q[..., 8:16:2]
    if q_prev is None:
        swing_rate = np.zeros_like(swing)
    else:
        swing_rate = (swing - np.asarray(q_prev, dtype=float)[..., 8:16:2]) / dt
    peak_rate = cpg.TWO_PI * 0.47 * cfg.swing_ref
    loaded = (total > 0.0) & (s != 0.0)
    fx = np.asarray(weight_n, dtype=float)[..., None] * s / np.where(loaded, total, 1.0)
    slide = np.clip(swing_rate / peak_rate, -1.0, 1.0)
    tau_yaw = cfg.mu_yaw * fx * cfg.yaw_lever_mm * slide
    tau_pitch = fx * cfg.cop_offset_mm * np.clip(swing / cfg.swing_ref, -1.0, 1.0)
    wrenches = np.where(loaded[..., None],
                        np.stack([fx, tau_pitch, tau_yaw], axis=-1), 0.0)
    return wrenches, s


def fin_drag_force(theta_anterior, mount_speed, stream_speed, fin: FlowFinModel):
    """Plate drag from the local stream striking the bent fin.

    Water runs along the anterior link at the scenario stream speed,
    compounded with the mount's own deformation speed; the plate rides
    the local link, so the stream meets it at the anterior joint angle
    and the plate-normal component is |u| sin(theta).  Quadratic drag
    in that normal component loads the spring.
    """
    speed_sq = stream_speed * stream_speed + mount_speed * mount_speed
    v_n = np.sqrt(speed_sq) * np.sin(theta_anterior)
    return fin.c_d * v_n * np.abs(v_n)


def flow_forces(q_trace, kin: RobotKinematics, fin: FlowFinModel, stream_speed,
                dt: float = 1e-3, mounts=None):
    """Per-fin force traces for a joint-angle trace (n, 16), every fin
    built as `fin`.

    stream_speed is a scalar or one value per row; mounts (n, n_fins, 2)
    reuse the caller's kinematics.  The first row's mounts count as still.
    Returns (forces (n, n_fins), angles (n, n_fins)).
    """
    q_trace = np.asarray(q_trace, dtype=float)
    if mounts is None:
        mounts = kin.forward(q_trace)["fin_mounts"]
    speed = np.zeros(mounts.shape[:2])
    speed[1:] = np.linalg.norm(np.diff(mounts, axis=0), axis=-1) / dt
    forces = fin_drag_force(q_trace[:, FIN_ANTERIOR_JOINT], speed,
                            np.reshape(stream_speed, (-1, 1)), fin)
    return forces, fin.angle_for_force(forces)


_FIELD_TYPES = {    # annotation: (test, conversion, what the error names)
    # a finite number; the bound compares exactly, so a huge integer fails too
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, float, "a finite number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
            int, "a non-negative integer"),
    "bool": (lambda v: isinstance(v, bool), bool, "true or false"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
    "dict": (lambda v: isinstance(v, dict), dict, "an object"),
}


def check_fields(obj, error):
    """Hold each field of the config dataclass obj to its annotation.

    float takes a finite number (stored as a float), int a non-negative
    integer (every integer a config holds is a count or a seed), bool,
    str and dict exactly that type; tuple[T, ...] takes a list of T and
    tuple[T, T] a list of two (stored as a tuple).  An annotation ending
    in `| None` admits null, and a field left at its default is not
    checked.  Range rules stay with each class.  Raises error.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is f.default or value is None and optional == "None":
            continue
        seq = kind.startswith("tuple[")
        items = kind[6:-1].split(", ") if seq else [kind]
        test, convert, what = _FIELD_TYPES[items[0]]
        if seq:
            size = None if items[-1] == "..." else len(items)
            ok = (isinstance(value, (list, tuple)) and size in (None, len(value))
                  and all(map(test, value)))
            what = f"a list of {size or 'items'}, each {what}"
        else:
            ok = test(value)
        if not ok:
            raise error(f"{f.name} must be {what}, got {value!r}")
        setattr(obj, f.name, tuple(map(convert, value)) if seq else convert(value))


def from_doc(cls, doc, error):
    """An instance of the config dataclass cls from a parsed JSON document:
    an object whose keys are the field names, with the required ones
    present.  The values are checked by cls.__post_init__."""
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object, got {type(doc).__name__}")
    allowed = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise error(f"unknown keys {unknown}; allowed: {', '.join(allowed)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise error(f"missing keys {missing}")
    return cls(**doc)


# The most memory one run, or one calibrate config, may ask for.  A run holds
# its trace, 8 B a column a tick, and a working set: the ring's sample ticks
# and noise, at most one sample a module a tick, and one module's frame starts
# at a time.  tracemalloc's peak grew by at most 426 B a tick beyond the trace
# row (swim, shoreline and walk, dt 0.5-10 ms, none to all modules logged;
# 360 B at 1 ms).
_MAX_BYTES = 2 ** 30
_TICK_BYTES = 512


def _trace_columns(log_flux):
    """A trace's columns: t, mode, drive, the joints, the feet's truth and
    estimates, the fins' truth forces, angles and estimates, est_foot_sum,
    and raw_* and filt_* of each logged module."""
    columns = ["t", "mode", "drive"]
    columns += [f"gt_q_{nm}" for nm in cpg.JOINT_NAMES]
    columns += [f"gt_foot_{leg}_{c}" for leg in cpg.LEGS for c in ("fx", "tp", "ty")]
    columns += [f"est_foot_{leg}_{c}" for leg in cpg.LEGS for c in ("fx", "tp", "ty")]
    columns += [f"gt_{nm}_force" for nm in FIN_NAMES]
    columns += [f"gt_{nm}_angle" for nm in FIN_NAMES]
    columns += [f"est_{nm}_force" for nm in FIN_NAMES]
    columns += ["est_foot_sum"]
    for nm in log_flux:
        columns += [f"raw_{nm}_b{a}" for a in "xyz"]
        columns += [f"filt_{nm}_b{a}" for a in "xyz"]
    return columns


def _row_bytes(log_flux):
    """A trace row's bytes, 8 a column."""
    return 8 * len(_trace_columns(log_flux))


@dataclass
class Scenario:
    """Staging for one run; JSON-serializable."""

    name: str = "walk_floor"          # a file stem: the trace and metrics file names
    terrain: str = "floor"            # floor | water | shoreline
    x_waterline: float = 0.0
    duration_s: float = 18.0
    dt: float = 1e-3                  # at most cpg.MAX_DT_S
    drive: float = cpg.D_WALK
    feedback: bool = True
    drive_switch_t: float | None = None   # open-loop drive switch, optional
    advance_speed: float = 0.0        # body advance while walking, m/s
    swim_speed: float = 0.2           # stream speed once swimming, m/s
    x_start: float = 0.0
    total_mass_kg: float = 2.71
    noise_sigma_mt: float = 0.01
    gain: float = 1.0
    seed: int = 0
    window_start: float = 6.0         # metrics ignore the lock-in transient
    log_flux: tuple[str, ...] = ("foot_fl", "fin_link2")

    def __post_init__(self):
        check_fields(self, PlantError)
        if not re.fullmatch(r"\w[\w.-]*", self.name, re.ASCII):
            raise PlantError(f"name must be a file stem of letters, digits, '_', '.' "
                             f"and '-', got {self.name!r}")
        if self.terrain not in ("floor", "water", "shoreline"):
            raise PlantError(f"unknown terrain {self.terrain!r}")
        if self.duration_s <= 0:
            raise PlantError("duration must be positive")
        if not 0 < self.dt <= cpg.MAX_DT_S:
            raise PlantError(f"dt must be in (0, {cpg.MAX_DT_S:g}] s, got {self.dt!r}")
        if not set(self.log_flux) <= set(SENSOR_NAMES) or \
                len(set(self.log_flux)) < len(self.log_flux):
            raise PlantError(f"log_flux must list distinct modules of {SENSOR_NAMES}, "
                             f"got {self.log_flux!r}")
        # in floats, so no size is too large to compare
        tick = _row_bytes(self.log_flux) + _TICK_BYTES
        if self.duration_s / self.dt * tick > _MAX_BYTES:
            raise PlantError(f"duration_s / dt is {self.duration_s / self.dt:.4g} ticks; a run "
                             f"holds at most {_MAX_BYTES // tick} ticks of {tick} B "
                             f"({_MAX_BYTES >> 20} MiB)")
        if self.n_steps == 0:
            raise PlantError(f"duration_s {self.duration_s:g} at dt {self.dt:g} "
                             f"is a run of no ticks")

    @property
    def n_steps(self) -> int:
        """The run's ticks: duration_s / dt, rounded."""
        return int(round(self.duration_s / self.dt))

    @property
    def weight_n(self) -> float:
        return self.total_mass_kg * G_ACCEL

    def to_json(self, path=None):
        doc = asdict(self)
        doc["log_flux"] = list(self.log_flux)
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
        return doc

    @classmethod
    def from_json(cls, source):
        """A scenario from a parsed JSON document or a file path."""
        if isinstance(source, (str, os.PathLike)):
            with open(source) as fh:
                source = json.load(fh)
        return from_doc(cls, source, PlantError)


@dataclass(frozen=True)
class _PlantKind:
    """The plant's side of a sensor kind of calibration.KINDS."""

    names: tuple                       # its modules
    transduce: object                  # their elastic law and dipole, as benches take them
    dipole: magnetics.DipoleParams
    rest: magnetics.FlowPose | None    # the pose their inversion starts from
    est: tuple                         # est_* column suffixes, in model output order
    n_average: int                     # a run's benches: flux draws a point,
    seed: int                          # and the generators' seed offset


KINDS = {
    "foot": _PlantKind(FOOT_NAMES, lambda w: foot_deflection_p(w, _FOOT_MODEL), _FOOT_DIPOLE,
                       None, ("tp", "ty", "fx"), 1, 11),
    "flow": _PlantKind(FIN_NAMES, lambda f: _FIN.pose_for_force(f), _FIN.dipole_params,
                       _FIN.pose_for_force(0.0), ("force",), 8, 51),
}


def _fit_sensor_models(scenario):
    """Per-unit bench calibration, seeded from the scenario: one bench pass
    per sensor kind."""
    models = {}
    for kind, mods in KINDS.items():
        jig = calibration.JigConfig(kind=kind, noise_sigma=scenario.noise_sigma_mt,
                                    n_average=mods.n_average)
        rngs = [np.random.default_rng(scenario.seed * 100 + mods.seed + i)
                for i in range(len(mods.names))]
        benches = calibration.simulate_jigs(mods.transduce, mods.dipole, jig, rngs)
        for name, ds in zip(mods.names, benches):
            models[name] = calibration.fit_poly(ds.train_eval_split()[0])
    return models


@dataclass
class ScenarioResult:
    scenario: Scenario
    columns: list
    data: np.ndarray
    switch_time: float = None

    def col(self, name):
        if name not in self.columns:
            raise PlantError(f"trace has no column {name!r}")
        return self.data[:, self.columns.index(name)]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            fmt = ",".join(["%.10g"] * self.data.shape[1]) + "\n"
            fh.writelines(fmt % tuple(row.tolist()) for row in self.data)

    @classmethod
    def read_csv(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                body = fh.read()
        except UnicodeDecodeError as e:
            raise PlantError(f"{path}: not UTF-8 text: {e}") from None
        if not body.strip():
            return cls(scenario=None, columns=header, data=np.zeros((0, len(header))))
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as e:
            raise PlantError(f"{path}: {e}") from None
        if data.shape[1] != len(header):
            raise PlantError(f"{path}: {data.shape[1]} values a row, "
                             f"{len(header)} header columns")
        return cls(scenario=None, columns=header, data=data)


def _sample_ticks(due, dt, n_steps):
    """The ticks before n_steps that a module samples at, from its frame
    starts due: the first tick at or after each start, at most one a tick
    (binding only when dt exceeds the round)."""
    c = np.arange(len(due))
    tick = np.ceil(due / dt).astype(np.int64)
    tick -= (tick - 1) * dt >= due
    tick += tick * dt < due
    tick = c + np.maximum.accumulate(tick - c)
    return tick[tick < n_steps]


def _ring_samples(n_steps, scenario, line):
    """Per-module sample ticks and (n_i, 3) sensor noise on the fault-free
    ring, each module at its frame starts (busring.ring_starts) by the tick
    rule of _sample_ticks, one module at a time.

    The noise is one stream drawn in (tick, module) order, _SPAN ticks at a
    time: each window's draws are scaled and scattered into the modules'
    arrays.  A generator draws the same stream in windows as in one block,
    so no whole-ring block is held beside the modules' arrays."""
    n_mod = len(SENSOR_NAMES)
    ticks = [_sample_ticks(busring.ring_starts(i, n_mod, line, n_steps * scenario.dt),
                           scenario.dt, n_steps) for i in range(n_mod)]
    noise = [np.empty((len(tk), 3)) for tk in ticks]
    rng = np.random.default_rng(scenario.seed * 100 + 7)
    for k in range(0, n_steps, _SPAN):
        cut = [np.searchsorted(tk, (k, k + _SPAN)) for tk in ticks]
        key = np.concatenate([tk[a:b] * n_mod + i
                              for i, (tk, (a, b)) in enumerate(zip(ticks, cut))])
        block = np.empty((len(key), 3))    # the window's samples in module order
        block[np.argsort(key)] = scenario.noise_sigma_mt * rng.standard_normal(block.shape)
        at = 0
        for (a, b), out in zip(cut, noise):
            out[a:b] = block[at:at + b - a]
            at += b - a
    return ticks, noise


def _oscillate(net, scenario, drive, state, lo, hi):
    """Step the network from state, the (phi, r) after tick lo - 1 (the
    initial one at lo = 0), over ticks lo..hi-1 at each tick's drive.
    Returns their joint targets and the state after tick hi - 1, which the
    next span resumes from; only the span's states are kept."""
    params, graph, jmap = net
    phi, r = state
    span = np.empty((2, hi - lo, cpg.N_OSC))
    for j, k in enumerate(range(lo, hi)):
        phi, r = cpg.step_network(phi, r, drive[k], params, graph, scenario.dt)
        span[0, j], span[1, j] = phi, r
    return cpg.joint_targets(cpg.oscillator_output(*span), jmap, scenario.gain), (phi, r)


def _physics(scenario, drive, x_prev, data, col, lo, hi):
    """Body advance, contact wrenches and fin drag over ticks lo..hi-1 from
    the joint columns of data, the body at x_prev before tick lo; fills the
    wrench and fin columns and returns the body's x after tick hi - 1.  The
    body swims on the ticks whose drive is a swimming drive."""
    # each tick after its predecessor; tick 0 stands in for its own, so it
    # starts at rest
    rows = np.r_[max(lo - 1, 0), lo:hi]
    qq = data[rows, col["gt_q_ax1"]:col["gt_q_ax1"] + cpg.N_JOINTS]
    fk = _KIN.forward(qq)
    swimming = drive[rows] >= cpg.D_SWIM
    swim = swimming[1:]
    speed = np.where(swim, scenario.swim_speed, scenario.advance_speed)
    x = np.cumsum(np.r_[x_prev, speed * scenario.dt])[1:]

    # terrain under each foot and buoyancy from body immersion
    on_floor, wet = scenario.terrain == "floor", scenario.terrain == "water"
    weight = scenario.weight_n if on_floor else 0.0
    if scenario.terrain == "shoreline":
        on_floor = x[:, None] + fk["feet"][1:, :, 0] < scenario.x_waterline
        back, front = x + fk["tail_tip"][1:, 0], x + fk["snout"][1:, 0]
        frac = np.clip((front - scenario.x_waterline) / (front - back), 0.0, 1.0)
        weight, wet = scenario.weight_n * (1.0 - frac), swim[:, None]
    wrenches, _ = contact_forces(qq[1:], on_floor, weight, q_prev=qq[:-1], dt=scenario.dt)
    f0, n_w = col["gt_foot_fl_fx"], 3 * len(FOOT_NAMES)    # f_x, tau_pitch, tau_yaw
    data[lo:hi, f0:f0 + n_w] = wrenches.reshape(-1, n_w)

    stream = np.where(swimming, scenario.swim_speed, 0.0)
    force, angle = flow_forces(qq, _KIN, _FIN, stream, scenario.dt, mounts=fk["fin_mounts"])
    f0 = col[f"gt_{FIN_NAMES[0]}_force"]    # fin forces, then fin angles
    data[lo:hi, f0:f0 + 2 * len(FIN_NAMES)] = np.where(
        wet, np.hstack([force[1:], angle[1:]]), 0.0)
    return x[-1]


def _sense(name, ticks, noise, data, col):
    """Flux the host decodes from one module's samples at the given ticks:
    rendered from the truth columns, noised, quantized to the int16 wire."""
    if name in FOOT_NAMES:
        fx, tp, ty = (data[ticks, col[f"gt_{name}_{c}"]] for c in ("fx", "tp", "ty"))
        p = foot_deflection_p(calibration.FootWrench(tp, ty, fx), _FOOT_MODEL)
        clean = magnetics.dipole_flux_radial(p, _FOOT_DIPOLE)
    else:
        theta = data[ticks, col[f"gt_{name}_angle"]]
        clean = magnetics.flow_flux_batch(_FIN.magnet_coords(theta), _FIN.d_z0_mm, _FIN.n_t)
    return busring.quantize(clean + noise, busring.FLUX_LSB_MT) * busring.FLUX_LSB_MT


# Ticks per span where no poll ends one.  Bounded spans keep the temporaries
# small; the span length leaves every trace unchanged.
_SPAN = 256


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute the full pipeline at 1 kHz; returns the wide trace.

    The plant fills the truth columns of a span of ticks stage by stage
    (oscillators, then kinematics and forces).  Each module's samples are
    sensed from them, filtered, inverted and calibrated once, one module at
    a time, and their estimates held in the trace: the feet's at the
    supervisor poll that first reaches them or after the last span, then
    each fin's whole stream.  A row that does not invert raises, naming its
    module and its sample's time.
    Without feedback the run is stepped in spans of _SPAN ticks.  With it,
    walking spans end at the 50 Hz supervisor's polls, each of which reads
    est_foot_sum at its tick, and when a poll at tick k leaves walking the
    run swims on from tick k + 1 in spans of _SPAN ticks, so no tick is
    simulated twice.  An open-loop drive_switch_t switches at its tick.

    Beside its trace a run keeps only each module's sample ticks and noise
    (the noise until the module is sensed to its last sample) and
    span-sized temporaries: the oscillator state and the body's position
    are carried from span to span, and a module's streams are held while
    its new samples are estimated.  Scenario refuses a run whose ticks
    would not fit _MAX_BYTES.
    """
    net = cpg.build_gait_network()
    models = _fit_sensor_models(scenario)
    line = busring.LineConfig()
    round_p = busring.ring_round_period(len(SENSOR_NAMES), line)

    n_steps = scenario.n_steps
    columns = _trace_columns(scenario.log_flux)
    col = {c: j for j, c in enumerate(columns)}
    data = np.zeros((n_steps, len(columns)))
    t = data[:, 0] = np.arange(n_steps) * scenario.dt

    ticks, noise = _ring_samples(n_steps, scenario, line)
    state = cpg.initial_state(net[0], scenario.drive,
                              rng=np.random.default_rng(scenario.seed * 100 + 3))
    x_body = scenario.x_start
    q0 = col["gt_q_ax1"]

    # the drive each tick steps with
    drive = np.full(n_steps, float(scenario.drive))
    walking = scenario.drive < cpg.D_SWIM
    switch_k = n_steps
    if walking and scenario.drive_switch_t is not None:
        switch_k = int(np.searchsorted(t, scenario.drive_switch_t))
        drive[switch_k:] = cpg.D_SWIM

    def advance(lo, hi):
        nonlocal state, x_body
        data[lo:hi, q0:q0 + cpg.N_JOINTS], state = _oscillate(net, scenario, drive, state,
                                                               lo, hi)
        x_body = _physics(scenario, drive, x_body, data, col, lo, hi)

    # each module's samples are sensed, filtered (the low-pass continued from
    # its last output), inverted and calibrated once, as a poll (the feet) or
    # the end of the run reaches them, and held in the trace up to the
    # module's next sample: the supervisor reads the trace's own estimates
    done, last = [0] * len(SENSOR_NAMES), [None] * len(SENSOR_NAMES)
    est_fx = [col[f"est_{nm}_fx"] for nm in FOOT_NAMES]

    def estimate(kind, k):
        # est_*, and raw_* and filt_* if logged, through tick k for each
        # module of one sensor kind that has new samples
        mods, spec = KINDS[kind], calibration.KINDS[kind]
        for name in mods.names:
            i = SENSOR_NAMES.index(name)
            tk, a = ticks[i], done[i]
            b = int(np.searchsorted(tk, k, side="right"))
            if b == a:
                continue
            raw = _sense(name, tk[a:b], noise[i][a:b], data, col)
            if b == len(tk):
                noise[i] = None    # every sample sensed
            filt = magnetics.lowpass_trace(raw, round_p, y0=last[i])
            done[i], last[i] = b, filt[-1]
            X, ok = spec.locate(filt, mods.dipole, mods.rest, scenario.noise_sigma_mt)
            if not ok.all():
                t_bad = tk[a + int(np.argmin(ok))] * scenario.dt
                raise spec.error(f"{name}: {spec.stall} at t = {t_bad:.3f} s")
            # the new samples each held from their tick to the next sample's
            stop = tk[b] if b < len(tk) else n_steps
            hold = np.diff(tk[a:b], append=stop)
            est = calibration.apply_poly_batch(models[name], X)
            data[tk[a]:stop, [col[f"est_{name}_{c}"] for c in mods.est]] = \
                np.repeat(est, hold, axis=0)
            if name in scenario.log_flux:
                logged = [col[f"{pre}_{name}_b{c}"] for pre in ("raw", "filt") for c in "xyz"]
                data[tk[a]:stop, logged] = np.repeat(np.hstack([raw, filt]), hold, axis=0)

    lo = 0
    cmd = cpg.GaitCommand(cpg.GaitMode.WALKING, scenario.drive)
    polls = range(0, switch_k, max(1, int(round(0.020 / scenario.dt))))
    for k in polls if walking and scenario.feedback else ():
        if t[k] >= cpg.SWITCH_HOLDOFF_S:
            advance(lo, k + 1)
            lo = k + 1
            estimate("foot", k)
            load = sum(data[k, est_fx])    # est_foot_sum at tick k, added in its order
            if cpg.transition_controller(load, cmd).mode is not cmd.mode:
                switch_k = k
                drive[k + 1:] = cpg.D_SWIM
                break
    for a in range(lo, n_steps, _SPAN):
        advance(a, min(a + _SPAN, n_steps))
    estimate("foot", n_steps)
    data[:, col["est_foot_sum"]] = sum(data[:, c] for c in est_fx)
    estimate("flow", n_steps)

    data[:, 1], data[:, 2] = float(not walking), scenario.drive
    data[switch_k:, 1:3] = 1.0, cpg.D_SWIM
    return ScenarioResult(scenario=scenario, columns=columns, data=data,
                          switch_time=float(t[switch_k]) if switch_k < n_steps else None)
