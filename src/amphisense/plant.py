"""Synthetic robot plant: kinematics, elastic sensing, forces, scenarios.

Quasi-static desk-scale stand-in for the hardware.  A planar kinematic
chain (8 spine links, 4 two-joint legs) follows the oscillator network's
joint targets at 1 kHz.  Foot and fin loads are synthesized from the
pose, pushed through the elastic transduction models into magnet poses,
rendered to flux with sensor noise, framed onto the ring bus schedule,
and decoded/filtered/inverted back into estimates on the host side --
the same signal path the robot runs, with ground truth retained at
every stage.

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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import busring, calibration, cpg, magnetics

MM_PER_M = 1000.0
G_ACCEL = 9.81

FOOT_NAMES = ("foot_fl", "foot_fr", "foot_hl", "foot_hr")
FIN_NAMES = ("fin_link1", "fin_link2", "fin_link4", "fin_link6",
             "fin_link8", "fin_tail")
SENSOR_NAMES = FOOT_NAMES + FIN_NAMES
FIN_MOUNT_LINKS = (0, 1, 3, 5, 7, "tail")   # 0-based spine link per fin
FIN_ANTERIOR_JOINT = (0, 1, 3, 5, 7, 7)     # 0-based axial joint per fin
_FOOT_DIPOLE = magnetics.DipoleParams(n_t=50.0)


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

    @property
    def body_span(self) -> float:
        return self.head_length + self.n_axial * self.link_length + self.tail_length

    def forward(self, q):
        """Forward kinematics in the body frame (robot faces +x).

        Parameters
        ----------
        q : (16,) joint angles, rad: 8 axial then per leg swing/elev.

        Returns
        -------
        dict with axial node positions (9, 2), link headings (8,),
        snout/tail points, foot positions (4, 2), fin mount points
        (6, 2).
        """
        q = np.asarray(q, dtype=float)
        ax = q[: self.n_axial]
        # spine extends backward from the first joint at the origin
        headings = math.pi + np.cumsum(ax)
        nodes = np.zeros((self.n_axial + 1, 2))
        steps = self.link_length * np.column_stack(
            [np.cos(headings), np.sin(headings)]
        )
        nodes[1:] = np.cumsum(steps, axis=0)
        snout = np.array([self.head_length, 0.0])
        tail_tip = nodes[-1] + self.tail_length * np.array(
            [math.cos(headings[-1]), math.sin(headings[-1])]
        )

        feet = np.zeros((4, 2))
        # legs: fl, fr at the front girdle; hl, hr at the hind girdle
        for li, (leg, girdle) in enumerate(
            [("fl", self.front_girdle), ("fr", self.front_girdle),
             ("hl", self.hind_girdle), ("hr", self.hind_girdle)]
        ):
            base = nodes[girdle]
            h = headings[girdle]
            # links run backward (heading ~ pi), so the robot's left
            # (+y when facing +x) sits at heading - pi/2
            side = -1.0 if leg in ("fl", "hl") else 1.0
            swing = q[8 + 2 * li]
            # lateral offset then the swung leg segment
            beta = h + side * math.pi / 2.0
            root = base + self.leg_lateral * np.array([math.cos(beta), math.sin(beta)])
            ang = beta + side * swing
            feet[li] = root + self.leg_length * np.array(
                [math.cos(ang), math.sin(ang)]
            )

        mounts = np.zeros((len(FIN_MOUNT_LINKS), 2))
        for fi, link in enumerate(FIN_MOUNT_LINKS):
            if link == "tail":
                mounts[fi] = tail_tip
            else:
                mounts[fi] = 0.5 * (nodes[link] + nodes[link + 1])
        return {
            "nodes": nodes,
            "headings": headings,
            "snout": snout,
            "tail_tip": tail_tip,
            "feet": feet,
            "fin_mounts": mounts,
        }


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
    """Magnet position (mm) under a foot wrench; raises beyond the caps."""
    if abs(wrench.f_x) > model.f_cap:
        raise ElasticRangeError(f"f_x {wrench.f_x:.2f} N beyond elastic range")
    if max(abs(wrench.tau_pitch), abs(wrench.tau_yaw)) > model.tau_cap:
        raise ElasticRangeError("torque beyond elastic range")
    return np.array([
        model.p0_mm - model.c_fx * wrench.f_x,
        model.p0_mm * model.c_yaw * wrench.tau_yaw,
        model.p0_mm * model.c_pitch * wrench.tau_pitch,
    ])


def foot_deflection(wrench: calibration.FootWrench,
                    model: ElasticFootModel) -> magnetics.MagnetPose:
    """Magnet pose under a foot wrench (radially magnetized, H = -P/|P|)."""
    p = foot_deflection_p(wrench, model)
    return magnetics.MagnetPose(p=p, h=-p / np.linalg.norm(p))


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

    def angle_for_force(self, force_n: float) -> float:
        theta = force_n * self.lever_mm / self.k_torsion
        return float(min(max(theta, -self.theta_cap), self.theta_cap))

    def pose_for_angle(self, theta: float) -> magnetics.FlowPose:
        return magnetics.FlowPose(
            p_x=self.rho_mm * math.cos(theta),
            p_y=self.rho_mm * math.sin(theta),
            h_y=math.sin(self.alpha0 + theta),
            d_z0=self.d_z0_mm,
        )

    def pose_for_force(self, force_n: float) -> magnetics.FlowPose:
        return self.pose_for_angle(self.angle_for_force(force_n))

    @property
    def dipole_params(self) -> magnetics.DipoleParams:
        return magnetics.DipoleParams(n_t=self.n_t)


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
    elev = q[9:16:2]
    u = np.clip((cfg.elev_contact - elev) / (2.0 * cfg.elev_ref), 0.0, 1.0)
    in_contact = elev < cfg.elev_contact
    return np.where(in_contact, cfg.s_min + (1.0 - cfg.s_min) * u, 0.0)


def contact_forces(q, kin: RobotKinematics, on_floor, weight_n: float,
                   cfg: ContactConfig = ContactConfig(), q_prev=None,
                   dt: float = 1e-3):
    """Per-foot wrenches supporting `weight_n` on the stance feet.

    on_floor: length-4 boolean, terrain under each foot is load-bearing.
    The supported weight is split over stance feet proportionally to the
    smooth stance weighting; zero stance feet means floating (all-zero
    wrenches).  Yaw torque models sliding friction against the swing
    motion, pitch torque a center-of-pressure offset that follows the
    swing angle.
    """
    q = np.asarray(q, dtype=float)
    s = stance_weights(q, cfg) * np.asarray(on_floor, dtype=float)
    total = s.sum()
    wrenches = []
    swing = q[8:16:2]
    if q_prev is None:
        swing_rate = np.zeros(4)
    else:
        swing_rate = (swing - np.asarray(q_prev, dtype=float)[8:16:2]) / dt
    peak_rate = cpg.TWO_PI * 0.47 * cfg.swing_ref
    for i in range(4):
        if total <= 0.0 or s[i] == 0.0:
            wrenches.append(calibration.FootWrench(0.0, 0.0, 0.0))
            continue
        fx = weight_n * s[i] / total
        slide = np.clip(swing_rate[i] / peak_rate, -1.0, 1.0)
        tau_yaw = cfg.mu_yaw * fx * cfg.yaw_lever_mm * slide
        tau_pitch = fx * cfg.cop_offset_mm * np.clip(
            swing[i] / cfg.swing_ref, -1.0, 1.0
        )
        wrenches.append(calibration.FootWrench(tau_pitch, tau_yaw, fx))
    return wrenches, s


def fin_drag_force(theta_anterior: float, mount_speed: float,
                   stream_speed: float, fin: FlowFinModel) -> float:
    """Plate drag from the local stream striking the bent fin.

    Water runs along the anterior link at the scenario stream speed,
    compounded with the mount's own deformation speed; the plate rides
    the local link, so the stream meets it at the anterior joint angle
    and the plate-normal component is |u| sin(theta).  Quadratic drag
    in that normal component loads the spring.
    """
    speed_sq = stream_speed * stream_speed + mount_speed * mount_speed
    v_n = math.sqrt(speed_sq) * math.sin(theta_anterior)
    return fin.c_d * v_n * abs(v_n)


def flow_forces(q_trace, kin: RobotKinematics, fins, stream_speed: float,
                dt: float = 1e-3):
    """Per-fin force traces for a joint-angle trace (n, 16).

    Returns (forces (n, n_fins), angles (n, n_fins)).
    """
    q_trace = np.asarray(q_trace, dtype=float)
    n = q_trace.shape[0]
    forces = np.zeros((n, len(fins)))
    angles = np.zeros((n, len(fins)))
    prev_mounts = None
    for k in range(n):
        fk = kin.forward(q_trace[k])
        mounts = fk["fin_mounts"]
        if prev_mounts is None:
            vel = np.zeros(len(fins))
        else:
            vel = np.linalg.norm(mounts - prev_mounts, axis=1) / dt
        prev_mounts = mounts
        for fi, fin in enumerate(fins):
            th_ant = q_trace[k, FIN_ANTERIOR_JOINT[fi]]
            f = fin_drag_force(th_ant, vel[fi], stream_speed, fin)
            forces[k, fi] = f
            angles[k, fi] = fin.angle_for_force(f)
    return forces, angles


@dataclass
class Scenario:
    """Staging for one run; JSON-serializable."""

    name: str = "walk_floor"
    terrain: str = "floor"            # floor | water | shoreline
    x_waterline: float = 0.0
    duration_s: float = 18.0
    dt: float = 1e-3
    drive: float = cpg.D_WALK
    feedback: bool = True
    drive_switch_t: float = None      # open-loop drive switch, optional
    advance_speed: float = 0.0        # body advance while walking, m/s
    swim_speed: float = 0.2           # stream speed once swimming, m/s
    x_start: float = 0.0
    total_mass_kg: float = 2.71
    noise_sigma_mt: float = 0.01
    gain: float = 1.0
    seed: int = 0
    window_start: float = 6.0         # metrics ignore the lock-in transient
    log_flux: tuple = ("foot_fl", "fin_link2")

    def __post_init__(self):
        if self.terrain not in ("floor", "water", "shoreline"):
            raise PlantError(f"unknown terrain {self.terrain!r}")
        if self.duration_s <= 0 or self.dt <= 0:
            raise PlantError("duration and dt must be positive")
        self.log_flux = tuple(self.log_flux)
        if not set(self.log_flux) <= set(SENSOR_NAMES):
            raise PlantError(f"log_flux names modules outside {SENSOR_NAMES}")

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
        if not isinstance(source, dict):
            with open(source) as fh:
                source = json.load(fh)
        allowed = [f.name for f in fields(cls)]
        unknown = sorted(set(source) - set(allowed))
        if unknown:
            raise PlantError(f"unknown scenario keys {unknown}; "
                             f"allowed: {', '.join(allowed)}")
        return cls(**source)


def _fit_sensor_models(scenario, foot_model, fins):
    """Per-unit bench calibration, seeded from the scenario."""
    models = {}

    def foot_transduce(w):
        return foot_deflection_p(w, foot_model)

    for i, name in enumerate(FOOT_NAMES):
        rng = np.random.default_rng(scenario.seed * 100 + 11 + i)
        cfg = calibration.JigConfig(noise_sigma=scenario.noise_sigma_mt)
        ds = calibration.simulate_jig(foot_transduce, _FOOT_DIPOLE, cfg, rng)
        train, _ = ds.train_eval_split()
        models[name] = calibration.fit_poly(train)
    for i, name in enumerate(FIN_NAMES):
        fin = fins[i]
        rng = np.random.default_rng(scenario.seed * 100 + 51 + i)
        cfg = calibration.JigConfig(
            kind="flow", noise_sigma=scenario.noise_sigma_mt, n_average=8
        )
        ds = calibration.simulate_jig(
            fin.pose_for_force, fin.dipole_params, cfg, rng
        )
        train, _ = ds.train_eval_split()
        models[name] = calibration.fit_poly(train)
    return models


@dataclass
class ScenarioResult:
    scenario: Scenario
    columns: list
    data: np.ndarray
    switch_time: float = None

    def col(self, name):
        return self.data[:, self.columns.index(name)]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data:
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")

    @classmethod
    def read_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = fh.read()
        if body.strip():
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        else:
            data = np.zeros((0, len(header)))
        return cls(scenario=None, columns=header, data=data)


def _tick_loop(scenario, net, foot_model, fins, line, swim_from, data, col):
    """Physics and bus path, swimming from tick swim_from on.  Writes the
    truth columns of `data`; returns each module's sample ticks and flux."""
    params, graph, jmap = net
    kin = RobotKinematics()
    n_mod = len(SENSOR_NAMES)
    slot = line.frame_time + line.inter_frame_gap
    round_p = busring.ring_round_period(n_mod, line)
    # closed-form fault-free ring schedule (validated against the event
    # sim in the bus tests): sample time of module i, round k
    t_sample0 = line.ctrl_time + line.inter_frame_gap
    cap = min(len(data), int(len(data) * scenario.dt / round_p) + 2)
    ticks = np.zeros((n_mod, cap), dtype=int)
    flux = np.zeros((n_mod, cap, 3))
    count = np.zeros(n_mod, dtype=int)
    gt_q = col["gt_q_" + jmap.names[0]]         # joints, then foot wrenches
    gt_fin = col[f"gt_{FIN_NAMES[0]}_force"]    # fin forces, then fin angles

    rng_noise = np.random.default_rng(scenario.seed * 100 + 7)
    state = cpg.initial_state(
        params, scenario.drive, rng=np.random.default_rng(scenario.seed * 100 + 3)
    )
    swimming = scenario.drive >= cpg.D_SWIM
    drive = scenario.drive
    x_body = scenario.x_start
    q_prev = None
    prev_mounts = None

    for k in range(len(data)):
        if k == swim_from:
            swimming, drive = True, cpg.D_SWIM
        state.drive = drive
        state = cpg.step_network(state, params, graph, scenario.dt)
        q = cpg.joint_targets(cpg.oscillator_output(state), jmap, scenario.gain)

        fk = kin.forward(q)
        speed = scenario.swim_speed if swimming else scenario.advance_speed
        x_body += speed * scenario.dt

        # terrain under each foot and buoyancy from body immersion
        if scenario.terrain == "floor":
            on_floor = np.ones(4, dtype=bool)
            weight_eff = scenario.weight_n
        elif scenario.terrain == "water":
            on_floor = np.zeros(4, dtype=bool)
            weight_eff = 0.0
        else:
            foot_x = x_body + fk["feet"][:, 0]
            on_floor = foot_x < scenario.x_waterline
            lo = x_body + fk["tail_tip"][0]
            hi = x_body + fk["snout"][0]
            frac = np.clip((hi - scenario.x_waterline) / (hi - lo), 0.0, 1.0)
            weight_eff = scenario.weight_n * (1.0 - frac)

        wrenches, _ = contact_forces(q, kin, on_floor, weight_eff,
                                     q_prev=q_prev, dt=scenario.dt)
        q_prev = q

        mounts = fk["fin_mounts"]
        if prev_mounts is None:
            mount_speed = np.zeros(len(FIN_NAMES))
        else:
            mount_speed = np.linalg.norm(mounts - prev_mounts, axis=1) / scenario.dt
        prev_mounts = mounts
        stream = scenario.swim_speed if swimming else 0.0
        in_water = scenario.terrain == "water" or (
            scenario.terrain == "shoreline" and swimming
        )
        fin_force = np.zeros(len(FIN_NAMES))
        fin_angle = np.zeros(len(FIN_NAMES))
        if in_water:
            for fi, fin in enumerate(fins):
                f = fin_drag_force(q[FIN_ANTERIOR_JOINT[fi]], mount_speed[fi],
                                   stream, fin)
                fin_force[fi] = f
                fin_angle[fi] = fin.angle_for_force(f)

        # ring frames whose sample slot landed inside this tick
        for i, name in enumerate(SENSOR_NAMES):
            if t_sample0 + i * slot + count[i] * round_p > k * scenario.dt:
                continue
            if name in FOOT_NAMES:
                p = foot_deflection_p(wrenches[FOOT_NAMES.index(name)], foot_model)
                clean = magnetics.dipole_flux_radial(p, _FOOT_DIPOLE)
            else:
                fi = FIN_NAMES.index(name)
                fpose = fins[fi].pose_for_angle(fin_angle[fi])
                clean = magnetics.flow_flux(fpose, fins[fi].dipole_params)
            noisy = clean + scenario.noise_sigma_mt * rng_noise.standard_normal(3)
            wire = busring.encode_frame(busring.FluxSample(i, noisy))
            ticks[i, count[i]] = k
            flux[i, count[i]] = busring.decode_frame(wire).flux_mt
            count[i] += 1

        truth = np.hstack([q] + [(w.f_x, w.tau_pitch, w.tau_yaw) for w in wrenches])
        data[k, gt_q:gt_q + len(truth)] = truth
        data[k, gt_fin:gt_fin + 2 * len(FIN_NAMES)] = np.concatenate([fin_force, fin_angle])
    return ticks, flux, count


def _hold(ticks, values, n_steps):
    """Per-tick trace holding each sample from its tick on; 0 before the first."""
    idx = np.searchsorted(ticks, np.arange(n_steps), side="right")
    return np.concatenate([np.zeros((1, values.shape[1])), values])[idx]


def _host_side(names, streams, scenario, models, fins, round_p, data, col):
    """Low-pass, inversion and calibrated model over each named module's whole
    sample stream, into the est_*, raw_*, filt_* and est_foot_sum columns."""
    ticks, flux, count = streams
    for name in names:
        i = SENSOR_NAMES.index(name)
        tk, raw = ticks[i, :count[i]], flux[i, :count[i]]
        filt = magnetics.lowpass_trace(raw, round_p)
        if name in FOOT_NAMES:
            p = magnetics.invert_foot_flux_batch(filt, _FOOT_DIPOLE)
            if np.isnan(p).any():
                raise magnetics.BelowNoiseFloorError(f"{name}: flux below noise floor")
            est = calibration.apply_poly_batch(models[name], p)[:, [2, 0, 1]]
            est_cols = [col[f"est_{name}_{c}"] for c in ("fx", "tp", "ty")]
        else:
            rest = fins[i - len(FOOT_NAMES)].pose_for_force(0.0)
            pose, ok = magnetics.invert_flow_flux_batch(
                filt, rest.d_z0, fins[i - len(FOOT_NAMES)].dipole_params, rest,
                resid_accept=max(5.0 * scenario.noise_sigma_mt, 1e-9))
            if not ok.all():
                t_bad = tk[np.argmin(ok)] * scenario.dt
                raise magnetics.NoConvergenceError(
                    f"{name}: fin inversion stalled at t = {t_bad:.3f} s")
            est = calibration.apply_poly_batch(
                models[name], pose[:, :2] - [rest.p_x, rest.p_y])
            est_cols = [col[f"est_{name}_force"]]
        data[:, est_cols] = _hold(tk, est, len(data))
        if name in scenario.log_flux:
            data[:, [col[f"raw_{name}_b{a}"] for a in "xyz"]] = _hold(tk, raw, len(data))
            data[:, [col[f"filt_{name}_b{a}"] for a in "xyz"]] = _hold(tk, filt, len(data))
    data[:, col["est_foot_sum"]] = sum(data[:, col[f"est_{nm}_fx"]] for nm in FOOT_NAMES)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute the full pipeline at 1 kHz; returns the wide trace.

    The tick loop runs robot and ring bus; the host side then filters,
    inverts and calibrates each module's whole sample stream.  The gait
    switch is one-way and no tick before it depends on it, so the 50 Hz
    supervisor polls the estimated foot-force sum after a pass; when a poll
    at tick k leaves walking, the tick loop runs again with swimming physics
    from tick k + 1.  An open-loop drive_switch_t switches at its own tick.
    """
    net = cpg.build_gait_network()
    foot_model = ElasticFootModel()
    fins = [FlowFinModel() for _ in FIN_NAMES]
    models = _fit_sensor_models(scenario, foot_model, fins)
    line = busring.LineConfig()
    round_p = busring.ring_round_period(len(SENSOR_NAMES), line)

    n_steps = int(round(scenario.duration_s / scenario.dt))
    legs = ("fl", "fr", "hl", "hr")
    columns = ["t", "mode", "drive"]
    columns += [f"gt_q_{nm}" for nm in net[2].names]
    columns += [f"gt_foot_{leg}_{c}" for leg in legs for c in ("fx", "tp", "ty")]
    columns += [f"est_foot_{leg}_{c}" for leg in legs for c in ("fx", "tp", "ty")]
    columns += [f"gt_{nm}_force" for nm in FIN_NAMES]
    columns += [f"gt_{nm}_angle" for nm in FIN_NAMES]
    columns += [f"est_{nm}_force" for nm in FIN_NAMES]
    columns += ["est_foot_sum"]
    for nm in scenario.log_flux:
        columns += [f"raw_{nm}_b{a}" for a in "xyz"]
        columns += [f"filt_{nm}_b{a}" for a in "xyz"]
    col = {c: j for j, c in enumerate(columns)}
    data = np.zeros((n_steps, len(columns)))
    t = data[:, 0] = np.arange(n_steps) * scenario.dt

    walking = scenario.drive < cpg.D_SWIM
    switch_k = n_steps
    if walking and scenario.drive_switch_t is not None:
        switch_k = int(np.searchsorted(t, scenario.drive_switch_t))
    streams = _tick_loop(scenario, net, foot_model, fins, line, switch_k, data, col)
    if walking and scenario.feedback:
        _host_side(FOOT_NAMES, streams, scenario, models, fins, round_p, data, col)
        cmd = cpg.GaitCommand(cpg.GaitMode.WALKING, scenario.drive)
        # the supervisor holds off until the first bus rounds have delivered
        # estimates for every foot (the startup default of zero would
        # otherwise read as an airborne robot)
        for k in range(0, switch_k, max(1, int(round(0.020 / scenario.dt)))):
            if t[k] >= 0.05 and cpg.transition_controller(
                    data[k, col["est_foot_sum"]], cmd).mode is not cmd.mode:
                switch_k = k
                streams = _tick_loop(scenario, net, foot_model, fins, line, k + 1,
                                     data, col)
                break
    _host_side(SENSOR_NAMES, streams, scenario, models, fins, round_p, data, col)

    data[:, 1], data[:, 2] = float(not walking), scenario.drive
    data[switch_k:, 1:3] = 1.0, cpg.D_SWIM
    return ScenarioResult(scenario=scenario, columns=columns, data=data,
                          switch_time=float(t[switch_k]) if switch_k < n_steps else None)
