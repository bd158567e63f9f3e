"""Polynomial force/torque calibration and the bench-jig simulator.

A calibration dataset pairs magnet-location estimates (from the sensing
pipeline) with reference loads applied by a simulated jig.  Separate ordinary
least squares models map foot locations (3 coords, full 10-term quadratic
basis) to pitch torque / yaw torque / axial force, and fin location changes
(2 coords, 6-term quadratic basis) to a single flow force.

Units follow the sensing stack: mm, mT, N, N*mm, rad.
"""

import itertools
import json
import math
from collections.abc import Callable

import numpy as np
from dataclasses import dataclass, field

from . import magnetics


class CalibrationError(ValueError):
    pass


class InsufficientSamplesError(CalibrationError):
    pass


class RankDeficiencyError(CalibrationError):
    def __init__(self, message, directions):
        super().__init__(message)
        self.directions = directions


class CycleOverlapError(CalibrationError):
    pass


class EmptyEvalError(CalibrationError):
    pass


@dataclass
class FootWrench:
    """Pitch torque (N*mm), yaw torque (N*mm), axial force (N)."""

    tau_pitch: float
    tau_yaw: float
    f_x: float


@dataclass(frozen=True)
class SensorKind:
    """What makes a sensor kind, from its bench to its calibrate report."""

    coords: tuple       # location coordinates; the quadratic basis in them follows
    outputs: tuple      # the loads its models return
    load_types: tuple   # a jig's default schedule
    bench: Callable     # (transduce, params, cfg) -> flux, loads, cycle ids, load types, rest
    locate: Callable    # (B, params, rest, noise_sigma) -> locations (N, coords), ok (N,)
    error: type         # raised for a row that does not invert, saying stall
    stall: str
    report: tuple       # calibrate's rows: (name, outputs averaged, unit, band field)
    jig_keys: tuple = ()    # calibrate config keys that only this kind's bench reads

    @property
    def config_keys(self):
        """The calibrate config keys this kind's bench or report reads."""
        return {band for *_, band in self.report if band} | set(self.jig_keys)

    @property
    def features(self):
        c = self.coords
        return ("1", *c, *(f"{a}^2" for a in c),
                *(f"{a}*{b}" for a, b in itertools.combinations(c, 2)))


class _Kinds(dict):
    def __missing__(self, kind):
        raise CalibrationError(f"unknown sensor kind {kind!r}")


def _feature_matrix(kind: str, X: np.ndarray) -> np.ndarray:
    """The quadratic basis of kind's features at each row of X."""
    X = np.asarray(X, dtype=float)
    c = [X[:, i] for i in range(len(KINDS[kind].coords))]
    return np.column_stack([np.ones(len(X)), *c, *(a * a for a in c),
                            *(a * b for a, b in itertools.combinations(c, 2))])


@dataclass
class CalibrationDataset:
    """Location estimates paired with reference loads, labeled by jig cycle:
    X holds rows of the kind's coords, Y rows of its outputs."""

    kind: str
    X: np.ndarray
    Y: np.ndarray
    cycle_ids: list
    load_types: list

    def __post_init__(self):
        kind = KINDS[self.kind]
        self.X = np.asarray(self.X, dtype=float).reshape(-1, len(kind.coords))
        self.Y = np.asarray(self.Y, dtype=float).reshape(-1, len(kind.outputs))
        if not (len(self.X) == len(self.Y) == len(self.cycle_ids) == len(self.load_types)):
            raise CalibrationError("dataset columns disagree in length")

    def __len__(self):
        return len(self.X)

    @property
    def cycles(self):
        return sorted(set(self.cycle_ids))

    def train_eval_split(self, n_eval: int = 2):
        """Hold out the last n_eval cycles of every load type for evaluation."""
        per_type = {}
        for lt, cid in set(zip(self.load_types, self.cycle_ids)):
            per_type.setdefault(lt, []).append(cid)
        eval_cycles = set()
        for lt in sorted(per_type):
            ordered = sorted(per_type[lt])
            if len(ordered) <= n_eval:
                raise CalibrationError(
                    f"load type {lt!r} has {len(ordered)} cycles, "
                    f"cannot hold out {n_eval}"
                )
            eval_cycles.update(ordered[-n_eval:])
        held = np.array([c in eval_cycles for c in self.cycle_ids], dtype=bool)

        def part(mask):
            keep = mask.tolist()
            return CalibrationDataset(self.kind, self.X[mask], self.Y[mask],
                                      list(itertools.compress(self.cycle_ids, keep)),
                                      list(itertools.compress(self.load_types, keep)))
        return part(~held), part(held)


@dataclass
class PolyModel:
    """Per-output quadratic polynomial, fitted by ordinary least squares."""

    kind: str
    coef: np.ndarray  # outputs x features
    train_rmse: np.ndarray
    train_cycles: list = field(default_factory=list)

    @property
    def feature_names(self):
        return KINDS[self.kind].features

    @property
    def output_names(self):
        return KINDS[self.kind].outputs

    def to_json(self, path=None):
        doc = {
            "kind": self.kind,
            "features": list(self.feature_names),
            "outputs": list(self.output_names),
            "coef": self.coef.tolist(),
            "train_rmse": self.train_rmse.tolist(),
            "train_cycles": list(self.train_cycles),
        }
        if path is None:
            return json.dumps(doc, indent=2)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        model = cls(
            kind=doc["kind"],
            coef=np.array(doc["coef"], dtype=float),
            train_rmse=np.array(doc["train_rmse"], dtype=float),
            train_cycles=list(doc["train_cycles"]),
        )
        if doc["features"] != list(model.feature_names):
            raise CalibrationError("feature ordering in file disagrees with kind")
        return model


@dataclass
class RmseReport:
    """Per-output root mean square error with units, over n_samples."""

    kind: str
    rmse: dict
    n_samples: int

    @property
    def mean_torque_rmse(self):
        return 0.5 * (self.rmse["tau_pitch"] + self.rmse["tau_yaw"])


def fit_poly(data: CalibrationDataset) -> PolyModel:
    """Ordinary least squares fit of the quadratic basis, per output.

    Solved through the SVD so rank deficiency is detected and reported, never
    silently regularized: the error message names the features dominating
    each unexcited direction (the usual cause is a jig schedule that never
    varies two axes together).
    """
    feats = KINDS[data.kind].features
    k = len(feats)
    if len(data) < k:
        raise InsufficientSamplesError(
            f"{len(data)} samples cannot determine {k} coefficients"
        )
    F = _feature_matrix(data.kind, data.X)
    U, s, Vt = np.linalg.svd(F, full_matrices=False)
    tol = s[0] * max(F.shape) * np.finfo(float).eps
    rank = int((s > tol).sum())
    if rank < k:
        dirs = []
        for row in Vt[rank:]:
            top = np.argsort(-np.abs(row))[:3]
            dirs.append(" + ".join(f"{row[i]:+.3f}*{feats[i]}" for i in top))
        raise RankDeficiencyError(
            f"feature matrix rank {rank} < {k}; unexcited directions: "
            + "; ".join(dirs),
            directions=Vt[rank:].copy(),
        )
    coef = (Vt.T @ ((U.T @ data.Y) / s[:, None])).T
    resid = data.Y - F @ coef.T
    train_rmse = np.sqrt(np.mean(resid**2, axis=0))
    return PolyModel(
        kind=data.kind, coef=coef, train_rmse=train_rmse,
        train_cycles=data.cycles,
    )


def apply_poly_batch(model: PolyModel, X) -> np.ndarray:
    """Evaluate the model over (N, dims) locations; returns (N, outputs)."""
    return _feature_matrix(model.kind, np.asarray(X, dtype=float)) @ model.coef.T


def evaluate_rmse(model: PolyModel, eval_data: CalibrationDataset) -> RmseReport:
    """Per-output RMSE on held-out cycles; refuses overlap with training."""
    if model.kind != eval_data.kind:
        raise CalibrationError("model and dataset kinds differ")
    if len(eval_data) == 0:
        raise EmptyEvalError("evaluation dataset is empty")
    overlap = set(model.train_cycles) & set(eval_data.cycles)
    if overlap:
        raise CycleOverlapError(f"eval cycles overlap training: {sorted(overlap)}")
    pred = apply_poly_batch(model, eval_data.X)
    rmse = np.sqrt(np.mean((pred - eval_data.Y) ** 2, axis=0))
    return RmseReport(
        kind=model.kind,
        rmse=dict(zip(model.output_names, rmse)),
        n_samples=len(eval_data),
    )


def reference_torque(force: float, lever: float) -> float:
    """Reference torque (N*mm) of a tangential load: force times lever arm."""
    if not (lever > 0):
        raise CalibrationError("lever must be positive")
    return force * lever


FIN_MIN_RADIUS_MM = 1.0    # closer to the rotation axis, a spot has no angle


def fin_angle(pose: magnetics.FlowPose, rest_pose: magnetics.FlowPose) -> float:
    """Signed fin rotation about z between the rest and current magnet spots."""
    ax, ay = rest_pose.p_x, rest_pose.p_y
    bx, by = pose.p_x, pose.p_y
    if math.hypot(ax, ay) < FIN_MIN_RADIUS_MM or math.hypot(bx, by) < FIN_MIN_RADIUS_MM:
        raise magnetics.DegeneratePoseError("magnet too close to the rotation axis")
    return math.atan2(ax * by - ay * bx, ax * bx + ay * by)


# ---------------------------------------------------------------------------
# bench jig
# ---------------------------------------------------------------------------

@dataclass
class JigConfig:
    """Load schedule and noise for one simulated calibration bench.

    Every load type runs n_train + n_eval cycles; each cycle sweeps its load
    profile over samples_per_cycle points.  n_average flux draws are averaged
    per point before inversion (the bench is quasi-static).  The combo cycles
    drive all three foot axes together so the quadratic cross terms are
    excited; single-axis cycles alone leave them unidentifiable.
    """

    kind: str = "foot"
    lever: float = 19.0
    n_train: int = 10
    n_eval: int = 2
    samples_per_cycle: int = 41
    n_average: int = 1
    noise_sigma: float = 0.01
    f_x_max: float = 8.0
    tangential_max: float = 3.0
    flow_force_max: float = 0.3
    load_types: tuple = None

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise CalibrationError(f"noise_sigma must be non-negative, got {self.noise_sigma!r}")
        if not self.n_average >= 1:
            raise CalibrationError(f"n_average must be at least 1, got {self.n_average!r}")
        if self.load_types is None:
            self.load_types = KINDS[self.kind].load_types

    @property
    def rows(self) -> int:
        """A unit's bench rows: samples_per_cycle points a cycle, every load
        type's cycles."""
        return (self.n_train + self.n_eval) * self.samples_per_cycle * len(self.load_types)


def _foot_cycle_loads(load_type, cfg: JigConfig):
    """Reference wrenches of one cycle: columns tau_pitch, tau_yaw, f_x."""
    s = np.linspace(0.0, 1.0, cfg.samples_per_cycle)
    zero = np.zeros_like(s)
    tri = 1.0 - np.abs(2.0 * s - 1.0)
    bi = np.sin(2.0 * np.pi * s)
    t_max = reference_torque(cfg.tangential_max, cfg.lever)
    if load_type == "fx":
        return np.column_stack([zero, zero, cfg.f_x_max * tri])
    if load_type == "pitch":
        return np.column_stack([t_max * bi, zero, zero])
    if load_type == "yaw":
        return np.column_stack([zero, t_max * bi, zero])
    if load_type == "combo":
        return np.column_stack(
            [
                t_max * bi,
                t_max * np.sin(4.0 * np.pi * s),
                cfg.f_x_max * 0.5 * (1.0 - np.cos(2.0 * np.pi * s)),
            ]
        )
    raise CalibrationError(f"unknown foot load type {load_type!r}")


def simulate_jig(transduce, params: magnetics.DipoleParams, cfg: JigConfig,
                 rng) -> CalibrationDataset:
    """Run the simulated calibration bench and return the labeled dataset.

    transduce is the opaque ground-truth elastic law: for a foot jig it maps
    a FootWrench whose fields are (n,) arrays to the (n, 3) magnet
    positions, and is called once per load type; for a flow jig it maps a
    force (N) to a FlowPose.  Each scheduled load point goes load -> pose -> flux
    -> noise -> inversion, and the estimated location is paired with the
    reference load.  The one-unit case of simulate_jigs.
    """
    return simulate_jigs(transduce, params, cfg, [rng])[0]


def simulate_jigs(transduce, params: magnetics.DipoleParams, cfg: JigConfig,
                  rngs) -> list:
    """One dataset per generator in rngs, each unit on its own bench.

    Every unit's dataset equals simulate_jig with that generator.  The
    clean sweep is rendered once, each unit draws its noise from its own
    generator, and all units' flux rows are inverted in one call.
    """
    kind = KINDS[cfg.kind]
    if not rngs:
        return []
    b, loads, cids, ltypes, rest = kind.bench(transduce, params, cfg)
    noisy = np.concatenate([
        b + rng.normal(scale=cfg.noise_sigma, size=(len(b), cfg.n_average, 3)).mean(axis=1)
        for rng in rngs])
    X, ok = kind.locate(noisy, params, rest, cfg.noise_sigma)
    if not ok.all():
        # len(b) rows a unit; a stall names its unit and sweep point
        unit, point = divmod(int(np.argmin(ok)), len(b))
        raise kind.error(f"{cfg.kind} jig: {kind.stall} at sweep point {point} of unit {unit}")
    return [CalibrationDataset(cfg.kind, X[u * len(b):(u + 1) * len(b)], loads.copy(),
                               list(cids), list(ltypes)) for u in range(len(rngs))]


def _foot_bench(transduce, params, cfg):
    """A foot bench's clean flux, reference wrenches, cycle ids and load
    types, and its rest pose (none: the feet invert in closed form)."""
    n_cycles = cfg.n_train + cfg.n_eval
    cycles = [(lt, _foot_cycle_loads(lt, cfg)) for lt in cfg.load_types]
    loads = np.concatenate([np.tile(w, (n_cycles, 1)) for _, w in cycles])
    # every cycle of a load type repeats the same magnet positions
    P = np.concatenate([np.tile(transduce(FootWrench(*ws.T)), (n_cycles, 1))
                        for _, ws in cycles])
    cids = [f"{lt}-{c:02d}" for lt, ws in cycles for c in range(n_cycles) for _ in ws]
    ltypes = [lt for lt, ws in cycles for _ in range(n_cycles * len(ws))]
    return magnetics.dipole_flux_radial(P, params), loads, cids, ltypes, None


def _flow_bench(transduce, params, cfg):
    """A flow bench's clean flux, reference forces, cycle ids and load
    types, and the fin's rest pose."""
    rest = transduce(0.0)
    s = np.linspace(0.0, 1.0, cfg.samples_per_cycle)
    n_cycles = cfg.n_train + cfg.n_eval
    cycle = cfg.flow_force_max * np.sin(2.0 * np.pi * s)
    forces = np.tile(cycle, n_cycles)[:, None]
    # every cycle repeats the same fin poses
    b = np.tile([magnetics.flow_flux(transduce(f), params) for f in cycle], (n_cycles, 1))
    cids = [f"flow-{c:02d}" for c in range(n_cycles) for _ in s]
    return b, forces, cids, ["flow"] * len(forces), rest


def _foot_locate(B, params, rest, noise_sigma):
    """A foot magnet's position, in closed form; fails at the noise floor."""
    X = magnetics.invert_foot_flux_batch(B, params)
    return X, ~np.isnan(X).any(axis=1)


def _flow_locate(B, params, rest, noise_sigma):
    """A fin magnet's offset from rest, by damped Newton seeded there."""
    pose, ok = magnetics.invert_flow_flux_batch(
        B, rest.d_z0, params, rest, resid_accept=max(5.0 * noise_sigma, 1e-9))
    return pose[:, :2] - [rest.p_x, rest.p_y], ok


KINDS = _Kinds(
    foot=SensorKind(("p_x", "p_y", "p_z"), ("tau_pitch", "tau_yaw", "f_x"),
                    ("fx", "pitch", "yaw", "combo"), _foot_bench, _foot_locate,
                    magnetics.BelowNoiseFloorError, "flux below noise floor",
                    (("torque", ("tau_pitch", "tau_yaw"), "N*mm", "torque_band"),
                     ("fx", ("f_x",), "N", "force_band")), ("lever",)),
    flow=SensorKind(("dp_x", "dp_y"), ("force",), ("flow",), _flow_bench, _flow_locate,
                    magnetics.NoConvergenceError, "fin inversion stalled",
                    (("force", ("force",), "N", None),)),
)
