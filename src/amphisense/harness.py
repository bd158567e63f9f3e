"""Experiment runner CLI: scenarios, calibration, bus benchmark, analysis.

Commands (all outputs under --out):

  run <scenario.json>        execute a scenario, write trace CSV + metrics
  calibrate <jig.json>       run bench jigs, write model JSONs + report
  bus-bench <line.json>      ring simulation rates / fault statistics
  analyze <trace.csv>        recompute metrics from a stored trace
  plot <trace.csv> [spec]    time-series panels as standalone SVG

Exit code is 0 iff every bounded metric in the produced report passes;
a config, parse or sensing-model error prints one `error:` line and
exits 2.
Config arguments accept a filesystem path or the name of a bundled file
(e.g. `walk_floor`).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import busring, calibration, cpg, magnetics, plant

log = logging.getLogger("amphisense")

FREQ_TOL = 0.02
LAG_TOL_CYCLES = 0.15
FIN_LAG_TOL_CYCLES = 0.10
EST_FX_RMSE_MAX_N = 0.3
SWIM_FOOT_QUIET_N = 1.0
WALK_FIN_QUIET_N = 0.05
LATENCY_MAX_S = 0.020
MIN_CYCLES = 5
RING_RATE_MIN_HZ = 589.8    # floor of each module's sample rate on the ten-module bus


class HarnessError(ValueError):
    pass


class TraceTooShortError(HarnessError):
    """Fewer gait cycles in the analysis window than the estimator needs."""


class EmptyTraceError(HarnessError):
    pass


# ---------------------------------------------------------------------------
# signal measurements
# ---------------------------------------------------------------------------

def measure_frequency(t, x) -> float:
    """Fundamental frequency from mean-crossing intervals.

    Rising crossings of the de-meaned signal, linearly interpolated
    between samples; robust on the few-cycle traces the scenarios
    produce, where an FFT bin would be too coarse.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    xm = x - x.mean()
    below = xm[:-1] < 0.0
    above = xm[1:] >= 0.0
    idx = np.nonzero(below & above)[0]
    if len(idx) < MIN_CYCLES + 1:
        raise TraceTooShortError(
            f"{len(idx)} rising crossings; need at least {MIN_CYCLES + 1} "
            f"({MIN_CYCLES} full cycles)"
        )
    frac = -xm[idx] / (xm[idx + 1] - xm[idx])
    crossings = t[idx] + frac * (t[idx + 1] - t[idx])
    return (len(crossings) - 1) / (crossings[-1] - crossings[0])


def circular_lag_cycles(x, y, period_s: float, dt: float) -> float:
    """Delay of y behind x in cycles, from the circular cross-correlation peak.

    Returned in (-0.5, 0.5] of a cycle; callers fold into [0, 1) when the
    expected lag is near a half cycle.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x = x - x.mean()
    y = y - y.mean()
    n = len(x)
    cc = np.fft.irfft(np.fft.rfft(x).conj() * np.fft.rfft(y), n)
    k = int(np.argmax(cc))
    if k > n // 2:
        k -= n
    lag = k * dt / period_s
    # fold to [-0.5, 0.5) in cycles
    lag -= math.floor(lag + 0.5)
    return lag


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean((a - b) ** 2)))


# ---------------------------------------------------------------------------
# metrics report
# ---------------------------------------------------------------------------

@dataclass
class Metric:
    name: str
    value: float
    lo: float = None
    hi: float = None
    unit: str = ""

    @property
    def bounded(self) -> bool:
        return self.lo is not None or self.hi is not None

    @property
    def ok(self) -> bool:
        if not np.isfinite(self.value):
            return not self.bounded
        if self.lo is not None and self.value < self.lo:
            return False
        if self.hi is not None and self.value > self.hi:
            return False
        return True

    @property
    def verdict(self) -> str:
        if not self.bounded:
            return "info"
        return "pass" if self.ok else "FAIL"


@dataclass
class MetricsReport:
    """Measured quantities, each carrying its tolerance and verdict."""

    source: str
    metrics: list = field(default_factory=list)

    def add(self, name, value, lo=None, hi=None, unit=""):
        self.metrics.append(Metric(name, float(value), lo, hi, unit))

    @property
    def all_pass(self) -> bool:
        return all(m.ok for m in self.metrics)

    def to_json(self, path):
        doc = {
            "source": self.source,
            "all_pass": self.all_pass,
            "metrics": [
                {
                    "name": m.name,
                    "value": m.value,
                    "lo": m.lo,
                    "hi": m.hi,
                    "unit": m.unit,
                    "verdict": m.verdict,
                }
                for m in self.metrics
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    def format_table(self) -> str:
        lines = [f"metrics for {self.source}"]
        for m in self.metrics:
            band = ""
            if m.bounded:
                lo = "-inf" if m.lo is None else f"{m.lo:g}"
                hi = "+inf" if m.hi is None else f"{m.hi:g}"
                band = f" in [{lo}, {hi}]"
            lines.append(f"  {m.name:<28} {m.value:12.6g} {m.unit:<6}{band}  {m.verdict}")
        lines.append(f"  => {'ALL PASS' if self.all_pass else 'FAILURES PRESENT'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

_DIAG_PAIRS = (("fl", "hr"), ("fr", "hl"))
_IPSI_PAIRS = (("fl", "hl"), ("fr", "hr"))


def _switch_index(mode):
    if mode[0] == 0.0 and mode.max() > 0.0:
        return int(np.argmax(mode > 0.0))
    return None


def _too_short(window_start, t_end):
    return TraceTooShortError(f"no rows at or after window_start {window_start:g} s; "
                              f"the trace ends at t = {t_end:g} s")


def analyze_trace(result: plant.ScenarioResult,
                  scenario: plant.Scenario = None) -> MetricsReport:
    """Compute the scenario-appropriate metric set from a wide trace.

    Without a scenario, the kind (floor / water / shoreline) is inferred
    from the mode column and foot loads, and the analysis window starts
    after the first fifth of the trace.
    """
    if result.data.size == 0:
        raise EmptyTraceError("trace has no rows")
    t = result.col("t")
    dt = float(t[1] - t[0]) if len(t) > 1 else 1e-3
    mode = result.col("mode")
    sw = _switch_index(mode)
    if scenario is not None:
        kind = scenario.terrain
        window_start = scenario.window_start
        name = scenario.name
    else:
        if sw is not None:
            kind = "shoreline"
        elif mode[-1] > 0.0 or np.all(result.col("gt_foot_fl_fx") == 0.0):
            kind = "water"
        else:
            kind = "floor"
        window_start = 0.2 * float(t[-1])
        name = "trace"
    w = t >= window_start
    if kind != "shoreline" and not w.any():
        raise _too_short(window_start, t[-1])
    report = MetricsReport(source=name)

    if kind == "floor":
        freq = measure_frequency(t[w], result.col("gt_q_ax1")[w])
        period = 1.0 / freq
        f0 = cpg.FREQ_WALK_HZ
        report.add("gait_freq", freq, f0 * (1 - FREQ_TOL), f0 * (1 + FREQ_TOL), "Hz")
        fx = {leg: result.col(f"gt_foot_{leg}_fx")[w] for leg in cpg.LEGS}
        for a, b in _DIAG_PAIRS:
            lag = circular_lag_cycles(fx[a], fx[b], period, dt)
            report.add(f"diag_lag_{a}_{b}", lag, -LAG_TOL_CYCLES, LAG_TOL_CYCLES, "cyc")
        for a, b in _IPSI_PAIRS:
            lag = circular_lag_cycles(fx[a], fx[b], period, dt) % 1.0
            report.add(f"ipsi_lag_{a}_{b}", lag,
                       0.5 - LAG_TOL_CYCLES, 0.5 + LAG_TOL_CYCLES, "cyc")
        for leg in cpg.LEGS:
            e = rmse(result.col(f"est_foot_{leg}_fx")[w], fx[leg])
            report.add(f"est_fx_rmse_{leg}", e, None, EST_FX_RMSE_MAX_N, "N")
        fin_max = max(
            float(np.abs(result.col(f"est_{nm}_force")[w]).max())
            for nm in plant.FIN_NAMES
        )
        report.add("est_fin_max_dry", fin_max, None, WALK_FIN_QUIET_N, "N")
        report.add("switched", float(mode.max() > 0.0), -0.5, 0.5, "")

    elif kind == "water":
        freq = measure_frequency(t[w], result.col("gt_q_ax1")[w])
        period = 1.0 / freq
        f0 = cpg.FREQ_SWIM_HZ
        report.add("gait_freq", freq, f0 * (1 - FREQ_TOL), f0 * (1 + FREQ_TOL), "Hz")
        amp = math.degrees(float(np.ptp(result.col("gt_q_ax4")[w])) / 2.0)
        report.add("axial_amp", amp, 28.0, 30.0, "deg")
        # spine wave: adjacent lags are small and wrap-free, so the
        # head-to-tail delay is their sum (a lag vs ax1 alone folds mod 1
        # once the accumulated delay passes a full cycle)
        adj = []
        prev = result.col("gt_q_ax1")[w]
        for k in range(2, cpg.N_AXIAL_JOINTS + 1):
            cur = result.col(f"gt_q_ax{k}")[w]
            adj.append(circular_lag_cycles(prev, cur, period, dt))
            prev = cur
        report.add("wave_monotone", float(min(adj) > 0.0), 0.5, 1.5, "")
        report.add("wave_total_lag", float(np.sum(adj)), 0.95, 1.05, "cyc")
        for fi, nm in enumerate(plant.FIN_NAMES):
            ax = result.col(f"gt_q_ax{plant.FIN_ANTERIOR_JOINT[fi] + 1}")[w]
            lag = circular_lag_cycles(ax, result.col(f"est_{nm}_force")[w],
                                      period, dt)
            report.add(f"fin_lag_{nm}", lag,
                       -FIN_LAG_TOL_CYCLES, FIN_LAG_TOL_CYCLES, "cyc")
        foot_max = max(
            float(np.abs(result.col(f"est_foot_{leg}_fx")).max()) for leg in cpg.LEGS
        )
        report.add("est_foot_max_wet", foot_max, None, SWIM_FOOT_QUIET_N, "N")
        if sw is not None:
            t_settle = t[sw] + 3.0 / f0
            late = t >= t_settle
            if late.any():
                amp_limb = max(
                    float(np.abs(result.col(f"gt_q_{leg}_swing")[late]).max())
                    for leg in cpg.LEGS
                )
                report.add("limb_amp_after_3cyc", amp_limb, None, 1e-3, "rad")

    else:  # shoreline
        report.add("switched", float(sw is not None), 0.5, 1.5, "")
        s = result.col("est_foot_sum")
        below = (s < cpg.FOOT_SUM_THRESHOLD_N) & (t >= cpg.SWITCH_HOLDOFF_S)
        if below.any() and sw is not None:
            i_cross = int(np.argmax(below))
            latency = t[sw] - t[i_cross]
            report.add("transition_latency", latency, 0.0, LATENCY_MAX_S, "s")
            pre = s[(t >= 0.5) & (t < t[i_cross])]
            if len(pre):
                report.add("foot_sum_min_before", float(pre.min()), unit="N")
        else:
            report.add("transition_latency", float("nan"), 0.0, LATENCY_MAX_S, "s")

    report.add("ring_rate", busring.ring_rate(len(plant.SENSOR_NAMES),
                                              busring.LineConfig()),
               RING_RATE_MIN_HZ, None, "Hz")
    return report


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_PLOT_W = 900
_PANEL_H = 200
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 34
_MAX_POINTS = 1500


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def default_plot_spec(columns) -> dict:
    """Panel layout covering flux, wrenches, joints, and fin forces."""
    panels = []
    raw_mods = sorted({c[4:-3] for c in columns if c.startswith("raw_")})
    if raw_mods:
        m = raw_mods[0]
        panels.append({
            "title": f"{m} flux, raw and filtered (mT)",
            "series": [f"raw_{m}_b{a}" for a in "xyz"]
            + [f"filt_{m}_b{a}" for a in "xyz"],
        })
    panels.append({
        "title": "foot normal force, truth vs estimate (N)",
        "series": [f"gt_foot_{leg}_fx" for leg in cpg.LEGS]
        + [f"est_foot_{leg}_fx" for leg in cpg.LEGS],
    })
    panels.append({
        "title": "axial joint targets (rad)",
        "series": ["gt_q_ax1", "gt_q_ax4", "gt_q_ax8"],
    })
    panels.append({
        "title": "tail fin force (N) vs anterior joint (rad)",
        "series": ["gt_q_ax8", "gt_fin_tail_force", "est_fin_tail_force"],
    })
    return {"panels": [p for p in panels
                       if all(s in columns for s in p["series"])]}


def render_svg(result: plant.ScenarioResult, spec: dict = None) -> str:
    """Render time-series panels to a standalone SVG string.

    Purely a function of the trace and the spec: no timestamps, fixed
    float formatting, so identical inputs give identical bytes.
    """
    if result.data.size == 0:
        raise EmptyTraceError("cannot plot an empty trace")
    if spec is None:
        spec = default_plot_spec(result.columns)
    panels = plant.from_doc(PlotSpec, spec, HarnessError).panels
    if not panels:
        raise HarnessError("plot spec has no panels")
    t = result.col("t")
    stride = max(1, len(t) // _MAX_POINTS)
    ts = t[::stride]
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    if not t_hi > t_lo:
        raise HarnessError("cannot plot a trace whose time does not advance")
    height = len(panels) * _PANEL_H
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
        f'height="{height}" viewBox="0 0 {_PLOT_W} {height}">',
        '<style>text{font-family:monospace;font-size:11px;fill:#333}'
        '.title{font-size:13px}</style>',
        f'<rect width="{_PLOT_W}" height="{height}" fill="white"/>',
    ]
    x0, x1 = _MARGIN_L, _PLOT_W - _MARGIN_R

    def px(v):
        return x0 + (v - t_lo) / (t_hi - t_lo) * (x1 - x0)

    for pi, panel in enumerate(panels):
        top = pi * _PANEL_H
        y0, y1 = top + _MARGIN_T, top + _PANEL_H - _MARGIN_B
        series = panel.series
        data = [result.col(s)[::stride] for s in series]
        v_lo = min(float(d.min()) for d in data)
        v_hi = max(float(d.max()) for d in data)
        if v_hi <= v_lo:
            v_hi = v_lo + 1.0
        pad = 0.05 * (v_hi - v_lo)
        v_lo, v_hi = v_lo - pad, v_hi + pad

        def py(v):
            return y1 - (v - v_lo) / (v_hi - v_lo) * (y1 - y0)

        out.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" '
                   f'height="{y1 - y0}" fill="none" stroke="#999"/>')
        out.append(f'<text class="title" x="{x0}" y="{top + 18}">'
                   f'{panel.title}</text>')
        for k in range(5):
            tv = t_lo + k * (t_hi - t_lo) / 4.0
            xp = _fmt(px(tv))
            out.append(f'<line x1="{xp}" y1="{y1}" x2="{xp}" y2="{y1 + 4}" '
                       'stroke="#999"/>')
            out.append(f'<text x="{xp}" y="{y1 + 16}" text-anchor="middle">'
                       f'{_fmt(tv)}</text>')
        for k in range(4):
            vv = v_lo + k * (v_hi - v_lo) / 3.0
            yp = _fmt(py(vv))
            out.append(f'<line x1="{x0 - 4}" y1="{yp}" x2="{x0}" y2="{yp}" '
                       'stroke="#999"/>')
            out.append(f'<text x="{x0 - 6}" y="{yp}" text-anchor="end" '
                       f'dominant-baseline="middle">{_fmt(vv)}</text>')
        for si, (sname, d) in enumerate(zip(series, data)):
            color = _PALETTE[si % len(_PALETTE)]
            pts = " ".join(f"{_fmt(px(tv))},{_fmt(py(dv))}"
                           for tv, dv in zip(ts, d))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1"/>')
            out.append(f'<text x="{x1 - 6}" y="{y0 + 12 + 11 * si}" '
                       f'text-anchor="end" fill="{color}">{sname}</text>')
        out.append(f'<text x="{(x0 + x1) // 2}" y="{y1 + 28}" '
                   'text-anchor="middle">t (s)</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _resolve_config(arg: str) -> str:
    """A filesystem path, or the name of a bundled config file."""
    if os.path.exists(arg):
        return arg
    import importlib.resources as res

    name = arg if arg.endswith(".json") else arg + ".json"
    ref = res.files("amphisense") / "scenarios" / name
    if ref.is_file():
        return str(ref)
    raise HarnessError(f"no such config file or bundled name: {arg!r}")


def _load_json(path: str):
    """Parse a JSON file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:     # also bad UTF-8, deep nesting
            raise HarnessError(f"{path}: malformed JSON: {e}") from e


@dataclass
class JigFile:
    """The calibrate command's config: the bench, the units and the bands."""

    kind: str = calibration.JigConfig.kind    # foot | flow
    n_units: int = 4
    noise_sigma: float = calibration.JigConfig.noise_sigma
    n_average: int = calibration.JigConfig.n_average
    lever: float | None = None        # None: the foot bench's JigConfig.lever
    seed: int = 0
    torque_band: tuple[float, float] | None = None    # [lo, hi] of the mean RMSEs
    force_band: tuple[float, float] | None = None
    rmse_max: float | None = None     # bound on each unit's RMSEs

    def __post_init__(self):
        plant.check_fields(self, HarnessError)
        if self.n_units < 1:
            raise HarnessError(f"n_units must be at least 1, got {self.n_units}")
        # an unknown kind raises CalibrationError here, before any output
        own = calibration.KINDS[self.kind].config_keys
        keys = set().union(*(k.config_keys for k in calibration.KINDS.values()))
        for name in sorted(keys - own):
            if getattr(self, name) is not None:
                raise HarnessError(f"{name} does not apply to {self.kind} sensors")


@dataclass
class LineFile:
    """The bus-bench command's config: line, fault rings and motor bus.
    Its ranges are busring's, checked before the first ring runs."""

    n_modules: int = 10
    duration_s: float = 2.0
    baud: int = busring.LineConfig.baud
    bits_per_byte: int = busring.LineConfig.bits_per_byte
    inter_frame_gap: float = busring.LineConfig.inter_frame_gap
    flip_rate: float = 0.001          # 0 runs no bit-flip ring
    kill_at: float | None = ...       # absent: half of duration_s; null: no kill ring
    expect_rate_hz: float = RING_RATE_MIN_HZ
    n_motors: int = 16
    t_write: float = 2e-6
    t_read: float = 0.3e-3
    seed: int = 5

    def __post_init__(self):
        plant.check_fields(self, HarnessError)
        if self.kill_at is ...:
            self.kill_at = self.duration_s / 2.0


@dataclass
class PlotPanel:
    """One panel of a plot spec: its title and the trace columns it draws."""

    title: str
    series: tuple[str, ...]

    def __post_init__(self):
        plant.check_fields(self, HarnessError)
        if not self.series:
            raise HarnessError(f"plot panel {self.title!r} has no series")


@dataclass
class PlotSpec:
    """The plot command's spec: its panels, top to bottom."""

    panels: tuple[dict, ...] = ()     # PlotPanel documents, parsed in place

    def __post_init__(self):
        plant.check_fields(self, HarnessError)
        self.panels = tuple(plant.from_doc(PlotPanel, p, HarnessError) for p in self.panels)


def _config(cls, arg, error=HarnessError, seed=None):
    """A command's config of class cls from a path or bundled name; a seed
    given (--seed) replaces the config's own."""
    cfg = plant.from_doc(cls, _load_json(_resolve_config(arg)), error)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _finish(report, out, name, *notes) -> int:
    """Write report to out/name, making --out if no output came before, and
    print its table, then each note; 0 iff every bounded metric passes."""
    os.makedirs(out, exist_ok=True)
    report.to_json(os.path.join(out, name))
    print(report.format_table())
    for note in notes:
        print(note)
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = _config(plant.Scenario, args.scenario, plant.PlantError, args.seed)
    # a floor or water run that ends before its analysis window fails
    # before it is simulated, leaving no trace behind
    t_end = (scenario.n_steps - 1) * scenario.dt    # run_scenario's last tick
    if scenario.terrain != "shoreline" and t_end < scenario.window_start:
        raise _too_short(scenario.window_start, t_end)
    os.makedirs(args.out, exist_ok=True)
    log.info("running scenario %s (%.1f s at %.0f Hz)", scenario.name,
             scenario.duration_s, 1.0 / scenario.dt)
    result = plant.run_scenario(scenario)
    trace_path = os.path.join(args.out, f"{scenario.name}_trace.csv")
    result.write_csv(trace_path)
    return _finish(analyze_trace(result, scenario), args.out,
                   f"{scenario.name}_metrics.json", f"trace: {trace_path}")


# Bytes calibrate holds a bench row: for each unit its flux, location, load
# and labels, kept until the fits (tracemalloc read 84 B foot, 60 B flow),
# and for each flux draw of the unit being drawn its three values
_UNIT_ROW_BYTES = 96
_DRAW_BYTES = 24


def cmd_calibrate(args) -> int:
    cfg = _config(JigFile, args.jig, seed=args.seed)
    lever = calibration.JigConfig.lever if cfg.lever is None else cfg.lever
    jig = calibration.JigConfig(kind=cfg.kind, lever=lever, noise_sigma=cfg.noise_sigma,
                                n_average=cfg.n_average)
    need = jig.rows * (cfg.n_units * _UNIT_ROW_BYTES + cfg.n_average * _DRAW_BYTES)
    if need > plant._MAX_BYTES:
        raise HarnessError(f"n_units {cfg.n_units} and n_average {cfg.n_average} ask for "
                           f"{need >> 20} MiB of {cfg.kind} bench rows; calibrate holds at "
                           f"most {plant._MAX_BYTES >> 20} MiB")
    os.makedirs(args.out, exist_ok=True)
    report = MetricsReport(source=f"calibrate[{cfg.kind}]")
    mods, rows = plant.KINDS[cfg.kind], calibration.KINDS[cfg.kind].report
    datasets = calibration.simulate_jigs(
        mods.transduce, mods.dipole, jig,
        [np.random.default_rng(cfg.seed + i) for i in range(cfg.n_units)])
    per_unit = [[] for _ in rows]
    for i, ds in enumerate(datasets):
        train, heldout = ds.train_eval_split()
        model = calibration.fit_poly(train)
        ev = calibration.evaluate_rmse(model, heldout)
        model.to_json(os.path.join(args.out, f"{cfg.kind}_{i:02d}_model.json"))
        for (name, outputs, unit, _), values in zip(rows, per_unit):
            values.append(float(np.mean([ev.rmse[o] for o in outputs])))
            report.add(f"unit{i:02d}_{name}_rmse", values[-1], None, cfg.rmse_max, unit)
    for (name, _, unit, band), values in zip(rows, per_unit):
        if band is not None:    # the units' mean, in its band
            report.add(f"mean_{name}_rmse", float(np.mean(values)),
                       *(getattr(cfg, band) or (None, None)), unit)
    return _finish(report, args.out, "calibration_report.json")


def _median(values) -> float:
    """np.median of a 1-D array without NaNs, bit for bit, from one sort: the
    middle value, or the mean of the middle two as np.mean takes it, its
    sum starting from +0.0 (so a middle -0.0 reads 0.0).  The first
    np.median call in a process imports numpy.ma, which costs more than
    the whole of a short bus-bench."""
    s = np.sort(values)
    h = len(s) // 2
    return float(s[h] + 0.0 if len(s) % 2 else (s[h - 1] + s[h] + 0.0) / 2.0)


def cmd_bus_bench(args) -> int:
    cfg = _config(LineFile, args.line, seed=args.seed)
    n, duration = cfg.n_modules, cfg.duration_s
    kill_mod = n // 2
    # busring refuses a bad line, fault plan or motor bus here, before any ring
    line = busring.LineConfig(baud=cfg.baud, bits_per_byte=cfg.bits_per_byte,
                              inter_frame_gap=cfg.inter_frame_gap)
    flips = busring.FaultPlan(flip_rate=cfg.flip_rate) if cfg.flip_rate > 0.0 else None
    kills = (None if cfg.kill_at is None
             else busring.FaultPlan(kills=((cfg.kill_at, kill_mod),)))
    budget = busring.motor_bus_budget(cfg.n_motors, cfg.t_write, cfg.t_read)
    report = MetricsReport(source=f"bus-bench[{n} modules]")

    clean = busring.simulate_ring(n, line, duration)
    rate = float(clean.frames_ok.min()) / duration
    report.add("per_module_rate", rate, cfg.expect_rate_hz, None, "Hz")

    if flips is not None:
        faulted = busring.simulate_ring(n, line, duration, faults=flips,
                                        rng=np.random.default_rng(cfg.seed))
        detected = (faulted.corrupt_detected / faulted.corrupt_injected
                    if faulted.corrupt_injected else 1.0)
        report.add("corruption_detect_frac", detected, 1.0, 1.0, "")

    if kills is not None:
        killed = busring.simulate_ring(n, line, duration, faults=kills)
        # steady post-kill round period exceeds nominal by exactly one
        # timeout's worth iff the heal costs one timeout per round
        nominal = busring.ring_round_period(n, line)
        excess = line.timeout - line.frame_time - line.inter_frame_gap
        ref = (kill_mod + 3) % n
        if ref == kill_mod:     # a 3-module ring: three hops return to the dead module
            ref = (ref + 1) % n
        t_ref = killed.frame_ends[killed.frame_modules == ref]
        periods = np.diff(t_ref)
        post = periods[t_ref[1:] > cfg.kill_at + 2.0 * (nominal + excess)]
        if len(post):
            per_round = (_median(post) - nominal) / excess
        else:
            per_round = float("nan")
        report.add("timeouts_per_round", per_round, 0.999, 1.001, "")
        alive = float(t_ref.size > 0 and t_ref.max() > duration - 2.0 * (nominal + excess))
        report.add("ring_alive_after_kill", alive, 0.5, 1.5, "")

    report.add("motor_loop_budget", budget, 100.0, None, "Hz")
    return _finish(report, args.out, "bus_bench.json")


def cmd_analyze(args) -> int:
    result = plant.ScenarioResult.read_csv(args.trace)
    scenario = None
    if args.scenario is not None:
        scenario = _config(plant.Scenario, args.scenario, plant.PlantError)
    stem = os.path.splitext(os.path.basename(args.trace))[0]
    return _finish(analyze_trace(result, scenario), args.out, f"{stem}_metrics.json")


def cmd_plot(args) -> int:
    result = plant.ScenarioResult.read_csv(args.trace)
    spec = None
    if args.plotspec is not None:
        spec = _load_json(_resolve_config(args.plotspec))
    svg = render_svg(result, spec)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.trace))[0]
    out_path = os.path.join(args.out, f"{stem}.svg")
    with open(out_path, "w") as fh:
        fh.write(svg)
    print(f"plot: {out_path}")
    return 0


def _seed_arg(text: str) -> int:
    """A --seed value; numpy's generators take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Raises HarnessError for its and its subcommands' parse errors."""

    def error(self, message):
        raise HarnessError(message)


def main(argv=None) -> int:
    ap = _Parser(prog="amphisense",
                 description="scenario runner and analysis tools for the sensing stack")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=_seed_arg, default=None,
                    help="override the config seed")
    ap.add_argument("--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("calibrate", help="run bench jigs and fit models")
    p.add_argument("jig")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bus-bench", help="ring rates and fault statistics")
    p.add_argument("line")
    p.set_defaults(func=cmd_bus_bench)

    p = sub.add_parser("analyze", help="recompute metrics from a trace CSV")
    p.add_argument("trace")
    p.add_argument("--scenario", default=None,
                   help="scenario JSON the trace came from")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plot", help="render trace panels to SVG")
    p.add_argument("trace")
    p.add_argument("plotspec", nargs="?", default=None)
    p.set_defaults(func=cmd_plot)

    try:
        args = ap.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except (HarnessError, plant.PlantError, calibration.CalibrationError,
            busring.BusError, magnetics.SensorModelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:    # a config too large to allocate
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
