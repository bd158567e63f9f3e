"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json

JOB.json names the workload, the generated config file, the output
directory for the CLI, the mode ("full" runs the workload, "setup" stops at
the first simulated step) and whether to trace.  The amphisense package is
found through PYTHONPATH, which the parent points at the checkout's `src`.

Timestamps are `time.monotonic()`, which is one clock for every process on
the host, so the parent subtracts its own spawn time from them.  Everything
after `t_end` (digests, error figures) is the benchmark's own checking and
is not part of the measured run.
"""

import hashlib
import json
import resource
import sys
import time
import traceback

from tracing import Tracer

TRACED_MODULES = ("magnetics", "calibration", "cpg", "busring", "plant", "harness")


class _SetupDone(Exception):
    """Raised at the first simulated step of a setup-only repetition."""


def _hook_first_call(owner, attr, stamps, stop):
    """Stamp the first call of owner.attr, then put the original back."""
    inner = getattr(owner, attr)

    def first_call(*args, **kwargs):
        stamps["t_first_step"] = time.monotonic()
        setattr(owner, attr, inner)
        if stop:
            raise _SetupDone()
        return inner(*args, **kwargs)

    setattr(owner, attr, first_call)


def _capture_returns(owner, attr, sink):
    inner = getattr(owner, attr)

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        sink.append(out)
        return out

    setattr(owner, attr, capture)


def _read_csv(path):
    import numpy as np

    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    columns = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return raw, columns, data


def _verdicts(report_path):
    """{metric: [value, verdict]} from a MetricsReport the CLI wrote."""
    with open(report_path) as fh:
        report = json.load(fh)
    return {m["name"]: [m["value"], m["verdict"]] for m in report["metrics"]}


def _rmse(a, b):
    import numpy as np

    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _scenario_checks(columns, data, fin_n_per_rad, out):
    """Estimate errors against ground truth, from the trace columns.

    A fin loaded past its end stop parks the magnet there, so the sensor
    cannot report more than the stop force.  `est_fin_in_range_rmse_n`
    compares the estimate with the force the fin angle stands for
    (angle * k_torsion / lever), which leaves out that saturation.
    """
    import numpy as np

    def col(name):
        return data[:, columns.index(name)]

    est = [c for c in columns if c.startswith("est_")]
    out["est_finite"] = bool(np.all(np.isfinite(data[:, [columns.index(c) for c in est]])))
    fins = [c[len("gt_"):-len("_force")] for c in columns
            if c.startswith("gt_fin") and c.endswith("_force")]
    est_fin = np.stack([col(f"est_{f}_force") for f in fins])
    out["est_fin_rmse_n"] = _rmse(est_fin, np.stack([col(f"gt_{f}_force") for f in fins]))
    out["est_fin_in_range_rmse_n"] = _rmse(
        est_fin, fin_n_per_rad * np.stack([col(f"gt_{f}_angle") for f in fins]))
    mode = col("mode")
    pre = mode == 0.0
    if pre.any():
        legs = ("fl", "fr", "hl", "hr")
        out["est_foot_fx_rmse_n"] = _rmse(
            np.stack([col(f"est_foot_{g}_fx")[pre] for g in legs]),
            np.stack([col(f"gt_foot_{g}_fx")[pre] for g in legs]),
        )
    sw = np.nonzero(mode > 0.0)[0]
    out["switch_t"] = float(col("t")[sw[0]]) if len(sw) and mode[0] == 0.0 else None


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    res = {"ok": False}
    stamps = {}
    try:
        t0 = time.perf_counter()
        from amphisense import _accel, busring, cpg, harness, plant
        res["import_s"] = time.perf_counter() - t0

        tracer = None
        if job["trace"]:
            tracer = Tracer()
            for name in TRACED_MODULES:
                tracer.instrument(sys.modules[f"amphisense.{name}"])

        workload = job["workload"]
        setup_only = job["mode"] == "setup"
        rings = []
        if workload == "bus_faults":
            _capture_returns(busring, "simulate_ring", rings)
            _hook_first_call(busring, "simulate_ring", stamps, setup_only)
        else:
            _hook_first_call(cpg, "step_network", stamps, setup_only)

        try:
            if workload == "swim":
                result = plant.run_scenario(plant.Scenario.from_json(job["config"]))
                res["exit_code"] = 0
            elif workload == "shoreline":
                res["exit_code"] = harness.main(["--out", job["out_dir"], "run", job["config"]])
            else:
                res["exit_code"] = harness.main(
                    ["--out", job["out_dir"], "bus-bench", job["config"]])
        except _SetupDone:
            pass
        stamps["t_end"] = time.monotonic()
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            res["trace"] = tracer.per_function()
            res["trace_edges"] = tracer.edge_list()
        res["use_numba"] = bool(_accel.USE_NUMBA)
        res["numpy"] = sys.modules["numpy"].__version__
        res["scipy"] = sys.modules["scipy"].__version__ if "scipy" in sys.modules else None

        if not setup_only:
            checks = res["checks"] = {}
            fin = plant.FlowFinModel()
            fin_n_per_rad = fin.k_torsion / fin.lever_mm
            if workload == "swim":
                digest = hashlib.sha256(",".join(result.columns).encode())
                digest.update(result.data.tobytes())
                res["digest"] = digest.hexdigest()
                _scenario_checks(result.columns, result.data, fin_n_per_rad, checks)
                checks["drive_is_swim"] = result.scenario.drive == cpg.D_SWIM
            elif workload == "shoreline":
                name = job["scenario_name"]
                raw, columns, data = _read_csv(f"{job['out_dir']}/{name}_trace.csv")
                res["digest"] = hashlib.sha256(raw).hexdigest()
                _scenario_checks(columns, data, fin_n_per_rad, checks)
                checks["verdicts"] = _verdicts(f"{job['out_dir']}/{name}_metrics.json")
            else:
                digest = hashlib.sha256()
                for st in rings:
                    digest.update(st.frames_sent.tobytes() + st.frames_ok.tobytes())
                    digest.update(repr((st.corrupt_injected, st.corrupt_detected,
                                        st.timeout_recoveries, st.collisions)).encode())
                    for t, i, frame, ok in st.frame_log or ():
                        digest.update(repr((t, i, ok)).encode() + frame)
                res["digest"] = digest.hexdigest()
                checks["verdicts"] = _verdicts(f"{job['out_dir']}/bus_bench.json")
            checks["frames_sent"] = int(sum(int(st.frames_sent.sum()) for st in rings))
            checks["frames_ok"] = int(sum(int(st.frames_ok.sum()) for st in rings))
            checks["timeout_recoveries"] = int(sum(st.timeout_recoveries for st in rings))
        res["ok"] = True
    except Exception:
        res["error"] = traceback.format_exc()
    res.update(stamps)
    with open(result_path, "w") as fh:
        json.dump(res, fh)
    return 0 if res["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
