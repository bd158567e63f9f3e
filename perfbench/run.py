"""amphisense benchmark: one workload, one seed, fresh-process repetitions.

    python3 perfbench/run.py --workload swim --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.

Every repetition is a fresh interpreter (perfbench/child.py) with BLAS
pinned to one thread, so each pays the package import and the startup
calibration exactly as a CLI user does.  Repetitions run one at a time
until `--seconds` is spent (at least two full runs; see MIN_REPS).
Repetitions that no longer fit are setup-only, for more `setup_s` samples.

--trace 0 prints the end-to-end metrics:
  rtf          simulated seconds per host second of a whole run, from
               process spawn to the return of the public call
  setup_s      host seconds from process spawn to the first simulated step
  peak_rss_mb  peak resident set of the run process
--trace 1 runs one traced repetition (every public function of the six
modules wrapped, see tracing.py) next to untraced ones and prints the
per-layer metrics in PER_LAYER, with the tracing overhead.

Every full repetition passes its workload's correctness gate, and all
repetitions of one invocation produce the same trace digest.  The last line
of standard output is the JSON result; the exit code is 0 only when every
repetition passed.  A manifest with the generated inputs, versions, kernel
build and every repetition's raw figures goes to .perfbench_out/.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "amphisense")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("swim", "shoreline", "bus_faults")

# simulated length of one full repetition of each workload
SWIM_DURATION_S = 1.2
# x_start 0.2 m puts the supervisor's switch between 0.44 s and 1.38 s on
# seeds 0-22 (the bundled -0.35 m switches at 7.9 s)
SHORE_X_START_M = 0.2
SHORE_DURATION_S = 1.8
BUS_DURATION_S = 4.0
D_SWIM = 5.0   # amphisense.cpg.D_SWIM; the child checks the two agree

# correctness gate on the swim fin estimates, against the force each fin's
# angle stands for.  The raw error against the plate load is no gate: on
# some seeds the start-up transient drives the tail fin past its end stop
# (5 N against a 0.65 N stop), which no sensor reading can follow.
FIN_RMSE_GATE_N = 0.25

MIN_REPS = {0: ("full", "full"), 1: ("traced", "full")}
TIME_LIMIT_S = 170.0   # hard cap on one invocation, children included

END_TO_END = {"rtf": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}

_TRACED_FUNCS = (
    ("calibration.simulate_jig", ("calls", "self_s")),
    ("calibration.fit_poly", ("calls", "self_s")),
    ("calibration.apply_poly", ("calls", "self_s")),
    ("magnetics.invert_flow_flux", ("calls", "self_s")),
    ("magnetics.invert_foot_flux", ("calls", "self_s")),
    ("magnetics.lowpass_step", ("calls", "self_s")),
    ("magnetics.flow_flux", ("calls", "self_s")),
    ("magnetics.dipole_flux_radial", ("calls", "self_s")),
    ("cpg.step_network", ("calls", "self_s")),
    ("cpg.joint_targets", ("calls", "self_s")),
    ("cpg.oscillator_output", ("calls", "self_s")),
    ("cpg.transition_controller", ("calls",)),
    ("plant.run_scenario", ("self_s",)),
    ("plant.RobotKinematics.forward", ("calls", "self_s")),
    ("plant.contact_forces", ("self_s",)),
    ("plant.fin_drag_force", ("self_s",)),
    ("plant.foot_deflection_p", ("self_s",)),
    ("plant.ScenarioResult.write_csv", ("self_s",)),
    ("busring.encode_frame", ("calls", "self_s")),
    ("busring.decode_frame", ("calls", "self_s")),
    ("busring.simulate_ring", ("self_s",)),
    ("harness.analyze_trace", ("self_s",)),
)
# fin inversions made by the calibration flow jigs during setup
_JIG_INVERT = ("calibration.simulate_jig", "magnetics.invert_flow_flux")

PER_LAYER = {"setup.import_s": "s"}
for _fn, _kinds in _TRACED_FUNCS:
    for _k in _kinds:
        PER_LAYER[f"{_fn}.{_k}"] = "count" if _k == "calls" else "s"
PER_LAYER.update({
    "calibration.simulate_jig.invert_flow_flux.calls": "count",
    "calibration.simulate_jig.invert_flow_flux.self_s": "s",
    "busring.frames_sent": "count",
    "busring.frames_ok_ratio": "ratio",
    "busring.timeout_recoveries": "count",
    "harness.transition_latency_s": "s",
    "plant.est_fin_rmse_n": "N",
    "plant.est_fin_in_range_rmse_n": "N",
    "plant.est_foot_fx_rmse_n": "N",
    "trace.rtf": "s/s",
    "trace.overhead_frac": "frac",
})


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _bundled(name):
    with open(os.path.join(PKG, "scenarios", name + ".json")) as fh:
        return json.load(fh)


def make_workload(workload, seed):
    """The config document the program receives, and its simulated seconds."""
    if workload == "swim":
        doc = dict(_bundled("swim_pool"), name="bench_swim", drive=D_SWIM,
                   drive_switch_t=None, duration_s=SWIM_DURATION_S, seed=seed)
        return doc, doc["duration_s"]
    if workload == "shoreline":
        doc = dict(_bundled("shoreline_transition"), name="bench_shoreline",
                   x_start=SHORE_X_START_M, duration_s=SHORE_DURATION_S, seed=seed)
        return doc, doc["duration_s"]
    if workload == "bus_faults":
        doc = dict(_bundled("line_default"), n_modules=10, flip_rate=1e-3,
                   duration_s=BUS_DURATION_S, kill_at=BUS_DURATION_S / 2.0, seed=seed)
        # bus-bench simulates three rings of duration_s: clean, bit flips, one kill
        return doc, 3 * doc["duration_s"]
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def gate(workload, res):
    """Reasons a full repetition fails its workload's gate (empty = pass)."""
    checks = res.get("checks", {})
    bad = []
    if res.get("exit_code") != 0:
        bad.append(f"exit code {res.get('exit_code')}")
    failing = [k for k, (_, v) in checks.get("verdicts", {}).items() if v == "FAIL"]
    if failing:
        bad.append(f"failed verdicts {failing}")
    if workload in ("swim", "shoreline") and not checks.get("est_finite"):
        bad.append("non-finite estimate")
    if workload == "swim":
        if not checks.get("drive_is_swim"):
            bad.append("swim drive differs from cpg.D_SWIM")
        err = checks.get("est_fin_in_range_rmse_n", float("inf"))
        if not err <= FIN_RMSE_GATE_N:
            bad.append(f"est_fin_in_range_rmse_n {err} > {FIN_RMSE_GATE_N}")
    if workload == "shoreline":
        verdicts = checks.get("verdicts", {})
        for name in ("switched", "transition_latency"):
            if verdicts.get(name, [None, None])[1] != "pass":
                bad.append(f"{name} not passing")
        if checks.get("switch_t") is None:
            bad.append("no gait switch inside the run")
    if workload == "bus_faults":
        verdicts = checks.get("verdicts", {})
        for name in ("corruption_detect_frac", "timeouts_per_round", "ring_alive_after_kill"):
            if verdicts.get(name, [None, None])[1] != "pass":
                bad.append(f"{name} not passing")
    return bad


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_rep(kind, workload, config_path, scenario_name, work, index, env, timeout):
    """One fresh-process repetition; returns the child's result with timings."""
    rep_dir = os.path.join(work, f"rep{index:02d}")
    os.makedirs(rep_dir)
    job = {
        "workload": workload,
        "config": config_path,
        "scenario_name": scenario_name,
        "out_dir": os.path.join(rep_dir, "out"),
        "mode": "setup" if kind == "setup" else "full",
        "trace": kind == "traced",
    }
    job_path = os.path.join(rep_dir, "job.json")
    res_path = os.path.join(rep_dir, "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    with open(os.path.join(rep_dir, "child.log"), "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 job_path, res_path],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=rep_dir)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    t_exit = time.monotonic()
    res = {}
    if os.path.exists(res_path):
        with open(res_path) as fh:
            res = json.load(fh)
    res.update(kind=kind, process_exit=code, wall_s=t_exit - t_spawn)
    for stamp, key in (("t_first_step", "setup_s"), ("t_end", "host_s")):
        if stamp in res:
            res[key] = res.pop(stamp) - t_spawn
    if code is None:
        res["failure"] = [f"timed out after {timeout:.0f} s"]
    elif code != 0 or not res.get("ok"):
        res["failure"] = [f"child exited {code}: {res.get('error', '')}".strip()]
    elif "setup_s" not in res:
        res["failure"] = ["never reached the first simulated step"]
    elif kind != "setup":
        res["failure"] = gate(workload, res)
    if not res.get("failure"):
        res.pop("failure", None)
    return res


def run_reps(trace, workload, config_path, scenario_name, work, seconds, t_start):
    """Minimum repetitions first, then whatever still fits in `seconds`."""
    env = _child_env()
    queue = list(MIN_REPS[trace])
    longest = {}
    reps = []
    while True:
        elapsed = time.monotonic() - t_start
        if queue:
            kind = queue.pop(0)
        else:
            left = seconds - elapsed
            if longest.get("full", 1e9) <= left:
                kind = "full"
            elif trace == 0 and longest.get("setup", 1e9) <= left:
                kind = "setup"
            else:
                break
        timeout = TIME_LIMIT_S - elapsed
        if timeout <= 1.0:
            raise BenchError("out of time before the minimum repetitions finished")
        res = run_rep(kind, workload, config_path, scenario_name, work, len(reps), env, timeout)
        reps.append(res)
        longest[kind] = max(longest.get(kind, 0.0), res["wall_s"])
        if "setup_s" in res:
            # a full repetition also shows how long a setup-only one takes
            longest["setup"] = max(longest.get("setup", 0.0), res["setup_s"] + 0.5)
        if res.get("failure") and res["process_exit"] is None:
            break
    return reps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(reps, sim_s):
    full = [r for r in reps if r["kind"] == "full" and "host_s" in r]
    return {
        "rtf": statistics.median(sim_s / r["host_s"] for r in full),
        "setup_s": statistics.median(r["setup_s"] for r in reps if "setup_s" in r),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }


def per_layer(reps, sim_s):
    traced = next(r for r in reps if r["kind"] == "traced")
    full = [r for r in reps if r["kind"] == "full"]
    funcs = traced["trace"]
    out = {"setup.import_s": statistics.median(r["import_s"] for r in reps)}
    for fn, kinds in _TRACED_FUNCS:
        acc = funcs.get(fn, {"calls": 0, "self_s": 0.0})
        for k in kinds:
            out[f"{fn}.{k}"] = acc[k]
    nested = [e for e in traced["trace_edges"] if (e["caller"], e["callee"]) == _JIG_INVERT]
    out["calibration.simulate_jig.invert_flow_flux.calls"] = sum(e["calls"] for e in nested)
    out["calibration.simulate_jig.invert_flow_flux.self_s"] = sum(e["self_s"] for e in nested)
    checks = traced["checks"]
    sent = checks["frames_sent"]
    out["busring.frames_sent"] = sent
    out["busring.frames_ok_ratio"] = checks["frames_ok"] / sent if sent else 0.0
    out["busring.timeout_recoveries"] = checks["timeout_recoveries"]
    latency = checks.get("verdicts", {}).get("transition_latency", [0.0])[0]
    out["harness.transition_latency_s"] = latency
    out["plant.est_fin_rmse_n"] = checks.get("est_fin_rmse_n", 0.0)
    out["plant.est_fin_in_range_rmse_n"] = checks.get("est_fin_in_range_rmse_n", 0.0)
    out["plant.est_foot_fx_rmse_n"] = checks.get("est_foot_fx_rmse_n", 0.0)
    untraced = statistics.median(sim_s / r["host_s"] for r in full)
    out["trace.rtf"] = sim_s / traced["host_s"]
    out["trace.overhead_frac"] = untraced / out["trace.rtf"] - 1.0
    return out


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def manifest(args, doc, reps):
    first = next((r for r in reps if "numpy" in r), {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "document": doc,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "use_numba": first.get("use_numba"),
        "nproc": os.cpu_count(),
        "blas_threads": {var: 1 for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    # turn a termination request into SystemExit, so a running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(PKG, "harness.py")):
        print(f"error: no amphisense sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # byte-compile once, so no repetition pays the compile a first import would
    compileall.compile_dir(PKG, quiet=1)

    doc, sim_s = make_workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    config_path = os.path.join(work, f"{args.workload}.json")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=1)

    try:
        reps = run_reps(args.trace, args.workload, config_path, doc.get("name"), work,
                        args.seconds, t_start)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in reps if r.get("failure")]
    digests = {r["digest"] for r in reps if "digest" in r}
    if len(digests) > 1:
        print(f"error: repetitions disagree on the trace digest: {sorted(digests)}",
              file=sys.stderr)
    correct = not failed and len(digests) == 1

    for i, r in enumerate(reps):
        print(f"rep {i:2d} {r['kind']:<6} wall {r['wall_s']:7.3f} s  "
              f"setup {r.get('setup_s', float('nan')):6.3f} s  "
              f"host {r.get('host_s', float('nan')):7.3f} s  "
              f"rss {r.get('peak_rss_mb', float('nan')):6.1f} MB  "
              f"{'FAIL ' + '; '.join(r['failure']) if r.get('failure') else 'ok'}")

    metrics = {}
    if correct:
        if args.trace:
            values, units = per_layer(reps, sim_s), PER_LAYER
        else:
            values, units = end_to_end(reps, sim_s), END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for k, m in metrics.items():
            print(f"{k:<52} {m['value']:14.6g} {m['unit']}")
        print(f"digest {digests.pop()}")

    record = {"manifest": manifest(args, doc, reps), "metrics": metrics,
              "repetitions": [{k: v for k, v in r.items() if k != "trace_edges"}
                              for r in reps]}
    traced = next((r for r in reps if r["kind"] == "traced" and "trace_edges" in r), None)
    if traced is not None:
        record["trace_edges"] = traced["trace_edges"]
    record_path = os.path.join(OUT, f"{tag}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    m = record["manifest"]
    print(f"build: python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"USE_NUMBA {m['use_numba']}, nproc {m['nproc']}, BLAS threads 1, "
          f"commit {m['git_commit']}")
    print(f"manifest and raw figures: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
