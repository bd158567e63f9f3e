"""Kernel timings: numba kernel builds vs the numpy fallbacks.

The active build is frozen at import time by AMPHISENSE_NUMBA, so the two
paths cannot run in one interpreter.  When the active build is numba, this
script times it, re-executes itself with AMPHISENSE_NUMBA=0 in a child
process, and prints both columns side by side with the speedup and the
max disagreement between the paths on identical inputs.  Without numba
there is nothing to compare against, so it prints one column, labelled
with the build it timed.

Usage:
    python3 benchmarks/bench_kernels.py [--repeat N] [--json]
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def run_suite(repeat):
    from amphisense import _accel, _kernels, cpg

    rng = np.random.default_rng(0)
    results = {"build": "numba" if _accel.USE_NUMBA else "numpy"}

    # streaming low-pass over a long 3-axis flux record
    x = rng.normal(size=(200_000, 3))
    alpha = 1e-3 / (1.0 / (2.0 * math.pi * 3.6) + 1e-3)
    _kernels.lowpass_scan(x[:10], alpha)  # warm the jit
    dt, y = best_of(lambda: _kernels.lowpass_scan(x, alpha), repeat)
    results["lowpass_scan_200kx3"] = {"s": dt, "digest": float(y.sum())}

    # fin inversion over a 10k-sample stream (warm-start continuation)
    n_t, pz, rho, alpha0 = 120.0, 4.0, 3.0, math.radians(20.0)
    theta = math.radians(35.0) * np.sin(
        2.0 * np.pi * 0.78 * np.arange(10_000) * 1e-3
    )
    Q = np.column_stack(
        [rho * np.cos(theta), rho * np.sin(theta), np.sin(alpha0 + theta)]
    )
    B = _kernels.flow_flux_batch(Q, pz, n_t)
    B += rng.normal(scale=0.01, size=B.shape)
    guess = np.array([rho, 0.0, math.sin(alpha0)])
    _kernels.flow_newton_batch(B[:5], pz, n_t, guess, 0.75, 1e-10, 0.05, 50)
    dt, (sols, oks) = best_of(
        lambda: _kernels.flow_newton_batch(B, pz, n_t, guess, 0.75, 1e-10,
                                           0.05, 50),
        repeat,
    )
    results["flow_newton_batch_10k"] = {
        "s": dt, "digest": float(sols.sum()), "converged": int(oks.sum()),
    }

    # oscillator network rollout, 32 units x 10k RK4 steps
    params, graph, _ = cpg.build_gait_network()
    state = cpg.initial_state(params, 2.0, rng=np.random.default_rng(3))
    omega, R = params.intrinsic(2.0)
    W, Bias = graph.dense()
    args = (state.phi, state.r, omega, W, Bias, params.a, R, 1e-3, 10_000)
    _kernels.cpg_rollout(*args[:-1], 5)
    dt, (phis, rs) = best_of(lambda: _kernels.cpg_rollout(*args), repeat)
    results["cpg_rollout_32x10k"] = {
        "s": dt, "digest": float(phis[-1].sum() + rs[-1].sum()),
    }
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true",
                    help="print raw timings for this build only")
    args = ap.parse_args()

    mine = run_suite(args.repeat)
    if args.json:
        print(json.dumps(mine))
        return 0
    names = [k for k in mine if k != "build"]
    if mine["build"] != "numba":
        print(f"{'kernel':<26}{mine['build']:>12}")
        for name in names:
            print(f"{name:<26}{mine[name]['s']:>11.4f}s")
        return 0

    env = dict(os.environ, AMPHISENSE_NUMBA="0")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--repeat", str(args.repeat), "--json"],
        env=env, capture_output=True, text=True, check=True,
    )
    other = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'kernel':<26}{mine['build']:>12}{other['build']:>12}"
          f"{'speedup':>10}{'|digest diff|':>16}")
    for name in names:
        a, b = mine[name], other[name]
        diff = abs(a["digest"] - b["digest"])
        print(f"{name:<26}{a['s']:>11.4f}s{b['s']:>11.4f}s"
              f"{b['s'] / a['s']:>9.1f}x{diff:>16.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
