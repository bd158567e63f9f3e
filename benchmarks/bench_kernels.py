"""Kernel timings: the best of N runs of each hot kernel on fixed inputs.

Usage:
    python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import math
import sys
import time

import numpy as np


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_suite(repeat):
    from amphisense import _kernels, busring, calibration, cpg, plant

    rng = np.random.default_rng(0)
    results = {}

    # streaming low-pass over a long 3-axis flux record
    x = rng.normal(size=(200_000, 3))
    alpha = 1e-3 / (1.0 / (2.0 * math.pi * 3.6) + 1e-3)
    results["lowpass_scan_200kx3"] = best_of(lambda: _kernels.lowpass_scan(x, alpha), repeat)

    # fin inversion over a noisy 10k-sample stream
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
    results["flow_invert_batch_10k"] = best_of(
        lambda: _kernels.flow_invert_batch(B, pz, n_t, guess, 0.05), repeat
    )

    # the ten calibration benches of one scenario seed (four foot units, six
    # fin units), as run_scenario runs them before its first tick
    results["fit_sensor_models"] = best_of(
        lambda: plant._fit_sensor_models(plant.Scenario(seed=1)), repeat)

    # the run's fin inversion on a 1.2 s swim: six filtered fin streams of
    # 922 samples each, in one call and in six calls
    fin = plant.FlowFinModel()
    rest = fin.pose_for_force(0.0)
    streams = []
    for k in range(6):
        angle = fin.angle_for_force(0.5 * np.sin(2.0 * np.pi * 0.78 * 1.3e-3 * np.arange(922)
                                                   + k))
        streams.append(_kernels.flow_flux_batch(fin.magnet_coords(angle), fin.d_z0_mm, fin.n_t)
                       + rng.normal(scale=0.003, size=(922, 3)))
    invert = lambda b: calibration.flux_features("flow", b, fin.dipole_params, rest, 0.01)
    B6 = np.concatenate(streams)
    results["host_fin_inversion_one_call"] = best_of(lambda: invert(B6), repeat)
    results["host_fin_inversion_six_calls"] = best_of(
        lambda: [invert(b) for b in streams], repeat)

    # the oscillator network over the 88-edge gait graph, 10k RK4 steps of
    # one 32-unit state and of a batch of 20 stepped together, in a loop
    # over cpg_step (the names keep those of the former rollout kernel)
    params, graph, _ = cpg.build_gait_network()
    omega, R = params.intrinsic(2.0)
    phis, rs = np.stack([cpg.initial_state(params, 2.0, rng=np.random.default_rng(s))
                         for s in range(3, 23)], axis=1)

    def steps(phi, r):
        for _ in range(10_000):
            phi, r = _kernels.cpg_step(phi, r, omega, graph.arrays, params.a, R, 1e-3)

    for name, phi, r in (("cpg_rollout_32x10k", phis[0], rs[0]),
                         ("cpg_rollout_20x32x10k", phis, rs)):
        results[name] = best_of(lambda: steps(phi, r), repeat)

    # the three rings of the bus bench, 10 modules over 4 s of bus time
    # (about 30k frames each): clean, with bit flips, and one module killed
    # at 2 s with the frame log kept
    line = busring.LineConfig()
    results["simulate_ring_10x4s"] = best_of(lambda: busring.simulate_ring(10, line, 4.0), repeat)
    flips = busring.FaultPlan(flip_rate=1e-3)
    results["simulate_ring_flip_10x4s"] = best_of(
        lambda: busring.simulate_ring(10, line, 4.0, faults=flips,
                                      rng=np.random.default_rng(1)), repeat)
    kill = busring.FaultPlan(kills=((2.0, 5),))
    results["simulate_ring_kill_log_10x4s"] = best_of(
        lambda: busring.simulate_ring(10, line, 4.0, faults=kill, record_frames=True), repeat)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"{'kernel':<30}{'best':>12}")
    for name, seconds in run_suite(args.repeat).items():
        print(f"{name:<30}{seconds:>11.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
