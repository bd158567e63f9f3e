"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads swim --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 --trace 1

Runs `perfbench/run.py` once per workload and seed, one at a time, prints
every metric by name with its unit, and then, per workload and metric, the
median and the quartile spread (Q3 - Q1) / median as computed by
`statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.  Exits
non-zero if any run fails or if BENCHMARK.json lists other metrics than
run.py reports.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")


def check_declared(spec):
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared_e2e != bench.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if declared_layer != bench.PER_LAYER:
        problems.append("per_layer metrics differ from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    return problems


def main(argv=None):
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = check_declared(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or last is None or not last["correct"]:
                problems.append(f"{workload} seed {seed}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            results.setdefault(workload, []).append(last["metrics"])
            shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                              for k, m in last["metrics"].items()
                              if args.trace == 0 or k.startswith("trace."))
            print(f"{workload:<11} seed {seed:3d}  {shown}", flush=True)

    summary = {}
    for workload, runs in results.items():
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            spread = None
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            summary.setdefault(workload, {})[name] = {
                "median": med, "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = ""
            if spread is not None and bound is not None and spread > bound / 3.0:
                flag = "  > bound/3"
            print(f"{workload:<11} {name:<48} median {med:12.6g} "
                  f"{runs[0][name]['unit']:<5} spread "
                  f"{'-' if spread is None else f'{spread:.4f}'}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
    os.makedirs(bench.OUT, exist_ok=True)
    path = os.path.join(bench.OUT, f"spread-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"seeds": args.seeds, "seconds": spec["run_seconds"], "summary": summary}, fh,
                  indent=1)
    print(f"summary: {os.path.relpath(path, bench.ROOT)}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
