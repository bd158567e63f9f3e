"""Alternating perfbench pairs of two revisions, written as one BENCH file.

    python3 tools/bench_pair.py PARENT CHANGE --workload bus_faults --pairs 10 \\
        --seed 211 --out BENCH_21.json

Run from the root of a git checkout; PARENT and CHANGE are any revisions git
names (`git stash create` names an uncommitted tree).  Each revision is
exported with `git archive` into one of two sibling directories of equal
path length, WORK/a and WORK/b, and byte-compiled with `python -m compileall
-q src`.  Pair j of a workload runs perfbench/run.py, unchanged, in both
trees on seed S + j, alternating which side goes first.  For the second half
of the pairs the two revisions swap directories, since the directory alone
can move a metric by several per cent.  Every invocation runs for
BENCHMARK.json's `run_seconds`.

The BENCH file holds every pair's end-to-end metrics, digest and counts,
and per workload the quartiles of each metric on each side, the pairs
the change won (ties count for neither side) and whether the change's
median is worse than the parent's by at most the metric's bound in
BENCHMARK.json, a fraction of the parent's median.  An invocation that
exits non-zero or prints no passing result counts at least one failed
repetition, and each side's invocations without metrics are counted, since
the quartiles leave them out.  `--workload` may be given more than once;
each workload gets `--pairs` pairs.  `--claim W:M` adds whether the claimed
gain holds: the change wins at least 9 in 10 of the pairs with the metric
on both sides, its median is better than the parent's by more than the
parent's q3 - q1, and it fails no more repetitions than the parent.
"""

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit, tree):
    """git archive of `commit` into the empty directory `tree`, byte-compiled;
    returns the bytecode state of its package."""
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    os.makedirs(tree)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tree, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    pkg = os.path.join(tree, "src", "amphisense")
    modules = sorted(f[:-3] for f in os.listdir(pkg) if f.endswith(".py"))
    cache = os.path.join(pkg, "__pycache__")
    compiled = [m for m in modules
                if os.path.exists(os.path.join(cache, f"{m}.{sys.implementation.cache_tag}.pyc"))]
    return {"modules": len(modules), "compiled": len(compiled)}


def run_bench(tree, workload, seed, seconds):
    """One perfbench invocation in `tree`: its end-to-end metrics, digest,
    repetition counts, correctness and exit code.  A crashed or failing
    invocation counts at least one failed repetition."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    failed = result["failed"]
    if proc.returncode != 0 or not result["correct"]:
        failed = max(failed, 1)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digest": digest, "attempted": result["attempted"], "failed": failed,
            "correct": result["correct"], "exit": proc.returncode}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per metric, each side's quartiles over the pairs that have the metric
    on both sides and the pairs the change won; `better` maps each metric
    to "higher" or "lower".  Per side, the failed repetitions and the
    invocations without metrics; `digests_equal` holds only if every pair
    has both digests and they are equal."""
    doc = {"pairs": len(pairs)}
    for metric, direction in better.items():
        both = [p for p in pairs if all(metric in p[s]["metrics"] for s in SIDES)]
        if not both:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        doc[metric] = {s: quartiles([p[s]["metrics"][metric] for p in both]) for s in SIDES}
        doc[metric]["change_wins"] = sum(
            sign * (p["change"]["metrics"][metric] - p["parent"]["metrics"][metric]) > 0
            for p in both)
        doc[metric]["pairs"] = len(both)
    doc["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    doc["no_metrics"] = {s: sum(not p[s]["metrics"] for p in pairs) for s in SIDES}
    doc["digests_equal"] = all(p["digest_equal"] is True for p in pairs)
    return doc


def within_bound(doc, metric, better, bound):
    """Whether the change's median of `metric` in one workload's summary is
    worse than the parent's by at most `bound` times the parent's median."""
    parent, change = (doc[metric][s]["median"] for s in SIDES)
    worse = parent - change if better == "higher" else change - parent
    return worse <= bound * abs(parent)


def claim_met(doc, metric, better):
    """Whether one workload's summary bears out a claimed gain in `metric`:
    the change wins at least 9 in 10 of the pairs with the metric on both
    sides, its median is better than the parent's by more than the
    parent's q3 - q1, and it fails no more repetitions than the parent."""
    if metric not in doc:
        return False
    m = doc[metric]
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (m["change"]["median"] - m["parent"]["median"])
    return (10 * m["change_wins"] >= 9 * m["pairs"]
            and gain > m["parent"]["q3"] - m["parent"]["q1"]
            and doc["failed"]["change"] <= doc["failed"]["parent"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the one gain the change claims; none by default")
    ap.add_argument("--work", help="an empty or new directory for the two trees "
                                   "(default: a new temporary directory)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    known = {w["name"] for w in bench["workloads"]}
    for w in args.workload:
        if w not in known:
            ap.error(f"unknown workload {w!r}; BENCHMARK.json declares {sorted(known)}")
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or metric not in better:
            ap.error(f"--claim must name a run workload and one of {sorted(better)}")
        claim = {"workload": workload, "metric": metric, "better": better[metric]}
    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
               "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}

    work = args.work or tempfile.mkdtemp(prefix="bench_pair-")
    dirs = [os.path.join(work, "a"), os.path.join(work, "b")]
    if any(os.path.exists(d) for d in dirs):
        ap.error(f"{work} already holds a/ or b/")
    pairs, bytecode = [], {}
    halves = (range(args.pairs // 2), range(args.pairs // 2, args.pairs))
    try:
        for half, js in enumerate(halves):
            if not js:
                continue
            layout = dict(zip(SIDES, dirs if half == 0 else dirs[::-1]))
            for side in SIDES:
                bytecode[f"{side} in {os.path.basename(layout[side])}"] = export(
                    commits[side], layout[side])
            for w in args.workload:
                for j in js:
                    seed = args.seed + j
                    first = SIDES[j % 2]
                    pair = {"workload": w, "seed": seed, "first": first,
                            "dirs": {s: os.path.basename(layout[s]) for s in SIDES}}
                    for side in (first, SIDES[1 - SIDES.index(first)]):
                        pair[side] = run_bench(layout[side], w, seed, seconds)
                    digests = [pair[s]["digest"] for s in SIDES]
                    pair["digest_equal"] = (digests[0] == digests[1]
                                            if None not in digests else None)
                    pairs.append(pair)
                    print(f"{w} seed {seed}: " + "  ".join(
                        f"{s} {pair[s]['metrics']}" for s in SIDES), file=sys.stderr)
            for d in dirs:
                shutil.rmtree(d)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        if not args.work:
            os.rmdir(work)

    pairs.sort(key=lambda p: (args.workload.index(p["workload"]), p["seed"]))
    medians = {w: summarize([p for p in pairs if p["workload"] == w], better)
               for w in args.workload}
    for doc in medians.values():
        for metric in better.keys() & doc.keys():
            doc[metric]["within_bound"] = within_bound(doc, metric, better[metric],
                                                       bounds[metric])
    if claim:
        claim["claim_met"] = claim_met(medians[claim["workload"]], claim["metric"],
                                       claim["better"])
    doc = {
        "change": args.note,
        "commit": commits["change"],
        "parent_commit": commits["parent"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"),
                    "platform": platform.platform()},
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    f"(trace 0) by tools/bench_pair.py; workloads {', '.join(args.workload)}, "
                    f"seeds {args.seed}-{args.seed + args.pairs - 1}, parent and change "
                    f"alternating which runs first"),
        "trees": ("each revision a git archive under one of two sibling directories of "
                  "equal path length (a, b); the first half of each workload's pairs ran "
                  "the parent in a and the change in b, the second half swapped them"),
        "bytecode": {"note": "python -m compileall -q src in each tree before its pairs; "
                             "perfbench/run.py also compiles the package before its "
                             "repetitions",
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                     "trees": bytecode},
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs' "
                     "per-invocation figures",
        "claim": claim,
        "medians": medians,
        "pairs": pairs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps(doc["medians"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
