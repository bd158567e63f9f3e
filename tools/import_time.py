"""The import time of amphisense.harness in two revisions, by `-X importtime`.

    python3 tools/import_time.py PARENT CHANGE --processes 10

Run from the root of a git checkout; PARENT and CHANGE are any revisions git
names (`git stash create` names an uncommitted tree).  Each revision is
exported and byte-compiled as tools/bench_pair.py does, with its `export`,
into one of two sibling directories.  Round j of N runs

    python -X importtime -c "import numpy; import amphisense.harness"

once in each tree, each in a fresh interpreter with BLAS at one thread,
alternating which tree goes first.  Per side it prints the median and
quartiles of amphisense.harness's cumulative import time, and the five
largest self times of the imports made under it (the package's modules and
the modules they import first), each the median over the processes.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from bench_pair import SIDES, export, git, quartiles

TARGET = "amphisense.harness"
COMMAND = f"import numpy; import {TARGET}"
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_importtime(stderr):
    """The `import time:` lines of `python -X importtime` as (depth, module,
    self µs, cumulative µs), in the order printed: each import after the
    imports it made, which are one level deeper."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():    # the header line
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cumulative)))
    return entries


def subtree(entries, module=TARGET):
    """The cumulative µs of `module`'s import and {module: self µs} of it and
    every import made under it."""
    for k, (depth, name, self_us, cumulative) in enumerate(entries):
        if name == module:
            break
    else:
        raise ValueError(f"no import time line for {module}")
    lo = k
    while lo > 0 and entries[lo - 1][0] > depth:
        lo -= 1
    return cumulative, {name: s for _, name, s, _ in entries[lo:k + 1]}


def import_once(tree):
    """One fresh interpreter's import of TARGET in `tree`: subtree()'s pair."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", COMMAND], cwd=tree,
                          env=env, capture_output=True, text=True, check=True)
    return subtree(parse_importtime(proc.stderr))


def report(side, commit, runs):
    """Lines on one side's runs: the cumulative quartiles, then the five
    largest median self times."""
    q = quartiles([cumulative for cumulative, _ in runs])
    lines = [f"{side} {commit[:12]}: {TARGET} cumulative median {q['median']:.0f} us "
             f"(q1 {q['q1']:.0f}, q3 {q['q3']:.0f}) over {len(runs)} processes"]
    names = {name for _, selfs in runs for name in selfs}
    medians = {name: statistics.median(selfs.get(name, 0) for _, selfs in runs)
               for name in names}
    for name in sorted(medians, key=medians.get, reverse=True)[:5]:
        lines.append(f"  self {medians[name]:8.0f} us  {name}")
    return lines, q["median"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--processes", type=int, default=10,
                    help="fresh interpreters per side (default 10)")
    args = ap.parse_args(argv)
    if args.processes < 1:
        ap.error("--processes must be at least 1")
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}

    work = tempfile.mkdtemp(prefix="import_time-")
    trees = dict(zip(SIDES, (os.path.join(work, "a"), os.path.join(work, "b"))))
    runs = {side: [] for side in SIDES}
    try:
        for side in SIDES:
            export(commits[side], trees[side])
        for j in range(args.processes):
            for side in (SIDES if j % 2 == 0 else SIDES[::-1]):
                runs[side].append(import_once(trees[side]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    medians = {}
    for side in SIDES:
        lines, medians[side] = report(side, commits[side], runs[side])
        print("\n".join(lines))
    print(f"change / parent median: {medians['change'] / medians['parent']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
