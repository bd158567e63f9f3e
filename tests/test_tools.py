"""The package names that the benchmark tools call still resolve.

perfbench/child.py and the scripts under benchmarks/ import amphisense
modules and read names off them, some through hooks that take a name as a
string.  Renaming or moving one of those names breaks the tools, not the
package, so nothing else in the suite would notice.  These tests read the
tools' sources and run neither.  The last tests check how
tools/bench_pair.py reads one perfbench invocation, sums up pairs and
judges a claimed gain and the bounds, without running perfbench.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# what perfbench/child.py hooks, traces or checks, its string hooks included
CHILD_NAMES = ("_accel.USE_NUMBA", "cpg.step_network", "cpg.D_SWIM", "busring.simulate_ring",
               "plant.run_scenario", "plant.Scenario.from_json", "plant.FlowFinModel",
               "harness.main")


def _used_names(path):
    """Each dotted name `module.attr...` that the file reads off an amphisense
    module it imports, and each `module.attr` it passes as a module and a
    string constant to one call."""
    tree = ast.parse(path.read_text())
    mods = {a.asname or a.name: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "amphisense"
            for a in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in mods:
                names.add(".".join([mods[node.id]] + parts[::-1]))
        elif isinstance(node, ast.Call):
            args = node.args
            if (len(args) >= 2 and isinstance(args[0], ast.Name) and args[0].id in mods
                    and isinstance(args[1], ast.Constant) and isinstance(args[1].value, str)):
                names.add(f"{mods[args[0].id]}.{args[1].value}")
    return names


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"amphisense.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_child_hooks_resolve():
    used = _used_names(ROOT / "perfbench" / "child.py")
    assert set(CHILD_NAMES) <= used
    for name in sorted(used):
        _resolve(name)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "benchmarks").glob("*.py")))
def test_benchmark_script_names_resolve(script):
    used = _used_names(ROOT / "benchmarks" / script)
    assert used
    for name in sorted(used):
        _resolve(name)


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    return bench_pair


def test_bench_pair_counts_a_crashed_invocation_failed(tmp_path):
    # perfbench/run.py exits 1 with only an error line when a BenchError ends it
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('error: out of time', file=sys.stderr)\nsys.exit(1)\n")
    run = _bench_pair().run_bench(str(tmp_path), "bus_faults", 1, 40)
    assert run["exit"] == 1 and run["failed"] == 1 and not run["correct"]
    assert run["metrics"] == {} and run["digest"] is None


def test_bench_pair_summary_counts_wins_by_direction():
    def side(rtf, rss, failed=0):
        return {"metrics": {"rtf": rtf, "peak_rss_mb": rss}, "failed": failed}

    crashed = {"metrics": {}, "failed": 1}
    pairs = [{"parent": side(1.0, 40.0), "change": side(2.0, 40.0), "digest_equal": True},
             {"parent": side(3.0, 41.0), "change": side(2.0, 39.0, 1), "digest_equal": False},
             {"parent": crashed, "change": side(9.0, 30.0), "digest_equal": None}]
    doc = _bench_pair().summarize(pairs, {"rtf": "higher", "setup_s": "lower",
                                          "peak_rss_mb": "lower"})
    # rtf: one higher, one lower; peak RSS: one tie (no win), one lower; the
    # pair without the parent's metrics enters neither quartiles nor wins
    assert doc["rtf"]["change_wins"] == 1 and doc["peak_rss_mb"]["change_wins"] == 1
    assert doc["rtf"]["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert doc["rtf"]["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert "setup_s" not in doc and doc["pairs"] == 3
    assert doc["failed"] == {"parent": 1, "change": 1}
    assert doc["no_metrics"] == {"parent": 1, "change": 0}
    assert doc["digests_equal"] is False
    # both sides crashed: no digest on either side is no evidence of equal digests
    both = [{"parent": crashed, "change": crashed, "digest_equal": None}]
    doc = _bench_pair().summarize(both, {"rtf": "higher"})
    assert doc["digests_equal"] is False and "rtf" not in doc
    assert doc["failed"] == {"parent": 1, "change": 1}
    assert doc["no_metrics"] == {"parent": 1, "change": 1}


def _rss_pairs(parent, change, failed=(0, 0)):
    """One pair per (parent, change) peak RSS; the first pair carries the
    failed repetitions."""
    return [{"parent": {"metrics": {"peak_rss_mb": p}, "failed": failed[0] if k == 0 else 0},
             "change": {"metrics": {"peak_rss_mb": c}, "failed": failed[1] if k == 0 else 0},
             "digest_equal": True}
            for k, (p, c) in enumerate(zip(parent, change))]


def test_bench_pair_claim_needs_wins_a_gap_and_no_more_failures():
    bench_pair = _bench_pair()
    parent = [38.4, 38.5, 38.6, 38.7, 38.8, 38.4, 38.5, 38.6, 38.7, 38.8]

    def met(change, failed=(0, 0), better="lower"):
        doc = bench_pair.summarize(_rss_pairs(parent, change, failed),
                                   {"peak_rss_mb": better})
        return bench_pair.claim_met(doc, "peak_rss_mb", better)

    # parent median 38.6, q3 - q1 0.2: ten wins, median 0.5 lower
    assert met([38.1] * 10)
    # nine wins of ten still hold; eight do not
    assert met([38.1] * 9 + [38.9])
    assert not met([38.1] * 8 + [38.9] * 2)
    # ten wins, but the median moves by less than the parent's q3 - q1
    assert not met([p - 0.1 for p in parent])
    assert met([p - 0.3 for p in parent])
    # the change fails a repetition more than the parent
    assert not met([38.1] * 10, failed=(0, 1))
    assert met([38.1] * 10, failed=(2, 2))
    # a gain in a higher-is-better metric is a rise
    assert not met([38.1] * 10, better="higher")
    assert met([39.1] * 10, better="higher")
    # no pair has the metric on both sides
    doc = bench_pair.summarize(_rss_pairs([], []), {"peak_rss_mb": "lower"})
    assert not bench_pair.claim_met(doc, "peak_rss_mb", "lower")


def test_bench_pair_bound_is_a_fraction_of_the_parents_median():
    bench_pair = _bench_pair()

    def within(change, better):
        doc = bench_pair.summarize(_rss_pairs([40.0] * 3, change), {"peak_rss_mb": better})
        return bench_pair.within_bound(doc, "peak_rss_mb", better, 0.05)

    # 5 % of a 40 MB median is 2 MB either way
    assert within([42.0] * 3, "lower") and not within([42.1] * 3, "lower")
    assert within([38.0] * 3, "higher") and not within([37.9] * 3, "higher")
    # a change that only gets better stays within any bound
    assert within([10.0] * 3, "lower") and within([90.0] * 3, "higher")
