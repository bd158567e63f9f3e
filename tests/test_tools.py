"""The package names that the benchmark tools call still resolve.

perfbench/child.py and the scripts under benchmarks/ import amphisense
modules and read names off them, some through hooks that take a name as a
string.  Renaming or moving one of those names breaks the tools, not the
package, so nothing else in the suite would notice.  These tests read the
tools' sources and run neither.
"""

import ast
import importlib
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
