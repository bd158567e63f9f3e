"""What importing the package costs: which modules it loads and which of its
classes dataclasses builds.

Every CLI run and bus bench pays the package's import.  A dataclass
generates its methods by `exec` when the module is imported, so only the
config classes whose fields `plant.check_fields`, `plant.from_doc` or
`Scenario.to_json` read stay dataclasses, and `logging` is not imported.
The other classes are plain classes whose constructors keep the parameters
they had as dataclasses, so positional callers keep working.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the classes dataclasses builds, each read field by field: check_fields and
# from_doc (all five), asdict and == (Scenario)
CONFIG_DATACLASSES = ["harness.JigFile", "harness.LineFile", "harness.PlotPanel",
                      "harness.PlotSpec", "plant.Scenario"]

_FRESH_IMPORT = """
import dataclasses, json, sys
import amphisense.harness
logging = "logging" in sys.modules
found = sorted(f"{name.split('.')[-1]}.{attr}"
               for name, module in list(sys.modules.items())
               if name.startswith("amphisense.")
               for attr, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == name
               and dataclasses.is_dataclass(obj))
print(json.dumps({"logging": logging, "dataclasses": found}))
"""


def test_harness_import_loads_no_logging_and_only_the_config_dataclasses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc == {"logging": False, "dataclasses": CONFIG_DATACLASSES}


REQUIRED = inspect.Parameter.empty
FACTORY = "a new empty list per instance"

# each plain class's constructor as it was as a dataclass: (name, default)
# in order, every parameter positional-or-keyword.  The dataclasses'
# default_factory=list fields take None for a new empty list.
SIGNATURES = {
    "busring.FluxSample": (("module_id", REQUIRED), ("flux_mt", REQUIRED), ("temp_c", 25.0)),
    "busring.LineConfig": (("baud", 1_000_000), ("bits_per_byte", 10),
                           ("inter_frame_gap", 2e-05), ("timeout", None)),
    "busring.FaultPlan": (("kills", ()), ("flip_rate", 0.0)),
    "busring.RingStats": (("frames_sent", REQUIRED), ("frames_ok", REQUIRED),
                          ("corrupt_injected", 0), ("corrupt_detected", 0),
                          ("timeout_recoveries", 0), ("collisions", 0), ("frame_log", None),
                          ("frame_ends", None), ("frame_modules", None)),
    "magnetics.DipoleParams": (("n_t", 50.0),),
    "magnetics.MagnetPose": (("p", REQUIRED), ("h", REQUIRED)),
    "magnetics.FlowPose": (("p_x", REQUIRED), ("p_y", REQUIRED), ("h_y", REQUIRED),
                           ("d_z0", REQUIRED)),
    "calibration.FootWrench": (("tau_pitch", REQUIRED), ("tau_yaw", REQUIRED),
                               ("f_x", REQUIRED)),
    "calibration.SensorKind": (("coords", REQUIRED), ("outputs", REQUIRED),
                               ("load_types", REQUIRED), ("bench", REQUIRED),
                               ("locate", REQUIRED), ("error", REQUIRED), ("stall", REQUIRED),
                               ("report", REQUIRED), ("jig_keys", ())),
    "calibration.CalibrationDataset": (("kind", REQUIRED), ("X", REQUIRED), ("Y", REQUIRED),
                                       ("cycle_ids", REQUIRED), ("load_types", REQUIRED)),
    "calibration.PolyModel": (("kind", REQUIRED), ("coef", REQUIRED), ("train_rmse", REQUIRED),
                              ("train_cycles", FACTORY)),
    "calibration.RmseReport": (("kind", REQUIRED), ("rmse", REQUIRED), ("n_samples", REQUIRED)),
    "calibration.JigConfig": (("kind", "foot"), ("lever", 19.0), ("n_train", 10), ("n_eval", 2),
                              ("samples_per_cycle", 41), ("n_average", 1),
                              ("noise_sigma", 0.01), ("f_x_max", 8.0),
                              ("tangential_max", 3.0), ("flow_force_max", 0.3),
                              ("load_types", None)),
    "cpg.SaturationMap": (("c1", REQUIRED), ("c0", REQUIRED), ("d_low", REQUIRED),
                          ("d_high", REQUIRED)),
    "cpg.OscillatorParams": (("a", REQUIRED), ("omega_maps", REQUIRED), ("amp_maps", REQUIRED)),
    "cpg.CouplingGraph": (("n", REQUIRED), ("edges", REQUIRED)),
    "cpg.GaitCommand": (("mode", REQUIRED), ("drive", REQUIRED)),
    "plant._PlantKind": (("names", REQUIRED), ("transduce", REQUIRED), ("dipole", REQUIRED),
                         ("rest", REQUIRED), ("est", REQUIRED), ("n_average", REQUIRED),
                         ("seed", REQUIRED)),
    "plant.ScenarioResult": (("scenario", REQUIRED), ("columns", REQUIRED), ("data", REQUIRED),
                             ("switch_time", None)),
    "harness.Metric": (("name", REQUIRED), ("value", REQUIRED), ("lo", None), ("hi", None),
                       ("unit", "")),
    "harness.MetricsReport": (("source", REQUIRED), ("metrics", FACTORY)),
}


def _class(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"amphisense.{module}"), name)


@pytest.mark.parametrize("dotted", sorted(SIGNATURES))
def test_plain_class_keeps_its_dataclass_signature(dotted):
    params = list(inspect.signature(_class(dotted)).parameters.values())
    assert [p.name for p in params] == [name for name, _ in SIGNATURES[dotted]]
    for p, (_, default) in zip(params, SIGNATURES[dotted]):
        assert p.kind is p.POSITIONAL_OR_KEYWORD, p.name
        want = None if default is FACTORY else default
        assert p.default is want or (p.default == want and type(p.default) is type(want)), \
            (p.name, p.default)


def test_factory_defaults_give_each_instance_its_own_list():
    from amphisense import calibration, harness

    a, b = harness.MetricsReport("a"), harness.MetricsReport("b")
    a.add("x", 1.0)
    assert b.metrics == [] and len(a.metrics) == 1
    m1, m2 = (calibration.PolyModel("foot", None, None) for _ in range(2))
    m1.train_cycles.append("fx-00")
    assert m2.train_cycles == []
