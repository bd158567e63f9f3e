"""Harness tests: estimators, metric reports, CLI round trips.

Estimator oracles are synthesized sinusoids with known frequency and
phase.  CLI tests drive main() on a short swimming scenario shared by
the module so the plant runs once.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amphisense import busring, harness, magnetics, plant

# a short shoreline crossing whose switch passes every bounded metric
SHORT_SHORELINE = {
    "name": "short_shore", "terrain": "shoreline", "duration_s": 0.8,
    "advance_speed": 0.08, "x_start": 0.25, "seed": 0, "window_start": 0.2,
}


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class TestMeasureFrequency:
    @pytest.mark.parametrize("freq", [0.1, 0.3, 0.47, 0.78, 1.0, 2.0])
    def test_sinusoid_sweep_under_tenth_percent(self, freq):
        # synthesized sinusoid, frequency known exactly
        dur = max(12.0, 7.0 / freq)
        t = np.arange(0.0, dur, 1e-3)
        x = 0.4 * np.sin(2 * np.pi * freq * t + 1.1) + 0.05
        est = harness.measure_frequency(t, x)
        assert abs(est - freq) / freq < 1e-3

    def test_offset_does_not_bias(self):
        t = np.arange(0.0, 20.0, 1e-3)
        x = np.sin(2 * np.pi * 0.5 * t)
        assert harness.measure_frequency(t, x + 3.7) == pytest.approx(
            harness.measure_frequency(t, x), abs=1e-12
        )

    def test_too_few_cycles_raises(self):
        t = np.arange(0.0, 8.0, 1e-3)  # 4 cycles at 0.5 Hz
        x = np.sin(2 * np.pi * 0.5 * t)
        with pytest.raises(harness.TraceTooShortError):
            harness.measure_frequency(t, x)


class TestCircularLag:
    def test_quarter_period(self):
        # y delayed by exactly T/4
        t = np.arange(0.0, 10.0, 1e-3)
        x = np.sin(2 * np.pi * 0.5 * t)
        y = np.sin(2 * np.pi * 0.5 * (t - 0.5))
        lag = harness.circular_lag_cycles(x, y, 2.0, 1e-3)
        assert lag == pytest.approx(0.25, abs=0.01)

    def test_lead_is_negative(self):
        t = np.arange(0.0, 10.0, 1e-3)
        x = np.sin(2 * np.pi * 0.5 * t)
        y = np.sin(2 * np.pi * 0.5 * (t + 0.2))
        assert harness.circular_lag_cycles(x, y, 2.0, 1e-3) == pytest.approx(
            -0.1, abs=0.01
        )

    def test_result_folded_to_half_cycle(self):
        t = np.arange(0.0, 12.0, 1e-3)
        x = np.sin(2 * np.pi * 0.5 * t)
        y = np.sin(2 * np.pi * 0.5 * (t - 1.4))  # 0.7 cycles == -0.3
        lag = harness.circular_lag_cycles(x, y, 2.0, 1e-3)
        assert lag == pytest.approx(-0.3, abs=0.01)


# ---------------------------------------------------------------------------
# metric report plumbing
# ---------------------------------------------------------------------------

class TestMetricsReport:
    def test_verdicts(self):
        r = harness.MetricsReport(source="x")
        r.add("in_band", 1.0, 0.5, 1.5)
        r.add("below", 0.1, 0.5, 1.5)
        r.add("info_only", 42.0)
        assert [m.verdict for m in r.metrics] == ["pass", "FAIL", "info"]
        assert not r.all_pass

    def test_one_sided_bounds(self):
        r = harness.MetricsReport(source="x")
        r.add("hi_only", 0.2, None, 0.3)
        r.add("lo_only", 700.0, 589.8, None)
        assert r.all_pass

    def test_nan_fails_bounded_metric(self):
        m = harness.Metric("latency", float("nan"), 0.0, 0.02)
        assert not m.ok
        assert harness.Metric("note", float("nan")).ok

    def test_json_round_trip(self, tmp_path):
        r = harness.MetricsReport(source="x")
        r.add("a", 1.0, 0.0, 2.0, "Hz")
        path = tmp_path / "m.json"
        r.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["all_pass"] is True
        assert doc["metrics"][0] == {
            "name": "a", "value": 1.0, "lo": 0.0, "hi": 2.0,
            "unit": "Hz", "verdict": "pass",
        }

    def test_table_mentions_failures(self):
        r = harness.MetricsReport(source="x")
        r.add("bad", 9.0, 0.0, 1.0)
        assert "FAILURES" in r.format_table()


# ---------------------------------------------------------------------------
# CLI, sharing one short swim run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def swim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    sc = {
        "name": "mini_swim", "terrain": "water", "duration_s": 12.0,
        "dt": 1e-3, "drive": 5.0, "feedback": False, "seed": 9,
        "window_start": 4.0,
    }
    cfg = out / "mini_swim.json"
    cfg.write_text(json.dumps(sc))
    rc = harness.main(["--out", str(out), "run", str(cfg)])
    assert rc == 0
    return out


class TestCliRun:
    def test_outputs_written_and_pass(self, swim_dir):
        trace = swim_dir / "mini_swim_trace.csv"
        metrics = swim_dir / "mini_swim_metrics.json"
        assert trace.exists() and metrics.exists()
        doc = json.loads(metrics.read_text())
        assert doc["all_pass"] is True
        names = {m["name"] for m in doc["metrics"]}
        assert {"gait_freq", "axial_amp", "wave_monotone",
                "wave_total_lag"} <= names

    # case: (command line before the input, input file text or None for a
    # name that resolves to nothing or DIRECTORY for a directory, exception
    # run_scenario raises or None, exit code); TRACE in the command line
    # stands for a short valid trace file.  Input given as bytes is written
    # as it stands.
    DIRECTORY = "<directory>"
    TRACE = "<trace>"
    EXIT_CASES = {
        "passing_run": ("run", json.dumps(SHORT_SHORELINE), None, 0),
        "malformed_json": ("run", "{ not json,,", None, 2),
        "unknown_config_name": ("run", None, None, 2),
        "unknown_key": ("run", '{"dragg": 1}', None, 2),
        "sensor_model_error": ("run", "{}", magnetics.NoConvergenceError("stalled"), 2),
        "jig_unknown_key": ("calibrate", '{"kind": "foot", "levr": 19.0}', None, 2),
        "jig_not_an_object": ("calibrate", "[1, 2]", None, 2),
        "line_unknown_key": ("bus-bench", '{"n_modules": 10, "baudrate": 1}', None, 2),
        "run_negative_seed": ("--seed -1 run", json.dumps(SHORT_SHORELINE), None, 2),
        "jig_negative_seed": ("--seed -1 calibrate", '{"kind": "foot"}', None, 2),
        "line_negative_seed": ("--seed -1 bus-bench", "{}", None, 2),
        "run_negative_config_seed": ("run", '{"seed": -1, "duration_s": 0.01}', None, 2),
        "run_string_duration": ("run", '{"duration_s": "5"}', None, 2),
        "jig_string_n_units": ("calibrate", '{"n_units": "abc"}', None, 2),
        "line_string_n_modules": ("bus-bench", '{"n_modules": "x"}', None, 2),
        "jig_number_torque_band": ("calibrate", '{"torque_band": 5, "n_units": 1}', None, 2),
        "jig_string_rmse_max": ("calibrate", '{"rmse_max": "x", "n_units": 1}', None, 2),
        "run_number_log_flux": ("run", '{"log_flux": 5, "duration_s": 0.01}', None, 2),
        "line_zero_duration": ("bus-bench", '{"duration_s": 0}', None, 2),
        "line_negative_duration": ("bus-bench", '{"duration_s": -1}', None, 2),
        "run_nan_duration": ("run", '{"duration_s": NaN}', None, 2),
        "line_nan_t_read": ("bus-bench", '{"t_read": NaN, "duration_s": 0.01}', None, 2),
        "line_infinite_duration": ("bus-bench", '{"duration_s": Infinity}', None, 2),
        "line_nan_inter_frame_gap": ("bus-bench", '{"inter_frame_gap": NaN}', None, 2),
        "line_too_short_for_kill_ring": ("bus-bench", '{"duration_s": 0.001}', None, 1),
        "bus_three_modules": ("bus-bench", '{"n_modules": 3, "duration_s": 0.5}', None, 0),
        "line_zero_bits_per_byte": ("bus-bench", '{"bits_per_byte": 0, "duration_s": 0.05}',
                                    None, 2),
        "line_negative_bits_per_byte": ("bus-bench",
                                        '{"bits_per_byte": -1, "duration_s": 0.05}', None, 2),
        "jig_negative_noise_sigma": ("calibrate", '{"noise_sigma": -1, "n_units": 1}', None, 2),
        "jig_negative_config_seed": ("calibrate", '{"seed": -1}', None, 2),
        "line_negative_config_seed": ("bus-bench", '{"seed": -1}', None, 2),
        "config_is_a_directory": ("run", DIRECTORY, None, 2),
        "trace_is_a_directory": ("analyze", DIRECTORY, None, 2),
        "analyze_non_numeric_cell": ("analyze", "t,mode\n0.0,0\n0.001,abc\n", None, 2),
        "plot_non_numeric_cell": ("plot", "t,gt_q_ax4\n0.0,0\n0.001,abc\n", None, 2),
        "analyze_missing_column": ("analyze", "t,mode\n0.0,0\n0.001,0\n", None, 2),
        "plot_row_narrower_than_header": (
            "plot", "t,gt_q_ax1,gt_q_ax4,gt_q_ax8\n0.0,0\n0.001,0\n", None, 2),
        "run_dt_beyond_step_bound": ("run", '{"dt": 0.02, "duration_s": 1}', None, 2),
        "run_not_an_object": ("run", "[1, 2]", None, 2),
        "analyze_scenario_not_an_object": ("analyze <trace> --scenario", "[1, 2]", None, 2),
        "run_name_with_parent_dirs": ("run", '{"name": "../../evil", "duration_s": 0.01}',
                                      None, 2),
        "run_number_name": ("run", '{"name": 5, "duration_s": 0.01}', None, 2),
        "run_string_feedback": ("run", '{"feedback": "no", "duration_s": 0.01}', None, 2),
        "jig_zero_n_units": ("calibrate", '{"kind": "foot", "n_units": 0}', None, 2),
        "jig_negative_n_units": ("calibrate", '{"kind": "foot", "n_units": -3}', None, 2),
        "jig_zero_n_average": ("calibrate", '{"n_average": 0, "n_units": 1}', None, 2),
        "jig_unknown_kind": ("calibrate", '{"kind": "wing", "n_units": 1}', None, 2),
        "jig_flow_force_band": ("calibrate", '{"kind": "flow", "n_units": 2, "n_average": 8, '
                                '"force_band": [0, 1e-9]}', None, 2),
        "jig_flow_torque_band": ("calibrate", '{"kind": "flow", "n_units": 1, '
                                 '"torque_band": [0, 1e-9]}', None, 2),
        "jig_flow_lever": ("calibrate", '{"kind": "flow", "n_units": 1, "n_average": 8, '
                           '"lever": 5}', None, 2),
        "plot_number_panels": ("plot <trace>", '{"panels": 5}', None, 2),
        "plot_spec_not_an_object": ("plot <trace>", "[1, 2]", None, 2),
        "plot_panel_without_title": ("plot <trace>", '{"panels": [{"series": ["gt_q_ax4"]}]}',
                                     None, 2),
        "plot_panel_without_series": ("plot <trace>", '{"panels": [{"title": "a", "series": []}]}',
                                      None, 2),
        "analyze_non_utf8_trace": ("analyze", b"t,gt_q_ax4\n\xff\xfe,0\n", None, 2),
        "plot_non_utf8_trace": ("plot", b"t,gt_q_ax4\n\xff\xfe,0\n", None, 2),
        "plot_one_row_trace": ("plot", "t,gt_q_ax1,gt_q_ax4,gt_q_ax8\n0,0,0,0\n", None, 2),
        "plot_constant_time_trace": ("plot", "t,gt_q_ax1,gt_q_ax4,gt_q_ax8\n0,0,0,0\n0,1,1,1\n",
                                     None, 2),
        "run_repeated_log_flux": (
            "run", '{"name": "dup", "duration_s": 0.3, "log_flux": ["foot_fl", "foot_fl"]}',
            None, 2),
        "run_shorter_than_window": ("run", '{"name": "tiny", "duration_s": 0.03}', None, 2),
        # a size beyond any address space, so the allocation fails at once
        "run_too_long_to_allocate": ("run", '{"duration_s": 1e13}', None, 2),
        # refused by the ring's module-count bound before anything is allocated
        "line_too_many_modules_to_allocate": (
            "bus-bench", '{"n_modules": 100000000000000000, "duration_s": 0.01}', None, 2),
        "line_module_ids_past_one_byte": ("bus-bench", '{"n_modules": 257}', None, 2),
    }

    # what the error line of a case says, where exit 2 alone would not tell
    # the config check from a later failure of the run
    EXIT_MESSAGES = {
        "run_dt_beyond_step_bound": "dt must be in (0, 0.01] s",
        "run_not_an_object": "expected a JSON object",
        "analyze_scenario_not_an_object": "expected a JSON object",
        "run_name_with_parent_dirs": "name must be a file stem",
        "run_number_name": "name must be a string",
        "run_string_feedback": "feedback must be true or false",
        "jig_zero_n_units": "n_units must be at least 1",
        "jig_negative_n_units": "n_units must be a non-negative integer",
        "jig_zero_n_average": "n_average must be at least 1",
        "jig_unknown_kind": "unknown sensor kind 'wing'",
        "jig_flow_force_band": "force_band does not apply to flow sensors",
        "jig_flow_torque_band": "torque_band does not apply to flow sensors",
        "jig_flow_lever": "lever does not apply to flow sensors",
        "plot_number_panels": "panels must be a list",
        "plot_spec_not_an_object": "expected a JSON object",
        "plot_panel_without_title": "missing keys ['title']",
        "plot_panel_without_series": "plot panel 'a' has no series",
        "analyze_non_utf8_trace": "not UTF-8 text",
        "plot_non_utf8_trace": "not UTF-8 text",
        "plot_one_row_trace": "time does not advance",
        "plot_constant_time_trace": "time does not advance",
        "run_repeated_log_flux": "log_flux must list distinct modules",
        "run_shorter_than_window": "window_start",
        "run_too_long_to_allocate": "out of memory",
        "line_too_many_modules_to_allocate": "n_modules must be 1-256",
        "line_module_ids_past_one_byte": "n_modules must be 1-256",
    }

    # a warning printed beside the error line breaks the one-line contract
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_exit_code(self, case, tmp_path, monkeypatch, capsys):
        command, text, raises, code = self.EXIT_CASES[case]
        trace = tmp_path / "tr.csv"
        trace.write_text("t,gt_q_ax4\n0.0,0\n0.001,1\n")
        command = command.replace(self.TRACE, str(trace))
        arg = "no_such_scenario"
        if text == self.DIRECTORY:
            arg = tmp_path / "a_directory"
            arg.mkdir()
        elif text is not None:
            arg = tmp_path / "sc.json"
            arg.write_bytes(text if isinstance(text, bytes) else text.encode())
        if raises is not None:
            def stalled_run(scenario):
                raise raises
            monkeypatch.setattr(plant, "run_scenario", stalled_run)
        out = tmp_path / "a" / "b" / "out"
        argv = ["--out", str(out), *command.split(), str(arg)]
        assert harness.main(argv) == code
        stray = [p for p in tmp_path.rglob("*")
                 if p.is_file() and p not in (trace, arg) and out not in p.parents]
        assert not stray, f"written outside --out: {stray}"
        if case == "run_shorter_than_window":    # refused before a tick is stepped
            assert not [p for p in out.rglob("*") if p.is_file()]
        if case == "jig_unknown_kind":    # refused before --out is made
            assert not out.exists()
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            if "unknown_key" in case:
                assert "allowed:" in err
            if "non_numeric" in case:
                assert str(arg) in err
            if "missing_column" in case:
                assert "'gt_foot_fl_fx'" in err
            assert self.EXIT_MESSAGES.get(case, "") in err

    def test_bundled_names_resolve(self):
        for name in ("walk_floor", "swim_pool", "shoreline_transition",
                     "jig_default", "line_default"):
            path = harness._resolve_config(name)
            assert path.endswith(f"{name}.json")

    def test_bundled_jig_and_line_keys_allowed(self):
        # every bundled config parses through its command's schema
        for name in ("walk_floor", "swim_pool", "shoreline_transition"):
            assert plant.Scenario.from_json(harness._resolve_config(name)).name == name
        assert harness._config(harness.JigFile, "jig_default").torque_band == (1.26, 2.5)
        assert harness._config(harness.LineFile, "line_default").kill_at == 1.0


# each command's config class and the error its parser raises
CONFIG_CLASSES = {
    "run": (plant.Scenario, plant.PlantError),
    "calibrate": (harness.JigFile, harness.HarnessError),
    "bus-bench": (harness.LineFile, harness.HarnessError),
    "plot": (harness.PlotSpec, harness.HarnessError),
}

# what a parsed value of each annotation is
HOLDS = {
    "float": lambda v: type(v) is float and math.isfinite(v),
    "int": lambda v: type(v) is int and v >= 0,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "tuple[float, float]": lambda v: (type(v) is tuple and len(v) == 2
                                      and all(map(HOLDS["float"], v))),
    "tuple[str, ...]": lambda v: type(v) is tuple and all(map(HOLDS["str"], v)),
    "tuple[dict, ...]": lambda v: (type(v) is tuple
                                   and all(type(p) is harness.PlotPanel for p in v)),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


def _documents(cls):
    """JSON documents for a config class: arbitrary values, and objects of
    mostly its own keys, each holding its default, a number, string or
    list, or any JSON value."""
    names = [f.name for f in dataclasses.fields(cls)]
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default not in (dataclasses.MISSING, ...)}
    key = st.sampled_from(names) | st.text(max_size=4)
    value = (st.integers(-2, 12) | st.floats(-1e3, 1e3) | st.text(max_size=4)
             | st.lists(st.floats(-5.0, 5.0) | st.sampled_from(plant.SENSOR_NAMES), max_size=3)
             | JSON_VALUES)
    own = st.builds(lambda keys, values, drop: {
        k: defaults[k] if k in defaults and not drop else v for k, v in zip(keys, values)},
        st.lists(key, max_size=5, unique=True), st.lists(value, min_size=5, max_size=5),
        st.booleans())
    return JSON_VALUES | own


class TestConfigParsers:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(CONFIG_CLASSES)))
    def test_parses_or_raises_the_config_error(self, command, data):
        cls, error = CONFIG_CLASSES[command]
        doc = data.draw(_documents(cls))
        try:
            cfg = plant.from_doc(cls, doc, error)
        except error:
            return
        # a parsed config holds its annotated types
        for f in dataclasses.fields(cls):
            value = getattr(cfg, f.name)
            kind = f.type.removesuffix(" | None")
            assert value is None and kind != f.type or HOLDS[kind](value), (f.name, value)

    def test_typed_fields_of_a_direct_construction(self):
        sc = plant.Scenario(drive=5, seed=3, log_flux=["fin_tail"])
        assert type(sc.drive) is float and sc.log_flux == ("fin_tail",)
        for kw in ({"dt": 0.011}, {"name": "a/b"}, {"name": ".."}, {"feedback": 1},
                   {"seed": True}, {"gain": 10 ** 400}):
            with pytest.raises(plant.PlantError):
                plant.Scenario(**kw)
        for kw in ({"torque_band": [1.0]}, {"force_band": [1.0, 2.0, 3.0]}, {"n_units": 0}):
            with pytest.raises(harness.HarnessError):
                harness.JigFile(**kw)

    def test_kill_at_absent_null_and_given(self):
        assert harness.LineFile(duration_s=3.0).kill_at == 1.5
        assert harness.LineFile(kill_at=None).kill_at is None
        assert harness.LineFile(kill_at=0).kill_at == 0.0


class TestCliAnalyze:
    def test_with_scenario(self, swim_dir):
        rc = harness.main([
            "--out", str(swim_dir), "analyze",
            str(swim_dir / "mini_swim_trace.csv"),
            "--scenario", str(swim_dir / "mini_swim.json"),
        ])
        assert rc == 0

    def test_kind_inferred_without_scenario(self, swim_dir):
        rc = harness.main([
            "--out", str(swim_dir), "analyze",
            str(swim_dir / "mini_swim_trace.csv"),
        ])
        assert rc == 0
        doc = json.loads((swim_dir / "mini_swim_trace_metrics.json").read_text())
        names = {m["name"] for m in doc["metrics"]}
        assert "wave_total_lag" in names  # recognized as a swim trace


class TestCliPlot:
    def test_svg_byte_identical(self, swim_dir):
        trace = str(swim_dir / "mini_swim_trace.csv")
        svg = swim_dir / "mini_swim_trace.svg"
        assert harness.main(["--out", str(swim_dir), "plot", trace]) == 0
        first = svg.read_bytes()
        assert harness.main(["--out", str(swim_dir), "plot", trace]) == 0
        assert svg.read_bytes() == first
        assert first.startswith(b"<svg")

    def test_custom_spec(self, swim_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"panels": [{"title": "ax4 (rad)", "series": ["gt_q_ax4"]}]}
        ))
        trace = str(swim_dir / "mini_swim_trace.csv")
        assert harness.main(["--out", str(tmp_path), "plot", trace,
                             str(spec)]) == 0
        body = (tmp_path / "mini_swim_trace.svg").read_text()
        assert body.count("<polyline") == 1
        assert "ax4 (rad)" in body

    def test_empty_trace_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,mode,gt_q_ax1\n")
        rc = harness.main(["--out", str(tmp_path), "plot", str(empty)])
        assert rc == 2


class TestCliCalibrate:
    def test_noiseless_quadratic_truth_is_exact(self, tmp_path):
        # linear elastic law + exact inversion: quadratic basis
        # contains the truth, so held-out error is numerical noise only
        cfg = tmp_path / "jig.json"
        cfg.write_text(json.dumps({
            "kind": "foot", "n_units": 1, "noise_sigma": 0.0,
            "rmse_max": 1e-6,
        }))
        rc = harness.main(["--out", str(tmp_path), "calibrate", str(cfg)])
        assert rc == 0
        assert (tmp_path / "foot_00_model.json").exists()
        doc = json.loads((tmp_path / "calibration_report.json").read_text())
        assert doc["all_pass"] is True

    def test_default_jig_passes_reference_bands(self, tmp_path):
        rc = harness.main(["--out", str(tmp_path), "calibrate", "jig_default"])
        assert rc == 0
        doc = json.loads((tmp_path / "calibration_report.json").read_text())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["mean_torque_rmse"]["lo"] == 1.26
        assert by_name["mean_torque_rmse"]["hi"] == 2.5
        assert len(list(tmp_path.glob("foot_*_model.json"))) == 4

    def test_flow_jig_writes_models(self, tmp_path):
        cfg = tmp_path / "jig.json"
        cfg.write_text(json.dumps({
            "kind": "flow", "n_units": 2, "noise_sigma": 0.01,
            "n_average": 8, "seed": 3,
        }))
        rc = harness.main(["--out", str(tmp_path), "calibrate", str(cfg)])
        assert rc == 0
        assert len(list(tmp_path.glob("flow_*_model.json"))) == 2


class TestCliBusBench:
    def test_default_line_passes(self, tmp_path):
        rc = harness.main(["--out", str(tmp_path), "bus-bench", "line_default"])
        assert rc == 0
        doc = json.loads((tmp_path / "bus_bench.json").read_text())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["per_module_rate"]["value"] >= 589.8
        assert by_name["timeouts_per_round"]["value"] == pytest.approx(1.0)
        assert by_name["motor_loop_budget"]["value"] >= 100.0

    def test_no_ring_records_its_frame_log(self, tmp_path, monkeypatch):
        # the kill ring's periods come from its frame arrays, not the log
        asked = []
        inner = busring.simulate_ring

        def simulate_ring(*args, **kwargs):
            asked.append(kwargs.get("record_frames", False))
            return inner(*args, **kwargs)

        monkeypatch.setattr(busring, "simulate_ring", simulate_ring)
        rc = harness.main(["--out", str(tmp_path), "bus-bench", "line_default"])
        assert rc == 0 and asked == [False, False, False]

    def test_corruption_detect_frac_measures_crc(self, tmp_path, monkeypatch):
        # a host check that accepts every frame lets every flip through: the
        # bench measures what CRC-8 rejects, not which frames were flipped
        def accept_all(frames):
            return np.ones(len(frames), dtype=bool)

        monkeypatch.setattr(busring, "check_frames", accept_all)
        rc = harness.main(["--out", str(tmp_path), "bus-bench", "line_default"])
        doc = json.loads((tmp_path / "bus_bench.json").read_text())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert rc == 1 and by_name["corruption_detect_frac"]["verdict"] == "FAIL"
        assert by_name["corruption_detect_frac"]["value"] == 0.0

    def test_ring_too_long_to_hold_exits_2_before_scheduling(self, tmp_path, monkeypatch,
                                                             capsys):
        # 1e9 s of bus time would allocate until the machine runs out, so
        # the schedule is patched to fail should the bound ever let it through
        def schedule(*args):
            raise AssertionError("scheduled")

        monkeypatch.setattr(busring, "_schedule_ring", schedule)
        cfg = tmp_path / "line.json"
        cfg.write_text('{"duration_s": 1e9}')
        assert harness.main(["--out", str(tmp_path / "out"), "bus-bench", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "duration 1000000000.0" in err[0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0]),
                    min_size=1, max_size=40))
    def test_median_is_numpy_median_bit_for_bit(self, values):
        # odd and even counts, ties and signed zeros among them
        a = np.array(values)
        assert np.float64(harness._median(a)).tobytes() == np.median(a).tobytes()


# ---------------------------------------------------------------------------
# analyzer edge cases on synthetic traces
# ---------------------------------------------------------------------------

def _tiny_result(columns, data):
    return plant.ScenarioResult(scenario=None, columns=columns,
                                data=np.asarray(data, dtype=float))


class TestAnalyzeEdges:
    def test_empty_trace_raises(self):
        r = _tiny_result(["t", "mode"], np.zeros((0, 2)))
        with pytest.raises(harness.EmptyTraceError):
            harness.analyze_trace(r)

    def test_plot_spec_without_panels_rejected(self, swim_dir):
        trace = plant.ScenarioResult.read_csv(
            str(swim_dir / "mini_swim_trace.csv"))
        with pytest.raises(harness.HarnessError):
            harness.render_svg(trace, {"panels": []})

    def test_early_switch_latency_not_negative(self):
        # the analysis looks for the foot-sum crossing from the supervisor's
        # own hold-off on; this run switches at the first polls after it
        sc = plant.Scenario(name="early", terrain="shoreline", duration_s=0.8,
                            advance_speed=0.08, x_start=0.3, seed=2,
                            window_start=0.2)
        result = plant.run_scenario(sc)
        assert result.switch_time == pytest.approx(0.06)
        m = {x.name: x for x in harness.analyze_trace(result, sc).metrics}
        assert m["transition_latency"].value >= 0.0
        assert m["transition_latency"].verdict == "pass"
