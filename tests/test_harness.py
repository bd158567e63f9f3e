"""Harness tests: estimators, metric reports, CLI round trips.

Estimator oracles are synthesized sinusoids with known frequency and
phase.  CLI tests drive main() on a short swimming scenario shared by
the module so the plant runs once.
"""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amphisense import busring, calibration, harness, magnetics, plant

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
        "run_of_zero_ticks": (
            "run", '{"name": "z", "duration_s": 0.001, "dt": 0.01, "window_start": 0}', None, 2),
        # a size beyond any address space, so the allocation fails at once
        "run_too_long_to_allocate": ("run", '{"duration_s": 1e13}', None, 2),
        # refused by the ring's module-count bound before anything is allocated
        "line_too_many_modules_to_allocate": (
            "bus-bench", '{"n_modules": 100000000000000000, "duration_s": 0.01}', None, 2),
        "line_module_ids_past_one_byte": ("bus-bench", '{"n_modules": 257}', None, 2),
        # refused as the line file is read, before any ring runs: 10^400 is
        # past the float range, where the byte time or the motor budget used
        # to raise OverflowError
        "line_bits_per_byte_past_float": (
            "bus-bench", '{"duration_s": 0.03125, "bits_per_byte": 1%s}' % ("0" * 400),
            None, 2),
        "line_n_motors_past_float": ("bus-bench", '{"n_motors": 1%s}' % ("0" * 400), None, 2),
        "line_zero_n_motors": ("bus-bench", '{"n_motors": 0}', None, 2),
        "line_negative_t_read": ("bus-bench", '{"t_read": -1.0}', None, 2),
        "line_flip_rate_past_one": ("bus-bench", '{"flip_rate": 1.5, "duration_s": 0.05}',
                                    None, 2),
        # 10^400 baud underflows the byte time to 0: zero-length frames, and
        # with no gap a zero timeout
        "line_baud_past_float": (
            "bus-bench", '{"duration_s": 0.03125, "baud": 1%s}' % ("0" * 400), None, 2),
        "line_baud_past_float_no_gap": (
            "bus-bench", '{"duration_s": 0.03125, "baud": 1%s, "inter_frame_gap": 0}'
            % ("0" * 400), None, 2),
        "unknown_option": ("--bogus run", "{}", None, 2),
        "extra_positional": ("run extra", "{}", None, 2),
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
        "run_of_zero_ticks": "a run of no ticks",
        "run_too_long_to_allocate": "a run holds at most",
        "line_too_many_modules_to_allocate": "n_modules must be 1-256",
        "line_module_ids_past_one_byte": "n_modules must be 1-256",
        "line_bits_per_byte_past_float": "bits_per_byte must be a positive integer of at most",
        "line_n_motors_past_float": "n_motors must be an integer from 1 to",
        "line_zero_n_motors": "n_motors must be an integer from 1 to",
        "line_negative_t_read": "t_read must be positive",
        "line_flip_rate_past_one": "flip_rate must be at most 1",
        "line_baud_past_float": "baud must leave a positive byte time",
        "line_baud_past_float_no_gap": "baud must leave a positive byte time",
        "unknown_option": "unrecognized arguments: --bogus",
        "extra_positional": "unrecognized arguments:",
    }

    # cases refused before --out is made
    REFUSED_BEFORE_OUT = ("jig_unknown_kind", "line_bits_per_byte_past_float",
                          "line_n_motors_past_float", "line_zero_n_motors",
                          "line_negative_t_read", "line_flip_rate_past_one",
                          "line_baud_past_float", "line_baud_past_float_no_gap",
                          "unknown_option", "extra_positional")

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
        if case in ("run_shorter_than_window", "run_of_zero_ticks"):    # refused unstepped
            assert not [p for p in out.rglob("*") if p.is_file()]
        if case in self.REFUSED_BEFORE_OUT:
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

    @pytest.mark.parametrize("argv", [[], ["run"]])
    def test_missing_argument_exits_2_with_one_error_line(self, argv, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert harness.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("doc", [{"duration_s": 1e13}, {"duration_s": 1e300},
                                     {"duration_s": 1.0, "dt": 1e-300},
                                     {"duration_s": 800.0, "log_flux": list(plant.SENSOR_NAMES)}])
    def test_run_past_the_budget_exits_2_before_running(self, doc, tmp_path, monkeypatch,
                                                        capsys):
        # a run this long would allocate until the machine runs out, so the
        # run is patched to fail should the bound ever let it through
        def run_scenario(scenario):
            raise AssertionError("ran")

        monkeypatch.setattr(plant, "run_scenario", run_scenario)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert harness.main(["--out", str(out), "run", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a run holds at most" in err[0] and "(1024 MiB)" in err[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("doc, limit", [
        ({"n_units": 10 ** 6}, "n_units 1000000 and n_average 1 ask for 180175 MiB"),
        ({"kind": "flow", "n_units": 1, "n_average": 10 ** 9}, "n_average 1000000000"),
        ({"n_units": 10 ** 400}, "of foot bench rows")])
    def test_bench_past_the_budget_exits_2_before_simulating(self, doc, limit, tmp_path,
                                                            monkeypatch, capsys):
        # a bench this large would allocate until the machine runs out, so
        # the benches are patched to fail should the bound ever let it through
        def simulate_jigs(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(calibration, "simulate_jigs", simulate_jigs)
        cfg = tmp_path / "jig.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert harness.main(["--out", str(out), "calibrate", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and limit in err[0] and "calibrate holds at most 1024 MiB" in err[0]
        assert not out.exists()


# values a bus-bench config must refuse in any numeric field
BAD_VALUES = st.sampled_from([None, True, False, "x", "", [], [1.0], {}, float("nan"),
                              float("inf"), -1, -1.5, 10 ** 400])

# accepted values of each LineFile field: rings of at most 0.05 s on lines
# of at most 4 Mbaud, so at most 18k frames each
LINE_FIELDS = {
    "n_modules": st.integers(1, 12) | st.just(256),
    "duration_s": st.floats(1e-4, 0.05),
    "baud": st.integers(1, 4_000_000),
    "bits_per_byte": st.integers(1, 12),
    "inter_frame_gap": st.floats(0.0, 1e-4),
    "flip_rate": st.floats(0.0, 1.0),
    "kill_at": st.none() | st.floats(-0.01, 0.06),
    "expect_rate_hz": st.floats(0.0, 1e6),
    "n_motors": st.integers(1, 32),
    "t_write": st.floats(1e-7, 1e-3),
    "t_read": st.floats(1e-7, 1e-3),
    "seed": st.integers(0, 2 ** 70),
}

# values out of a field's range, besides BAD_VALUES; a duration of 1e15 s is
# over 2^23 frames of any line above, so it is refused before scheduling
OUT_OF_RANGE = {
    "n_modules": st.sampled_from([0, 257, 10 ** 17]),
    "duration_s": st.just(0.0) | st.floats(1e15, 1e300),
    "baud": st.just(0),
    "bits_per_byte": st.just(0),
    "flip_rate": st.floats(1.0, 10.0, exclude_min=True),
    "n_motors": st.just(0),
    "t_write": st.just(0.0),
    "t_read": st.just(0.0),
}


@st.composite
def line_documents(draw):
    """LineFile documents: duration_s (whose default is 2 s) and some of the
    other fields accepted, then up to two fields wrong in type or range."""
    doc = draw(st.fixed_dictionaries({"duration_s": LINE_FIELDS["duration_s"]}, optional={
        k: v for k, v in LINE_FIELDS.items() if k != "duration_s"}))
    for name in draw(st.lists(st.sampled_from(sorted(LINE_FIELDS)), max_size=2, unique=True)):
        doc[name] = draw(OUT_OF_RANGE.get(name, BAD_VALUES) | BAD_VALUES)
    return doc


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

    # a warning printed beside the error line breaks the one-line contract
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(line_documents())
    def test_contract_over_generated_documents(self, doc):
        # exit 0, 1 or 2; exit 2 prints one error line and no traceback, and
        # nothing lands outside --out.  A duration past 0.05 s is past the
        # ring's frame bound, so it must be refused before it is scheduled
        schedule = busring._schedule_ring

        def short_only(n, config, duration, *args):
            assert duration <= 0.05, "a long ring was scheduled"
            return schedule(n, config, duration, *args)

        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(busring, "_schedule_ring", short_only), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            cfg = f"{root}/line.json"
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            out = f"{root}/a/out"
            code = harness.main(["--out", out, "bus-bench", cfg])
            written = sorted(str(p) for p in pathlib.Path(root).rglob("*")
                             if p.is_file())
        assert code in (0, 1, 2)
        assert all(p == cfg or p.startswith(out + "/") for p in written), written
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert f"{out}/bus_bench.json" in written

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0]),
                    min_size=1, max_size=40))
    def test_median_is_numpy_median_bit_for_bit(self, values):
        # odd and even counts, ties and signed zeros among them
        a = np.array(values)
        assert np.float64(harness._median(a)).tobytes() == np.median(a).tobytes()


# accepted values of each Scenario field: runs of at most 0.2 s at a dt of
# 1-10 ms, so at most 200 ticks each
RUN_FIELDS = {
    "name": st.sampled_from(["gen", "a.b-c_1"]),
    "terrain": st.sampled_from(["floor", "water", "shoreline"]),
    "x_waterline": st.floats(-0.5, 0.5),
    "duration_s": st.floats(1e-3, 0.2),
    "dt": st.floats(1e-3, 1e-2),
    "drive": st.floats(0.0, 6.0),
    "feedback": st.booleans(),
    "drive_switch_t": st.none() | st.floats(0.0, 0.3),
    "advance_speed": st.floats(0.0, 0.2),
    "swim_speed": st.floats(0.0, 0.5),
    "x_start": st.floats(-0.5, 0.5),
    "total_mass_kg": st.floats(0.5, 4.0),
    "noise_sigma_mt": st.floats(0.0, 0.05),
    "gain": st.floats(0.0, 1.5),
    "seed": st.integers(0, 2 ** 70),
    "window_start": st.floats(0.0, 0.2),
    "log_flux": st.lists(st.sampled_from(plant.SENSOR_NAMES), max_size=3, unique=True),
}

# values out of a Scenario field's range, drawn beside BAD_VALUES (a run
# takes some of those, such as -1 for x_start); a duration of 1e6 s or a dt
# of 1e-300 s is past a run's budget, so it is refused before the run starts
RUN_OUT_OF_RANGE = {
    "name": st.sampled_from(["", "../x", "a b"]),
    "terrain": st.just("lava"),
    "duration_s": st.just(0.0) | st.floats(1e6, 1e300),
    "dt": st.sampled_from([0.0, 1e-300, 0.011, 1.0]),
    "log_flux": st.sampled_from([["foot_xx"], ["foot_fl", "foot_fl"]]),
}

# accepted values of each JigFile field: at most two units, eight draws a point
JIG_FIELDS = {
    "kind": st.sampled_from(["foot", "flow"]),
    "n_units": st.integers(1, 2),
    "noise_sigma": st.floats(0.0, 0.05),
    "n_average": st.integers(1, 8),
    "lever": st.none() | st.floats(5.0, 40.0),
    "seed": st.integers(0, 2 ** 70),
    "torque_band": st.none() | st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
    "force_band": st.none() | st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
    "rmse_max": st.none() | st.floats(0.0, 10.0),
}

# values out of a JigFile field's range, drawn beside BAD_VALUES; 10^9 units
# or draws are past calibrate's budget, so they are refused before any bench
JIG_OUT_OF_RANGE = {
    "kind": st.just("wing"),
    "n_units": st.sampled_from([0, 10 ** 9]),
    "n_average": st.sampled_from([0, 10 ** 9]),
    "torque_band": st.just([1.0]),
    "force_band": st.just([1.0, 2.0, 3.0]),
}


@st.composite
def config_documents(draw, fields, out_of_range, always):
    """Config documents: the keys in always and some of the other fields
    accepted, then up to two fields wrong in type or range, and maybe one
    unknown key."""
    doc = draw(st.fixed_dictionaries({k: fields[k] for k in always}, optional={
        k: v for k, v in fields.items() if k not in always}))
    for name in draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True)):
        doc[name] = draw(out_of_range.get(name, BAD_VALUES) | BAD_VALUES)
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["dragg", "duration", "n_modules"]))] = 1
    return doc


def _main_on_generated(command, doc, outputs):
    """harness.main on doc written as a config file; asserts the CLI contract:
    exit 0, 1 or 2, one error line and no traceback on 2, and nothing
    written outside --out (where exit 0 or 1 wrote the named outputs)."""
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = f"{root}/config.json"
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out = f"{root}/a/out"
        code = harness.main(["--out", out, command, cfg])
        written = sorted(str(p) for p in pathlib.Path(root).rglob("*") if p.is_file())
    assert code in (0, 1, 2)
    assert all(p == cfg or p.startswith(out + "/") for p in written), written
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert {f"{out}/{name}" for name in outputs(doc)} <= set(written)


class TestCliContractGenerated:
    # a warning printed beside the error line breaks the one-line contract
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(config_documents(RUN_FIELDS, RUN_OUT_OF_RANGE, ("duration_s", "window_start")))
    def test_run_over_generated_documents(self, doc):
        # past the run's budget, a run must be refused before it starts
        run = plant.run_scenario

        def short_only(scenario):
            assert scenario.duration_s <= 0.2 and scenario.dt >= 1e-3, "a long run started"
            return run(scenario)

        with mock.patch.object(plant, "run_scenario", short_only):
            _main_on_generated("run", doc, lambda d: [f"{d.get('name', 'walk_floor')}_trace.csv",
                                                      f"{d.get('name', 'walk_floor')}_metrics.json"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=50, deadline=None)
    @given(config_documents(JIG_FIELDS, JIG_OUT_OF_RANGE, ("n_units",)))
    def test_calibrate_over_generated_documents(self, doc):
        # past calibrate's budget, a bench must be refused before it runs
        simulate = calibration.simulate_jigs

        def small_only(transduce, params, cfg, rngs):
            assert len(rngs) <= 2 and cfg.n_average <= 8, "a large bench ran"
            return simulate(transduce, params, cfg, rngs)

        with mock.patch.object(calibration, "simulate_jigs", small_only):
            _main_on_generated("calibrate", doc, lambda d: ["calibration_report.json"])


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
