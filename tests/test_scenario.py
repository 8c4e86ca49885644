import copy
import json

import pytest

from quasimeasure import ConfigError
from quasimeasure.cli import main
from quasimeasure.scenario import (
    Scenario,
    bundled_scenario_path,
    execute_scenario,
    load_scenario,
    run_scenario,
)


@pytest.fixture(scope="module")
def nonlinear_path():
    return bundled_scenario_path("nonlinear_example")


@pytest.fixture(scope="module")
def baseline_path():
    return bundled_scenario_path("measure_baseline")


def small_scenario_dict():
    return {
        "name": "mini",
        "frame": {"x_min": 0, "x_max": 10, "y_min": 0, "y_max": 10,
                  "nx": 64, "ny": 64},
        "seed": 0,
        "measures": {
            "crossing": {
                "kind": "point_count",
                "points": [[5.37, 5.63], [6.21, 6.17], [6.73, 5.29],
                           [2.31, 6.43], [6.43, 2.31]],
                "value_by_count": [0, 0, 0.5, 0.5, 1, 1],
            }
        },
        "regions": {
            "K": {"kind": "rect", "bounds": [1, 7, 5, 7], "role": "compact"},
            "U": {"kind": "rect", "bounds": [0.5, 7.5, 4.5, 7.5], "role": "open"},
        },
        "fields": {
            "f": {"kind": "plateau", "inner": "K", "outer": "U",
                  "height": 1.0, "ramp": 0.25},
        },
        "checks": [
            {"check": "nonlinearity_example"},
            {"check": "homogeneity", "measure": "crossing", "trials": 5},
        ],
    }


class TestBundledScenarios:
    def test_nonlinear_example_passes(self, nonlinear_path, tmp_path):
        code = run_scenario(nonlinear_path, out_dir=tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"]
        triple = report["checks"]["nonlinearity_example"]["details"]["1.0"]
        assert (triple["rho_f"], triple["rho_g"], triple["rho_sum"]) == (1.0, 1.0, 1.5)
        for name in ("distribution_crossing_f.csv", "distribution_crossing_h.csv",
                     "field_h.csv", "reconstruction_crossing_core.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_measure_baseline_passes(self, baseline_path):
        assert run_scenario(baseline_path) == 0

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_scenario_path("no_such_scenario")


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, nonlinear_path):
        scenario = load_scenario(nonlinear_path)
        r1 = execute_scenario(scenario, out_dir=None)
        r2 = execute_scenario(scenario, out_dir=None)
        a, b = copy.deepcopy(r1), copy.deepcopy(r2)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_threads_do_not_change_results(self, nonlinear_path):
        scenario = load_scenario(nonlinear_path)
        serial = execute_scenario(scenario, threads=1)
        parallel = execute_scenario(scenario, threads=4)
        serial.pop("timing")
        parallel.pop("timing")
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


class TestValidation:
    def test_unknown_top_level_key(self):
        data = small_scenario_dict()
        data["extra"] = 1
        with pytest.raises(ConfigError, match=r"\$: unknown keys"):
            Scenario(data)

    def test_missing_frame(self):
        data = small_scenario_dict()
        del data["frame"]
        with pytest.raises(ConfigError, match="missing keys"):
            Scenario(data)

    def test_undefined_field_reference(self):
        data = small_scenario_dict()
        data["checks"].append({"check": "linear_agreement",
                               "measure": "crossing", "field": "ghost"})
        with pytest.raises(ConfigError, match="ghost"):
            Scenario(data)

    def test_undefined_measure(self):
        data = small_scenario_dict()
        data["checks"][1]["measure"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            Scenario(data)

    def test_unknown_check(self):
        data = small_scenario_dict()
        data["checks"].append({"check": "flux_capacitor"})
        with pytest.raises(ConfigError, match="flux_capacitor"):
            Scenario(data)

    def test_unknown_check_key(self):
        data = small_scenario_dict()
        data["checks"][1]["bogus"] = True
        with pytest.raises(ConfigError, match=r"checks\[1\]"):
            Scenario(data)

    def test_cyclic_fields(self):
        data = small_scenario_dict()
        data["fields"]["a"] = {"kind": "sum", "of": ["a", "f"]}
        with pytest.raises(ConfigError, match="unresolved"):
            Scenario(data)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(p)

    def test_resolution_override(self, nonlinear_path):
        scenario = load_scenario(nonlinear_path, resolution=96)
        assert scenario.frame.nx == scenario.frame.ny == 96


class TestFieldBuilders:
    def test_inline_rect_outer(self):
        data = small_scenario_dict()
        data["fields"]["bump"] = {"kind": "plateau", "outer": [2, 4, 2, 4],
                                  "height": 1.0, "ramp": 0.3}
        s = Scenario(data)
        assert "bump" in s.fields

    def test_sum_scale_truncate(self):
        data = small_scenario_dict()
        data["fields"]["double"] = {"kind": "scale", "field": "f", "factor": 2.0}
        data["fields"]["both"] = {"kind": "sum", "of": ["f", "double"]}
        data["fields"]["low"] = {"kind": "truncate", "field": "both", "delta": 0.5}
        s = Scenario(data)
        from quasimeasure import sup_norm

        assert sup_norm(s.fields["both"]) == 3.0
        assert sup_norm(s.fields["low"]) == 0.5


class TestCli:
    def test_run_bundled_by_name(self, capsys):
        assert main(["run", "measure_baseline"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_missing_file_is_config_error(self, capsys):
        assert main(["run", "/no/such/file.json"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_failing_check_exit_code(self, tmp_path, capsys):
        data = small_scenario_dict()
        # density measure cannot hit a compact box at point-count tolerance
        data["measures"]["flat"] = {"kind": "density", "density": 1.0}
        data["regions"]["box"] = {"kind": "rect", "bounds": [2, 5, 2, 5],
                                  "role": "compact"}
        data["checks"] = [{"check": "roundtrip", "measure": "flat",
                           "regions": ["box"], "rt_tol": 1e-9}]
        p = tmp_path / "fail.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["passed"]

    @pytest.mark.parametrize("section, name, key, value", [
        ("measures", "lebesgue", "density", -1.0),
        ("measures", "lebesgue", "density", "x"),
        ("measures", "spikes", "weights", [1.0, 2.5]),
        ("fields", "mesa", "delta", -0.5),
        ("regions", "tent_base", "bounds", ["a", 1, 2, 3]),
        ("fields", "half_tent", "factor", "x"),
    ])
    def test_construction_error_names_its_path(self, baseline_path, tmp_path, capsys,
                                                section, name, key, value):
        data = json.loads(baseline_path.read_text())
        data[section][name][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p)]) == 2
        assert f"$.{section}.{name}: " in capsys.readouterr().err

    def test_resolution_flag(self, tmp_path):
        data = small_scenario_dict()
        data["checks"] = [{"check": "nonlinearity_example"}]
        p = tmp_path / "hires.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--resolution", "128"]) == 0

    def test_seed_override(self, tmp_path):
        p = tmp_path / "mini.json"
        p.write_text(json.dumps(small_scenario_dict()))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(p), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["run", str(p), "--seed", "7", "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("timing")
        r2.pop("timing")
        assert r1 == r2 and r1["seed"] == 7
