import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasimeasure
from quasimeasure import ConfigError
from quasimeasure.cli import main
from quasimeasure.grid import MAX_CELLS
from quasimeasure.presets import (
    crossing_fields,
    crossing_measure,
    crossing_regions,
    crossing_sum,
    standard_frame,
)
from quasimeasure.scenario import (
    _CHECKS,
    _KEYS,
    _KINDS,
    Scenario,
    _keys,
    bundled_scenario_path,
    execute_scenario,
    load_scenario,
    run_scenario,
)

from conftest import same_region


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
        assert report["checks"]["sga_additivity_2"]["name"] == "sga_additivity"
        for name in ("distribution_crossing_f.csv", "distribution_crossing_h.csv",
                     "field_h.csv", "reconstruction_crossing_core.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_measure_baseline_passes(self, baseline_path):
        assert run_scenario(baseline_path) == 0

    def test_every_check_is_timed_under_its_label(self, baseline_path):
        report = execute_scenario(load_scenario(baseline_path))
        labels = {"linear_agreement", "linear_agreement_2", "linear_agreement_3",
                  "tm_axioms", "tm_axioms_2", "roundtrip", "homogeneity", "positivity",
                  "extension_consistency", "distribution_invariants"}
        wall_times = report["timing"]["wall_times"]
        assert set(wall_times) == set(report["checks"]) == labels
        assert all(t > 0 for t in wall_times.values())

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_scenario_path("no_such_scenario")

    @pytest.mark.parametrize("n", [64, 128])
    def test_nonlinear_example_is_the_preset(self, nonlinear_path, n):
        """The crossed configuration is written down twice, in presets.py,
        which the nonlinearity_example check reads, and in the bundled
        scenario, which its other checks read: the two build the same
        measure, regions and fields, byte for byte."""
        scenario, frame = load_scenario(nonlinear_path, resolution=n), standard_frame(n)
        assert scenario.frame == frame
        mu, preset = scenario.measures["crossing"], crossing_measure()
        assert mu.points.tobytes() == preset.points.tobytes()
        assert mu.value_by_count.tobytes() == preset.value_by_count.tobytes()
        regions = crossing_regions(frame)
        assert list(scenario.regions) == list(regions)
        assert all(same_region(scenario.regions[name], r) for name, r in regions.items())
        f, g = crossing_fields(frame)
        for name, field in (("f", f), ("g", g), ("h", crossing_sum(frame))):
            assert scenario.fields[name].values.tobytes() == field.values.tobytes()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["nonlinear_example", "measure_baseline"])
    def test_reports_identical_modulo_timing(self, name):
        scenario = load_scenario(bundled_scenario_path(name))
        r1 = execute_scenario(scenario, out_dir=None)
        r2 = execute_scenario(scenario, out_dir=None)
        a, b = copy.deepcopy(r1), copy.deepcopy(r2)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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

    def test_two_field_cycle(self):
        data = small_scenario_dict()
        data["fields"]["a"] = {"kind": "scale", "field": "b", "factor": 2.0}
        data["fields"]["b"] = {"kind": "sum", "of": ["f", "a"]}
        with pytest.raises(ConfigError, match=r"\$\.fields\.b\.of\[1\]: unresolved"):
            Scenario(data)

    @pytest.mark.parametrize("spec, where", [
        ({"kind": "sum", "of": ["f", "ghost"]}, "of[1]"),
        ({"kind": "truncate", "field": "ghost", "delta": 0.5}, "field"),
    ])
    def test_missing_field_reference_names_its_key(self, spec, where):
        data = small_scenario_dict()
        data["fields"]["x"] = spec
        with pytest.raises(ConfigError) as exc:
            Scenario(data)
        assert str(exc.value).startswith(f"$.fields.x.{where}: undefined field 'ghost'")

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(p)

    def test_b_is_an_unknown_key(self):
        data = small_scenario_dict()
        data["checks"][0]["b"] = 1.0
        with pytest.raises(ConfigError, match=r"^\$\.checks\[0\]: unknown keys \['b'\]"):
            Scenario(data)

    def test_resolution_override(self, nonlinear_path):
        scenario = load_scenario(nonlinear_path, resolution=96)
        assert scenario.frame.nx == scenario.frame.ny == 96

    @pytest.mark.parametrize("name", sorted(_CHECKS))
    def test_check_keeps_its_name_and_docstring(self, name):
        fn = _CHECKS[name]
        assert fn.__name__ == f"check_{name}"
        assert fn.__doc__
        # the crossed-plateau configuration is fixed: its check takes no key
        assert bool(_keys(fn)) == (name != "nonlinearity_example")

    def test_keys_pass_distinct_arguments(self):
        # a function's keys are read from its signature, one per argument
        arguments = [arg for arg, _ in _KEYS.values()]
        assert len(set(arguments)) == len(arguments)


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

    def test_field_defined_after_its_use(self):
        data = small_scenario_dict()
        data["fields"] = {"both": {"kind": "sum", "of": ["f", "double"]},
                          **data["fields"],
                          "double": {"kind": "scale", "field": "f", "factor": 2.0}}
        s = Scenario(data)
        from quasimeasure import sup_norm

        assert sup_norm(s.fields["both"]) == 3.0


class TestCli:
    def test_run_bundled_by_name(self, capsys):
        assert main(["run", "measure_baseline"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_missing_file_is_config_error(self, capsys):
        assert main(["run", "/no/such/file.json"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_directory_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert "configuration error: cannot read scenario file" in capsys.readouterr().err

    def test_failing_check_exit_code(self, tmp_path, capsys):
        data = small_scenario_dict()
        # a density measure's compact box is overshot by its ramp ring, past
        # the density's own bound
        data["measures"]["flat"] = {"kind": "density", "density": 1.0}
        data["regions"]["box"] = {"kind": "rect", "bounds": [2, 5, 2, 5],
                                  "role": "compact"}
        data["checks"] = [{"check": "roundtrip", "measure": "flat", "regions": ["box"]}]
        p = tmp_path / "fail.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert not report["passed"]

    @pytest.mark.parametrize("section, name, key, value", [
        ("measures", "lebesgue", "density", -1.0),
        ("measures", "spikes", "weights", [1.0, 2.5]),
        ("fields", "mesa", "delta", -0.5),
    ])
    def test_construction_error_names_its_path(self, baseline_path, tmp_path, capsys,
                                                section, name, key, value):
        data = json.loads(baseline_path.read_text())
        data[section][name][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p)]) == 2
        assert f"$.{section}.{name}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name, edits, args, where", [
        ("measure_baseline", {("checks", 6, "trials"): "many"}, [], "$.checks[6].trials"),
        ("measure_baseline", {("fields", "tent", "ramp"): "tight"}, [], "$.fields.tent.ramp"),
        ("measure_baseline", {("checks", 0, "variant"): "C"}, [], "$.checks[0].variant"),
        ("measure_baseline", {("checks", 0, "field"): ["tent"]}, [], "$.checks[0].field"),
        ("measure_baseline", {("seed",): "x"}, [], "$.seed"),
        ("measure_baseline", {("measures",): []}, [], "$.measures"),
        ("nonlinear_example", {("fields", "h", "of"): [["f"], "g"]}, [], "$.fields.h.of[0]"),
        ("measure_baseline", {("artifacts", "distributions", 0, "variant"): "Z"}, [],
         "$.artifacts.distributions[0].variant"),
        ("nonlinear_example", {("measures", "crossing", "points", 3): [3.125, 6.43]},
         ["--resolution", "128"], "$.measures.crossing"),
        ("nonlinear_example", {}, ["--resolution", "32"], "$.checks[0]"),
        ("nonlinear_example", {("regions", "core", "bounds"): [0.01, 2, 0.01, 2]}, [],
         "$.checks[2]"),
        ("nonlinear_example", {("checks", 2, "regions"): "K"}, [], "$.checks[2].regions"),
        ("measure_baseline", {
            ("regions", "edge"): {"kind": "rect", "bounds": [0.01, 2, 0.01, 2]},
            ("artifacts", "reconstruction_traces"): [{"measure": "spikes", "region": "edge"}],
        }, [], "$.artifacts.reconstruction_traces[0]"),
        # scenario values are checked, not coerced: bool("false") is True
        ("measure_baseline", {("measures", "lebesgue", "unbounded"): "false"}, [],
         "$.measures.lebesgue.unbounded"),
        ("measure_baseline", {("measures", "lebesgue", "density"): "2"}, [],
         "$.measures.lebesgue.density"),
        ("measure_baseline", {("measures", "lebesgue", "density"): "x"}, [],
         "$.measures.lebesgue.density"),
        ("measure_baseline", {("frame", "nx"): 64.7}, [], "$.frame.nx"),
        ("measure_baseline", {("frame", "y_max"): "10"}, [], "$.frame.y_max"),
        ("measure_baseline", {("regions", "tent_base", "bounds"): ["a", 1, 2, 3]}, [],
         "$.regions.tent_base.bounds[0]"),
        ("nonlinear_example", {("fields", "f", "inner"): [1, 7, 5, "7"]}, [],
         "$.fields.f.inner[3]"),
        # inverted or degenerate bounds would make a silently empty rectangle
        ("nonlinear_example", {("regions", "K", "bounds"): [13, 7, 5, 7]}, [],
         "$.regions.K.bounds: expected x0 < x1 and y0 < y1, got [13, 7, 5, 7]"),
        ("nonlinear_example", {("regions", "core", "bounds"): [5, 7, 5, 5]}, [],
         "$.regions.core.bounds"),
        ("nonlinear_example", {("fields", "f", "inner"): [7, 1, 5, 7]}, [],
         "$.fields.f.inner"),
        ("nonlinear_example", {("fields", "g", "outer"): [4.5, 7.5, 7.5, 0.5]}, [],
         "$.fields.g.outer"),
        ("nonlinear_example", {("fields", "f", "height"): "1"}, [], "$.fields.f.height"),
        ("nonlinear_example", {("fields", "g", "ramp"): True}, [], "$.fields.g.ramp"),
        ("measure_baseline", {("fields", "half_tent", "factor"): "x"}, [],
         "$.fields.half_tent.factor"),
        ("measure_baseline", {("fields", "mesa", "delta"): [0.6]}, [], "$.fields.mesa.delta"),
        # measure arrays are checked entry by entry, not coerced by numpy
        ("measure_baseline", {("measures", "spikes", "weights"): ["1.0", "2.5", "0.25"]}, [],
         "$.measures.spikes.weights[0]"),
        ("measure_baseline", {("measures", "spikes", "weights"): [True, True, False]}, [],
         "$.measures.spikes.weights[0]"),
        ("measure_baseline", {("measures", "spikes", "weights"): 1.0}, [],
         "$.measures.spikes.weights"),
        ("measure_baseline", {("measures", "spikes", "points", 1): ["6.47", 2.93]}, [],
         "$.measures.spikes.points[1][0]"),
        ("measure_baseline", {("measures", "spikes", "points"): [3.13, 7.21, 6.47, 2.93,
                                                                 5.11, 5.57]}, [],
         "$.measures.spikes.points[0]"),
        ("nonlinear_example", {("measures", "crossing", "value_by_count", 2): "0.5"}, [],
         "$.measures.crossing.value_by_count[2]"),
        ("nonlinear_example", {("measures", "crossing", "points", 0): [5.37, 5.63, 1.0]}, [],
         "$.measures.crossing.points[0]"),
        # no trials is a configuration error
        ("measure_baseline", {("checks", 6, "trials"): 0}, [], "$.checks[6]"),
        ("measure_baseline", {("checks", 6, "trials"): -3}, [], "$.checks[6]"),
        # nor is a check that would compare nothing
        ("measure_baseline", {("checks", 5, "regions"): []}, [], "$.checks[5]"),
        # a sum of one field, and a scenario with no check
        ("nonlinear_example", {("fields", "h", "of"): ["f"]}, [],
         "$.fields.h.of: expected a list of at least two field names, got ['f']"),
        ("measure_baseline", {("checks",): []}, [], "$.checks"),
        # a check's fixed bounds, coefficients and slices, and an interior's
        # margin of one ring, are no scenario keys
        *[(name, {("checks", i, "tol"): 1e-6}, [], f"$.checks[{i}]: unknown keys ['tol']")
          for name, i in [("nonlinear_example", 0), ("nonlinear_example", 3),
                          ("nonlinear_example", 5), ("nonlinear_example", 6),
                          ("measure_baseline", 3), ("measure_baseline", 6),
                          ("measure_baseline", 8), ("measure_baseline", 9)]],
        ("measure_baseline", {("checks", 6, "coeffs"): [2.0]}, [],
         "$.checks[6]: unknown keys ['coeffs']"),
        ("measure_baseline", {("checks", 8, "ns"): [2]}, [], "$.checks[8]: unknown keys ['ns']"),
        ("nonlinear_example", {("regions", "interior", "margin"): 1}, [],
         "$.regions.interior: unknown keys ['margin']"),
        # nor are the bounds and the schedule that the measure fixes, the
        # crossed plateaus' heights, or an interior's role, which is open
        ("measure_baseline", {("checks", 0, "tol"): 5e-3}, [],
         "$.checks[0]: unknown keys ['tol']"),
        ("measure_baseline", {("checks", 5, "rt_tol"): 1e-9}, [],
         "$.checks[5]: unknown keys ['rt_tol']"),
        ("measure_baseline", {("checks", 5, "max_steps"): 8}, [],
         "$.checks[5]: unknown keys ['max_steps']"),
        ("nonlinear_example", {("checks", 0, "heights"): [0.5, 1.0, 2.0]}, [],
         "$.checks[0]: unknown keys ['heights']"),
        ("nonlinear_example", {("regions", "interior", "role"): "open"}, [],
         "$.regions.interior: unknown keys ['role']"),
        # json reads NaN and Infinity: a scenario number must be finite
        ("measure_baseline", {("fields", "half_tent", "factor"): math.nan}, [],
         "$.fields.half_tent.factor"),
        ("measure_baseline", {("measures", "spikes", "points", 1, 0): math.nan}, [],
         "$.measures.spikes.points[1][0]"),
        ("nonlinear_example", {("measures", "crossing", "value_by_count", 5): math.nan}, [],
         "$.measures.crossing.value_by_count[5]"),
        ("measure_baseline", {("frame", "x_max"): math.inf}, [], "$.frame.x_max"),
        # finite extents whose width overflows to an infinite cell
        ("measure_baseline", {("frame", "x_min"): -1e308, ("frame", "x_max"): 1e308}, [],
         "$.frame"),
        # and integers of any size: this one has no float
        ("measure_baseline", {("fields", "half_tent", "factor"): 10 ** 400}, [],
         "$.fields.half_tent.factor"),
        # the name is copied into report.json
        ("measure_baseline", {("name",): {"a": 1}}, [], "$.name"),
        # a positive width whose cell underflows to 0, and finite cells whose
        # area overflows
        ("measure_baseline", {("frame", "x_max"): 5e-324}, [], "$.frame"),
        ("measure_baseline", {("frame", "x_max"): 1e300, ("frame", "y_max"): 1e300}, [],
         "$.frame"),
        # each CSV is a plain file name of its own: no path, and no name that
        # another artifact, of another variant or split, resolves to
        ("measure_baseline", {("measures", "a/b"): {"kind": "density", "density": 1.0},
                              ("artifacts", "distributions", 1, "measure"): "a/b"}, [],
         "$.artifacts.distributions[1]"),
        ("measure_baseline", {("measures", "a\0"): {"kind": "density", "density": 1.0},
                              ("artifacts", "distributions", 1, "measure"): "a\0"}, [],
         "$.artifacts.distributions[1]"),
        ("measure_baseline", {("artifacts", "distributions", 1): {
            "measure": "lebesgue", "field": "tent", "variant": "A"}}, [],
         "$.artifacts.distributions[1]"),
        ("measure_baseline", {("measures", "lebesgue_half"): {"kind": "density", "density": 1.0},
                              ("artifacts", "distributions", 0, "field"): "half_tent",
                              ("artifacts", "distributions", 1): {
                                  "measure": "lebesgue_half", "field": "tent"}}, [],
         "$.artifacts.distributions[1]"),
    ])
    def test_malformed_scenario_exits_2_before_any_report(self, tmp_path, capsys, name,
                                                          edits, args, where):
        data = json.loads(bundled_scenario_path(name).read_text())
        for keys, value in edits.items():
            _set_leaf(data, keys, value)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out), *args]) == 2
        # where is the fault's path, or its path and the whole message
        err = capsys.readouterr().err
        assert f"{where}: " in err or err.endswith(f"{where}\n")
        assert not (out / "report.json").exists()

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


# a valid value of every key that a measure, region, field or artifact takes,
# naming small_scenario_dict's objects
_SAMPLE = {
    "density": 1.0, "unbounded": False, "points": [[2.31, 6.43]], "value_by_count": [0, 1],
    "weights": [1.0], "bounds": [2, 6, 2, 6], "role": "open",
    "inner": "K", "outer": "U", "height": 1.0, "ramp": 0.25, "of": ["f", "f"],
    "field": "f", "factor": 2.0, "delta": 0.5,
    "measure": "crossing", "variant": "B", "region": "K",
}
# (section, kind, key, value): each key that another kind of the section takes,
# on a kind that does not take it
_FOREIGN_KEYS = [
    (section, kind, key, _SAMPLE[key])
    for section, kinds in _KINDS.items() for kind, fn in kinds.items()
    for key in sorted({k for other in kinds.values() for k in _keys(other)} - set(_keys(fn)))
]


@pytest.mark.parametrize("section, kind, key, value", _FOREIGN_KEYS)
def test_key_a_kind_does_not_take_exits_2(tmp_path, capsys, section, kind, key, value):
    data = small_scenario_dict()
    spec = {k: _SAMPLE[k] for k in _keys(_KINDS[section][kind])}
    if section == "artifacts":
        data["artifacts"], where = {kind: [spec]}, f"$.artifacts.{kind}[0]"
    else:
        spec["kind"] = kind
        data[section]["x"], where = spec, f"$.{section}.x"
    Scenario(copy.deepcopy(data))
    spec[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["run", str(p)]) == 2
    assert f"{where}: " in capsys.readouterr().err


_SCENARIO_DIR = Path(__file__).parent / "scenarios"


def _csv_rows(path):
    return list(csv.reader(path.open()))


def _outside_atoms(out):
    # no atom in the frame: the layer cake and the linear oracle get an empty raster
    assert (out / "distribution_away_tent.csv").stat().st_size > 0


def _negated_field(out):
    assert (out / "distribution_lebesgue_neg.csv").stat().st_size > 0
    assert "-0.0" not in {v for row in _csv_rows(out / "field_neg.csv") for v in row}


def _spikes_neg(out):
    # atoms that miss the minimum of a negated field still start F there,
    # and variants A and B give the same rho
    first = float(_csv_rows(out / "distribution_spikes_neg.csv")[3][0])
    assert first == min(float(row[2]) for row in _csv_rows(out / "field_neg.csv")[1:])
    checks = json.loads((out / "report.json").read_text())["checks"]
    a, b = (checks[k]["details"]["quasi_integral"]
            for k in ("linear_agreement", "linear_agreement_2"))
    assert a == b


def _h_sga_additivity(out):
    # the golden f+g is not additive on its own subalgebra at 64²: the raster
    # loses the corridors narrower than a cell between its superlevel bands,
    # and the gap is seen where a pair of maps of h splits them
    (report,) = json.loads((out / "report.json").read_text())["checks"].values()
    assert (report["failures"], report["trials"]) == (41, 40)
    worst = report["worst"]
    assert {k: worst[k] for k in ("kind", "lhs", "rhs", "trial")} == {
        "kind": "pair", "lhs": 1.5, "rhs": 0.9708333333333332, "trial": 39}
    assert worst["violation"] == worst["lhs"] - worst["rhs"]


def _no_report(out):
    # an artifact that cannot be written fails the run before report.json
    assert not (out / "report.json").exists()


# file stem -> (exit code, text the run prints, check of its output directory)
_SCENARIO_FILES = {
    "outside_atoms": (0, "all checks passed", _outside_atoms),
    "negated_field": (0, "all checks passed", _negated_field),
    "spikes_neg": (0, "all checks passed", _spikes_neg),
    # nonlinear_example's h = f + g under sga_additivity, at the file's seed 0
    "h_sga_additivity": (1, "some checks failed", _h_sga_additivity),
    # an interior region is open, and takes no role
    "compact_interior": (2, "$.regions.I: unknown keys ['role']", None),
    "not_utf8": (2, "configuration error", None),
    # two distributions that differ only in variant would write one file
    "variant_pair": (2, "$.artifacts.distributions[1]: ", None),
    # a CSV name longer than the file system allows
    "long_name": (2, "$.artifacts.distributions[0]: ", _no_report),
    # F's breakpoints one ulp apart, and interval masses that round apart
    "third_density": (0, "all checks passed", None),
    # 10^12 cells: past the cell budget before any raster is built
    "huge_frame": (2, "$.frame: ", _no_report),
    # a bound that the measure now fixes is no key
    "retired_key": (2, "$.checks[0]: unknown keys ['tol']", _no_report),
    # x0 > x1 would rasterize to an empty rectangle
    "inverted_bounds": (2, "$.regions.K.bounds: ", _no_report),
}


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    """An --out that is an existing file is reported at its path, and nothing
    is written."""
    out = tmp_path / "taken"
    out.write_text("mine\n")
    assert main(["run", "nonlinear_example", "--out", str(out)]) == 2
    assert f"output directory {out}: " in capsys.readouterr().err
    assert out.read_text() == "mine\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("name", sorted(p.stem for p in _SCENARIO_DIR.glob("*.json")))
def test_scenario_file(tmp_path, capsys, name):
    """The scenario files that CI also runs through the installed entry point."""
    code, text, check = _SCENARIO_FILES[name]
    out = tmp_path / "out"
    assert main(["run", str(_SCENARIO_DIR / f"{name}.json"), "--out", str(out)]) == code
    printed = capsys.readouterr()
    assert text in printed.out + printed.err
    if check is not None:
        check(out)


# The child caps its own address space at 1 GiB before it imports numpy: a
# frame that got past the budget fails to allocate there instead of allocating.
_CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
               "from quasimeasure.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args", [
    [str(_SCENARIO_DIR / "huge_frame.json")],
    [str(_SCENARIO_DIR / "third_density.json"), "--resolution", "20000"],
], ids=["huge_frame", "resolution_20000"])
def test_frame_past_the_cell_budget_exits_2(tmp_path, args):
    """A frame past the cell budget exits 2 at $.frame, from the scenario file
    or from --resolution, with no traceback and nothing written."""
    env = dict(os.environ, PYTHONPATH=str(Path(quasimeasure.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "run", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error: $.frame: frame of ")
    assert f"exceeds the budget of {MAX_CELLS} cells" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def _set_leaf(data, keys, value):
    *parents, last = keys
    for key in parents:
        data = data[key]
    data[last] = value


def _leaves(node, keys=()):
    """Key paths of every non-container value in a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [keys]
    return [leaf for k, v in items for leaf in _leaves(v, (*keys, k))]


_BUNDLED = {name: json.loads(bundled_scenario_path(name).read_text())
            for name in ("nonlinear_example", "measure_baseline")}
_LEAVES = [(name, keys) for name, data in _BUNDLED.items() for keys in _leaves(data)]
# Numbers stay small: a scenario may ask for an nx-wide grid, and loading
# builds it.
_JSON_VALUES = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.integers(-3, 300), st.floats(-1e3, 1e3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(leaf=st.sampled_from(_LEAVES), value=_JSON_VALUES)
def test_mutated_scenario_loads_or_names_its_path(leaf, value):
    name, keys = leaf
    data = copy.deepcopy(_BUNDLED[name])
    _set_leaf(data, keys, value)
    try:
        Scenario(data)
    except ConfigError as exc:
        assert str(exc).startswith("$"), str(exc)


def _runnable(name):
    """A bundled scenario cut down to run in a fraction of a second: every
    `trials` is 2, and the frame is 64^2 (measure_baseline's is 128^2)."""
    data = copy.deepcopy(_BUNDLED[name])
    for check in data["checks"]:
        if "trials" in check:
            check["trials"] = 2
    data["frame"]["nx"] = data["frame"]["ny"] = 64
    return data


def _run_value(rng, old):
    """A JSON value: most often a number near a numeric leaf's own, else one
    of a random type. Integers stay small, so that no mutated frame or trial
    count makes a run slow."""
    kind = int(rng.integers(8))
    if isinstance(old, (int, float)) and not isinstance(old, bool) and kind < 4:
        return int(rng.integers(-3, 40)) if isinstance(old, int) else \
            float(old + rng.normal(0.0, 1.5))
    if kind == 0:
        return int(rng.integers(-3, 40))
    if kind == 1:
        return float(rng.uniform(-2.0, 12.0))
    if kind == 2:
        return str(rng.choice(["", "K", "f", "open", "compact", "x"]))
    if kind == 3:
        return [None, True, False][int(rng.integers(3))]
    if kind == 4:
        return rng.integers(-3, 12, size=int(rng.integers(4))).tolist()
    if kind == 5:
        return {"x": int(rng.integers(-3, 3))}
    return float(rng.uniform(0.0, 1.0))


def test_mutated_scenario_runs_to_an_exit_code(tmp_path, capsys):
    """Single-leaf mutations of the bundled scenarios, run through the CLI:
    each exits 0, 1 or 2, none raises, and every exit 2 names its path."""
    rng = np.random.default_rng(28)
    codes = []
    for i in range(60):
        name = sorted(_BUNDLED)[i % 2]
        data = _runnable(name)
        leaves = _leaves(data)
        keys = leaves[int(rng.integers(len(leaves)))]
        old = data
        for key in keys:
            old = old[key]
        _set_leaf(data, keys, _run_value(rng, old))
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (name, keys)
        if code == 2:
            assert err.startswith("configuration error: $"), (name, keys, err)
        codes.append(code)
    # the mutations reach both the runner and the loader's errors
    assert 0 in codes and 2 in codes
