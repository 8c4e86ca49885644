"""Scenario files: declarative frame/measure/field setups plus check lists.

A scenario is a JSON document; running it produces report.json and CSV
artifacts in an output directory. Reports are byte-deterministic for a
fixed scenario and seed: everything time-dependent is isolated under the
single "timing" key.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .errors import ConfigError, QuasimeasureError
from .fields import ScalarField, add, build_plateau, field_to_csv, scale, truncate
from .grid import Frame
from .integration import QuasiIntegral, distribution_function
from .measures import AtomicMeasure, DensityMeasure, PointCountMeasure, TopologicalMeasure
from .reconstruct import BumpSchedule, mu_rho_compact, mu_rho_open
from .regions import (COMPACT, OPEN, Region, empty_region, frame_interior, point_cells,
                      rect_region)

_FRAME_KEYS = {"x_min", "x_max", "y_min", "y_max", "nx", "ny"}
_TOP_KEYS = {"name", "frame", "seed", "measures", "regions", "fields", "checks",
             "artifacts"}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


@contextmanager
def _built_at(path: str):
    """Report an error from building or running a scenario object at its JSON
    path. The block must not raise ConfigError: its path would be prefixed twice."""
    try:
        yield
    except (ValueError, TypeError, ArithmeticError, QuasimeasureError) as exc:
        _fail(path, str(exc))


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    _expect(obj, dict, path)
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")


def _expect(obj, kind: type, path: str):
    if not isinstance(obj, kind):
        _fail(path, f"expected {'an object' if kind is dict else 'a list'}, "
                    f"got {type(obj).__name__}")
    return obj


# -- parsers of scenario values: (scenario, value, path) -> argument -------


def _int(scenario, value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _float(scenario, value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    # json reads the bare literals NaN and Infinity, and integers of any size;
    # the comparison is exact for an int and false for NaN
    if not -sys.float_info.max <= value <= sys.float_info.max:
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _bool(scenario, value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r}")
    return value


def _floats(scenario, value, path: str) -> tuple[float, ...]:
    return tuple(_float(scenario, v, f"{path}[{j}]")
                 for j, v in enumerate(_expect(value, list, path)))


def _points(scenario, value, path: str) -> tuple[tuple[float, ...], ...]:
    pairs = _expect(value, list, path)
    for j, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(f"{path}[{j}]", f"expected a point [x, y], got {pair!r}")
    return tuple(_floats(scenario, pair, f"{path}[{j}]") for j, pair in enumerate(pairs))


def _variant(scenario, value, path: str) -> str:
    if value not in ("A", "B"):
        _fail(path, f"variant must be 'A' or 'B', got {value!r}")
    return value


def _schedule(scenario, value, path: str) -> BumpSchedule:
    max_steps = _int(scenario, value, path)
    with _built_at(path):
        return BumpSchedule(max_steps=max_steps)


def _ref(table: str):
    """Parser of a name defined under $.<table>, resolved to its object."""
    kind = table[:-1]

    def parse(scenario, value, path: str):
        if not isinstance(value, str):
            _fail(path, f"expected a {kind} name, got {value!r}")
        defined = getattr(scenario, table)
        if value not in defined:
            _fail(path, f"undefined {kind} {value!r}")
        return defined[value]

    return parse


_measure, _field, _region = _ref("measures"), _ref("fields"), _ref("regions")


def _catalog(scenario, value, path: str) -> dict[str, Region]:
    # each name is checked before it is hashed as a key
    return {name: _region(scenario, name, f"{path}[{j}]")
            for j, name in enumerate(_expect(value, list, path))}


# scenario key of a check -> (parameter of the check function, parser)
_KEYS = {
    "measure": ("mu", _measure), "field": ("f", _field), "regions": ("catalog", _catalog),
    "b": ("b", _float), "heights": ("heights", _floats), "coeffs": ("coeffs", _floats),
    "ns": ("ns", _floats), "trials": ("trials", _int), "tol": ("tol", _float),
    "rt_tol": ("rt_tol", _float), "max_steps": ("schedule", _schedule),
    "variant": ("variant", _variant),
}

# check name -> (check function, the scenario keys it accepts). Absent keys
# are not passed, so every default lives in the check's signature, and a key
# is required exactly when its parameter has no default. seed and frame are
# supplied when the check runs, to the checks that take them.
_CHECKS = {
    "nonlinearity_example": (checks_mod.check_nonlinearity_example,
                             ("b", "heights", "tol")),
    "sga_additivity": (checks_mod.check_sga_additivity,
                       ("measure", "field", "trials", "tol")),
    "disjoint_support_additivity": (checks_mod.check_disjoint_support_additivity,
                                    ("measure", "trials", "tol")),
    "monotone_lipschitz": (checks_mod.check_monotone_lipschitz,
                           ("measure", "trials", "tol")),
    "homogeneity": (checks_mod.check_homogeneity,
                    ("measure", "trials", "tol", "coeffs")),
    "positivity": (checks_mod.check_positivity, ("measure", "trials")),
    "tm_axioms": (checks_mod.check_tm_axioms, ("measure", "tol")),
    "roundtrip": (checks_mod.check_roundtrip,
                  ("measure", "regions", "rt_tol", "max_steps")),
    "linear_agreement": (checks_mod.check_linear_agreement,
                         ("measure", "field", "tol", "variant")),
    "extension_consistency": (checks_mod.check_extension_consistency,
                              ("measure", "field", "ns", "tol")),
    "distribution_invariants": (checks_mod.check_distribution_invariants,
                                ("measure", "trials", "tol")),
}


class Scenario:
    """Validated scenario: named measures, regions and fields on one frame."""

    def __init__(self, data: dict, resolution: int | None = None):
        _require_keys(data, _TOP_KEYS, {"frame", "checks"}, "$")
        self.name = data.get("name", "scenario")
        self.seed = _int(self, data.get("seed", 0), "$.seed")
        self.frame = self._parse_frame(data["frame"], resolution)
        self.measures = self._parse_measures(data.get("measures", {}))
        self.regions = self._parse_regions(data.get("regions", {}))
        self.fields = self._parse_fields(data.get("fields", {}))
        self.checks = self._parse_checks(data["checks"])
        self.artifacts = self._parse_artifacts(data.get("artifacts", {}))

    # -- parsing -----------------------------------------------------

    def _parse_frame(self, obj, resolution):
        _require_keys(obj, _FRAME_KEYS, _FRAME_KEYS, "$.frame")
        x_min, x_max, y_min, y_max = (_float(self, obj[k], f"$.frame.{k}")
                                      for k in ("x_min", "x_max", "y_min", "y_max"))
        nx, ny = (_int(self, obj[k], f"$.frame.{k}") for k in ("nx", "ny"))
        if resolution is not None:
            nx = ny = int(resolution)
        with _built_at("$.frame"):
            return Frame(x_min, x_max, y_min, y_max, nx, ny)

    def _parse_measures(self, obj):
        measures: dict[str, TopologicalMeasure] = {}
        for name, spec in _expect(obj, dict, "$.measures").items():
            path = f"$.measures.{name}"
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind == "density":
                _require_keys(spec, {"kind", "density", "unbounded"}, set(), path)
                density = _float(self, spec.get("density", 1.0), f"{path}.density")
                unbounded = _bool(self, spec.get("unbounded", False), f"{path}.unbounded")
                with _built_at(path):
                    measures[name] = DensityMeasure(density, unbounded)
            elif kind in ("point_count", "atomic"):
                cls, key = ((PointCountMeasure, "value_by_count") if kind == "point_count"
                            else (AtomicMeasure, "weights"))
                _require_keys(spec, {"kind", "points", key}, {"points", key}, path)
                points = _points(self, spec["points"], f"{path}.points")
                values = _floats(self, spec[key], f"{path}.{key}")
                with _built_at(path):
                    measures[name] = cls(points, values)
                    # a marked point on a gridline is rejected here, once
                    point_cells(self.frame, measures[name].points)
            else:
                _fail(path, f"unknown measure kind {kind!r}")
        return measures

    def _parse_regions(self, obj):
        regions: dict[str, Region] = {}
        for name, spec in _expect(obj, dict, "$.regions").items():
            path = f"$.regions.{name}"
            _require_keys(spec, {"kind", "bounds", "role", "margin"}, {"kind"}, path)
            kind = spec["kind"]
            role = spec.get("role", COMPACT)
            if role not in (OPEN, COMPACT):
                _fail(path, f"role must be 'open' or 'compact', got {role!r}")
            if kind == "rect":
                bounds = spec.get("bounds")
                if not (isinstance(bounds, list) and len(bounds) == 4):
                    _fail(path, "rect needs bounds [x0, x1, y0, y1]")
                bounds = _floats(self, bounds, f"{path}.bounds")
                with _built_at(path):
                    regions[name] = rect_region(self.frame, *bounds, role=role)
            elif kind == "interior":
                margin = _int(self, spec.get("margin", 1), f"{path}.margin")
                with _built_at(path):
                    regions[name] = frame_interior(self.frame, margin)
            elif kind == "empty":
                regions[name] = empty_region(self.frame, role)
            else:
                _fail(path, f"unknown region kind {kind!r}")
        return regions

    def _region_ref(self, ref, path: str, role: str) -> Region:
        if isinstance(ref, str):
            return _region(self, ref, path)
        if isinstance(ref, list) and len(ref) == 4:
            bounds = _floats(self, ref, path)
            with _built_at(path):
                return rect_region(self.frame, *bounds, role=role)
        _fail(path, "expected a region name or bounds [x0, x1, y0, y1]")

    def _parse_fields(self, obj):
        fields: dict[str, ScalarField] = {}
        declared = set(_expect(obj, dict, "$.fields"))
        # fixpoint: constructors first, then combinators referencing them
        pending = dict(obj)
        progress = True
        while pending and progress:
            progress = False
            for name in list(pending):
                built = self._try_build_field(pending[name], fields, declared,
                                              f"$.fields.{name}")
                if built is not None:
                    fields[name] = built
                    del pending[name]
                    progress = True
        if pending:
            _fail(f"$.fields.{sorted(pending)[0]}",
                  "unresolved field reference (missing or cyclic)")
        return fields

    def _try_build_field(self, spec, fields, declared, path) -> ScalarField | None:
        def built(ref, at: str) -> bool:
            if not isinstance(ref, str) or ref not in declared:
                _fail(at, f"undefined field {ref!r}")
            return ref in fields

        if not isinstance(spec, dict) or "kind" not in spec:
            _fail(path, "field spec needs a 'kind'")
        kind = spec["kind"]
        if kind == "plateau":
            _require_keys(spec, {"kind", "inner", "outer", "height", "ramp"},
                          {"outer", "height", "ramp"}, path)
            inner = (self._region_ref(spec["inner"], f"{path}.inner", COMPACT)
                     if "inner" in spec else None)
            outer = self._region_ref(spec["outer"], f"{path}.outer", OPEN)
            height = _float(self, spec["height"], f"{path}.height")
            ramp = _float(self, spec["ramp"], f"{path}.ramp")
            with _built_at(path):
                return build_plateau(inner, outer, height, ramp)
        if kind == "sum":
            _require_keys(spec, {"kind", "of"}, {"of"}, path)
            parts = spec["of"]
            if not (isinstance(parts, list) and len(parts) >= 2):
                _fail(path, "sum needs a list of at least two field names")
            if not all(built(p, f"{path}.of[{j}]") for j, p in enumerate(parts)):
                return None
            out = fields[parts[0]]
            for p in parts[1:]:
                out = add(out, fields[p])
            return out
        if kind in ("scale", "truncate"):
            key = "factor" if kind == "scale" else "delta"
            _require_keys(spec, {"kind", "field", key}, {"field", key}, path)
            ref = spec["field"]
            value = _float(self, spec[key], f"{path}.{key}")
            if not built(ref, f"{path}.field"):
                return None
            with _built_at(path):
                if kind == "scale":
                    return scale(fields[ref], value)
                return truncate(fields[ref], value)
        _fail(path, f"unknown field kind {kind!r}")

    def _parse_checks(self, obj):
        """Bind every check's arguments; seed and frame are added at run time."""
        if not isinstance(obj, list) or not obj:
            _fail("$.checks", "expected a non-empty list")
        out = []
        for i, spec in enumerate(obj):
            path = f"$.checks[{i}]"
            name = spec.get("check") if isinstance(spec, dict) else None
            if not isinstance(name, str):
                _fail(path, "check spec needs a 'check' name")
            if name not in _CHECKS:
                _fail(path, f"unknown check {name!r}")
            fn, keys = _CHECKS[name]
            params = inspect.signature(fn).parameters
            required = {key for key in keys
                        if params[_KEYS[key][0]].default is inspect.Parameter.empty}
            _require_keys(spec, {"check", *keys}, {"check", *required}, path)
            kwargs = {}
            for key, value in spec.items():
                if key != "check":
                    param, parse = _KEYS[key]
                    kwargs[param] = parse(self, value, f"{path}.{key}")
            out.append((name, kwargs))
        return out

    def _parse_artifacts(self, art):
        _require_keys(art, {"distributions", "fields", "reconstruction_traces"},
                      set(), "$.artifacts")
        for i, fname in enumerate(_expect(art.get("fields", []), list, "$.artifacts.fields")):
            _field(self, fname, f"$.artifacts.fields[{i}]")
        for key, parsers, required in (
                ("distributions", {"measure": _measure, "field": _field, "variant": _variant},
                 {"measure", "field"}),
                ("reconstruction_traces", {"measure": _measure, "region": _region},
                 {"measure", "region"})):
            for i, d in enumerate(_expect(art.get(key, []), list, f"$.artifacts.{key}")):
                path = f"$.artifacts.{key}[{i}]"
                _require_keys(d, set(parsers), required, path)
                for k, v in d.items():
                    parsers[k](self, v, f"{path}.{k}")
        return art


def load_scenario(path, resolution: int | None = None) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario(data, resolution)


def bundled_scenario_path(name: str) -> Path:
    from importlib import resources

    candidate = resources.files("quasimeasure") / "scenarios" / f"{name}.json"
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise ConfigError(f"no bundled scenario named {name!r}")
        return Path(p)


def _child_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_labels(checks) -> list[str]:
    seen: dict[str, int] = {}
    labels = []
    for name, _ in checks:
        seen[name] = seen.get(name, 0) + 1
        labels.append(name if seen[name] == 1 else f"{name}_{seen[name]}")
    return labels


def _write_artifacts(scenario: Scenario, out_dir: Path):
    art = scenario.artifacts
    for i, d in enumerate(art.get("distributions", [])):
        mu = scenario.measures[d["measure"]]
        field = scenario.fields[d["field"]]
        with _built_at(f"$.artifacts.distributions[{i}]"):
            F = distribution_function(mu, field, d.get("variant", "B"))
        F.to_csv(out_dir / f"distribution_{d['measure']}_{d['field']}.csv")
    for fname in art.get("fields", []):
        field_to_csv(scenario.fields[fname], out_dir / f"field_{fname}.csv")
    for i, d in enumerate(art.get("reconstruction_traces", [])):
        mu = scenario.measures[d["measure"]]
        region = scenario.regions[d["region"]]
        rho = QuasiIntegral(mu)
        estimator = mu_rho_open if region.role == OPEN else mu_rho_compact
        with _built_at(f"$.artifacts.reconstruction_traces[{i}]"):
            report = estimator(rho, region)
        report.trace_to_csv(out_dir / f"reconstruction_{d['measure']}_{d['region']}.csv")


def execute_scenario(scenario: Scenario, out_dir=None) -> dict:
    """Run all checks in order; write CSV artifacts and report.json when out_dir
    is given.

    A check or artifact that cannot run on the scenario's geometry raises
    ConfigError at its JSON path, and then no report.json is written.
    """
    labels = _check_labels(scenario.checks)
    reports = []
    for i, ((name, kwargs), label) in enumerate(zip(scenario.checks, labels)):
        fn = _CHECKS[name][0]
        context = {"seed": _child_seed(scenario.seed, label), "frame": scenario.frame}
        params = inspect.signature(fn).parameters
        with _built_at(f"$.checks[{i}]"):
            reports.append(fn(**kwargs, **{k: v for k, v in context.items()
                                           if k in params}))

    by_label = dict(sorted(zip(labels, reports), key=lambda kv: kv[0]))
    import quasimeasure

    report = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "frame": {
            "x_min": scenario.frame.x_min, "x_max": scenario.frame.x_max,
            "y_min": scenario.frame.y_min, "y_max": scenario.frame.y_max,
            "nx": scenario.frame.nx, "ny": scenario.frame.ny,
        },
        "versions": {
            "quasimeasure": quasimeasure.__version__,
            "numpy": np.__version__,
        },
        "checks": {label: rep.to_dict() for label, rep in by_label.items()},
        "passed": all(rep.passed for rep in reports),
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_times": {label: rep.wall_time for label, rep in by_label.items()},
        },
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_artifacts(scenario, out)
        (out / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def run_scenario(path, out_dir=None, seed: int | None = None,
                 resolution: int | None = None) -> int:
    """Load, run, and report; exit code 0 all-pass, 1 failures, 2 config error."""
    scenario = load_scenario(path, resolution)
    if seed is not None:
        scenario.seed = int(seed)
    report = execute_scenario(scenario, out_dir)
    return 0 if report["passed"] else 1
