"""Scenario files: declarative frame/measure/field setups plus check lists.

A scenario is a JSON document; running it produces report.json and CSV
artifacts in an output directory. Reports are byte-deterministic for a
fixed scenario and seed: everything time-dependent is isolated under the
single "timing" key.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .checks import CheckReport
from .errors import ConfigError, QuasimeasureError
from .fields import ScalarField, add, build_plateau, field_to_csv, scale, truncate
from .grid import Frame
from .integration import QuasiIntegral, distribution_function
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    PointCountMeasure,
    TopologicalMeasure,
)
from .reconstruct import BumpSchedule, mu_rho_compact, mu_rho_open
from .regions import COMPACT, OPEN, Region, empty_region, frame_interior, rect_region

_FRAME_KEYS = {"x_min", "x_max", "y_min", "y_max", "nx", "ny"}
_TOP_KEYS = {"name", "frame", "seed", "measures", "regions", "fields", "checks",
             "artifacts"}

# check name -> allowed keys (beyond "check")
_CHECK_KEYS: dict[str, set[str]] = {
    "nonlinearity_example": {"b", "heights", "tol"},
    "sga_additivity": {"measure", "field", "trials", "tol"},
    "disjoint_support_additivity": {"measure", "trials", "tol"},
    "monotone_lipschitz": {"measure", "trials", "tol"},
    "homogeneity": {"measure", "trials", "tol", "coeffs"},
    "positivity": {"measure", "trials"},
    "tm_axioms": {"measure", "tol"},
    "roundtrip": {"measure", "regions", "rt_tol", "max_steps"},
    "linear_agreement": {"measure", "field", "tol", "variant"},
    "extension_consistency": {"measure", "field", "ns", "tol"},
    "distribution_invariants": {"measure", "trials", "tol"},
}

_CHECK_REQUIRED: dict[str, set[str]] = {
    "nonlinearity_example": set(),
    "sga_additivity": {"measure"},
    "disjoint_support_additivity": {"measure"},
    "monotone_lipschitz": {"measure"},
    "homogeneity": {"measure"},
    "positivity": {"measure"},
    "tm_axioms": {"measure"},
    "roundtrip": {"measure", "regions"},
    "linear_agreement": {"measure", "field"},
    "extension_consistency": {"measure", "field"},
    "distribution_invariants": {"measure"},
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


@contextmanager
def _built_at(path: str):
    """Report an error raised while building a scenario object at its JSON path.

    The block must not raise ConfigError itself: its path would be prefixed
    twice.
    """
    try:
        yield
    except (ValueError, TypeError, QuasimeasureError) as exc:
        _fail(path, str(exc))


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")


class Scenario:
    """Validated scenario: named measures, regions and fields on one frame."""

    def __init__(self, data: dict, resolution: int | None = None):
        _require_keys(data, _TOP_KEYS, {"frame", "checks"}, "$")
        self.name = data.get("name", "scenario")
        self.seed = int(data.get("seed", 0))
        self.frame = self._parse_frame(data["frame"], resolution)
        self.measures = self._parse_measures(data.get("measures", {}))
        self.regions = self._parse_regions(data.get("regions", {}))
        self.fields = self._parse_fields(data.get("fields", {}))
        self.checks = self._parse_checks(data["checks"])
        self.artifacts = data.get("artifacts", {})
        self._validate_artifacts()

    # -- parsing -----------------------------------------------------

    def _parse_frame(self, obj, resolution):
        _require_keys(obj, _FRAME_KEYS, _FRAME_KEYS, "$.frame")
        with _built_at("$.frame"):
            nx, ny = int(obj["nx"]), int(obj["ny"])
            if resolution is not None:
                nx = ny = int(resolution)
            return Frame(float(obj["x_min"]), float(obj["x_max"]),
                         float(obj["y_min"]), float(obj["y_max"]), nx, ny)

    def _parse_measures(self, obj):
        measures: dict[str, TopologicalMeasure] = {}
        for name, spec in obj.items():
            path = f"$.measures.{name}"
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind == "point_count":
                _require_keys(spec, {"kind", "points", "value_by_count"},
                              {"points", "value_by_count"}, path)
                with _built_at(path):
                    measures[name] = PointCountMeasure(
                        np.asarray(spec["points"], dtype=float),
                        np.asarray(spec["value_by_count"], dtype=float))
            elif kind == "density":
                _require_keys(spec, {"kind", "density", "unbounded"}, set(), path)
                with _built_at(path):
                    measures[name] = DensityMeasure(float(spec.get("density", 1.0)),
                                                    bool(spec.get("unbounded", False)))
            elif kind == "atomic":
                _require_keys(spec, {"kind", "points", "weights"},
                              {"points", "weights"}, path)
                with _built_at(path):
                    measures[name] = AtomicMeasure(
                        np.asarray(spec["points"], dtype=float),
                        np.asarray(spec["weights"], dtype=float))
            else:
                _fail(path, f"unknown measure kind {kind!r}")
        return measures

    def _parse_regions(self, obj):
        regions: dict[str, Region] = {}
        for name, spec in obj.items():
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
                with _built_at(path):
                    regions[name] = rect_region(self.frame, *map(float, bounds),
                                                role=role)
            elif kind == "interior":
                with _built_at(path):
                    regions[name] = frame_interior(self.frame,
                                                   int(spec.get("margin", 1)))
            elif kind == "empty":
                regions[name] = empty_region(self.frame, role)
            else:
                _fail(path, f"unknown region kind {kind!r}")
        return regions

    def _region_ref(self, ref, path: str, role: str) -> Region | None:
        if ref is None:
            return None
        if isinstance(ref, str):
            if ref not in self.regions:
                _fail(path, f"undefined region {ref!r}")
            return self.regions[ref]
        if isinstance(ref, list) and len(ref) == 4:
            with _built_at(path):
                return rect_region(self.frame, *map(float, ref), role=role)
        _fail(path, "expected a region name or bounds [x0, x1, y0, y1]")

    def _parse_fields(self, obj):
        fields: dict[str, ScalarField] = {}
        declared = set(obj)
        # fixpoint: constructors first, then combinators referencing them
        pending = dict(obj)
        progress = True
        while pending and progress:
            progress = False
            for name in list(pending):
                spec = pending[name]
                path = f"$.fields.{name}"
                built = self._try_build_field(spec, fields, declared, path)
                if built is not None:
                    fields[name] = built
                    del pending[name]
                    progress = True
        if pending:
            _fail(f"$.fields.{sorted(pending)[0]}",
                  "unresolved field reference (missing or cyclic)")
        return fields

    def _try_build_field(self, spec, fields, declared, path) -> ScalarField | None:
        if not isinstance(spec, dict) or "kind" not in spec:
            _fail(path, "field spec needs a 'kind'")
        kind = spec["kind"]
        if kind == "plateau":
            _require_keys(spec, {"kind", "inner", "outer", "height", "ramp"},
                          {"outer", "height", "ramp"}, path)
            inner = self._region_ref(spec.get("inner"), f"{path}.inner", COMPACT)
            outer = self._region_ref(spec["outer"], f"{path}.outer", OPEN)
            with _built_at(path):
                return build_plateau(inner, outer, float(spec["height"]),
                                     float(spec["ramp"]))
        if kind == "sum":
            _require_keys(spec, {"kind", "of"}, {"of"}, path)
            parts = spec["of"]
            if not (isinstance(parts, list) and len(parts) >= 2):
                _fail(path, "sum needs a list of at least two field names")
            for p in parts:
                if p not in fields:
                    if p not in declared:
                        _fail(f"{path}.of", f"undefined field {p!r}")
                    return None
            out = fields[parts[0]]
            for p in parts[1:]:
                out = add(out, fields[p])
            return out
        if kind in ("scale", "truncate"):
            key = "factor" if kind == "scale" else "delta"
            _require_keys(spec, {"kind", "field", key}, {"field", key}, path)
            ref = spec["field"]
            if ref not in fields:
                if ref not in declared:
                    _fail(f"{path}.field", f"undefined field {ref!r}")
                return None
            with _built_at(path):
                if kind == "scale":
                    return scale(fields[ref], float(spec["factor"]))
                return truncate(fields[ref], float(spec["delta"]))
        _fail(path, f"unknown field kind {kind!r}")

    def _parse_checks(self, obj):
        if not isinstance(obj, list) or not obj:
            _fail("$.checks", "expected a non-empty list")
        out = []
        for i, spec in enumerate(obj):
            path = f"$.checks[{i}]"
            if not isinstance(spec, dict) or "check" not in spec:
                _fail(path, "check spec needs a 'check' name")
            name = spec["check"]
            if name not in _CHECK_KEYS:
                _fail(path, f"unknown check {name!r}")
            _require_keys(spec, _CHECK_KEYS[name] | {"check"},
                          _CHECK_REQUIRED[name] | {"check"}, path)
            if "measure" in spec and spec["measure"] not in self.measures:
                _fail(f"{path}.measure", f"undefined measure {spec['measure']!r}")
            if "field" in spec and spec["field"] not in self.fields:
                _fail(f"{path}.field", f"undefined field {spec['field']!r}")
            if "regions" in spec:
                for rname in spec["regions"]:
                    if rname not in self.regions:
                        _fail(f"{path}.regions", f"undefined region {rname!r}")
            out.append(spec)
        return out

    def _validate_artifacts(self):
        art = self.artifacts
        if not art:
            return
        _require_keys(art, {"distributions", "fields", "reconstruction_traces"},
                      set(), "$.artifacts")
        for i, d in enumerate(art.get("distributions", [])):
            path = f"$.artifacts.distributions[{i}]"
            _require_keys(d, {"measure", "field", "variant"}, {"measure", "field"}, path)
            if d["measure"] not in self.measures:
                _fail(path, f"undefined measure {d['measure']!r}")
            if d["field"] not in self.fields:
                _fail(path, f"undefined field {d['field']!r}")
        for i, fname in enumerate(art.get("fields", [])):
            if fname not in self.fields:
                _fail(f"$.artifacts.fields[{i}]", f"undefined field {fname!r}")
        for i, d in enumerate(art.get("reconstruction_traces", [])):
            path = f"$.artifacts.reconstruction_traces[{i}]"
            _require_keys(d, {"measure", "region"}, {"measure", "region"}, path)
            if d["measure"] not in self.measures:
                _fail(path, f"undefined measure {d['measure']!r}")
            if d["region"] not in self.regions:
                _fail(path, f"undefined region {d['region']!r}")


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


def _run_check(scenario: Scenario, spec: dict, label: str) -> CheckReport:
    name = spec["check"]
    seed = _child_seed(scenario.seed, label)
    frame = scenario.frame
    mu = scenario.measures.get(spec.get("measure", ""), None)
    field = scenario.fields.get(spec.get("field", ""), None)
    if name == "nonlinearity_example":
        return checks_mod.check_nonlinearity_example(
            b=float(spec.get("b", 1.0)), frame=frame,
            tol=spec.get("tol"), heights=spec.get("heights"))
    if name == "sga_additivity":
        return checks_mod.check_sga_additivity(
            mu, f=field, trials=int(spec.get("trials", 200)), seed=seed,
            tol=float(spec.get("tol", 1e-6)), frame=frame)
    if name == "disjoint_support_additivity":
        return checks_mod.check_disjoint_support_additivity(
            mu, trials=int(spec.get("trials", 200)), seed=seed,
            tol=float(spec.get("tol", 1e-6)), frame=frame)
    if name == "monotone_lipschitz":
        return checks_mod.check_monotone_lipschitz(
            mu, trials=int(spec.get("trials", 200)), seed=seed,
            tol=float(spec.get("tol", 1e-6)), frame=frame)
    if name == "homogeneity":
        return checks_mod.check_homogeneity(
            mu, coeffs=tuple(spec.get("coeffs", (-2.0, -1.0, 0.5, 3.0))),
            trials=int(spec.get("trials", 200)), seed=seed,
            tol=float(spec.get("tol", 1e-6)), frame=frame)
    if name == "positivity":
        return checks_mod.check_positivity(
            mu, trials=int(spec.get("trials", 200)), seed=seed, frame=frame)
    if name == "tm_axioms":
        return checks_mod.check_tm_axioms(mu, frame=frame, tol=spec.get("tol"))
    if name == "roundtrip":
        catalog = {rname: scenario.regions[rname] for rname in spec["regions"]}
        schedule = BumpSchedule(max_steps=int(spec.get("max_steps", 8)))
        return checks_mod.check_roundtrip(mu, catalog, schedule,
                                          rt_tol=spec.get("rt_tol"))
    if name == "linear_agreement":
        return checks_mod.check_linear_agreement(
            mu, field, tol=float(spec.get("tol", 5e-3)),
            variant=spec.get("variant", "B"))
    if name == "extension_consistency":
        return checks_mod.check_extension_consistency(
            mu, field, ns=tuple(spec.get("ns", (2, 4, 8))),
            tol=float(spec.get("tol", 1e-9)))
    if name == "distribution_invariants":
        return checks_mod.check_distribution_invariants(
            mu, trials=int(spec.get("trials", 50)), seed=seed, frame=frame,
            tol=float(spec.get("tol", 1e-9)))
    raise ConfigError(f"unknown check {name!r}")


def _check_labels(specs) -> list[str]:
    seen: dict[str, int] = {}
    labels = []
    for spec in specs:
        base = spec["check"]
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}_{seen[base]}")
    return labels


def _write_artifacts(scenario: Scenario, out_dir: Path):
    art = scenario.artifacts
    for d in art.get("distributions", []):
        mu = scenario.measures[d["measure"]]
        field = scenario.fields[d["field"]]
        F = distribution_function(mu, field, d.get("variant", "B"))
        F.to_csv(out_dir / f"distribution_{d['measure']}_{d['field']}.csv")
    for fname in art.get("fields", []):
        field_to_csv(scenario.fields[fname], out_dir / f"field_{fname}.csv")
    for d in art.get("reconstruction_traces", []):
        mu = scenario.measures[d["measure"]]
        region = scenario.regions[d["region"]]
        rho = QuasiIntegral(mu)
        if region.role == OPEN:
            report = mu_rho_open(rho, region)
        else:
            report = mu_rho_compact(rho, region)
        report.trace_to_csv(out_dir / f"reconstruction_{d['measure']}_{d['region']}.csv")


def execute_scenario(scenario: Scenario, out_dir=None, threads: int = 1) -> dict:
    """Run all checks; write report.json and CSV artifacts when out_dir given."""
    labels = _check_labels(scenario.checks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(
                lambda args: _run_check(scenario, *args),
                zip(scenario.checks, labels)))
    else:
        reports = [_run_check(scenario, spec, label)
                   for spec, label in zip(scenario.checks, labels)]

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
        (out / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        _write_artifacts(scenario, out)
    return report


def run_scenario(path, out_dir=None, seed: int | None = None,
                 threads: int = 1, resolution: int | None = None) -> int:
    """Load, run, and report; exit code 0 all-pass, 1 failures, 2 config error."""
    scenario = load_scenario(path, resolution)
    if seed is not None:
        scenario.seed = int(seed)
    report = execute_scenario(scenario, out_dir, threads)
    return 0 if report["passed"] else 1
