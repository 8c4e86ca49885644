"""Scenario files: declarative frame/measure/field setups plus check lists.

A scenario is a JSON document; running it produces report.json and CSV
artifacts in an output directory. Reports are byte-deterministic for a
fixed scenario and seed: everything time-dependent is isolated under the
single "timing" key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .errors import ConfigError, QuasimeasureError
from .fields import add, build_plateau, scale, truncate
from .grid import Frame
from .integration import QuasiIntegral, distribution_function
from .measures import AtomicMeasure, DensityMeasure, PointCountMeasure
from .reconstruct import mu_rho_compact, mu_rho_open
from .regions import COMPACT, OPEN, Region, empty_region, frame_interior, rect_region

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


@contextmanager
def _written_at(path: str):
    """Report a failed write at its artifact's JSON path or at the output directory."""
    try:
        yield
    except OSError as exc:
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


def _call(fn, kwargs: dict, **context):
    """fn(**kwargs), plus each context argument that fn's signature takes."""
    params = inspect.signature(fn).parameters
    return fn(**kwargs, **{k: v for k, v in context.items() if k in params})


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


def _bounds(scenario, value, path: str) -> tuple[float, ...]:
    if not (isinstance(value, list) and len(value) == 4):
        _fail(path, f"expected bounds [x0, x1, y0, y1], got {value!r}")
    return _floats(scenario, value, path)


def _one_of(*options: str):
    def parse(scenario, value, path: str) -> str:
        if value not in options:
            _fail(path, f"expected {' or '.join(map(repr, options))}, got {value!r}")
        return value

    return parse


_variant, _role = _one_of("A", "B"), _one_of(OPEN, COMPACT)


def _max_steps(scenario, value, path: str) -> int:
    if _int(scenario, value, path) < 1:
        _fail(path, f"expected an integer >= 1, got {value!r}")
    return value


def _ref(section: str):
    """Parser of a name defined under $.<section>, resolved to its object."""

    def parse(scenario, value, path: str):
        if not isinstance(value, str):
            _fail(path, f"expected a {section[:-1]} name, got {value!r}")
        return scenario._resolve(section, value, path)

    return parse


_measure, _field, _region = _ref("measures"), _ref("fields"), _ref("regions")


def _catalog(scenario, value, path: str) -> dict[str, Region]:
    # each name is checked before it is hashed as a key
    return {name: _region(scenario, name, f"{path}[{j}]")
            for j, name in enumerate(_expect(value, list, path))}


def _summands(scenario, value, path: str) -> list:
    if not (isinstance(value, list) and len(value) >= 2):
        _fail(path, f"expected a list of at least two field names, got {value!r}")
    return [_field(scenario, name, f"{path}[{j}]") for j, name in enumerate(value)]


def _region_or_rect(role: str):
    """Parser of a region name, or of the bounds of a rect of this role."""

    def parse(scenario, value, path: str) -> Region:
        if isinstance(value, str):
            return _region(scenario, value, path)
        bounds = _bounds(scenario, value, path)
        with _built_at(path):
            return _rect(scenario.frame, bounds, role)

    return parse


# -- constructors of the objects whose scenario keys differ from the
# library's arguments. An artifact's constructor returns its CSV file's header
# lines and its rows, which _write_artifacts writes. A function that
# perfbench's tracer wraps is called by its module-global name, where the
# wrapper replaces it.


def _rect(frame: Frame, bounds, role: str = COMPACT) -> Region:
    return rect_region(frame, *bounds, role=role)


def _interior(frame: Frame, margin: int = 1, role: str = OPEN) -> Region:
    if role != OPEN:
        raise ValueError(f"an interior region is open, got role {role!r}")
    return frame_interior(frame, margin)


def _empty(frame: Frame, role: str = COMPACT) -> Region:
    return empty_region(frame, role)


def _plateau(outer: Region, height: float, ramp_width: float, inner: Region | None = None):
    return build_plateau(inner, outer, height, ramp_width)


def _sum(of: list):
    return functools.reduce(add, of)


# bound by distribution_function's signature, so an absent variant takes its default
@functools.wraps(distribution_function)
def _distribution(*args, **kwargs):
    F = distribution_function(*args, **kwargs)
    header = ("# right-continuous step function: F(t) = F_i on [t_i, t_{i+1})",
              f"# left limit below first breakpoint: {float(F.left_limit)!r}",
              "t,F")
    return header, zip(F.thresholds, F.values)


def _trace(mu, region: Region):
    """rho along the schedule that reconstructs mu(region) from inside an open
    region, onto a compact one."""
    estimator = mu_rho_open if region.role == OPEN else mu_rho_compact
    trace = estimator(QuasiIntegral(mu), region).trace
    return ("step,radius,value",), ((step, k, float(v)) for step, (k, v) in enumerate(trace))


def _field_csv(f):
    """f's value at each cell center."""
    xx, yy = f.frame.center_grids()
    return ("x,y,value",), zip(xx.ravel(), yy.ravel(), f.values.ravel())


# scenario key -> (argument of the function it is passed to, parser). A
# scenario object accepts a key exactly when its function takes the key's
# argument, so no two keys share one.
_KEYS = {
    "measure": ("mu", _measure), "field": ("f", _field), "regions": ("catalog", _catalog),
    "region": ("region", _region),
    "heights": ("heights", _floats), "coeffs": ("coeffs", _floats),
    "ns": ("ns", _floats), "trials": ("trials", _int), "tol": ("tol", _float),
    "rt_tol": ("rt_tol", _float), "max_steps": ("max_steps", _max_steps),
    "variant": ("variant", _variant),
    "density": ("density", _float), "unbounded": ("unbounded", _bool),
    "points": ("points", _points), "value_by_count": ("value_by_count", _floats),
    "weights": ("weights", _floats),
    "bounds": ("bounds", _bounds), "role": ("role", _role), "margin": ("margin", _int),
    "inner": ("inner", _region_or_rect(COMPACT)), "outer": ("outer", _region_or_rect(OPEN)),
    "height": ("height", _float), "ramp": ("ramp_width", _float),
    "of": ("of", _summands), "factor": ("a", _float), "delta": ("delta", _float),
}

# section -> kind -> constructor. The frame is supplied to the constructors
# that take it.
_KINDS = {
    "measures": {"density": DensityMeasure, "point_count": PointCountMeasure,
                 "atomic": AtomicMeasure},
    "regions": {"rect": _rect, "interior": _interior, "empty": _empty},
    "fields": {"plateau": _plateau, "sum": _sum, "scale": scale, "truncate": truncate},
    # $.artifacts.fields lists bare names
    "artifacts": {"distributions": _distribution, "reconstruction_traces": _trace},
}
_CSV_NAMES = {"distributions": "distribution_{measure}_{field}.csv",
              "reconstruction_traces": "reconstruction_{measure}_{region}.csv"}

# check name -> check function. seed and frame are supplied when the check
# runs, to the checks that take them.
_CHECKS = {
    "nonlinearity_example": checks_mod.check_nonlinearity_example,
    "sga_additivity": checks_mod.check_sga_additivity,
    "disjoint_support_additivity": checks_mod.check_disjoint_support_additivity,
    "monotone_lipschitz": checks_mod.check_monotone_lipschitz,
    "homogeneity": checks_mod.check_homogeneity,
    "positivity": checks_mod.check_positivity,
    "tm_axioms": checks_mod.check_tm_axioms,
    "roundtrip": checks_mod.check_roundtrip,
    "linear_agreement": checks_mod.check_linear_agreement,
    "extension_consistency": checks_mod.check_extension_consistency,
    "distribution_invariants": checks_mod.check_distribution_invariants,
}


def _keys(fn) -> list[str]:
    """The scenario keys fn accepts: those whose argument its signature takes."""
    params = inspect.signature(fn).parameters
    return [key for key, (arg, _) in _KEYS.items() if arg in params]


class Scenario:
    """Validated scenario: named measures, regions and fields on one frame."""

    def __init__(self, data: dict, resolution: int | None = None):
        _require_keys(data, _TOP_KEYS, {"frame", "checks"}, "$")
        self.name = data.get("name", "scenario")
        if not isinstance(self.name, str):
            _fail("$.name", f"expected a string, got {self.name!r}")
        self.seed = _int(self, data.get("seed", 0), "$.seed")
        self.frame = self._parse_frame(data["frame"], resolution)
        self._specs = {}
        for section in ("measures", "regions", "fields"):
            self._specs[section] = _expect(data.get(section, {}), dict, f"$.{section}")
            setattr(self, section, {})
            for name in self._specs[section]:
                self._resolve(section, name, f"$.{section}.{name}")
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

    def _resolve(self, section: str, name: str, path: str):
        """The object `name` of $.<section>, built when first referenced."""
        built = getattr(self, section)
        if name not in built:
            if name not in self._specs[section]:
                _fail(path, f"undefined {section[:-1]} {name!r}")
            built[name] = None  # under construction
            at = f"$.{section}.{name}"
            _, fn, kwargs = self._bind(self._specs[section][name], at, "kind", _KINDS[section])
            with _built_at(at):
                built[name] = _call(fn, kwargs, frame=self.frame)
                if isinstance(built[name], (PointCountMeasure, AtomicMeasure)):
                    # a marked point on a gridline is rejected here, once; the
                    # cells found are cached for the first integral
                    built[name].marked_cells(self.frame)
        elif built[name] is None:
            _fail(path, f"unresolved {section[:-1]} reference {name!r}: it depends on itself")
        return built[name]

    def _bind(self, spec, path: str, tag: str, table: dict):
        """(entry, function, arguments) of a spec that names its entry of
        `table` under the key `tag`."""
        entry = spec.get(tag) if isinstance(spec, dict) else None
        if not isinstance(entry, str):
            _fail(path, f"expected an object with a {tag!r} name")
        if entry not in table:
            _fail(path, f"unknown {tag} {entry!r}")
        fn = table[entry]
        return entry, fn, self._arguments(spec, path, fn, tag)

    def _arguments(self, spec, path: str, fn, *tag) -> dict:
        """fn's arguments from the scenario keys of spec. Absent keys are not
        passed, so every default lives in fn's signature, and a key is
        required exactly when its argument has no default."""
        params = inspect.signature(fn).parameters
        keys = _keys(fn)
        required = {key for key in keys
                    if params[_KEYS[key][0]].default is inspect.Parameter.empty}
        _require_keys(spec, {*tag, *keys}, {*tag, *required}, path)
        return {_KEYS[key][0]: _KEYS[key][1](self, value, f"{path}.{key}")
                for key, value in spec.items() if key not in tag}

    def _parse_checks(self, obj):
        """Bind every check's arguments; seed and frame are added at run time."""
        if not isinstance(obj, list) or not obj:
            _fail("$.checks", "expected a non-empty list")
        return [self._bind(spec, f"$.checks[{i}]", "check", _CHECKS)
                for i, spec in enumerate(obj)]

    def _parse_artifacts(self, art):
        """Bind every artifact as (JSON path, CSV file name, constructor, arguments)."""
        _require_keys(art, {"fields", *_KINDS["artifacts"]}, set(), "$.artifacts")
        bound = []
        for key, fn in _KINDS["artifacts"].items():
            for i, spec in enumerate(_expect(art.get(key, []), list, f"$.artifacts.{key}")):
                path = f"$.artifacts.{key}[{i}]"
                kwargs = self._arguments(spec, path, fn)
                bound.append((path, _CSV_NAMES[key].format(**spec), fn, kwargs))
        for i, name in enumerate(_expect(art.get("fields", []), list, "$.artifacts.fields")):
            path = f"$.artifacts.fields[{i}]"
            bound.append((path, f"field_{name}.csv", _field_csv, {"f": _field(self, name, path)}))
        # each CSV goes to its own file in the output directory
        seen = set()
        for path, csv, *_ in bound:
            if csv != Path(csv).name or "\0" in csv:
                _fail(path, f"artifact file name {csv!r} is not a plain file name")
            if csv in seen:
                _fail(path, f"artifact file name {csv!r} is taken by an earlier artifact")
            seen.add(csv)
        return bound


def load_scenario(path, resolution: int | None = None) -> Scenario:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))  # JSON's encoding, RFC 8259
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario is not UTF-8: {exc}") from exc
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
    for name, *_ in checks:
        seen[name] = seen.get(name, 0) + 1
        labels.append(name if seen[name] == 1 else f"{name}_{seen[name]}")
    return labels


def _cell(x) -> str:
    """A CSV cell: an int as itself, any other number as its float's repr
    (numpy 2's repr of a float64 scalar names its type)."""
    return str(x) if isinstance(x, int) else repr(float(x))


def _write_artifacts(scenario: Scenario, out_dir: Path):
    for path, csv, fn, kwargs in scenario.artifacts:
        with _built_at(path):
            header, rows = fn(**kwargs)
        with _written_at(path), open(out_dir / csv, "w") as fh:
            fh.writelines(f"{line}\n" for line in header)
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def execute_scenario(scenario: Scenario, out_dir=None) -> dict:
    """Run all checks in order; write CSV artifacts and report.json when out_dir
    is given.

    A check or artifact that cannot run on the scenario's geometry, or an
    artifact that cannot be written, raises ConfigError at its JSON path, and
    then no report.json is written. An output directory that cannot be made
    raises ConfigError before any check runs.
    """
    if out_dir is not None:
        out_dir = Path(out_dir)
        with _written_at(f"output directory {out_dir}"):
            out_dir.mkdir(parents=True, exist_ok=True)
    labels = _check_labels(scenario.checks)
    checks, wall_times = {}, {}
    for i, ((name, fn, kwargs), label) in enumerate(zip(scenario.checks, labels)):
        with _built_at(f"$.checks[{i}]"):
            start = time.perf_counter()
            found = _call(fn, kwargs, seed=_child_seed(scenario.seed, label),
                          frame=scenario.frame)
            wall_times[label] = time.perf_counter() - start
        checks[label] = {"name": name, **found.to_dict()}

    import quasimeasure

    report = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "frame": dataclasses.asdict(scenario.frame),
        "versions": {
            "quasimeasure": quasimeasure.__version__,
            "numpy": np.__version__,
        },
        "checks": checks,
        "passed": all(check["passed"] for check in checks.values()),
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_times": wall_times,
        },
    }
    if out_dir is not None:
        _write_artifacts(scenario, out_dir)
        with _written_at(f"output directory {out_dir}"):
            (out_dir / "report.json").write_text(
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
