"""The benchmark's workloads: seeded inputs, the timed operation, the check.

A workload runs in rounds. Round r, operation j draws its input from the
seed sequence (seed, r, j), so a seed fixes every input of a run. The input
is built before the operation starts and checked after it ends; neither
step is timed. Checks compare against `oracles`, which never call the
program, or against properties of the program's written output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    QuasiIntegral,
    ScalarField,
    cli,
    rect_region,
    roundtrip,
)
from quasimeasure.presets import crossing_measure, crossing_sum, standard_frame

# Absolute tolerances of the linear baseline: acceptance criterion 2 bounds
# density integrals by 5e-3; atomic measures have no quadrature at all.
DENSITY_TOL = 5e-3
ATOMIC_TOL = 1e-9
# Point-count values are sums of a few table entries times level gaps; the
# program and the oracle only differ in summation order.
POINT_COUNT_TOL = 1e-9

OUT_DIR = Path(__file__).resolve().parent / "_out"


def _rng(seed: int, r: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, j])


@dataclass
class Op:
    """One operation's input, with what the check needs to know about it."""

    kind: str
    arg: object
    expected: object = None


def _check_crossing_preset():
    mu = crossing_measure()
    if not (np.array_equal(mu.points, oracles.MARKED_POINTS)
            and np.array_equal(mu.value_by_count, oracles.VALUE_BY_COUNT)):
        raise RuntimeError("presets.crossing_measure no longer matches the oracle's copy")
    return mu


def _distance(x, y, cx, cy, chebyshev: bool = False):
    dx, dy = np.abs(x - cx), np.abs(y - cy)
    return np.maximum(dx, dy) if chebyshev else np.hypot(dx, dy)


class _Fields:
    """Seeded field families on an n x n frame, with their oracle data.

    Each family is drawn with a fixed number of marked points under it (see
    FIELD_ROUND): its position, size and height vary with the seed, the
    points it covers do not.

    single peaks: a cone (Euclidean) or pyramid (Chebyshev); every
        superlevel set is solid.
    ring: an annulus plateau, ramped on both sides, whose superlevel sets
        all have exactly one hole; some points sit in the hole, some in the
        band.
    cross: the crossed plateaus of the golden example at a random height.
    """

    batch = 512

    def __init__(self, n: int):
        self.n = n
        self.frame = standard_frame(n)
        self.xx, self.yy = oracles.cell_centers(n)
        rows, cols = oracles.point_cells(oracles.MARKED_POINTS, n)
        self.point_rows, self.point_cols = rows, cols
        # Marked points as their cell centers: what the raster sees.
        self.px = self.xx[rows, cols]
        self.py = self.yy[rows, cols]

    def _pick(self, draw, accept):
        """First of a batch of candidate parameter sets that `accept` takes."""
        for _ in range(100):
            params = draw()
            hits = np.flatnonzero(accept(*params))
            if len(hits):
                return [p[hits[0]] for p in params]
        raise RuntimeError("no field of the requested kind found")

    def peak(self, rng, chebyshev: bool, covered):
        def draw():
            r = rng.uniform(1.0, 4.0, size=self.batch)
            cx = rng.uniform(0.5 + r, 9.5 - r)
            cy = rng.uniform(0.5 + r, 9.5 - r)
            return r, cx, cy

        def accept(r, cx, cy):
            d = _distance(self.px, self.py, cx[:, None], cy[:, None], chebyshev)
            return np.isin((d < r[:, None]).sum(axis=1), covered)

        r, cx, cy = self._pick(draw, accept)
        h = rng.uniform(0.5, 2.0)
        d = _distance(self.xx, self.yy, cx, cy, chebyshev)
        values = h * np.maximum(0.0, 1.0 - d / r)
        return values, np.zeros(len(self.px), dtype=bool)

    def ring(self, rng, hole_band):
        n_hole, n_band = hole_band

        def draw():
            rin = rng.uniform(0.3, 1.2, size=self.batch)
            width = rng.uniform(0.6, 1.6, size=self.batch)
            ramp = rng.uniform(0.1, np.minimum(0.35, (width - 0.25) / 2))
            anchor = oracles.MARKED_POINTS[rng.integers(len(self.px), size=self.batch)]
            rout = rin + width
            cx = np.clip(anchor[:, 0] + rng.uniform(-1.0, 1.0, size=self.batch),
                         0.5 + rout, 9.5 - rout)
            cy = np.clip(anchor[:, 1] + rng.uniform(-1.0, 1.0, size=self.batch),
                         0.5 + rout, 9.5 - rout)
            return rin, rout, ramp, cx, cy

        def accept(rin, rout, ramp, cx, cy):
            d = _distance(self.px, self.py, cx[:, None], cy[:, None])
            hole = (d <= rin[:, None]).sum(axis=1)
            band = ((d > rin[:, None]) & (d < rout[:, None])).sum(axis=1)
            return (hole == n_hole) & (band == n_band)

        rin, rout, ramp, cx, cy = self._pick(draw, accept)
        h = rng.uniform(0.5, 2.0)
        d = _distance(self.xx, self.yy, cx, cy)
        values = h * np.clip(np.minimum(d - rin, rout - d) / ramp, 0.0, 1.0)
        inner = _distance(self.px, self.py, cx, cy) < 0.5 * (rin + rout)
        return values, inner

    def draw(self, rng, family: str, target):
        """(ScalarField, point-count oracle value) of one family."""
        if family == "cross":
            h = rng.uniform(0.25, 4.0)
            return crossing_sum(self.frame, h), 1.5 * h
        if family == "ring":
            values, inner = self.ring(rng, target)
        else:
            values, inner = self.peak(rng, family == "pyramid", target)
        expected = oracles.layer_cake(values[self.point_rows, self.point_cols], inner)
        return ScalarField(self.frame, values), expected


# (family, target) per position of a round. The cost of a point-count
# integral grows with the number of jumps of F, which the covered points
# set, so fixing them fixes each position's cost class. Five positions of
# distinct cost put the median inside one class, not on a seam.
# Peaks: how many points lie under them. Ring: points in the hole, in the band.
FIELD_ROUND = (
    ("cone", (2, 3)),
    ("pyramid", (4, 5)),
    ("ring", (1, 2)),
    ("cone", (4, 5)),
    ("cross", None),
)


class PointCount:
    """QuasiIntegral under the five-point solid-set measure at 512^2."""

    name = "pointcount_512"
    round_size = len(FIELD_ROUND)

    def prepare(self):
        self.fields = _Fields(512)
        self.rho = QuasiIntegral(_check_crossing_preset())

    def make_input(self, seed: int, r: int, j: int) -> Op:
        family, target = FIELD_ROUND[j]
        field, expected = self.fields.draw(_rng(seed, r, j), family, target)
        return Op(family, field, expected)

    def warmup_input(self) -> Op:
        return self.make_input(0, 0, 0)

    def run(self, op: Op) -> float:
        return self.rho(op.arg)

    def check(self, op: Op, out: float) -> list[str]:
        if op.kind == "cross":
            ok = out == op.expected
        else:
            ok = abs(out - op.expected) <= POINT_COUNT_TOL
        return [] if ok else [f"{op.kind}: rho={out!r}, oracle={op.expected!r}"]


class Linear:
    """The same fields under constant and per-cell densities and an atomic measure.

    Ring plateaus run under the atomic measure only: the sampled density
    fallback misses them by more than DENSITY_TOL (see CHANGES.md).
    """

    name = "linear_512"
    round_size = len(FIELD_ROUND)
    n_atoms = 16

    def prepare(self):
        self.fields = _Fields(512)
        self.cell_area = self.fields.frame.cell_area

    def _atoms(self, rng):
        # Points sit inside their cells, clear of every gridline.
        n = self.fields.n
        dx, dy = oracles.cell_size(n)
        cells = rng.integers(n // 10, n - n // 10, size=(self.n_atoms, 2))
        offsets = rng.uniform(0.2, 0.8, size=(self.n_atoms, 2))
        points = np.column_stack([(cells[:, 0] + offsets[:, 0]) * dx,
                                  (cells[:, 1] + offsets[:, 1]) * dy])
        weights = rng.uniform(0.1, 2.0, size=self.n_atoms)
        return points, weights

    def make_input(self, seed: int, r: int, j: int) -> Op:
        rng = _rng(seed, r, j)
        family, target = FIELD_ROUND[j]
        field, _ = self.fields.draw(rng, family, target)
        points, weights = self._atoms(rng)
        cases = [(AtomicMeasure(points, weights), ATOMIC_TOL,
                  oracles.atomic_integral(field.values, points, weights, self.fields.n))]
        if family != "ring":
            d = rng.uniform(0.5, 1.5)
            grid = rng.uniform(0.5, 1.5, size=self.fields.frame.shape)
            cases += [
                (DensityMeasure(d), DENSITY_TOL,
                 oracles.density_integral(field.values, d, self.cell_area)),
                (DensityMeasure(grid), DENSITY_TOL,
                 oracles.density_integral(field.values, grid, self.cell_area)),
            ]
        return Op(family, field, cases)

    def warmup_input(self) -> Op:
        return self.make_input(0, 0, 0)

    def run(self, op: Op) -> list[float]:
        return [QuasiIntegral(mu)(op.arg) for mu, _, _ in op.expected]

    def check(self, op: Op, out: list[float]) -> list[str]:
        return [f"{op.kind}/{mu.kind}: rho={v!r}, oracle={want!r}"
                for (mu, tol, want), v in zip(op.expected, out)
                if not abs(v - want) <= tol]


class RoundTrip:
    """reconstruct.roundtrip of one rectangle holding 0 to 5 marked points, 256^2."""

    name = "roundtrip_256"
    round_size = 12  # every count 0..5, as an open and as a compact region
    margin = 0.2     # five cells: points stay clear of every schedule step's ramp

    def prepare(self):
        self.frame = standard_frame(256)
        self.mu = _check_crossing_preset()

    def rect_with(self, rng, count: int):
        """A rectangle in [0.6, 9.4]^2 with `count` points well inside, the rest well outside."""
        pts = oracles.MARKED_POINTS
        m = self.margin
        for _ in range(50):
            xs = np.sort(rng.uniform(0.6, 9.4, size=(4096, 2)), axis=1)
            ys = np.sort(rng.uniform(0.6, 9.4, size=(4096, 2)), axis=1)
            x0, x1, y0, y1 = (a[:, None] for a in (xs[:, 0], xs[:, 1], ys[:, 0], ys[:, 1]))
            px, py = pts[None, :, 0], pts[None, :, 1]
            inside = (px > x0 + m) & (px < x1 - m) & (py > y0 + m) & (py < y1 - m)
            outside = (px < x0 - m) | (px > x1 + m) | (py < y0 - m) | (py > y1 + m)
            ok = (inside | outside).all(axis=1) & (inside.sum(axis=1) == count)
            ok &= (xs[:, 1] - xs[:, 0] > 0.6) & (ys[:, 1] - ys[:, 0] > 0.6)
            hits = np.flatnonzero(ok)
            if len(hits):
                k = hits[0]
                return (float(xs[k, 0]), float(xs[k, 1]), float(ys[k, 0]), float(ys[k, 1]))
        raise RuntimeError(f"no rectangle holding {count} points found")

    def make_input(self, seed: int, r: int, j: int) -> Op:
        count, role = j // 2, ("open", "compact")[j % 2]
        rect = self.rect_with(_rng(seed, r, j), count)
        expected = float(oracles.VALUE_BY_COUNT[oracles.points_in_rect(oracles.MARKED_POINTS, rect)])
        return Op(role, rect_region(self.frame, *rect, role=role), expected)

    def warmup_input(self) -> Op:
        return self.make_input(0, 0, 5)

    def run(self, op: Op) -> float:
        (entry,) = roundtrip(self.mu, {"R": op.arg})
        return entry.reconstructed

    def check(self, op: Op, out: float) -> list[str]:
        return [] if out == op.expected else [
            f"{op.kind} rectangle: reconstructed={out!r}, oracle={op.expected!r}"]


class ScenarioCli:
    """`quasimeasure run` on both bundled scenarios, in-process, into a fresh --out."""

    name = "scenario_cli"
    # Ten scenario seeds per run, each rerun by every later round. The cost
    # of the randomized checks depends on the seed (by up to a sixth), so the
    # median is taken among ten seeds' costs rather than on the seam between two.
    round_size = 10
    scenarios = ("nonlinear_example", "measure_baseline")

    def prepare(self):
        self.digests: dict[tuple[str, int], str] = {}
        self.ops = 0

    def _input(self, scenario_seed: int) -> Op:
        self.ops += 1
        out = OUT_DIR / f"scenario_cli-{os.getpid()}-{self.ops}"
        shutil.rmtree(out, ignore_errors=True)
        return Op(str(scenario_seed), out)

    def make_input(self, seed: int, r: int, j: int) -> Op:
        return self._input(int(_rng(seed, 0, j).integers(1 << 31)))

    def warmup_input(self) -> Op:
        return self._input(0)

    def run(self, op: Op) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for name in self.scenarios:
                codes.append(cli.main(["run", name, "--seed", op.kind,
                                       "--out", str(op.arg / name)]))
        return codes

    def check(self, op: Op, out: list[int]) -> list[str]:
        try:
            return [err for name, code in zip(self.scenarios, out)
                    for err in self._check_scenario(name, int(op.kind), code, op.arg / name)]
        finally:
            shutil.rmtree(op.arg, ignore_errors=True)

    def _check_scenario(self, name: str, seed: int, code: int, out: Path) -> list[str]:
        if code != 0:
            return [f"{name} seed {seed}: exit code {code}"]
        text = (out / "report.json").read_text()
        report = json.loads(text)
        errors = [] if report["passed"] is True else [f"{name} seed {seed}: passed is not true"]
        if name == "nonlinear_example":
            errors += _golden_errors(report["checks"]["nonlinearity_example"]["details"])
        for csv in sorted(out.glob("distribution_*.csv")):
            errors += _distribution_errors(csv)
        digest = hashlib.sha256(_without_timing(text).encode())
        for csv in sorted(out.glob("*.csv")):
            digest.update(csv.name.encode() + csv.read_bytes())
        key = (name, seed)
        if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            errors.append(f"{name} seed {seed}: output differs from an earlier run")
        return errors


def _without_timing(text: str) -> str:
    """report.json with the lines of its top-level "timing" object removed."""
    lines = text.splitlines(keepends=True)
    start = lines.index('  "timing": {\n')
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("  }"))
    return "".join(lines[:start] + lines[end + 1:])


def _golden_errors(details: dict) -> list[str]:
    errors = []
    for height, d in details.items():
        h = float(height)
        if (d["rho_f"], d["rho_g"], d["rho_sum"], d["defect"]) != (h, h, 1.5 * h, 0.5 * h):
            errors.append(f"golden triple at height {h}: {d}")
    return errors


def _distribution_errors(path: Path) -> list[str]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    values = np.array([float(v) for _, v in rows])
    if len(values) == 0 or values[-1] != 0.0 or bool((np.diff(values) > 0).any()):
        return [f"{path.name}: distribution is not non-increasing down to 0"]
    return []


WORKLOADS = {w.name: w for w in (PointCount, Linear, RoundTrip, ScenarioCli)}
