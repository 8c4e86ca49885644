"""Property suites over randomized fields, reported as CheckReports.

Randomized geometry is drawn on a coarse half-unit lattice with margins, so
rasterized contours stay generic: no marked point or threshold ever sits
within tie epsilon of a cell boundary or sampled value.

The raster rho is quasi-linear only while every band that should separate
two parts of a superlevel set holds a cell across its width. The drawn
fields keep to that; a field handed to `check_sga_additivity` need not: the
golden f + g fails it at 64x64 (README, Numerical notes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, GeometryError, InfiniteMeasureError
from .fields import (
    PiecewiseLinearMap,
    ScalarField,
    add,
    build_plateau,
    compose,
    neg_part,
    pos_part,
    scale,
    sup_distance,
    sup_norm,
    support_region,
    truncate,
)
from .grid import Frame
from .integration import QuasiIntegral, linear_oracle, quasi_integral
from .measures import POINT_COUNT, TopologicalMeasure, tm_eval
from .presets import crossing_fields, crossing_measure
from .reconstruct import _default_rt_tol, roundtrip
from .regions import (COMPACT, OPEN, Region, dilate, empty_region, erode, frame_interior,
                      rect_region)


@dataclass
class CheckReport:
    """Outcome of one property suite."""

    trials: int = 0
    failures: int = 0
    worst: dict | None = None
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def expect(self, violation: float, bound: float, /, **witness) -> bool:
        """The one rule of every check: a comparison fails unless
        violation <= bound, so a NaN fails. A failure is recorded with its
        violation and witness; whether it passed is returned."""
        ok = bool(violation <= bound)
        if not ok:
            self.record(violation, witness)
        return ok

    def record(self, violation: float, witness: dict):
        # NaN ranks above every violation: the first one stays worst
        self.failures += 1
        worst = None if self.worst is None else self.worst["violation"]
        if worst is None or not (math.isnan(worst) or violation <= worst):
            self.worst = {"violation": float(violation), **witness}

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "passed": self.passed,
            "worst": self.worst,
            "details": self.details,
        }


# -- randomized geometry -------------------------------------------------
#
# Rasterized level sets only reproduce continuum topology when contours stay
# clear of the measure's marked points and of each other: a superlevel core
# squeezing through a sub-cell corridor would disconnect its surrounding
# strip on the grid. The generator therefore (a) keeps every marked point
# either well inside a plateau's flat top or well outside its support, and
# (b) only ever sums plateaus with well-separated supports.

_LATTICE = 0.5


@functools.lru_cache(maxsize=64)
def _lattice_ticks(lo: float, hi: float) -> np.ndarray:
    """The lattice points in [lo, hi], read-only: a window's draws share them."""
    ticks = np.arange(np.ceil(lo / _LATTICE), np.floor(hi / _LATTICE) + 1) * _LATTICE
    ticks = ticks[(ticks >= lo) & (ticks <= hi)]
    ticks.setflags(write=False)
    return ticks


def _lattice_rect(rng: np.random.Generator, frame: Frame, window=None):
    """Rectangle with corners on the lattice and sides of at least 1.2,
    strictly inside the window."""
    if window is None:
        window = (frame.x_min + 0.5, frame.x_max - 0.5,
                  frame.y_min + 0.5, frame.y_max - 0.5)
    x_lo, x_hi, y_lo, y_hi = window

    def _span(lo, hi):
        ticks = _lattice_ticks(lo, hi)
        while True:
            a, b = rng.choice(ticks, size=2, replace=False)
            if abs(b - a) >= 1.2:
                return min(a, b), max(a, b)

    x0, x1 = _span(x_lo, x_hi)
    y0, y1 = _span(y_lo, y_hi)
    return x0, x1, y0, y1


def _rect_clears_points(rect, points, ramp: float, cell: float) -> bool:
    """Every point sits deep inside the flat top or well outside the rect."""
    if points is None or len(points) == 0:
        return True
    x0, x1, y0, y1 = rect
    m_in = ramp + 2.0 * cell
    m_out = 2.0 * cell
    for x, y in points:
        deep_inside = (x0 + m_in <= x <= x1 - m_in) and (y0 + m_in <= y <= y1 - m_in)
        outside = x <= x0 - m_out or x >= x1 + m_out or y <= y0 - m_out or y >= y1 + m_out
        if not (deep_inside or outside):
            return False
    return True


def draw_plateau(rng: np.random.Generator, frame: Frame, window=None,
                 avoid_points=None) -> ScalarField:
    cell = max(frame.dx, frame.dy)
    for _ in range(400):
        rect = _lattice_rect(rng, frame, window)
        ramp = float(rng.choice((0.3, 0.45, 0.6)))
        if _rect_clears_points(rect, avoid_points, ramp, cell):
            outer = rect_region(frame, *rect, role=OPEN)
            height = float(rng.choice((0.5, 1.0, 2.0)))
            return build_plateau(None, outer, height, ramp)
    raise GeometryError("could not place a plateau clear of the marked points")


def _split_windows(rng: np.random.Generator, frame: Frame):
    """Two sub-windows separated by a gap, split along a random axis."""
    pad = 0.5
    gap = 3.0 * max(frame.dx, frame.dy)
    if rng.integers(0, 2) == 0:
        cut = frame.x_min + 0.5 * (frame.x_max - frame.x_min)
        return ((frame.x_min + pad, cut - gap, frame.y_min + pad, frame.y_max - pad),
                (cut + gap, frame.x_max - pad, frame.y_min + pad, frame.y_max - pad))
    cut = frame.y_min + 0.5 * (frame.y_max - frame.y_min)
    return ((frame.x_min + pad, frame.x_max - pad, frame.y_min + pad, cut - gap),
            (frame.x_min + pad, frame.x_max - pad, cut + gap, frame.y_max - pad))


def draw_field(rng: np.random.Generator, frame: Frame, signed: bool = False,
               avoid_points=None) -> ScalarField:
    """Plateau, disjoint plateau sum, truncated plateau, or a signed
    difference of separated plateaus."""
    shape = rng.integers(0, 4 if signed else 3)
    if shape in (1, 3):
        w1, w2 = _split_windows(rng, frame)
        f = draw_plateau(rng, frame, w1, avoid_points=avoid_points)
        other = draw_plateau(rng, frame, w2, avoid_points=avoid_points)
        return add(f, scale(other, 0.75 if shape == 1 else -1.0))
    f = draw_plateau(rng, frame, avoid_points=avoid_points)
    if shape == 2:
        f = truncate(f, 0.6 * max(sup_norm(f), 0.1))
    return f


def draw_pwl(rng: np.random.Generator, lo: float, hi: float) -> PiecewiseLinearMap:
    """Random piecewise-linear map on [lo, hi] with phi(0) = 0 and values on
    the quarter lattice."""
    n_interior = int(rng.integers(1, 4))
    grid = np.linspace(lo, hi, 17)[1:-1]
    xs = {lo, hi, 0.0} if lo < 0.0 < hi else {lo, hi}
    xs |= set(rng.choice(grid, size=n_interior, replace=False).tolist())
    xs = np.array(sorted(xs))
    ys = rng.integers(-8, 9, size=len(xs)) * 0.25
    ys[xs == 0.0] = 0.0
    return PiecewiseLinearMap(np.column_stack([xs, ys]))


def _pwl_domain(f: ScalarField) -> tuple[float, float]:
    lo, hi = f.value_range
    return min(lo, 0.0) - 0.25, max(hi, 0.0) + 0.25


# -- property suites -------------------------------------------------------

# The bound on a defect of rho in the randomized suites, and on the values the
# linear, extension and distribution checks compare, which are computed exactly.
_SUITE_TOL = 1e-6
_EXACT_TOL = 1e-9
# the crossed plateaus' heights, homogeneity's coefficients, and the n of
# extension's bottom slices 1/n
_HEIGHTS = (0.5, 1.0, 2.0)
_COEFFS = (-2.0, -1.0, 0.5, 3.0)
_SLICES = (2, 4, 8)


def _largest(values) -> float:
    """The largest of values, NaN if any is: Python's max can drop a NaN."""
    return float(np.max(values))


def _falls(values: list) -> list:
    """How far each value falls below the one before it; the falls of the
    reversed list are its rises."""
    return [a - b for a, b in zip(values, values[1:])]


class _Suite:
    """Set-up shared by the randomized suites: the report, rho, the seeded
    generator and the frame. Fields are drawn clear of the marked points."""

    def __init__(self, mu: TopologicalMeasure, seed: int, frame: Frame):
        self.report = CheckReport()
        self.rho = QuasiIntegral(mu)
        self.rng = np.random.default_rng(seed)
        self.frame = frame
        self._avoid = getattr(mu, "points", None)

    def trials(self, n: int):
        """Yield the trial numbers, counting each one in the report."""
        if n < 1:
            raise ValueError(f"trials must be at least 1, got {n}")
        for trial in range(n):
            self.report.trials += 1
            yield trial

    def field(self, signed: bool = False) -> ScalarField:
        return draw_field(self.rng, self.frame, signed=signed, avoid_points=self._avoid)

    def plateau(self, window) -> ScalarField:
        return draw_plateau(self.rng, self.frame, window, avoid_points=self._avoid)


def check_sga_additivity(mu: TopologicalMeasure, f: ScalarField | None = None,
                         trials: int = 200, seed: int = 0, *,
                         frame: Frame) -> CheckReport:
    """rho is additive on compositions with a common inner field: f when it
    is given, else a field drawn per trial.

    Every other trial uses an identity split phi2 = id - phi1, for which the
    composed sum must also reproduce rho(f) itself.
    """
    suite = _Suite(mu, seed, frame)
    rho, rng, report = suite.rho, suite.rng, suite.report
    for trial in suite.trials(trials):
        ft = f if f is not None else suite.field()
        lo, hi = _pwl_domain(ft)
        p1 = draw_pwl(rng, lo, hi)
        id_split = trial % 2 == 1
        p2 = (PiecewiseLinearMap.identity(lo, hi) - p1) if id_split \
            else draw_pwl(rng, lo, hi)
        g1 = compose(p1, ft)
        g2 = compose(p2, ft)
        v1, v2 = rho(g1), rho(g2)
        v_sum = rho(add(g1, g2))
        report.expect(abs(v_sum - v1 - v2), _SUITE_TOL,
                      trial=trial, kind="pair", lhs=v_sum, rhs=v1 + v2)
        if id_split:
            v_f = rho(ft)
            report.expect(abs(v1 + v2 - v_f), _SUITE_TOL,
                          trial=trial, kind="id_split", lhs=v1 + v2, rhs=v_f)
    return report


def check_disjoint_support_additivity(mu: TopologicalMeasure, trials: int = 200,
                                      seed: int = 0, *, frame: Frame) -> CheckReport:
    """rho(f + g) = rho(f) + rho(g) for fields with disjoint supports,
    and rho(h) = rho(h+) - rho(h-) for their signed difference."""
    suite = _Suite(mu, seed, frame)
    rho, frame, report = suite.rho, suite.frame, suite.report
    width = frame.x_max - frame.x_min
    left = (frame.x_min + 0.5, frame.x_min + 0.44 * width,
            frame.y_min + 0.5, frame.y_max - 0.5)
    right = (frame.x_min + 0.56 * width, frame.x_max - 0.5,
             frame.y_min + 0.5, frame.y_max - 0.5)
    for trial in suite.trials(trials):
        ft, gt = suite.plateau(left), suite.plateau(right)
        vf, vg = rho(ft), rho(gt)
        v_sum = rho(add(ft, gt))
        report.expect(abs(v_sum - vf - vg), _SUITE_TOL,
                      trial=trial, kind="sum", lhs=v_sum, rhs=vf + vg)
        h = add(ft, scale(gt, -1.0))
        vh = rho(h)
        parts = rho(pos_part(h)) - rho(neg_part(h))
        report.expect(abs(vh - parts), _SUITE_TOL,
                      trial=trial, kind="signed_parts", lhs=vh, rhs=parts)
    return report


def check_nonlinearity_example(frame: Frame) -> CheckReport:
    """Golden values of the crossed-plateau configuration at each height b.

    rho(f) = rho(g) = b while rho(f + g) = 1.5 b, so the additivity defect
    is exactly b/2: the functional is not linear.
    """
    if (frame.x_min, frame.x_max, frame.y_min, frame.y_max) != (0.0, 10.0, 0.0, 10.0):
        raise GeometryError("the crossed-plateau configuration lives on [0,10]^2")
    if frame.nx < 64 or frame.ny < 64:
        raise GeometryError("configuration needs at least a 64x64 grid")
    report = CheckReport()
    rho = QuasiIntegral(crossing_measure())
    per_height = {}
    for height in _HEIGHTS:
        eps = 1e-9 * height
        f, g = crossing_fields(frame, height)
        vf, vg = rho(f), rho(g)
        v_sum = rho(add(f, g))
        defect = vf + vg - v_sum
        report.trials += 1
        triple_err = _largest((abs(vf - height), abs(vg - height),
                               abs(v_sum - 1.5 * height)))
        report.expect(triple_err, eps, height=height, kind="triple",
                      rho_f=vf, rho_g=vg, rho_sum=v_sum)
        # the golden defect is exact: b/2 bit for bit
        report.expect(abs(defect - 0.5 * height), 0.0,
                      height=height, kind="defect", defect=defect)
        per_height[str(height)] = {
            "rho_f": vf, "rho_g": vg, "rho_sum": v_sum,
            "defect": defect, "defect_over_b": defect / height,
        }
    report.details = per_height
    return report


def check_monotone_lipschitz(mu: TopologicalMeasure, trials: int = 200,
                             seed: int = 0, *, frame: Frame) -> CheckReport:
    """f >= g forces rho(f) >= rho(g); and rho is Lipschitz on a common
    compact support, with constant mu(K) for non-negative pairs and
    2 mu(K) in general."""
    suite = _Suite(mu, seed, frame)
    rho, rng, report = suite.rho, suite.rng, suite.report
    for trial in suite.trials(trials):
        # a truncation, a scaling, or an independent signed field
        ft = suite.field(signed=trial % 3 == 2)
        if trial % 3 == 0:
            gt = truncate(ft, float(rng.uniform(0.2, 0.9)) * max(sup_norm(ft), 0.1))
        elif trial % 3 == 1:
            gt = scale(ft, float(rng.choice([0.25, 0.5, 0.75])))
        else:
            gt = suite.field(signed=True)
        vf, vg = rho(ft), rho(gt)
        if bool(np.all(ft.values >= gt.values)):
            report.expect(vg - vf, _SUITE_TOL, trial=trial, kind="monotone",
                          rho_f=vf, rho_g=vg)
        # a common compact support: a truncation or a scaling of ft vanishes
        # where ft does, so only an independent gt widens it
        K = support_region(ft)
        if trial % 3 == 2:
            K = K.union(support_region(gt))
        mu_K = tm_eval(mu, K)
        nonneg = ft.value_range[0] >= 0 and gt.value_range[0] >= 0
        bound = (1.0 if nonneg else 2.0) * sup_distance(ft, gt) * mu_K + _SUITE_TOL
        gap = abs(vf - vg)
        report.expect(gap - bound, 0.0, trial=trial, kind="lipschitz",
                      gap=gap, bound=bound, mu_K=mu_K)
    return report


def _frac_rect(frame: Frame, fx0, fx1, fy0, fy1, role) -> Region:
    w = frame.x_max - frame.x_min
    h = frame.y_max - frame.y_min
    return rect_region(frame, frame.x_min + fx0 * w, frame.x_min + fx1 * w,
                       frame.y_min + fy0 * h, frame.y_min + fy1 * h, role=role)


def check_tm_axioms(mu: TopologicalMeasure, frame: Frame) -> CheckReport:
    """Additivity on disjoint compacts, the compact/open partition rule,
    superadditivity, sampled monotone-chain smoothness, and sampled
    inner/outer regularity schedules."""
    tol = _default_rt_tol(mu)
    report = CheckReport()

    def expect(label, violation, bound, **witness):
        report.trials += 1
        report.expect(violation, bound, label=label, **witness)

    # the regions that several axioms read, each built and measured once
    core = _frac_rect(frame, 0.48, 0.72, 0.48, 0.72, COMPACT)
    square = _frac_rect(frame, 0.42, 0.78, 0.42, 0.78, OPEN)
    side = _frac_rect(frame, 0.55, 0.74, 0.14, 0.34, COMPACT)
    interior = frame_interior(frame)
    mu_core, mu_square, mu_side, mu_interior = (
        tm_eval(mu, r) for r in (core, square, side, interior))

    expect("empty", tm_eval(mu, empty_region(frame)), 0.0)

    # additivity on disjoint compacts (well separated)
    big = _frac_rect(frame, 0.45, 0.75, 0.45, 0.75, COMPACT)
    pairs = [
        (big, tm_eval(mu, big), _frac_rect(frame, 0.15, 0.35, 0.55, 0.72, COMPACT)),
        (side, mu_side, _frac_rect(frame, 0.10, 0.30, 0.10, 0.30, COMPACT)),
    ]
    for i, (A, mu_A, B) in enumerate(pairs):
        lhs = tm_eval(mu, A.union(B))
        rhs = mu_A + tm_eval(mu, B)
        expect(f"additivity_{i}", abs(lhs - rhs), tol, lhs=lhs, rhs=rhs)

    # partition: mu(U) = mu(K) + mu(U minus K) for the compact core inside an open U
    for i, (U, mu_U) in enumerate([(square, mu_square), (interior, mu_interior)]):
        rhs = mu_core + tm_eval(mu, U.difference(core))
        expect(f"partition_{i}", abs(mu_U - rhs), tol, lhs=mu_U, rhs=rhs)

    # superadditivity: disjoint pieces inside the interior
    total = mu_core + tm_eval(mu, _frac_rect(frame, 0.15, 0.35, 0.55, 0.69, COMPACT)) + mu_side
    expect("superadditivity", total - mu_interior, tol, sum=total, whole=mu_interior)

    # sampled smoothness: along an increasing open chain, whose union is its
    # last element, the values climb; the violation is the largest fall
    values = [tm_eval(mu, _frac_rect(frame, *bounds, OPEN)) for bounds in (
        (0.49, 0.60, 0.49, 0.60), (0.49, 0.66, 0.49, 0.66),
        (0.44, 0.76, 0.44, 0.76), (0.12, 0.77, 0.44, 0.77))] + [mu_interior]
    expect("tau_chain_monotone", _largest(_falls(values)), tol, values=values)

    # sampled inner regularity: eroded compacts climb to an open set from
    # below; the violation is the largest fall or overshoot past mu(U)
    inner_vals = [tm_eval(mu, erode(square, k).with_role(COMPACT)) for k in (3, 2, 1)]
    expect("inner_regularity_monotone",
           _largest(_falls(inner_vals) + [v - mu_square for v in inner_vals]), tol,
           values=inner_vals, mu_U=mu_square)
    if mu.kind == POINT_COUNT:
        expect("inner_regularity_exact", abs(inner_vals[-1] - mu_square), tol,
               values=inner_vals)

    # sampled outer regularity: dilated opens fall to a compact from above;
    # the violation is the largest rise or shortfall below mu(K)
    outer_vals = [tm_eval(mu, dilate(core, k).with_role(OPEN)) for k in (3, 2, 1)]
    expect("outer_regularity_monotone",
           _largest(_falls(outer_vals[::-1]) + [mu_core - v for v in outer_vals]), tol,
           values=outer_vals, mu_K=mu_core)
    if mu.kind == POINT_COUNT:
        expect("outer_regularity_exact", abs(outer_vals[-1] - mu_core), tol,
               values=outer_vals)

    return report


def check_homogeneity(mu: TopologicalMeasure, trials: int = 200, seed: int = 0, *,
                      frame: Frame) -> CheckReport:
    """rho(a f) = a rho(f) for coefficients a of either sign, below and above one."""
    suite = _Suite(mu, seed, frame)
    rho, report = suite.rho, suite.report
    for trial in suite.trials(trials):
        f = suite.field(signed=trial % 2 == 1)
        vf = rho(f)
        for a in _COEFFS:
            report.expect(abs(rho(scale(f, a)) - a * vf), _SUITE_TOL,
                          trial=trial, coeff=a, rho_f=vf)
    return report


def check_positivity(mu: TopologicalMeasure, trials: int = 200, seed: int = 0, *,
                     frame: Frame) -> CheckReport:
    """f >= 0 forces rho(f) >= 0."""
    suite = _Suite(mu, seed, frame)
    for trial in suite.trials(trials):
        v = suite.rho(suite.field())
        suite.report.expect(-v, 0.0, trial=trial, rho=v)
    return suite.report


def check_linear_agreement(mu: TopologicalMeasure, f: ScalarField,
                           variant: str = "B") -> CheckReport:
    """For a genuine measure the quasi-integral matches the direct integral."""
    report = CheckReport()
    result = quasi_integral(mu, f, variant)
    oracle = linear_oracle(mu, f)
    gap = abs(result.value - oracle)
    report.trials = 1
    report.details = {
        "quasi_integral": result.value,
        "oracle": oracle,
        "gap": gap,
    }
    report.expect(gap, _EXACT_TOL, **report.details)
    return report


def check_roundtrip(mu: TopologicalMeasure, catalog) -> CheckReport:
    """Reconstruction recovers tm_eval over the catalog."""
    if not catalog:
        raise ValueError("the catalog must name at least one region")
    report = CheckReport()
    rt_tol = _default_rt_tol(mu)
    entries = roundtrip(mu, catalog)
    per_region = {}
    for e in entries:
        report.trials += 1
        per_region[e.name] = {
            "measured": e.measured, "reconstructed": e.reconstructed,
            "gap": e.gap, "converged": e.report.converged,
            "monotone": e.report.monotone,
        }
        report.expect(e.gap, rt_tol, region=e.name, **per_region[e.name])
    report.details = per_region
    return report


def check_extension_consistency(mu: TopologicalMeasure, f: ScalarField) -> CheckReport:
    """Chopping off a shrinking bottom slice perturbs rho boundedly.

    For n = 2, 4 and 8 the tail f_n = f - min(f, 1/n) satisfies
    |rho(f) - rho(f_n)| <= ||f - f_n|| * mu(X); the gaps must shrink as the
    slice does.
    """
    total = mu.total_mass(f.frame)
    if math.isinf(total):
        raise InfiniteMeasureError("extension check requires a finite measure")
    if f.value_range[0] < 0:
        raise DomainError("extension check requires a non-negative field")
    report = CheckReport()
    rho_f = quasi_integral(mu, f).value
    tails, gaps = [], []
    for n in _SLICES:
        delta = 1.0 / n
        low = truncate(f, delta)
        rho_tail = quasi_integral(mu, add(f, scale(low, -1.0))).value
        gap = abs(rho_f - rho_tail)
        bound = sup_norm(low) * total + _EXACT_TOL
        tails.append(rho_tail)
        gaps.append(gap)
        report.trials += 1
        report.expect(gap - bound, 0.0, delta=delta, gap=gap, bound=bound)
    # the violation is the largest rise between successive gaps
    converged = report.expect(_largest(_falls(gaps[::-1])), _EXACT_TOL,
                              kind="not_converged", gaps=gaps)
    report.details = {"rho_f": rho_f, "tails": tails, "gaps": gaps,
                      "converged": converged}
    return report


def check_distribution_invariants(mu: TopologicalMeasure, trials: int = 50,
                                  seed: int = 0, *, frame: Frame) -> CheckReport:
    """Every constructed distribution function is a non-increasing step
    function with a zero tail, bounded by the support mass, and variants A
    and B agree on a finite measure."""
    suite = _Suite(mu, seed, frame)
    report = suite.report
    finite = math.isfinite(mu.total_mass(suite.frame))
    for trial in suite.trials(trials):
        f = suite.field(signed=trial % 3 == 2)
        res_b = quasi_integral(mu, f, "B")
        F = res_b.distribution
        vals = np.concatenate([[F.left_limit], F.values])
        report.expect(np.diff(vals).max(), 0.0, trial=trial, kind="non_increasing")
        report.expect(_largest((F(sup_norm(f) + 1.0), F.values[-1])), 0.0,
                      trial=trial, kind="zero_tail")
        supp_mass = tm_eval(mu, support_region(f))
        report.expect(vals.max() - supp_mass, _EXACT_TOL,
                      trial=trial, kind="support_bound", support_mass=supp_mass)
        if finite:
            res_a = quasi_integral(mu, f, "A")
            report.expect(abs(res_a.value - res_b.value), _EXACT_TOL, trial=trial,
                          kind="variant_agreement", A=res_a.value, B=res_b.value)
    return report
