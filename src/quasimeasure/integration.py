"""Distribution functions and the quasi-integral they define.

For a measure mu and a field f, the distribution function is

    variant A (finite mu):          F(t) = mu(f > t)
    variant B (compact-finite mu):  F(t) = mu({f > t} minus the zero set)

F is non-increasing and right-continuous, and the quasi-integral is the
Riemann-Stieltjes integral of the identity against the measure F induces:

    rho(f) = integral_[a,b] F(t) dt + a * F(a-),   [a, b] = sampled range of f.

On a raster F is an exact step function: it can only jump where t crosses a
sampled value. Each family of measure builds it exactly, in one way:

* an additive measure (density or atomic) hands out its atoms of mass, and F
  is their layer-cake sum: the weight at each distinct value, then a
  cumulative sum;
* a point-count measure is not additive, so its jumps are located by
  monotone bisection over the gaps between distinct sampled values, one
  mass evaluation per probe.

Either way the integral carries no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfiniteMeasureError, VariantError
from .fields import ScalarField, scale, sup_norm, truncate
from .measures import ATOMIC, DENSITY, TopologicalMeasure
from .regions import COMPACT, OPEN, Region

VARIANT_A = "A"
VARIANT_B = "B"


@dataclass(frozen=True, eq=False)
class DistributionFn:
    """Right-continuous non-increasing step function.

    F(t) = values[i] on [thresholds[i], thresholds[i+1]), values[-1] on the
    final ray, and left_limit below thresholds[0]. The last value is 0: F
    vanishes beyond the sup norm of the field.
    """

    thresholds: np.ndarray
    values: np.ndarray
    domain: tuple[float, float]
    left_limit: float
    total_mass: float

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.thresholds, dtype=float))
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if t.shape != v.shape or t.ndim != 1 or len(t) == 0:
            raise ValueError("thresholds and values must be equal-length 1-d arrays")
        if bool((np.diff(t) <= 0).any()):
            raise ValueError("thresholds must be strictly increasing")
        slack = 1e-12 * (abs(self.left_limit) + abs(float(v[0])) + 1.0)
        if bool((np.diff(v) > slack).any()) or v[0] > self.left_limit + slack:
            raise ValueError("distribution function must be non-increasing")
        if bool((v < 0).any()) or self.left_limit < 0:
            raise ValueError("distribution function must be non-negative")
        if v[-1] != 0.0:
            raise ValueError("distribution function must vanish beyond the range")
        # F may reach 0 before the top of the range, so the last breakpoint
        # only needs to stay inside the domain.
        if not (self.domain[0] == t[0] and t[-1] <= self.domain[1]):
            raise ValueError("breakpoints must start at the domain and stay inside it")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)

    @property
    def breakpoints(self) -> list[tuple[float, float]]:
        return list(zip(self.thresholds.tolist(), self.values.tolist()))

    def __call__(self, t: float) -> float:
        """F(t)."""
        if math.isinf(t):
            return 0.0 if t > 0 else self.left_limit
        i = int(np.searchsorted(self.thresholds, t, side="right")) - 1
        return self.left_limit if i < 0 else float(self.values[i])

    def left_value(self, t: float) -> float:
        """F(t-): the limit from the left."""
        if math.isinf(t):
            return 0.0 if t > 0 else self.left_limit
        i = int(np.searchsorted(self.thresholds, t, side="left")) - 1
        return self.left_limit if i < 0 else float(self.values[i])

    def integral(self) -> float:
        """Exact integral of the step representation over the domain."""
        if len(self.thresholds) < 2:
            return 0.0
        return float(np.sum(self.values[:-1] * np.diff(self.thresholds)))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# right-continuous step function: F(t) = F_i on [t_i, t_{i+1})\n")
            fh.write(f"# left limit below first breakpoint: {float(self.left_limit)!r}\n")
            fh.write("t,F\n")
            for t, v in zip(self.thresholds, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")


def interval_mass(F: DistributionFn, a: float, b: float) -> float:
    """Mass the induced measure assigns to the open interval (a, b): F(a) - F(b-)."""
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    return F(a) - F.left_value(b)


@dataclass(frozen=True)
class IntegrationDiagnostics:
    breakpoint_count: int
    refinement_iterations: int


@dataclass(frozen=True)
class QuasiIntegralResult:
    value: float
    distribution: DistributionFn
    diagnostics: IntegrationDiagnostics


class _LevelEvaluator:
    """Evaluates F segment-by-segment over the distinct sampled values.

    Segment i is the constancy interval [v_i, v_{i+1}) of F; segment -1 is
    the ray below the range, segment m-1 the zero tail.
    """

    def __init__(self, mu: TopologicalMeasure, f: ScalarField, variant: str):
        self.mu = mu
        self.f = f
        self.variant = variant
        self.levels = np.unique(f.values)
        self.cache: dict[int, float] = {}
        self.evals = 0
        if variant == VARIANT_A:
            self.total = mu.total_mass(f.frame)
            if math.isinf(self.total):
                raise InfiniteMeasureError("variant A requires a finite measure")

    @property
    def m(self) -> int:
        return len(self.levels)

    def threshold_for_segment(self, i: int) -> float:
        return 0.5 * (self.levels[i] + self.levels[i + 1])

    def value_at_threshold(self, t: float) -> float:
        """F(t) for a t strictly between sampled values."""
        vals = self.f.values
        frame = self.f.frame
        self.evals += 1
        if self.variant == VARIANT_B:
            if t >= 0:
                mask = vals > t
            else:
                mask = (vals > t) & (vals != 0.0)
            return self.mu.mass(Region(frame, mask, OPEN))
        if t >= 0:
            return self.mu.mass(Region(frame, vals > t, OPEN))
        # co-compact superlevel set: total mass minus the compact sublevel set
        return self.total - self.mu.mass(Region(frame, vals <= t, COMPACT))

    def segment_value(self, i: int) -> float:
        if i in self.cache:
            return self.cache[i]
        if i >= self.m - 1:
            val = 0.0
        elif i < 0:
            if self.variant == VARIANT_A:
                val = self.total
            else:
                val = self.mu.mass(
                    Region(self.f.frame, self.f.values != 0.0, OPEN)
                )
                self.evals += 1
        else:
            val = self.value_at_threshold(self.threshold_for_segment(i))
        self.cache[i] = val
        return val

    def refine(self, lo: int, hi: int, jumps: list[tuple[float, float]]):
        """Locate all jumps of F between segments lo < hi exactly.

        F is non-increasing, so equal endpoint values mean no jump anywhere
        in between and the bracket is pruned whole.
        """
        flo = self.segment_value(lo)
        fhi = self.segment_value(hi)
        if flo == fhi:
            return
        if hi == lo + 1:
            jumps.append((float(self.levels[hi]), fhi))
            return
        mid = (lo + hi) // 2
        self.refine(lo, mid, jumps)
        self.refine(mid, hi, jumps)


def _bisection(mu: TopologicalMeasure, f: ScalarField,
               variant: str) -> tuple[DistributionFn, int]:
    """F by monotone bisection, for a measure that has no atoms to sum."""
    ev = _LevelEvaluator(mu, f, variant)
    levels = ev.levels
    jumps: list[tuple[float, float]] = []
    ev.refine(0, ev.m - 1, jumps)
    F = DistributionFn(
        thresholds=np.array([levels[0]] + [t for t, _ in jumps]),
        values=np.array([ev.segment_value(0)] + [v for _, v in jumps]),
        domain=(float(levels[0]), float(levels[-1])),
        left_limit=ev.segment_value(-1), total_mass=mu.total_mass(f.frame),
    )
    return F, ev.evals


def _layer_cake(mu: TopologicalMeasure, f: ScalarField, variant: str,
                values: np.ndarray, weights) -> DistributionFn:
    """F of an additive measure: cumulative sums of its atoms' weights."""
    total = mu.total_mass(f.frame)
    if variant == VARIANT_A and math.isinf(total):
        raise InfiniteMeasureError("variant A requires a finite measure")
    if np.ndim(weights) == 0:
        # one weight for every atom: sum counts, which is exact, and scale once
        levels, mass = np.unique(values, return_counts=True)
        unit = weights
    else:
        # searchsorted gives np.unique's inverse in less time and memory
        levels = np.unique(values)
        mass = np.bincount(np.searchsorted(levels, values), weights=weights)
        unit = 1.0
    # The breakpoints start at the field's minimum, and F changes form at 0.
    a, b = float(f.values.min()), float(f.values.max())
    grid = np.union1d(levels, [a, 0.0])
    at = np.zeros(len(grid), dtype=mass.dtype)  # mass of the atoms at each grid value
    at[np.searchsorted(grid, levels)] = mass
    # A zero-valued atom lies in no {f > t} with t >= 0; variant B drops it.
    at[grid == 0.0] = 0
    above = np.cumsum(at[::-1])[::-1] * unit  # above[i] = mass of {f >= grid[i]}
    F = np.append(above[1:], 0.0)  # F = mass of {f > grid[i]} on [grid[i], grid[i+1])
    left_limit = float(above[0])
    if variant == VARIANT_A:
        # below 0, {f > t} is co-compact and holds every atom outside the frame
        below = grid < 0
        F[below] = total - np.cumsum(at)[below] * unit
        left_limit = total
    keep = np.flatnonzero(np.r_[True, F[1:] != F[:-1]])
    return DistributionFn(
        thresholds=grid[keep], values=F[keep], domain=(a, b),
        left_limit=left_limit, total_mass=total,
    )


def _build_distribution(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str,
) -> tuple[DistributionFn, int]:
    """F and the number of mass evaluations it took."""
    if variant not in (VARIANT_A, VARIANT_B):
        raise VariantError(f"unknown variant {variant!r}")
    atoms = mu.atoms(f)
    if atoms is None:
        return _bisection(mu, f, variant)
    return _layer_cake(mu, f, variant, *atoms), 0


def distribution_function(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str = VARIANT_B,
) -> DistributionFn:
    """Distribution function of f with respect to mu, every jump exact."""
    F, _ = _build_distribution(mu, f, variant)
    return F


def quasi_integral(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str = VARIANT_B,
) -> QuasiIntegralResult:
    """rho_mu(f) via the Stieltjes formula, with the distribution attached."""
    F, evals = _build_distribution(mu, f, variant)
    diag = IntegrationDiagnostics(
        breakpoint_count=len(F.thresholds),
        refinement_iterations=evals,
    )
    value = F.integral() + F.domain[0] * F.left_limit
    return QuasiIntegralResult(value=value, distribution=F, diagnostics=diag)


def linear_oracle(mu: TopologicalMeasure, f: ScalarField) -> float:
    """Direct integral of f for genuine measures: the linear reference value."""
    kind = getattr(mu, "kind", None)
    if kind == DENSITY:
        grid = mu._density_grid(f.frame)
        return float(np.sum(f.values * grid)) * f.frame.cell_area
    if kind == ATOMIC:
        from .regions import point_cells

        cells = point_cells(f.frame, mu.points)
        inside = cells[:, 0] >= 0
        if not inside.any():
            return 0.0
        rows, cols = cells[inside, 0], cells[inside, 1]
        return float(np.sum(mu.weights[inside] * f.values[rows, cols]))
    raise VariantError(f"linear oracle is undefined for measure kind {kind!r}")


@dataclass(frozen=True)
class ExtensionStep:
    delta: float
    rho_tail: float
    gap: float
    bound: float
    excess: float


@dataclass(frozen=True)
class ExtensionConsistencyReport:
    """Truncation-tail schedule rho(f - min(f, delta)) -> rho(f)."""

    rho_f: float
    steps: tuple[ExtensionStep, ...]
    converged: bool
    passed: bool


def extension_consistency(
    mu: TopologicalMeasure,
    f: ScalarField,
    ns=(2, 4, 8),
    tol: float = 1e-9,
) -> ExtensionConsistencyReport:
    """Check that chopping off a shrinking bottom slice perturbs rho boundedly.

    For each n the tail f_n = f - min(f, 1/n) satisfies
    |rho(f) - rho(f_n)| <= ||f - f_n|| * mu(X); the gaps must shrink as the
    slice does.
    """
    total = mu.total_mass(f.frame)
    if math.isinf(total):
        raise InfiniteMeasureError("extension check requires a finite measure")
    if float(f.values.min()) < 0:
        raise DomainError("extension check requires a non-negative field")
    rho_f = quasi_integral(mu, f).value
    steps = []
    gaps = []
    for n in ns:
        delta = 1.0 / n
        low = truncate(f, delta)
        tail = f + scale(low, -1.0)
        rho_tail = quasi_integral(mu, tail).value
        gap = abs(rho_f - rho_tail)
        bound = sup_norm(low) * total + tol
        steps.append(ExtensionStep(
            delta=delta, rho_tail=rho_tail, gap=gap, bound=bound,
            excess=max(0.0, gap - bound),
        ))
        gaps.append(gap)
    converged = all(g2 <= g1 + tol for g1, g2 in zip(gaps[:-1], gaps[1:]))
    passed = converged and all(s.excess == 0.0 for s in steps)
    return ExtensionConsistencyReport(
        rho_f=rho_f, steps=tuple(steps), converged=converged, passed=passed,
    )


@dataclass(frozen=True)
class QuasiIntegral:
    """A measure bound to an integration variant: callable rho."""

    mu: TopologicalMeasure
    variant: str = VARIANT_B

    def evaluate(self, f: ScalarField) -> QuasiIntegralResult:
        return quasi_integral(self.mu, f, self.variant)

    def __call__(self, f: ScalarField) -> float:
        return self.evaluate(f).value
