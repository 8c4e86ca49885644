"""Distribution functions and the quasi-integral they define.

For a measure mu and a field f, the distribution function is

    variant A (finite mu):          F(t) = mu(f > t)
    variant B (compact-finite mu):  F(t) = mu({f > t} minus the zero set)

F is non-increasing and right-continuous, and the quasi-integral is the
Riemann-Stieltjes integral of the identity against the measure F induces:

    rho(f) = integral_[a,b] F(t) dt + a * F(a-),   [a, b] = sampled range of f.

On a raster F is an exact step function: it can only jump where t crosses a
sampled value. Each family of measure builds it exactly, in one way:

* an additive measure (density or atomic) hands out its atoms of mass as a
  raster: F is the cumulative sum of the mass at each distinct value, and
  rho the sum of level * mass. A zero-valued atom's weight is never used,
  so the raster is read on the box of {f != 0} alone;
* a point-count measure is not additive, so its jumps are located by
  monotone bisection over the gaps between distinct sampled values, one
  mass evaluation per probe. A bracket splits at a marked point's level
  when one lies inside it, since a point leaves {f > t} exactly there, and
  every probe is a mask of the field cropped to the box of {f != 0}. Each
  set is probed at most once: under variant B, F cannot jump at 0, since
  for t just below 0 the set {f > t} minus the zero set is {f > 0}, the
  set probed at 0. So that segment reads the probe at 0, which is the value
  a second probe of the same mask would return, bit for bit.

A field sorts its support once: its box, its distinct values with the
zero level joined, and for the layer cake each box cell's place among them,
are found on first use and kept on the field, so every integral of it reads
that one result. Either way the integral carries no quadrature error.

A unit ramp over a distance map is a non-decreasing function of the map,
so for a point-count measure the reconstruction schedule reads each of a
map's ramps off one distribution of the map (`_ramp_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteMeasureError, VariantError
from .fields import ScalarField, _levels_of, ramp_field
from .grid import Frame
from .measures import PointCountMeasure, TopologicalMeasure

VARIANT_A = "A"
VARIANT_B = "B"


@dataclass(frozen=True, eq=False)
class DistributionFn:
    """Right-continuous non-increasing step function.

    F(t) = values[i] on [thresholds[i], thresholds[i+1]), values[-1] on the
    final ray, and left_limit below thresholds[0]. F starts at its first
    breakpoint, the field's minimum, and its last value is 0: F vanishes
    beyond the sup norm of the field.
    """

    thresholds: np.ndarray
    values: np.ndarray
    left_limit: float

    def __post_init__(self):
        # copies, so that the caller's arrays stay writeable
        self._own(np.array(self.thresholds, dtype=float), np.array(self.values, dtype=float))

    @classmethod
    def _of(cls, thresholds: np.ndarray, values: np.ndarray,
            left_limit: float) -> "DistributionFn":
        """F of float arrays just made for it that no caller holds, taken
        without a copy. A layer cake's arrays reach 57k levels at 512², and
        copying them made `linear_512`'s mean operation 9% slower on a
        2-vCPU Xeon."""
        F = object.__new__(cls)
        object.__setattr__(F, "left_limit", left_limit)
        F._own(thresholds, values)
        return F

    def _own(self, t: np.ndarray, v: np.ndarray):
        """Check and freeze t and v as the thresholds and values."""
        if t.shape != v.shape or t.ndim != 1 or len(t) == 0:
            raise ValueError("thresholds and values must be equal-length 1-d arrays")
        # every comparison is written so that NaN fails it, and the ends of
        # increasing thresholds and of non-increasing values bound the rest
        if not (math.isfinite(t[0]) and math.isfinite(t[-1])
                and math.isfinite(v[0]) and math.isfinite(self.left_limit)):
            raise ValueError("distribution function entries must be finite")
        if not bool((np.diff(t) > 0).all()):
            raise ValueError("thresholds must be strictly increasing")
        slack = 1e-12 * (abs(self.left_limit) + abs(float(v[0])) + 1.0)
        if not (bool((np.diff(v) <= slack).all()) and v[0] <= self.left_limit + slack):
            raise ValueError("distribution function must be non-increasing")
        if not (bool((v >= 0).all()) and self.left_limit >= 0):
            raise ValueError("distribution function must be non-negative")
        if v[-1] != 0.0:
            raise ValueError("distribution function must vanish beyond the range")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t: float) -> float:
        """F(t)."""
        if math.isinf(t):
            return 0.0 if t > 0 else self.left_limit
        i = int(np.searchsorted(self.thresholds, t, side="right")) - 1
        return self.left_limit if i < 0 else float(self.values[i])


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

    Segment i is probed as {f > v_i}, which is its set exactly. A probe at
    the midpoint of [v_i, v_{i+1}) would not be: between two adjacent floats
    the midpoint rounds onto one of them.

    A marked point leaves {f > t} exactly when t crosses its cell's value v_j,
    between segments j - 1 and j; those segments are the anchors at which
    `refine` prefers to split a bracket.

    0.0 is always a level, and segment `zero` starts there. Under variant B
    segment zero - 1 measures {f >= 0} minus the zero set, which is {f > 0},
    the set of segment zero, so it reads that segment's value and is never
    probed: the ray below a non-negative field, its left limit, costs
    nothing, and a non-positive field reads the zero tail's 0.0, the empty
    set's mass.

    Every probe mask lies inside the field's box, which holds {f != 0}:
    {f > t} for t >= 0, and for t < 0 either {f > t} off the zero set or
    {f <= t}. So the field is cropped to that box once and each probe is a
    mask of the crop, whose mass the kernel reads on the mask's own box,
    with the marked points shifted into its coordinates. The field is 0 on
    the frame's edge ring, so no probe touches the edge and none would fail
    the open-role edge check of a full-frame Region.
    """

    def __init__(self, mu: PointCountMeasure, f: ScalarField, variant: str, total: float | None):
        self.mu = mu
        self.variant = variant
        self.total = total
        box, self.levels = f._box, f._levels
        self.zero = int(self.levels.searchsorted(0.0))
        rows, cols = mu.marked_cells(f.frame)
        j = np.searchsorted(self.levels, f.values[rows, cols])
        self.anchors = np.unique(np.concatenate((j - 1, j))).tolist()
        self.sub = f.values[box]
        self.rows, self.cols = rows - box[0].start, cols - box[1].start
        self.cache: dict[int, float] = {}
        self.evals = 0

    @property
    def m(self) -> int:
        return len(self.levels)

    def mass_of_crop(self, mask: np.ndarray) -> float:
        """Mass of the set whose cells in the crop are `mask`."""
        self.evals += 1
        return self.mu._mass_of_mask(mask, self.rows, self.cols)

    def value_at_level(self, t: float) -> float:
        """F(t) for a sampled value t: the mass of {f > t}."""
        sub = self.sub
        if t >= 0:
            return self.mass_of_crop(sub > t)
        if self.variant == VARIANT_B:
            return self.mass_of_crop((sub > t) & (sub != 0.0))
        # co-compact superlevel set: total mass minus the compact sublevel set
        return self.total - self.mass_of_crop(sub <= t)

    def segment_value(self, i: int) -> float:
        if i in self.cache:
            return self.cache[i]
        if self.variant == VARIANT_B and i == self.zero - 1:
            val = self.segment_value(self.zero)
        elif i >= self.m - 1:
            val = 0.0
        elif i < 0:
            if self.variant == VARIANT_A:
                val = self.total
            else:
                val = self.mass_of_crop(self.sub != 0.0)
        else:
            val = self.value_at_level(float(self.levels[i]))
        self.cache[i] = val
        return val

    def refine(self, lo: int, hi: int, jumps: list[tuple[float, float]]):
        """Locate all jumps of F between segments lo < hi exactly.

        F is non-increasing, so equal endpoint values mean no jump anywhere
        in between and the bracket is pruned whole. The split point only
        decides where to probe: the anchor nearest the middle when one lies
        strictly inside, else the middle.
        """
        flo = self.segment_value(lo)
        fhi = self.segment_value(hi)
        if flo == fhi:
            return
        if hi == lo + 1:
            jumps.append((float(self.levels[hi]), fhi))
            return
        inside = [a for a in self.anchors if lo < a < hi]
        if inside:
            mid = min(inside, key=lambda a: abs(2 * a - lo - hi))
        else:
            mid = (lo + hi) // 2
        self.refine(lo, mid, jumps)
        self.refine(mid, hi, jumps)


def _bisection(mu: PointCountMeasure, f: ScalarField, variant: str,
               total: float | None) -> tuple[DistributionFn, float, int]:
    """F by monotone bisection, and rho from F: a point-count measure has no atoms."""
    ev = _LevelEvaluator(mu, f, variant, total)
    levels = ev.levels
    jumps: list[tuple[float, float]] = []
    ev.refine(0, ev.m - 1, jumps)
    F = DistributionFn._of(
        thresholds=np.array([levels[0]] + [t for t, _ in jumps]),
        values=np.array([ev.segment_value(0)] + [v for _, v in jumps]),
        left_limit=ev.segment_value(-1),
    )
    return F, _stieltjes(F), ev.evals


def _stieltjes(F: DistributionFn) -> float:
    """rho from F: integral_[a,b] F(t) dt + a * F(a-), a = F's first breakpoint."""
    return (float(np.sum(F.values[:-1] * np.diff(F.thresholds)))
            + float(F.thresholds[0]) * F.left_limit)


def _layer_cake(f: ScalarField, variant: str, total: float | None,
                values: np.ndarray, weights, scale: float) -> tuple[DistributionFn, float]:
    """F of an additive measure, cumulative sums of its atoms' masses, and rho.

    A density's atoms are the field's own cells: it reads the levels that the
    field sorted once, and each box cell's index into them, which the field
    keeps for its next integral. A zero-valued atom's mass is never used,
    and each non-zero level gathers the same atoms, in the same raster
    order, on the box as over the whole raster. An atomic measure's atoms,
    one row of them, are sorted here.
    """
    weights = np.asarray(weights)
    if weights.size and weights.min() * scale == weights.max() * scale:
        # x * scale rounds monotonically in x, so equal extremes mean equal
        # weights, as for one float weight (a 0-d raster); a cumulative sum
        # of many equal floats drifts one way: count them instead
        unit = weights.flat[0] * scale
    else:
        unit = None
    if values is f.values:
        levels, index = f._levels, f._level_index
        if unit is None:
            weights = weights[f._box]
    else:
        # The breakpoints start at the field's minimum, and F changes form at 0.
        levels = _levels_of(values, f.value_range[0])
        index = np.searchsorted(levels, values)
    if unit is None:
        mass = np.bincount(index.ravel(), weights=(weights * scale).ravel(),
                           minlength=len(levels))
        unit = 1.0
    else:
        mass = np.bincount(index.ravel(), minlength=len(levels))
    # A zero-valued atom lies in no {f > t} with t >= 0; variant B drops it.
    mass[levels == 0.0] = 0
    above = np.cumsum(mass[::-1])[::-1] * unit  # above[i] = mass of {f >= levels[i]}
    F = np.append(above[1:], 0.0)  # F = mass of {f > levels[i]} on [levels[i], levels[i+1])
    left_limit = float(above[0])
    if variant == VARIANT_A:
        # below 0, {f > t} is co-compact and holds every atom outside the frame
        below = levels < 0
        F[below] = total - np.cumsum(mass)[below] * unit
        left_limit = total
    keep = np.flatnonzero(np.r_[True, F[1:] != F[:-1]])
    # rho = sum of level * mass, taken before a cumulative sum can drift, by
    # numpy's pairwise sum: a BLAS dot product's bits depend on the CPU
    return (DistributionFn._of(thresholds=levels[keep], values=F[keep], left_limit=left_limit),
            float(np.sum(levels * mass) * unit))


def _build_distribution(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str,
) -> tuple[DistributionFn, float, int]:
    """F, rho and the number of mass evaluations they took."""
    if variant not in (VARIANT_A, VARIANT_B):
        raise VariantError(f"unknown variant {variant!r}")
    # only variant A's formula reads mu(X): under B a density grid is not summed
    total = mu.total_mass(f.frame) if variant == VARIANT_A else None
    if variant == VARIANT_A and math.isinf(total):
        raise InfiniteMeasureError("variant A requires a finite measure")
    atoms = mu.atoms(f)
    # rho past the float range is inf, or NaN where infinities cancel: an
    # error, as a non-finite F is in DistributionFn, and not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if atoms is None:
            F, value, evals = _bisection(mu, f, variant, total)
        else:
            F, value, evals = *_layer_cake(f, variant, total, *atoms), 0
    if not math.isfinite(value):
        raise OverflowError(f"rho is {value}: past the float range")
    return F, value, evals


def distribution_function(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str = VARIANT_B,
) -> DistributionFn:
    """Distribution function of f with respect to mu, every jump exact."""
    return _build_distribution(mu, f, variant)[0]


def quasi_integral(
    mu: TopologicalMeasure,
    f: ScalarField,
    variant: str = VARIANT_B,
) -> QuasiIntegralResult:
    """rho_mu(f) via the Stieltjes formula, with the distribution attached."""
    F, value, evals = _build_distribution(mu, f, variant)
    diag = IntegrationDiagnostics(
        breakpoint_count=len(F.thresholds),
        refinement_iterations=evals,
    )
    return QuasiIntegralResult(value=value, distribution=F, diagnostics=diag)


def _ramp_integrals(mu: TopologicalMeasure, frame: Frame, box: tuple[slice, slice],
                    dist: np.ndarray, widths: list[float]) -> list[float]:
    """rho of the unit ramp `ramp_field(frame, box, dist, 1.0, w)` for each
    width w, under variant B, from one distribution per distance map.

    rho is linear on the functions phi(g) of one field g, so for the
    non-decreasing phi(d) = min(1, d / w), with phi(0) = 0, rho of a ramp
    can be read off the distribution G of g alone. Here g is the distance
    clipped at the widest width, min(dist, max(widths)); every ramp is
    phi(g), since a cell at or beyond the widest width is 1.0 on each ramp.

    The read-off is exact, bit for bit. fl(d / w) is non-decreasing in d,
    so for t < 1 each set {ramp > t} is {g > d} for the largest sampled d
    whose image is at most t. Both sets crop to the same box of non-zero
    values, so the mass kernel sees the same mask and returns the same bits.
    F therefore jumps at the images of G's jumps; where several jumps of G
    share one image, F takes the value after the last of them. Its arrays
    are the ones the bisection of the built ramp returns, so rho is too.

    An additive measure's rho is the sum of level * mass over the ramp's own
    levels. Distances that share an image pool their masses before the
    product, so its bits cannot be read off G: it keeps one layer cake per
    width.
    """
    if not isinstance(mu, PointCountMeasure):
        return [quasi_integral(mu, ramp_field(frame, box, dist, 1.0, w)).value
                for w in widths]
    clipped = np.zeros(frame.shape)
    clipped[box] = np.minimum(dist, max(widths))
    G = quasi_integral(mu, ScalarField._of(frame, clipped, box)).distribution
    return [_stieltjes(_ramp_distribution(G, w)) for w in widths]


def _ramp_distribution(G: DistributionFn, w: float) -> DistributionFn:
    """F of min(1, g / w), read off the distribution G of a field g >= 0:
    each jump of G moves to its image, and jumps that share an image merge
    into the last of them. G's first breakpoint is g's minimum, 0.0."""
    images = np.concatenate((G.thresholds[:1], np.minimum(1.0, G.thresholds[1:] / w)))
    last = np.flatnonzero(np.r_[images[1:] != images[:-1], True])
    return DistributionFn._of(images[last], G.values[last], G.left_limit)


def linear_oracle(mu: TopologicalMeasure, f: ScalarField) -> float:
    """Direct integral of f for genuine measures: the linear reference value."""
    atoms = mu.atoms(f)
    if atoms is None:
        raise VariantError(f"linear oracle is undefined for measure kind {mu.kind!r}")
    values, weights, scale = atoms
    # its sum is not yet scaled by the cell area, so it can overflow where rho
    # does not
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(values * weights)) * scale
    if not math.isfinite(value):
        raise OverflowError(f"the linear oracle is {value}: past the float range")
    return value


@dataclass(frozen=True)
class QuasiIntegral:
    """A measure's quasi-integral as a callable: rho(f)."""

    mu: TopologicalMeasure

    def __call__(self, f: ScalarField) -> float:
        return quasi_integral(self.mu, f).value
