"""Compactly supported scalar fields on a frame and the surgery on them.

Fields are sampled at cell centers. Every constructor keeps the outermost
ring of samples at exactly 0, which is how compact support strictly inside
the window is modelled. Built-in constructions are piecewise linear in
space, so level sets are computable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    DomainError,
    FrameError,
    FrameMismatchError,
    GeometryError,
    TieBreakError,
)
from .grid import Frame
from .regions import COMPACT, OPEN, Region, dilate

# Relative scale of the value-space tie guard (fraction of the value range).
TIE_EPS_VALUE_FRACTION = 1e-6

# Tolerance for the phi(0) = 0 contract of piecewise-linear maps.
_PLM_ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Grid-sampled real function vanishing on the frame boundary."""

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != self.frame.shape:
            raise ValueError(f"values shape {vals.shape} != frame shape {self.frame.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        boundary = self.frame.boundary_mask()
        if bool((vals[boundary] != 0.0).any()):
            raise FrameError("field must vanish on the frame boundary")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check_frame(self, other: "ScalarField"):
        if self.frame != other.frame:
            raise FrameMismatchError("fields live on different frames")

    def value_at(self, x: float, y: float) -> float:
        """Sample at the cell containing (x, y)."""
        if not self.frame.contains_point(x, y):
            return 0.0
        row, col = self.frame.cell_of(x, y)
        return float(self.values[row, col])

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    def tie_eps_value(self) -> float:
        lo, hi = self.value_range
        return (hi - lo) * TIE_EPS_VALUE_FRACTION

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return add(self, scale(other, -1.0))
        return NotImplemented

    def __mul__(self, a):
        if isinstance(a, (int, float)):
            return scale(self, float(a))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap:
    """Continuous piecewise-linear map with phi(0) = 0 on a closed interval.

    The zero constraint is what keeps compositions inside the singly
    generated subalgebra of a compactly supported field: composing cannot
    create values at infinity.
    """

    knots: np.ndarray  # (m, 2), x strictly increasing, domain contains 0

    def __post_init__(self):
        knots = np.ascontiguousarray(np.asarray(self.knots, dtype=float))
        if knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2:
            raise ValueError("knots must be an (m >= 2, 2) array")
        xs = knots[:, 0]
        if not bool(np.all(np.diff(xs) > 0)):
            raise DomainError("knot x-coordinates must be strictly increasing")
        if not (xs[0] <= 0.0 <= xs[-1]):
            raise DomainError("domain must contain 0")
        if abs(float(np.interp(0.0, knots[:, 0], knots[:, 1]))) > _PLM_ZERO_TOL * (
            1.0 + float(np.abs(knots[:, 1]).max())
        ):
            raise DomainError("map must satisfy phi(0) = 0")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0, 0]), float(self.knots[-1, 0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.knots[:, 0], self.knots[:, 1])
        # phi(0) = 0 holds by contract; make it bitwise exact so that composed
        # fields keep exact zeros outside their support.
        out = np.where(x == 0.0, 0.0, out)
        return out if out.ndim else float(out)

    @classmethod
    def identity(cls, lo: float, hi: float) -> "PiecewiseLinearMap":
        return cls(np.array([[lo, lo], [hi, hi]]))

    @classmethod
    def truncation(cls, delta: float, lo: float, hi: float) -> "PiecewiseLinearMap":
        """min(x, delta) on [lo, hi]; requires lo <= 0 < delta."""
        if delta <= 0:
            raise DomainError("truncation level must be positive")
        if delta >= hi:
            return cls.identity(lo, hi)
        return cls(np.array([[lo, lo], [delta, delta], [hi, delta]]))

    def __add__(self, other):
        if not isinstance(other, PiecewiseLinearMap):
            return NotImplemented
        lo = max(self.knots[0, 0], other.knots[0, 0])
        hi = min(self.knots[-1, 0], other.knots[-1, 0])
        if lo >= hi:
            raise DomainError("maps have disjoint domains")
        xs = np.union1d(self.knots[:, 0], other.knots[:, 0])
        xs = xs[(xs >= lo) & (xs <= hi)]
        ys = np.interp(xs, self.knots[:, 0], self.knots[:, 1]) + np.interp(
            xs, other.knots[:, 0], other.knots[:, 1]
        )
        return PiecewiseLinearMap(np.column_stack([xs, ys]))

    def __neg__(self):
        return PiecewiseLinearMap(np.column_stack([self.knots[:, 0], -self.knots[:, 1]]))

    def __sub__(self, other):
        if not isinstance(other, PiecewiseLinearMap):
            return NotImplemented
        return self + (-other)


# -- constructors -------------------------------------------------------


def zero_field(frame: Frame) -> ScalarField:
    return ScalarField(frame, np.zeros(frame.shape))


def build_plateau(inner: Region | None, outer: Region, height: float,
                  ramp_width: float) -> ScalarField:
    """Urysohn-type plateau: `height` on `inner`, 0 outside `outer`, linear
    distance ramp in between.

    f(x) = height * min(1, dist(x, complement of outer) / ramp_width), with
    distances taken between cell centers. The inner region only constrains
    feasibility: it must sit at distance >= ramp_width from the complement
    so the plateau is exactly flat there. `inner=None` (or empty) is allowed
    and produces a pure ramp bump.

    Raises:
        GeometryError: empty outer, inner not inside outer, or ramp wider
            than the inner-to-boundary margin.
        FrameError: outer touches the frame boundary.
        DomainError: non-positive ramp width or zero height.
    """
    if ramp_width <= 0:
        raise DomainError("ramp_width must be positive")
    if height == 0:
        raise DomainError("height must be non-zero")
    if outer.is_empty:
        raise GeometryError("outer region is empty")
    if bool((outer.mask & outer.frame.boundary_mask()).any()):
        raise FrameError("outer region touches the frame boundary")

    frame = outer.frame
    if inner is not None and not inner.is_empty:
        if inner.frame != frame:
            raise FrameMismatchError("inner and outer regions live on different frames")
        if not inner.subset_of(outer):
            raise GeometryError("inner region is not contained in outer region")

    dist = ndimage.distance_transform_edt(outer.mask, sampling=(frame.dy, frame.dx))
    if inner is not None and not inner.is_empty:
        if float(dist[inner.mask].min()) < ramp_width:
            raise GeometryError(
                "inner region is closer than ramp_width to the boundary of outer"
            )
    values = height * np.minimum(1.0, dist / ramp_width)
    return ScalarField(frame, values)


# -- pointwise algebra ----------------------------------------------------


def add(f: ScalarField, g: ScalarField) -> ScalarField:
    f._check_frame(g)
    return ScalarField(f.frame, f.values + g.values)


def scale(f: ScalarField, a: float) -> ScalarField:
    return ScalarField(f.frame, a * f.values)


def truncate(f: ScalarField, delta: float) -> ScalarField:
    """min(f, delta) for non-negative f; stays in the subalgebra generated by f."""
    if delta <= 0:
        raise DomainError("truncation level must be positive")
    if float(f.values.min()) < 0:
        raise DomainError("truncate requires a non-negative field")
    return ScalarField(f.frame, np.minimum(f.values, delta))


def pos_part(f: ScalarField) -> ScalarField:
    return ScalarField(f.frame, np.maximum(f.values, 0.0))


def neg_part(f: ScalarField) -> ScalarField:
    return ScalarField(f.frame, np.maximum(-f.values, 0.0))


def compose(phi: PiecewiseLinearMap, f: ScalarField) -> ScalarField:
    """phi applied samplewise; the result lies in the subalgebra generated by f."""
    lo, hi = phi.domain
    fmin, fmax = f.value_range
    if fmin < lo or fmax > hi:
        raise DomainError(
            f"field range [{fmin}, {fmax}] exits map domain [{lo}, {hi}]"
        )
    return ScalarField(f.frame, phi(f.values))


def sup_norm(f: ScalarField) -> float:
    return float(np.abs(f.values).max())


def sup_distance(f: ScalarField, g: ScalarField) -> float:
    f._check_frame(g)
    return float(np.abs(f.values - g.values).max())


def support_region(f: ScalarField, eps: float = 0.0) -> Region:
    """Cells where |f| > eps, dilated by one cell: a compact support superset."""
    if eps < 0:
        raise DomainError("eps must be >= 0")
    mask = np.abs(f.values) > eps
    core = Region(f.frame, mask, COMPACT)
    if core.is_empty:
        return core
    try:
        return dilate(core, 1)
    except FrameError:
        # support already reaches the last interior ring; clip at the frame
        grown = ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool))
        return Region(f.frame, grown, COMPACT)


# -- level sets -----------------------------------------------------------


def superlevel_region(f: ScalarField, t: float, exclude_zero: bool = False) -> Region:
    """Open-role region of cells with value > t.

    With exclude_zero, cells whose value is exactly 0 are removed for t < 0,
    matching the superlevel set of the restriction away from the zero set.
    Thresholds at or above the maximum value give the empty region; any
    other threshold within tie epsilon of a sampled value is rejected.
    """
    vals = f.values
    if t >= float(vals.max()):
        return Region(f.frame, np.zeros(f.frame.shape, dtype=bool), OPEN)
    eps = f.tie_eps_value()
    near = np.abs(vals - t) <= eps
    if bool(near.any()):
        raise TieBreakError(f"threshold {t} collides with sampled values")
    mask = vals > t
    if exclude_zero and t < 0:
        mask = mask & (vals != 0.0)
    if bool((mask & f.frame.boundary_mask()).any()):
        raise FrameError(
            "superlevel set reaches the frame boundary; "
            "use exclude_zero for negative thresholds"
        )
    return Region(f.frame, mask, OPEN)


def sublevel_region(f: ScalarField, t: float) -> Region:
    """Compact-role region of cells with value <= t; only meaningful for t < 0."""
    vals = f.values
    eps = f.tie_eps_value()
    if bool((np.abs(vals - t) <= eps).any()):
        raise TieBreakError(f"threshold {t} collides with sampled values")
    if t >= 0:
        raise DomainError("sublevel regions are bounded only for t < 0")
    return Region(f.frame, vals <= t, COMPACT)


# -- export ---------------------------------------------------------------


def field_to_csv(f: ScalarField, path) -> None:
    """Dump as x,y,value rows at cell centers."""
    xx, yy = f.frame.center_grids()
    data = np.column_stack([xx.ravel(), yy.ravel(), f.values.ravel()])
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for x, y, v in data:
            fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
