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

from .errors import DomainError, FrameError, FrameMismatchError, GeometryError
from .grid import Frame, edge_cells
from .regions import COMPACT, Region, _bbox, _grow, dilate

# Tolerance for the phi(0) = 0 contract of piecewise-linear maps.
_PLM_ZERO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Grid-sampled real function vanishing on the frame boundary."""

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        # a field owns its values: adding 0.0 copies the caller's array,
        # which stays as it was
        self._own(np.ascontiguousarray(np.asarray(self.values, dtype=float)) + 0.0)

    @classmethod
    def _of(cls, frame: Frame, values: np.ndarray) -> "ScalarField":
        """The field of `values`, a float array just made for it that no
        caller holds, taken without a copy. A copy would write a second
        raster into freshly mapped pages: at 512², that made `ramp_field`
        four times slower."""
        field = object.__new__(cls)
        object.__setattr__(field, "frame", frame)
        field._own(np.add(values, 0.0, out=values))
        return field

    def _own(self, vals: np.ndarray):
        """Check and freeze `vals` as the values. Adding 0.0 gave the field
        one zero: -0.0 + 0.0 is 0.0, and every other value is unchanged."""
        if vals.shape != self.frame.shape:
            raise ValueError(f"values shape {vals.shape} != frame shape {self.frame.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        if bool((edge_cells(vals) != 0.0).any()):
            raise FrameError("field must vanish on the frame boundary")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check_frame(self, other: "ScalarField"):
        if self.frame != other.frame:
            raise FrameMismatchError("fields live on different frames")

    @property
    def value_range(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())

    def __add__(self, other):
        # kept for perfbench/test_oracles.py, which writes f + g
        if isinstance(other, ScalarField):
            return add(self, other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap:
    """Continuous piecewise-linear map with phi(0) = 0 on a closed interval.

    The zero constraint is what keeps compositions inside the singly
    generated subalgebra of a compactly supported field: composing cannot
    create values at infinity.
    """

    knots: np.ndarray  # (m, 2), x strictly increasing, domain contains 0

    def __post_init__(self):
        # a copy: the caller's knots stay writeable
        knots = np.array(self.knots, dtype=float, order="C")
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

    def __sub__(self, other):
        """self - other on the intersection of their domains."""
        if not isinstance(other, PiecewiseLinearMap):
            return NotImplemented
        lo = max(self.knots[0, 0], other.knots[0, 0])
        hi = min(self.knots[-1, 0], other.knots[-1, 0])
        if lo >= hi:
            raise DomainError("maps have disjoint domains")
        xs = np.union1d(self.knots[:, 0], other.knots[:, 0])
        xs = xs[(xs >= lo) & (xs <= hi)]
        ys = np.interp(xs, self.knots[:, 0], self.knots[:, 1]) - np.interp(
            xs, other.knots[:, 0], other.knots[:, 1]
        )
        return PiecewiseLinearMap(np.column_stack([xs, ys]))


# -- constructors -------------------------------------------------------


def build_plateau(inner: Region | None, outer: Region, height: float,
                  ramp_width: float) -> ScalarField:
    """Urysohn-type plateau: `height` on `inner`, 0 outside `outer`, linear
    distance ramp in between.

    f(x) = height * min(1, dist(x, complement of outer) / ramp_width), with
    distances taken between cell centers. The ramp is built on the padded
    bounding box of `outer` (see `distance_map`); every cell off it holds 0.
    The inner region only constrains feasibility: it must sit at distance
    >= ramp_width from the complement so the plateau is exactly flat there.
    `inner=None` (or empty) is allowed and produces a pure ramp bump.

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
    if bool(edge_cells(outer.mask).any()):
        raise FrameError("outer region touches the frame boundary")

    frame = outer.frame
    if inner is not None and not inner.is_empty:
        if inner.frame != frame:
            raise FrameMismatchError("inner and outer regions live on different frames")
        if not inner.subset_of(outer):
            raise GeometryError("inner region is not contained in outer region")

    box, dist = distance_map(outer)
    if inner is not None and not inner.is_empty:
        # inner lies inside outer, so inside the box
        if float(dist[inner.mask[box]].min()) < ramp_width:
            raise GeometryError(
                "inner region is closer than ramp_width to the boundary of outer"
            )
    return ramp_field(frame, box, dist, height, ramp_width)


def distance_map(outer: Region) -> tuple[tuple[slice, slice], np.ndarray]:
    """(box, dist): the distance from each cell center of `box` to the
    nearest center outside `outer`, where `box` is the bounding box of
    `outer` grown by one ring and clamped to the frame. Every cell off the
    box is at distance 0; an empty `outer` gives an empty box.

    The transform on the padded box is the full-frame one bit for bit.
    Every cell outside the box is empty. Clamping such a cell onto the
    padded box only shrinks its row and column offsets from any cell of the
    box, and the clamped cell is still outside the box, so empty: the
    nearest empty cell always lies in the padded box. Where the clamp meets
    the frame edge, the crop's edge is the frame's edge.
    """
    frame = outer.frame
    box = _bbox(outer.mask)
    if box is None:
        return (slice(0, 0), slice(0, 0)), np.zeros((0, 0))
    box = _grow(box, 1, frame.shape)
    return box, ndimage.distance_transform_edt(outer.mask[box], sampling=(frame.dy, frame.dx))


def ramp_field(frame: Frame, box: tuple[slice, slice], dist: np.ndarray,
               height: float, ramp_width: float) -> ScalarField:
    """The field height * min(1, dist / ramp_width) of a `distance_map`
    (box, dist), computed on the box alone. Off the box the distance is 0,
    and so is the field."""
    values = np.zeros(frame.shape)
    values[box] = height * np.minimum(1.0, dist / ramp_width)
    return ScalarField._of(frame, values)


# -- pointwise algebra ----------------------------------------------------


def add(f: ScalarField, g: ScalarField) -> ScalarField:
    f._check_frame(g)
    return ScalarField._of(f.frame, f.values + g.values)


def scale(f: ScalarField, a: float) -> ScalarField:
    return ScalarField._of(f.frame, a * f.values)


def truncate(f: ScalarField, delta: float) -> ScalarField:
    """min(f, delta) for non-negative f; stays in the subalgebra generated by f."""
    if delta <= 0:
        raise DomainError("truncation level must be positive")
    if float(f.values.min()) < 0:
        raise DomainError("truncate requires a non-negative field")
    return ScalarField._of(f.frame, np.minimum(f.values, delta))


def pos_part(f: ScalarField) -> ScalarField:
    return ScalarField._of(f.frame, np.maximum(f.values, 0.0))


def neg_part(f: ScalarField) -> ScalarField:
    return ScalarField._of(f.frame, np.maximum(-f.values, 0.0))


def compose(phi: PiecewiseLinearMap, f: ScalarField) -> ScalarField:
    """phi applied samplewise; the result lies in the subalgebra generated by f."""
    lo, hi = phi.domain
    fmin, fmax = f.value_range
    if fmin < lo or fmax > hi:
        raise DomainError(
            f"field range [{fmin}, {fmax}] exits map domain [{lo}, {hi}]"
        )
    return ScalarField._of(f.frame, phi(f.values))


def sup_norm(f: ScalarField) -> float:
    return float(np.abs(f.values).max())


def sup_distance(f: ScalarField, g: ScalarField) -> float:
    f._check_frame(g)
    return float(np.abs(f.values - g.values).max())


def support_region(f: ScalarField) -> Region:
    """Cells where f != 0, dilated by one cell: a compact support superset."""
    core = Region(f.frame, f.values != 0.0, COMPACT)
    if core.is_empty:
        return core
    # a field vanishes on the edge ring, so the core never touches it and
    # one ring of dilation stays inside the frame
    return dilate(core, 1)
