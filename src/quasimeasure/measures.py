"""Topological measures evaluated on rasterized regions.

Three variants:

* PointCountMeasure: a solid-set function. On a solid region the value is a
  superadditive non-decreasing table indexed by how many marked points the
  region contains; general regions are handled by the hole-subtraction
  recursion forced by additivity on disjoint unions. This family contains
  the genuinely non-linear examples.
* DensityMeasure / AtomicMeasure: ordinary measures, used as the linear
  baseline. Each hands out its atoms of mass, so a field's distribution
  function is a layer-cake sum of their weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .fields import ScalarField
from .grid import Frame
from .regions import Region, _bbox, _components_in_boxes, _holes, point_cells

POINT_COUNT = "point_count"
DENSITY = "density"
ATOMIC = "atomic"


class TopologicalMeasure:
    """Common interface: mass of a region and total mass of the plane."""

    kind: str = "abstract"

    def mass(self, region: Region) -> float:
        raise NotImplementedError

    def total_mass(self, frame: Frame) -> float:
        raise NotImplementedError

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray | float, float] | None:
        """f's value under each in-frame atom of mass, the atoms' weights and a scale.

        Values and weights are rasters of one shape, and an atom has mass
        weight * scale; a single float weight applies to every atom. A
        density's atoms are the cells: its values are f.values itself and its
        weights one float or a grid of the frame's shape. An atomic measure's
        raster is one row. The layer cake reads a density's on the field's
        support box, from the levels the field sorted once, and sorts an
        atomic measure's row itself. None for a measure that is not additive.
        """
        return None


class _MarkedPoints:
    """Marked points whose cells are looked up once per frame.

    A point within tie epsilon of a gridline raises TieBreakError on every
    lookup, since a failed lookup is not cached.
    """

    points: np.ndarray

    def _cells(self, frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell rows and columns of the in-frame points, and which points are in frame."""
        cached = self._cell_cache.get(frame)
        if cached is None:
            cells = point_cells(frame, self.points)
            inside = cells[:, 0] >= 0
            cached = (cells[inside, 0], cells[inside, 1], inside)
            for a in cached:
                a.setflags(write=False)
            self._cell_cache[frame] = cached
        return cached

    def marked_cells(self, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
        rows, cols, _ = self._cells(frame)
        return rows, cols


@dataclass(frozen=True, eq=False)
class PointCountMeasure(_MarkedPoints, TopologicalMeasure):
    """Solid-set measure driven by marked-point counts.

    value_by_count[c] is the mass of a solid region containing c of the
    points; the table must start at 0, be non-decreasing and superadditive
    (value[i+j] >= value[i] + value[j]).
    """

    points: np.ndarray
    value_by_count: np.ndarray

    kind = POINT_COUNT

    def __post_init__(self):
        # a measure owns its arrays: each is a copy, and the caller's stay writeable
        pts = np.array(self.points, dtype=float, order="C").reshape(-1, 2)
        table = np.array(self.value_by_count, dtype=float, order="C")
        n = len(pts)
        if table.shape != (n + 1,):
            raise ValueError(f"value_by_count must have length {n + 1}")
        _require_finite(points=pts, value_by_count=table)
        if table[0] != 0.0:
            raise ValueError("value_by_count[0] must be 0")
        if bool((np.diff(table) < 0).any()):
            raise ValueError("value_by_count must be non-decreasing")
        for i in range(n + 1):
            for j in range(n + 1 - i):
                if table[i + j] < table[i] + table[j] - 1e-12:
                    raise ValueError(
                        f"value_by_count is not superadditive at ({i}, {j})"
                    )
        pts.setflags(write=False)
        table.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "value_by_count", table)
        object.__setattr__(self, "_cell_cache", {})

    def total_mass(self, frame: Frame) -> float:
        return float(self.value_by_count[-1])

    def mass(self, region: Region) -> float:
        rows, cols = self.marked_cells(region.frame)
        return self._mass_of_mask(region.mask, rows, cols)

    def _lam(self, count: int) -> float:
        return float(self.value_by_count[count])

    def _mass_of_mask(self, mask, rows, cols) -> float:
        """Mass of `mask` with the marked points at (rows, cols) in its coordinates.

        Each component and each hole is worked on inside its own box; points
        outside a box are dropped from it. With lam(c) = value_by_count[c], a
        set whose box holds no point has mass 0, since lam(0) == 0, and three
        shortcuts skip labellings whose result cannot change the sum:

        * no point in the mask's box: the mass is 0.0 and nothing is
          labelled.
        * every point in a component's box lies on the component, or there
          is none: its holes hold no point and each subtracts exactly 0.0, so
          the component adds the value of its point count (lam(0) = +-0.0
          when its box is empty of points) with its holes unlabelled.
        * one point in the mask's box, and the mask covers it: the component
          holding it adds lam(1). Any other component either misses the
          point's hull, or holds the point in a hole whose mass is lam(1) and
          cancels exactly. So the mass is 0.0 + lam(1), with nothing labelled.

        The sum starts at 0.0 and every skipped term is +-0.0, so a -0.0 table
        entry comes out as 0.0, as it does when every term is added.

        A hole never reaches its component's box edge, which `_holes` pads,
        so each level of the recursion works on a box at least one cell
        smaller on every side, and the nesting ends.
        """
        box = _bbox(mask)
        if box is None:
            return 0.0
        inside = _in_box(box, rows, cols)
        if not inside.any():
            return 0.0
        rows, cols = rows[inside], cols[inside]
        if len(rows) == 1 and mask[rows[0], cols[0]]:
            return 0.0 + self._lam(1)
        total = 0.0
        for (rs, cs), comp in _components_in_boxes(mask, box):
            inside = _in_box((rs, cs), rows, cols)
            r, c = rows[inside] - rs.start, cols[inside] - cs.start
            if comp[r, c].all():  # no point off the component, or none at all
                total += self._lam(len(r))
                continue
            # hole labels are padded by one ring; label 1 is outside the hull
            labels, hole_parts = _holes(comp)
            r, c = r + 1, c + 1
            val = self._lam(int((labels[r, c] != 1).sum()))
            for (hr, hc), hole in hole_parts:
                val -= self._mass_of_mask(hole, r - hr.start, c - hc.start)
            total += val
        return total


def _require_finite(**arrays) -> None:
    """A NaN or infinite parameter would build a measure whose rho is nan."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


def _in_box(box, rows, cols) -> np.ndarray:
    """Which of the cells (rows, cols) lie in `box`."""
    rs, cs = box
    return (rows >= rs.start) & (rows < rs.stop) & (cols >= cs.start) & (cols < cs.stop)


@dataclass(frozen=True, eq=False)
class DensityMeasure(TopologicalMeasure):
    """Cell-area-weighted density, constant or per-cell.

    The density applies inside the frame. With unbounded=True it is taken to
    continue beyond the window, so the total mass is infinite while every
    compact set still has finite mass.
    """

    density: float | np.ndarray = 1.0
    unbounded: bool = False

    kind = DENSITY

    def __post_init__(self):
        d = self.density
        if isinstance(d, np.ndarray):
            # a copy: the caller's grid stays writeable
            d = np.array(d, dtype=float, order="C")
            d.setflags(write=False)
        else:
            d = float(d)
        _require_finite(density=d)
        if np.any(d < 0):
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "density", d)

    def _density_grid(self, frame: Frame) -> np.ndarray:
        """The per-cell density, checked against the frame's shape."""
        if self.density.shape != frame.shape:
            raise ValueError(
                f"density grid shape {self.density.shape} != frame shape {frame.shape}"
            )
        return self.density

    def total_mass(self, frame: Frame) -> float:
        if self.unbounded:
            return math.inf
        if isinstance(self.density, np.ndarray):
            return float(self._density_grid(frame).sum()) * frame.cell_area
        return self.density * (frame.nx * frame.ny) * frame.cell_area

    def mass(self, region: Region) -> float:
        if isinstance(self.density, np.ndarray):
            grid = self._density_grid(region.frame)
            return float(grid[region.mask].sum()) * region.frame.cell_area
        return self.density * region.cell_count * region.frame.cell_area

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray | float, float]:
        """The cells, as f.values and the density grid: mass density * cell_area.

        The layer cake takes each cell's product only inside the support box
        of f, where every non-zero value lies.
        """
        if isinstance(self.density, np.ndarray):
            return f.values, self._density_grid(f.frame), f.frame.cell_area
        return f.values, self.density, f.frame.cell_area


@dataclass(frozen=True, eq=False)
class AtomicMeasure(_MarkedPoints, TopologicalMeasure):
    """Finitely many weighted point masses."""

    points: np.ndarray
    weights: np.ndarray

    kind = ATOMIC

    def __post_init__(self):
        # copies: the caller's arrays stay writeable
        pts = np.array(self.points, dtype=float, order="C").reshape(-1, 2)
        w = np.array(self.weights, dtype=float, order="C")
        if w.shape != (len(pts),):
            raise ValueError("weights must match points")
        _require_finite(points=pts, weights=w)
        if bool((w < 0).any()):
            raise ValueError("weights must be non-negative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_cell_cache", {})

    def total_mass(self, frame: Frame) -> float:
        return float(self.weights.sum())

    def _in_frame(self, frame: Frame):
        """Cell rows, cell columns and weights of the points inside the frame."""
        rows, cols, inside = self._cells(frame)
        return rows, cols, self.weights[inside]

    def mass(self, region: Region) -> float:
        rows, cols, weights = self._in_frame(region.frame)
        return float(weights[region.mask[rows, cols]].sum())

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray, float]:
        """The in-frame points as a one-row raster: f's values there, and weights."""
        rows, cols, weights = self._in_frame(f.frame)
        return f.values[rows, cols][None], weights[None], 1.0


def tm_eval(mu: TopologicalMeasure, region: Region) -> float:
    """Mass of a region under the measure; always >= 0."""
    value = mu.mass(region)
    if value < 0:
        raise AssertionError(f"measure returned negative mass {value}")
    return value

